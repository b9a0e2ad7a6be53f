//! The `ClassMemory` contract, checked on every memory tier: chunk scoring
//! equals row scoring bit for bit (on a segment and on the full width),
//! and a BHD1 `put` → `get` round trip scores identically.

use boosthd::persist::{Reader, Writer};
use boosthd::{ClassMemory, I8Rows};
use hdc::backend::PackedMatrix;
use linalg::{Matrix, Rng64};

const CLASSES: usize = 5;
const DIM: usize = 200;

/// Unit-norm class rows, like every trained model stores.
fn classes(rng: &mut Rng64, dim: usize) -> Matrix {
    let mut m = Matrix::random_normal(CLASSES, dim, rng);
    linalg::kernels::normalize_rows(&mut m);
    m
}

fn check_contract<M: ClassMemory>(tier: &str) {
    let mut rng = Rng64::seed_from(17);
    // An encoded chunk with a zero row (degenerate query) among the
    // random ones; the segment is the weak-learner case.
    let mut z = Matrix::random_normal(9, DIM, &mut rng);
    z.row_mut(4).fill(0.0);
    for cols in [0..DIM, 40..120] {
        let memory = M::from_dense(&classes(&mut rng, cols.len()));
        assert_eq!(
            (memory.rows(), memory.dim()),
            (CLASSES, cols.len()),
            "{tier}"
        );
        let mut scratch = M::Scratch::default();
        let chunk = memory.score_chunk(&z, cols.clone(), &mut scratch);
        assert_eq!((chunk.rows(), chunk.cols()), (z.rows(), CLASSES), "{tier}");
        let mut w = Writer::new();
        memory.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let reloaded = M::get(&mut r).unwrap();
        assert!(r.is_exhausted(), "{tier}: trailing bytes after put");
        assert_eq!(reloaded.storage_bytes(), memory.storage_bytes(), "{tier}");
        let mut row = vec![0.0f32; CLASSES];
        let mut again = vec![0.0f32; CLASSES];
        for q in 0..z.rows() {
            let h = &z.row(q)[cols.clone()];
            memory.score_row(h, &mut scratch, &mut row);
            reloaded.score_row(h, &mut scratch, &mut again);
            let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&row), bits(chunk.row(q)), "{tier} {cols:?} row {q}");
            assert_eq!(bits(&row), bits(&again), "{tier} {cols:?} row {q} reload");
        }
    }
}

#[test]
fn f32_rows_honor_the_class_memory_contract() {
    check_contract::<Matrix>("f32");
}

#[test]
fn int8_rows_honor_the_class_memory_contract() {
    check_contract::<I8Rows>("int8");
}

#[test]
fn packed_rows_honor_the_class_memory_contract() {
    check_contract::<PackedMatrix>("1-bit");
}

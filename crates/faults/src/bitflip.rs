//! Bit-flip fault injection (paper Section IV-D, Figure 8).
//!
//! Wearable devices hold trained model parameters in small, often
//! unprotected memories; single-event upsets flip individual bits. The paper
//! models this as an independent Bernoulli(`p_b`) flip per bit of every
//! stored parameter word and measures accuracy degradation as `p_b` grows.
//!
//! A model lists the buffers it stores as [`StoredBits`], grouped into
//! stores, and [`flip_stored_bits`] walks them. Three storage layouts are
//! supported:
//!
//! * **f32 words** — a flip can hit the IEEE-754 sign, exponent, or
//!   mantissa. Exponent hits are what make DNNs catastrophically
//!   sensitive, while HDC's similarity voting absorbs them.
//! * **i8 bytes** — int8-quantized class rows; a flip moves one component
//!   by a power of two, or negates it at bit 7.
//! * **Packed sign rows** — for bitpacked binary-HDC models every stored
//!   bit *is* one hypervector component, so flips land directly on the
//!   `u64` words. This is the faithful SEU model for 1-bit associative
//!   memories: there is no exponent to corrupt, and a single upset perturbs
//!   one similarity by exactly `2/D`.
//!
//! **Determinism contract.** Flip positions are a pure function of
//! `(store sizes, p_b, rng seed)`: the geometric-gap walk consumes one
//! uniform draw per flip (plus one overshooting draw per store) from the
//! caller's [`Rng64`] and nothing else, so re-running an injection with the
//! same seed corrupts the same bits in the same order, regardless of
//! thread count or kernel dispatch level.

use linalg::Rng64;
use serde::{Deserialize, Serialize};

/// Summary of one injection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitflipReport {
    /// Number of parameter words visited: f32 words, i8 bytes, and the
    /// `⌈bits/64⌉` 64-bit words a store's valid sign bits fill.
    pub words: usize,
    /// Number of individual bits flipped.
    pub flipped: usize,
}

/// One stored parameter buffer, typed by the layout its bits are flipped
/// in.
#[derive(Debug)]
pub enum StoredBits<'a> {
    /// IEEE-754 words.
    F32(&'a mut [f32]),
    /// Two's-complement bytes. Flips can produce `-128` (`0x80`), a value
    /// the quantizer never emits; the integer kernels accept it in stored
    /// class rows (see `linalg::kernels::dot_i8`).
    I8(&'a mut [i8]),
    /// Row-major packed sign rows of `dim` valid bits each, every row
    /// padded to `⌈dim/64⌉` words. Padding bits are never flipped.
    Signs {
        /// The packed words.
        words: &'a mut [u64],
        /// Valid bits per row.
        dim: usize,
    },
}

impl StoredBits<'_> {
    /// Number of flippable bits.
    fn bit_count(&self) -> u64 {
        match self {
            StoredBits::F32(w) => w.len() as u64 * 32,
            StoredBits::I8(b) => b.len() as u64 * 8,
            StoredBits::Signs { words, dim } => {
                (words.len().checked_div(dim.div_ceil(64)).unwrap_or(0) * dim) as u64
            }
        }
    }

    /// Flips flippable bit `bit`, numbered word by word (row by row for
    /// sign rows) from the least significant bit.
    fn flip(&mut self, bit: u64) {
        match self {
            StoredBits::F32(w) => {
                let word = &mut w[(bit / 32) as usize];
                *word = f32::from_bits(word.to_bits() ^ (1 << (bit % 32)));
            }
            StoredBits::I8(b) => b[(bit / 8) as usize] ^= 1 << (bit % 8),
            StoredBits::Signs { words, dim } => {
                let dim = *dim as u64;
                let (row, offset) = (bit / dim, bit % dim);
                words[(row * dim.div_ceil(64) + offset / 64) as usize] ^= 1 << (offset % 64);
            }
        }
    }
}

/// Flips each bit of every store independently with probability `p_b`,
/// in place — the single-event-upset model of Figure 8.
///
/// Each store is a list of buffers whose bits are numbered in order as one
/// run and walked once. For the tiny probabilities the paper sweeps
/// (`10⁻⁶ … 10⁻⁴`), sampling a Bernoulli per bit would be wasteful;
/// instead flip positions are walked via geometric gaps
/// (`gap ~ ⌊ln U / ln(1−p)⌋` non-flipped bits before the next flip), which
/// draws from the exact binomial in O(flips). Grouping matters: two
/// buffers walked as one store draw different positions than the same
/// buffers walked as two.
///
/// `p_b >= 1` flips every bit without drawing; a `p_b` that is not
/// positive (NaN included) flips nothing and draws nothing.
pub fn flip_stored_bits<'a>(
    stores: impl IntoIterator<Item = Vec<StoredBits<'a>>>,
    p_b: f64,
    rng: &mut Rng64,
) -> BitflipReport {
    let mut report = BitflipReport::default();
    for mut store in stores {
        let (mut words, mut sign_bits) = (0, 0);
        for buffer in &store {
            match buffer {
                StoredBits::F32(w) => words += w.len(),
                StoredBits::I8(b) => words += b.len(),
                StoredBits::Signs { .. } => sign_bits += buffer.bit_count(),
            }
        }
        report.words += words + sign_bits.div_ceil(64) as usize;
        let total_bits = store.iter().map(StoredBits::bit_count).sum();
        // Flip positions only grow, so a cursor finds each one's buffer.
        let (mut buffer, mut start) = (0, 0);
        report.flipped += for_each_flip(total_bits, p_b, rng, |pos| {
            while pos - start >= store[buffer].bit_count() {
                start += store[buffer].bit_count();
                buffer += 1;
            }
            store[buffer].flip(pos - start);
        });
    }
    report
}

/// Visits each of `total_bits` positions independently with probability
/// `p_b`, calling `flip(pos)` for every hit in increasing order, and
/// returns the hit count. See [`flip_stored_bits`] for the scheme.
fn for_each_flip(total_bits: u64, p_b: f64, rng: &mut Rng64, mut flip: impl FnMut(u64)) -> usize {
    if total_bits == 0 || p_b.is_nan() || p_b <= 0.0 {
        return 0;
    }
    if p_b >= 1.0 {
        for pos in 0..total_bits {
            flip(pos);
        }
        return total_bits as usize;
    }
    let ln_keep = (1.0 - p_b).ln();
    let mut flipped = 0usize;
    let mut pos: u64 = 0;
    loop {
        // Avoid ln(0).
        let u = (rng.uniform() as f64).max(f64::MIN_POSITIVE);
        let gap = (u.ln() / ln_keep).floor() as u64;
        pos = pos.saturating_add(gap);
        if pos >= total_bits {
            break;
        }
        flip(pos);
        flipped += 1;
        pos += 1;
        if pos >= total_bits {
            break;
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Valid bits per packed test row: not a multiple of 64, so every row
    /// has padding.
    const DIM: usize = 100;

    /// An owned buffer of kind 0 (f32), 1 (i8) or 2 (sign rows), standing
    /// in for a model's storage.
    #[derive(Debug, PartialEq)]
    enum Buffer {
        F32(Vec<f32>),
        I8(Vec<i8>),
        Signs(Vec<u64>),
    }

    /// `n` all-zero stored words (rows, for sign rows) of `kind`.
    fn zeros(kind: usize, n: usize) -> Buffer {
        match kind {
            0 => Buffer::F32(vec![0.0; n]),
            1 => Buffer::I8(vec![0; n]),
            _ => Buffer::Signs(vec![0; n * DIM.div_ceil(64)]),
        }
    }

    impl Buffer {
        fn stored(&mut self) -> StoredBits<'_> {
            match self {
                Buffer::F32(w) => StoredBits::F32(w),
                Buffer::I8(b) => StoredBits::I8(b),
                Buffer::Signs(words) => StoredBits::Signs { words, dim: DIM },
            }
        }

        fn flip(&mut self, p_b: f64, rng: &mut Rng64) -> BitflipReport {
            flip_stored_bits([vec![self.stored()]], p_b, rng)
        }

        /// The stored bit patterns, for comparisons that NaN would spoil.
        fn bits(&self) -> Vec<u64> {
            match self {
                Buffer::F32(w) => w.iter().map(|v| u64::from(v.to_bits())).collect(),
                Buffer::I8(b) => b.iter().map(|&v| u64::from(v as u8)).collect(),
                Buffer::Signs(words) => words.clone(),
            }
        }
    }

    /// Runs `$check` on each buffer kind, as one named test per kind.
    macro_rules! per_kind {
        ($check:ident: $f32:ident, $i8:ident, $signs:ident) => {
            #[test]
            fn $f32() {
                $check(0);
            }
            #[test]
            fn $i8() {
                $check(1);
            }
            #[test]
            fn $signs() {
                $check(2);
            }
        };
    }

    per_kind!(zero_probability:
        zero_probability_flips_nothing,
        i8_zero_probability_flips_nothing,
        sign_flip_zero_probability_is_identity);
    per_kind!(probability_one:
        probability_one_flips_every_bit,
        i8_probability_one_inverts_every_byte,
        sign_flip_probability_one_negates_every_valid_bit);
    per_kind!(count_matches_expectation:
        flip_count_matches_expectation,
        i8_flip_count_matches_expectation,
        sign_flip_count_matches_expectation);
    per_kind!(deterministic_per_seed:
        flips_are_deterministic_per_seed,
        i8_flips_are_deterministic_per_seed,
        sign_flips_are_deterministic_per_seed);

    fn zero_probability(kind: usize) {
        for p_b in [0.0, -1.0, f64::NAN] {
            let mut buffer = zeros(kind, 40);
            let mut rng = Rng64::seed_from(0);
            assert_eq!(buffer.flip(p_b, &mut rng).flipped, 0, "p_b {p_b}");
            assert_eq!(buffer, zeros(kind, 40), "p_b {p_b}");
            let untouched = Rng64::seed_from(0).uniform();
            assert_eq!(rng.uniform(), untouched, "p_b {p_b} must draw nothing");
        }
    }

    fn probability_one(kind: usize) {
        let mut buffer = zeros(kind, 4);
        let report = buffer.flip(1.0, &mut Rng64::seed_from(0));
        assert_eq!(report.flipped, [128, 32, 4 * DIM][kind]);
        assert_eq!(report.words, [4, 4, (4 * DIM).div_ceil(64)][kind]);
        // Exactly the valid bits flipped: for sign rows, no padding.
        let ones = [
            &[0xFFFF_FFFF][..],
            &[0xFF],
            &[u64::MAX, (1 << (DIM - 64)) - 1],
        ];
        assert_eq!(buffer.bits(), ones[kind].repeat(4));
    }

    fn count_matches_expectation(kind: usize) {
        let mut rng = Rng64::seed_from(42 + kind as u64);
        let (p_b, n, trials) = (1e-3, [50_000, 200_000, 16_000][kind], 20);
        let total: usize = (0..trials)
            .map(|_| zeros(kind, n).flip(p_b, &mut rng).flipped)
            .sum();
        let expected = (n * [32, 8, DIM][kind]) as f64 * p_b * trials as f64;
        assert!(
            (total as f64 - expected).abs() < 0.15 * expected,
            "observed {total} vs expected {expected}"
        );
    }

    fn deterministic_per_seed(kind: usize) {
        let run = |seed: u64| {
            let mut buffer = zeros(kind, 1000);
            buffer.flip(1e-2, &mut Rng64::seed_from(seed));
            buffer.bits()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn double_flip_restores_word() {
        // Flipping the same bit twice must restore the original value —
        // verified via the XOR identity.
        let original = 3.75f32;
        let flipped_once = f32::from_bits(original.to_bits() ^ (1 << 30));
        let flipped_twice = f32::from_bits(flipped_once.to_bits() ^ (1 << 30));
        assert_eq!(original, flipped_twice);
    }

    #[test]
    fn i8_double_flip_restores_byte() {
        let original = -37i8;
        let once = (original as u8 ^ (1 << 7)) as i8;
        let twice = (once as u8 ^ (1 << 7)) as i8;
        assert_eq!(original, twice);
    }

    #[test]
    fn a_store_walks_its_buffers_as_one_run() {
        let (p_b, seed) = (1e-2, 9);
        for kind in 0..3 {
            let (mut a, mut b, mut joined) = (zeros(kind, 300), zeros(kind, 300), zeros(kind, 600));
            let one_store = vec![a.stored(), b.stored()];
            let report = flip_stored_bits([one_store], p_b, &mut Rng64::seed_from(seed));
            assert_eq!(report, joined.flip(p_b, &mut Rng64::seed_from(seed)));
            assert_eq!([a.bits(), b.bits()].concat(), joined.bits());

            // Walked as two stores, the second restarts its walk.
            let (mut c, mut d) = (zeros(kind, 300), zeros(kind, 300));
            let two_stores = [vec![c.stored()], vec![d.stored()]];
            flip_stored_bits(two_stores, p_b, &mut Rng64::seed_from(seed));
            assert_eq!(c.bits(), a.bits());
            assert_ne!(d.bits(), b.bits());
        }
    }

    #[test]
    fn empty_buffer_is_fine() {
        for kind in 0..3 {
            let report = zeros(kind, 0).flip(0.5, &mut Rng64::seed_from(1));
            assert_eq!(report, BitflipReport::default());
        }
    }
}

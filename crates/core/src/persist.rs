//! Compact binary persistence for trained models.
//!
//! Wearable deployments flash a trained model onto the device; this module
//! provides the byte format. The dependency policy for this reproduction
//! admits `serde` but no serializer crate, so the codec is hand-rolled:
//! little-endian, length-prefixed, with a magic header and version byte so
//! stale blobs fail loudly instead of mis-deserializing.
//!
//! ```text
//! blob     := magic:u32 version:u8 kind:u8 payload
//! matrix   := rows:u64 cols:u64 f32[rows·cols]
//! vec<f32> := len:u64 f32[len]
//! vec<u64> := len:u64 u64[len]          (v2+)
//! vec<i8>  := len:u64 i8[len]           (v4+)
//! packed   := rows:u64 dim:u64 vec<u64> (v2+, bitpacked sign matrices)
//! i8rows   := rows:u64 cols:u64 vec<f32> vec<i8>  (v4+, scaled int8 rows)
//! encoder  := matrix vec<f32>           (stored projection + bias)
//! ```
//!
//! The same grammar also serializes in a **heap-mode** split (see
//! [`Writer::new_with_heap`]): every length-prefixed array body moves to a
//! separate 8-byte-aligned payload heap and the structure stream records
//! its heap offset instead. The fleet model store persists records in
//! that split; plain `.bhd` file blobs always use the inline layout above.
//! Either way the reader decodes every array into an owned buffer. Heap
//! offsets are multiples of 8 (a format invariant the reader checks) and
//! must lie inside the heap.
//!
//! Version history: **v1** stored only the dense-f32 models (kinds 1–2);
//! **v2** adds the bitpacked inference models (kinds 3–4); **v3** adds the
//! centroid model (kind 5); **v4** adds the scaled-int8 inference models
//! (kinds 6–7). Every version keeps the earlier layouts unchanged, so old
//! blobs remain readable. The one exception: v4 writers could also store a
//! rematerialized-encoder recipe (a `u64::MAX` row sentinel where a stored
//! projection's row count would sit) instead of the projection. Readers
//! now reject such blobs with a [`BoostHdError::DataMismatch`] rather than
//! expand a few dozen bytes into a `D·F` matrix.
//!
//! # Model kinds
//!
//! Every persisted model is a frozen shape over a class memory
//! ([`crate::frozen`]), optionally wrapped with its training
//! configuration. One table, `FORMATS`, maps each to its BHD1 kind byte,
//! the payload tag BHDP envelopes and BHFS store records carry (a separate,
//! older numbering), and the oldest BHD1 version that knows the kind:
//!
//! | model                     | shape      | memory | kind | tag | min version |
//! |---------------------------|------------|--------|------|-----|-------------|
//! | [`OnlineHd`]              | `Single`   | f32    | 1    | 1   | v1          |
//! | [`BoostHd`]               | `Ensemble` | f32    | 2    | 3   | v1          |
//! | [`QuantizedHd`]           | `Single`   | 1-bit  | 3    | 4   | v2          |
//! | [`QuantizedBoostHd`]      | `Ensemble` | 1-bit  | 4    | 5   | v2          |
//! | [`crate::CentroidHd`]     | `Single`   | f32    | 5    | 2   | v3          |
//! | [`QuantizedI8Hd`]         | `Single`   | int8   | 6    | 6   | v4          |
//! | [`QuantizedI8BoostHd`]    | `Ensemble` | int8   | 7    | 7   | v4          |
//!
//! A quantized [`crate::ModelSpec`] names the shape by its variant
//! (`QuantizedOnlineHd` → `Single`, `QuantizedBoostHd` → `Ensemble`) and
//! the memory by its [`crate::Tier`], which maps the pair to its payload
//! tag: `QuantizedBoostHd { tier: Tier::Int8, .. }` persists as tag 7.
//!
//! The frozen shapes share two payload layouts:
//!
//! ```text
//! single   := num_classes:u64 encoder memory
//! ensemble := dim_total:u64 voting:u8 num_classes:u64 encoder learners
//! learners := n:u64 (alpha:f32 seg_start:u64 seg_end:u64 memory
//!                    own:u8 [encoder if own = 1])^n
//! memory   := matrix | packed | i8rows
//! ```
//!
//! CentroidHD is exactly an f32 `single`. OnlineHD prefixes its `single`
//! with its training configuration; BoostHD writes its configuration,
//! class count, shared encoder and per-learner training errors, then
//! `learners`.
//!
//! # Example
//!
//! ```
//! use boosthd::{OnlineHd, OnlineHdConfig, Classifier};
//! use linalg::{Matrix, Rng64};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed_from(1);
//! let x = Matrix::random_normal(40, 3, &mut rng);
//! let y: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let config = OnlineHdConfig { dim: 64, epochs: 2, ..Default::default() };
//! let model = OnlineHd::fit(&config, &x, &y)?;
//!
//! let bytes = model.to_bytes();
//! let restored = OnlineHd::from_bytes(&bytes)?;
//! assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
//! # Ok(())
//! # }
//! ```

use crate::boost::{BoostHd, BoostHdConfig, EnsembleMode, SampleMode, Voting};
use crate::centroid::CentroidHd;
use crate::classifier::Classifier;
use crate::error::{BoostHdError, Result};
use crate::frozen::{Ensemble, Single};
use crate::online::{OnlineHd, OnlineHdConfig};
use crate::pipeline::{Model, PayloadKind};
use crate::quantized::{QuantizedBoostHd, QuantizedHd};
use crate::quantized_i8::{QuantizedI8BoostHd, QuantizedI8Hd};
use hdc::backend::PackedMatrix;
use hdc::encoder::SinusoidEncoder;
use linalg::Matrix;

/// `"BHD1"` little-endian.
const MAGIC: u32 = 0x3144_4842;
/// Bump on any incompatible layout change; readers accept every version
/// back to [`MIN_VERSION`] whose layout for the requested kind is known.
const VERSION: u8 = 4;
/// Oldest readable blob version.
const MIN_VERSION: u8 = 1;

/// One persisted model kind; see the [module docs](self) for the table.
pub(crate) struct Format {
    /// The model family.
    pub(crate) payload: PayloadKind,
    /// BHD1 header kind byte.
    pub(crate) kind: u8,
    /// Payload tag in BHDP envelopes and BHFS store records.
    pub(crate) tag: u8,
    /// Oldest BHD1 version whose readers know this kind.
    pub(crate) min_version: u8,
    /// Decodes a full BHD1 blob of this kind (header included).
    pub(crate) decode: fn(&mut Reader<'_>) -> Result<Box<dyn Model>>,
}

/// One [`FORMATS`] row; each payload kind shares its model type's name.
macro_rules! format_row {
    ($model:ident, $kind:expr, $tag:expr, $min_version:expr) => {
        Format {
            payload: PayloadKind::$model,
            kind: $kind,
            tag: $tag,
            min_version: $min_version,
            decode: |r| Ok(Box::new($model::decode_from(r)?)),
        }
    };
}

/// The (shape, memory) → kind table: model, BHD1 kind byte,
/// envelope/store tag, minimum BHD1 version.
pub(crate) const FORMATS: [Format; 7] = [
    format_row!(OnlineHd, 1, 1, 1),
    format_row!(BoostHd, 2, 3, 1),
    format_row!(QuantizedHd, 3, 4, 2),
    format_row!(QuantizedBoostHd, 4, 5, 2),
    format_row!(CentroidHd, 5, 2, 3),
    format_row!(QuantizedI8Hd, 6, 6, 4),
    format_row!(QuantizedI8BoostHd, 7, 7, 4),
];

/// The table row of `payload`; `None` for [`PayloadKind::Unsupported`].
pub(crate) fn format_of(payload: PayloadKind) -> Option<&'static Format> {
    FORMATS.iter().find(|f| f.payload == payload)
}

fn persisted(payload: PayloadKind) -> &'static Format {
    format_of(payload).expect("model family has no BHD1 kind")
}

/// Row-count sentinel marking a rematerialized-encoder recipe where a
/// stored projection's `rows:u64` would sit. Recipes are no longer
/// supported; [`get_encoder`] names them in its error instead of reporting
/// a matrix-shape overflow.
const REMAT_SENTINEL: u64 = u64::MAX;

/// Row-count sentinel marking a stored projection serialized as its F×D
/// *transpose* — the layout the encoder actually holds in memory. Only
/// heap-mode streams (the fleet model store) emit it, so plain BHD1 file
/// blobs stay byte-identical to v4; the transpose round trip is an exact
/// permutation, so either layout reloads to bit-identical encodings.
const STORED_T_SENTINEL: u64 = u64::MAX - 1;

pub(crate) fn persist_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

/// Little-endian byte sink.
///
/// Two modes share every `put_*` call:
///
/// * **inline** ([`Writer::new`]) — array bodies are written in place,
///   producing the classic single-stream BHD1 layout;
/// * **heap** ([`Writer::new_with_heap`]) — every length-prefixed array
///   body is appended to a separate 8-byte-aligned *payload heap* and the
///   structure stream records its heap byte offset (`u64`) where the body
///   would sit. The fleet model store persists records in this split.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    heap: Option<Vec<u8>>,
}

impl Writer {
    /// Creates an empty inline-mode writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap-mode writer (see the type docs).
    pub fn new_with_heap() -> Self {
        Self {
            buf: Vec::new(),
            heap: Some(Vec::new()),
        }
    }

    /// Whether this writer routes array bodies to a payload heap.
    pub fn has_heap(&self) -> bool {
        self.heap.is_some()
    }

    /// Finishes, returning the encoded bytes (inline mode).
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.heap.is_none(), "heap-mode writer needs into_parts");
        self.buf
    }

    /// Finishes a heap-mode writer, returning `(structure, heap)`. Every
    /// array offset the structure records is a multiple of 8 within the
    /// heap; [`Reader::new_with_heap`] rejects any other offset.
    pub fn into_parts(self) -> (Vec<u8>, Vec<u8>) {
        (self.buf, self.heap.unwrap_or_default())
    }

    /// Appends an array body produced by `write`: in place (inline mode),
    /// or at the next 8-aligned heap offset, which the structure stream
    /// records as a `u64` (heap mode).
    fn put_body(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        match self.heap.as_mut() {
            None => write(&mut self.buf),
            Some(heap) => {
                heap.resize(heap.len().next_multiple_of(8), 0);
                let off = heap.len() as u64;
                write(heap);
                self.put_u64(off);
            }
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        self.put_body(|b| v.iter().for_each(|x| b.extend_from_slice(&x.to_le_bytes())));
    }

    /// Appends a length-prefixed `i8` slice (v4+).
    pub fn put_i8_slice(&mut self, v: &[i8]) {
        self.put_u64(v.len() as u64);
        self.put_body(|b| b.extend(v.iter().map(|&x| x as u8)));
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        self.put_body(|b| v.iter().for_each(|x| b.extend_from_slice(&x.to_le_bytes())));
    }

    /// Appends a shape-prefixed bitpacked matrix.
    pub fn put_packed_matrix(&mut self, m: &PackedMatrix) {
        self.put_u64(m.rows() as u64);
        self.put_u64(m.dim() as u64);
        self.put_u64_slice(m.as_words());
    }

    /// Appends a shape-prefixed matrix.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_u64(m.rows() as u64);
        self.put_u64(m.cols() as u64);
        let data = m.as_slice();
        self.put_body(|b| {
            data.iter()
                .for_each(|x| b.extend_from_slice(&x.to_le_bytes()))
        });
    }
}

/// Little-endian byte source with bounds checking.
///
/// The heap-mode constructor ([`Reader::new_with_heap`]) decodes structure
/// streams written by a heap-mode [`Writer`]: each array read resolves its
/// `u64` heap offset against the borrowed heap and decodes the body from
/// there, exactly as an inline read decodes it in place.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    heap: Option<&'a [u8]>,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice (inline mode).
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            heap: None,
        }
    }

    /// Wraps a structure stream plus the payload heap its array offsets
    /// point into (heap mode).
    pub fn new_with_heap(data: &'a [u8], heap: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            heap: Some(heap),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| persist_err("truncated model blob"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// [`Reader::take`] for a counted array: validates `count × elem`
    /// against the bytes actually remaining *before* any allocation, so a
    /// corrupted length prefix yields a descriptive error instead of a
    /// multi-gigabyte reserve or an abort.
    fn take_elems(&mut self, count: usize, elem: usize, what: &str) -> Result<&'a [u8]> {
        let bytes = count
            .checked_mul(elem)
            .ok_or_else(|| persist_err(format!("{what} length {count} overflows")))?;
        let remaining = self.data.len() - self.pos;
        if bytes > remaining {
            return Err(persist_err(format!(
                "{what} claims {count} elements ({bytes} bytes) but only {remaining} bytes remain"
            )));
        }
        self.take(bytes)
    }

    /// The `count × elem` body bytes of a counted array: read in place
    /// (inline mode) or resolved through the heap offset the structure
    /// stream records (heap mode).
    fn body(&mut self, count: usize, elem: usize, what: &str) -> Result<&'a [u8]> {
        match self.heap {
            None => self.take_elems(count, elem, what),
            Some(heap) => self.heap_ref(heap, count, elem, what),
        }
    }

    /// Reads an array's heap offset and returns the referenced
    /// `count × elem` bytes of `heap`. The offset must be a multiple of 8
    /// (what the heap-mode [`Writer`] always records) and the range must
    /// lie inside the heap.
    fn heap_ref(
        &mut self,
        heap: &'a [u8],
        count: usize,
        elem: usize,
        what: &str,
    ) -> Result<&'a [u8]> {
        let off = self.get_len()?;
        if !off.is_multiple_of(8) {
            return Err(persist_err(format!(
                "{what} heap offset {off} is not 8-byte aligned"
            )));
        }
        let bytes = count
            .checked_mul(elem)
            .ok_or_else(|| persist_err(format!("{what} length {count} overflows")))?;
        off.checked_add(bytes)
            .filter(|&end| end <= heap.len())
            .map(|end| &heap[off..end])
            .ok_or_else(|| {
                persist_err(format!(
                    "{what} payload at {off}+{bytes} exceeds heap of {} bytes",
                    heap.len()
                ))
            })
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` that must fit a `usize`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or overflow.
    pub fn get_len(&mut self) -> Result<usize> {
        usize::try_from(self.get_u64()?).map_err(|_| persist_err("length overflows usize"))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `len` raw bytes, validating `len` against the remaining
    /// input *before* any allocation — the read for untrusted counted
    /// sections (envelope spec text, embedded payloads).
    ///
    /// # Errors
    ///
    /// Fails with a descriptive error naming `what` when fewer than `len`
    /// bytes remain.
    pub fn get_bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        self.take_elems(len, 1, what)
    }

    fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    /// Reads a length-prefixed `f32` vector.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.get_len()?;
        Ok(Self::decode_f32s(self.body(len, 4, "f32 vector")?))
    }

    /// Reads a length-prefixed `i8` vector (v4+).
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_i8_vec(&mut self) -> Result<Vec<i8>> {
        let len = self.get_len()?;
        Ok(self
            .body(len, 1, "i8 vector")?
            .iter()
            .map(|&b| b as i8)
            .collect())
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.get_len()?;
        Ok(self
            .body(len, 8, "u64 vector")?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a shape-prefixed bitpacked matrix.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or inconsistent shape.
    pub fn get_packed_matrix(&mut self) -> Result<PackedMatrix> {
        let rows = self.get_len()?;
        let dim = self.get_len()?;
        let words = self.get_u64_vec()?;
        PackedMatrix::from_parts(words, rows, dim).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads a shape-prefixed matrix.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or inconsistent shape.
    pub fn get_matrix(&mut self) -> Result<Matrix> {
        let rows = self.get_len()?;
        let cols = self.get_len()?;
        self.matrix_body(rows, cols, "matrix")
    }

    /// The `rows × cols` body of a matrix whose shape was already read.
    fn matrix_body(&mut self, rows: usize, cols: usize, what: &str) -> Result<Matrix> {
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| persist_err(format!("{what} shape overflows")))?;
        let data = Self::decode_f32s(self.body(n, 4, what)?);
        Matrix::from_vec(rows, cols, data).map_err(|e| persist_err(e.to_string()))
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Crash-safe file publication: the bytes land in a same-directory temp
/// file, are fsynced, and only then atomically renamed over `path` (with
/// a best-effort directory-entry sync afterwards). A crash or kill at any
/// instant leaves either the old file or the complete new one at `path` —
/// never a torn mix that loads as garbage.
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "model".into());
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&name),
        None => std::path::PathBuf::from(&name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            if let Ok(dh) = std::fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes the BHD1 header for a model of family `payload`.
pub(crate) fn put_header(w: &mut Writer, payload: PayloadKind) {
    w.put_u32(MAGIC);
    w.put_u8(VERSION);
    w.put_u8(persisted(payload).kind);
}

/// Reads and validates a BHD1 header for a model of family `payload`,
/// returning the blob version.
pub(crate) fn check_header(r: &mut Reader<'_>, payload: PayloadKind) -> Result<u8> {
    let format = persisted(payload);
    if r.get_u32()? != MAGIC {
        return Err(persist_err("not a BoostHD model blob (bad magic)"));
    }
    let version = r.get_u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(persist_err(format!(
            "unsupported model blob version {version} (supported {MIN_VERSION}..={VERSION})"
        )));
    }
    if version < format.min_version {
        return Err(persist_err(format!(
            "model kind {} requires blob version {}, got {version}",
            format.kind, format.min_version
        )));
    }
    let got = r.get_u8()?;
    if got != format.kind {
        return Err(persist_err(format!(
            "blob holds model kind {got}, expected {}",
            format.kind
        )));
    }
    Ok(version)
}

pub(crate) fn put_encoder(w: &mut Writer, enc: &SinusoidEncoder) {
    if w.has_heap() {
        // Heap mode persists the F×D transpose the encoder actually holds,
        // so a heap read decodes the projection with no transpose pass.
        w.put_u64(STORED_T_SENTINEL);
        w.put_matrix(enc.projection_t());
    } else {
        w.put_matrix(&enc.projection_matrix());
    }
    w.put_f32_slice(enc.bias());
}

pub(crate) fn get_encoder(r: &mut Reader<'_>, version: u8) -> Result<SinusoidEncoder> {
    let rows = r.get_u64()?;
    if rows == REMAT_SENTINEL {
        return Err(persist_err(
            "blob holds a rematerialized-encoder recipe; \
             only stored projections are supported",
        ));
    }
    if rows == STORED_T_SENTINEL {
        if version < 4 {
            return Err(persist_err(format!(
                "transposed stored encoder requires blob version 4, got {version}"
            )));
        }
        let projection_t = r.get_matrix()?;
        let bias = r.get_f32_vec()?;
        return SinusoidEncoder::from_parts_transposed(projection_t, bias)
            .map_err(BoostHdError::from);
    }
    // Stored projection: `rows` was the matrix row count — finish reading
    // the v1-layout matrix in place.
    let rows = usize::try_from(rows).map_err(|_| persist_err("length overflows usize"))?;
    let cols = r.get_len()?;
    let projection = r.matrix_body(rows, cols, "projection matrix")?;
    let bias = r.get_f32_vec()?;
    SinusoidEncoder::from_parts(projection, bias).map_err(BoostHdError::from)
}

/// Implements the public file codec — `to_bytes`, `from_bytes`, `save`,
/// `load` — for a model type with crate-internal `encode_into` /
/// `decode_from` bodies (the bodies the fleet store's heap-mode records
/// share).
macro_rules! blob_codec {
    ($ty:ty $(where $g:ident: $bound:path)?) => {
        impl$(<$g: $bound>)? $ty {
            /// Serializes the model to the compact binary format.
            ///
            /// # Panics
            ///
            /// Panics for a family with no BHD1 kind of its own: an f32
            /// `Ensemble`, which persists only inside a `BoostHd`.
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut w = $crate::persist::Writer::new();
                self.encode_into(&mut w);
                w.into_bytes()
            }

            /// Deserializes a model written by `to_bytes`.
            ///
            /// # Errors
            ///
            /// Returns [`crate::BoostHdError::DataMismatch`] for truncated,
            /// corrupt, inconsistent, or wrong-kind blobs.
            pub fn from_bytes(bytes: &[u8]) -> $crate::Result<Self> {
                let mut r = $crate::persist::Reader::new(bytes);
                let model = Self::decode_from(&mut r)?;
                if !r.is_exhausted() {
                    return Err($crate::persist::persist_err("trailing bytes after model blob"));
                }
                Ok(model)
            }

            /// Writes the model to a file (atomically: temp sibling + fsync +
            /// rename, so a crash mid-save never leaves a torn file at `path`).
            ///
            /// # Errors
            ///
            /// Returns [`crate::BoostHdError::DataMismatch`] wrapping any I/O
            /// failure.
            pub fn save(&self, path: impl AsRef<std::path::Path>) -> $crate::Result<()> {
                $crate::persist::atomic_write(path.as_ref(), &self.to_bytes())
                    .map_err(|e| $crate::persist::persist_err(e.to_string()))
            }

            /// Reads a model written by `save`.
            ///
            /// # Errors
            ///
            /// As `from_bytes`, plus I/O failures.
            pub fn load(path: impl AsRef<std::path::Path>) -> $crate::Result<Self> {
                let bytes = std::fs::read(path)
                    .map_err(|e| $crate::persist::persist_err(e.to_string()))?;
                Self::from_bytes(&bytes)
            }
        }
    };
}
pub(crate) use blob_codec;

impl OnlineHd {
    /// Full-blob encode body shared by [`OnlineHd::to_bytes`] and the fleet
    /// store's heap-mode records: header, configuration, then the f32
    /// `single`.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, PayloadKind::OnlineHd);
        let c = self.config();
        w.put_u64(c.dim as u64);
        w.put_f32(c.lr);
        w.put_u64(c.epochs as u64);
        w.put_u8(c.bootstrap as u8);
        w.put_u64(c.seed);
        self.single.put_body(w);
    }

    /// Decodes a full model blob from `r` — the body shared by
    /// [`OnlineHd::from_bytes`] and the fleet store's heap-mode reads
    /// (exhaustion is the caller's check).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, PayloadKind::OnlineHd)?;
        let config = OnlineHdConfig {
            dim: r.get_len()?,
            lr: r.get_f32()?,
            epochs: r.get_len()?,
            bootstrap: r.get_u8()? != 0,
            seed: r.get_u64()?,
        };
        Self::from_parts(Single::get_body(r, version)?, config)
    }
}

blob_codec!(OnlineHd);

/// Byte tags of the configuration enums: a value's tag is its index.
pub(crate) const VOTINGS: [Voting; 2] = [Voting::Soft, Voting::Hard];
const MODES: [EnsembleMode; 2] = [EnsembleMode::Partitioned, EnsembleMode::FullDimension];
const SAMPLE_MODES: [SampleMode; 2] = [SampleMode::Resample, SampleMode::Reweight];

/// The byte tag of `value` in its tag table.
pub(crate) fn tag_of<T: PartialEq>(table: &[T], value: T) -> u8 {
    table
        .iter()
        .position(|t| *t == value)
        .expect("value is in its tag table") as u8
}

/// The value `tag` names in `table`.
pub(crate) fn from_tag<T: Copy>(table: &[T], tag: u8, what: &str) -> Result<T> {
    table
        .get(tag as usize)
        .copied()
        .ok_or_else(|| persist_err(format!("unknown {what} tag {tag}")))
}

impl BoostHd {
    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, PayloadKind::BoostHd);
        let c = self.config();
        w.put_u64(c.dim_total as u64);
        w.put_u64(c.n_learners as u64);
        w.put_f32(c.lr);
        w.put_u64(c.epochs as u64);
        w.put_u8(c.bootstrap as u8);
        w.put_u8(tag_of(&VOTINGS, c.voting));
        w.put_u8(tag_of(&MODES, c.mode));
        w.put_u8(tag_of(&SAMPLE_MODES, c.sample_mode));
        w.put_f64(c.boost_shrinkage);
        w.put_f64(c.weight_clamp);
        w.put_u8(c.class_balanced_init as u8);
        w.put_u64(c.seed);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_u64(self.training_errors().len() as u64);
        for &e in self.training_errors() {
            w.put_f64(e);
        }
        self.ensemble.put_learners(w);
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, PayloadKind::BoostHd)?;
        let config = BoostHdConfig {
            dim_total: r.get_len()?,
            n_learners: r.get_len()?,
            lr: r.get_f32()?,
            epochs: r.get_len()?,
            bootstrap: r.get_u8()? != 0,
            voting: from_tag(&VOTINGS, r.get_u8()?, "voting")?,
            mode: from_tag(&MODES, r.get_u8()?, "ensemble mode")?,
            sample_mode: from_tag(&SAMPLE_MODES, r.get_u8()?, "sample mode")?,
            boost_shrinkage: r.get_f64()?,
            weight_clamp: r.get_f64()?,
            class_balanced_init: r.get_u8()? != 0,
            seed: r.get_u64()?,
        };
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let n_errors = r.get_len()?;
        let mut train_errors = Vec::with_capacity(n_errors.min(1 << 16));
        for _ in 0..n_errors {
            train_errors.push(r.get_f64()?);
        }
        let learners = Ensemble::get_learners(r, version)?;
        let ensemble = Ensemble::from_parts(
            encoder,
            learners,
            num_classes,
            config.voting,
            config.dim_total,
        )?;
        Self::from_parts(ensemble, config, train_errors)
    }
}

blob_codec!(BoostHd);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use linalg::Rng64;

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-1.5);
        w.put_f64(std::f64::consts::PI);
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), -1.5);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn matrix_round_trip() {
        let mut rng = Rng64::seed_from(1);
        let m = Matrix::random_normal(5, 7, &mut rng);
        let mut w = Writer::new();
        w.put_matrix(&m);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_matrix().unwrap(), m);
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let mut w = Writer::new();
        w.put_u64(10);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn onlinehd_round_trip_preserves_predictions() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let restored = OnlineHd::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.class_hypervectors(), restored.class_hypervectors());
        assert_eq!(model.config(), restored.config());
    }

    #[test]
    fn boosthd_round_trip_preserves_everything() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let restored = BoostHd::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.alphas(), restored.alphas());
        assert_eq!(model.training_errors(), restored.training_errors());
        assert_eq!(model.config(), restored.config());
    }

    #[test]
    fn file_save_load_round_trip() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 60,
            n_learners: 3,
            epochs: 2,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let dir = std::env::temp_dir().join("boosthd_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bhd");
        model.save(&path).unwrap();
        let restored = BoostHd::load(&path).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_onlinehd_round_trips() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let restored = QuantizedHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(quantized.class_bits(), restored.class_bits());
    }

    #[test]
    fn quantized_boosthd_round_trips() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize();
        let restored = QuantizedBoostHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.voting(), restored.voting());
        assert_eq!(quantized.dim_total(), restored.dim_total());
    }

    #[test]
    fn quantized_blob_kinds_are_disjoint_from_f32_kinds() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        assert!(OnlineHd::from_bytes(&quantized.to_bytes()).is_err());
        assert!(QuantizedHd::from_bytes(&model.to_bytes()).is_err());
    }

    #[test]
    fn truncated_quantized_blob_is_rejected() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let bytes = quantized.to_bytes();
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(QuantizedHd::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn v1_header_is_rejected_for_quantized_kinds() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let mut bytes = quantized.to_bytes();
        bytes[4] = 1; // version byte: pretend this is a v1 blob
        let err = QuantizedHd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 2"), "{err}");
    }

    #[test]
    fn v1_dense_blobs_remain_readable() {
        // The writer emits the same payload layout for kinds 1–2 as v1 did
        // (a stored encoder serializes byte-identically); a blob re-stamped
        // as v1 must still load.
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let mut bytes = model.to_bytes();
        assert_eq!(bytes[4], 4, "current writer stamps v4");
        bytes[4] = 1;
        let restored = OnlineHd::from_bytes(&bytes).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
    }

    #[test]
    fn quantized_i8_onlinehd_round_trips_bit_identically() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let restored = QuantizedI8Hd::from_bytes(&quantized.to_bytes()).unwrap();
        // Derived norms are recomputed from the stored bytes at load, so
        // the full score surface must match bit-for-bit, not just argmaxes.
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
        assert_eq!(
            quantized.class_storage_bytes(),
            restored.class_storage_bytes()
        );
    }

    #[test]
    fn quantized_i8_boosthd_round_trips_bit_identically() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let restored = QuantizedI8BoostHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.voting(), restored.voting());
        assert_eq!(quantized.dim_total(), restored.dim_total());
    }

    #[test]
    fn i8_kinds_require_v4() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let mut bytes = quantized.to_bytes();
        bytes[4] = 3; // pretend the blob predates the int8 kinds
        let err = QuantizedI8Hd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 4"), "{err}");
        // And the kinds stay disjoint from the packed tier.
        assert!(QuantizedHd::from_bytes(&quantized.to_bytes()).is_err());
    }

    #[test]
    fn truncated_i8_blob_is_rejected() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let bytes = quantized.to_bytes();
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(QuantizedI8Hd::from_bytes(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(QuantizedI8Hd::from_bytes(&trailing).is_err());
    }

    #[test]
    fn centroid_round_trip_preserves_predictions() {
        let (x, y) = toy();
        let config = crate::CentroidHdConfig {
            dim: 96,
            ..Default::default()
        };
        let model = crate::CentroidHd::fit(&config, &x, &y).unwrap();
        let restored = crate::CentroidHd::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.class_hypervectors(), restored.class_hypervectors());
    }

    #[test]
    fn centroid_blob_requires_v3_and_rejects_other_kinds() {
        let (x, y) = toy();
        let config = crate::CentroidHdConfig {
            dim: 64,
            ..Default::default()
        };
        let model = crate::CentroidHd::fit(&config, &x, &y).unwrap();
        let mut bytes = model.to_bytes();
        assert!(OnlineHd::from_bytes(&bytes).is_err(), "kind is disjoint");
        bytes[4] = 2; // pretend the blob predates the centroid kind
        let err = crate::CentroidHd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 3"), "{err}");
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let (x, y) = toy();
        let online = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        assert!(BoostHd::from_bytes(&online.to_bytes()).is_err());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let mut bytes = model.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(OnlineHd::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let bytes = model.to_bytes();
        assert!(OnlineHd::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_length_prefixes_fail_fast_without_allocation() {
        // A length prefix claiming ~2^61 elements must produce a
        // descriptive error before any allocation is attempted — not an
        // abort on a multi-gigabyte reserve.
        let mut w = Writer::new();
        w.put_u64(1 << 61);
        let bytes = w.into_bytes();
        let rejected = |msg: String| msg.contains("but only") || msg.contains("overflows");
        let err = Reader::new(&bytes).get_f32_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        let err = Reader::new(&bytes).get_u64_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        let err = Reader::new(&bytes).get_i8_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        // Matrix shapes whose element count overflows are rejected too.
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        w.put_u64(16);
        let err = Reader::new(&w.into_bytes()).get_matrix().unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        // Full BHD1 blobs holding a rematerialized-encoder recipe are
        // rejected from their 50 bytes alone: neither an impossible `D·F`
        // nor a merely huge one (2^38 Gaussian draws) is expanded.
        for (dim, input_len) in [(1u64 << 62, 4u64), (1 << 30, 1 << 8)] {
            let mut w = Writer::new();
            put_header(&mut w, PayloadKind::CentroidHd);
            w.put_u64(2); // num_classes
            w.put_u64(REMAT_SENTINEL);
            w.put_u64(dim);
            w.put_u64(input_len);
            w.put_f32(16.0); // bandwidth
            w.put_u64(7); // seed
            let blob = w.into_bytes();
            assert_eq!(blob.len(), 50);
            match CentroidHd::from_bytes(&blob) {
                Err(BoostHdError::DataMismatch { reason }) => {
                    assert!(reason.contains("rematerialized-encoder recipe"), "{reason}")
                }
                other => panic!("recipe blob D={dim} F={input_len}: {other:?}"),
            }
        }
    }

    #[test]
    fn heap_mode_primitives_round_trip() {
        let mut rng = Rng64::seed_from(9);
        let m = Matrix::random_normal(4, 6, &mut rng);
        // dim = 128 → two words per row, no padding bits to invalidate.
        let packed = PackedMatrix::from_parts(vec![1, 2, 3, u64::MAX], 2, 128).unwrap();
        let mut w = Writer::new_with_heap();
        w.put_u8(7);
        w.put_f32_slice(&[1.5, -2.5, 3.5]);
        w.put_i8_slice(&[-3, 0, 5]);
        w.put_u64_slice(&[10, 20]);
        w.put_matrix(&m);
        w.put_packed_matrix(&packed);
        let (structure, heap) = w.into_parts();
        let mut r = Reader::new_with_heap(&structure, &heap);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.5, 3.5]);
        assert_eq!(r.get_i8_vec().unwrap(), vec![-3, 0, 5]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![10, 20]);
        assert_eq!(r.get_matrix().unwrap(), m);
        assert_eq!(r.get_packed_matrix().unwrap(), packed);
        assert!(r.is_exhausted());
    }

    #[test]
    fn heap_mode_model_round_trip_is_bit_identical() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let mut w = Writer::new_with_heap();
        model.encode_into(&mut w);
        let (structure, heap) = w.into_parts();
        let mut r = Reader::new_with_heap(&structure, &heap);
        let restored = OnlineHd::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(model.scores_batch(&x), restored.scores_batch(&x));
    }

    #[test]
    fn heap_mode_i8_round_trip_is_bit_identical() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let mut w = Writer::new_with_heap();
        model.encode_into(&mut w);
        let (structure, heap) = w.into_parts();
        let mut r = Reader::new_with_heap(&structure, &heap);
        let restored = QuantizedI8Hd::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(model.scores_batch(&x), restored.scores_batch(&x));
    }

    #[test]
    fn heap_offsets_that_are_unaligned_or_past_the_heap_are_rejected() {
        let heap = [0u8; 16];
        let stream = |words: &[u64]| {
            let mut w = Writer::new();
            words.iter().for_each(|&v| w.put_u64(v));
            w.into_bytes()
        };
        let reject = |result: Result<()>, what: &str, needle: &str| match result {
            Err(BoostHdError::DataMismatch { reason }) => {
                assert!(reason.contains(needle), "{what}: {reason}")
            }
            other => panic!("{what}: expected a DataMismatch, got {other:?}"),
        };
        // rows 1, cols 1, heap offset 4: in range but not 8-byte aligned.
        let s = stream(&[1, 1, 4]);
        let got = Reader::new_with_heap(&s, &heap).get_matrix().map(drop);
        reject(got, "matrix at offset 4", "not 8-byte aligned");
        // rows 1, dim 128, 2 words at offset 8: runs past the heap's end.
        let s = stream(&[1, 128, 2, 8]);
        let got = Reader::new_with_heap(&s, &heap)
            .get_packed_matrix()
            .map(drop);
        reject(got, "packed matrix past the heap", "exceeds heap");
        // len 1 at offset 3.
        let s = stream(&[1, 3]);
        let got = Reader::new_with_heap(&s, &heap).get_f32_vec().map(drop);
        reject(got, "f32 vector at offset 3", "not 8-byte aligned");
        // The same reads at aligned, in-range offsets decode.
        let s = stream(&[1, 1, 8]);
        assert!(Reader::new_with_heap(&s, &heap).get_matrix().is_ok());
        let s = stream(&[1, 128, 2, 0]);
        assert!(Reader::new_with_heap(&s, &heap).get_packed_matrix().is_ok());
        let s = stream(&[1, 8]);
        assert!(Reader::new_with_heap(&s, &heap).get_f32_vec().is_ok());
    }

    #[test]
    fn atomic_save_replaces_existing_file_and_cleans_temp() {
        let dir = std::env::temp_dir().join("boosthd_atomic_save_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bhd");
        std::fs::write(&path, b"garbage that must be replaced").unwrap();
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        model.save(&path).unwrap();
        let restored = OnlineHd::load(&path).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let mut bytes = model.to_bytes();
        bytes.push(0);
        assert!(OnlineHd::from_bytes(&bytes).is_err());
    }
}

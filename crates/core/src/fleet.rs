//! Model fleet: an append-only on-disk model store plus an in-memory
//! registry that serves many models from one process with bounded
//! residency and atomic hot-swap.
//!
//! # The BHFS store file
//!
//! A store file is a flat sequence of 8-byte-aligned, self-delimiting,
//! checksummed records followed by a footer index, so it can be
//! recovered after a torn write:
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header: "BHFS" magic (u32 LE) | version u8 | 3 pad bytes     |  8 B
//! +--------------------------------------------------------------+
//! | record 0  (8-aligned)                                        |
//! |   "FREC" magic u32 | flags u32 (0)                           |
//! |   total_len u64   -- 48-byte header + padded meta + heap     |
//! |   meta_len u64    -- unpadded meta byte count                |
//! |   heap_len u64    -- payload heap byte count                 |
//! |   meta_checksum u64 (FNV-1a 64 over meta bytes)              |
//! |   heap_checksum u64 (FNV-1a 64 over heap bytes)              |
//! |   meta bytes, zero-padded to the next 8-byte boundary:       |
//! |     model_id (u64 len + UTF-8 bytes), version u64,           |
//! |     structure stream (u64 len + bytes)                       |
//! |   payload heap bytes (starts 8-aligned within the record)    |
//! +--------------------------------------------------------------+
//! | record 1 ... record N-1 (each starts 8-aligned)              |
//! +--------------------------------------------------------------+
//! | footer index:                                                |
//! |   entry_count u64, then per entry:                           |
//! |     id_len u64 | id bytes | version u64 | offset u64         |
//! |     | total_len u64                                          |
//! | trailer (last 40 bytes of the file):                         |
//! |   index_off u64 | index_len u64 | index_checksum u64         |
//! |   | entry_count u64 | "BHFSIDX\0" magic u64                  |
//! +--------------------------------------------------------------+
//! ```
//!
//! **Alignment invariant.** Every record starts on an 8-byte boundary,
//! its payload heap starts on an 8-byte boundary *within* the record,
//! and every array offset inside the heap is a multiple of 8. This is a
//! format invariant the reader checks: an offset that is unaligned or
//! runs past the heap fails the load. Loading decodes each array out of
//! the record bytes into an owned buffer, so a loaded model holds no
//! reference to the file or the record.
//!
//! **Checksum invariant.** `meta_checksum`/`heap_checksum` are FNV-1a
//! 64 over the exact stored bytes and are verified on every admission,
//! so a flipped bit on disk surfaces as a descriptive error rather
//! than a corrupt model.
//!
//! **Durability invariant.** [`ModelStore::append`] seeks to the end
//! of the record region (overwriting the previous footer), writes the
//! new records, `fsync`s the data, and only then writes + `fsync`s the
//! new footer. A crash at any point leaves either the old footer
//! intact or a missing/torn footer; [`ModelStore::open`] falls back to
//! scanning the self-delimiting records from the top and keeps exactly
//! the checksum-valid prefix. A store is never loadable-but-corrupt.
//!
//! # The registry
//!
//! [`Fleet`] keys models by `(model_id, version)`. All records sharing
//! one key form a degrade ladder (append order = tier order, most
//! precise first) and are admitted, swapped, and evicted as a single
//! [`FleetModel`] unit. Requests take an [`Arc`] snapshot, so an
//! in-flight request keeps its model alive
//! across hot-swap and LRU eviction; a swapped-out version is tracked
//! until the last snapshot drops ([`Fleet::draining_count`]).

use crate::error::{BoostHdError, Result};
use crate::pipeline::Pipeline;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

const STORE_MAGIC: u32 = u32::from_le_bytes(*b"BHFS");
const STORE_VERSION: u8 = 1;
const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"FREC");
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"BHFSIDX\0");
const HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: u64 = 48;
const TRAILER_LEN: u64 = 40;
/// Per-record ceiling; rejects absurd length fields before allocating.
const MAX_RECORD_LEN: u64 = 1 << 40;

fn store_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

fn io_err(what: &str, e: std::io::Error) -> BoostHdError {
    store_err(format!("fleet store {what}: {e}"))
}

/// FNV-1a 64-bit: the store's per-record and footer checksum, and the
/// server's live-model checksum. Cheap and deterministic, and any
/// single-bit flip in the input changes it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn align8(n: u64) -> u64 {
    (n + 7) & !7
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian u64 read out of a byte slice.
fn read_u64(bytes: &[u8], off: usize, what: &str) -> Result<u64> {
    let end = off
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| store_err(format!("fleet store truncated while reading {what}")))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[off..end]);
    Ok(u64::from_le_bytes(raw))
}

/// One record's location in the store, as listed by the footer index
/// (or recovered by the torn-tail scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Logical model name this record belongs to.
    pub model_id: String,
    /// Version the record was published under.
    pub version: u64,
    /// Byte offset of the record header within the store file.
    pub offset: u64,
    /// Record length in bytes (header + padded meta + heap).
    pub total_len: u64,
}

/// Append-only on-disk model store (`.bhfs`). See the module docs for
/// the record format and its alignment/checksum/durability invariants.
pub struct ModelStore {
    path: PathBuf,
    file: Mutex<File>,
    state: Mutex<StoreState>,
}

struct StoreState {
    entries: Vec<StoreEntry>,
    /// Byte offset one past the last record; the footer starts here.
    record_end: u64,
}

impl ModelStore {
    /// Creates an empty store at `path`, truncating any existing file,
    /// and publishes an empty footer so the file is immediately valid.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&STORE_MAGIC.to_le_bytes());
        header.push(STORE_VERSION);
        header.extend_from_slice(&[0u8; 3]);
        file.write_all(&header).map_err(|e| io_err("write", e))?;
        write_footer(&mut file, &[], HEADER_LEN)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            state: Mutex::new(StoreState {
                entries: Vec::new(),
                record_end: HEADER_LEN,
            }),
        })
    }

    /// Opens an existing store. Reads the footer index when its trailer
    /// validates; otherwise recovers by scanning the self-delimiting
    /// records and keeping the checksum-valid prefix.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        if file_len < HEADER_LEN {
            return Err(store_err(format!(
                "fleet store is {file_len} bytes, smaller than its {HEADER_LEN}-byte header"
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", e))?;
        file.read_exact(&mut header)
            .map_err(|e| io_err("read", e))?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic != STORE_MAGIC {
            return Err(store_err("not a BHFS fleet store (bad magic)"));
        }
        if header[4] > STORE_VERSION {
            return Err(store_err(format!(
                "fleet store version {} is newer than this build supports ({STORE_VERSION})",
                header[4]
            )));
        }
        let (entries, record_end) = match read_footer(&mut file, file_len) {
            Ok(parsed) => parsed,
            Err(_) => recover_by_scan(&mut file, file_len)?,
        };
        Ok(Self {
            path,
            file: Mutex::new(file),
            state: Mutex::new(StoreState {
                entries,
                record_end,
            }),
        })
    }

    /// Path the store was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Snapshot of the index, in append (= tier) order.
    pub fn entries(&self) -> Vec<StoreEntry> {
        self.state.lock().unwrap().entries.clone()
    }

    /// Distinct versions published for `model_id`, ascending.
    pub fn versions(&self, model_id: &str) -> Vec<u64> {
        let st = self.state.lock().unwrap();
        let mut versions: Vec<u64> = st
            .entries
            .iter()
            .filter(|e| e.model_id == model_id)
            .map(|e| e.version)
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions
    }

    /// Highest version published for `model_id`, if any.
    pub fn latest_version(&self, model_id: &str) -> Option<u64> {
        let st = self.state.lock().unwrap();
        st.entries
            .iter()
            .filter(|e| e.model_id == model_id)
            .map(|e| e.version)
            .max()
    }

    /// Appends one published model — all its degrade-ladder tiers, most
    /// precise first — under `(model_id, version)` and atomically
    /// republishes the footer, so the tiers become visible as one unit.
    ///
    /// Durability: record bytes are written and `fsync`ed before the
    /// footer that names them is written and `fsync`ed. A crash in
    /// between leaves a store that recovers to either the old or the
    /// new index, never to a torn record.
    pub fn append(&self, model_id: &str, version: u64, tiers: &[&Pipeline]) -> Result<()> {
        if tiers.is_empty() {
            return Err(store_err("refusing to publish a model with zero tiers"));
        }
        if model_id.is_empty() {
            return Err(store_err("model_id must be non-empty"));
        }
        // Encode every tier before touching the file.
        let mut blobs = Vec::with_capacity(tiers.len());
        for tier in tiers {
            let (structure, heap) = tier.encode_store_parts()?;
            blobs.push(encode_record(model_id, version, &structure, &heap));
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("open for append", e))?;
        let mut st = self.state.lock().unwrap();
        let mut offset = st.record_end;
        let mut new_entries = st.entries.clone();
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", e))?;
        for record in &blobs {
            file.write_all(record).map_err(|e| io_err("write", e))?;
            new_entries.push(StoreEntry {
                model_id: model_id.to_string(),
                version,
                offset,
                total_len: record.len() as u64,
            });
            offset += record.len() as u64;
        }
        file.sync_all().map_err(|e| io_err("fsync", e))?;
        write_footer(&mut file, &new_entries, offset)?;
        st.entries = new_entries;
        st.record_end = offset;
        // Refresh the shared read handle: the old one is still valid
        // (records never move), but keeping it in sync keeps recovery
        // reasoning simple.
        *self.file.lock().unwrap() = file;
        Ok(())
    }

    /// Loads every tier published under `(model_id, version)` as one
    /// [`FleetModel`]. Each record's checksums are verified before its
    /// arrays are decoded.
    pub fn load(&self, model_id: &str, version: u64) -> Result<FleetModel> {
        let entries: Vec<StoreEntry> = self
            .state
            .lock()
            .unwrap()
            .entries
            .iter()
            .filter(|e| e.model_id == model_id && e.version == version)
            .cloned()
            .collect();
        if entries.is_empty() {
            return Err(store_err(format!(
                "model '{model_id}' version {version} is not in the store"
            )));
        }
        let mut tiers = Vec::with_capacity(entries.len());
        for entry in &entries {
            tiers.push(Arc::new(self.load_record(entry)?));
        }
        Ok(FleetModel {
            model_id: model_id.to_string(),
            version,
            tiers,
        })
    }

    /// Loads the latest published version of `model_id`.
    pub fn load_latest(&self, model_id: &str) -> Result<FleetModel> {
        let version = self
            .latest_version(model_id)
            .ok_or_else(|| store_err(format!("model '{model_id}' is not in the store")))?;
        self.load(model_id, version)
    }

    /// Reads one record, verifies its checksums and decodes it.
    pub fn load_record(&self, entry: &StoreEntry) -> Result<Pipeline> {
        if entry.total_len > MAX_RECORD_LEN {
            return Err(store_err(format!(
                "record claims {} bytes, above the {MAX_RECORD_LEN}-byte ceiling",
                entry.total_len
            )));
        }
        let mut raw = vec![0u8; entry.total_len as usize];
        {
            let mut file = self.file.lock().unwrap();
            file.seek(SeekFrom::Start(entry.offset))
                .map_err(|e| io_err("seek", e))?;
            file.read_exact(&mut raw).map_err(|e| io_err("read", e))?;
        }
        decode_record(&raw, entry.total_len)
    }
}

/// Serializes one record (header + padded meta + heap) to bytes.
/// Callers must place it at an 8-aligned file offset.
fn encode_record(model_id: &str, version: u64, structure: &[u8], heap: &[u8]) -> Vec<u8> {
    let mut meta = Vec::with_capacity(24 + model_id.len() + structure.len());
    push_u64(&mut meta, model_id.len() as u64);
    meta.extend_from_slice(model_id.as_bytes());
    push_u64(&mut meta, version);
    push_u64(&mut meta, structure.len() as u64);
    meta.extend_from_slice(structure);

    let meta_len = meta.len() as u64;
    let heap_off = RECORD_HEADER_LEN + align8(meta_len);
    let total_len = heap_off + heap.len() as u64;
    debug_assert_eq!(heap_off % 8, 0, "payload heap must start 8-aligned");

    let mut record = Vec::with_capacity(align8(total_len) as usize);
    record.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    record.extend_from_slice(&0u32.to_le_bytes());
    push_u64(&mut record, total_len);
    push_u64(&mut record, meta_len);
    push_u64(&mut record, heap.len() as u64);
    push_u64(&mut record, fnv1a64(&meta));
    push_u64(&mut record, fnv1a64(heap));
    record.extend_from_slice(&meta);
    record.resize(heap_off as usize, 0);
    record.extend_from_slice(heap);
    // Pad so the next record starts 8-aligned.
    record.resize(align8(total_len) as usize, 0);
    record
}

/// Parses + checksums the bytes of one record and decodes its pipeline.
fn decode_record(raw: &[u8], total_len: u64) -> Result<Pipeline> {
    let (meta_range, heap_off, heap_len) = validate_record(raw, 0, total_len)?;
    let meta = &raw[meta_range.0..meta_range.1];
    let (_, _, structure_range) = parse_meta(meta, meta_range.0)?;
    let structure = &raw[structure_range.0..structure_range.1];
    Pipeline::decode_store_parts(structure, &raw[heap_off..heap_off + heap_len])
}

/// Validates one record's header and checksums at `offset` inside
/// `bytes`. Returns the absolute meta byte range, plus the heap offset
/// (relative to the record start) and length.
fn validate_record(
    bytes: &[u8],
    offset: usize,
    expect_total: u64,
) -> Result<((usize, usize), usize, usize)> {
    let header_end = offset
        .checked_add(RECORD_HEADER_LEN as usize)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| store_err("fleet store truncated inside a record header"))?;
    let magic = u32::from_le_bytes([
        bytes[offset],
        bytes[offset + 1],
        bytes[offset + 2],
        bytes[offset + 3],
    ]);
    if magic != RECORD_MAGIC {
        return Err(store_err("record magic mismatch"));
    }
    let total_len = read_u64(bytes, offset + 8, "record total_len")?;
    let meta_len = read_u64(bytes, offset + 16, "record meta_len")?;
    let heap_len = read_u64(bytes, offset + 24, "record heap_len")?;
    let meta_checksum = read_u64(bytes, offset + 32, "record meta checksum")?;
    let heap_checksum = read_u64(bytes, offset + 40, "record heap checksum")?;
    if total_len != expect_total {
        return Err(store_err(format!(
            "record claims {total_len} bytes but the index lists {expect_total}"
        )));
    }
    if total_len > MAX_RECORD_LEN || meta_len > total_len || heap_len > total_len {
        return Err(store_err("record length fields are inconsistent"));
    }
    let heap_off = RECORD_HEADER_LEN + align8(meta_len);
    if heap_off + heap_len != total_len {
        return Err(store_err(format!(
            "record layout mismatch: header {RECORD_HEADER_LEN} + padded meta {} + heap {heap_len} != total {total_len}",
            align8(meta_len)
        )));
    }
    let meta_start = header_end;
    let meta_end = meta_start + meta_len as usize;
    let record_end = offset + total_len as usize;
    if record_end > bytes.len() || meta_end > bytes.len() {
        return Err(store_err("record extends past the end of the store"));
    }
    let meta = &bytes[meta_start..meta_end];
    if fnv1a64(meta) != meta_checksum {
        return Err(store_err(
            "record meta checksum mismatch: store file is corrupt or torn",
        ));
    }
    let heap = &bytes[offset + heap_off as usize..record_end];
    if fnv1a64(heap) != heap_checksum {
        return Err(store_err(
            "record payload checksum mismatch: store file is corrupt or torn",
        ));
    }
    Ok(((meta_start, meta_end), heap_off as usize, heap_len as usize))
}

/// Parses record meta; `base` is the meta's absolute offset, so the
/// returned structure range is absolute too.
fn parse_meta(meta: &[u8], base: usize) -> Result<(String, u64, (usize, usize))> {
    let id_len = read_u64(meta, 0, "record model_id length")? as usize;
    let id_end = 8usize
        .checked_add(id_len)
        .filter(|&e| e.checked_add(16).is_some_and(|end| end <= meta.len()))
        .ok_or_else(|| store_err("record meta truncated inside model_id"))?;
    let model_id = std::str::from_utf8(&meta[8..id_end])
        .map_err(|_| store_err("record model_id is not valid UTF-8"))?
        .to_string();
    let version = read_u64(meta, id_end, "record version")?;
    let structure_len = read_u64(meta, id_end + 8, "record structure length")? as usize;
    let structure_start = id_end + 16;
    if structure_start.checked_add(structure_len) != Some(meta.len()) {
        return Err(store_err(
            "record meta has trailing bytes after the structure stream",
        ));
    }
    Ok((
        model_id,
        version,
        (
            base + structure_start,
            base + structure_start + structure_len,
        ),
    ))
}

/// Writes the footer (index + trailer) at `record_end`, fsyncs, and
/// trims any stale bytes past the new end of file.
fn write_footer(file: &mut File, entries: &[StoreEntry], record_end: u64) -> Result<()> {
    let mut index = Vec::new();
    push_u64(&mut index, entries.len() as u64);
    for e in entries {
        push_u64(&mut index, e.model_id.len() as u64);
        index.extend_from_slice(e.model_id.as_bytes());
        push_u64(&mut index, e.version);
        push_u64(&mut index, e.offset);
        push_u64(&mut index, e.total_len);
    }
    let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
    push_u64(&mut trailer, record_end);
    push_u64(&mut trailer, index.len() as u64);
    push_u64(&mut trailer, fnv1a64(&index));
    push_u64(&mut trailer, entries.len() as u64);
    push_u64(&mut trailer, FOOTER_MAGIC);
    file.seek(SeekFrom::Start(record_end))
        .map_err(|e| io_err("seek", e))?;
    file.write_all(&index).map_err(|e| io_err("write", e))?;
    file.write_all(&trailer).map_err(|e| io_err("write", e))?;
    file.set_len(record_end + index.len() as u64 + TRAILER_LEN)
        .map_err(|e| io_err("truncate", e))?;
    file.sync_all().map_err(|e| io_err("fsync", e))?;
    Ok(())
}

/// Reads and validates the footer. Errors if the trailer is missing,
/// torn, or inconsistent — the caller then falls back to a record scan.
fn read_footer(file: &mut File, file_len: u64) -> Result<(Vec<StoreEntry>, u64)> {
    if file_len < HEADER_LEN + TRAILER_LEN {
        return Err(store_err("fleet store too small to hold a footer"));
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    file.seek(SeekFrom::Start(file_len - TRAILER_LEN))
        .map_err(|e| io_err("seek", e))?;
    file.read_exact(&mut trailer)
        .map_err(|e| io_err("read", e))?;
    let index_off = read_u64(&trailer, 0, "trailer index offset")?;
    let index_len = read_u64(&trailer, 8, "trailer index length")?;
    let index_checksum = read_u64(&trailer, 16, "trailer index checksum")?;
    let entry_count = read_u64(&trailer, 24, "trailer entry count")?;
    let magic = read_u64(&trailer, 32, "trailer magic")?;
    if magic != FOOTER_MAGIC {
        return Err(store_err("footer magic missing"));
    }
    if index_off < HEADER_LEN
        || index_off % 8 != 0
        || index_off
            .checked_add(index_len)
            .and_then(|end| end.checked_add(TRAILER_LEN))
            != Some(file_len)
    {
        return Err(store_err("footer geometry inconsistent"));
    }
    let mut index = vec![0u8; index_len as usize];
    file.seek(SeekFrom::Start(index_off))
        .map_err(|e| io_err("seek", e))?;
    file.read_exact(&mut index).map_err(|e| io_err("read", e))?;
    if fnv1a64(&index) != index_checksum {
        return Err(store_err("footer index checksum mismatch"));
    }
    let count = read_u64(&index, 0, "index entry count")?;
    if count != entry_count {
        return Err(store_err("footer entry counts disagree"));
    }
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut pos = 8usize;
    for _ in 0..count {
        let id_len = read_u64(&index, pos, "index id length")? as usize;
        pos += 8;
        let id_end = pos
            .checked_add(id_len)
            .filter(|&e| e.checked_add(24).is_some_and(|end| end <= index.len()))
            .ok_or_else(|| store_err("footer index truncated"))?;
        let model_id = std::str::from_utf8(&index[pos..id_end])
            .map_err(|_| store_err("footer index model_id is not valid UTF-8"))?
            .to_string();
        pos = id_end;
        let version = read_u64(&index, pos, "index version")?;
        let offset = read_u64(&index, pos + 8, "index offset")?;
        let total_len = read_u64(&index, pos + 16, "index total_len")?;
        pos += 24;
        if offset % 8 != 0
            || offset
                .checked_add(total_len)
                .is_none_or(|end| end > index_off)
        {
            return Err(store_err("footer index entry out of bounds"));
        }
        entries.push(StoreEntry {
            model_id,
            version,
            offset,
            total_len,
        });
    }
    if pos != index.len() {
        return Err(store_err("footer index has trailing bytes"));
    }
    Ok((entries, index_off))
}

/// Torn-footer recovery: walk the self-delimiting records from the top
/// of the file and keep the longest checksum-valid prefix.
fn recover_by_scan(file: &mut File, file_len: u64) -> Result<(Vec<StoreEntry>, u64)> {
    let mut bytes = vec![0u8; (file_len - HEADER_LEN) as usize];
    file.seek(SeekFrom::Start(HEADER_LEN))
        .map_err(|e| io_err("seek", e))?;
    file.read_exact(&mut bytes).map_err(|e| io_err("read", e))?;
    let mut entries = Vec::new();
    let mut pos = 0u64;
    loop {
        let remaining = bytes.len() as u64 - pos;
        if remaining < RECORD_HEADER_LEN {
            break;
        }
        let total_len = match read_u64(&bytes, pos as usize + 8, "record total_len") {
            Ok(v) => v,
            Err(_) => break,
        };
        if total_len < RECORD_HEADER_LEN || total_len > remaining {
            break;
        }
        let parsed = validate_record(&bytes, pos as usize, total_len).and_then(|(meta, _, _)| {
            parse_meta(&bytes[meta.0..meta.1], meta.0).map(|(id, version, _)| (id, version))
        });
        match parsed {
            Ok((model_id, version)) => {
                entries.push(StoreEntry {
                    model_id,
                    version,
                    offset: HEADER_LEN + pos,
                    total_len,
                });
                pos += align8(total_len);
            }
            // First invalid record: everything past here is a torn
            // tail or stale footer bytes.
            Err(_) => break,
        }
    }
    Ok((entries, HEADER_LEN + pos))
}

/// One resident model: a `(model_id, version)` pair plus its degrade
/// ladder. Requests hold an `Arc<FleetModel>` snapshot, so swaps and
/// evictions never invalidate an in-flight prediction.
pub struct FleetModel {
    model_id: String,
    version: u64,
    tiers: Vec<Arc<Pipeline>>,
}

impl std::fmt::Debug for FleetModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetModel")
            .field("model_id", &self.model_id)
            .field("version", &self.version)
            .field("tiers", &self.tiers.len())
            .finish()
    }
}

impl FleetModel {
    /// Logical model name.
    pub fn model_id(&self) -> &str {
        &self.model_id
    }

    /// Version this snapshot was published under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All ladder tiers, most precise first (append order).
    pub fn tiers(&self) -> &[Arc<Pipeline>] {
        &self.tiers
    }

    /// The most precise tier.
    pub fn primary(&self) -> &Arc<Pipeline> {
        &self.tiers[0]
    }

    /// Tier at degrade `level`, clamped to the most degraded available,
    /// so a ladder shorter than the server's degrade ladder still
    /// serves every level.
    pub fn tier(&self, level: usize) -> &Arc<Pipeline> {
        &self.tiers[level.min(self.tiers.len() - 1)]
    }
}

/// Residency knobs for a [`Fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Maximum models resident at once; `0` means unbounded. Pinned
    /// models never count as eviction candidates.
    pub max_resident: usize,
}

struct ResidentModel {
    model: Arc<FleetModel>,
    pinned: bool,
    last_used: u64,
}

struct FleetState {
    resident: HashMap<String, ResidentModel>,
    clock: u64,
    /// Swapped-out or evicted models still referenced by in-flight
    /// requests; pruned whenever the Vec is full (see
    /// [`FleetState::retire`]).
    retiring: Vec<Weak<FleetModel>>,
}

impl FleetState {
    /// Tracks a swapped-out or evicted snapshot until its last in-flight
    /// reference drops. When the Vec is full, dead entries are pruned
    /// first and room is kept for as many pushes as there are live
    /// entries, so the prune is amortized O(1) and the Vec stays within
    /// twice the peak number of live snapshots (and at least 4).
    fn retire(&mut self, model: &Arc<FleetModel>) {
        if self.retiring.len() == self.retiring.capacity() {
            self.retiring.retain(|w| w.strong_count() > 0);
            self.retiring.reserve(self.retiring.len().max(4));
        }
        self.retiring.push(Arc::downgrade(model));
    }
}

/// In-memory registry over a [`ModelStore`]: LRU residency with
/// pinning, per-request `Arc` snapshots, and atomic hot-swap.
pub struct Fleet {
    store: ModelStore,
    max_resident: usize,
    state: Mutex<FleetState>,
}

impl Fleet {
    /// Opens the store at `path` and wraps it in an empty registry.
    pub fn open(path: impl AsRef<Path>, config: FleetConfig) -> Result<Self> {
        Ok(Self::new(ModelStore::open(path)?, config))
    }

    /// Wraps an already-open store.
    pub fn new(store: ModelStore, config: FleetConfig) -> Self {
        Fleet {
            store,
            max_resident: config.max_resident,
            state: Mutex::new(FleetState {
                resident: HashMap::new(),
                clock: 0,
                retiring: Vec::new(),
            }),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Returns a snapshot of `model_id`, admitting its latest published
    /// version from disk if it is not resident (including when it was
    /// previously evicted — eviction is never a request error).
    pub fn get(&self, model_id: &str) -> Result<Arc<FleetModel>> {
        if let Some(model) = self.lookup_resident(model_id) {
            return Ok(model);
        }
        // Load outside the lock: admission does disk IO + decode and
        // must not stall requests for models that are resident.
        let loaded = Arc::new(self.store.load_latest(model_id)?);
        Ok(self.admit(loaded, false))
    }

    /// Re-reads the latest published version from the store and swaps
    /// it in atomically. Versions only move forward: if the store holds
    /// nothing newer than the resident version, the resident snapshot
    /// is kept. The swapped-out version keeps serving its in-flight
    /// requests and is tracked via [`Fleet::draining_count`] until the
    /// last snapshot drops.
    pub fn refresh(&self, model_id: &str) -> Result<Arc<FleetModel>> {
        let loaded = Arc::new(self.store.load_latest(model_id)?);
        Ok(self.admit(loaded, true))
    }

    /// Pins (or unpins) a model, loading it if necessary. Pinned models
    /// are never LRU-evicted.
    pub fn pin(&self, model_id: &str, pinned: bool) -> Result<()> {
        self.get(model_id)?;
        let mut st = self.state.lock().unwrap();
        if let Some(r) = st.resident.get_mut(model_id) {
            r.pinned = pinned;
        }
        Ok(())
    }

    /// Number of models currently resident.
    pub fn resident_count(&self) -> usize {
        self.state.lock().unwrap().resident.len()
    }

    /// `(model_id, version, pinned)` for every resident model.
    pub fn resident(&self) -> Vec<(String, u64, bool)> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<_> = st
            .resident
            .values()
            .map(|r| (r.model.model_id.clone(), r.model.version, r.pinned))
            .collect();
        out.sort();
        out
    }

    /// Swapped-out or evicted models still held alive by in-flight
    /// requests.
    pub fn draining_count(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.retiring.retain(|w| w.strong_count() > 0);
        st.retiring.len()
    }

    fn lookup_resident(&self, model_id: &str) -> Option<Arc<FleetModel>> {
        let mut st = self.state.lock().unwrap();
        st.clock += 1;
        let now = st.clock;
        st.resident.get_mut(model_id).map(|r| {
            r.last_used = now;
            Arc::clone(&r.model)
        })
    }

    /// Inserts `loaded` under the monotonic-version rule and runs LRU
    /// eviction. `swap` marks an explicit refresh: equal-version
    /// reloads keep the resident snapshot either way; an older store
    /// version never replaces a newer resident one.
    fn admit(&self, loaded: Arc<FleetModel>, swap: bool) -> Arc<FleetModel> {
        let _ = swap;
        let mut st = self.state.lock().unwrap();
        st.clock += 1;
        let now = st.clock;
        let chosen = match st.resident.get_mut(loaded.model_id.as_str()) {
            Some(r) if r.model.version >= loaded.version => {
                // A concurrent admit (or an already-newer resident
                // version) wins; keep it.
                r.last_used = now;
                Arc::clone(&r.model)
            }
            Some(r) => {
                let old = std::mem::replace(&mut r.model, Arc::clone(&loaded));
                r.last_used = now;
                st.retire(&old);
                loaded
            }
            None => {
                st.resident.insert(
                    loaded.model_id.clone(),
                    ResidentModel {
                        model: Arc::clone(&loaded),
                        pinned: false,
                        last_used: now,
                    },
                );
                loaded
            }
        };
        self.evict_excess(&mut st);
        chosen
    }

    fn evict_excess(&self, st: &mut FleetState) {
        if self.max_resident == 0 {
            return;
        }
        while st.resident.len() > self.max_resident {
            let victim = st
                .resident
                .iter()
                .filter(|(_, r)| !r.pinned)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(id, _)| id.clone());
            match victim {
                Some(id) => {
                    if let Some(r) = st.resident.remove(&id) {
                        st.retire(&r.model);
                    }
                }
                // Everything is pinned; residency stays above the cap.
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineHdConfig;
    use crate::spec::{ModelSpec, Tier};
    use linalg::{Matrix, Rng64};

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(7);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn fit(dim: usize, x: &Matrix, y: &[usize]) -> Pipeline {
        let spec = ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            epochs: 2,
            ..Default::default()
        });
        Pipeline::fit(&spec, x, y).unwrap()
    }

    #[test]
    fn store_round_trips_models_and_preserves_predictions() {
        let dir = tempdir("fleet-roundtrip");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let a = fit(64, &x, &y);
        let b = fit(96, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("alpha", 1, &[&a]).unwrap();
        store.append("beta", 1, &[&b]).unwrap();

        let reopened = ModelStore::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), 2);
        assert_eq!(reopened.versions("alpha"), vec![1]);
        let got = reopened.load("alpha", 1).unwrap();
        assert_eq!(got.primary().predict_batch(&x), a.predict_batch(&x));
        let got_b = reopened.load_latest("beta").unwrap();
        assert_eq!(got_b.primary().predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn ladder_tiers_publish_and_load_as_one_unit() {
        let dir = tempdir("fleet-ladder");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let full = fit(64, &x, &y);
        let small = fit(32, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 3, &[&full, &small]).unwrap();
        let model = ModelStore::open(&path).unwrap().load("m", 3).unwrap();
        assert_eq!(model.tiers().len(), 2);
        assert_eq!(model.tier(0).predict_batch(&x), full.predict_batch(&x));
        assert_eq!(model.tier(1).predict_batch(&x), small.predict_batch(&x));
        // Levels past the end clamp to the most degraded tier.
        assert_eq!(model.tier(9).predict_batch(&x), small.predict_batch(&x));
    }

    #[test]
    fn torn_footer_recovers_every_complete_record() {
        let dir = tempdir("fleet-torn-footer");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&fit(48, &x, &y)]).unwrap();
        store.append("b", 1, &[&fit(64, &x, &y)]).unwrap();
        // Tear the trailer: chop half the footer off.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - TRAILER_LEN / 2).unwrap();
        drop(file);
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["a", "b"]);
        recovered.load("b", 1).unwrap();
    }

    /// A trailer whose offset and length sum past `u64::MAX` but wrap
    /// round to the file length is rejected as inconsistent, and the
    /// record scan recovers every entry.
    #[test]
    fn overflowing_footer_geometry_recovers_every_record_by_scan() {
        let dir = tempdir("fleet-overflow-footer");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for id in ["a", "b", "c"] {
            store.append(id, 1, &[&fit(48, &x, &y)]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let file_len = bytes.len() as u64;
        let trailer = (file_len - TRAILER_LEN) as usize;
        bytes[trailer..trailer + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        bytes[trailer + 8..trailer + 16].copy_from_slice(&(file_len - 32).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["a", "b", "c"]);
        recovered.load("c", 1).unwrap();
    }

    /// Length fields that overflow `usize` arithmetic, behind checksums
    /// recomputed to match, fail descriptively instead of panicking: a
    /// footer index `id_len` falls back to the record scan, and a record
    /// meta `id_len` fails that record's load.
    #[test]
    fn overflowing_id_lengths_behind_valid_checksums_fail_without_panic() {
        let dir = tempdir("fleet-overflow-id-len");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for id in ["a", "b", "c"] {
            store.append(id, 1, &[&fit(48, &x, &y)]).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let patch = |bytes: &mut [u8], at: usize, v: u64| {
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        // Each id_len makes the id's end offset exactly `usize::MAX`: the
        // index id starts at byte 16, the meta id at byte 8.

        // The first index entry's id_len, with the index checksum redone.
        let mut bytes = clean.clone();
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let index_off = read_u64(&bytes, trailer, "index_off").unwrap() as usize;
        patch(&mut bytes, index_off + 8, u64::MAX - 16);
        let sum = fnv1a64(&bytes[index_off..trailer]);
        patch(&mut bytes, trailer + 16, sum);
        std::fs::write(&path, &bytes).unwrap();
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["a", "b", "c"]);

        // Record c's meta id_len, with the meta checksum redone.
        let mut bytes = clean;
        let c = store.entries()[2].offset as usize;
        let meta_len = read_u64(&bytes, c + 16, "meta_len").unwrap() as usize;
        let meta = c + RECORD_HEADER_LEN as usize;
        patch(&mut bytes, meta, u64::MAX - 8);
        let sum = fnv1a64(&bytes[meta..meta + meta_len]);
        patch(&mut bytes, c + 32, sum);
        std::fs::write(&path, &bytes).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        reopened.load("a", 1).unwrap();
        let err = reopened.load("c", 1).unwrap_err().to_string();
        assert!(err.contains("model_id"), "unexpected error: {err}");
    }

    #[test]
    fn torn_record_tail_is_dropped_and_prefix_survives() {
        let dir = tempdir("fleet-torn-record");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("keep", 1, &[&fit(48, &x, &y)]).unwrap();
        let keep_end = HEADER_LEN + align8(store.entries()[0].total_len);
        store.append("torn", 1, &[&fit(64, &x, &y)]).unwrap();
        // Simulate a crash mid-append: cut into the second record,
        // which also destroyed the old footer.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep_end + 40).unwrap();
        drop(file);
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["keep"]);
        recovered.load("keep", 1).unwrap();
        assert!(recovered.load("torn", 1).is_err());
        // The store stays appendable after recovery.
        recovered.append("again", 2, &[&fit(32, &x, &y)]).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), 2);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum_descriptively() {
        let dir = tempdir("fleet-bitflip");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 1, &[&fit(48, &x, &y)]).unwrap();
        let entry = store.entries()[0].clone();
        // Flip a bit in the middle of the payload heap.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = entry.offset + entry.total_len - 16;
        bytes[target as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        let err = reopened.load("m", 1).unwrap_err().to_string();
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    #[test]
    fn registry_lru_evicts_and_readmits_without_error() {
        let dir = tempdir("fleet-lru");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            store.append(id, 1, &[&fit(32 + 16 * i, &x, &y)]).unwrap();
        }
        let fleet = Fleet::new(store, FleetConfig { max_resident: 2 });
        let a = fleet.get("a").unwrap();
        fleet.get("b").unwrap();
        fleet.get("c").unwrap();
        assert_eq!(fleet.resident_count(), 2);
        // "a" was least recently used and got evicted; the held
        // snapshot still predicts, and a new get re-admits from disk.
        assert!(!fleet.resident().iter().any(|(id, _, _)| id == "a"));
        assert_eq!(a.primary().predict_batch(&x).len(), x.rows());
        let a2 = fleet.get("a").unwrap();
        assert_eq!(
            a.primary().predict_batch(&x),
            a2.primary().predict_batch(&x)
        );
        assert_eq!(fleet.resident_count(), 2);
    }

    #[test]
    fn pinned_models_survive_eviction_pressure() {
        let dir = tempdir("fleet-pin");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for id in ["a", "b", "c"] {
            store.append(id, 1, &[&fit(32, &x, &y)]).unwrap();
        }
        let fleet = Fleet::new(store, FleetConfig { max_resident: 2 });
        fleet.pin("a", true).unwrap();
        fleet.get("b").unwrap();
        fleet.get("c").unwrap();
        let resident = fleet.resident();
        assert!(resident.iter().any(|(id, _, pinned)| id == "a" && *pinned));
        assert_eq!(resident.len(), 2);
    }

    #[test]
    fn hot_swap_is_monotonic_and_drains_the_old_version() {
        let dir = tempdir("fleet-swap");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 1, &[&fit(48, &x, &y)]).unwrap();
        let fleet = Fleet::new(store, FleetConfig::default());
        let v1 = fleet.get("m").unwrap();
        assert_eq!(v1.version(), 1);

        fleet.store().append("m", 2, &[&fit(64, &x, &y)]).unwrap();
        let v2 = fleet.refresh("m").unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(fleet.get("m").unwrap().version(), 2);
        // The old snapshot keeps serving its in-flight work and is
        // tracked until dropped.
        assert_eq!(v1.primary().predict_batch(&x).len(), x.rows());
        assert_eq!(fleet.draining_count(), 1);
        drop(v1);
        assert_eq!(fleet.draining_count(), 0);
        // A refresh when the store has nothing newer keeps v2.
        let again = fleet.refresh("m").unwrap();
        assert_eq!(again.version(), 2);
        assert!(Arc::ptr_eq(&again, &v2));
    }

    /// Evictions and swaps whose snapshots are already dropped must not
    /// accumulate: the retiring list stays bounded however long the
    /// registry serves, without anyone calling `draining_count`.
    #[test]
    fn retiring_list_stays_bounded_under_constant_eviction() {
        let dir = tempdir("fleet-retiring");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&fit(32, &x, &y)]).unwrap();
        store.append("b", 1, &[&fit(32, &x, &y)]).unwrap();
        let fleet = Fleet::new(store, FleetConfig { max_resident: 1 });
        let held = fleet.get("a").unwrap();
        for i in 0..2_000 {
            fleet.get(if i % 2 == 0 { "b" } else { "a" }).unwrap();
        }
        let retiring = fleet.state.lock().unwrap().retiring.len();
        assert!(
            retiring <= 8,
            "{retiring} retiring entries after 2,000 evictions"
        );
        // Pruning keeps live snapshots: the held one is still draining.
        assert_eq!(fleet.draining_count(), 1);
        drop(held);
        assert_eq!(fleet.draining_count(), 0);
    }

    /// Every persistable payload kind — dense f32, packed u64, and int8
    /// class matrices — must decode out of its store record and predict
    /// bit-identically to the fitted original, probabilities included.
    #[test]
    fn all_payload_kinds_serve_bit_identical() {
        let (x, y) = toy();
        for spec in crate::spec::small_hdc_specs() {
            let tag = spec.kind_tag();
            let fitted =
                Pipeline::fit(&spec, &x, &y).unwrap_or_else(|e| panic!("{tag} failed to fit: {e}"));
            let (structure, heap) = fitted
                .encode_store_parts()
                .unwrap_or_else(|e| panic!("{tag} failed to encode: {e}"));
            let record = encode_record(tag, 1, &structure, &heap);
            let total_len = (RECORD_HEADER_LEN
                + align8(24 + tag.len() as u64 + structure.len() as u64))
                + heap.len() as u64;
            let loaded = decode_record(&record, total_len)
                .unwrap_or_else(|e| panic!("{tag} failed to decode: {e}"));
            assert_eq!(
                fitted.predict_batch_with_confidence(&x),
                loaded.predict_batch_with_confidence(&x),
                "{tag} predictions are not bit-identical after a store load"
            );
        }
    }

    /// A blob whose encoder is narrower than the model it serves must fail
    /// to load — inline and as a store record — instead of loading and
    /// panicking at the first predict.
    #[test]
    fn narrower_encoder_is_rejected_inline_and_as_a_store_record() {
        use crate::{BoostHd, BoostHdConfig, Model, OnlineHd};
        let (x, y) = toy();
        let online = OnlineHdConfig {
            dim: 128,
            epochs: 2,
            ..Default::default()
        };
        let base = BoostHdConfig {
            dim_total: 128,
            n_learners: 4,
            epochs: 2,
            ..Default::default()
        };
        let narrow = OnlineHd::fit(&OnlineHdConfig { dim: 64, ..online }, &x, &y).unwrap();
        let narrow = narrow.encoder();
        let mut online_hd = OnlineHd::fit(&online, &x, &y).unwrap();
        let mut boost = BoostHd::fit(&base, &x, &y).unwrap();
        let (mut packed, mut int8) = (boost.quantize(), boost.quantize_i8());
        online_hd.single.encoder = narrow.clone();
        boost.ensemble.encoder = narrow.clone();
        packed.encoder = narrow.clone();
        int8.encoder = narrow.clone();
        let refit_epochs = 0;
        let models: [(ModelSpec, Box<dyn Model>); 4] = [
            (ModelSpec::OnlineHd(online), Box::new(online_hd)),
            (ModelSpec::BoostHd(base), Box::new(boost)),
            (
                ModelSpec::QuantizedBoostHd {
                    base,
                    tier: Tier::Binary,
                    refit_epochs,
                },
                Box::new(packed),
            ),
            (
                ModelSpec::QuantizedBoostHd {
                    base,
                    tier: Tier::Int8,
                    refit_epochs,
                },
                Box::new(int8),
            ),
        ];
        let dir = tempdir("fleet-narrow-encoder");
        let store = ModelStore::create(dir.join("models.bhfs")).unwrap();
        for (spec, model) in models {
            let tag = spec.kind_tag();
            let pipeline = Pipeline::from_model(spec, model);
            let inline = Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).err();
            assert!(
                matches!(inline, Some(BoostHdError::DataMismatch { .. })),
                "{tag}: {inline:?}"
            );
            store.append(tag, 1, &[&pipeline]).unwrap();
            let entry = store.entries().pop().unwrap();
            let stored = store.load_record(&entry).err();
            assert!(
                matches!(stored, Some(BoostHdError::DataMismatch { .. })),
                "{tag}: {stored:?}"
            );
        }
    }

    #[test]
    fn missing_models_error_descriptively() {
        let dir = tempdir("fleet-missing");
        let path = dir.join("models.bhfs");
        let store = ModelStore::create(&path).unwrap();
        let fleet = Fleet::new(store, FleetConfig::default());
        let err = fleet.get("ghost").unwrap_err().to_string();
        assert!(err.contains("ghost"), "unexpected error: {err}");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("boosthd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

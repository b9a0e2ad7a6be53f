//! The fixed score-chunk width of the batched scoring pipelines.
//!
//! Batched prediction encodes and scores a batch [`SCORE_CHUNK`] rows at a
//! time. The width is a layout constant, not a per-process measurement:
//! every batched kernel accumulates each output element in the same order
//! whatever the blocking, so the width affects speed only, and a fixed
//! value keeps that speed and the persisted envelope bytes independent of
//! the machine. The module survives only because the `perfbench` report
//! names [`score_chunk`] in its environment line.

/// Rows per encode/score chunk in the batched scoring pipelines.
pub const SCORE_CHUNK: usize = 256;

/// The score-chunk width, [`SCORE_CHUNK`].
pub fn score_chunk() -> usize {
    SCORE_CHUNK
}

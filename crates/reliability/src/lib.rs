//! Reliability substrate for the BoostHD evaluation.
//!
//! The paper stresses that healthcare deployments need more than accuracy:
//! models must stay dependable under *hardware faults* and *skewed data*.
//! This crate is the reliability front door of the stack, in two layers:
//!
//! * the raw fault primitives, re-exported from the foundational [`faults`]
//!   crate so existing `reliability::...` paths keep working —
//!   [`bitflip`] (parameter bit flips on f32, int8 and packed-sign
//!   storage, Figure 8),
//!   [`noise`] (Gaussian sensor noise, impulsive spikes, channel dropout,
//!   label flipping), and [`imbalance`] (Equation-8 class-imbalance
//!   crafting, Figure 7);
//! * [`campaign`] — the deterministic scenario engine that applies those
//!   fault models to any [`boosthd::Pipeline`], sweeps severity grids in
//!   parallel with pre-forked per-cell RNGs, and emits a versioned JSON
//!   report. Every figure-8-style sweep in the repository runs through it;
//! * [`chaos`] — the serving-resilience campaign: seeded fault schedules
//!   (deadline storms, burst overload into the degrade ladder, live-model
//!   SEUs, protocol abuse, worker-pool panics) driven through a real
//!   loopback [`boosthd_serve::server::Server`], reported on a virtual
//!   clock so the JSON is byte-identical for any thread count.
//!
//! Each fault-model module documents its determinism contract; the
//! campaign engine composes them into reports that are byte-identical for
//! any thread count.
//!
//! # Example: flipping bits in a parameter buffer
//!
//! ```
//! use linalg::Rng64;
//! use reliability::bitflip::{flip_stored_bits, StoredBits};
//!
//! let mut params = vec![1.0f32; 1024];
//! let mut rng = Rng64::seed_from(1);
//! let store = vec![StoredBits::F32(&mut params)];
//! let report = flip_stored_bits([store], 1e-3, &mut rng);
//! assert!(report.flipped > 0);
//! assert!(params.iter().any(|&p| p != 1.0));
//! ```

#![deny(missing_docs)]

pub use faults::{bitflip, imbalance, noise};

pub mod campaign;
pub mod chaos;

pub use bitflip::{flip_stored_bits, BitflipReport, StoredBits};
pub use campaign::{
    Campaign, CampaignData, CampaignReport, CampaignSpec, CellResult, FaultModel, ScenarioResult,
    ScenarioSpec,
};
pub use chaos::{run_campaign as run_chaos_campaign, ChaosConfig, ResilienceReport};
pub use imbalance::{imbalanced_indices, ImbalanceSpec};

//! Baseline concentration methods for the Focus reproduction.
//!
//! The paper compares Focus against four alternatives; each lives in its
//! own module and implements [`Concentrator`]:
//!
//! * [`dense::DenseBaseline`] — the vanilla systolic array;
//! * [`adaptiv::AdaptivBaseline`] — AdapTiV's sign-similarity token
//!   merging (MICRO'24), intra-frame, importance-blind;
//! * [`cmc::CmcBaseline`] — CMC's codec-assisted token condensing
//!   (ASPLOS'24), pixel-space decisions + DRAM staging;
//! * [`framefusion::FrameFusionBaseline`] — FrameFusion's similarity +
//!   importance token reduction at a fixed 70 % budget (the GPU
//!   software baseline).
//!
//! All of them operate at **token granularity**, which is the paper's
//! central contrast with Focus's vector-level concentration.
//!
//! # Examples
//!
//! ```
//! use focus_baselines::{Concentrator, adaptiv::AdaptivBaseline};
//! use focus_sim::ArchConfig;
//! use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
//!
//! let wl = Workload::new(
//!     ModelKind::LlavaVideo7B,
//!     DatasetKind::VideoMme,
//!     WorkloadScale::tiny(),
//!     1,
//! );
//! let result = AdaptivBaseline::default().run(&wl, &ArchConfig::adaptiv());
//! assert!(result.sparsity() > 0.1);
//! ```

#![forbid(unsafe_code)]

pub mod adaptiv;
pub mod cmc;
pub mod common;
pub mod dense;
pub mod framefusion;
pub mod stream;

pub use crate::adaptiv::AdaptivBaseline;
pub use crate::cmc::CmcBaseline;
pub use crate::common::{BaselineResult, Concentrator, MemoryStyle};
pub use crate::dense::DenseBaseline;
pub use crate::framefusion::FrameFusionBaseline;
pub use crate::stream::{run_stream, StreamRun, StreamSpec};

//! Streaming stage-graph execution engine.
//!
//! The Focus pipeline is a *stage graph*: per transformer layer, one
//! semantic concentration stage (SEC) feeds four mutually independent
//! similarity gather stages (SIC at the PV, O-projection, FFN
//! activation and FFN-down outputs). This module makes that structure
//! executable:
//!
//! * [`ConcentrationStage`] — one graph node: a pure
//!   `(LayerCtx, StageWorkspace) → StageOutput` function, `Sync` so
//!   nodes can run concurrently over per-node workspaces;
//! * [`StageWorkspace`] — thread-reusable scratch per fused gather
//!   node (resident activation synthesiser, recycled tile buffer, flat
//!   gather lookup) so the measured phase never re-allocates or
//!   re-hashes on its hot path, and never holds a whole activation
//!   matrix;
//! * [`LayerExecutor`] — the node inventory of one workload (SEC, the
//!   four gather stages, their workspace ring, the measurement plan)
//!   and the layer loop of [`ExecMode::Serial`], the independent
//!   oracle schedule every other path is checked against;
//! * the [`graph`] module — the schedule behind [`ExecMode::Graph`],
//!   the default: each run is a pipeline graph that owns its inputs,
//!   each layer decomposes into `Sec`/`Gather`/`Fold`/`Lower` task
//!   nodes with explicit dependencies (synthesis streams tile by tile
//!   inside the fused `Gather`), and a work-stealing scheduler
//!   overlaps layer *l*'s fold/lowering with layer *l+1*'s gathers and
//!   SEC at any pipeline depth — as the hardware streams
//!   SEC of layer *l+1* alongside the FC gathers of layer *l*, and
//!   across workload boundaries when batched;
//! * [`BatchRunner`] — runs many independent jobs (`run_many` for
//!   workload grids, `run_jobs` for config sweeps, and the `_sim`
//!   variants that add the cycle simulation) through one spine:
//!   task-graph jobs are submitted into the shared service as one
//!   burst, `Serial` jobs fan out through [`par_map`], the one
//!   order-preserving fan-out primitive; results are bit-identical to
//!   the serial loop;
//! * [`FocusService`] (`service` module) — the scheduler's one front
//!   end: a persistent worker pool that outlives any batch,
//!   accepting jobs as they arrive (`submit(job) → JobHandle`) with
//!   per-request [`Priority`] (a *weight* in the scheduler's fair
//!   queue — no class can starve another), bounded in-flight nodes
//!   (admission backpressure), and workers that park — not exit —
//!   between requests;
//! * [`StreamSession`] (`stream` module) — per-frame admission of an
//!   unbounded video feed: `push_frame(workload) → FrameHandle` admits
//!   one graph per frame, a bounded in-flight window applies blocking
//!   backpressure, and warm per-session state (shared retention plan,
//!   recycled stage scratch — see [`crate::session`]) rides across
//!   frames with results bit-identical to the serial per-frame loop.
//!
//! Every level of parallelism preserves determinism the same way: the
//! parallel units are pure, and reductions happen in submission order
//! (or along an explicitly sequential dependency chain).

mod batch;
mod executor;
pub mod graph;
mod service;
mod stage;
mod stream;

pub(crate) use graph::PipelineGraph;

pub use batch::{par_map, BatchJob, BatchRunner};
pub use executor::{ExecMode, LayerExecutor, LayerRecord, EXEC_MODE_ENV, THREADS_ENV};
pub use graph::Priority;
pub use service::{FocusService, JobHandle, ServiceConfig, ServiceStats};
pub use stage::{
    ConcentrationStage, GatherStage, LayerCtx, SemanticStage, StageOutput, StageScratch,
    StageWorkspace,
};
pub use stream::{FrameHandle, SessionStats, StreamConfig, StreamSession};

/// Per-[`crate::obs::SpanKind`] node counts of one pipeline run's task
/// graph at pipeline depth `depth` — the inventory a traced frame is
/// expected to contribute to the span rings. The trace-smoke CI job
/// asserts recorded span counts against this.
pub fn node_inventory(
    pipeline: &crate::pipeline::FocusPipeline,
    workload: &focus_vlm::Workload,
    arch: &focus_sim::ArchConfig,
    depth: usize,
) -> [(crate::obs::SpanKind, usize); crate::obs::SpanKind::ALL.len()] {
    let job = BatchJob {
        pipeline: pipeline.clone(),
        workload: workload.clone(),
        arch: arch.clone(),
    };
    PipelineGraph::with_warm(job, depth, None, None).span_inventory()
}

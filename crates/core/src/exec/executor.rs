//! [`LayerExecutor`]: the node inventory of one workload's stage graph
//! (semantic stage, four similarity-gather stages, workspace ring,
//! measurement plan), plus the [`ExecMode::Serial`] oracle's layer loop.

use std::sync::{Arc, Mutex};

use focus_vlm::embedding::Stage;
use focus_vlm::Workload;

use crate::exec::graph::lock_clean;
use crate::exec::stage::{
    ConcentrationStage, GatherStage, LayerCtx, SemanticStage, StageOutput, StageScratch,
    StageWorkspace,
};
use crate::pipeline::{FocusPipeline, SecLayerStats};
use crate::session::{RetentionPlan, SessionGeometry};
use crate::sic::{ConvLayouter, Fhw, MatrixGatherStats};

/// Environment variable overriding the measured-phase schedule
/// (`serial`, `graph` or `graph:N`) for every pipeline built through
/// [`FocusPipeline::paper`]/`with_config` — so any figure binary can be
/// reproduced under any schedule without code edits. Results are
/// bit-identical across schedules; only throughput differs.
pub const EXEC_MODE_ENV: &str = "FOCUS_EXEC_MODE";

/// Environment variable overriding the fan-out width (an integer
/// ≥ 1): the scoped threads of [`crate::exec::par_map`] and the worker
/// count of the default [`crate::exec::ServiceConfig`]. Unset, both
/// are as wide as the machine's available parallelism. Results are
/// bit-identical at any width; only throughput differs.
pub const THREADS_ENV: &str = "FOCUS_THREADS";

/// Parses a [`THREADS_ENV`] value: an integer ≥ 1, surrounding
/// whitespace allowed. Anything else is an error naming the valid
/// form, never a silent fallback.
pub(crate) fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad thread count {s:?}; expected an integer >= 1")),
    }
}

/// The fan-out width: [`THREADS_ENV`] when set, else the machine's
/// available parallelism.
///
/// # Panics
///
/// Panics when [`THREADS_ENV`] is set but malformed — a silently
/// ignored override would fake a measurement.
pub(crate) fn resolve_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads(&raw)
            .unwrap_or_else(|why| panic!("{THREADS_ENV}={raw:?} rejected: {why}")),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// How the executor schedules the stage graph.
// The hidden variant is a kept-alive alias that downstream exhaustive
// matches still name, not a non-exhaustiveness marker.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The independent oracle schedule: a plain sequential loop over
    /// layers and, within each layer, over the four gather stages. Each
    /// stage call runs on a fresh workspace (fresh synthesiser, tile
    /// buffer and gather scratch), so no memo carries over and there
    /// is no cross-layer overlap. Kept as the bit-exactness baseline
    /// every other schedule is checked against.
    Serial,
    /// The task-graph schedule (the default): every layer decomposes
    /// into `Sec`, per-stage fused `Gather` (synthesis streamed tile by
    /// tile into the gather), `FoldStats`, `Absorb` and `Lower` task
    /// nodes with explicit data dependencies, run on the persistent
    /// [`crate::exec::FocusService`] worker pool. The SEC chain and
    /// the fold/lowering tail stream ahead and behind without further
    /// barriers, and [`crate::exec::BatchRunner`] feeds many workloads'
    /// graphs into the same pool so stages of different requests
    /// interleave.
    Graph {
        /// Fused workspaces per gather stage (≥ 1): how many layers'
        /// gathers of one stage may be in flight at once. A workspace
        /// holds no activation matrix (only the synthesiser memo, one
        /// tile buffer and the gather scratch), so depth bounds
        /// concurrency, not memory.
        depth: usize,
    },
    /// Source-compatibility alias for the retired two-slot pipelined
    /// schedule: runs exactly as `Graph { depth: DEFAULT_GRAPH_DEPTH }`.
    /// [`ExecMode::parse`] rejects the name.
    #[doc(hidden)]
    Pipelined,
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }
    }
}

impl ExecMode {
    /// Default pipeline depth of [`ExecMode::Graph`] when none is
    /// given (`FOCUS_EXEC_MODE=graph`).
    pub const DEFAULT_GRAPH_DEPTH: usize = 2;

    /// The schedule forms [`ExecMode::parse`] accepts, for error
    /// messages.
    pub const VALID_FORMS: &'static str = "`serial`, `graph` or `graph:N` (N >= 1)";

    /// Parses a schedule name: `serial`, `graph` or `graph:N` (N ≥ 1).
    /// Malformed input — a zero or non-numeric depth, trailing junk, an
    /// unknown or retired name — is an error naming the valid forms,
    /// never a silent fallback.
    pub fn parse(s: &str) -> Result<ExecMode, String> {
        let trimmed = s.trim();
        match trimmed {
            "serial" => Ok(ExecMode::Serial),
            "graph" => Ok(ExecMode::default()),
            other => {
                let Some(depth) = other.strip_prefix("graph:") else {
                    return Err(format!(
                        "unknown schedule {other:?}; expected {}",
                        ExecMode::VALID_FORMS
                    ));
                };
                match depth.parse::<usize>() {
                    Ok(0) => Err(format!(
                        "graph depth must be >= 1, got {other:?}; expected {}",
                        ExecMode::VALID_FORMS
                    )),
                    Ok(depth) => Ok(ExecMode::Graph { depth }),
                    Err(e) => Err(format!(
                        "bad graph depth {depth:?} ({e}); expected {}",
                        ExecMode::VALID_FORMS
                    )),
                }
            }
        }
    }

    /// The schedule requested via [`EXEC_MODE_ENV`], if any.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but malformed (including
    /// `graph:0` and trailing junk) — a silently ignored or
    /// reinterpreted override would fake a measurement.
    pub fn from_env() -> Option<ExecMode> {
        let raw = std::env::var(EXEC_MODE_ENV).ok()?;
        match ExecMode::parse(&raw) {
            Ok(mode) => Some(mode),
            Err(why) => panic!("{EXEC_MODE_ENV}={raw:?} rejected: {why}"),
        }
    }

    /// [`ExecMode::from_env`] or the default schedule.
    pub fn env_or_default() -> ExecMode {
        ExecMode::from_env().unwrap_or_default()
    }

    /// The cross-layer depth a task graph runs this schedule at: the
    /// [`ExecMode::Graph`] depth, else [`ExecMode::DEFAULT_GRAPH_DEPTH`]
    /// (the `Pipelined` alias, or a `Serial` job submitted straight to
    /// the service).
    pub(crate) fn graph_depth(self) -> usize {
        match self {
            ExecMode::Graph { depth } => depth,
            ExecMode::Serial | ExecMode::Pipelined => ExecMode::DEFAULT_GRAPH_DEPTH,
        }
    }

    /// Workspace ring length per gather stage: how many layers' fused
    /// gathers may be in flight under this schedule. `Serial` builds a
    /// fresh workspace per stage call and holds none.
    pub(crate) fn ring(self) -> usize {
        match self {
            ExecMode::Serial => 0,
            mode => mode.graph_depth().max(1),
        }
    }
}

/// What one layer's pass through the stage graph produced. Counters
/// are per-layer deltas; the measure phase accumulates them.
pub struct LayerRecord {
    /// Retained image tokens entering the layer.
    pub retained_in: usize,
    /// Whether the gather stages actually ran at this layer.
    pub measured: bool,
    /// Mean retained-vector ratio per gather stage.
    pub stage_ratio: [f64; 4],
    /// Per-(m-tile, col-tile) retained ratios per stage.
    pub stage_samples: [Vec<f64>; 4],
    /// Column-tile count per stage.
    pub stage_col_tiles: [usize; 4],
    /// Matcher comparisons at this layer.
    pub comparisons: u64,
    /// Matcher hits at this layer.
    pub matches: u64,
    /// SEC statistics, when this layer pruned.
    pub sec: Option<SecLayerStats>,
    /// Mean reconstruction fidelity per retained row (post-prune
    /// order), when measured.
    pub fidelity: Option<Vec<f64>>,
}

impl LayerRecord {
    /// A record with no gather measurements yet.
    pub(crate) fn empty(retained_in: usize, measured: bool, sec: Option<SecLayerStats>) -> Self {
        LayerRecord {
            retained_in,
            measured,
            stage_ratio: [1.0; 4],
            stage_samples: Default::default(),
            stage_col_tiles: [1; 4],
            comparisons: 0,
            matches: 0,
            sec,
            fidelity: None,
        }
    }
}

/// Folds the four gather stages' statistics into `record` in fixed
/// stage order — identical arithmetic order to a serial stage sweep,
/// so every schedule (serial loop, task graph) produces bit-identical
/// records. `retained_len` is the post-prune retained count of the
/// layer (the fidelity vector's length).
pub(crate) fn fold_gathers(
    record: &mut LayerRecord,
    outputs: impl IntoIterator<Item = MatrixGatherStats>,
    retained_len: usize,
) {
    let stages_n = Stage::GATHER_POINTS.len();
    let mut fidelity = vec![0.0f64; retained_len];
    for (si, stats) in outputs.into_iter().enumerate() {
        record.stage_ratio[si] = stats.retained_ratio();
        record.stage_col_tiles[si] = stats.col_tiles;
        record.stage_samples[si] = stats
            .tile_p
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let h = stats.tile_heights[i / stats.col_tiles.max(1)].max(1);
                p as f64 / h as f64
            })
            .collect();
        record.comparisons += stats.comparisons;
        record.matches += stats.matches;
        for (row, &f) in stats.row_fidelity.iter().enumerate() {
            fidelity[row] += f as f64 / stages_n as f64;
        }
    }
    record.fidelity = Some(fidelity);
}

/// The concentration stage graph of one workload: stages, workspace
/// ring and measurement plan.
///
/// Under [`ExecMode::Graph`] the measured phase is one explicit task
/// graph (see [`crate::exec::graph`]) and this type is the node
/// inventory its nodes share. [`LayerExecutor::run_layer`] is the
/// [`ExecMode::Serial`] oracle's layer step: the semantic stage runs
/// first (it decides which token rows even exist downstream), then the
/// four gather stages run one after another, each on a fresh
/// workspace. Stage outputs are folded in fixed stage order, so both
/// schedules are bit-identical (`tests/batch_determinism.rs` proves it
/// property-style).
pub struct LayerExecutor {
    workload: Workload,
    layers: usize,
    mode: ExecMode,
    /// The measurement plan: prune layers, measured-layer predicate,
    /// full-set positions. Derived fresh per run — or shared across
    /// every frame of a [`crate::exec::StreamSession`].
    plan: Arc<RetentionPlan>,
    layouter: ConvLayouter,
    semantic: SemanticStage,
    gathers: Vec<GatherStage>,
    /// Workspace ring: `ring` slots per gather stage (flattened
    /// `stage * ring + slot`), lock-per-slot so concurrent stage nodes
    /// never share mutable state. Graph mode keeps `depth` slots so
    /// `depth` layers' fused gathers can be in flight; serial mode
    /// keeps none. (The semantic stage needs no workspace and runs
    /// through its inherent `prune_layer`.)
    gather_ws: Vec<Mutex<StageWorkspace>>,
}

impl LayerExecutor {
    /// Builds the executor for one (pipeline, workload) pair, using the
    /// pipeline's execution mode.
    pub fn new(pipeline: &FocusPipeline, workload: &Workload) -> Self {
        LayerExecutor::with_mode(pipeline, workload, pipeline.exec_mode)
    }

    /// Builds the executor with an explicit schedule.
    pub fn with_mode(pipeline: &FocusPipeline, workload: &Workload, mode: ExecMode) -> Self {
        LayerExecutor::with_parts(pipeline, workload, mode, None, None)
    }

    /// Builds the executor from session-donated parts: a shared
    /// [`RetentionPlan`] (derived fresh when `None`) and recycled
    /// [`StageScratch`] sets (`stages × ring`, stage-major, matching
    /// the workspace indexing; fresh allocations when `None`). The
    /// warm path of [`crate::exec::StreamSession`]; behaviour is
    /// bit-identical either way.
    pub(crate) fn with_parts(
        pipeline: &FocusPipeline,
        workload: &Workload,
        mode: ExecMode,
        plan: Option<Arc<RetentionPlan>>,
        scratch: Option<Vec<StageScratch>>,
    ) -> Self {
        let scaled = workload.scaled_model();
        let config = &pipeline.focus;
        let plan = plan.unwrap_or_else(|| Arc::new(RetentionPlan::derive(config, workload)));
        assert_eq!(
            plan.geometry(),
            SessionGeometry::of(workload),
            "retention plan geometry must match the workload"
        );
        let gathers: Vec<GatherStage> = Stage::GATHER_POINTS
            .iter()
            .map(|&s| GatherStage::new(config, s, pipeline.dtype, pipeline.backend))
            .collect();
        // Serial mode builds a fresh workspace per stage call — don't
        // charge it idle workspaces (ring = 0).
        let gather_ws: Vec<Mutex<StageWorkspace>> = match scratch {
            Some(sets) => {
                assert_eq!(
                    sets.len(),
                    gathers.len() * mode.ring(),
                    "donated scratch must cover stages x ring"
                );
                sets.into_iter()
                    .map(|s| {
                        Mutex::new(StageWorkspace::with_scratch(workload, s, pipeline.backend))
                    })
                    .collect()
            }
            None => gathers
                .iter()
                .flat_map(|_| {
                    (0..mode.ring())
                        .map(|_| Mutex::new(StageWorkspace::new(workload, pipeline.backend)))
                })
                .collect(),
        };
        LayerExecutor {
            workload: workload.clone(),
            layers: scaled.layers,
            mode,
            plan,
            layouter: ConvLayouter::new(scaled.grid_h, scaled.grid_w),
            semantic: SemanticStage::new(config, workload),
            gathers,
            gather_ws,
        }
    }

    /// Layer count at measured scale.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The schedule in effect.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The stage-graph nodes, semantic first, in fold order.
    pub fn stages(&self) -> Vec<&dyn ConcentrationStage> {
        let mut v: Vec<&dyn ConcentrationStage> = vec![&self.semantic];
        v.extend(self.gathers.iter().map(|g| g as &dyn ConcentrationStage));
        v
    }

    /// The semantic stage node.
    pub(crate) fn semantic(&self) -> &SemanticStage {
        &self.semantic
    }

    /// The gather stage nodes, in fold order.
    pub(crate) fn gather_stages(&self) -> &[GatherStage] {
        &self.gathers
    }

    /// The layouter mapping retained tokens to (frame, row, col).
    pub(crate) fn layouter(&self) -> &ConvLayouter {
        &self.layouter
    }

    /// The workspace of `stage` at ring slot `slot` (`slot <
    /// mode.ring()`); exclusive access is the caller's contract
    /// (the graph's dependency edges).
    pub(crate) fn workspace(&self, stage: usize, slot: usize) -> &Mutex<StageWorkspace> {
        &self.gather_ws[stage * self.mode.ring() + slot]
    }

    /// Whether the gather stages measure at `layer` (every stride-th
    /// layer, the final layer, and every pruning layer — per the
    /// retention plan).
    pub(crate) fn measures_at(&self, layer: usize) -> bool {
        self.plan.measures_at(layer)
    }

    /// The measurement plan in effect (shared across a session's
    /// frames, or private to this run).
    pub(crate) fn plan(&self) -> &Arc<RetentionPlan> {
        &self.plan
    }

    /// Takes the workload-independent scratch out of every workspace
    /// (stage-major, ring-minor — the [`LayerExecutor::with_parts`]
    /// donation order), leaving placeholders. Only valid once no stage
    /// node will run again; recovers from workspace mutexes poisoned
    /// by a panicked frame.
    pub(crate) fn reclaim_scratch(&self) -> Vec<StageScratch> {
        self.gather_ws
            .iter()
            .map(|ws| lock_clean(ws).take_scratch())
            .collect()
    }

    /// Runs one layer of the [`ExecMode::Serial`] schedule, updating
    /// `retained` in place: SEC, then the four gathers in stage order,
    /// each on a fresh workspace. Layers may come in any order — every
    /// stage is a pure function of its context.
    pub fn run_layer(&self, layer: usize, retained: &mut Vec<usize>) -> LayerRecord {
        let retained_in = retained.len();

        // --- Semantic concentration (attention stage, streaming). ---
        let ctx = LayerCtx {
            workload: &self.workload,
            layer,
            retained,
            positions: &[],
        };
        let mut sec = None;
        if let Some((kept, stats)) = self.semantic.prune_layer(&ctx) {
            *retained = kept;
            sec = Some(stats);
        }

        // --- Similarity concentration (FC stages, in stage order). ---
        let measured = self.measures_at(layer);
        let mut record = LayerRecord::empty(retained_in, measured, sec);
        if !measured {
            return record;
        }

        // Early unpruned layers see the full retained set, whose
        // position table the plan already holds (derived once per
        // run); only genuinely pruned sets decode positions here.
        let owned_positions: Vec<Option<Fhw>>;
        let positions: &[Option<Fhw>] = if retained.len() == self.plan.geometry().m_img
            && retained.iter().copied().eq(0..retained.len())
        {
            self.plan.full_positions()
        } else {
            owned_positions = retained
                .iter()
                .map(|&t| Some(self.layouter.position_of(t)))
                .collect();
            &owned_positions
        };
        let ctx = LayerCtx {
            workload: &self.workload,
            layer,
            retained,
            positions,
        };
        // Fold in fixed stage order: identical arithmetic order to the
        // task graph's `FoldStats` nodes, so the schedules agree
        // bit-for-bit.
        let outputs = self.gathers.iter().map(|g| {
            let mut ws = StageWorkspace::new(&self.workload, g.backend());
            let StageOutput::Gathered { stats, .. } = g.run(&ctx, &mut ws) else {
                unreachable!("gather stages always gather");
            };
            stats
        });
        fold_gathers(&mut record, outputs, retained.len());
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses_all_schedules() {
        assert_eq!(ExecMode::parse("serial"), Ok(ExecMode::Serial));
        // The retired two-slot schedule is no longer a valid override:
        // reinterpreting it as `graph` would fake a measurement.
        let err = ExecMode::parse("pipelined").expect_err("pipelined is retired");
        assert!(err.contains(ExecMode::VALID_FORMS), "{err}");
        assert_eq!(
            ExecMode::parse("graph"),
            Ok(ExecMode::Graph {
                depth: ExecMode::DEFAULT_GRAPH_DEPTH
            })
        );
        assert_eq!(ExecMode::parse("graph:4"), Ok(ExecMode::Graph { depth: 4 }));
        assert_eq!(
            ExecMode::parse(" graph:1 "),
            Ok(ExecMode::Graph { depth: 1 })
        );
    }

    #[test]
    fn exec_mode_rejects_malformed_schedules_loudly() {
        // Every rejection is a hard error that names the valid forms —
        // the override can never silently fall back or reinterpret.
        for bad in [
            "graph:0",   // depth below the floor
            "graph:",    // missing depth
            "graph:x",   // non-numeric depth
            "graph:2x",  // trailing junk inside the depth
            "graph: 2",  // embedded whitespace is junk too
            "graph:2:3", // extra component
            "turbo",     // unknown schedule
            "",          // empty override
        ] {
            let err = ExecMode::parse(bad).expect_err(bad);
            assert!(
                err.contains(ExecMode::VALID_FORMS),
                "{bad:?} error must name the valid forms, got: {err}"
            );
        }
        assert!(ExecMode::parse("graph:0").unwrap_err().contains(">= 1"));
    }

    #[test]
    fn thread_override_parses_positive_integers_and_rejects_the_rest() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        for bad in ["0", "-1", "abc", ""] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(
                err.contains("an integer >= 1"),
                "{bad:?} error must name the valid form, got: {err}"
            );
        }
    }

    #[test]
    fn default_schedule_is_the_task_graph() {
        assert_eq!(
            ExecMode::default(),
            ExecMode::Graph {
                depth: ExecMode::DEFAULT_GRAPH_DEPTH
            }
        );
    }

    #[test]
    fn ring_lengths_follow_the_schedule() {
        assert_eq!(ExecMode::Serial.ring(), 0);
        assert_eq!(ExecMode::Pipelined.ring(), ExecMode::DEFAULT_GRAPH_DEPTH);
        assert_eq!(ExecMode::Graph { depth: 3 }.ring(), 3);
    }
}

//! The [`ConcentrationStage`] trait and its two implementations: the
//! semantic (token-pruning) stage and the four similarity-gather
//! stages.
//!
//! A stage is a pure function of its [`LayerCtx`]: it borrows the
//! workload, synthesises whatever activations it needs, and returns a
//! [`StageOutput`]. Purity is what lets the executor run the four
//! gather stages of a layer concurrently with results bit-identical to
//! a serial sweep — there is no shared mutable state to race on.
//!
//! A gather stage is **fused**: like the accelerator, which
//! concentrates each GEMM output tile as it streams out of the array,
//! it synthesises its activations one `tile_m × vector_len` tile at a
//! time, applies the datapath precision to the tile and gathers it at
//! once ([`GatherStage::gather`]). No `rows × width` activation matrix
//! exists anywhere; an INT8 stage pays one extra synthesis sweep per
//! m-tile for the per-row absmax its scales need.
//!
//! Stages do not *own* scratch state; they borrow a [`StageWorkspace`]
//! per call. The workspace is pure memo + recycled buffers (activation
//! synthesiser, tile buffer, gather scratch): rows are pure functions
//! of `(scene, seed, layer, stage)`, so a stage run against a
//! workspace that has served any number of previous layers returns
//! byte-identical output to one run against a fresh workspace. The
//! [`ExecMode::Serial`](crate::exec::ExecMode::Serial) oracle builds a
//! fresh workspace per call, and `tests/batch_determinism.rs` asserts
//! the equivalence.

use std::ops::Range;

use focus_tensor::backend::BackendHandle;
use focus_tensor::ops::vector_ranges;
use focus_tensor::quant::DataType;
use focus_tensor::Matrix;
use focus_vlm::attention::AttentionSynthesizer;
use focus_vlm::embedding::{ActivationSynthesizer, Stage};
use focus_vlm::Workload;

use crate::config::FocusConfig;
use crate::pipeline::SecLayerStats;
use crate::sec::SemanticConcentrator;
use crate::sic::{
    CarryMask, ConvLayouter, Fhw, GatherScratch, MatrixGatherStats, SimilarityConcentrator,
    TemporalCache, TileSource,
};

/// Everything a concentration stage may read while processing one
/// layer.
pub struct LayerCtx<'a> {
    /// The workload under measurement.
    pub workload: &'a Workload,
    /// Layer index.
    pub layer: usize,
    /// Retained image tokens entering the stage (scene-global indices).
    pub retained: &'a [usize],
    /// `(frame, row, col)` positions of `retained`, parallel to it.
    /// Empty for stages that do not need spatial structure (SEC).
    pub positions: &'a [Option<Fhw>],
}

/// The **workload-independent** half of a [`StageWorkspace`]: the
/// gather scratch (flat lookup, per-m-tile candidate plan and the
/// recycled `tile_m × vector_len` tile buffer). Unlike the activation
/// synthesiser (which holds one workload's scene), this scratch
/// carries no per-scene state — the lookup is epoch-stamped and the
/// tile fully overwritten per fill — so a
/// [`crate::exec::StreamSession`] keeps it resident *across frames* of
/// a feed (same grid geometry), byte-identical to building it fresh.
pub struct StageScratch {
    /// Recycled gather scratch. Sized by the frame grid; reusable
    /// across any workloads sharing that grid.
    pub gather: GatherScratch,
}

impl StageScratch {
    /// Fresh scratch for stages gathering on `layouter`'s frame grid.
    pub fn new(layouter: &ConvLayouter) -> Self {
        StageScratch {
            gather: GatherScratch::new(layouter),
        }
    }

    /// Fresh scratch for one stage of `workload`'s stage graph.
    pub fn for_workload(workload: &Workload) -> Self {
        let scaled = workload.scaled_model();
        StageScratch::new(&ConvLayouter::new(scaled.grid_h, scaled.grid_w))
    }

    /// A minimal stand-in left behind when warm scratch is reclaimed
    /// out of a finished frame (the frame's workspace is never used
    /// again; the placeholder only keeps the struct well-formed).
    pub(crate) fn placeholder() -> Self {
        StageScratch::new(&ConvLayouter::new(1, 1))
    }
}

/// Thread-reusable scratch state for one fused gather node: the
/// activation synthesiser (with its content-appearance memo) plus the
/// workload-independent [`StageScratch`] (tile buffer, flat gather
/// position lookup).
///
/// One workspace serves one stage across every layer of a run; the
/// executor keeps a ring of them per stage so the four gather stages
/// (and several layers) can run concurrently without sharing mutable
/// state. Streaming sessions additionally recycle the [`StageScratch`]
/// half across frames.
pub struct StageWorkspace {
    /// The resident activation synthesiser.
    pub syn: ActivationSynthesizer,
    /// The workload-independent recycled buffers.
    pub scratch: StageScratch,
}

impl StageWorkspace {
    /// A fresh workspace for one stage of `workload`'s stage graph; the
    /// synthesiser's noise-fill kernel dispatches through `backend`.
    pub fn new(workload: &Workload, backend: BackendHandle) -> Self {
        StageWorkspace::with_scratch(workload, StageScratch::for_workload(workload), backend)
    }

    /// A workspace pairing `workload`'s synthesiser with donated
    /// `scratch` — the warm-reuse path of streaming sessions. The
    /// scratch must have been built for the same frame grid (the
    /// session enforces geometry compatibility at `push_frame`).
    pub fn with_scratch(
        workload: &Workload,
        scratch: StageScratch,
        backend: BackendHandle,
    ) -> Self {
        StageWorkspace {
            syn: workload.activation_synthesizer_on(backend),
            scratch,
        }
    }

    /// Takes the workload-independent scratch out of the workspace,
    /// leaving a placeholder. For reclamation from finished frames
    /// only — the workspace must not run any further stage calls.
    pub(crate) fn take_scratch(&mut self) -> StageScratch {
        std::mem::replace(&mut self.scratch, StageScratch::placeholder())
    }
}

/// What one stage produced for one layer.
pub enum StageOutput {
    /// The semantic stage pruned the retained token set.
    Pruned {
        /// Surviving scene-global token indices, in stream order.
        kept: Vec<usize>,
        /// Hardware statistics of the pruning pass.
        stats: SecLayerStats,
    },
    /// A similarity stage gathered one FC output.
    Gathered {
        /// Which gather point was measured.
        stage: Stage,
        /// Tile-level gather statistics.
        stats: MatrixGatherStats,
    },
    /// The stage had nothing to do at this layer.
    Skipped,
}

/// One node of the streaming stage graph. Implementations must be
/// `Sync`: the executor fans independent stages out across threads,
/// each with its own [`StageWorkspace`].
pub trait ConcentrationStage: Sync {
    /// Short name for logs and benches.
    fn label(&self) -> &'static str;

    /// Processes one layer using (and updating) `ws`.
    fn run(&self, ctx: &LayerCtx<'_>, ws: &mut StageWorkspace) -> StageOutput;
}

/// The semantic concentration stage: prompt-aware token pruning at the
/// Table I schedule points.
pub struct SemanticStage {
    config: FocusConfig,
    sec: SemanticConcentrator,
    att: AttentionSynthesizer,
    /// Image tokens at measured scale (the schedule's 100 % anchor).
    m_img: usize,
}

impl SemanticStage {
    /// Builds the stage for one workload.
    pub fn new(config: &FocusConfig, workload: &Workload) -> Self {
        SemanticStage {
            config: config.clone(),
            sec: SemanticConcentrator::new(config.analyzer_ways),
            att: workload.attention_synthesizer(),
            m_img: workload.image_tokens_scaled(),
        }
    }

    /// The token budget this stage would prune down to at `layer` for
    /// a retained set of `retained_len` tokens, or `None` when the
    /// schedule (or an ablation switch, or an already-small set)
    /// leaves the layer alone.
    fn prune_k(&self, layer: usize, retained_len: usize) -> Option<usize> {
        if !self.config.enable_sec {
            return None;
        }
        let ratio = self.config.schedule.prune_at(layer)?;
        let k = ((ratio * self.m_img as f64).round() as usize).min(retained_len);
        (k < retained_len).then_some(k)
    }

    /// Prunes one layer's retained set, returning the surviving tokens
    /// and the pass statistics, or `None` when the schedule leaves this
    /// layer alone. The semantic stage needs no scratch workspace, so
    /// the executor calls this directly; the [`ConcentrationStage`]
    /// impl delegates here.
    pub fn prune_layer(&self, ctx: &LayerCtx<'_>) -> Option<(Vec<usize>, SecLayerStats)> {
        let k = self.prune_k(ctx.layer, ctx.retained.len())?;
        let heads = self.att.all_heads(ctx.layer, ctx.retained);
        let outcome = self.sec.prune(&heads, ctx.retained, k);
        let kept: Vec<usize> = outcome
            .kept_local
            .iter()
            .map(|&i| ctx.retained[i])
            .collect();
        let stats = SecLayerStats {
            layer: ctx.layer,
            candidates: ctx.retained.len(),
            kept: kept.len(),
            analyzer_cycles: outcome.analyzer.cycles,
            sorter_cycles: outcome.sorter_cycles,
            offset_bytes: outcome.offsets.storage_bytes(),
        };
        Some((kept, stats))
    }
}

impl ConcentrationStage for SemanticStage {
    fn label(&self) -> &'static str {
        "sec"
    }

    fn run(&self, ctx: &LayerCtx<'_>, _ws: &mut StageWorkspace) -> StageOutput {
        match self.prune_layer(ctx) {
            Some((kept, stats)) => StageOutput::Pruned { kept, stats },
            None => StageOutput::Skipped,
        }
    }
}

/// One similarity concentration stage: gathers a single FC output
/// (PV, O-proj, FFN activation or FFN down) over synthesised
/// activations, streamed tile by tile.
pub struct GatherStage {
    /// The gather point this stage measures.
    pub stage: Stage,
    concentrator: SimilarityConcentrator,
    dtype: DataType,
    backend: BackendHandle,
}

impl GatherStage {
    /// Builds the stage for one gather point. Every hot kernel the
    /// stage launches (synthesis fill, dtype conversion, gather
    /// scoring) dispatches through `backend`.
    ///
    /// The tile height is NOT scaled down with the frame count: what
    /// governs boundary statistics is the tile span measured in frames
    /// (`tile_m` / retained-tokens-per-frame), and tokens per frame are
    /// identical at both scales. A scaled-down tile would hide the
    /// temporal twin (one frame-stride away in the packed stream) from
    /// most keys and destroy the match rate.
    pub fn new(
        config: &FocusConfig,
        stage: Stage,
        dtype: DataType,
        backend: BackendHandle,
    ) -> Self {
        GatherStage {
            stage,
            concentrator: SimilarityConcentrator::from_config(config),
            dtype,
            backend,
        }
    }

    /// The kernel backend this stage dispatches through.
    pub fn backend(&self) -> BackendHandle {
        self.backend
    }

    /// The fused *Gather* node of the task graph: synthesises this
    /// stage's activations for the layer one `tile_m × vector_len` tile
    /// at a time into the workspace's tile buffer, applies the datapath
    /// precision (FP16 rounding, or INT8 fake-quantisation at each
    /// row's whole-row scale) and gathers the tile at once. The
    /// synthesiser's memo stays warm across calls, bit-identical to a
    /// fresh build: rows are pure functions of (scene, seed, layer,
    /// stage), and every conversion is per element (FP16) or per row
    /// at the row's absmax over all columns (INT8) — exactly the
    /// whole-matrix conversion.
    ///
    /// `temporal` is the optional cross-frame probe `(cache,
    /// stage_index)`: streaming sessions pass their [`TemporalCache`]
    /// so rows proven to replay the anchored frame bit-for-bit
    /// (unchanged signature, fresh anchor, stability-model-stable
    /// tile) are carried — and never synthesised — instead of
    /// re-gathered. `stage_index` selects the cache plane (the
    /// executor's gather-stage ordinal); `ctx.retained` keys rows to
    /// absolute token indices. The carry proof covers raw synthesised
    /// bytes and FP16's per-element rounding, but INT8 scales each row
    /// by its absmax over *all* columns — an unstable tile moves the
    /// scale of the stable ones — so INT8 stages ignore the probe and
    /// never carry.
    pub fn gather(
        &self,
        ctx: &LayerCtx<'_>,
        ws: &mut StageWorkspace,
        temporal: Option<(&TemporalCache, usize)>,
    ) -> MatrixGatherStats {
        let width = self.stage.width(ctx.workload.scaled_model());
        let temporal = temporal
            .filter(|_| self.dtype == DataType::Fp16)
            .map(|(cache, stage_index)| (cache, ctx.retained, ctx.layer, stage_index));
        let source = StageTiles {
            syn: &mut ws.syn,
            ctx,
            stage: self.stage,
            width,
            v_len: self.concentrator.vector_len.min(width),
            dtype: self.dtype,
            backend: self.backend,
            absmax: Vec::new(),
        };
        self.concentrator.gather_matrix(
            source,
            ctx.positions,
            &mut ws.scratch.gather,
            temporal,
            self.backend,
        )
    }
}

impl ConcentrationStage for GatherStage {
    fn label(&self) -> &'static str {
        match self.stage {
            Stage::PvOut => "sic/pv_out",
            Stage::OProjOut => "sic/o_proj_out",
            Stage::FfnAct => "sic/ffn_act",
            Stage::FfnDownOut => "sic/ffn_down_out",
            Stage::Embedding => "sic/embedding",
        }
    }

    fn run(&self, ctx: &LayerCtx<'_>, ws: &mut StageWorkspace) -> StageOutput {
        StageOutput::Gathered {
            stage: self.stage,
            stats: self.gather(ctx, ws, None),
        }
    }
}

/// The fused stage's [`TileSource`]: the layer's activations of one
/// gather point, synthesised a tile at a time at the stage's datapath
/// precision.
struct StageTiles<'a> {
    syn: &'a mut ActivationSynthesizer,
    ctx: &'a LayerCtx<'a>,
    stage: Stage,
    width: usize,
    v_len: usize,
    dtype: DataType,
    backend: BackendHandle,
    /// INT8: each selected row's absmax over every column.
    absmax: Vec<f32>,
}

impl TileSource for StageTiles<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.ctx.retained.len(), self.width)
    }

    /// Resolves the m-tile's synthesis recipes; INT8 additionally
    /// sweeps the m-tile once, tile by tile, for each row's absmax —
    /// max is order-independent, so this is the whole-row absmax bit
    /// for bit.
    fn begin_rows(&mut self, rows: Range<usize>, buf: &mut Matrix) {
        let tokens = &self.ctx.retained[rows.clone()];
        self.syn
            .prepare_rows(tokens, self.ctx.layer, self.stage, self.width);
        if self.dtype == DataType::Int8 {
            self.absmax.clear();
            self.absmax.resize(rows.len(), 0.0);
            for cols in vector_ranges(self.width, self.v_len) {
                buf.resize(rows.len(), cols.len());
                self.syn.fill_columns(cols, |_| false, buf.as_mut_slice());
                self.backend.row_absmax(buf, &mut self.absmax);
            }
        }
    }

    fn fill(
        &mut self,
        rows: Range<usize>,
        cols: Range<usize>,
        carry: Option<(&CarryMask, usize)>,
        out: &mut Matrix,
    ) {
        out.resize(rows.len(), cols.len());
        let carried =
            |local: usize| carry.is_some_and(|(mask, ct)| mask.carried(local, ct).is_some());
        self.syn.fill_columns(cols, carried, out.as_mut_slice());
        match self.dtype {
            DataType::Fp16 => self.backend.f16_round(out),
            DataType::Int8 => self.backend.fake_quantize(out, &self.absmax),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sic::gather::{gather_tile, hashmap_plan};
    use focus_tensor::backend;
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    /// The streamed, fused stage against an unfused oracle, on real
    /// synthesised activations of every gather stage at both datapath
    /// precisions: the oracle synthesises the whole matrix, converts it
    /// whole through the software references (FP16 rounding, whole-row
    /// INT8 fake-quantise), and sweeps every tile through the `HashMap` candidate
    /// plan (which must also gather each tile bit-identically to the
    /// flat-lookup plan). The stage's statistics must match the oracle
    /// exactly — matches, comparisons, per-tile `p` and every row
    /// fidelity bit.
    #[test]
    fn planned_gather_matches_hashmap_oracle_on_synthesised_stages() {
        let wl = Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            42,
        );
        let config = FocusConfig::paper();
        let scaled = wl.scaled_model();
        let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
        let backend = backend::active();
        let conc = SimilarityConcentrator::from_config(&config);
        let mut total_matches = 0;
        for dtype in [DataType::Fp16, DataType::Int8] {
            for stage in Stage::GATHER_POINTS {
                let gather = GatherStage::new(&config, stage, dtype, backend);
                let mut ws = StageWorkspace::new(&wl, backend);
                let width = stage.width(scaled);
                for (layer, keep_every) in [(0usize, 1usize), (7, 3)] {
                    let retained: Vec<usize> =
                        (0..wl.image_tokens_scaled()).step_by(keep_every).collect();
                    let positions: Vec<Option<Fhw>> = retained
                        .iter()
                        .map(|&t| Some(layouter.position_of(t)))
                        .collect();
                    let ctx = LayerCtx {
                        workload: &wl,
                        layer,
                        retained: &retained,
                        positions: &positions,
                    };
                    let mut acts = wl
                        .activation_synthesizer_on(backend)
                        .activations(&retained, layer, stage, width);
                    match dtype {
                        DataType::Fp16 => acts.round_to_f16(),
                        DataType::Int8 => focus_tensor::quant::fake_quantize_in_place(&mut acts),
                    }
                    let col_ranges = vector_ranges(width, conc.vector_len.min(width));
                    let mut plan = GatherScratch::new(&layouter);
                    let (mut matches, mut comparisons) = (0, 0);
                    let mut tile_p = Vec::new();
                    let mut row_fidelity = vec![0.0f32; acts.rows()];
                    for row_start in (0..acts.rows()).step_by(conc.tile_m) {
                        let row_count = conc.tile_m.min(acts.rows() - row_start);
                        let block = conc.gather.block;
                        plan.plan_tile(&positions, row_start, row_count, block);
                        let oracle = hashmap_plan(&positions, row_start, row_count, block);
                        for cols in &col_ranges {
                            let tile = acts.submatrix(row_start, row_count, cols.start, cols.len());
                            let reference = gather_tile(
                                &tile,
                                &oracle,
                                0..cols.len(),
                                &conc.gather,
                                None,
                                backend,
                            );
                            let planned = gather_tile(
                                &tile,
                                &plan,
                                0..cols.len(),
                                &conc.gather,
                                None,
                                backend,
                            );
                            assert_eq!(
                                planned, reference,
                                "layer {layer}, {stage:?}, {dtype}, rows {row_start}+{row_count}, \
                                 cols {cols:?}"
                            );
                            matches += reference.matches;
                            comparisons += reference.comparisons;
                            tile_p.push(reference.p());
                            for (local, &f) in reference.fidelity.iter().enumerate() {
                                row_fidelity[row_start + local] += f / col_ranges.len() as f32;
                            }
                        }
                    }
                    let stats = gather.gather(&ctx, &mut ws, None);
                    let at = format!("layer {layer}, {stage:?}, {dtype}");
                    assert_eq!(
                        (stats.matches, stats.comparisons),
                        (matches, comparisons),
                        "{at}"
                    );
                    assert_eq!(stats.tile_p, tile_p, "{at}");
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&stats.row_fidelity), bits(&row_fidelity), "{at}");
                    total_matches += matches;
                }
            }
        }
        assert!(total_matches > 0, "the synthesised stages must deduplicate");
    }
}

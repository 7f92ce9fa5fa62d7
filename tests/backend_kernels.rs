//! The [`Backend`] contract, property-tested end to end:
//!
//! * **Bit-identity** — the `Simd` backend must match the `ScalarRef`
//!   oracle bit for bit on every kernel family (compact norms, gather
//!   candidate scoring, INT8 fake-quantise, FP16 rounding, scatter
//!   replay), across widths sweeping every SIMD tail length, slice
//!   alignments, candidate counts sweeping the 8-candidate group
//!   boundary, and wide magnitude spreads. A whole measured pipeline
//!   run on either backend must therefore produce identical results.
//! * **Dispatch completeness** — a `Trace` backend run does no numeric
//!   work but observes every stage-level kernel launch, proving the
//!   stage graph routes all five kernel families through the trait
//!   (nothing is open-coded behind its back).

use focus::core::exec::{ConcentrationStage, GatherStage, LayerCtx, StageOutput, StageWorkspace};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::core::sic::{scatter, ConvLayouter, Fhw, SimilarityMap};
use focus::core::FocusConfig;
use focus::sim::ArchConfig;
use focus::tensor::backend::{scalar_ref, simd, BackendHandle, KernelLaunch, Trace};
use focus::tensor::{DataType, Matrix};
use focus::vlm::embedding::Stage;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
use proptest::prelude::*;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

fn assert_matrix_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: rows");
    assert_eq!(a.cols(), b.cols(), "{what}: cols");
    for r in 0..a.rows() {
        assert_bits_eq(a.row(r), b.row(r), what);
    }
}

/// Deterministic pseudo-random fill so candidate sets vary without
/// blowing up the proptest input space.
fn synth_values(n: usize, salt: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (salt.wrapping_mul(131).wrapping_add(i.wrapping_mul(31))) % 193;
            (h as f32 / 96.5 - 1.0) * scale
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Simd` ≡ `ScalarRef` bit for bit on norms and gather scoring,
    /// for every width tail, slice alignment and candidate count.
    #[test]
    fn gather_scoring_backends_are_bit_identical(
        width in 1usize..70,
        offset in 0usize..8,
        n_cands in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        // Over-allocate and sub-slice so the row starts at every
        // alignment relative to the allocation.
        let backing = synth_values(width + offset, salt, scale);
        let row = &backing[offset..];
        let cands: Vec<Vec<f32>> = (0..n_cands)
            .map(|c| synth_values(width, salt + 7 * c + 1, scale))
            .collect();
        let views: Vec<&[f32]> = cands.iter().map(|c| c.as_slice()).collect();
        let (s, f) = (scalar_ref(), simd());

        let norm = s.row_norm(row);
        prop_assert_eq!(norm.to_bits(), f.row_norm(row).to_bits());
        let cand_norms: Vec<f32> = views.iter().map(|c| s.row_norm(c)).collect();
        for (c, &n) in cand_norms.iter().enumerate() {
            prop_assert_eq!(n.to_bits(), f.row_norm(views[c]).to_bits());
        }

        let mut scalar = vec![0.0f32; n_cands];
        s.score_candidates(row, norm, &views, &cand_norms, &mut scalar);
        let mut dispatched = vec![0.0f32; n_cands];
        f.score_candidates(row, norm, &views, &cand_norms, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "score_candidates simd vs scalar");
        for &c in &scalar {
            prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of range");
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the tile-batched launches
    /// (`row_norms`, `score_pairs`), which must in turn match the
    /// one-row kernels — the batching is bit-invisible. Zero rows are
    /// sprinkled in so the zero-norm conventions are exercised on the
    /// batched path too.
    #[test]
    fn pair_scoring_backends_are_bit_identical(
        width in 1usize..70,
        n_pairs in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let left: Vec<Vec<f32>> = (0..n_pairs)
            .map(|p| synth_values(width, salt + 3 * p, scale))
            .collect();
        let right: Vec<Vec<f32>> = (0..n_pairs)
            .map(|p| {
                if p % 5 == 0 {
                    vec![0.0; width]
                } else {
                    synth_values(width, salt + 3 * p + 1, scale)
                }
            })
            .collect();
        let pa: Vec<&[f32]> = left.iter().map(|r| r.as_slice()).collect();
        let pb: Vec<&[f32]> = right.iter().map(|r| r.as_slice()).collect();
        let (s, f) = (scalar_ref(), simd());

        let mut an = vec![0.0f32; n_pairs];
        s.row_norms(&pa, &mut an);
        let mut an_f = vec![0.0f32; n_pairs];
        f.row_norms(&pa, &mut an_f);
        assert_bits_eq(&an_f, &an, "row_norms simd vs scalar");
        for p in 0..n_pairs {
            prop_assert_eq!(an[p].to_bits(), s.row_norm(pa[p]).to_bits());
        }

        let mut bn = vec![0.0f32; n_pairs];
        s.row_norms(&pb, &mut bn);
        let mut scalar = vec![0.0f32; n_pairs];
        s.score_pairs(&pa, &an, &pb, &bn, &mut scalar);
        let mut dispatched = vec![0.0f32; n_pairs];
        f.score_pairs(&pa, &an, &pb, &bn, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "score_pairs simd vs scalar");
        for (p, &c) in scalar.iter().enumerate() {
            prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of range");
            let mut one = [0.0f32];
            s.score_candidates(pa[p], an[p], &[pb[p]], &[bn[p]], &mut one);
            prop_assert_eq!(c.to_bits(), one[0].to_bits());
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the whole-matrix dtype
    /// conversions (INT8 fake-quantise and FP16 rounding).
    #[test]
    fn dtype_conversion_backends_are_bit_identical(
        rows in 1usize..8,
        cols in 1usize..70,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let m = Matrix::from_fn(rows, cols, |r, c| {
            synth_values(1, salt + r * 71 + c, scale)[0]
        });

        let mut scalar = m.clone();
        scalar_ref().fake_quantize(&mut scalar);
        let mut dispatched = m.clone();
        simd().fake_quantize(&mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "fake_quantize simd vs scalar");

        let mut scalar = m.clone();
        scalar_ref().f16_round(&mut scalar);
        let mut dispatched = m;
        simd().f16_round(&mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "f16_round simd vs scalar");
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on scatter row replay, for any
    /// representative mapping.
    #[test]
    fn scatter_backends_are_bit_identical(
        p in 1usize..6,
        cols in 1usize..40,
        reps in proptest::collection::vec(0u32..6, 1..24),
        salt in 0usize..1000,
    ) {
        let reps: Vec<u32> = reps.into_iter().map(|r| r % p as u32).collect();
        let partial = Matrix::from_fn(p, cols, |r, c| {
            synth_values(1, salt + r * 97 + c, 1.0)[0]
        });
        let mut scalar = Matrix::zeros(reps.len(), cols);
        scalar_ref().scatter_rows(&partial, &reps, &mut scalar);
        let mut dispatched = Matrix::zeros(reps.len(), cols);
        simd().scatter_rows(&partial, &reps, &mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "scatter simd vs scalar");
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the synthesis noise fill.
    #[test]
    fn normal_fill_backends_are_bit_identical(
        seed in 0u64..u64::MAX,
        width in 1usize..70,
    ) {
        let mut scalar = vec![0.0f32; width];
        scalar_ref().normal_fill(seed, &mut scalar);
        let mut dispatched = vec![0.0f32; width];
        simd().normal_fill(seed, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "normal_fill simd vs scalar");
    }
}

/// The zero-norm conventions survive the batched scoring path: two
/// zero rows are "identical" (cosine 1), one zero row matches nothing
/// (cosine 0), on both numeric backends.
#[test]
fn zero_norm_conventions_hold_on_both_backends() {
    let zero = vec![0.0f32; 11];
    let unit: Vec<f32> = (0..11).map(|i| (i == 3) as u32 as f32).collect();
    for backend in [scalar_ref(), simd()] {
        let cands: Vec<&[f32]> = vec![&zero, &unit];
        let norms = [backend.row_norm(&zero), backend.row_norm(&unit)];
        let mut scores = [9.0f32; 2];
        backend.score_candidates(&zero, norms[0], &cands, &norms, &mut scores);
        assert_eq!(scores, [1.0, 0.0], "{} zero-row scores", backend.name());
    }
}

fn tiny_workload() -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        42,
    )
}

fn assert_results_identical(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.sparsity(), b.sparsity(), "{what}: sparsity");
    assert_eq!(a.accuracy, b.accuracy, "{what}: accuracy");
    assert_eq!(a.work_items, b.work_items, "{what}: work items");
    assert_eq!(a.dram_bytes(), b.dram_bytes(), "{what}: DRAM bytes");
    assert_eq!(a.layers, b.layers, "{what}: layer records");
}

/// A whole measured pipeline — synthesis, dtype conversion, gather
/// scoring — is bit-identical across the numeric backends, in both
/// precisions.
#[test]
fn pipeline_results_are_backend_invariant() {
    let wl = tiny_workload();
    let arch = ArchConfig::focus();
    for dtype in [DataType::Fp16, DataType::Int8] {
        let mut pipeline = FocusPipeline::paper();
        pipeline.dtype = dtype;
        let fast = pipeline.clone().with_backend(simd()).run(&wl, &arch);
        let oracle = pipeline.with_backend(scalar_ref()).run(&wl, &arch);
        assert_results_identical(&fast, &oracle, &format!("{dtype}"));
    }
}

/// A `Trace` backend observes the full per-layer kernel-launch
/// sequence of a two-layer, two-stage walk — synthesis fill, dtype
/// conversion and gather scoring all dispatch through the trait, in
/// schedule order, with the right shapes.
#[test]
fn trace_backend_records_the_stage_launch_sequence() {
    let trace: BackendHandle = Box::leak(Box::new(Trace::new()));
    let wl = tiny_workload();
    let scaled = wl.scaled_model();
    let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
    let retained: Vec<usize> = (0..wl.image_tokens_scaled()).step_by(2).collect();
    let positions: Vec<Option<Fhw>> = retained
        .iter()
        .map(|&t| Some(layouter.position_of(t)))
        .collect();
    let config = FocusConfig::paper();
    let rows = retained.len();

    let mut expected = Vec::new();
    for (stage, dtype) in [
        (Stage::PvOut, DataType::Fp16),
        (Stage::FfnAct, DataType::Int8),
    ] {
        let gather = GatherStage::new(&config, stage, dtype, trace);
        let mut ws = StageWorkspace::new(&wl, trace);
        let width = stage.width(scaled);
        for layer in 0..2 {
            let ctx = LayerCtx {
                workload: &wl,
                layer,
                retained: &retained,
                positions: &positions,
            };
            let StageOutput::Gathered { .. } = gather.run(&ctx, &mut ws) else {
                panic!("gather stages always gather");
            };
            expected.push(KernelLaunch::SynthFill { rows, width });
            expected.push(match dtype {
                DataType::Fp16 => KernelLaunch::F16Round { rows, cols: width },
                DataType::Int8 => KernelLaunch::FakeQuantize { rows, cols: width },
            });
            expected.push(KernelLaunch::GatherScore { rows, width });
        }
    }
    assert_eq!(trace.take_launches(), expected);

    // Scatter replay is the fifth family; it dispatches through the
    // trait too.
    let partial = Matrix::zeros(2, 3);
    let map = SimilarityMap::new(vec![0, 1, 0], 2);
    scatter(&partial, &map, trace);
    assert_eq!(
        trace.take_launches(),
        vec![KernelLaunch::Scatter { rows: 3, cols: 3 }]
    );
}

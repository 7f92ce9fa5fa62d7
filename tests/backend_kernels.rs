//! The [`Backend`] contract, property-tested end to end:
//!
//! * **Bit-identity** — the `Simd` backend must match the `ScalarRef`
//!   oracle bit for bit on every kernel family (index-addressed compact
//!   norms and gather scoring over a contiguous tile, INT8 absmax and
//!   fake-quantise, FP16 rounding, scatter replay), across widths
//!   sweeping every SIMD tail length, pair counts sweeping the 8-pair
//!   group boundary, zero-norm rows and wide magnitude spreads. A whole
//!   measured pipeline run on either backend must therefore produce
//!   identical results.
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
use focus::tensor::math::{cosine_with_norms_chunked_scalar, dot_chunked_scalar};
use focus::tensor::ops::vector_ranges;
use focus::tensor::quant::fake_quantize_in_place;
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

/// A `rows × width` tile of pseudo-random rows, every fifth row zero
/// so the zero-norm conventions are exercised.
fn tile(rows: usize, width: usize, salt: usize, scale: f32) -> Matrix {
    let mut m = Matrix::zeros(rows, width);
    for r in (0..rows).filter(|r| r % 5 != 4) {
        m.row_mut(r)
            .copy_from_slice(&synth_values(width, salt + 7 * r + 1, scale));
    }
    m
}

/// Pseudo-random `(row, candidate)` probes into a `rows`-row tile.
fn probes(rows: usize, n: usize, salt: usize) -> Vec<(u32, u32)> {
    (0..n)
        .map(|p| {
            let a = (salt + p * 13) % rows;
            let b = (salt / 3 + p * 5) % rows;
            (a as u32, b as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Simd` ≡ `ScalarRef` bit for bit on the index-addressed gather
    /// kernels (`row_norms` over a subset of rows, `score_pairs` over
    /// `(row, candidate)` probes of one contiguous tile), for widths
    /// 8–96 including tails that are not a multiple of 8, pair counts
    /// across the 8-pair group boundary and zero-norm rows.
    #[test]
    fn gather_scoring_backends_are_bit_identical(
        width in 8usize..97,
        rows in 1usize..24,
        n_pairs in 0usize..40,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let m = tile(rows, width, salt, (exp as f32).exp2());
        let listed: Vec<u32> = (0..rows as u32)
            .filter(|r| !(r + salt as u32).is_multiple_of(3))
            .collect();
        let (s, f) = (scalar_ref(), simd());
        let mut scalar_norms = vec![-1.0f32; rows];
        s.row_norms(&m, &listed, &mut scalar_norms);
        let mut norms = vec![-1.0f32; rows];
        f.row_norms(&m, &listed, &mut norms);
        assert_bits_eq(&norms, &scalar_norms, "row_norms simd vs scalar");

        // Score over every row's norm.
        s.row_norms(&m, &(0..rows as u32).collect::<Vec<_>>(), &mut norms);
        let pairs = probes(rows, n_pairs, salt);
        let mut scalar = vec![0.0f32; n_pairs];
        s.score_pairs(&m, &pairs, &norms, &mut scalar);
        let mut dispatched = vec![0.0f32; n_pairs];
        f.score_pairs(&m, &pairs, &norms, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "score_pairs simd vs scalar");
        for &c in &scalar {
            prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of range");
        }
    }

    /// The batched index launches are bit-invisible: on both numeric
    /// backends every norm equals the one-row chunked norm and every
    /// score the one-pair chunked cosine, and rows left out of a norm
    /// launch keep their slots.
    #[test]
    fn pair_scoring_backends_are_bit_identical(
        width in 1usize..70,
        rows in 1usize..12,
        n_pairs in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let m = tile(rows, width, salt, (exp as f32).exp2());
        let pairs = probes(rows, n_pairs, salt);
        for backend in [scalar_ref(), simd()] {
            let mut norms = vec![-1.0f32; rows];
            backend.row_norms(&m, &(1..rows as u32).collect::<Vec<_>>(), &mut norms);
            prop_assert_eq!(norms[0], -1.0);
            backend.row_norms(&m, &[0], &mut norms);
            for (r, n) in norms.iter().enumerate() {
                prop_assert_eq!(n.to_bits(), dot_chunked_scalar(m.row(r), m.row(r)).sqrt().to_bits());
            }
            let mut scores = vec![0.0f32; n_pairs];
            backend.score_pairs(&m, &pairs, &norms, &mut scores);
            for (&(a, b), c) in pairs.iter().zip(&scores) {
                let (a, b) = (a as usize, b as usize);
                let one = cosine_with_norms_chunked_scalar(m.row(a), norms[a], m.row(b), norms[b]);
                prop_assert_eq!(c.to_bits(), one.to_bits());
            }
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the dtype conversions (INT8
    /// absmax + fake-quantise, FP16 rounding), and the tile-streamed
    /// INT8 path — each row's absmax folded column tile by column tile,
    /// then every tile quantised at that scale — reproduces the
    /// whole-row fake-quantise reference exactly.
    #[test]
    fn dtype_conversion_backends_are_bit_identical(
        rows in 1usize..8,
        cols in 1usize..70,
        tile_w in 1usize..40,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let m = Matrix::from_fn(rows, cols, |r, c| {
            synth_values(1, salt + r * 71 + c, scale)[0]
        });
        let mut reference = m.clone();
        fake_quantize_in_place(&mut reference);

        for backend in [scalar_ref(), simd()] {
            let mut absmax = vec![0.0f32; rows];
            let ranges = vector_ranges(cols, tile_w);
            for range in &ranges {
                let t = m.submatrix(0, rows, range.start, range.len());
                backend.row_absmax(&t, &mut absmax);
            }
            for range in &ranges {
                let mut t = m.submatrix(0, rows, range.start, range.len());
                backend.fake_quantize(&mut t, &absmax);
                let want = reference.submatrix(0, rows, range.start, range.len());
                assert_matrix_bits_eq(&t, &want, backend.name());
            }
        }

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
    let unit: Vec<f32> = (0..11).map(|i| (i == 3) as u32 as f32).collect();
    let m = Matrix::from_rows(&[vec![0.0f32; 11], unit]);
    for backend in [scalar_ref(), simd()] {
        let mut norms = [9.0f32; 2];
        backend.row_norms(&m, &[0, 1], &mut norms);
        let mut scores = [9.0f32; 2];
        backend.score_pairs(&m, &[(0, 0), (0, 1)], &norms, &mut scores);
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
/// sequence of a two-layer, two-stage walk of the fused stage — the
/// matrix-level gather record, then per m-tile (after an INT8 stage's
/// absmax sweep of synthesis fills) one synthesis fill and one dtype
/// conversion per column tile — all dispatched through the trait, in
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
    let row_tiles: Vec<usize> = vector_ranges(rows, config.tile_m)
        .iter()
        .map(|r| r.len())
        .collect();

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
            expected.push(KernelLaunch::GatherScore { rows, width });
            let col_tiles = vector_ranges(width, config.vector_len);
            for &tile_rows in &row_tiles {
                if dtype == DataType::Int8 {
                    for cols in &col_tiles {
                        expected.push(KernelLaunch::SynthFill {
                            rows: tile_rows,
                            width: cols.len(),
                        });
                    }
                }
                for cols in &col_tiles {
                    let (rows, width) = (tile_rows, cols.len());
                    expected.push(KernelLaunch::SynthFill { rows, width });
                    expected.push(match dtype {
                        DataType::Fp16 => KernelLaunch::F16Round { rows, cols: width },
                        DataType::Int8 => KernelLaunch::FakeQuantize { rows, cols: width },
                    });
                }
            }
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

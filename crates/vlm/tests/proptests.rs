//! Property tests for the workload substrate: determinism, structural
//! invariants of scenes/attention, and accuracy-model monotonicity.

use focus_tensor::backend;
use focus_vlm::accuracy::{coverage_stats, AccuracyModel, TokenOutcome};
use focus_vlm::dataset::DatasetProfile;
use focus_vlm::embedding::{ActivationSynthesizer, Stage, GROUP};
use focus_vlm::scene::{Scene, SceneConfig};
use focus_vlm::{DatasetKind, ModelKind, Prompt, Workload, WorkloadScale};
use proptest::prelude::*;

fn any_model() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::LlavaVideo7B),
        Just(ModelKind::LlavaOneVision7B),
        Just(ModelKind::MiniCpmV26),
        Just(ModelKind::Qwen25Vl7B),
    ]
}

fn any_dataset() -> impl Strategy<Value = DatasetKind> {
    prop_oneof![
        Just(DatasetKind::VideoMme),
        Just(DatasetKind::Mlvu),
        Just(DatasetKind::MvBench),
        Just(DatasetKind::Vqav2),
        Just(DatasetKind::Mme),
        Just(DatasetKind::MmBench),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scenes are fully deterministic in their configuration.
    #[test]
    fn scenes_are_deterministic(seed in 0u64..1000, model in any_model(), dataset in any_dataset()) {
        let profile = DatasetProfile::for_model(dataset, model);
        let cfg = SceneConfig {
            frames: 3,
            grid_h: 8,
            grid_w: 8,
            redundancy: profile.redundancy,
            seed,
        };
        let a = Scene::synthesize(cfg);
        let b = Scene::synthesize(cfg);
        for t in 0..a.token_count() {
            prop_assert_eq!(a.patch_by_index(t), b.patch_by_index(t));
        }
    }

    /// Every patch's epoch matches its frame's epoch, and epochs are
    /// non-decreasing over time.
    #[test]
    fn epochs_are_monotone(seed in 0u64..200) {
        let profile = DatasetProfile::for_model(DatasetKind::Mlvu, ModelKind::LlavaVideo7B);
        let scene = Scene::synthesize(SceneConfig {
            frames: 12,
            grid_h: 6,
            grid_w: 6,
            redundancy: profile.redundancy,
            seed,
        });
        for f in 1..12 {
            prop_assert!(scene.epoch_of_frame(f) >= scene.epoch_of_frame(f - 1));
            prop_assert!(scene.epoch_of_frame(f) <= scene.epoch_of_frame(f - 1) + 1);
        }
    }

    /// Activation synthesis is deterministic and width-consistent.
    #[test]
    fn activations_are_deterministic(seed in 0u64..100, layer in 0usize..28) {
        let profile = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        let scene = Scene::synthesize(SceneConfig {
            frames: 2,
            grid_h: 6,
            grid_w: 6,
            redundancy: profile.redundancy,
            seed,
        });
        let mut syn1 = ActivationSynthesizer::new(&scene, profile.redundancy, 28, seed);
        let mut syn2 = ActivationSynthesizer::new(&scene, profile.redundancy, 28, seed);
        let tokens: Vec<usize> = (0..scene.token_count()).collect();
        let a = syn1.activations(&tokens, layer, Stage::PvOut, 64);
        let b = syn2.activations(&tokens, layer, Stage::PvOut, 64);
        prop_assert_eq!(a, b);
    }

    /// A column-range fill of prepared rows is bitwise equal to the
    /// same columns of `token_row`, for any group-aligned range, any
    /// stage and both numeric backends — the fused gather streams the
    /// stage tile by tile through exactly this fill.
    #[test]
    fn column_range_fill_matches_token_row_columns(
        seed in 0u64..100,
        layer in 0usize..28,
        stage_index in 0usize..5,
        groups in 1usize..24,
        lo in 0usize..24,
        len in 0usize..24,
        backend_index in 0usize..2,
    ) {
        let stage = [
            Stage::Embedding,
            Stage::PvOut,
            Stage::OProjOut,
            Stage::FfnAct,
            Stage::FfnDownOut,
        ][stage_index];
        let backend = [backend::scalar_ref(), backend::simd()][backend_index];
        let profile = DatasetProfile::for_model(DatasetKind::Mlvu, ModelKind::LlavaVideo7B);
        let scene = Scene::synthesize(SceneConfig {
            frames: 2,
            grid_h: 5,
            grid_w: 5,
            redundancy: profile.redundancy,
            seed,
        });
        let width = groups * GROUP;
        let start = lo.min(groups) * GROUP;
        let cols = start..(start + len * GROUP).min(width);
        let tokens: Vec<usize> = (0..scene.token_count()).step_by(3).collect();
        let mut syn =
            ActivationSynthesizer::new(&scene, profile.redundancy, 28, seed).with_backend(backend);
        syn.prepare_rows(&tokens, layer, stage, width);
        let mut tile = vec![0.0f32; tokens.len() * cols.len()];
        syn.fill_columns(cols.clone(), |_| false, &mut tile);
        let mut row = vec![0.0f32; width];
        for (i, &t) in tokens.iter().enumerate() {
            syn.token_row(t, layer, stage, &mut row);
            let span = &tile[i * cols.len()..(i + 1) * cols.len()];
            for (got, want) in span.iter().zip(&row[cols.clone()]) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    /// Attention rows stay sub-normalised for any prompt target.
    #[test]
    fn attention_rows_are_probabilities(seed in 0u64..60, target in 0usize..3) {
        let wl = Workload::with_prompt(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            seed,
            Prompt::about_object(target),
        );
        let retained: Vec<usize> = (0..60).collect();
        let block = wl.attention_synthesizer().text_to_image_head(2, 0, &retained);
        for i in 0..block.rows() {
            let sum: f32 = block.row(i).iter().sum();
            prop_assert!(sum > 0.0 && sum <= 1.0 + 1e-4);
        }
    }

    /// The accuracy score is monotone in any single token's fidelity.
    #[test]
    fn accuracy_is_monotone_in_fidelity(
        fid_low in -1.0f64..1.0,
        bump in 0.0f64..0.5,
        rel in 0.01f64..1.0,
    ) {
        let model = AccuracyModel::default();
        let profile = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        let base = vec![
            TokenOutcome { relevance: 1.0, fidelity: 0.9 },
            TokenOutcome { relevance: rel, fidelity: fid_low },
        ];
        let mut better = base.clone();
        better[1].fidelity = (fid_low + bump).min(1.0);
        let s_base = model.score(&profile, ModelKind::LlavaVideo7B, &base);
        let s_better = model.score(&profile, ModelKind::LlavaVideo7B, &better);
        // Raising a *relevant* token's fidelity never hurts the penalty
        // term; the distractor bonus only applies below relevance 0.1,
        // where its slope (0.9/N) is far below the penalty slope.
        if rel >= 0.1 {
            prop_assert!(s_better + 1e-9 >= s_base, "{} vs {}", s_better, s_base);
        }
    }

    /// Coverage stats are bounded and exact on degenerate inputs.
    #[test]
    fn coverage_bounds(outs in proptest::collection::vec((0.0f64..1.0, -1.0f64..1.0), 0..40)) {
        let outcomes: Vec<TokenOutcome> = outs
            .iter()
            .map(|&(relevance, fidelity)| TokenOutcome { relevance, fidelity })
            .collect();
        let s = coverage_stats(&outcomes, 0.1);
        prop_assert!((-1.0..=1.0).contains(&s.coverage));
        prop_assert!((0.0..=2.0).contains(&s.irrelevant_removed));
    }

    /// Workload token accounting is consistent between scales.
    #[test]
    fn workload_token_accounting(seed in 0u64..50, model in any_model(), dataset in any_dataset()) {
        let wl = Workload::new(model, dataset, WorkloadScale::tiny(), seed);
        prop_assert_eq!(
            wl.sequence_full(),
            wl.image_tokens_full() + wl.text_tokens()
        );
        prop_assert!(wl.image_tokens_scaled() <= wl.image_tokens_full());
        let per_frame = wl.model().tokens_per_frame();
        prop_assert_eq!(wl.image_tokens_scaled() % per_frame, 0);
    }
}

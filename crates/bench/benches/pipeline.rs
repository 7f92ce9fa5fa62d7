//! Criterion benchmarks for the composed layers: matrix-level gather,
//! activation synthesis, the cycle engine, and the end-to-end pipeline
//! at test scale.

use criterion::{criterion_group, criterion_main, Criterion};
use focus_core::pipeline::FocusPipeline;
use focus_core::sic::{ConvLayouter, Fhw, GatherScratch, SimilarityConcentrator};
use focus_core::FocusConfig;
use focus_sim::{ArchConfig, Engine};
use focus_tensor::backend;
use focus_vlm::embedding::Stage;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

fn workload() -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        42,
    )
}

fn bench_gather_matrix(c: &mut Criterion) {
    let wl = workload();
    let tokens: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
    let mut syn = wl.activation_synthesizer();
    let acts = syn.activations(&tokens, 5, Stage::FfnDownOut, wl.scaled_model().hidden);
    let layouter = ConvLayouter::new(14, 14);
    let positions: Vec<Option<Fhw>> = tokens
        .iter()
        .map(|&t| Some(layouter.position_of(t)))
        .collect();
    let sic = SimilarityConcentrator::from_config(&FocusConfig::paper());
    let mut scratch = GatherScratch::new(&layouter);
    c.bench_function("pipeline/gather_matrix_784x128", |b| {
        b.iter(|| sic.gather_matrix(&acts, &positions, &mut scratch, None, backend::active()))
    });
}

fn bench_activation_synthesis(c: &mut Criterion) {
    let wl = workload();
    let tokens: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
    c.bench_function("pipeline/synthesize_activations_784x128", |b| {
        let mut syn = wl.activation_synthesizer();
        b.iter(|| syn.activations(&tokens, 5, Stage::OProjOut, wl.scaled_model().hidden))
    });
}

fn bench_engine(c: &mut Criterion) {
    let wl = workload();
    let result = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
    let engine = Engine::new(ArchConfig::focus());
    c.bench_function("pipeline/engine_196_items", |b| {
        b.iter(|| engine.run(&result.work_items))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let wl = workload();
    c.bench_function("pipeline/end_to_end_tiny", |b| {
        b.iter(|| FocusPipeline::paper().run(&wl, &ArchConfig::focus()))
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = bench_gather_matrix, bench_activation_synthesis, bench_engine, bench_end_to_end
}
criterion_main!(pipeline);

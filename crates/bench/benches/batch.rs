//! Measured-phase throughput: the serial-resynthesis oracle schedule
//! vs the task-graph execution engine, plus the sequential-vs-
//! `BatchRunner` comparison.
//!
//! * `batch/serial_*` vs `batch/runner_*` — one `FocusPipeline::run`
//!   after another vs one `BatchRunner` burst, on a batch of tiny
//!   workloads (both on the task-graph schedule).
//! * `measured/serial_resynthesis_fig09_grid` — the serial oracle
//!   phase: serial stage sweep, a fresh workspace (synthesiser, tile
//!   buffer, gather scratch) per fused gather call, one `Engine::new`
//!   per result after the fact.
//! * `measured/graph_batched_fig09_grid` — the task-graph schedule:
//!   every workload's `Sec`/`Gather`/`Fold`/`Lower` nodes (synthesis
//!   fused into the gather) on **one** work-stealing scheduler
//!   (depth 2), stages interleaving across request boundaries,
//!   simulation in the `Finish` nodes.
//! * `synthesis/activation_synthesis_fig09_grid` — activation
//!   synthesis alone (batched fixed-polynomial Box–Muller, whole
//!   matrices through `ActivationSynthesizer::activations`) over the
//!   exact measured-layer walk of the grid, isolating the formerly
//!   RNG-bound share of the measured phase.
//! * `synthesis/activation_synthesis_fig09_grid_scalar` — the same
//!   walk with the kernel's SIMD dispatch forced onto the chunked-
//!   scalar fallback (bit-identical values, only slower): the
//!   batched-vs-scalar comparison behind the snapshot's
//!   `synthesis_kernel_speedup`.
//! * `gather/fused_{fp16,int8}_fig09_cell0_{simd,scalar}` — the fused
//!   gather stages (tile-by-tile synthesis, dtype conversion, gather
//!   scoring) of one grid cell's first measured layer, on the
//!   dispatched backend vs the scalar oracle (bit-identical values).
//! * `service_throughput/staggered_fig09_grid` — the serving shape:
//!   the nine grid cells submitted one by one (mixed priorities, a
//!   small arrival gap) into the persistent `FocusService`, measured
//!   as jobs/sec against the batch-fused graph leg above, which
//!   submits the same cells as one burst.
//! * `stream/session_12_frames_window2` — the streaming shape: one
//!   `StreamSession` pushes 12 frames of one feed through a two-frame
//!   in-flight window (per-frame admission, blocking backpressure,
//!   warm scratch recycling), measured as frames/sec.
//! * `stream/temporal_12_frames_corr09` — cross-frame temporal
//!   concentration: the same feed as a correlation-0.9 scene stream
//!   with the per-session carry cache on, resolving provably
//!   bit-stable column tiles to carried representatives instead of
//!   re-scoring them. The snapshot records this leg at three
//!   correlations plus the isolated-frame baseline on the same stream
//!   (re-baseline v3, `temporal_*` fields).
//!
//! Under `cargo bench` (not `--test` smoke mode) the grid comparison
//! also writes a `BENCH_batch.json` throughput snapshot to the repo
//! root for the perf trajectory (schema-checked by
//! `tests/bench_snapshot_schema.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use focus_bench::{video_grid, EVAL_SEED};
use focus_core::exec::{
    BatchJob, BatchRunner, ConcentrationStage, ExecMode, FocusService, FrameHandle, GatherStage,
    JobHandle, LayerCtx, LayerExecutor, Priority, ServiceConfig, SessionStats, StageWorkspace,
    StreamConfig, StreamSession, THREADS_ENV,
};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_core::sic::{ConvLayouter, Fhw, TemporalCacheConfig};
use focus_core::FocusConfig;
use focus_sim::{ArchConfig, Engine, SimReport};
use focus_tensor::backend::{scalar_ref, simd, BackendHandle};
use focus_tensor::DataType;
use focus_vlm::embedding::{ActivationSynthesizer, Stage};
use focus_vlm::scene::SceneStream;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

const BATCH: u64 = 6;

fn workloads() -> Vec<Workload> {
    (0..BATCH)
        .map(|seed| {
            Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                seed,
            )
        })
        .collect()
}

/// The nine Fig. 9 grid cells at test scale (the acceptance workload).
fn fig09_grid_workloads() -> Vec<Workload> {
    video_grid()
        .into_iter()
        .map(|(m, d)| Workload::new(m, d, WorkloadScale::tiny(), EVAL_SEED))
        .collect()
}

/// The serial-resynthesis baseline: workloads batched across cores,
/// but every gather call resynthesises from scratch
/// (`ExecMode::Serial`), layers are barriers, and the cycle engine is
/// rebuilt and run **serially per result** after the batch.
fn serial_resynthesis(wls: &[Workload]) -> Vec<(PipelineResult, SimReport)> {
    let runner = BatchRunner::new(
        FocusPipeline::paper().with_exec_mode(ExecMode::Serial),
        ArchConfig::focus(),
    );
    runner
        .run_many(wls)
        .into_iter()
        .map(|r| {
            let rep = Engine::new(ArchConfig::focus()).run(&r.work_items);
            (r, rep)
        })
        .collect()
}

/// The task-graph measured phase: all workloads submitted as one
/// burst into the shared `FocusService`, cross-request interleaving
/// included. The schedule is **pinned** — every comparison leg in this
/// bench names its schedule, so a `FOCUS_EXEC_MODE` override
/// (honoured by `FocusPipeline::paper()` elsewhere) cannot silently
/// relabel what a leg measures or what the snapshot records.
fn graph_runner() -> BatchRunner {
    BatchRunner::new(
        FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }),
        ArchConfig::focus(),
    )
}

/// Arrival gap between staggered submissions: small against the ~100ms
/// of work per grid cell, large enough that requests genuinely arrive
/// one by one while earlier ones run.
const STAGGER: Duration = Duration::from_micros(500);

/// The serving leg: the grid cells submitted **one at a time** (mixed
/// priorities, `STAGGER` apart) into the persistent process-wide
/// [`FocusService`] — requests land while earlier ones are still in
/// flight, the streaming regime the batch-fused legs never exercise.
fn staggered_service(wls: &[Workload]) -> Vec<(PipelineResult, SimReport)> {
    let service = FocusService::global();
    let engine = Arc::new(Engine::new(ArchConfig::focus()));
    let priorities = [Priority::Normal, Priority::High, Priority::Low];
    let handles: Vec<JobHandle> = wls
        .iter()
        .enumerate()
        .map(|(i, wl)| {
            std::thread::sleep(STAGGER);
            let job = BatchJob {
                pipeline: FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
                    depth: ExecMode::DEFAULT_GRAPH_DEPTH,
                }),
                workload: wl.clone(),
                arch: ArchConfig::focus(),
            };
            service.submit_sim(job, Arc::clone(&engine), priorities[i % priorities.len()])
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            let (result, report) = h.wait_sim();
            (result, report.expect("engine attached"))
        })
        .collect()
}

/// Frames of the streaming leg: one feed (fixed model/dataset/scale),
/// per-frame scenes varying by seed — the session geometry stays
/// fixed, so warm state recycles across every admission.
const STREAM_FRAMES: u64 = 12;

/// The session's in-flight window (matches the default double-buffered
/// stream shape).
const STREAM_WINDOW: usize = 2;

fn stream_frame_workloads() -> Vec<Workload> {
    (0..STREAM_FRAMES)
        .map(|frame| {
            Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                EVAL_SEED + frame,
            )
        })
        .collect()
}

/// The streaming-session leg: one `StreamSession` against the global
/// service pushes `STREAM_FRAMES` frames of one feed through a
/// `STREAM_WINDOW`-deep in-flight window — per-frame admission with
/// backpressure and warm scratch recycling, the regime the batch legs
/// never exercise.
fn stream_session(wls: &[Workload]) -> Vec<PipelineResult> {
    let mut session = StreamSession::open(
        FocusService::global(),
        FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }),
        ArchConfig::focus(),
        StreamConfig {
            window: STREAM_WINDOW,
            priority: Priority::Normal,
            temporal: None,
        },
    );
    let handles: Vec<FrameHandle> = wls
        .iter()
        .map(|wl| session.push_frame(wl.clone()))
        .collect();
    handles.into_iter().map(FrameHandle::wait).collect()
}

/// Correlated-stream frames for the temporal legs: the same feed as a
/// scene stream at `correlation`, where consecutive frames of one
/// segment tile a single scene timeline (static content repeats
/// bit-for-bit) and cuts re-seed everything.
fn temporal_frame_workloads(correlation: f64) -> Vec<Workload> {
    (0..STREAM_FRAMES)
        .map(|frame| {
            Workload::stream_frame(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                SceneStream {
                    seed: EVAL_SEED,
                    correlation,
                },
                frame,
            )
        })
        .collect()
}

/// One streaming session over `wls` with cross-frame concentration on
/// (or off, `temporal: None` — the isolated-frame baseline on the same
/// stream). Window 1: temporal frames chain carry state and serialise
/// anyway. Returns the session's cumulative stats with the results.
fn temporal_session(
    wls: &[Workload],
    temporal: Option<TemporalCacheConfig>,
) -> (Vec<PipelineResult>, SessionStats) {
    let mut session = StreamSession::open(
        FocusService::global(),
        FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }),
        ArchConfig::focus(),
        StreamConfig {
            window: 1,
            priority: Priority::Normal,
            temporal,
        },
    );
    let handles: Vec<FrameHandle> = wls
        .iter()
        .map(|wl| session.push_frame(wl.clone()))
        .collect();
    let results = handles.into_iter().map(FrameHandle::wait).collect();
    session.flush();
    let stats = session.stats();
    (results, stats)
}

/// Every `(layer, retained)` pair of one workload whose gathers run.
type MeasuredWalk = Vec<(usize, Vec<usize>)>;

/// The measured-layer walk of one workload: every `(layer, retained)`
/// pair whose gathers actually run, captured once so the synthesis
/// bench replays exactly the gather nodes' inputs of the grid.
fn measured_walk(wl: &Workload) -> MeasuredWalk {
    let pipeline = FocusPipeline::paper().with_exec_mode(ExecMode::Serial);
    let exec = LayerExecutor::new(&pipeline, wl);
    let mut retained: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
    let mut walk = Vec::new();
    for layer in 0..exec.layers() {
        let record = exec.run_layer(layer, &mut retained);
        if record.measured {
            walk.push((layer, retained.clone()));
        }
    }
    walk
}

/// Synthesises every gather point's activations (whole matrices,
/// synthesis only) along one workload's measured walk.
fn synthesis_pass(wl: &Workload, walk: &MeasuredWalk, syn: &mut ActivationSynthesizer) {
    for (layer, retained) in walk {
        for stage in Stage::GATHER_POINTS {
            let width = stage.width(wl.scaled_model());
            criterion::black_box(syn.activations(retained, *layer, stage, width));
        }
    }
}

/// One workload's measured walk with per-layer gather positions
/// precomputed, so the staged passes below time kernels, not position
/// decoding.
type StagedWalk = Vec<(usize, Vec<usize>, Vec<Option<Fhw>>)>;

/// Measured walks with positions, the four gather stages and one
/// workspace set per workload.
type StagedFixture = (Vec<StagedWalk>, Vec<GatherStage>, Vec<Vec<StageWorkspace>>);

/// The backend-staged fixture, all pinned to an explicit kernel
/// `backend` (so a `FOCUS_BACKEND` override cannot relabel what a leg
/// measures) and `dtype`.
fn staged_fixture(wls: &[Workload], dtype: DataType, backend: BackendHandle) -> StagedFixture {
    let walks = wls
        .iter()
        .map(|wl| {
            let scaled = wl.scaled_model();
            let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
            measured_walk(wl)
                .into_iter()
                .map(|(layer, retained)| {
                    let positions = retained
                        .iter()
                        .map(|&t| Some(layouter.position_of(t)))
                        .collect();
                    (layer, retained, positions)
                })
                .collect()
        })
        .collect();
    let stages: Vec<GatherStage> = Stage::GATHER_POINTS
        .iter()
        .map(|&s| GatherStage::new(&FocusConfig::paper(), s, dtype, backend))
        .collect();
    let ws = wls
        .iter()
        .map(|wl| {
            stages
                .iter()
                .map(|_| StageWorkspace::new(wl, backend))
                .collect()
        })
        .collect();
    (walks, stages, ws)
}

/// Runs the fused gather stages (tile-by-tile synthesis, dtype
/// conversion, gather scoring) of the given measured layers of each
/// workload.
fn fused_pass(
    wls: &[Workload],
    walks: &[StagedWalk],
    layers: usize,
    stages: &[GatherStage],
    ws: &mut [Vec<StageWorkspace>],
) {
    for ((wl, walk), ws) in wls.iter().zip(walks).zip(ws.iter_mut()) {
        for (layer, retained, positions) in walk.iter().take(layers) {
            for (si, stage) in stages.iter().enumerate() {
                let ctx = LayerCtx {
                    workload: wl,
                    layer: *layer,
                    retained,
                    positions,
                };
                criterion::black_box(stage.run(&ctx, &mut ws[si]));
            }
        }
    }
}

/// Wall time of one fused walk over every workload's measured layers.
fn timed_fused_pass(wls: &[Workload], (walks, stages, ws): &mut StagedFixture) -> Duration {
    let t = Instant::now();
    fused_pass(wls, walks, usize::MAX, stages, ws);
    t.elapsed()
}

fn bench_serial(c: &mut Criterion) {
    let wls = workloads();
    let pipeline = FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
        depth: ExecMode::DEFAULT_GRAPH_DEPTH,
    });
    let arch = ArchConfig::focus();
    c.bench_function("batch/serial_6_tiny_pipelines", |b| {
        b.iter(|| {
            wls.iter()
                .map(|wl| pipeline.run(wl, &arch))
                .collect::<Vec<PipelineResult>>()
        })
    });
}

fn bench_batch_runner(c: &mut Criterion) {
    let wls = workloads();
    let runner = graph_runner();
    c.bench_function("batch/runner_6_tiny_pipelines", |b| {
        b.iter(|| runner.run_many(&wls))
    });
}

fn bench_measured_old(c: &mut Criterion) {
    let wls = fig09_grid_workloads();
    c.bench_function("measured/serial_resynthesis_fig09_grid", |b| {
        b.iter(|| serial_resynthesis(&wls))
    });
}

fn bench_measured_graph(c: &mut Criterion) {
    let wls = fig09_grid_workloads();
    let runner = graph_runner();
    c.bench_function("measured/graph_batched_fig09_grid", |b| {
        b.iter(|| runner.run_many_sim(&wls))
    });
}

fn bench_service_throughput(c: &mut Criterion) {
    let wls = fig09_grid_workloads();
    c.bench_function("service_throughput/staggered_fig09_grid", |b| {
        b.iter(|| staggered_service(&wls))
    });
}

fn bench_stream_session(c: &mut Criterion) {
    let wls = stream_frame_workloads();
    c.bench_function("stream/session_12_frames_window2", |b| {
        b.iter(|| stream_session(&wls))
    });
}

fn bench_temporal_stream(c: &mut Criterion) {
    let wls = temporal_frame_workloads(0.9);
    c.bench_function("stream/temporal_12_frames_corr09", |b| {
        b.iter(|| temporal_session(&wls, Some(TemporalCacheConfig::default())).0)
    });
}

/// The synthesis-only fixture: the grid's measured walks and one
/// synthesiser per workload. One constructor serves both the criterion
/// leg and the snapshot so they can never drift apart.
fn synthesis_fixture(wls: &[Workload]) -> (Vec<MeasuredWalk>, Vec<ActivationSynthesizer>) {
    let walks = wls.iter().map(measured_walk).collect();
    let backend = focus_core::obs::kernel_backend();
    let syns = wls
        .iter()
        .map(|wl| wl.activation_synthesizer_on(backend))
        .collect();
    (walks, syns)
}

fn bench_synthesis(c: &mut Criterion) {
    let wls = fig09_grid_workloads();
    let (walks, mut syns) = synthesis_fixture(&wls);
    c.bench_function("synthesis/activation_synthesis_fig09_grid", |b| {
        b.iter(|| {
            for ((wl, walk), syn) in wls.iter().zip(&walks).zip(syns.iter_mut()) {
                synthesis_pass(wl, walk, syn);
            }
        })
    });
    // The same synthesis on the kernel's chunked-scalar fallback —
    // values are bit-identical (proptest-enforced), so the pair
    // measures exactly the SIMD dispatch win and nothing else.
    focus_tensor::math::force_scalar(true);
    c.bench_function("synthesis/activation_synthesis_fig09_grid_scalar", |b| {
        b.iter(|| {
            for ((wl, walk), syn) in wls.iter().zip(&walks).zip(syns.iter_mut()) {
                synthesis_pass(wl, walk, syn);
            }
        })
    });
    focus_tensor::math::force_scalar(false);
}

/// The backend-kernel micro legs, paired dispatched-vs-scalar: the
/// fused gather stages of one grid cell's first measured layer, at both
/// precisions. Values are bit-identical across the pair
/// (proptest-enforced), so each pair measures exactly the SIMD dispatch
/// win.
fn bench_backend_kernels(c: &mut Criterion) {
    let wls = fig09_grid_workloads();
    let cell = std::slice::from_ref(&wls[0]);
    for (name, backend) in [("simd", simd()), ("scalar", scalar_ref())] {
        for (dtype, label) in [(DataType::Fp16, "fp16"), (DataType::Int8, "int8")] {
            let (walks, stages, mut ws) = staged_fixture(cell, dtype, backend);
            c.bench_function(&format!("gather/fused_{label}_fig09_cell0_{name}"), |b| {
                b.iter(|| fused_pass(cell, &walks, 1, &stages, &mut ws))
            });
        }
    }
}

criterion_group! {
    name = batch;
    config = Criterion::default().sample_size(10);
    targets = bench_serial, bench_batch_runner, bench_measured_old, bench_measured_graph, bench_service_throughput, bench_stream_session,
        bench_temporal_stream, bench_synthesis, bench_backend_kernels
}

fn median_secs(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

/// Times the fig09-grid comparison directly and writes the throughput
/// snapshot the perf trajectory tracks. (The criterion shim does not
/// expose its collected samples, so the snapshot takes a few of its
/// own — kept to 3 to bound the duplicate work; the processes are
/// already warm from the criterion pass.)
///
/// Synthesis fields (re-baseline v2, batched kernel): `synthesis_only_s`
/// is the synthesis-only leg on the kernel's chunked-scalar fallback,
/// `synthesis_batched_s` the same leg under the default SIMD dispatch
/// (the one the pipeline actually runs — `synthesis_share` uses it),
/// and `synthesis_kernel_speedup` their ratio.
///
/// Backend-kernel fields (`Backend`-dispatched stage kernels):
/// `gather_phase_s`/`gather_phase_scalar_s` time the fused FP16 gather
/// stages (tile-by-tile synthesis, rounding and scoring) along the
/// grid's measured walks on the dispatched `simd` backend vs the
/// `scalar` oracle (bit-identical values), and `gather_kernel_speedup`
/// is their ratio; `gather_share` is the fused walk's share left after
/// subtracting the synthesis-only leg (`1 - synthesis_batched_s /
/// gather_phase_s`). `quantize_phase_s`/`quantize_phase_scalar_s`/
/// `quantize_kernel_speedup` are the same comparison for the fused
/// INT8 stages (absmax sweep plus per-tile fake-quantise).
///
/// Observability field (PR 10, `focus_core::obs`): `obs_overhead_pct`
/// re-runs the graph leg with span tracing **on** (Timed kernel
/// backend + per-node span recording) and records the median overhead
/// as a percentage of the untraced leg. Gated `< 2%` by the schema
/// test; small negative values are machine noise and fine.
///
/// `main` forces a pool of ≥ 2 workers before any leg runs: the
/// cross-layer and cross-request overlap of the graph/service
/// schedules only pays with real concurrency, and the acceptance
/// tracking compares them under ≥ 2 threads.
fn write_snapshot() {
    const SAMPLES: usize = 3;
    let wls = fig09_grid_workloads();
    // The traced twin of the graph leg: constructed while span
    // recording is on, so `obs::kernel_backend()` hands its pipeline
    // the `Timed` wrapper — exactly what a `FOCUS_TRACE=spans` run
    // sees. Recording stays off until this leg's samples run.
    focus_core::obs::spans::set_enabled(true);
    let traced_graph_runner = graph_runner();
    focus_core::obs::spans::set_enabled(false);
    let graph_runner = graph_runner();
    let (walks, mut syns) = synthesis_fixture(&wls);
    // Backend-staged fixtures for the fused-stage comparison:
    // dispatched (`simd`) vs the `scalar` oracle, at both precisions.
    let mut fp16 = staged_fixture(&wls, DataType::Fp16, simd());
    let mut fp16_sc = staged_fixture(&wls, DataType::Fp16, scalar_ref());
    let mut int8 = staged_fixture(&wls, DataType::Int8, simd());
    let mut int8_sc = staged_fixture(&wls, DataType::Int8, scalar_ref());

    let stream_wls = stream_frame_workloads();
    const TEMPORAL_CORRS: [f64; 3] = [0.0, 0.5, 0.9];
    let temporal_wls: Vec<Vec<Workload>> = TEMPORAL_CORRS
        .iter()
        .map(|&c| temporal_frame_workloads(c))
        .collect();

    let mut old = Vec::with_capacity(SAMPLES);
    let mut graph = Vec::with_capacity(SAMPLES);
    let mut graph_traced = Vec::with_capacity(SAMPLES);
    let mut service = Vec::with_capacity(SAMPLES);
    let mut stream = Vec::with_capacity(SAMPLES);
    let mut temporal: [Vec<Duration>; 3] = [(); 3].map(|_| Vec::with_capacity(SAMPLES));
    let mut temporal_isolated = Vec::with_capacity(SAMPLES);
    let mut temporal_stats = [SessionStats::default(); 3];
    let mut synth = Vec::with_capacity(SAMPLES);
    let mut synth_scalar = Vec::with_capacity(SAMPLES);
    let mut gather_fast = Vec::with_capacity(SAMPLES);
    let mut gather_scalar = Vec::with_capacity(SAMPLES);
    let mut quant_fast = Vec::with_capacity(SAMPLES);
    let mut quant_scalar = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        criterion::black_box(serial_resynthesis(&wls));
        old.push(t.elapsed());
        let t = Instant::now();
        criterion::black_box(graph_runner.run_many_sim(&wls));
        graph.push(t.elapsed());
        // The same graph leg with span tracing live: per-node span
        // records into the rings plus the Timed kernel wrapper. The
        // pair bounds the observability tax (`obs_overhead_pct`).
        focus_core::obs::spans::set_enabled(true);
        let t = Instant::now();
        criterion::black_box(traced_graph_runner.run_many_sim(&wls));
        graph_traced.push(t.elapsed());
        focus_core::obs::spans::set_enabled(false);
        let t = Instant::now();
        criterion::black_box(staggered_service(&wls));
        service.push(t.elapsed());
        let t = Instant::now();
        criterion::black_box(stream_session(&stream_wls));
        stream.push(t.elapsed());
        // Cross-frame temporal concentration at three correlations,
        // plus the isolated-frame baseline on the *same* corr-0.9
        // stream (the only pair the fps comparison is meaningful for).
        for (i, wls) in temporal_wls.iter().enumerate() {
            let t = Instant::now();
            let (results, stats) = temporal_session(wls, Some(TemporalCacheConfig::default()));
            criterion::black_box(results);
            temporal[i].push(t.elapsed());
            temporal_stats[i] = stats; // deterministic across samples
        }
        let t = Instant::now();
        criterion::black_box(temporal_session(&temporal_wls[2], None));
        temporal_isolated.push(t.elapsed());
        let t = Instant::now();
        for ((wl, walk), syn) in wls.iter().zip(&walks).zip(syns.iter_mut()) {
            synthesis_pass(wl, walk, syn);
        }
        synth.push(t.elapsed());
        // The identical synthesis on the chunked-scalar fallback: the
        // batched-vs-scalar kernel comparison.
        focus_tensor::math::force_scalar(true);
        let t = Instant::now();
        for ((wl, walk), syn) in wls.iter().zip(&walks).zip(syns.iter_mut()) {
            synthesis_pass(wl, walk, syn);
        }
        synth_scalar.push(t.elapsed());
        focus_tensor::math::force_scalar(false);
        // Fused-stage times on the dispatched backend vs the scalar
        // oracle, at both precisions.
        gather_fast.push(timed_fused_pass(&wls, &mut fp16));
        gather_scalar.push(timed_fused_pass(&wls, &mut fp16_sc));
        quant_fast.push(timed_fused_pass(&wls, &mut int8));
        quant_scalar.push(timed_fused_pass(&wls, &mut int8_sc));
    }
    // The obs pair alone gets extra interleaved samples: the overhead
    // under test (~1%) is an order of magnitude below this machine's
    // single-run noise (±5–15%), so only a pool of adjacent pairs
    // separates the two reliably. Within-pair order ALTERNATES —
    // traced-second on even iterations, traced-first on odd — so any
    // monotone drift inside a pair (frequency scaling, cache warmth)
    // biases half the ratios up and half down and cancels in the
    // median. The extra untraced runs also feed the (median) graph
    // leg, which is strictly more data.
    const OBS_SAMPLES: usize = 13;
    for i in SAMPLES..OBS_SAMPLES {
        let run_untraced = |samples: &mut Vec<Duration>| {
            let t = Instant::now();
            criterion::black_box(graph_runner.run_many_sim(&wls));
            samples.push(t.elapsed());
        };
        let run_traced = |samples: &mut Vec<Duration>| {
            focus_core::obs::spans::set_enabled(true);
            let t = Instant::now();
            criterion::black_box(traced_graph_runner.run_many_sim(&wls));
            samples.push(t.elapsed());
            focus_core::obs::spans::set_enabled(false);
        };
        if i % 2 == 0 {
            run_untraced(&mut graph);
            run_traced(&mut graph_traced);
        } else {
            run_traced(&mut graph_traced);
            run_untraced(&mut graph);
        }
    }
    // The observability tax, from PAIRED ratios: each traced run is
    // divided by the untraced run adjacent to it in the loop, and the
    // median of those ratios is the estimate. Single-run noise on this
    // class of machine is ±5–15% — an order of magnitude above the
    // ~1% overhead under test — but adjacent runs share machine
    // conditions, so the ratio cancels the drift. Computed before
    // `median_secs` sorts the sample vectors (sorting destroys the
    // pairing). Slightly negative values are noise.
    let mut obs_ratios: Vec<f64> = graph_traced
        .iter()
        .zip(&graph)
        .map(|(t, u)| t.as_secs_f64() / u.as_secs_f64())
        .collect();
    obs_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let obs_overhead_pct = 100.0 * (obs_ratios[obs_ratios.len() / 2] - 1.0);
    let old_s = median_secs(&mut old);
    let (graph_s, synth_s) = (median_secs(&mut graph), median_secs(&mut synth));
    let graph_traced_s = median_secs(&mut graph_traced);
    let synth_scalar_s = median_secs(&mut synth_scalar);
    let synthesis_kernel_speedup = synth_scalar_s / synth_s;
    let gather_phase_s = median_secs(&mut gather_fast);
    let gather_phase_scalar_s = median_secs(&mut gather_scalar);
    let gather_kernel_speedup = gather_phase_scalar_s / gather_phase_s;
    // The fused walk's share beyond synthesis alone, both on the
    // dispatched backend.
    let gather_share = 1.0 - synth_s / gather_phase_s;
    let quantize_phase_s = median_secs(&mut quant_fast);
    let quantize_phase_scalar_s = median_secs(&mut quant_scalar);
    let quantize_kernel_speedup = quantize_phase_scalar_s / quantize_phase_s;
    let service_s = median_secs(&mut service);
    let stream_s = median_secs(&mut stream);
    let graph_vs_serial = old_s / graph_s;
    let service_jobs_per_s = wls.len() as f64 / service_s;
    let stream_frames_per_s = STREAM_FRAMES as f64 / stream_s;
    let [t00, t05, t09] = temporal.map(|mut s| STREAM_FRAMES as f64 / median_secs(&mut s));
    let temporal_isolated_frames_per_s = STREAM_FRAMES as f64 / median_secs(&mut temporal_isolated);
    let hit_rate = |s: &SessionStats| {
        let probes = s.temporal_hits + s.temporal_misses;
        if probes == 0 {
            0.0
        } else {
            s.temporal_hits as f64 / probes as f64
        }
    };
    let [h00, h05, h09] = [
        hit_rate(&temporal_stats[0]),
        hit_rate(&temporal_stats[1]),
        hit_rate(&temporal_stats[2]),
    ];
    let temporal_skipped_c09 = temporal_stats[2].gathers_skipped;
    // Service counters read **through the unified metrics registry**
    // (`FocusService::snapshot()` — the same keys `stats()` itself is
    // derived from), so the snapshot file and the registry naming can
    // never drift apart. Cumulative fair-queue service per class
    // across every leg above: the staggered leg cycles all three
    // priorities and the stream leg runs Normal, so all three
    // counters are live.
    let service_snap = FocusService::global().snapshot();
    let service_workers = service_snap.u64("service.workers");
    let [served_high, served_normal, served_low] = [
        service_snap.u64("service.served.high"),
        service_snap.u64("service.served.normal"),
        service_snap.u64("service.served.low"),
    ];
    let json = format!(
        "{{\n  \"bench\": \"measured_phase_fig09_grid_tiny\",\n  \"cells\": {},\n  \"threads\": {},\n  \"serial_resynthesis_s\": {:.6},\n  \"graph_batched_s\": {:.6},\n  \"graph_traced_s\": {:.6},\n  \"obs_overhead_pct\": {:.3},\n  \"service_staggered_s\": {:.6},\n  \"service_jobs_per_s\": {:.3},\n  \"service_workers\": {},\n  \"stream_session_s\": {:.6},\n  \"stream_frames\": {},\n  \"stream_window\": {},\n  \"stream_frames_per_s\": {:.3},\n  \"temporal_frames_per_s_c00\": {:.3},\n  \"temporal_frames_per_s_c05\": {:.3},\n  \"temporal_frames_per_s_c09\": {:.3},\n  \"temporal_isolated_frames_per_s\": {:.3},\n  \"temporal_hit_rate_c00\": {:.4},\n  \"temporal_hit_rate_c05\": {:.4},\n  \"temporal_hit_rate_c09\": {:.4},\n  \"temporal_gathers_skipped_c09\": {},\n  \"fair_served_high\": {},\n  \"fair_served_normal\": {},\n  \"fair_served_low\": {},\n  \"synthesis_only_s\": {:.6},\n  \"synthesis_batched_s\": {:.6},\n  \"synthesis_kernel_speedup\": {:.3},\n  \"gather_phase_s\": {:.6},\n  \"gather_phase_scalar_s\": {:.6},\n  \"gather_kernel_speedup\": {:.3},\n  \"gather_share\": {:.4},\n  \"quantize_phase_s\": {:.6},\n  \"quantize_phase_scalar_s\": {:.6},\n  \"quantize_kernel_speedup\": {:.3},\n  \"graph_vs_serial\": {:.3},\n  \"synthesis_share\": {:.3}\n}}\n",
        wls.len(),
        ServiceConfig::default().threads,
        old_s,
        graph_s,
        graph_traced_s,
        obs_overhead_pct,
        service_s,
        service_jobs_per_s,
        service_workers,
        stream_s,
        STREAM_FRAMES,
        STREAM_WINDOW,
        stream_frames_per_s,
        t00,
        t05,
        t09,
        temporal_isolated_frames_per_s,
        h00,
        h05,
        h09,
        temporal_skipped_c09,
        served_high,
        served_normal,
        served_low,
        synth_scalar_s,
        synth_s,
        synthesis_kernel_speedup,
        gather_phase_s,
        gather_phase_scalar_s,
        gather_kernel_speedup,
        gather_share,
        quantize_phase_s,
        quantize_phase_scalar_s,
        quantize_kernel_speedup,
        graph_vs_serial,
        synth_s / graph_s,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nBENCH_batch.json snapshot: graph vs serial {graph_vs_serial:.2}x, \
             kernel batched vs scalar {synthesis_kernel_speedup:.2}x, \
             gather kernel {gather_kernel_speedup:.2}x, \
             quantize kernel {quantize_kernel_speedup:.2}x, \
             obs overhead {obs_overhead_pct:.2}%, \
             service {service_jobs_per_s:.1} jobs/s, \
             stream {stream_frames_per_s:.1} frames/s, \
             temporal c0.9 {t09:.1} vs isolated \
             {temporal_isolated_frames_per_s:.1} frames/s \
             (hit rate {h09:.3})\n{json}"
        ),
        Err(e) => eprintln!("could not write BENCH_batch.json: {e}"),
    }
}

fn main() {
    if !criterion::running_under_cargo_bench() {
        // `cargo test` executes harness-less bench targets; skip the
        // actual measurement there.
        println!("(criterion shim: skipping benchmarks outside `cargo bench`)");
        return;
    }
    // Force a pool of ≥ 2 workers *before* the first bench touches the
    // global `FocusService` (its width is fixed at first use): the
    // cross-layer and cross-request overlap only pays with real
    // concurrency, and the snapshot tracks it under ≥ 2 threads.
    if ServiceConfig::default().threads < 2 {
        std::env::set_var(THREADS_ENV, "2");
    }
    batch();
    if !criterion::running_in_test_mode() {
        write_snapshot();
    }
}

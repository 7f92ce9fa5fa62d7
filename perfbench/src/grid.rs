//! `grid`: the Fig. 9 reproduction as `fig09_speedup_energy` runs it —
//! the nine (model × video dataset) cells at evaluation scale, all six
//! methods per cell through `focus_bench`'s run functions, fanned out by
//! one `par_map` — as a closed loop of full passes.
//!
//! Untraced passes call exactly the binary's functions. Traced passes
//! make the same public calls one level down (baseline `run`,
//! `FocusPipeline::run`, `Engine::run`, the GPU model) with a timer
//! around each, and must reproduce the untraced outcomes bit for bit.

use std::time::Instant;

use focus_baselines::{
    AdaptivBaseline, CmcBaseline, Concentrator, DenseBaseline, FrameFusionBaseline,
};
use focus_bench::{
    adaptiv_engine, cmc_engine, eval_scale, focus_engine, run_adaptiv, run_cmc, run_dense,
    run_focus, run_gpu, run_gpu_framefusion, vanilla_engine, video_grid, MethodOutcome,
};
use focus_core::exec::{node_inventory, par_map, ExecMode, FocusService, ServiceConfig};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_sim::{ArchConfig, GpuModel, SimReport};
use focus_vlm::Workload;

use crate::claims::{self, Cost, METHODS, OURS};
use crate::fold::{Capture, Ledger};
use crate::stats::{median, tail};
use crate::{repeat_setup, Ctx};

type MethodFn = fn(&Workload) -> MethodOutcome;

/// The binary's method table, in [`METHODS`] order.
const METHOD_FNS: [MethodFn; 6] = [
    run_dense,
    run_gpu,
    run_adaptiv,
    run_cmc,
    run_gpu_framefusion,
    run_focus,
];

/// Per-layer timer names of the baseline methods, in [`METHODS`] order
/// (Ours is timed as `pipeline.run`).
const BASELINE_TIMERS: [&str; 5] = [
    "baselines.dense.busy_s",
    "baselines.gpu.busy_s",
    "baselines.adaptiv.busy_s",
    "baselines.cmc.busy_s",
    "baselines.framefusion.busy_s",
];

/// One method run on one cell.
struct Op {
    outcome: MethodOutcome,
    /// Wall time of the call, in ms.
    ms: f64,
}

/// One method run on one cell with outside timers around each public
/// call.
struct TimedOp {
    outcome: MethodOutcome,
    focus: Option<PipelineResult>,
    baseline_s: f64,
    pipeline_s: f64,
    engine_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Every `(method, cell)` pair, methods outermost, as the binary orders
/// them.
fn pairs(cells: usize) -> Vec<(usize, usize)> {
    (0..METHODS.len())
        .flat_map(|m| (0..cells).map(move |c| (m, c)))
        .collect()
}

/// One untraced pass, exactly as the binary runs it.
fn pass(workloads: &[Workload]) -> Vec<Op> {
    par_map(&pairs(workloads.len()), |&(m, c)| {
        let t = Instant::now();
        let outcome = METHOD_FNS[m](&workloads[c]);
        Op {
            outcome,
            ms: secs(t) * 1e3,
        }
    })
}

/// The outcome record of a method whose trace the cycle simulator ran.
fn simulated(name: &'static str, sparsity: f64, accuracy: f64, rep: SimReport) -> MethodOutcome {
    MethodOutcome {
        name,
        seconds: rep.seconds,
        energy_j: rep.energy.total_j(),
        sparsity,
        accuracy,
        report: Some(rep),
    }
}

/// One method on one cell, through the same public calls as
/// [`METHOD_FNS`], timed per call.
fn timed_op(m: usize, wl: &Workload) -> TimedOp {
    let t = Instant::now();
    match m {
        0 | 2 | 3 => {
            let (name, r, engine) = match m {
                0 => (
                    "SA",
                    DenseBaseline.run(wl, &ArchConfig::vanilla()),
                    vanilla_engine(),
                ),
                2 => (
                    "Adaptiv",
                    AdaptivBaseline::default().run(wl, &ArchConfig::adaptiv()),
                    adaptiv_engine(),
                ),
                _ => (
                    "CMC",
                    CmcBaseline::default().run(wl, &ArchConfig::cmc()),
                    cmc_engine(),
                ),
            };
            let baseline_s = secs(t);
            let t = Instant::now();
            let rep = engine.run(&r.work_items);
            TimedOp {
                outcome: simulated(name, r.sparsity(), r.accuracy, rep),
                focus: None,
                baseline_s,
                pipeline_s: 0.0,
                engine_s: secs(t),
            }
        }
        1 | 4 => {
            // The edge-GPU methods: a token-level baseline plus the
            // analytic GPU model, both timed as the baseline.
            let (name, r) = if m == 1 {
                ("GPU", DenseBaseline.run(wl, &ArchConfig::vanilla()))
            } else {
                (
                    "GPU + FF",
                    FrameFusionBaseline::default().run(wl, &ArchConfig::vanilla()),
                )
            };
            let bytes = r.dram_bytes() / 4;
            let gpu = GpuModel::orin_nano();
            let rep = if m == 1 {
                gpu.run_dense(r.macs, bytes)
            } else {
                gpu.run_pruned(r.macs, bytes)
            };
            TimedOp {
                outcome: MethodOutcome {
                    name,
                    seconds: rep.seconds,
                    energy_j: rep.energy_j,
                    sparsity: if m == 1 { 0.0 } else { r.sparsity() },
                    accuracy: r.accuracy,
                    report: None,
                },
                focus: None,
                baseline_s: secs(t),
                pipeline_s: 0.0,
                engine_s: 0.0,
            }
        }
        _ => {
            let r = FocusPipeline::paper().run(wl, &ArchConfig::focus());
            let pipeline_s = secs(t);
            let t = Instant::now();
            let rep = focus_engine().run(&r.work_items);
            TimedOp {
                outcome: simulated("Ours", r.sparsity(), r.accuracy, rep),
                focus: Some(r),
                baseline_s: 0.0,
                pipeline_s,
                engine_s: secs(t),
            }
        }
    }
}

/// Bitwise equality of two outcomes.
fn same_outcome(a: &MethodOutcome, b: &MethodOutcome) -> bool {
    a.name == b.name
        && a.seconds.to_bits() == b.seconds.to_bits()
        && a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.sparsity.to_bits() == b.sparsity.to_bits()
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.report == b.report
}

/// Bitwise equality of the parts of two Focus results a user reads.
pub fn same_result(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.sparsity().to_bits() == b.sparsity().to_bits()
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.work_items == b.work_items
        && a.layers == b.layers
        && a.sec_layers == b.sec_layers
        && a.outcomes == b.outcomes
        && (a.sic_comparisons, a.sic_matches) == (b.sic_comparisons, b.sic_matches)
}

/// SEC and SIC work counters of a set of Focus results.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkCounts {
    /// Tokens entering SEC pruning steps.
    pub tokens_in: u64,
    /// Tokens SEC kept.
    pub tokens_kept: u64,
    /// SIC candidate comparisons.
    pub comparisons: u64,
    /// SIC matches.
    pub matches: u64,
}

impl WorkCounts {
    /// Adds one result's counters.
    pub fn add(&mut self, r: &PipelineResult) {
        for s in &r.sec_layers {
            self.tokens_in += s.candidates as u64;
            self.tokens_kept += s.kept as u64;
        }
        self.comparisons += r.sic_comparisons;
        self.matches += r.sic_matches;
    }

    /// Publishes `sec.*` and `sic.*`.
    pub fn publish(&self, ctx: &mut Ctx) {
        let m = &mut ctx.metrics;
        m.set("sec.tokens_in", self.tokens_in as f64);
        m.set("sec.tokens_kept", self.tokens_kept as f64);
        m.set("sic.comparisons", self.comparisons as f64);
        m.set("sic.matches", self.matches as f64);
        if self.comparisons > 0 {
            m.set(
                "sic.match_ratio",
                self.matches as f64 / self.comparisons as f64,
            );
        }
    }
}

/// The simulator's counters for the Focus cells of one pass.
fn publish_sim(ctx: &mut Ctx, reports: &[&SimReport]) {
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let bound: u64 = reports.iter().map(|r| r.memory_bound_cycles).sum();
    let m = &mut ctx.metrics;
    m.set("sim.cycles", cycles as f64);
    m.set(
        "sim.dram_bytes",
        reports.iter().map(|r| r.dram_total_bytes()).sum::<u64>() as f64,
    );
    m.set(
        "sim.energy_j",
        reports.iter().map(|r| r.energy.total_j()).sum::<f64>(),
    );
    m.set(
        "sim.utilization",
        reports.iter().map(|r| r.avg_utilization).sum::<f64>() / reports.len() as f64,
    );
    m.set("sim.memory_bound_share", bound as f64 / cycles as f64);
}

/// `paper_error_pct` of one pass's outcomes (cells × methods).
fn paper_error(outcomes: &[MethodOutcome], cells: usize) -> f64 {
    let rows: Vec<[Cost; 6]> = (0..cells)
        .map(|c| {
            std::array::from_fn(|m| {
                let o = &outcomes[m * cells + c];
                Cost {
                    seconds: o.seconds,
                    energy_j: o.energy_j,
                }
            })
        })
        .collect();
    claims::paper_error_pct(&rows)
}

/// The grid's set-up: its inputs, the shared engines the run functions
/// borrow, and a warm-up of every method on the first cell. Returns the
/// workloads and the median µs to build one.
fn setup(seed: u64) -> (Vec<Workload>, f64) {
    let mut build_us = Vec::new();
    let workloads: Vec<Workload> = video_grid()
        .into_iter()
        .map(|(m, d)| {
            let t = Instant::now();
            let wl = Workload::new(m, d, eval_scale(), seed);
            build_us.push(secs(t) * 1e6);
            wl
        })
        .collect();
    let _ = (
        focus_engine(),
        vanilla_engine(),
        adaptiv_engine(),
        cmc_engine(),
    );
    for method in METHOD_FNS {
        std::hint::black_box(method(&workloads[0]));
    }
    (workloads, median(&build_us))
}

/// Figures collected over the traced passes.
#[derive(Default)]
struct Traced {
    /// Per pass: busy seconds per baseline timer, then `pipeline.run`,
    /// then `sim.engine`.
    timers: Vec<[f64; BASELINE_TIMERS.len() + 2]>,
    counts: Option<WorkCounts>,
    ledger: Ledger,
}

/// Runs the `grid` workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let mut build_us = Vec::new();
    let workloads = repeat_setup(ctx, || {
        let (workloads, us) = setup(seed);
        build_us.push(us);
        workloads
    });
    let cells = workloads.len();
    ctx.metrics.set("vlm.workload_build_us", median(&build_us));

    // Oracle: two sampled Focus cells recomputed under the serial
    // schedule (outside the set-up time).
    let first = (seed % cells as u64) as usize;
    let oracle: Vec<(usize, PipelineResult, SimReport)> = [first, (first + 4) % cells]
        .into_iter()
        .map(|c| {
            let r = FocusPipeline::paper()
                .with_exec_mode(ExecMode::Serial)
                .run(&workloads[c], &ArchConfig::focus());
            let rep = focus_engine().run(&r.work_items);
            (c, r, rep)
        })
        .collect();
    // Spans of one traced pass: Focus cells run on the task-graph
    // scheduler only when it is the default schedule.
    let pipeline = FocusPipeline::paper();
    let expected_nodes: usize = match pipeline.exec_mode {
        ExecMode::Graph { depth } => workloads
            .iter()
            .flat_map(|wl| node_inventory(&pipeline, wl, &ArchConfig::focus(), depth))
            .map(|(_, n)| n)
            .sum(),
        ExecMode::Serial | ExecMode::Pipelined => 0,
    };

    let mut reference: Option<Vec<MethodOutcome>> = None;
    let mut pass_s = Vec::new();
    let mut focus_ms = Vec::new();
    let mut traced = Traced::default();
    let start = Instant::now();
    let mut units = 0;
    let min_units = if ctx.args.trace { 2 } else { 1 };
    while ctx.more(start, units, min_units, median(&pass_s) * min_units as f64) {
        let order: &[bool] = match (ctx.args.trace, units % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut pair = (Vec::new(), Vec::new());
        for &tracing in order {
            let t = Instant::now();
            let outcomes: Vec<MethodOutcome> = if tracing {
                let capture = Capture::begin();
                let ops = par_map(&pairs(cells), |&(m, c)| timed_op(m, &workloads[c]));
                let wall = secs(t);
                let captured = capture.end();
                ctx.verdict
                    .check(captured.spans.len() == expected_nodes, || {
                        format!(
                            "traced grid pass recorded {} spans, its graphs have {expected_nodes}",
                            captured.spans.len()
                        )
                    });
                ctx.verdict
                    .check(captured.offered == captured.spans.len() as u64, || {
                        format!(
                            "{} spans offered, {} drained",
                            captured.offered,
                            captured.spans.len()
                        )
                    });
                traced.ledger.add(&captured, wall);
                pair.1 = ops[OURS * cells..]
                    .iter()
                    .map(|o| (o.pipeline_s + o.engine_s) * 1e3)
                    .collect();
                record_traced(ctx, &mut traced, &ops, &oracle, cells);
                ops.into_iter().map(|o| o.outcome).collect()
            } else {
                let ops = pass(&workloads);
                pass_s.push(secs(t));
                pair.0 = ops[OURS * cells..].iter().map(|o| o.ms).collect();
                focus_ms.extend(pair.0.iter().copied());
                ops.into_iter().map(|o| o.outcome).collect()
            };
            ctx.verdict.attempted += outcomes.len() as u64;
            check_pass(ctx, &outcomes, &mut reference, &oracle, cells);
        }
        if ctx.args.trace {
            traced.ledger.pairs.extend(pair.0.into_iter().zip(pair.1));
        }
        units += 1;
    }

    let reference = reference.expect("at least one pass ran");
    ctx.metrics
        .set("paper_error_pct", paper_error(&reference, cells));
    let reports: Vec<&SimReport> = reference[OURS * cells..]
        .iter()
        .map(|o| o.report.as_ref().expect("Focus outcomes carry a report"))
        .collect();
    publish_sim(ctx, &reports);
    ctx.metrics
        .set("throughput_per_s", cells as f64 / median(&pass_s));
    ctx.metrics.set("latency_p50_ms", median(&focus_ms));
    ctx.metrics.set("latency_p90_ms", tail(&focus_ms));
    if !ctx.args.trace {
        return;
    }
    let names = BASELINE_TIMERS
        .iter()
        .chain(&["pipeline.run.busy_s", "sim.engine.busy_s"]);
    for (i, name) in names.enumerate() {
        let per_pass: Vec<f64> = traced.timers.iter().map(|t| t[i]).collect();
        ctx.metrics.set(*name, median(&per_pass));
    }
    if let Some(c) = traced.counts {
        c.publish(ctx);
    }
    traced
        .ledger
        .publish(&mut ctx.metrics, ServiceConfig::default().threads);
    if let ExecMode::Graph { .. } = pipeline.exec_mode {
        let stats = FocusService::global().stats();
        ctx.metrics.set("service.parks", stats.parks as f64);
        ctx.metrics
            .set("service.jobs_completed", stats.jobs_completed as f64);
    }
}

/// Folds one traced pass's timers and work counters, checking the
/// counters against the previous traced pass and the sampled cells
/// against the serial oracle.
fn record_traced(
    ctx: &mut Ctx,
    traced: &mut Traced,
    ops: &[TimedOp],
    oracle: &[(usize, PipelineResult, SimReport)],
    cells: usize,
) {
    let mut timers = [0.0; BASELINE_TIMERS.len() + 2];
    for (m, timer) in timers.iter_mut().enumerate().take(BASELINE_TIMERS.len()) {
        *timer = ops[m * cells..(m + 1) * cells]
            .iter()
            .map(|o| o.baseline_s)
            .sum();
    }
    timers[BASELINE_TIMERS.len()] = ops.iter().map(|o| o.pipeline_s).sum();
    timers[BASELINE_TIMERS.len() + 1] = ops.iter().map(|o| o.engine_s).sum();
    traced.timers.push(timers);
    let mut counts = WorkCounts::default();
    for (c, op) in ops[OURS * cells..].iter().enumerate() {
        let r = op.focus.as_ref().expect("Focus ops return their result");
        counts.add(r);
        for (_, or, _) in oracle.iter().filter(|(oc, _, _)| *oc == c) {
            ctx.verdict.check(same_result(r, or), || {
                format!("grid cell {c}: Focus result differs from the serial schedule")
            });
        }
    }
    if let Some(prev) = traced.counts {
        ctx.verdict.check(prev == counts, || {
            format!("grid work counters changed between passes: {prev:?} vs {counts:?}")
        });
    }
    traced.counts = Some(counts);
}

/// Checks one pass against the first pass (bitwise, every op) and the
/// sampled cells against the serial oracle.
fn check_pass(
    ctx: &mut Ctx,
    outcomes: &[MethodOutcome],
    reference: &mut Option<Vec<MethodOutcome>>,
    oracle: &[(usize, PipelineResult, SimReport)],
    cells: usize,
) {
    for (c, r, rep) in oracle {
        let o = &outcomes[OURS * cells + c];
        let ok = o.seconds.to_bits() == rep.seconds.to_bits()
            && o.energy_j.to_bits() == rep.energy.total_j().to_bits()
            && o.sparsity.to_bits() == r.sparsity().to_bits()
            && o.accuracy.to_bits() == r.accuracy.to_bits()
            && o.report.as_ref() == Some(rep);
        ctx.verdict.check(ok, || {
            format!("grid cell {c}: Focus outcome differs from the serial schedule")
        });
    }
    match reference {
        None => *reference = Some(outcomes.to_vec()),
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(outcomes).enumerate() {
                ctx.verdict.check(same_outcome(a, b), || {
                    format!(
                        "grid {} cell {}: outcome changed between passes",
                        METHODS[i / cells],
                        i % cells
                    )
                });
            }
        }
    }
}

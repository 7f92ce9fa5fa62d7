//! `stream` and `temporal`: frames fed one by one into a
//! `StreamSession` on a service of the default width, with the default
//! pipeline.
//!
//! * `stream` — an open loop of isolated frames (each its own scene) at
//!   a fixed rate; latency runs from each frame's due time, so a stall
//!   shows in the frames behind it.
//! * `temporal` — a closed loop over one correlated clip with the
//!   temporal cache on; each pass opens a fresh session, so the cache
//!   starts cold and every pass does the same work.
//!
//! One thread admits the frames (blocking in `push_frame` when the
//! window is full) and a second waits for them in order and stamps their
//! completion.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use focus_core::exec::{
    node_inventory, ExecMode, FocusService, FrameHandle, Priority, ServiceConfig, SessionStats,
    StreamConfig, StreamSession,
};
use focus_core::obs::{self, SpanKind};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_core::sic::TemporalCacheConfig;
use focus_sim::ArchConfig;
use focus_vlm::scene::SceneStream;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

use crate::fold::{self, Capture, Ledger};
use crate::grid::{same_result, WorkCounts};
use crate::stats::{median, tail, windowed};
use crate::{repeat_setup, Ctx};

/// Frames per second offered on `stream`: about two thirds of the
/// measured capacity of the default service on two cores.
pub const STREAM_FPS: f64 = 25.0;

/// A `stream` frame misses its deadline when its latency exceeds two
/// frame periods.
pub const DEADLINE_PERIODS: f64 = 2.0;

/// In-flight frame window of every session.
const WINDOW: usize = 2;

/// Frames of the `temporal` clip.
const CLIP_FRAMES: usize = 24;

/// Inter-frame correlation of the `temporal` clip.
const CORRELATION: f64 = 0.9;

/// Warm-up frames pushed through a throwaway session during set-up.
const WARM_FRAMES: usize = 4;

/// Frames per latency window: latency percentiles are taken per window
/// of consecutive frames (about five seconds of either feed) and the
/// median over windows is reported.
const LATENCY_WINDOW: usize = 120;

/// Frames of one `stream` unit in traced runs (one second of feed):
/// short units give many untraced/traced pairs, so the overhead estimate
/// does not hang on a few seconds of outside interference.
const TRACED_STREAM_FRAMES: usize = 25;

const MODEL: ModelKind = ModelKind::LlavaVideo7B;
const DATASET: DatasetKind = DatasetKind::VideoMme;

/// SplitMix64 of `seed` and `i`: per-frame input seeds.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Isolated `stream` frame `i`: its own scene.
fn stream_frame(seed: u64, i: u64) -> Workload {
    Workload::new(MODEL, DATASET, WorkloadScale::tiny(), mix(seed, i))
}

/// Frame `i` of the `temporal` clip.
fn clip_frame(seed: u64, i: u64) -> Workload {
    let stream = SceneStream {
        seed: mix(seed, u64::MAX),
        correlation: CORRELATION,
    };
    Workload::stream_frame(MODEL, DATASET, WorkloadScale::tiny(), stream, i)
}

/// How frames are offered.
#[derive(Clone, Copy)]
enum Arrival {
    /// Frame `i` is due `i × period` after the start.
    Open(Duration),
    /// Each frame is due when the previous admission returns.
    Closed,
}

/// One frame's timeline.
struct Frame {
    due: Instant,
    /// Time spent inside `push_frame`, in ms.
    push_ms: f64,
    /// Program clock when `push_frame` returned, in µs.
    pushed_us: u64,
    /// Time to build the frame's input, in µs.
    build_us: f64,
    done: Instant,
    ok: bool,
}

/// One session's run over a list of frames. Results are folded into
/// counters as they arrive and only the frames the caller keeps stay in
/// memory, so the process footprint is the program's, not the feed's.
struct Segment {
    frames: Vec<Frame>,
    /// `(frame index, result)` of the kept frames.
    kept: Vec<(usize, PipelineResult)>,
    counts: Counts,
    start: Instant,
    session: SessionStats,
    parks: u64,
}

impl Segment {
    fn latencies_ms(&self) -> Vec<f64> {
        self.frames
            .iter()
            .map(|f| f.done.duration_since(f.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn wall_s(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.done)
            .max()
            .map_or(0.0, |end| end.duration_since(self.start).as_secs_f64())
    }
}

/// The exact counters of one segment; segments over the same frames
/// must agree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    work: WorkCounts,
    /// Hits, misses, gathers skipped, evictions.
    temporal: [u64; 4],
    /// Warm reuses, warm re-derivations.
    warm: [u64; 2],
    jobs_completed: u64,
}

/// Runs `n` frames from `next` through a fresh session on `service`,
/// keeping the results of the frames `keep` selects.
fn segment(
    service: &FocusService,
    n: usize,
    mut next: impl FnMut(usize) -> Workload,
    keep: &(dyn Fn(usize) -> bool + Sync),
    temporal: Option<TemporalCacheConfig>,
    arrival: Arrival,
) -> Segment {
    let before = service.stats();
    let mut session = StreamSession::open(
        service,
        FocusPipeline::paper(),
        ArchConfig::focus(),
        StreamConfig {
            window: WINDOW,
            priority: Priority::Normal,
            temporal,
        },
    );
    let (tx, rx) = mpsc::channel::<(usize, FrameHandle)>();
    let start = Instant::now();
    let (admitted, (done, work, kept)) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut done = Vec::with_capacity(n);
            let mut work = WorkCounts::default();
            let mut kept = Vec::new();
            for (i, handle) in rx {
                let result = catch_unwind(AssertUnwindSafe(|| handle.wait())).ok();
                done.push((Instant::now(), result.is_some()));
                if let Some(r) = result {
                    work.add(&r);
                    if keep(i) {
                        kept.push((i, r));
                    }
                }
            }
            (done, work, kept)
        });
        let mut admitted = Vec::with_capacity(n);
        for i in 0..n {
            let t = Instant::now();
            let workload = next(i);
            let build_us = t.elapsed().as_secs_f64() * 1e6;
            let due = match arrival {
                Arrival::Open(period) => {
                    let due = start + period * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    due
                }
                Arrival::Closed => Instant::now(),
            };
            let t = Instant::now();
            let handle = session.push_frame(workload);
            let pushed_us = obs::clock::now_micros();
            admitted.push((due, t.elapsed().as_secs_f64() * 1e3, pushed_us, build_us));
            tx.send((i, handle)).expect("the waiter outlives the feed");
        }
        drop(tx);
        session.flush();
        let done = waiter.join().expect("the waiter thread does not panic");
        (admitted, done)
    });
    let stats = session.stats();
    drop(session);
    let after = service.stats();
    let frames = admitted
        .into_iter()
        .zip(done)
        .map(|((due, push_ms, pushed_us, build_us), (done, ok))| Frame {
            due,
            push_ms,
            pushed_us,
            build_us,
            done,
            ok,
        })
        .collect();
    Segment {
        frames,
        kept,
        counts: Counts {
            work,
            temporal: [
                stats.temporal_hits,
                stats.temporal_misses,
                stats.gathers_skipped,
                stats.temporal_evictions,
            ],
            warm: [stats.warm_reuses, stats.warm_rederives],
            jobs_completed: after.jobs_completed - before.jobs_completed,
        },
        start,
        session: stats,
        parks: after.parks - before.parks,
    }
}

/// The graph depth a session admits the default pipeline at.
fn session_depth(pipeline: &FocusPipeline) -> usize {
    match pipeline.exec_mode {
        ExecMode::Graph { depth } => depth,
        ExecMode::Serial | ExecMode::Pipelined => ExecMode::DEFAULT_GRAPH_DEPTH,
    }
}

/// Per-kind node counts of one frame's task graph.
type Inventory = [(SpanKind, usize); SpanKind::ALL.len()];

/// The span inventory of `frame` under the default pipeline.
fn inventory(frame: &Workload) -> Inventory {
    let pipeline = FocusPipeline::paper();
    node_inventory(
        &pipeline,
        frame,
        &ArchConfig::focus(),
        session_depth(&pipeline),
    )
}

/// Serial-schedule recomputation of `frame`, the reference a streamed
/// frame must equal bit for bit.
fn serial(frame: &Workload) -> PipelineResult {
    FocusPipeline::paper()
        .with_exec_mode(ExecMode::Serial)
        .run(frame, &ArchConfig::focus())
}

/// What every unit of a run is checked against.
struct Reference {
    /// `(frame index, serial result)` of sampled frames.
    oracle: Vec<(usize, PipelineResult)>,
    /// The first unit's counters and kept results; later units over the
    /// same frames must repeat them exactly.
    first: Option<(Counts, Vec<(usize, PipelineResult)>)>,
}

/// Checks one segment: every frame completed, sampled frames equal
/// their serial references, and counters and kept results equal the
/// first unit's. The kept results are released here, so a run holds
/// one unit's results at most.
fn check_segment(ctx: &mut Ctx, mut seg: Segment, reference: &mut Reference) -> Segment {
    ctx.verdict.attempted += seg.frames.len() as u64;
    for (i, f) in seg.frames.iter().enumerate() {
        ctx.verdict.check(f.ok, || format!("frame {i} failed"));
    }
    let s = &seg.session;
    ctx.verdict.check(
        s.frames_pushed == seg.frames.len() as u64 && s.frames_retired == s.frames_pushed,
        || format!("{} frames pushed, session counted {s:?}", seg.frames.len()),
    );
    for (i, oracle) in &reference.oracle {
        let streamed = seg.kept.iter().find(|(k, _)| k == i);
        ctx.verdict.check(
            streamed.is_some_and(|(_, r)| same_result(r, oracle)),
            || format!("frame {i} differs from its serial recomputation"),
        );
    }
    let results = std::mem::take(&mut seg.kept);
    match &reference.first {
        None => reference.first = Some((seg.counts, results)),
        Some((counts, kept)) => {
            ctx.verdict.check(*counts == seg.counts, || {
                format!(
                    "exact counters changed between units: {counts:?} vs {:?}",
                    seg.counts
                )
            });
            let same = kept.len() == results.len()
                && kept
                    .iter()
                    .zip(&results)
                    .all(|((i, a), (j, b))| i == j && same_result(a, b));
            ctx.verdict
                .check(same, || "frame results changed between units".to_string());
        }
    }
    seg
}

/// Folds one traced segment into the ledger and checks its spans
/// against the graph inventory of its frames.
fn trace_segment(
    ctx: &mut Ctx,
    ledger: &mut Ledger,
    seg: &Segment,
    captured: fold::Captured,
    inventory: &[[(SpanKind, usize); SpanKind::ALL.len()]],
) {
    ledger.add(&captured, seg.wall_s());
    let jobs = fold::jobs(&captured.spans);
    if let Err(why) = fold::check_inventory(&jobs, inventory) {
        ctx.verdict.fail(format!("span inventory: {why}"));
    }
    ctx.verdict
        .check(captured.offered == captured.spans.len() as u64, || {
            format!(
                "{} spans offered, {} drained",
                captured.offered,
                captured.spans.len()
            )
        });
    ctx.verdict.check(captured.dropped == 0, || {
        format!("{} spans dropped on ring contention", captured.dropped)
    });
    // Queue wait: from `push_frame`'s return to the frame's first node
    // (0 when a worker started it before the call returned).
    for (job, frame) in jobs.iter().zip(&seg.frames) {
        let wait_us = job.first_start_us.saturating_sub(frame.pushed_us);
        ledger.queue_wait_ms.push(wait_us as f64 / 1e3);
    }
}

/// Publishes the per-layer counters of one segment.
fn publish_counts(ctx: &mut Ctx, seg: &Segment) {
    let c = seg.counts;
    c.work.publish(ctx);
    let m = &mut ctx.metrics;
    let [hits, misses, skipped, evictions] = c.temporal;
    m.set("temporal.hits", hits as f64);
    m.set("temporal.misses", misses as f64);
    if hits + misses > 0 {
        m.set("temporal.hit_rate", hits as f64 / (hits + misses) as f64);
    }
    m.set("temporal.gathers_skipped", skipped as f64);
    m.set("temporal.evictions", evictions as f64);
    m.set("session.warm_reuses", c.warm[0] as f64);
    m.set("session.warm_rederives", c.warm[1] as f64);
    m.set("service.jobs_completed", c.jobs_completed as f64);
    m.set("service.parks", seg.parks as f64);
}

/// Publishes what every feed reports from its untraced units: latency,
/// time blocked in `push_frame`, and input build time.
fn publish_feed(ctx: &mut Ctx, untraced: &[Segment]) -> Vec<f64> {
    let frames = || untraced.iter().flat_map(|s| &s.frames);
    let lat: Vec<f64> = untraced.iter().flat_map(Segment::latencies_ms).collect();
    let push: Vec<f64> = frames().map(|f| f.push_ms).collect();
    let build: Vec<f64> = frames().map(|f| f.build_us).collect();
    let m = &mut ctx.metrics;
    m.set("latency_p50_ms", windowed(&lat, LATENCY_WINDOW, median));
    m.set("latency_p90_ms", windowed(&lat, LATENCY_WINDOW, tail));
    m.set("exec.push_blocked_ms.p50", median(&push));
    m.set("exec.push_blocked_ms.p90", tail(&push));
    m.set("vlm.workload_build_us", median(&build));
    lat
}

/// Runs the `stream` workload.
pub fn run_stream(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let period = Duration::from_secs_f64(1.0 / STREAM_FPS);
    let n = if ctx.args.trace {
        TRACED_STREAM_FRAMES
    } else {
        ((ctx.args.seconds * STREAM_FPS) as usize).max(1)
    };
    // Warm-up frames are indexed past the measured ones, so no measured
    // frame has been seen before.
    let service = repeat_setup(ctx, || {
        let service = FocusService::new(ServiceConfig::default());
        let warm = |i: usize| stream_frame(seed, (n + i) as u64);
        segment(
            &service,
            WARM_FRAMES,
            warm,
            &|_| false,
            None,
            Arrival::Closed,
        );
        service
    });
    let picks = [0, n / 2, n - 1];
    let mut reference = Reference {
        oracle: picks
            .iter()
            .map(|&i| (i, serial(&stream_frame(seed, i as u64))))
            .collect(),
        first: None,
    };
    let keep = |i: usize| picks.contains(&i);
    // Frames are built just before they are due, so the feed holds one
    // input at a time.
    let unit = |service: &FocusService| {
        segment(
            service,
            n,
            |i| stream_frame(seed, i as u64),
            &keep,
            None,
            Arrival::Open(period),
        )
    };
    let untraced = if ctx.args.trace {
        // Every stream frame has the same model, dataset and scale,
        // hence the same graph.
        let inventory = vec![inventory(&stream_frame(seed, 0)); n];
        traced_units(ctx, &service, &inventory, &mut reference, &unit)
    } else {
        vec![check_segment(ctx, unit(&service), &mut reference)]
    };
    let lat = publish_feed(ctx, &untraced);
    let limit_ms = DEADLINE_PERIODS * period.as_secs_f64() * 1e3;
    let misses = lat.iter().filter(|&&l| l > limit_ms).count();
    let fps: Vec<f64> = untraced
        .iter()
        .map(|s| s.frames.len() as f64 / s.wall_s())
        .collect();
    let m = &mut ctx.metrics;
    m.set("deadline_miss_share", misses as f64 / lat.len() as f64);
    m.set("throughput_per_s", median(&fps));
}

/// Runs the `temporal` workload.
pub fn run_temporal(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let cache = Some(TemporalCacheConfig::default());
    let n = CLIP_FRAMES;
    let (service, clip) = repeat_setup(ctx, || {
        let clip: Vec<Workload> = (0..n as u64).map(|i| clip_frame(seed, i)).collect();
        let service = FocusService::new(ServiceConfig::default());
        let copy = |i: usize| clip[i].clone();
        segment(&service, n, copy, &|_| false, cache, Arrival::Closed);
        (service, clip)
    });
    let mut reference = Reference {
        // The first frame meets a cold cache, so it must equal the
        // serial schedule; later frames carry rows and skip comparisons.
        oracle: vec![(0, serial(&clip[0]))],
        first: None,
    };
    // Each pass rebuilds the clip from the seed, so its build time is
    // the input generation the pass pays.
    let unit = |service: &FocusService| {
        segment(
            service,
            n,
            |i| clip_frame(seed, i as u64),
            &|_| true,
            cache,
            Arrival::Closed,
        )
    };
    let untraced = if ctx.args.trace {
        let inventory: Vec<Inventory> = clip.iter().map(inventory).collect();
        traced_units(ctx, &service, &inventory, &mut reference, &unit)
    } else {
        let start = Instant::now();
        let mut passes: Vec<Segment> = Vec::new();
        let pass_s = |p: &[Segment]| median(&p.iter().map(Segment::wall_s).collect::<Vec<_>>());
        while ctx.more(start, passes.len(), 1, pass_s(&passes)) {
            passes.push(check_segment(ctx, unit(&service), &mut reference));
        }
        passes
    };
    publish_feed(ctx, &untraced);
    let fps: Vec<f64> = untraced.iter().map(|s| n as f64 / s.wall_s()).collect();
    ctx.metrics.set("throughput_per_s", median(&fps));
}

/// The traced run of a feed: pairs of an untraced and a traced unit over
/// the same frames, alternating which goes first, until the time is up.
/// Tracing overhead compares each frame's latency across the pair.
/// Returns the untraced units.
fn traced_units(
    ctx: &mut Ctx,
    service: &FocusService,
    inventory: &[Inventory],
    reference: &mut Reference,
    unit: &dyn Fn(&FocusService) -> Segment,
) -> Vec<Segment> {
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    let mut unit_s = Vec::new();
    let mut traced = None;
    let start = Instant::now();
    let mut pairs = 0;
    while ctx.more(start, pairs, 2, 2.0 * median(&unit_s)) {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for tracing in [pairs % 2 == 1, pairs % 2 == 0] {
            let t = Instant::now();
            let capture = tracing.then(Capture::begin);
            let seg = check_segment(ctx, unit(service), reference);
            unit_s.push(t.elapsed().as_secs_f64());
            match capture {
                Some(capture) => {
                    trace_segment(ctx, &mut ledger, &seg, capture.end(), inventory);
                    on = seg.latencies_ms();
                    traced = Some(seg);
                }
                None => {
                    off = seg.latencies_ms();
                    untraced.push(seg);
                }
            }
        }
        ledger.pairs.extend(off.into_iter().zip(on));
        pairs += 1;
    }
    publish_counts(ctx, traced.as_ref().expect("a traced unit ran"));
    ledger.publish(&mut ctx.metrics, service.stats().workers);
    untraced
}

//! Folds the program's drained scheduler spans into per-layer figures:
//! busy time per node kind and per gather stage, worker occupancy, and
//! the per-job view that joins spans back to the frames the benchmark
//! admitted.

use std::collections::BTreeMap;

use focus_core::obs::{self, Span, SpanKind};

use crate::metrics::{Metrics, NODE_KINDS};
use crate::stats::{median, tail};

/// Gather stages per layer (the four SIC points).
pub const STAGES: usize = 4;

const KINDS: usize = SpanKind::ALL.len();

/// Busy time and counts of one set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fold {
    /// Summed span time per kind, in µs ([`SpanKind::index`] order).
    pub kind_us: [u64; KINDS],
    /// Summed span time of `Synth` nodes per gather stage, in µs.
    pub synth_stage_us: [u64; STAGES],
    /// Summed span time of `Gather` nodes per gather stage, in µs.
    pub gather_stage_us: [u64; STAGES],
    /// Spans folded.
    pub nodes: u64,
}

impl Fold {
    /// Folds `spans`.
    pub fn of(spans: &[Span]) -> Fold {
        let mut fold = Fold::default();
        for span in spans {
            let us = span.duration_us();
            fold.kind_us[span.kind.index()] += us;
            if let Some(stage) = span.stage.filter(|&s| s < STAGES) {
                match span.kind {
                    SpanKind::Synth => fold.synth_stage_us[stage] += us,
                    SpanKind::Gather => fold.gather_stage_us[stage] += us,
                    _ => {}
                }
            }
            fold.nodes += 1;
        }
        fold
    }

    /// Total span time, in µs.
    pub fn busy_us(&self) -> u64 {
        self.kind_us.iter().sum()
    }

    /// Each kind's share of the total span time (all 0 when nothing
    /// was recorded, otherwise summing to 1).
    pub fn shares(&self) -> [f64; KINDS] {
        let total = self.busy_us();
        if total == 0 {
            return [0.0; KINDS];
        }
        self.kind_us.map(|us| us as f64 / total as f64)
    }
}

/// The spans of one job: its first start and its node count per kind.
#[derive(Clone, Debug, PartialEq)]
pub struct JobView {
    /// Scheduler admission id.
    pub job: u64,
    /// Earliest span start, µs on the program's clock.
    pub first_start_us: u64,
    /// Nodes per kind ([`SpanKind::index`] order).
    pub counts: [usize; KINDS],
}

/// Groups spans by job, in admission order (ascending job id). One
/// thread admitting the frames of one service in sequence makes this
/// the frame order.
pub fn jobs(spans: &[Span]) -> Vec<JobView> {
    let mut by_job: BTreeMap<u64, JobView> = BTreeMap::new();
    for span in spans {
        let view = by_job.entry(span.job).or_insert(JobView {
            job: span.job,
            first_start_us: span.t_start_us,
            counts: [0; KINDS],
        });
        view.first_start_us = view.first_start_us.min(span.t_start_us);
        view.counts[span.kind.index()] += 1;
    }
    by_job.into_values().collect()
}

/// Checks the per-job node counts against the graph inventory of each
/// job: `inventory[i]` is what job `i` (admission order) must have
/// recorded. Returns a description of the first mismatch.
pub fn check_inventory(
    jobs: &[JobView],
    inventory: &[[(SpanKind, usize); KINDS]],
) -> Result<(), String> {
    if jobs.len() != inventory.len() {
        return Err(format!(
            "{} jobs recorded spans, {} were admitted",
            jobs.len(),
            inventory.len()
        ));
    }
    for (i, (job, inv)) in jobs.iter().zip(inventory).enumerate() {
        for &(kind, expected) in inv {
            let got = job.counts[kind.index()];
            if got != expected {
                return Err(format!(
                    "job {} (admission {i}) recorded {got} {} spans, its graph has {expected}",
                    job.job,
                    kind.name()
                ));
            }
        }
    }
    Ok(())
}

/// One traced unit of work: recording is on from [`Capture::begin`]
/// to [`Capture::end`], which returns the unit's spans.
pub struct Capture {
    start_us: u64,
    offered: u64,
    dropped: u64,
}

/// What a traced unit recorded.
pub struct Captured {
    /// The unit's spans, ordered by start.
    pub spans: Vec<Span>,
    /// Spans the program offered to its rings during the unit.
    pub offered: u64,
    /// Spans it dropped on ring contention during the unit.
    pub dropped: u64,
}

impl Capture {
    /// Switches span recording on.
    pub fn begin() -> Capture {
        let rec = obs::spans::recorder().expect("traced runs activate the recorder first");
        let capture = Capture {
            start_us: obs::clock::now_micros(),
            offered: rec.offered(),
            dropped: rec.dropped(),
        };
        obs::spans::set_enabled(true);
        capture
    }

    /// Switches recording off and drains the unit's spans. Units run one
    /// after another on an otherwise idle program, so every span that
    /// starts after [`Capture::begin`] belongs to this unit.
    pub fn end(self) -> Captured {
        obs::spans::set_enabled(false);
        let rec = obs::spans::recorder().expect("recorder outlives the run");
        let spans: Vec<Span> = rec
            .drain_ordered()
            .into_iter()
            .filter(|s| s.t_start_us >= self.start_us)
            .collect();
        Captured {
            spans,
            offered: rec.offered() - self.offered,
            dropped: rec.dropped() - self.dropped,
        }
    }
}

/// The traced units of one run, folded, and the paired untraced units
/// they are compared with.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per traced unit: its fold and its wall time in seconds.
    units: Vec<(Fold, f64)>,
    dropped: u64,
    /// Per frame: first span start minus `push_frame` return, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// `(untraced, traced)` time of the same operation on the same
    /// input, one entry per paired operation.
    pub pairs: Vec<(f64, f64)>,
}

impl Ledger {
    /// Adds one traced unit.
    pub fn add(&mut self, captured: &Captured, wall_s: f64) {
        self.units.push((Fold::of(&captured.spans), wall_s));
        self.dropped += captured.dropped;
    }

    /// Publishes the `node.*`, `exec.*` and `obs.*` per-layer metrics.
    /// Busy times are medians over units; shares and occupancy pool
    /// every unit.
    pub fn publish(&self, m: &mut Metrics, workers: usize) {
        let per_unit = |f: &dyn Fn(&Fold) -> u64| -> f64 {
            let v: Vec<f64> = self.units.iter().map(|(fold, _)| f(fold) as f64).collect();
            median(&v)
        };
        let mut pooled = Fold::default();
        let mut wall_s = 0.0;
        for (fold, wall) in &self.units {
            for k in 0..KINDS {
                pooled.kind_us[k] += fold.kind_us[k];
            }
            pooled.nodes += fold.nodes;
            wall_s += wall;
        }
        for (k, name) in NODE_KINDS.iter().enumerate() {
            m.set(
                format!("node.{name}.busy_s"),
                per_unit(&|f| f.kind_us[k]) / 1e6,
            );
            m.set(format!("node.{name}.share"), pooled.shares()[k]);
        }
        for s in 0..STAGES {
            m.set(
                format!("node.synth.s{s}.busy_s"),
                per_unit(&|f| f.synth_stage_us[s]) / 1e6,
            );
            m.set(
                format!("node.gather.s{s}.busy_s"),
                per_unit(&|f| f.gather_stage_us[s]) / 1e6,
            );
        }
        m.set("exec.nodes", per_unit(&|f| f.nodes));
        if wall_s > 0.0 {
            m.set(
                "exec.worker_busy_share",
                pooled.busy_us() as f64 / 1e6 / (workers as f64 * wall_s),
            );
        }
        m.set("exec.queue_wait_ms.p50", median(&self.queue_wait_ms));
        m.set("exec.queue_wait_ms.p90", tail(&self.queue_wait_ms));
        m.set("obs.spans_dropped", self.dropped as f64);
        let ratios: Vec<f64> = self.pairs.iter().map(|&(off, on)| on / off).collect();
        if !ratios.is_empty() {
            m.set("obs.overhead_pct", 100.0 * (median(&ratios) - 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u64, kind: SpanKind, stage: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            job,
            kind,
            layer: Some(0),
            stage,
            worker: 0,
            priority: 1,
            tag: 0,
            t_start_us: start,
            t_end_us: end,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            // Job 7 admitted first, job 9 second; spans interleave.
            span(9, SpanKind::Sec, None, 5, 8),
            span(7, SpanKind::Sec, None, 0, 4),
            span(7, SpanKind::Synth, Some(2), 4, 14),
            span(9, SpanKind::Synth, Some(0), 8, 11),
            span(7, SpanKind::Gather, Some(2), 14, 20),
            span(9, SpanKind::Gather, Some(0), 11, 12),
            span(7, SpanKind::Finish, None, 20, 21),
            span(9, SpanKind::Finish, None, 12, 13),
        ]
    }

    fn inventory() -> [(SpanKind, usize); KINDS] {
        SpanKind::ALL.map(|kind| {
            let n = match kind {
                SpanKind::Sec | SpanKind::Synth | SpanKind::Gather | SpanKind::Finish => 1,
                _ => 0,
            };
            (kind, n)
        })
    }

    #[test]
    fn kind_shares_sum_to_one() {
        let fold = Fold::of(&sample());
        assert_eq!(fold.nodes, 8);
        assert_eq!(fold.busy_us(), 4 + 10 + 6 + 1 + 3 + 3 + 1 + 1);
        let sum: f64 = fold.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert_eq!(fold.kind_us[SpanKind::Synth.index()], 13);
        assert_eq!(fold.synth_stage_us, [3, 0, 10, 0]);
        assert_eq!(fold.gather_stage_us, [1, 0, 6, 0]);
        assert_eq!(Fold::of(&[]).shares(), [0.0; KINDS]);
    }

    #[test]
    fn jobs_fold_to_frames_in_admission_order() {
        let views = jobs(&sample());
        assert_eq!(views.iter().map(|v| v.job).collect::<Vec<_>>(), [7, 9]);
        assert_eq!(views[0].first_start_us, 0);
        assert_eq!(views[1].first_start_us, 5);
        assert_eq!(check_inventory(&views, &[inventory(), inventory()]), Ok(()));
    }

    #[test]
    fn inventory_mismatches_are_reported() {
        let mut spans = sample();
        spans.pop(); // job 9 loses its Finish span
        let views = jobs(&spans);
        let err = check_inventory(&views, &[inventory(), inventory()]).unwrap_err();
        assert!(
            err.contains("admission 1") && err.contains("finish"),
            "{err}"
        );
        let err = check_inventory(&views, &[inventory()]).unwrap_err();
        assert!(err.contains("2 jobs"), "{err}");
    }
}

//! The benchmark's metric names, the values one run collects, and the
//! result line.
//!
//! The two tables below are the contract with `BENCHMARK.json`: a run
//! with `--trace 0` prints exactly [`END_TO_END`], a run with
//! `--trace 1` exactly [`PER_LAYER`]. A unit test pins both against the
//! JSON file.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// each; all are timings, rates or sizes that are never 0.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Node kinds in `focus_core::obs::SpanKind::ALL` order.
pub const NODE_KINDS: [&str; 7] = [
    "sec",
    "synth",
    "gather",
    "fold_stats",
    "absorb",
    "lower",
    "finish",
];

/// `(name, unit)` of every per-layer metric. A metric that does not
/// apply to a workload reads 0 there (no baselines on the feeds, no
/// temporal cache outside `temporal`, no spans where nothing runs on
/// the task-graph scheduler).
pub const PER_LAYER: [(&str, &str); 60] = [
    ("paper_error_pct", "%"),
    ("deadline_miss_share", "ratio"),
    ("failed_share", "ratio"),
    ("sec.tokens_in", "count"),
    ("sec.tokens_kept", "count"),
    ("sic.comparisons", "count"),
    ("sic.matches", "count"),
    ("sic.match_ratio", "ratio"),
    ("temporal.hits", "count"),
    ("temporal.misses", "count"),
    ("temporal.hit_rate", "ratio"),
    ("temporal.gathers_skipped", "count"),
    ("temporal.evictions", "count"),
    ("session.warm_reuses", "count"),
    ("session.warm_rederives", "count"),
    ("service.parks", "count"),
    ("service.jobs_completed", "count"),
    ("sim.cycles", "count"),
    ("sim.dram_bytes", "B"),
    ("sim.energy_j", "J"),
    ("sim.utilization", "ratio"),
    ("sim.memory_bound_share", "ratio"),
    ("baselines.dense.busy_s", "s"),
    ("baselines.adaptiv.busy_s", "s"),
    ("baselines.cmc.busy_s", "s"),
    ("baselines.framefusion.busy_s", "s"),
    ("baselines.gpu.busy_s", "s"),
    ("pipeline.run.busy_s", "s"),
    ("sim.engine.busy_s", "s"),
    ("exec.push_blocked_ms.p50", "ms"),
    ("exec.push_blocked_ms.p90", "ms"),
    ("vlm.workload_build_us", "us"),
    ("node.sec.busy_s", "s"),
    ("node.synth.busy_s", "s"),
    ("node.gather.busy_s", "s"),
    ("node.fold_stats.busy_s", "s"),
    ("node.absorb.busy_s", "s"),
    ("node.lower.busy_s", "s"),
    ("node.finish.busy_s", "s"),
    ("node.sec.share", "ratio"),
    ("node.synth.share", "ratio"),
    ("node.gather.share", "ratio"),
    ("node.fold_stats.share", "ratio"),
    ("node.absorb.share", "ratio"),
    ("node.lower.share", "ratio"),
    ("node.finish.share", "ratio"),
    ("node.synth.s0.busy_s", "s"),
    ("node.synth.s1.busy_s", "s"),
    ("node.synth.s2.busy_s", "s"),
    ("node.synth.s3.busy_s", "s"),
    ("node.gather.s0.busy_s", "s"),
    ("node.gather.s1.busy_s", "s"),
    ("node.gather.s2.busy_s", "s"),
    ("node.gather.s3.busy_s", "s"),
    ("exec.worker_busy_share", "ratio"),
    ("exec.nodes", "count"),
    ("exec.queue_wait_ms.p50", "ms"),
    ("exec.queue_wait_ms.p90", "ms"),
    ("obs.spans_dropped", "count"),
    ("obs.overhead_pct", "%"),
];

/// Values collected by one run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// One metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The run's verdict and counts, as the result line reports them.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations attempted (grid method runs or frames).
    pub attempted: u64,
    /// Operations that failed, mismatched their reference, or broke a
    /// run-level check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Records a failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Whether the run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Renders the result line: `table` names the metrics to print, in
/// order. A metric the table lists but the run did not set is an error
/// for end-to-end metrics and reads 0 for per-layer ones.
pub fn result_line(
    verdict: &Verdict,
    metrics: &Metrics,
    table: &[(&str, &str)],
    zero_fill: bool,
) -> Result<String, String> {
    let mut body = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if zero_fill => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_are_unique_and_listed_in_the_manifest() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(name), "duplicate metric {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = MANIFEST.matches("\"unit\":").count();
        assert_eq!(listed, seen.len(), "BENCHMARK.json lists other metrics");
    }

    #[test]
    fn result_line_prints_every_digit_and_the_unit() {
        let mut m = Metrics::default();
        m.set("a", 1.25);
        m.set("b", 3.0);
        m.set("a", 0.1 + 0.2);
        let line = result_line(
            &Verdict::default(),
            &m,
            &[("a", "ms"), ("b", "count"), ("c", "s")],
            true,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&Verdict::default(), &m, &[("c", "s")], false).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut v = Verdict::default();
        v.check(true, || unreachable!());
        assert!(v.correct());
        v.check(false, || "mismatch".into());
        assert!(!v.correct());
        assert_eq!(v.failures, ["mismatch"]);
    }
}

//! The repository benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|stream|temporal --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, sets the program up, times
//! the program's public entry points from outside for `--seconds`, and
//! checks every output against a reference. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced units of the same work and prints the per-layer metrics (the
//! program's own scheduler spans, folded here, plus outside timers and
//! exact work counters). The last stdout line is the JSON result; the
//! exit code is 0 only when every check passed. Why each workload
//! exists, and which per-layer figure should move which end-to-end one,
//! is recorded in `BENCHMARK.json`.

mod claims;
mod feed;
mod fold;
mod grid;
mod metrics;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use focus_core::obs::{self, TraceConfig};

use crate::metrics::{Metrics, Verdict, END_TO_END, PER_LAYER};

/// Environment overrides that would change what the program runs or
/// observe it from inside; the benchmark measures the defaults.
const FORBIDDEN_ENV: [&str; 4] = [
    "FOCUS_EXEC_MODE",
    "FOCUS_BACKEND",
    "FOCUS_TRACE",
    "FOCUS_TRACE_OUT",
];

/// Times a set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Per-worker span ring capacity for traced runs: enough for every
/// span of the traced units of one run, so none is overwritten.
const TRACE_RING: usize = 1 << 17;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
}

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 9 grid, closed loop.
    Grid,
    /// Isolated frames at a fixed rate, open loop.
    Stream,
    /// A correlated clip through the temporal cache, closed loop.
    Temporal,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Grid,
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "grid" => Workload::Grid,
                    "stream" => Workload::Stream,
                    "temporal" => Workload::Temporal,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected 0 < S <= 600"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload grid|stream|temporal is required")?;
    Ok(args)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the machine so far, from `/proc/stat`.
/// Time the host gives the machine's CPUs to other guests lengthens
/// every wall-clock figure; the run reports its share next to them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The checkout's git commit, when it is a git checkout. Only `./.git`
/// is consulted, never a repository above the checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Repeats `setup` [`SETUP_REPS`] times, records the median time as
/// `setup_s`, and returns the last set-up's result (each earlier one is
/// dropped before the next starts).
pub fn repeat_setup<T>(ctx: &mut Ctx, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    ctx.metrics.set("setup_s", stats::median(&times));
    last.expect("set-up ran")
}

/// State shared by the workload runs: the arguments, the metric
/// sink and the verdict.
pub struct Ctx {
    /// Parsed command line.
    pub args: Args,
    /// Collected metric values.
    pub metrics: Metrics,
    /// Checks and operation counts.
    pub verdict: Verdict,
}

impl Ctx {
    /// Whether a measured loop started at `start` may begin another unit
    /// that is expected to take `unit_s` seconds, with at least `min`
    /// units done already required.
    pub fn more(&self, start: Instant, units: usize, min: usize, unit_s: f64) -> bool {
        units < min || start.elapsed().as_secs_f64() + unit_s <= self.args.seconds
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; the benchmark measures the defaults");
        return ExitCode::from(2);
    }
    if args.trace {
        // Rings exist from here on; units switch recording on and off.
        obs::spans::activate(TraceConfig {
            capacity: TRACE_RING,
        });
        obs::spans::set_enabled(false);
    }

    let ticks_before = cpu_ticks();
    let mut ctx = Ctx {
        args,
        metrics: Metrics::default(),
        verdict: Verdict::default(),
    };
    match args.workload {
        Workload::Grid => grid::run(&mut ctx),
        Workload::Stream => feed::run_stream(&mut ctx),
        Workload::Temporal => feed::run_temporal(&mut ctx),
    }

    let attempted = ctx.verdict.attempted.max(1);
    ctx.metrics
        .set("failed_share", ctx.verdict.failed as f64 / attempted as f64);
    match peak_rss_mb() {
        Some(mb) => ctx.metrics.set("peak_rss_mb", mb),
        None => ctx.verdict.fail("VmHWM unavailable in /proc/self/status"),
    }
    for why in &ctx.verdict.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let (table, zero_fill) = if args.trace {
        (&PER_LAYER[..], true)
    } else {
        (&END_TO_END[..], false)
    };
    println!(
        "# perfbench workload={:?} seed={} seconds={} trace={} nproc={} service_workers={} commit={} steal_share={steal_share:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        focus_core::exec::ServiceConfig::default().threads,
        git_commit(),
    );
    match metrics::result_line(&ctx.verdict, &ctx.metrics, table, zero_fill) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::FAILURE;
        }
    }
    if ctx.verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_default() {
        let a = parse("--workload stream --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Stream);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let a = parse("--workload temporal").unwrap();
        assert_eq!((a.seed, a.trace), (42, false));
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            "",
            "--workload bogus",
            "--workload grid --trace 2",
            "--workload grid --seconds 0",
            "--workload grid --seconds",
            "--workload grid --seed -1",
            "--workload grid --color red",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}

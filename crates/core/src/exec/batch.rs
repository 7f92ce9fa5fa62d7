//! [`BatchRunner`]: runs many independent pipeline jobs, returning
//! results in input order.
//!
//! Design-space sweeps and evaluation grids run dozens to hundreds of
//! independent `FocusPipeline::run` calls. Every batch entry point
//! shares one spine: jobs on a task-graph schedule are submitted into
//! the process-wide [`FocusService`] as one burst — the persistent pool
//! that also serves streaming requests, so their stages interleave
//! with whatever else it runs — and [`ExecMode::Serial`] jobs fan out
//! through [`par_map`]. Each run is a pure function of
//! `(pipeline, workload, arch)`, so every result is identical to the
//! serial loop's (see `tests/batch_determinism.rs`).
//!
//! [`par_map`] is the one order-preserving fan-out primitive. It runs
//! on scoped threads of its own, never on service workers: its
//! closures may submit to the service and block on the result, which
//! on a pool worker could deadlock a small pool.

use std::sync::Arc;

use focus_sim::{ArchConfig, Engine, SimReport};
use focus_vlm::Workload;

use crate::exec::executor::resolve_threads;
use crate::exec::service::FocusService;
use crate::exec::{ExecMode, Priority};
use crate::pipeline::{FocusPipeline, PipelineResult};

/// One self-contained unit of batched work: a pipeline configuration
/// applied to a workload on an architecture.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The pipeline configuration to run.
    pub pipeline: FocusPipeline,
    /// The workload to run it on.
    pub workload: Workload,
    /// The architecture to lower against.
    pub arch: ArchConfig,
}

impl BatchJob {
    /// Runs this job to completion.
    pub fn run(&self) -> PipelineResult {
        self.pipeline.run(&self.workload, &self.arch)
    }
}

/// Runs many workloads through one pipeline configuration in parallel.
#[derive(Clone, Debug)]
pub struct BatchRunner {
    pipeline: FocusPipeline,
    arch: ArchConfig,
}

impl BatchRunner {
    /// A runner for `pipeline` lowering against `arch`.
    pub fn new(pipeline: FocusPipeline, arch: ArchConfig) -> Self {
        BatchRunner { pipeline, arch }
    }

    /// The Table I pipeline on the Focus architecture.
    pub fn paper() -> Self {
        BatchRunner::new(FocusPipeline::paper(), ArchConfig::focus())
    }

    /// The pipeline this runner applies.
    pub fn pipeline(&self) -> &FocusPipeline {
        &self.pipeline
    }

    /// One job per workload.
    fn jobs_for(&self, workloads: &[Workload]) -> Vec<BatchJob> {
        workloads
            .iter()
            .map(|wl| BatchJob {
                pipeline: self.pipeline.clone(),
                workload: wl.clone(),
                arch: self.arch.clone(),
            })
            .collect()
    }

    /// Runs every workload, in parallel, returning results in input
    /// order — element `i` is exactly what
    /// `self.pipeline().run(&workloads[i], arch)` returns.
    pub fn run_many(&self, workloads: &[Workload]) -> Vec<PipelineResult> {
        results(run_batch(&self.jobs_for(workloads), false))
    }

    /// Runs heterogeneous jobs (each with its own pipeline/arch), in
    /// parallel, results in input order. This is what config sweeps
    /// use: same workload, many configurations.
    pub fn run_jobs(jobs: &[BatchJob]) -> Vec<PipelineResult> {
        results(run_batch(jobs, false))
    }

    /// Like [`BatchRunner::run_many`], with the cycle simulation of
    /// each result against **one** shared [`Engine`] for the runner's
    /// architecture.
    pub fn run_many_sim(&self, workloads: &[Workload]) -> Vec<(PipelineResult, SimReport)> {
        reports(run_batch(&self.jobs_for(workloads), true))
    }

    /// Like [`BatchRunner::run_jobs`], with the cycle simulation of
    /// each result: one [`Engine`] is built per *distinct*
    /// [`ArchConfig`] in the job list (config sweeps share one arch
    /// across hundreds of jobs) and shared through an `Arc`.
    pub fn run_jobs_sim(jobs: &[BatchJob]) -> Vec<(PipelineResult, SimReport)> {
        reports(run_batch(jobs, true))
    }
}

/// The one batch spine behind every [`BatchRunner`] entry point: runs
/// `jobs` — with the cycle simulation against one [`Engine`] per
/// distinct architecture when `sim` is set — and returns the results
/// in input order.
///
/// Every job on a task-graph schedule is submitted into the shared
/// [`FocusService`] first, so the batch arrives as one burst (the
/// simulation rides in each request's `Finish` node). The
/// [`ExecMode::Serial`] jobs then run through [`par_map`] while the
/// service works. A submission clones its job, because an admitted
/// request owns its inputs; the copy is O(1) in the scene, which a
/// [`Workload`] shares through an `Arc`.
fn run_batch(jobs: &[BatchJob], sim: bool) -> Vec<(PipelineResult, Option<SimReport>)> {
    let mut engines: Vec<Arc<Engine>> = Vec::new();
    let engine_for: Vec<Option<Arc<Engine>>> = jobs
        .iter()
        .map(|job| {
            sim.then(|| match engines.iter().find(|e| *e.arch() == job.arch) {
                Some(e) => Arc::clone(e),
                None => {
                    let e = Arc::new(Engine::new(job.arch.clone()));
                    engines.push(Arc::clone(&e));
                    e
                }
            })
        })
        .collect();
    let on_service = |job: &BatchJob| job.pipeline.exec_mode != ExecMode::Serial;
    let handles: Vec<_> = jobs
        .iter()
        .zip(&engine_for)
        .map(|(job, engine)| {
            on_service(job).then(|| {
                let (service, job) = (FocusService::global(), job.clone());
                match engine {
                    Some(engine) => service.submit_sim(job, Arc::clone(engine), Priority::Normal),
                    None => service.submit(job, Priority::Normal),
                }
            })
        })
        .collect();
    let serial: Vec<_> = jobs
        .iter()
        .zip(&engine_for)
        .filter(|(job, _)| !on_service(job))
        .collect();
    let mut serial = par_map(&serial, |(job, engine)| {
        let result = job.run();
        let report = engine.as_ref().map(|e| e.run(&result.work_items));
        (result, report)
    })
    .into_iter();
    handles
        .into_iter()
        .map(|handle| match handle {
            Some(handle) => handle.wait_sim(),
            None => serial.next().expect("one result per serial job"),
        })
        .collect()
}

fn results(batch: Vec<(PipelineResult, Option<SimReport>)>) -> Vec<PipelineResult> {
    batch.into_iter().map(|(result, _)| result).collect()
}

fn reports(batch: Vec<(PipelineResult, Option<SimReport>)>) -> Vec<(PipelineResult, SimReport)> {
    batch
        .into_iter()
        .map(|(result, report)| (result, report.expect("engine attached")))
        .collect()
}

/// Deterministic parallel map over a slice: `f` applied to every item,
/// results in input order, a worker's panic re-raised with its original
/// payload. The fan-out behind [`BatchRunner`]'s serial jobs, exposed
/// for ad-hoc sweeps (ablations, calibration probes, evaluation grids)
/// that batch something other than whole pipeline runs. As wide as
/// [`THREADS_ENV`](crate::exec::THREADS_ENV) asks, else the machine's
/// available parallelism.
///
/// # Panics
///
/// Panics when `FOCUS_THREADS` is set but not an integer ≥ 1, and
/// re-raises any panic of `f`.
pub fn par_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    par_map_on(resolve_threads(), items, f)
}

/// [`par_map`] on at most `threads` scoped threads. A static split,
/// not work stealing: `items` is cut into contiguous chunks of
/// `len.div_ceil(threads)`, one thread each, so which items share a
/// thread is a pure function of `(len, threads)`. With one thread (or
/// one item) the map runs inline on the caller.
fn par_map_on<I, R, F>(threads: usize, items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    fn tiny(seed: u64) -> Workload {
        Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            seed,
        )
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = (0..1000).map(|x| x * 2).collect();
        assert_eq!(par_map(&items, |&x| x * 2), doubled);
        for threads in 1..=4 {
            assert_eq!(par_map_on(threads, &items, |&x| x * 2), doubled);
        }
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        let empty: &[usize] = &[];
        assert!(par_map(empty, |&x| x).is_empty());
        assert!(par_map_on(3, empty, |&x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn par_map_reraises_a_worker_panic_with_its_payload() {
        // Two threads, so the panic crosses from a scoped worker.
        par_map_on(2, &[1usize, 2, 3], |&x| {
            if x == 2 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn par_map_keeps_the_static_contiguous_partition() {
        // `(threads, items, items per worker)`: at most `threads`
        // contiguous chunks of `len.div_ceil(threads)`. The grid
        // benchmark's per-op latencies depend on which ops overlap, so
        // its 54 ops must split 27/27 on two workers.
        let cases: [(usize, usize, &[usize]); 8] = [
            (2, 54, &[27, 27]),
            (3, 54, &[18, 18, 18]),
            (2, 9, &[5, 4]),
            (3, 10, &[4, 4, 2]),
            (3, 7, &[3, 3, 1]),
            (3, 4, &[2, 2]),
            (3, 2, &[1, 1]),
            (2, 1, &[1]),
        ];
        let caller = std::thread::current().id();
        for (threads, len, expected) in cases {
            let items: Vec<usize> = (0..len).collect();
            let workers = par_map_on(threads, &items, |_| std::thread::current().id());
            let runs: Vec<&[std::thread::ThreadId]> = workers.chunk_by(|a, b| a == b).collect();
            let sizes: Vec<usize> = runs.iter().map(|run| run.len()).collect();
            assert_eq!(sizes, expected, "{len} items on {threads} threads");
            let distinct: std::collections::HashSet<_> = runs.iter().map(|run| run[0]).collect();
            assert_eq!(distinct.len(), runs.len(), "one worker per chunk");
            // A lone item runs inline; otherwise every chunk has its
            // own scoped thread.
            assert_eq!(distinct.contains(&caller), len == 1);
        }
    }

    #[test]
    fn run_many_sim_matches_per_result_engines() {
        let workloads = [tiny(1), tiny(2)];
        let runner = BatchRunner::paper();
        let batched = runner.run_many_sim(&workloads);
        let plain = runner.run_many(&workloads);
        for ((r, rep), serial) in batched.iter().zip(&plain) {
            let serial_rep = Engine::new(ArchConfig::focus()).run(&serial.work_items);
            assert_eq!(r.work_items, serial.work_items);
            assert_eq!(*rep, serial_rep, "shared engine must match a fresh one");
        }
    }

    #[test]
    fn run_jobs_sim_builds_one_engine_per_distinct_arch() {
        // Jobs across two architectures: every report must match what a
        // per-job engine produces, proving the dedup maps jobs to the
        // right engine.
        let wl = tiny(3);
        let jobs: Vec<BatchJob> = [
            ArchConfig::focus(),
            ArchConfig::vanilla(),
            ArchConfig::focus(),
        ]
        .into_iter()
        .map(|arch| BatchJob {
            pipeline: FocusPipeline::paper(),
            workload: wl.clone(),
            arch,
        })
        .collect();
        let batched = BatchRunner::run_jobs_sim(&jobs);
        assert_eq!(batched.len(), jobs.len());
        for (job, (r, rep)) in jobs.iter().zip(&batched) {
            let serial = job.run();
            let serial_rep = Engine::new(job.arch.clone()).run(&serial.work_items);
            assert_eq!(r.work_items, serial.work_items);
            assert_eq!(*rep, serial_rep);
        }
    }
}

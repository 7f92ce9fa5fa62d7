//! [`BatchRunner`]: fans whole pipeline runs out across cores.
//!
//! Design-space sweeps and evaluation grids run dozens to hundreds of
//! *independent* `FocusPipeline::run` calls; before this module they
//! executed strictly serially. `BatchRunner` parallelises at workload
//! granularity while guaranteeing results **identical to the serial
//! loop**: each run is a pure function of `(pipeline, workload, arch)`
//! and results are collected in submission order (see
//! `tests/batch_determinism.rs`).
//!
//! Under [`ExecMode::Graph`] (the default) a batch is not fanned out
//! as whole runs:
//! every job is submitted into the process-wide
//! [`FocusService`] — the same persistent pool that serves streaming
//! requests — so a batch is just a burst of admissions whose stages
//! interleave with whatever else the service is running.

use std::sync::Arc;

use rayon::prelude::*;

use focus_sim::{ArchConfig, Engine, SimReport};
use focus_vlm::Workload;

use crate::exec::service::{FocusService, JobHandle};
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

/// Submits owned jobs into the shared [`FocusService`] and waits for
/// them in submission order — the graph-mode spine of every batch
/// entry point below.
///
/// Each submission clones its job out of the caller's borrow, because
/// an admitted request owns its inputs for as long as it runs. The
/// copy is O(1) in the scene: a [`Workload`] shares its scene through
/// an `Arc`.
fn through_service(
    jobs: impl IntoIterator<Item = (BatchJob, Option<Arc<Engine>>)>,
    priority: Priority,
) -> Vec<(PipelineResult, Option<SimReport>)> {
    let service = FocusService::global();
    let handles: Vec<JobHandle> = jobs
        .into_iter()
        .map(|(job, engine)| match engine {
            Some(engine) => service.submit_sim(job, engine, priority),
            None => service.submit(job, priority),
        })
        .collect();
    handles.into_iter().map(JobHandle::wait_sim).collect()
}

/// Runs many workloads through one pipeline configuration in parallel.
#[derive(Clone, Debug)]
pub struct BatchRunner {
    pipeline: FocusPipeline,
    arch: ArchConfig,
    priority: Priority,
}

impl BatchRunner {
    /// A runner for `pipeline` lowering against `arch`.
    pub fn new(pipeline: FocusPipeline, arch: ArchConfig) -> Self {
        BatchRunner {
            pipeline,
            arch,
            priority: Priority::Normal,
        }
    }

    /// The Table I pipeline on the Focus architecture.
    pub fn paper() -> Self {
        BatchRunner::new(FocusPipeline::paper(), ArchConfig::focus())
    }

    /// The same runner at a different fair-queue weight class: a
    /// background sweep submitted at [`Priority::Low`] shares workers
    /// with interactive traffic at the weight ratio instead of
    /// competing head-on (graph-mode batches only — loop-mode fan-out
    /// has no queue to weight).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The pipeline this runner applies.
    pub fn pipeline(&self) -> &FocusPipeline {
        &self.pipeline
    }

    /// One owned service job per workload.
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
    ///
    /// Under [`ExecMode::Graph`] the workloads are not fanned out as
    /// whole runs: every workload is submitted into the shared
    /// [`FocusService`], so stage-level interleaving crosses request
    /// boundaries (a fast request's lowering overlaps a slow request's
    /// synthesis) and the batch shares workers with any concurrent
    /// submitter.
    pub fn run_many(&self, workloads: &[Workload]) -> Vec<PipelineResult> {
        if self.pipeline.exec_mode != ExecMode::Serial {
            return through_service(
                self.jobs_for(workloads).into_iter().map(|j| (j, None)),
                self.priority,
            )
            .into_iter()
            .map(|(result, _)| result)
            .collect();
        }
        workloads
            .par_iter()
            .map(|wl| self.pipeline.run(wl, &self.arch))
            .collect()
    }

    /// Runs heterogeneous jobs (each with its own pipeline/arch), in
    /// parallel, results in input order. This is what config sweeps
    /// use: same workload, many configurations. A batch of all-graph
    /// jobs streams through the shared [`FocusService`] (see
    /// [`BatchRunner::run_many`]); mixed batches fall back to
    /// whole-run fan-out, where graph jobs still submit their own
    /// graphs individually.
    pub fn run_jobs(jobs: &[BatchJob]) -> Vec<PipelineResult> {
        if all_graph(jobs) {
            return through_service(jobs.iter().map(|j| (j.clone(), None)), Priority::Normal)
                .into_iter()
                .map(|(result, _)| result)
                .collect();
        }
        jobs.par_iter().map(BatchJob::run).collect()
    }

    /// Like [`BatchRunner::run_many`], but carries the cycle
    /// simulation through the batch: **one** [`Engine`] is built for
    /// the runner's architecture and shared (it is immutable during
    /// `run`) across the parallel region, so per-result engine
    /// rebuilds and the serial post-pass both disappear. Under
    /// [`ExecMode::Graph`] the simulation rides in each request's
    /// `Finish` node on the shared service, every request sharing the
    /// one engine's `Arc`.
    pub fn run_many_sim(&self, workloads: &[Workload]) -> Vec<(PipelineResult, SimReport)> {
        let engine = Arc::new(Engine::new(self.arch.clone()));
        if self.pipeline.exec_mode != ExecMode::Serial {
            return through_service(
                self.jobs_for(workloads)
                    .into_iter()
                    .map(|j| (j, Some(Arc::clone(&engine)))),
                self.priority,
            )
            .into_iter()
            .map(|(result, report)| (result, report.expect("engine attached")))
            .collect();
        }
        workloads
            .par_iter()
            .map(|wl| {
                let r = self.pipeline.run(wl, &self.arch);
                let rep = engine.run(&r.work_items);
                (r, rep)
            })
            .collect()
    }

    /// Like [`BatchRunner::run_jobs`], but with simulation folded into
    /// the parallel region: one [`Engine`] is constructed per
    /// *distinct* [`ArchConfig`] in the job list (config sweeps share
    /// one arch across hundreds of jobs) and jobs share their engine
    /// through an `Arc`.
    pub fn run_jobs_sim(jobs: &[BatchJob]) -> Vec<(PipelineResult, SimReport)> {
        let mut engines: Vec<Arc<Engine>> = Vec::new();
        let engine_for: Vec<Arc<Engine>> = jobs
            .iter()
            .map(|job| match engines.iter().find(|e| *e.arch() == job.arch) {
                Some(e) => Arc::clone(e),
                None => {
                    let e = Arc::new(Engine::new(job.arch.clone()));
                    engines.push(Arc::clone(&e));
                    e
                }
            })
            .collect();
        if all_graph(jobs) {
            return through_service(
                jobs.iter()
                    .zip(engine_for)
                    .map(|(job, engine)| (job.clone(), Some(engine))),
                Priority::Normal,
            )
            .into_iter()
            .map(|(result, report)| (result, report.expect("engine attached")))
            .collect();
        }
        let pairs: Vec<(&BatchJob, &Arc<Engine>)> = jobs.iter().zip(&engine_for).collect();
        pairs
            .par_iter()
            .map(|(job, engine)| {
                let r = job.run();
                let rep = engine.run(&r.work_items);
                (r, rep)
            })
            .collect()
    }
}

/// Whether **every** job of a non-empty batch runs as a task graph
/// (any schedule but [`ExecMode::Serial`]) — the condition for
/// streaming the batch through the shared service (each submission
/// carries its own depth).
fn all_graph(jobs: &[BatchJob]) -> bool {
    !jobs.is_empty()
        && jobs
            .iter()
            .all(|job| job.pipeline.exec_mode != ExecMode::Serial)
}

/// Deterministic parallel map over a slice: `f` applied to every item,
/// results in input order. The building block `BatchRunner` rides on,
/// exposed for ad-hoc sweeps (ablations, calibration probes) that
/// batch something other than whole pipeline runs.
pub fn par_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    items.par_iter().map(f).collect()
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

//! The task-graph schedule: the measured + lowering phases of a
//! pipeline run decomposed into explicit task nodes with data
//! dependencies, driven by a small work-stealing scheduler core that
//! admits graphs **dynamically** — the persistent
//! [`crate::exec::FocusService`] keeps its workers parked between
//! requests instead of tearing the pool down.
//!
//! # Node inventory (per transformer layer `l`)
//!
//! | node | work | depends on |
//! |---|---|---|
//! | `Sec(l)` | semantic pruning → retained set + positions | `Sec(l-1)` |
//! | `Gather(l,s)` | fused stage `s`: activation synthesis (Box–Muller) streamed tile by tile into the similarity gather | `Sec(l)`, `Gather(l',s)` of the layer `depth` measured-layers back (workspace ring) |
//! | `FoldStats(l)` | pure statistics fold of the four gathers (parallel-safe) | `Gather(l,0..4)` |
//! | `Absorb(l)` | in-order absorption into the measured run | `FoldStats(l)`, `Sec(l)`, `Absorb(l-1)` |
//! | `Lower(l)` | the layer's 7-GEMM lowering to paper-scale work items | `Absorb(l)` |
//! | `Finish` | result assembly (+ optional cycle simulation) | every `Lower(l)` |
//!
//! Only the `Sec` chain and the `Absorb` chain are sequential — they
//! carry the retained-token walk and the in-order statistics fold that
//! make results bit-identical to [`ExecMode::Serial`]. The expensive
//! per-layer statistics reduction (`FoldStats`) floats **outside** the
//! ordered chain: layer *l*'s fold and lowering overlap layer *l+1*'s
//! gathers and SEC at any depth, and since every job shares one
//! scheduler — batches, single runs and streaming frames alike —
//! stages of *different requests* interleave on the same workers, the
//! streaming-serving shape of the paper's architecture.
//!
//! Determinism does not rest on the schedule: every node is a pure
//! function of its input slots (write-once [`OnceLock`]s guarded by
//! the dependency edges), and the two sequential chains pin every
//! order-sensitive reduction. The scheduler therefore never speculates,
//! so it never discards or recomputes work.
//!
//! # Scheduler core
//!
//! [`Core`] is the engine behind [`crate::exec::FocusService`]:
//! per-worker LIFO deques with FIFO stealing, a **weighted fair**
//! global ready queue, and a version-counter park/unpark protocol
//! whose sleep decision happens **under the state lock** (no
//! lost-wakeup window — every producer publishes its push by bumping
//! the version under the same lock a parking worker re-checks before
//! it waits). All internal
//! locking recovers from poisoning, so the first panic payload of a
//! task body is always what propagates — never an opaque
//! `PoisonError`. A panicked job is *skip-drained*: its remaining
//! nodes release their dependents without running, so sibling jobs
//! keep executing and the failed job's waiter gets the original
//! payload.
//!
//! # Fair queueing (no starvation)
//!
//! The global ready queue is a deficit-weighted fair queue over
//! **per-job virtual finish times**, so a saturating stream of High
//! jobs cannot starve everything else. Each [`Priority`] is a *weight*;
//! every task carries a tag
//! `tag = max(virtual_time, job.finish_tag) + quantum(priority)` where
//! the quantum is inversely proportional to the weight, and the global
//! queue pops the **lowest tag first**. Executing any task advances
//! the core's virtual time to that task's tag, so:
//!
//! * a high-weight arrival gets a tag barely above the current virtual
//!   time and still jumps ahead of lower-weight backlogs within about
//!   one node — the old head-of-line bound survives;
//! * a queued low-weight task's tag is **fixed** while virtual time
//!   only moves forward, so it *ages* to the front no matter how fast
//!   higher-weight work keeps arriving. Its wait is bounded by the
//!   weight ratio times the admitted backlog (the in-flight node
//!   bound), independent of the arrival rate — the
//!   `low_job_ages_past_a_saturating_high_flood` test pins the bound.
//!
//! Worker locality survives fairness: released dependents go to the
//! executing worker's LIFO deque, and the deque is preferred whenever
//! its newest task's tag does not trail the global minimum (one atomic
//! load on the fast path).

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use focus_sim::{Engine, SimReport};

use crate::exec::batch::BatchJob;
use crate::exec::executor::{fold_gathers, ExecMode, LayerExecutor, LayerRecord};
use crate::exec::stage::{LayerCtx, StageScratch};
use crate::obs::spans::{Span, SpanKind, SpanLabel};
use crate::pipeline::lower::LayerLowered;
use crate::pipeline::measure::{MeasureAccum, MeasureBuffers};
use crate::pipeline::{PipelineResult, SecLayerStats};
use crate::session::FrameWarm;
use crate::sic::{Fhw, MatrixGatherStats};

/// Locks `m`, recovering the guard when the mutex was poisoned by a
/// panicking holder. Scheduler-internal state stays valid across
/// panics (queues of plain task references, a monotone counter), so
/// recovering is always sound — and it guarantees the *original*
/// panic payload is what a waiter sees, not a `PoisonError` unwrap.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_clean`].
fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Per-request service class of a job submitted to the scheduler core
/// (and to [`crate::exec::FocusService`]). A priority is a **weight**
/// in the deficit-weighted fair queue, not an absolute rank: a
/// [`Priority::High`] job receives [`Priority::weight`] times the node
/// throughput of a [`Priority::Low`] one while both are backlogged,
/// and a latency-sensitive High arrival still runs within about one
/// node (its virtual-finish tag lands just past the current virtual
/// time) — but Low work keeps flowing under any High load, with a wait
/// bounded by the weight ratio times the admitted backlog.
/// Already-running nodes are never preempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: sweeps, prefetch, speculative requests.
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive interactive requests.
    High,
}

impl Priority {
    /// Number of priority levels.
    pub const LEVELS: usize = 3;

    /// Every priority, lowest to highest.
    pub const ALL: [Priority; Priority::LEVELS] = [Priority::Low, Priority::Normal, Priority::High];

    /// Virtual time one node of the **lowest** weight costs; the
    /// quantum of weight `w` is `BASE_QUANTUM / w`. Sized so every
    /// weight divides it exactly — tags stay integral.
    const BASE_QUANTUM: u64 = 4;

    /// Fair-share weight of this class: the node-throughput ratio two
    /// backlogged jobs of different classes receive.
    pub fn weight(self) -> u64 {
        match self {
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Low => 1,
        }
    }

    /// Virtual-time cost of one node at this weight (lower = served
    /// more often while backlogged).
    pub(crate) fn quantum(self) -> u64 {
        Priority::BASE_QUANTUM / self.weight()
    }

    /// Stable index for per-priority counters (High first).
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Handle to a node added to a [`TaskGraph`], used to declare
/// dependencies of later nodes. Only valid within the graph that
/// returned it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TaskId(usize);

struct TaskNode {
    run: Box<dyn Fn() + Send + Sync>,
    deps: Vec<usize>,
    /// Observability identity, when the caller knows the node's role
    /// ([`crate::obs::spans`] records labelled nodes only).
    label: Option<SpanLabel>,
}

/// A directed acyclic graph of tasks. Nodes are closures over shared
/// state they own (typically an `Arc` of one pipeline run); edges
/// declare data dependencies. Build one per unit of work and inject it
/// into a live [`Core`] — the scheduler interleaves nodes across
/// graphs freely.
#[derive(Default)]
pub(crate) struct TaskGraph {
    nodes: Vec<TaskNode>,
}

impl TaskGraph {
    /// An empty graph.
    pub(crate) fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a node that runs `run` once every task in `deps` has
    /// completed. Dependencies must be handles from **this** graph
    /// (later nodes may only depend on earlier ones, so graphs are
    /// acyclic by construction). When tracing is on, every execution
    /// of a node with a `label` records a [`crate::obs::Span`]
    /// carrying the label's kind/layer/stage; unlabelled nodes run
    /// untraced.
    pub(crate) fn add(
        &mut self,
        deps: &[TaskId],
        label: Option<SpanLabel>,
        run: impl Fn() + Send + Sync + 'static,
    ) -> TaskId {
        for d in deps {
            assert!(d.0 < self.nodes.len(), "dependency from another graph");
        }
        self.nodes.push(TaskNode {
            run: Box::new(run),
            deps: deps.iter().map(|d| d.0).collect(),
            label,
        });
        TaskId(self.nodes.len() - 1)
    }
}

/// Flattened node of one admitted job.
struct FlatNode {
    run: Box<dyn Fn() + Send + Sync>,
    dependents: Vec<usize>,
    /// Observability identity (see [`TaskGraph::add`]).
    label: Option<SpanLabel>,
}

/// One admitted graph: the job-tagged unit the core tracks from
/// injection to completion. Task references are `(Arc<JobRun>, node)`
/// pairs, so every queued task carries its job identity — the epoch
/// tag that lets graphs come and go while workers stay up.
pub(crate) struct JobRun {
    /// Monotone admission id (unique per core).
    pub(crate) id: u64,
    /// The fair-queue weight class the job was admitted at.
    priority: Priority,
    /// Virtual-time cost of one node ([`Priority::quantum`], cached).
    quantum: u64,
    /// The job's last issued virtual finish tag: each new task of the
    /// job is tagged `max(virtual_time, finish_tag) + quantum`, so a
    /// backlogged job's tasks march forward in virtual time at a rate
    /// inverse to its weight.
    finish_tag: AtomicU64,
    nodes: Vec<FlatNode>,
    /// Unmet-dependency counters, one per node.
    pending: Vec<AtomicUsize>,
    /// Nodes not yet executed (or skip-drained).
    remaining: AtomicUsize,
    /// Set by the first panicking node; the rest of the job
    /// skip-drains (dependents released, bodies not run).
    panicked: AtomicBool,
    /// The first panic's payload, re-raised to the job's waiter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl JobRun {
    /// Blocks until every node has executed or skip-drained.
    pub(crate) fn wait_done(&self) {
        let mut done = lock_clean(&self.done);
        while !*done {
            done = wait_clean(&self.done_cv, done);
        }
    }

    /// Whether the job has completed (all nodes executed or drained).
    pub(crate) fn is_done(&self) -> bool {
        *lock_clean(&self.done)
    }

    /// Takes the first panic payload, if a node panicked.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_clean(&self.panic).take()
    }
}

/// One runnable node, tagged with its job identity and its virtual
/// finish time in the fair queue.
struct Task {
    job: Arc<JobRun>,
    node: usize,
    /// Virtual finish tag: the fair queue pops the lowest tag first,
    /// and executing the task advances the core's virtual time to it.
    tag: u64,
}

/// A task in the global fair queue, ordered ascending by
/// `(tag, seq)` — `seq` is a monotone tiebreak so equal tags stay
/// FIFO. (`Ord` is inverted because [`BinaryHeap`] is a max-heap.)
struct QueuedTask {
    seq: u64,
    task: Task,
}

impl PartialEq for QueuedTask {
    fn eq(&self, other: &Self) -> bool {
        self.task.tag == other.task.tag && self.seq == other.seq
    }
}
impl Eq for QueuedTask {}
impl PartialOrd for QueuedTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: the max-heap then yields the minimum (tag, seq).
        other
            .task
            .tag
            .cmp(&self.task.tag)
            .then(other.seq.cmp(&self.seq))
    }
}

/// State every producer and every parking worker agrees on under one
/// lock: the global fair queue and the wakeup version counter.
struct CoreState {
    /// Bumped (under this lock) whenever a task is made visible in
    /// *any* queue — global or a worker's local deque — or the core
    /// shuts down. A worker about to park re-reads it under the same
    /// lock, so a push between its queue scan and its wait cannot be
    /// lost: either the version moved (rescan) or the wait starts
    /// before the bump and the accompanying `notify_all` lands on it.
    version: u64,
    /// The weighted fair ready queue, one heap per priority class:
    /// the pop takes the lowest `(tag, seq)` across the (≤ 3) lane
    /// heads, which is exactly the order a single merged heap would
    /// yield — but keeps each class's oldest tag readable at its head,
    /// so the per-class min-tag mirrors (and with them the stats-path
    /// deficit readout) stay O(1). Roots of newly injected jobs land
    /// here.
    ready: [BinaryHeap<QueuedTask>; Priority::LEVELS],
    /// Monotone enqueue counter, the FIFO tiebreak for equal tags.
    seq: u64,
    /// Graceful shutdown: workers exit when they would otherwise park.
    shutdown: bool,
}

/// Arrival-ordered admission: `serving` is the ticket currently
/// allowed to admit; holders of later tickets wait their turn even
/// when their (smaller) request would fit.
#[derive(Default)]
struct AdmissionTickets {
    next: u64,
    serving: u64,
}

/// The scheduler core behind the persistent
/// [`crate::exec::FocusService`]: job-tagged tasks, dynamic graph
/// injection, weighted-fair ready ordering (see the module docs),
/// bounded in-flight nodes, and workers that park (not exit) when
/// idle.
pub(crate) struct Core {
    state: Mutex<CoreState>,
    /// Parked workers wait here; producers notify after bumping
    /// `CoreState::version`.
    work_cv: Condvar,
    /// Per-worker deques: own pops are LIFO (data-hot), steals FIFO.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Nodes admitted but not yet executed/drained, across all jobs.
    inflight: AtomicUsize,
    /// Admission bound: [`Core::inject`] blocks while the batch would
    /// push `inflight` past this (backpressure), unless the core is
    /// empty — an oversized single job is always admitted rather than
    /// deadlocking.
    max_inflight: usize,
    /// FIFO admission tickets: submitters admit strictly in arrival
    /// order, so a large request blocked on space cannot be starved by
    /// a stream of small ones slipping past it.
    admission: Mutex<AdmissionTickets>,
    space_cv: Condvar,
    admission_waiters: AtomicUsize,
    /// The fair queue's virtual clock: advanced to every executed
    /// task's tag. A queued task's tag is fixed, so advancing virtual
    /// time is what ages it to the front.
    virtual_time: AtomicU64,
    /// Lowest tag currently in the global fair queue (`u64::MAX` when
    /// empty) — the lock-free fast path a worker probes to decide
    /// whether its own deque may run ahead of the global queue.
    /// Maintained under the state lock on every push/pop.
    global_min_tag: AtomicU64,
    /// Lowest tag queued per priority class (`u64::MAX` for an empty
    /// lane), mirroring the lane heap heads. Maintained under the
    /// state lock on every push/pop so `deficit_by_priority` is a
    /// plain atomic read — a kHz-polling stats consumer never touches
    /// the state lock, let alone scans the queue under it.
    class_min_tag: [AtomicU64; Priority::LEVELS],
    /// Tasks currently in the global fair queue, per priority class.
    queued: [AtomicUsize; Priority::LEVELS],
    /// Nodes executed (or skip-drained), per priority class.
    served: [AtomicU64; Priority::LEVELS],
    /// Workers currently blocked in the park wait.
    parked: AtomicUsize,
    /// Cumulative park entries (a parked worker does not re-enter; a
    /// spinning one would).
    parks: AtomicU64,
    /// Jobs fully completed (executed or skip-drained).
    jobs_done: AtomicU64,
    next_job: AtomicU64,
}

impl Core {
    /// A core with `threads` worker slots and an in-flight node bound.
    pub(crate) fn new(threads: usize, max_inflight: usize) -> Self {
        let threads = threads.max(1);
        Core {
            state: Mutex::new(CoreState {
                version: 0,
                ready: std::array::from_fn(|_| BinaryHeap::new()),
                seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            inflight: AtomicUsize::new(0),
            max_inflight: max_inflight.max(1),
            admission: Mutex::new(AdmissionTickets::default()),
            space_cv: Condvar::new(),
            admission_waiters: AtomicUsize::new(0),
            virtual_time: AtomicU64::new(0),
            global_min_tag: AtomicU64::new(u64::MAX),
            class_min_tag: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            queued: Default::default(),
            served: Default::default(),
            parked: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
        }
    }

    /// Worker slots.
    pub(crate) fn threads(&self) -> usize {
        self.locals.len()
    }

    /// Workers currently parked on the wakeup condvar.
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Cumulative number of times a worker entered the parked state.
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::SeqCst)
    }

    /// Nodes admitted but not yet executed or drained.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// In-flight node bound.
    pub(crate) fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Jobs completed since the core started.
    pub(crate) fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::SeqCst)
    }

    /// Nodes executed (or skip-drained) per priority class.
    pub(crate) fn served_by_priority(&self) -> [u64; Priority::LEVELS] {
        std::array::from_fn(|i| self.served[i].load(Ordering::SeqCst))
    }

    /// Tasks currently in the global fair queue per priority class.
    pub(crate) fn queued_by_priority(&self) -> [usize; Priority::LEVELS] {
        std::array::from_fn(|i| self.queued[i].load(Ordering::SeqCst))
    }

    /// Per-priority *deficit*: how far (in virtual time) each class's
    /// oldest queued task trails the virtual clock — the live aging
    /// debt the fair queue owes that class. Zero for classes with
    /// nothing queued or whose head is not yet due. O(1): reads the
    /// per-class min-tag mirrors maintained by every push/pop, so even
    /// a kHz-polling stats consumer never contends with workers for
    /// the state lock.
    pub(crate) fn deficit_by_priority(&self) -> [u64; Priority::LEVELS] {
        let vt = self.virtual_time.load(Ordering::SeqCst);
        std::array::from_fn(|i| {
            let oldest = self.class_min_tag[i].load(Ordering::SeqCst);
            if oldest == u64::MAX {
                0
            } else {
                vt.saturating_sub(oldest)
            }
        })
    }

    /// Issues the next virtual finish tag for a task of `job`:
    /// `max(virtual_time, job.finish_tag) + quantum`. Lock-free (CAS
    /// on the job's finish tag) so dependent release on the execution
    /// hot path never takes the state lock just to tag.
    fn next_tag(&self, job: &JobRun) -> u64 {
        let vt = self.virtual_time.load(Ordering::SeqCst);
        let mut cur = job.finish_tag.load(Ordering::SeqCst);
        loop {
            let proposed = cur.max(vt) + job.quantum;
            match job
                .finish_tag
                .compare_exchange(cur, proposed, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return proposed,
                Err(now) => cur = now,
            }
        }
    }

    /// Re-publishes the min-tag mirrors of lane `lane` and the global
    /// fast path from the lane heap heads (state lock held).
    fn refresh_min_tags(&self, st: &CoreState, lane: usize) {
        let lane_min = st.ready[lane].peek().map_or(u64::MAX, |e| e.task.tag);
        self.class_min_tag[lane].store(lane_min, Ordering::SeqCst);
        let global = st
            .ready
            .iter()
            .filter_map(|heap| heap.peek())
            .map(|e| e.task.tag)
            .min()
            .unwrap_or(u64::MAX);
        self.global_min_tag.store(global, Ordering::SeqCst);
    }

    /// Pushes a task into the global fair queue (state lock held),
    /// keeping the min-tag fast paths and the per-priority depth in
    /// sync.
    fn push_global(&self, st: &mut CoreState, task: Task) {
        let lane = task.job.priority.index();
        self.queued[lane].fetch_add(1, Ordering::SeqCst);
        let seq = st.seq;
        st.seq += 1;
        st.ready[lane].push(QueuedTask { seq, task });
        self.refresh_min_tags(st, lane);
    }

    /// Pops the lowest-`(tag, seq)` task across the lane heaps (state
    /// lock held) — the exact order one merged heap would yield, since
    /// `seq` is globally unique — maintaining the same bookkeeping.
    fn pop_global(&self, st: &mut CoreState) -> Option<Task> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (lane, heap) in st.ready.iter().enumerate() {
            if let Some(head) = heap.peek() {
                let key = (head.task.tag, head.seq);
                if best.is_none_or(|(tag, seq, _)| key < (tag, seq)) {
                    best = Some((key.0, key.1, lane));
                }
            }
        }
        let (_, _, lane) = best?;
        let entry = st.ready[lane].pop().expect("lane head just peeked");
        self.queued[lane].fetch_sub(1, Ordering::SeqCst);
        self.refresh_min_tags(st, lane);
        Some(entry.task)
    }

    /// Makes `new_tasks` queued tasks visible to parked workers: the
    /// version bump happens under the state lock **after** the tasks
    /// are already in queues, so a worker that re-checks the version
    /// before sleeping either sees the bump (and rescans) or is
    /// already inside the wait when a notification lands. Wakes at
    /// most `new_tasks` sleepers instead of the whole pool — a worker
    /// counted in `parked` is committed to the wait (the counter is
    /// incremented under the same lock), so the readout after the
    /// bump is exact and nobody sleeps through work.
    fn publish(&self, new_tasks: usize) {
        let mut st = lock_clean(&self.state);
        st.version += 1;
        drop(st);
        let sleepers = self.parked.load(Ordering::SeqCst);
        for _ in 0..new_tasks.min(sleepers) {
            self.work_cv.notify_one();
        }
    }

    /// Blocks until `n` more nodes fit under the in-flight bound (or
    /// the core is empty). Admission is strictly FIFO (ticketed): a
    /// large request waiting for the core to drain holds its place,
    /// so later small submissions queue behind it instead of starving
    /// it. Node completions notify `space_cv`.
    fn admit(&self, n: usize) {
        let mut tickets = lock_clean(&self.admission);
        let ticket = tickets.next;
        tickets.next += 1;
        self.admission_waiters.fetch_add(1, Ordering::SeqCst);
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if tickets.serving == ticket && (cur == 0 || cur + n <= self.max_inflight) {
                // Reserve under the admission lock: `inflight` can only
                // shrink concurrently, so the check stays conservative.
                self.inflight.fetch_add(n, Ordering::SeqCst);
                tickets.serving += 1;
                break;
            }
            tickets = wait_clean(&self.space_cv, tickets);
        }
        self.admission_waiters.fetch_sub(1, Ordering::SeqCst);
        drop(tickets);
        // Hand the turn to the next ticket holder (it may already fit).
        self.space_cv.notify_all();
    }

    /// Admits `graph` at `priority` — at any time, including while
    /// workers are mid-batch — and returns its job handle. Blocks for
    /// admission space (see [`Core::admit`]). An empty graph completes
    /// immediately.
    pub(crate) fn inject(&self, graph: TaskGraph, priority: Priority) -> Arc<JobRun> {
        let total = graph.nodes.len();
        let mut nodes: Vec<FlatNode> = Vec::with_capacity(total);
        let mut pending: Vec<AtomicUsize> = Vec::with_capacity(total);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (id, node) in graph.nodes.into_iter().enumerate() {
            pending.push(AtomicUsize::new(node.deps.len()));
            edges.extend(node.deps.iter().map(|&d| (d, id)));
            nodes.push(FlatNode {
                run: node.run,
                dependents: Vec::new(),
                label: node.label,
            });
        }
        for (from, to) in edges {
            nodes[from].dependents.push(to);
        }
        let job = Arc::new(JobRun {
            id: self.next_job.fetch_add(1, Ordering::SeqCst),
            priority,
            quantum: priority.quantum(),
            finish_tag: AtomicU64::new(0),
            nodes,
            pending,
            remaining: AtomicUsize::new(total),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if total == 0 {
            *lock_clean(&job.done) = true;
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            return job;
        }
        self.admit(total);
        let roots: Vec<usize> = job
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.load(Ordering::SeqCst) == 0)
            .map(|(id, _)| id)
            .collect();
        debug_assert!(!roots.is_empty(), "a non-empty DAG has a root");
        let n_roots = roots.len();
        {
            let mut st = lock_clean(&self.state);
            for r in roots {
                let tag = self.next_tag(&job);
                self.push_global(
                    &mut st,
                    Task {
                        job: job.clone(),
                        node: r,
                        tag,
                    },
                );
            }
        }
        self.publish(n_roots);
        job
    }

    /// Asks workers to exit once the backlog drains: busy workers
    /// finish queued work; parked workers wake and leave.
    pub(crate) fn shutdown(&self) {
        let mut st = lock_clean(&self.state);
        st.shutdown = true;
        st.version += 1;
        drop(st);
        self.work_cv.notify_all();
    }

    fn pop_local(&self, worker: usize) -> Option<Task> {
        lock_clean(&self.locals[worker]).pop_back()
    }

    /// The fairness-ordered fast path: the worker's own LIFO deque
    /// when its newest task is at least as due as the global minimum
    /// tag (one atomic load — locality wins whenever fairness permits),
    /// the global fair queue otherwise.
    fn next_ready(&self, worker: usize) -> Option<Task> {
        let global_min = self.global_min_tag.load(Ordering::SeqCst);
        {
            let mut dq = lock_clean(&self.locals[worker]);
            if let Some(task) = dq.back() {
                if task.tag <= global_min {
                    return dq.pop_back();
                }
            }
        }
        if global_min != u64::MAX {
            let mut st = lock_clean(&self.state);
            if let Some(task) = self.pop_global(&mut st) {
                return Some(task);
            }
        }
        // The global pop raced empty (or the min-tag read was stale):
        // fall back to whatever the local deque holds.
        self.pop_local(worker)
    }

    /// Steals FIFO from peers' deques (their oldest — and roughly
    /// lowest-tagged — task).
    fn steal(&self, worker: usize) -> Option<Task> {
        let n = self.locals.len();
        (1..n).find_map(|i| lock_clean(&self.locals[(worker + i) % n]).pop_front())
    }

    /// Runs (or skip-drains) one node, releases its dependents, and
    /// retires it against the job and the admission bound. Service of
    /// any node advances the fair queue's virtual clock to the node's
    /// tag — what ages every still-queued task toward the front.
    fn exec(&self, worker: usize, task: Task) {
        let Task { job, node, tag } = task;
        self.virtual_time.fetch_max(tag, Ordering::SeqCst);
        self.served[job.priority.index()].fetch_add(1, Ordering::SeqCst);
        let flat = &job.nodes[node];
        if job.panicked.load(Ordering::SeqCst) {
            // Skip-drain: the job already failed — release structure,
            // run nothing, so siblings proceed and waiters unblock.
        } else {
            // Span recording is observation only — timestamps around
            // the body, ring write after it — so a traced run stays
            // bit-identical to an untraced one. The untraced cost is
            // the one relaxed load in `spans::enabled()`.
            let span_at = match flat.label {
                Some(_) if crate::obs::spans::enabled() => Some(crate::obs::clock::now_micros()),
                _ => None,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| (flat.run)()));
            if let (Some(t_start_us), Some(label)) = (span_at, flat.label) {
                crate::obs::spans::record(&Span {
                    job: job.id,
                    kind: label.kind,
                    layer: label.layer,
                    stage: label.stage,
                    worker,
                    priority: job.priority.index(),
                    tag,
                    t_start_us,
                    t_end_us: crate::obs::clock::now_micros(),
                });
            }
            if let Err(payload) = outcome {
                let mut slot = lock_clean(&job.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                job.panicked.store(true, Ordering::SeqCst);
            }
        }

        let mut released = 0;
        for &d in &flat.dependents {
            if job.pending[d].fetch_sub(1, Ordering::SeqCst) == 1 {
                let tag = self.next_tag(&job);
                lock_clean(&self.locals[worker]).push_back(Task {
                    job: job.clone(),
                    node: d,
                    tag,
                });
                released += 1;
            }
        }
        if released > 0 {
            self.publish(released);
        }

        self.inflight.fetch_sub(1, Ordering::SeqCst);
        if self.admission_waiters.load(Ordering::SeqCst) > 0 {
            let _guard = lock_clean(&self.admission);
            self.space_cv.notify_all();
        }

        if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Count the job complete *before* waking its waiter, so a
            // returned `wait()` always sees itself in `jobs_done`.
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            let mut done = lock_clean(&job.done);
            *done = true;
            drop(done);
            job.done_cv.notify_all();
        }
    }

    /// The worker loop: the fairness-ordered fast path first (own
    /// deque LIFO while its newest tag does not trail the global
    /// minimum — so a latency-sensitive high-weight arrival, whose tag
    /// lands just past the virtual clock, is picked up within about
    /// one node), then an authoritative global pop, then the own deque
    /// again, then FIFO steals — and when all run dry, park on the
    /// condvar until a producer publishes. The park decision re-checks
    /// the version **under the state lock**, closing the
    /// scan-then-sleep race. Exits only on [`Core::shutdown`] (and
    /// only once there is nothing left to do).
    pub(crate) fn worker(&self, worker: usize) {
        loop {
            if let Some(task) = self.next_ready(worker) {
                self.exec(worker, task);
                continue;
            }
            let (global, seen) = {
                let mut st = lock_clean(&self.state);
                (self.pop_global(&mut st), st.version)
            };
            if let Some(task) = global {
                self.exec(worker, task);
                continue;
            }
            if let Some(task) = self.pop_local(worker) {
                self.exec(worker, task);
                continue;
            }
            if let Some(task) = self.steal(worker) {
                self.exec(worker, task);
                continue;
            }
            let mut st = lock_clean(&self.state);
            if st.version != seen {
                continue; // work appeared since the scan — rescan
            }
            if st.shutdown {
                return;
            }
            self.parks.fetch_add(1, Ordering::SeqCst);
            self.parked.fetch_add(1, Ordering::SeqCst);
            while st.version == seen && !st.shutdown {
                st = wait_clean(&self.work_cv, st);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The `Sec(l)` node's output slot: everything downstream nodes of the
/// layer read.
struct LayerInput {
    /// Retained tokens entering the layer.
    retained_in: usize,
    /// Post-prune retained set (what the gathers and the next layer's
    /// SEC see).
    retained: Vec<usize>,
    /// `(frame, row, col)` positions of `retained` (empty when the
    /// layer does not measure).
    positions: Vec<Option<Fhw>>,
    /// SEC statistics when this layer pruned.
    sec: Option<SecLayerStats>,
    /// Whether the gather stages run at this layer.
    measured: bool,
}

/// One node of a [`PipelineGraph`], identified by role: the unit
/// [`PipelineGraph::plan`] emits and [`PipelineGraph::run_node`]
/// dispatches on. Keeping the topology (`plan`) separate from the
/// bodies lets [`crate::exec::node_inventory`] count a run's nodes
/// without wiring or running them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Semantic pruning of one layer (sequential chain).
    Sec(usize),
    /// The fused (layer, stage) node on ring `slot`'s workspace:
    /// activation synthesis streamed tile by tile into the similarity
    /// gather.
    Gather {
        /// Layer index.
        layer: usize,
        /// Gather-stage index.
        stage: usize,
        /// Workspace ring slot.
        slot: usize,
    },
    /// Pure statistics fold of the layer's four gathers — parallel
    /// across layers, off the ordered chain.
    FoldStats(usize),
    /// In-order absorption into the measured run (sequential chain).
    Absorb(usize),
    /// The layer's 7-GEMM lowering at paper scale.
    Lower(usize),
    /// Result assembly + optional cycle simulation.
    Finish,
}

impl NodeKind {
    /// The observability identity of this node: its public
    /// [`SpanKind`] plus layer/stage coordinates (ring slots are a
    /// workspace detail and stay out of spans).
    pub(crate) fn span_label(self) -> SpanLabel {
        match self {
            NodeKind::Sec(layer) => SpanLabel {
                kind: SpanKind::Sec,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Gather { layer, stage, .. } => SpanLabel {
                kind: SpanKind::Gather,
                layer: Some(layer),
                stage: Some(stage),
            },
            NodeKind::FoldStats(layer) => SpanLabel {
                kind: SpanKind::FoldStats,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Absorb(layer) => SpanLabel {
                kind: SpanKind::Absorb,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Lower(layer) => SpanLabel {
                kind: SpanKind::Lower,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Finish => SpanLabel::bare(SpanKind::Finish),
        }
    }
}

/// One pipeline run expressed as a task graph: the inputs it owns, the
/// shared state every node reads and writes, and the node topology
/// ([`PipelineGraph::plan`]). [`crate::exec::FocusService`] holds one
/// per admitted request in an `Arc` shared by the request's node
/// closures and its handle.
pub(crate) struct PipelineGraph {
    /// The run's pipeline configuration, workload and architecture.
    job: BatchJob,
    /// When present, `Finish` also runs the cycle simulation.
    engine: Option<Arc<Engine>>,
    /// Fused workspaces per gather stage (the ring length).
    depth: usize,
    /// Node inventory: stages, workspace ring, measurement predicate.
    exec: LayerExecutor,
    /// The initial retained set (`0..m_img`), `Sec(0)`'s input.
    initial: Vec<usize>,
    m_img: usize,
    inputs: Vec<OnceLock<LayerInput>>,
    /// Per-(layer, stage) gather statistics, consumed by `FoldStats`.
    gathered: Vec<Mutex<Option<MatrixGatherStats>>>,
    /// Per-layer folded records (`FoldStats` output, `Absorb` input).
    records: Vec<Mutex<Option<LayerRecord>>>,
    accum: Mutex<Option<MeasureAccum>>,
    lowered: Vec<Mutex<Option<LayerLowered>>>,
    result: Mutex<Option<(PipelineResult, Option<SimReport>)>>,
    /// Measure-accumulator buffers deposited by `Finish`, for the
    /// owning session to reclaim into the next frame.
    recycled: Mutex<Option<MeasureBuffers>>,
    /// The owning session's cross-frame temporal cache, when temporal
    /// concentration is enabled: FP16 gather nodes probe/commit through
    /// it (INT8 gathers never carry — see [`crate::exec::GatherStage::gather`]).
    /// The session retains its own `Arc` (no reclaim needed).
    temporal: Option<Arc<crate::sic::TemporalCache>>,
}

impl PipelineGraph {
    /// Prepares the shared state of one run of `job` at pipeline depth
    /// `depth` (≥ 1 fused workspaces — in-flight layers — per gather
    /// stage), optionally over session-donated warm state: the shared
    /// retention plan plus recycled stage scratch and measure buffers.
    /// Bit-identical to a cold build — warm state is allocation/plan
    /// reuse only.
    pub(crate) fn with_warm(
        job: BatchJob,
        depth: usize,
        engine: Option<Arc<Engine>>,
        warm: Option<FrameWarm>,
    ) -> Self {
        let depth = depth.max(1);
        let (plan, scratch, measure, temporal) = match warm {
            Some(warm) => (Some(warm.plan), warm.scratch, warm.measure, warm.temporal),
            None => (None, None, None, None),
        };
        let exec = LayerExecutor::with_parts(
            &job.pipeline,
            &job.workload,
            ExecMode::Graph { depth },
            plan,
            scratch,
        );
        let layers_n = exec.layers();
        let m_img = job.workload.image_tokens_scaled();
        let stages_n = exec.gather_stages().len();
        let accum = MeasureAccum::with_buffers(m_img, layers_n, measure.unwrap_or_default());
        PipelineGraph {
            job,
            engine,
            depth,
            exec,
            initial: (0..m_img).collect(),
            m_img,
            inputs: (0..layers_n).map(|_| OnceLock::new()).collect(),
            gathered: (0..layers_n * stages_n).map(|_| Mutex::new(None)).collect(),
            records: (0..layers_n).map(|_| Mutex::new(None)).collect(),
            accum: Mutex::new(Some(accum)),
            lowered: (0..layers_n).map(|_| Mutex::new(None)).collect(),
            result: Mutex::new(None),
            recycled: Mutex::new(None),
            temporal,
        }
    }

    /// The run's node topology: `(dependencies, kind)` per node, in
    /// insertion order (a dependency index always precedes its
    /// dependent, mirroring [`TaskGraph::add`]'s contract). The
    /// service wires each entry into a node closure over the run's
    /// `Arc`.
    pub(crate) fn plan(&self) -> Vec<(Vec<usize>, NodeKind)> {
        let layers_n = self.exec.layers();
        let stages_n = self.exec.gather_stages().len();
        let mut nodes: Vec<(Vec<usize>, NodeKind)> = Vec::new();
        let mut prev_sec: Option<usize> = None;
        let mut prev_absorb: Option<usize> = None;
        // Gather nodes of earlier measured layers, for the workspace
        // ring edges.
        let mut measured_gathers: Vec<Vec<usize>> = Vec::new();
        let mut lower_ids: Vec<usize> = Vec::new();
        for layer in 0..layers_n {
            let sec = nodes.len();
            nodes.push((prev_sec.into_iter().collect(), NodeKind::Sec(layer)));
            let mut absorb_deps: Vec<usize> = vec![sec];
            if self.exec.measures_at(layer) {
                let ord = measured_gathers.len();
                let slot = ord % self.depth;
                // A ring slot frees once the gather `depth` measured
                // layers back has consumed it.
                let ring_frees: Vec<Option<usize>> = match ord.checked_sub(self.depth) {
                    Some(prior) => measured_gathers[prior].iter().map(|&g| Some(g)).collect(),
                    None => vec![None; stages_n],
                };
                let mut gathers = Vec::with_capacity(stages_n);
                for (stage, ring_free) in ring_frees.into_iter().enumerate() {
                    let mut deps = vec![sec];
                    deps.extend(ring_free);
                    gathers.push(nodes.len());
                    nodes.push((deps, NodeKind::Gather { layer, stage, slot }));
                }
                let fold = nodes.len();
                nodes.push((gathers.clone(), NodeKind::FoldStats(layer)));
                absorb_deps.push(fold);
                measured_gathers.push(gathers);
            }
            absorb_deps.extend(prev_absorb);
            let absorb = nodes.len();
            nodes.push((absorb_deps, NodeKind::Absorb(layer)));
            let lower = nodes.len();
            nodes.push((vec![absorb], NodeKind::Lower(layer)));
            lower_ids.push(lower);
            prev_sec = Some(sec);
            prev_absorb = Some(absorb);
        }
        nodes.push((lower_ids, NodeKind::Finish));
        nodes
    }

    /// Runs one node body.
    pub(crate) fn run_node(&self, kind: NodeKind) {
        match kind {
            NodeKind::Sec(layer) => self.sec_task(layer),
            NodeKind::Gather { layer, stage, slot } => self.gather_task(layer, stage, slot),
            NodeKind::FoldStats(layer) => self.fold_stats_task(layer),
            NodeKind::Absorb(layer) => self.absorb_task(layer),
            NodeKind::Lower(layer) => self.lower_task(layer),
            NodeKind::Finish => self.finish_task(),
        }
    }

    /// Per-[`SpanKind`] node counts of this run's plan — what one
    /// traced frame contributes to the span rings, for inventory
    /// assertions (the `trace_run` bin checks recorded spans against
    /// this).
    pub(crate) fn span_inventory(&self) -> [(SpanKind, usize); SpanKind::ALL.len()] {
        let mut counts = SpanKind::ALL.map(|kind| (kind, 0usize));
        for (_, kind) in self.plan() {
            counts[kind.span_label().kind.index()].1 += 1;
        }
        counts
    }

    /// The layer's finished [`LayerInput`] (its `Sec` node ran).
    fn input(&self, layer: usize) -> &LayerInput {
        self.inputs[layer].get().expect("Sec node ran first")
    }

    fn sec_task(&self, layer: usize) {
        let prev: &[usize] = if layer == 0 {
            &self.initial
        } else {
            &self.input(layer - 1).retained
        };
        let ctx = LayerCtx {
            workload: &self.job.workload,
            layer,
            retained: prev,
            positions: &[],
        };
        let (retained, sec) = match self.exec.semantic().prune_layer(&ctx) {
            Some((kept, stats)) => (kept, Some(stats)),
            None => (prev.to_vec(), None),
        };
        let measured = self.exec.measures_at(layer);
        let positions: Vec<Option<Fhw>> = if !measured {
            Vec::new()
        } else if retained.len() == self.m_img && retained.iter().copied().eq(0..retained.len()) {
            // The full retained set: copy the plan's position table
            // (derived once per run — or once per session) instead of
            // decoding every token again.
            self.exec.plan().full_positions().to_vec()
        } else {
            retained
                .iter()
                .map(|&t| Some(self.exec.layouter().position_of(t)))
                .collect()
        };
        let set = self.inputs[layer].set(LayerInput {
            retained_in: prev.len(),
            retained,
            positions,
            sec,
            measured,
        });
        assert!(set.is_ok(), "Sec({layer}) ran twice");
    }

    /// Context of a measured layer, borrowing the `Sec` node's output.
    fn ctx(&self, layer: usize) -> LayerCtx<'_> {
        let input = self.input(layer);
        LayerCtx {
            workload: &self.job.workload,
            layer,
            retained: &input.retained,
            positions: &input.positions,
        }
    }

    fn gather_task(&self, layer: usize, stage: usize, slot: usize) {
        let ws = self.exec.workspace(stage, slot);
        let temporal = self.temporal.as_deref().map(|cache| (cache, stage));
        let stats = self.exec.gather_stages()[stage].gather(
            &self.ctx(layer),
            &mut lock_clean(ws),
            temporal,
        );
        let stages_n = self.exec.gather_stages().len();
        *lock_clean(&self.gathered[layer * stages_n + stage]) = Some(stats);
    }

    /// The pure half of a layer's fold: reduces the four gathers'
    /// statistics into the layer's [`LayerRecord`]. No cross-layer
    /// state — layers fold concurrently, off the ordered chain, in the
    /// same fixed stage order as every other schedule, so the
    /// arithmetic is bit-identical.
    fn fold_stats_task(&self, layer: usize) {
        let input = self.input(layer);
        let mut record = LayerRecord::empty(input.retained_in, true, input.sec.clone());
        let stages_n = self.exec.gather_stages().len();
        let outputs: Vec<MatrixGatherStats> = (0..stages_n)
            .map(|s| {
                lock_clean(&self.gathered[layer * stages_n + s])
                    .take()
                    .expect("gather node ran")
            })
            .collect();
        fold_gathers(&mut record, outputs, input.retained.len());
        *lock_clean(&self.records[layer]) = Some(record);
    }

    /// The order-sensitive half: absorbs the layer's record into the
    /// accumulator. Chained on `Absorb(l-1)` — the only sequential
    /// work per layer is this cheap accumulation, so the critical path
    /// does not carry the statistics reduction.
    fn absorb_task(&self, layer: usize) {
        let input = self.input(layer);
        let record = if input.measured {
            lock_clean(&self.records[layer])
                .take()
                .expect("FoldStats node ran")
        } else {
            LayerRecord::empty(input.retained_in, false, input.sec.clone())
        };
        let mut accum = lock_clean(&self.accum);
        accum
            .as_mut()
            .expect("accum taken only at finish")
            .absorb(layer, record, &input.retained);
    }

    fn lower_task(&self, layer: usize) {
        // Clone the two finalised layer stats out of the accumulator so
        // the (expensive) lowering runs outside its lock — `Lower`
        // nodes of different layers stay concurrent.
        let (stats, prev) = {
            let accum = lock_clean(&self.accum);
            let layer_stats = accum.as_ref().expect("accum live").layer_stats();
            (
                layer_stats[layer].clone(),
                (layer > 0).then(|| layer_stats[layer - 1].clone()),
            )
        };
        let job = &self.job;
        let lowered = job.pipeline.lower_layer(
            &job.workload,
            &job.arch,
            self.m_img,
            layer,
            &stats,
            prev.as_ref(),
        );
        *lock_clean(&self.lowered[layer]) = Some(lowered);
    }

    fn finish_task(&self) {
        let accum = lock_clean(&self.accum).take().expect("finish runs once");
        let job = &self.job;
        let (run, buffers) = accum.finish_recycling(&job.workload);
        *lock_clean(&self.recycled) = Some(buffers);
        let per_layer: Vec<LayerLowered> = self
            .lowered
            .iter()
            .map(|slot| lock_clean(slot).take().expect("lower node ran"))
            .collect();
        let result = job
            .pipeline
            .assemble(&job.workload, &job.arch, run, per_layer);
        let report = self
            .engine
            .as_ref()
            .map(|engine| engine.run(&result.work_items));
        *lock_clean(&self.result) = Some((result, report));
    }

    /// Extracts the run's result without consuming the state (the
    /// service holds the state in an `Arc`): the assembled result and
    /// the cycle report if an engine was attached.
    pub(crate) fn take_result(&self) -> (PipelineResult, Option<SimReport>) {
        lock_clean(&self.result)
            .take()
            .expect("scheduler completed the graph")
    }

    /// Reclaims the frame's recyclable warm state once the job has
    /// completed (executed **or** skip-drained): the workload-
    /// independent stage scratch and — when `Finish` actually ran —
    /// the measure buffers. Recovers from workspace mutexes poisoned
    /// by a panicked node; the scratch itself is re-planned from zero
    /// by its next frame, so mid-write contents are harmless.
    pub(crate) fn reclaim_warm(&self) -> (Vec<StageScratch>, Option<MeasureBuffers>) {
        (
            self.exec.reclaim_scratch(),
            lock_clean(&self.recycled).take(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A counter shared between a test and its node closures.
    fn counter() -> Arc<AtomicU32> {
        Arc::new(AtomicU32::new(0))
    }

    /// A chain of `len` unlabelled nodes, each bumping `ran`.
    fn counting_chain(len: usize, ran: &Arc<AtomicU32>) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..len {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let ran = Arc::clone(ran);
            prev = Some(g.add(&deps, None, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        g
    }

    /// Runs `body` while `core`'s workers serve, then shuts the core
    /// down and joins them — also when `body` panics, so a failed
    /// assertion fails the test instead of hanging it.
    fn with_workers<R>(core: &Core, body: impl FnOnce() -> R) -> R {
        struct Shutdown<'a>(&'a Core);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.shutdown();
            }
        }
        std::thread::scope(|s| {
            for w in 0..core.threads() {
                s.spawn(move || core.worker(w));
            }
            let _shutdown = Shutdown(core);
            body()
        })
    }

    #[test]
    fn scheduler_respects_dependencies() {
        // A diamond: root fans out to two middles joined by a sink.
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        let push = |v: u32| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(v)
        };
        let mut graph = TaskGraph::new();
        let root = graph.add(&[], None, push(0));
        let a = graph.add(&[root], None, push(1));
        let b = graph.add(&[root], None, push(2));
        graph.add(&[a, b], None, push(3));
        let core = Core::new(4, usize::MAX);
        with_workers(&core, || core.inject(graph, Priority::Normal).wait_done());
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn scheduler_interleaves_many_graphs() {
        let ran = counter();
        let core = Core::new(3, usize::MAX);
        with_workers(&core, || {
            let jobs: Vec<_> = (0..5)
                .map(|_| core.inject(counting_chain(10, &ran), Priority::Normal))
                .collect();
            for job in &jobs {
                job.wait_done();
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 50);
        assert_eq!(core.jobs_done(), 5);
    }

    /// A panicking node fails its graph without deadlocking it: the
    /// node's sibling chain skip-drains, the job completes, and its
    /// waiter re-raises the original payload (as `JobHandle::wait`
    /// does).
    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate() {
        let sibling_ran = counter();
        let mut graph = TaskGraph::new();
        let root = graph.add(&[], None, || {});
        graph.add(&[root], None, || panic!("task boom"));
        let mut prev = root;
        for _ in 0..4 {
            let ran = Arc::clone(&sibling_ran);
            prev = graph.add(&[prev], None, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let core = Core::new(2, usize::MAX);
        let job = with_workers(&core, || {
            let job = core.inject(graph, Priority::Normal);
            job.wait_done();
            job
        });
        assert!(sibling_ran.load(Ordering::SeqCst) <= 4);
        assert_eq!(core.inflight(), 0, "every node retired");
        std::panic::resume_unwind(job.take_panic().expect("the graph panicked"));
    }

    /// A panicking job must not take sibling jobs down with it: the
    /// failed graph skip-drains (its waiter gets the payload), while
    /// the other graph executes every node.
    #[test]
    fn sibling_job_completes_when_another_panics() {
        let sick_ran = counter();
        let healthy_ran = counter();
        let core = Core::new(2, usize::MAX);

        let mut sick = TaskGraph::new();
        let ran = Arc::clone(&sick_ran);
        let root = sick.add(&[], None, move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        let boom = sick.add(&[root], None, || panic!("sick job"));
        sick.add(&[boom], None, || unreachable!("runs after the panic"));

        with_workers(&core, || {
            let sick_job = core.inject(sick, Priority::High);
            let healthy_job = core.inject(counting_chain(20, &healthy_ran), Priority::Low);
            sick_job.wait_done();
            healthy_job.wait_done();
            // The sick job carries its own payload; the healthy one
            // carries none and executed everything.
            let payload = sick_job.take_panic().expect("sick job panicked");
            assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "sick job");
            assert!(healthy_job.take_panic().is_none());
        });
        assert_eq!(sick_ran.load(Ordering::SeqCst), 1, "only the root ran");
        assert_eq!(healthy_ran.load(Ordering::SeqCst), 20);
    }

    /// Internal scheduler mutexes poisoned by a panicking holder must
    /// not surface as an opaque `PoisonError` unwrap — work keeps
    /// flowing through the poisoned queues and a task panic still
    /// re-raises the *original* payload.
    #[test]
    fn poisoned_queue_mutexes_do_not_mask_the_panic_payload() {
        let ran = counter();
        let core = Core::new(2, usize::MAX);
        // Poison a worker deque and the state mutex the way a panicking
        // holder would.
        for poison in [
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = core.locals[0].lock().unwrap();
                panic!("poison the deque");
            })),
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = core.state.lock().unwrap();
                panic!("poison the state");
            })),
        ] {
            assert!(poison.is_err());
        }
        assert!(core.locals[0].lock().is_err(), "deque must be poisoned");
        assert!(core.state.lock().is_err(), "state must be poisoned");

        // A healthy graph still runs to completion through the
        // poisoned locks, and a panicking graph re-raises its own
        // payload, not the poison.
        let mut sick = TaskGraph::new();
        sick.add(&[], None, || panic!("genuine payload"));

        with_workers(&core, || {
            let healthy = core.inject(counting_chain(8, &ran), Priority::Normal);
            let sick = core.inject(sick, Priority::Normal);
            healthy.wait_done();
            sick.wait_done();
            assert!(healthy.take_panic().is_none());
            let payload = sick.take_panic().expect("sick graph panicked");
            assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "genuine payload");
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    /// Hammer concurrent injection against parking workers at every
    /// worker count. A task enqueued between a worker's queue scan and
    /// its condvar wait must wake it; a lost wakeup shows up here as a
    /// hang (the job never completes until an unrelated submission
    /// happens to bump the version).
    #[test]
    fn submit_vs_park_stress() {
        for threads in 1..=4 {
            let executed = counter();
            let core = Core::new(threads, usize::MAX);
            const SUBMITTERS: usize = 4;
            const JOBS_EACH: usize = 32;
            with_workers(&core, || {
                std::thread::scope(|s| {
                    for i in 0..SUBMITTERS {
                        let (core, executed) = (&core, &executed);
                        s.spawn(move || {
                            let mut jobs = Vec::new();
                            for j in 0..JOBS_EACH {
                                // Tiny graphs (1–3 chained nodes) so the
                                // workers park between most injections.
                                let g = counting_chain(1 + (i + j) % 3, executed);
                                let priority = Priority::ALL[(i + j) % Priority::LEVELS];
                                jobs.push(core.inject(g, priority));
                                if j % 8 == 0 {
                                    // Give workers a chance to drain and
                                    // park, so later injections hit
                                    // sleeping workers.
                                    std::thread::yield_now();
                                }
                            }
                            for job in &jobs {
                                job.wait_done();
                            }
                        });
                    }
                });
            });
            let expect: u64 = (0..SUBMITTERS)
                .flat_map(|i| (0..JOBS_EACH).map(move |j| (1 + (i + j) % 3) as u64))
                .sum();
            assert_eq!(
                executed.load(Ordering::SeqCst) as u64,
                expect,
                "{threads} workers"
            );
            assert_eq!(core.jobs_done(), (SUBMITTERS * JOBS_EACH) as u64);
        }
    }

    /// Workers park between jobs instead of spinning or exiting: after
    /// the backlog drains every worker is blocked on the condvar, the
    /// cumulative park count stops moving, and a later injection still
    /// executes (nobody exited).
    #[test]
    fn idle_workers_park_and_resume() {
        let ran = counter();
        let core = Core::new(3, usize::MAX);
        with_workers(&core, || {
            let mut g = TaskGraph::new();
            g.add(&[], None, || {});
            core.inject(g, Priority::Normal).wait_done();

            // Quiesce: all three workers must end up parked.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while core.parked() != 3 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers failed to park; parked = {}",
                    core.parked()
                );
                std::thread::yield_now();
            }
            // A parked worker stays parked — no spin (a spinning worker
            // re-enters the park and bumps the counter).
            let parks = core.parks();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(core.parks(), parks, "parked workers must not spin");

            // And parked ≠ exited: new work still runs.
            core.inject(counting_chain(1, &ran), Priority::High)
                .wait_done();
            assert_eq!(ran.load(Ordering::SeqCst), 1);
        });
    }

    /// The one-node head-of-line bound of [`Priority::High`]: a
    /// high-priority arrival runs as soon as the (single) worker
    /// finishes its current node, not after the in-flight
    /// low-priority chain drains.
    #[test]
    fn high_priority_jumps_ahead_of_a_running_request() {
        let seq = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let core = Core::new(1, usize::MAX);

        let mut low = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..10 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let (seq, gate) = (Arc::clone(&seq), Arc::clone(&gate));
            prev = Some(low.add(&deps, None, move || {
                if i == 0 {
                    // Hold the worker inside the first node until the
                    // high-priority job has been injected.
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                seq.lock().unwrap().push("low");
            }));
        }
        let mut high = TaskGraph::new();
        let high_seq = Arc::clone(&seq);
        high.add(&[], None, move || high_seq.lock().unwrap().push("HIGH"));

        with_workers(&core, || {
            let low_job = core.inject(low, Priority::Low);
            let high_job = core.inject(high, Priority::High);
            gate.store(true, Ordering::SeqCst);
            high_job.wait_done();
            low_job.wait_done();
        });
        let seq = seq.lock().unwrap().clone();
        let pos = seq.iter().position(|s| *s == "HIGH").unwrap();
        assert!(
            pos <= 1,
            "high-priority node must wait for at most one in-flight node, ran at {pos}: {seq:?}"
        );
    }

    /// The anti-starvation half of the fair queue: under a saturating
    /// flood of High jobs (a producer keeps the global queue stocked
    /// for as long as the Low job lives), a Low job still completes,
    /// and the number of High nodes served while it waited stays
    /// within the weight-ratio aging bound. Strict-priority lanes
    /// would run the Low job only after the *entire* flood drained.
    #[test]
    fn low_job_ages_past_a_saturating_high_flood() {
        let low_nodes = 6u64;
        let high_done = counter();
        let low_ran = counter();
        // High nodes served when the Low job's last node runs, read by
        // the worker itself: the waiter's own wake-up latency (long on
        // a loaded machine, while the flood keeps being served) must
        // not count as time the Low job waited.
        let high_at_low_end = counter();
        let low_done = AtomicBool::new(false);
        let core = Core::new(1, usize::MAX);
        let high_during = with_workers(&core, || {
            std::thread::scope(|s| {
                // Prime the flood before the Low job arrives, then keep
                // it saturated: never fewer than 4 High jobs queued
                // until the Low job finishes (bounded at 600 so a
                // starvation bug fails the assertion instead of hanging
                // the suite).
                let producer = s.spawn(|| {
                    let mut injected = 0u64;
                    let mut handles = Vec::new();
                    while !low_done.load(Ordering::SeqCst) && injected < 600 {
                        // Keep 4–8 High jobs outstanding (jobs_done also
                        // counts the Low job once it lands — harmless).
                        while injected.saturating_sub(core.jobs_done()) > 8 {
                            if low_done.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        let mut g = TaskGraph::new();
                        let a = g.add(&[], None, || {});
                        let served = Arc::clone(&high_done);
                        g.add(&[a], None, move || {
                            served.fetch_add(1, Ordering::SeqCst);
                        });
                        handles.push(core.inject(g, Priority::High));
                        injected += 1;
                    }
                    handles
                });

                // Let the flood establish itself, then submit the Low job.
                while core.jobs_done() < 8 {
                    std::thread::yield_now();
                }
                let mut low = TaskGraph::new();
                let mut prev: Option<TaskId> = None;
                for i in 0..low_nodes {
                    let deps: Vec<TaskId> = prev.into_iter().collect();
                    let last = i + 1 == low_nodes;
                    let (served, at_end, ran) = (
                        Arc::clone(&high_done),
                        Arc::clone(&high_at_low_end),
                        Arc::clone(&low_ran),
                    );
                    prev = Some(low.add(&deps, None, move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if last {
                            at_end.store(served.load(Ordering::SeqCst), Ordering::SeqCst);
                        }
                    }));
                }
                let high_before = high_done.load(Ordering::SeqCst) as u64;
                core.inject(low, Priority::Low).wait_done();
                low_done.store(true, Ordering::SeqCst);
                for h in producer.join().unwrap() {
                    h.wait_done();
                }
                high_at_low_end.load(Ordering::SeqCst) as u64 - high_before
            })
        });
        assert_eq!(low_ran.load(Ordering::SeqCst) as u64, low_nodes);
        // Aging bound: each Low node (quantum 4) lets roughly
        // weight-ratio High nodes (quantum 1) pass, plus the
        // already-admitted backlog. Generous 4x slack keeps the bound
        // scheduling-jitter-proof while still catching strict-priority
        // starvation (which serves the full 600-job flood first).
        let ratio = Priority::Low.quantum() / Priority::High.quantum();
        let bound = 4 * (ratio * (low_nodes + 2) + 16);
        assert!(
            high_during <= bound,
            "Low job waited through {high_during} High nodes (bound {bound})"
        );
    }

    /// The in-flight node bound is live: submissions past the bound
    /// block until space frees, an oversized job is still admitted
    /// when the core is idle, and everything completes.
    #[test]
    fn admission_control_bounds_inflight_nodes() {
        let executed = counter();
        let core = Core::new(2, 4);
        assert_eq!(core.max_inflight(), 4);
        with_workers(&core, || {
            // An oversized job (6 nodes > bound 4) admits while idle.
            core.inject(counting_chain(6, &executed), Priority::Normal)
                .wait_done();
            assert_eq!(executed.load(Ordering::SeqCst), 6);

            // A burst of small jobs flows through the bound with
            // backpressure; everything still completes.
            let jobs: Vec<_> = (0..16)
                .map(|_| core.inject(counting_chain(2, &executed), Priority::Normal))
                .collect();
            for job in &jobs {
                job.wait_done();
            }
            assert_eq!(executed.load(Ordering::SeqCst), 6 + 32);
            assert_eq!(core.inflight(), 0, "all admissions retired");
        });
    }

    /// Admission is FIFO: an oversized request waiting for the core to
    /// drain holds its ticket, so a stream of small submissions lands
    /// *behind* it instead of keeping `inflight` non-zero forever and
    /// starving it. The test terminates only if the big job admits.
    #[test]
    fn oversized_admission_is_not_starved_by_small_jobs() {
        let executed = counter();
        let big_ran = counter();
        let core = Core::new(2, 4);
        let chain = |len: usize, ran: &Arc<AtomicU32>| {
            let mut g = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for _ in 0..len {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let (executed, ran) = (Arc::clone(&executed), Arc::clone(ran));
                prev = Some(g.add(&deps, None, move || {
                    executed.fetch_add(1, Ordering::SeqCst);
                    ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }));
            }
            g
        };
        let small = counter();
        with_workers(&core, || {
            std::thread::scope(|s| {
                // Occupy the core, then race an oversized submission (8
                // > bound 4, admits only at inflight == 0) against a
                // stream of small ones submitted after it took its
                // ticket.
                let head = core.inject(chain(3, &small), Priority::Normal);
                let big = s.spawn(|| {
                    core.inject(chain(8, &big_ran), Priority::Normal)
                        .wait_done()
                });
                // Give the big submission time to take its admission
                // ticket before the small stream arrives behind it
                // (bounded spin: if the core drained first, big
                // admitted already and the stream is simply ordinary
                // traffic).
                for _ in 0..10_000 {
                    if core.admission_waiters.load(Ordering::SeqCst) > 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                let trailing: Vec<_> = (0..6)
                    .map(|_| core.inject(chain(2, &small), Priority::Normal))
                    .collect();
                big.join().unwrap();
                head.wait_done();
                for job in &trailing {
                    job.wait_done();
                }
            });
        });
        assert_eq!(
            big_ran.load(Ordering::SeqCst),
            8,
            "the oversized job completed"
        );
        assert_eq!(executed.load(Ordering::SeqCst), 3 + 8 + 12);
    }
}

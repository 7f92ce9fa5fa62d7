//! Kernel-launch timing: a forwarding [`Backend`] wrapper that samples
//! kernel launches into per-family log2 histograms.
//!
//! [`Timed`] is the timing analogue of the tensor crate's `Trace`
//! backend: where `Trace` records *which* launches happen and does no
//! numeric work, `Timed` forwards every call to a real backend
//! unchanged and records *how long* that family of launches takes
//! (through the single [`super::clock`] seam). Because the wrapped
//! backend does the numeric work verbatim, a `Timed(Simd)` run is
//! bit-identical to a bare `Simd` run — timing is observation only.
//!
//! Timing is **sampled**, not exhaustive: a traced run executes
//! hundreds of thousands of kernel launches per frame (the synthesis
//! fill runs once per row group), and paying two clock reads plus
//! shared-cache-line histogram traffic on every one measured at ~25%
//! of the whole graph leg. Each thread instead times the first of
//! every [`SAMPLE_EVERY`] launches — the skip path is one thread-local
//! counter increment — which keeps the observability tax
//! under the snapshot's 2% gate while the hot families still collect
//! thousands of latency samples. Histogram `count()` therefore counts
//! *samples*, not launches.
//!
//! The stage workspaces pick their backend through
//! [`super::kernel_backend`], which returns `timed(active())` when span
//! tracing is on and the bare backend when it is off, so the untraced
//! path never pays even the virtual-call indirection.

use std::cell::Cell;
use std::sync::Mutex;

use focus_tensor::backend::{Backend, BackendHandle, KernelLaunch};
use focus_tensor::matrix::Matrix;

use super::clock;
use super::hist::Histogram;

/// The kernel families timed individually — one histogram per family,
/// matching the launch taxonomy of
/// [`focus_tensor::backend::KernelLaunch`] plus the row-norm pre-pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Compact-norm kernels (`row_norms`).
    Norms,
    /// Gather scoring (`score_pairs`).
    Score,
    /// INT8 fake-quantise round trips and their absmax pre-pass.
    FakeQuantize,
    /// FP16 rounding passes.
    F16Round,
    /// Scatter row replay.
    Scatter,
    /// Deterministic-normal synthesis fill.
    NormalFill,
}

impl KernelFamily {
    /// Every family, in a stable order (indexing and iteration).
    pub const ALL: [KernelFamily; 6] = [
        KernelFamily::Norms,
        KernelFamily::Score,
        KernelFamily::FakeQuantize,
        KernelFamily::F16Round,
        KernelFamily::Scatter,
        KernelFamily::NormalFill,
    ];

    /// Stable display name (registry keys, `trace_run` output).
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Norms => "norms",
            KernelFamily::Score => "score",
            KernelFamily::FakeQuantize => "fake_quantize",
            KernelFamily::F16Round => "f16_round",
            KernelFamily::Scatter => "scatter",
            KernelFamily::NormalFill => "normal_fill",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelFamily::Norms => 0,
            KernelFamily::Score => 1,
            KernelFamily::FakeQuantize => 2,
            KernelFamily::F16Round => 3,
            KernelFamily::Scatter => 4,
            KernelFamily::NormalFill => 5,
        }
    }
}

/// Per-family launch-latency histograms, process-wide (kernel timing
/// is a property of the process's backends, not of one service).
static KERNEL_HISTS: [Histogram; KernelFamily::ALL.len()] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// The launch-latency histogram of one kernel family (microseconds).
/// Counts are launch **samples** (1 in [`SAMPLE_EVERY`] per thread),
/// not total launches.
pub fn kernel_histogram(family: KernelFamily) -> &'static Histogram {
    &KERNEL_HISTS[family.index()]
}

/// Each thread times the first of every `SAMPLE_EVERY` launches.
/// Power of two so the modulo is a mask; 64 bounds the timing overhead
/// at ~1/64 of the exhaustive cost.
pub const SAMPLE_EVERY: u64 = 64;

thread_local! {
    /// Per-thread launch tick driving the sampling decision, shared
    /// across families — one `u64` bump is the entire skip path, and
    /// each family's sampling rate is proportional to its launch
    /// share, which is exactly what the histograms should reflect.
    /// Thread-local on purpose: a shared counter would put one
    /// contended cache line on every kernel launch of every worker,
    /// which is most of the overhead sampling exists to avoid.
    static LAUNCH_TICK: Cell<u64> = const { Cell::new(0) };
}

/// A timing-and-forwarding [`Backend`] wrapper: every kernel method
/// runs on the wrapped backend verbatim, with the wall time of sampled
/// launches (1 in [`SAMPLE_EVERY`] per thread) folded into that
/// family's histogram. Bit-invisible by construction.
#[derive(Debug)]
pub struct Timed {
    inner: BackendHandle,
}

impl Timed {
    /// Wraps `inner`; prefer [`timed`] which deduplicates wrappers.
    pub fn new(inner: BackendHandle) -> Self {
        Timed { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> BackendHandle {
        self.inner
    }

    fn time<R>(&self, family: KernelFamily, launch: impl FnOnce() -> R) -> R {
        let sampled = LAUNCH_TICK.with(|tick| {
            let n = tick.get();
            tick.set(n.wrapping_add(1));
            n % SAMPLE_EVERY == 0
        });
        if !sampled {
            return launch();
        }
        let t0 = clock::now_micros();
        let out = launch();
        KERNEL_HISTS[family.index()].record(clock::now_micros().saturating_sub(t0));
        out
    }
}

impl Backend for Timed {
    fn name(&self) -> &'static str {
        // Keep the wrapped backend's name: `Timed` changes no numeric
        // behaviour, and callers that branch on the name (tests, the
        // bench banner) must not see a different backend.
        self.inner.name()
    }

    fn record(&self, launch: KernelLaunch) {
        self.inner.record(launch);
    }

    fn take_launches(&self) -> Vec<KernelLaunch> {
        self.inner.take_launches()
    }

    fn row_norms(&self, m: &Matrix, rows: &[u32], norms: &mut [f32]) {
        self.time(KernelFamily::Norms, || self.inner.row_norms(m, rows, norms))
    }

    fn score_pairs(&self, m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]) {
        self.time(KernelFamily::Score, || {
            self.inner.score_pairs(m, pairs, norms, scores)
        })
    }

    fn row_absmax(&self, m: &Matrix, absmax: &mut [f32]) {
        self.time(KernelFamily::FakeQuantize, || {
            self.inner.row_absmax(m, absmax)
        })
    }

    fn fake_quantize(&self, m: &mut Matrix, absmax: &[f32]) {
        self.time(KernelFamily::FakeQuantize, || {
            self.inner.fake_quantize(m, absmax)
        })
    }

    fn f16_round(&self, m: &mut Matrix) {
        self.time(KernelFamily::F16Round, || self.inner.f16_round(m))
    }

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        self.time(KernelFamily::Scatter, || {
            self.inner.scatter_rows(partial, reps, out)
        })
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        self.time(KernelFamily::NormalFill, || {
            self.inner.normal_fill(seed, out)
        })
    }
}

/// A `'static` [`Timed`] wrapper around `inner`, deduplicated by the
/// wrapped backend's pointer identity so repeated calls never leak more
/// than one wrapper per distinct backend (the process has a handful of
/// backends, so the registry stays tiny).
pub fn timed(inner: BackendHandle) -> BackendHandle {
    static WRAPPERS: Mutex<Vec<(BackendHandle, &'static Timed)>> = Mutex::new(Vec::new());
    let mut wrappers = WRAPPERS.lock().unwrap_or_else(|p| p.into_inner());
    if let Some((_, wrapper)) = wrappers
        .iter()
        .find(|(raw, _)| std::ptr::eq(*raw as *const dyn Backend, inner as *const dyn Backend))
    {
        return *wrapper;
    }
    let wrapper: &'static Timed = Box::leak(Box::new(Timed::new(inner)));
    wrappers.push((inner, wrapper));
    wrapper
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::backend;

    /// The histograms are process-global; tests asserting exact counts
    /// must not interleave.
    static HIST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn timed_is_deduplicated_per_backend() {
        let inner = backend::active();
        let a = timed(inner);
        let b = timed(inner);
        assert!(
            std::ptr::eq(a as *const dyn Backend, b as *const dyn Backend),
            "same inner backend must reuse one wrapper"
        );
        assert_eq!(a.name(), inner.name(), "timing must not rename a backend");
    }

    #[test]
    fn timed_forwards_numerics_bit_exactly_and_times_the_family() {
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let inner = backend::active();
        let wrapper = timed(inner);
        let row = Matrix::from_rows(&[vec![1.0f32, -2.0, 3.0, 0.5]]);
        let (mut wrapped, mut bare) = ([0.0f32], [0.0f32]);
        wrapper.row_norms(&row, &[0], &mut wrapped);
        inner.row_norms(&row, &[0], &mut bare);
        assert_eq!(wrapped[0].to_bits(), bare[0].to_bits());

        let before = kernel_histogram(KernelFamily::NormalFill).count();
        let mut a = [0.0f32; 64];
        let mut b = [0.0f32; 64];
        // A fresh thread starts its launch tick at 0, so its first
        // launch is always sampled.
        let bits: Vec<u32> = std::thread::spawn(move || {
            wrapper.normal_fill(7, &mut a);
            a.iter().map(|x| x.to_bits()).collect()
        })
        .join()
        .expect("fill thread");
        inner.normal_fill(7, &mut b);
        for (x, y) in bits.iter().zip(&b) {
            assert_eq!(*x, y.to_bits(), "timed fill diverged");
        }
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            before + 1,
            "a thread's first launch is sampled"
        );
    }

    #[test]
    fn launch_timing_samples_one_in_sample_every_per_thread() {
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let wrapper = timed(backend::active());
        let before = kernel_histogram(KernelFamily::NormalFill).count();
        std::thread::spawn(move || {
            let mut buf = [0.0f32; 8];
            for seed in 0..2 * SAMPLE_EVERY {
                wrapper.normal_fill(seed, &mut buf);
            }
        })
        .join()
        .expect("launch thread");
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            before + 2,
            "2×SAMPLE_EVERY launches on one fresh thread time exactly 2 samples"
        );
    }
}

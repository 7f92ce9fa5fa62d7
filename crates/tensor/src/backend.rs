//! Pluggable execution backends for the hot stage kernels.
//!
//! The measured phase spends its time in five kernel families: gather
//! candidate scoring (dot + cosine-with-norms over planned candidate
//! lists), compact-norm computation, the INT8 fake-quantise round trip,
//! scatter row replay, and the activation-synthesis fill. This module
//! puts all five behind one [`Backend`] trait — the InfiniNN
//! `VirtualMachine` pattern — with three implementations:
//!
//! * [`ScalarRef`] — the pre-trait code paths verbatim, kept as the
//!   bit-exactness oracle;
//! * [`Simd`] — the runtime-dispatched AVX2/F16C kernels from
//!   [`crate::math`], extended with tile-batched gather scoring and
//!   norms (eight independent pairs/rows per register pass via
//!   [`crate::math::dot_pairs_chunked`] and
//!   [`crate::math::l2_norms_chunked`], both addressing rows of one
//!   contiguous tile by index) and whole-row fake-quantise
//!   ([`crate::math::int8_round_fill`]). **Bit-identical
//!   to [`ScalarRef`]** lane for lane under the frozen-op-order
//!   discipline (proptest-enforced in `tests/backend_kernels.rs`), so
//!   swapping backends never changes a result, only throughput;
//! * [`Trace`] — a launch recorder that does no numeric work, for
//!   schedule-level tests that only care *which* kernels run in *what*
//!   order.
//!
//! The process-wide default is selected once via the
//! [`BACKEND_ENV`] environment variable (`FOCUS_BACKEND=scalar|simd|trace`)
//! and cached by [`active`]; pipelines can also carry an explicit
//! handle. Note `trace` as a process-wide default produces garbage
//! numerics by design — it exists for targeted tests, not for figures.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::math;
use crate::matrix::Matrix;

/// Environment variable selecting the process-wide default backend
/// (`scalar`, `simd` or `trace`). Unset means `simd` — which is safe
/// as a default precisely because it is bit-identical to `scalar`.
pub const BACKEND_ENV: &str = "FOCUS_BACKEND";

/// How backends are passed around: a `'static` trait-object reference,
/// so handles are `Copy`, and test-local [`Trace`] instances can be
/// created with `Box::leak`.
pub type BackendHandle = &'static dyn Backend;

/// One recorded kernel launch (coarse granularity: one entry per
/// stage-level kernel call, not per row). Only [`Trace`] keeps these;
/// the numeric backends drop them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelLaunch {
    /// One matrix-gather scoring pass: `rows` activation rows against
    /// their planned candidates, `width` columns per vector tile.
    GatherScore {
        /// Activation rows scored.
        rows: usize,
        /// Vector length per column tile.
        width: usize,
    },
    /// One INT8 fake-quantise round trip over a tile.
    FakeQuantize {
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// One FP16 rounding pass over a tile.
    F16Round {
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// One scatter replay of compact rows to full positions.
    Scatter {
        /// Output (full) rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// One activation-synthesis fill of a column range.
    SynthFill {
        /// Token rows synthesised.
        rows: usize,
        /// Columns synthesised per row.
        width: usize,
    },
}

/// The stage-kernel surface. Every method is a whole kernel launch,
/// not a helper: callers hand the backend complete rows/matrices and
/// never open-code the inner loops, so the numeric backend can batch
/// however it likes and [`Trace`] can skip the work entirely.
pub trait Backend: fmt::Debug + Sync {
    /// Stable lower-case name (`"scalar"`, `"simd"`, `"trace"`).
    fn name(&self) -> &'static str;

    /// Records a stage-level launch emitted by a call site that owns a
    /// composite kernel (gather scoring, synthesis fill). No-op on the
    /// numeric backends.
    fn record(&self, launch: KernelLaunch) {
        let _ = launch;
    }

    /// Drains the recorded launch log. Empty on the numeric backends.
    fn take_launches(&self) -> Vec<KernelLaunch> {
        Vec::new()
    }

    /// Batched L2 norms of the listed rows of one contiguous tile:
    /// `norms[r] = ‖m.row(r)‖` for every `r` in `rows`, other slots
    /// untouched — the tile-level compact-norm pre-pass, where the SIMD
    /// backend keeps eight rows' accumulator chains in flight per pass.
    ///
    /// # Panics
    ///
    /// Panics if `norms` is not one slot per row of `m` or an index is
    /// out of range.
    fn row_norms(&self, m: &Matrix, rows: &[u32], norms: &mut [f32]);

    /// Batched cosine scores of row pairs of one contiguous tile:
    /// `scores[i] = cosine(m.row(a), m.row(b))` for `(a, b) = pairs[i]`,
    /// with the per-row `norms` and the zero-norm conventions of
    /// [`math::cosine_with_norms_chunked`] — the tile-level gather
    /// scoring launch, covering every `(row, candidate)` probe of a
    /// tile at once.
    ///
    /// # Panics
    ///
    /// Panics if `norms` is not one slot per row of `m`, `pairs` and
    /// `scores` differ in length, or an index is out of range.
    fn score_pairs(&self, m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]);

    /// Folds each row's absolute maximum into `absmax`:
    /// `absmax[r] = max(absmax[r], max_c |m[r][c]|)`, NaN ignored — the
    /// INT8 scale pre-pass. Max is order-independent, so folding a row
    /// tile by tile gives the whole row's absmax bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is not one slot per row of `m`.
    fn row_absmax(&self, m: &Matrix, absmax: &mut [f32]);

    /// In-place per-row INT8 fake-quantise round trip, row `r` at the
    /// scale of its absmax `absmax[r]` (`absmax / 127`, or 1 for an
    /// all-zero row) — with the whole row's absmax, bit-identical to
    /// [`crate::quant::fake_quantize_in_place`] on the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is not one slot per row of `m`.
    fn fake_quantize(&self, m: &mut Matrix, absmax: &[f32]);

    /// In-place FP16 rounding of every element.
    fn f16_round(&self, m: &mut Matrix);

    /// Replays compact rows to full positions: row `i` of `out` becomes
    /// row `reps[i]` of `partial`.
    ///
    /// # Panics
    ///
    /// Panics if `reps` and `out` disagree on row count, any index is
    /// out of bounds of `partial`, or the column counts differ.
    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix);

    /// Fills `out` with the deterministic standard normals of the
    /// stream seeded at `seed` (the synthesis noise kernel).
    fn normal_fill(&self, seed: u64, out: &mut [f32]);
}

fn scatter_rows_copy(partial: &Matrix, reps: &[u32], out: &mut Matrix) {
    assert_eq!(reps.len(), out.rows(), "one representative per output row");
    assert_eq!(partial.cols(), out.cols(), "scatter of mismatched widths");
    for (i, &rep) in reps.iter().enumerate() {
        out.row_mut(i).copy_from_slice(partial.row(rep as usize));
    }
}

fn assert_norm_slots(m: &Matrix, norms: &[f32]) {
    assert_eq!(norms.len(), m.rows(), "one norm slot per row");
}

fn assert_pair_shapes(m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &[f32]) {
    assert_norm_slots(m, norms);
    assert_eq!(pairs.len(), scores.len(), "one score slot per pair");
}

/// The zero-norm conventions of [`math::cosine_with_norms_chunked`]
/// applied to precomputed pair dots: two zero norms are perfectly
/// similar, one zero norm is orthogonal, the rest is clamped into
/// `[-1, 1]`. For a zero norm the dot is ignored, so computing it
/// eagerly cannot change any score.
fn finish_cosines(pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]) {
    for (score, &(a, b)) in scores.iter_mut().zip(pairs) {
        let (na, nb) = (norms[a as usize], norms[b as usize]);
        *score = if na == 0.0 && nb == 0.0 {
            1.0
        } else if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (*score / (na * nb)).clamp(-1.0, 1.0)
        };
    }
}

/// One INT8 scale per row from its absmax, as
/// [`crate::quant::QuantParams::from_absmax`] derives it.
fn int8_scale(absmax: f32) -> f32 {
    if absmax == 0.0 {
        1.0
    } else {
        absmax / 127.0
    }
}

/// The explicitly-scalar reference backend: every kernel runs the
/// chunked-scalar path regardless of the [`math::force_scalar`] switch
/// or CPU features. The bit-exactness oracle [`Simd`] is tested against.
#[derive(Debug)]
pub struct ScalarRef;

impl Backend for ScalarRef {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn row_norms(&self, m: &Matrix, rows: &[u32], norms: &mut [f32]) {
        assert_norm_slots(m, norms);
        math::l2_norms_chunked_scalar(m.as_slice(), m.cols(), rows, norms);
    }

    fn score_pairs(&self, m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]) {
        assert_pair_shapes(m, pairs, norms, scores);
        for (score, &(a, b)) in scores.iter_mut().zip(pairs) {
            let (a, b) = (a as usize, b as usize);
            *score = math::cosine_with_norms_chunked_scalar(m.row(a), norms[a], m.row(b), norms[b]);
        }
    }

    fn row_absmax(&self, m: &Matrix, absmax: &mut [f32]) {
        assert_norm_slots(m, absmax);
        for (r, acc) in absmax.iter_mut().enumerate() {
            *acc = acc.max(math::quant_absmax_scalar(m.row(r)));
        }
    }

    fn fake_quantize(&self, m: &mut Matrix, absmax: &[f32]) {
        assert_norm_slots(m, absmax);
        for (r, &amax) in absmax.iter().enumerate() {
            math::int8_round_fill_scalar(m.row_mut(r), int8_scale(amax));
        }
    }

    fn f16_round(&self, m: &mut Matrix) {
        math::f16_round_fill_scalar(m.as_mut_slice());
    }

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        scatter_rows_copy(partial, reps, out);
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        math::box_muller_fill_scalar(seed, out);
    }
}

/// The runtime-dispatched fast backend: AVX2/F16C when the CPU has
/// them, the chunked-scalar fallback otherwise — always bit-identical
/// to [`ScalarRef`]. Gather norms and scoring batch eight rows or
/// pairs per pass and fake-quantise runs whole rows at once.
#[derive(Debug)]
pub struct Simd;

impl Backend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn row_norms(&self, m: &Matrix, rows: &[u32], norms: &mut [f32]) {
        assert_norm_slots(m, norms);
        math::l2_norms_chunked(m.as_slice(), m.cols(), rows, norms);
    }

    fn score_pairs(&self, m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]) {
        assert_pair_shapes(m, pairs, norms, scores);
        // Batched dots first (eight independent pairs per pass), then
        // the zero-norm conventions.
        math::dot_pairs_chunked(m.as_slice(), m.cols(), pairs, scores);
        finish_cosines(pairs, norms, scores);
    }

    fn row_absmax(&self, m: &Matrix, absmax: &mut [f32]) {
        assert_norm_slots(m, absmax);
        for (r, acc) in absmax.iter_mut().enumerate() {
            *acc = acc.max(math::quant_absmax(m.row(r)));
        }
    }

    fn fake_quantize(&self, m: &mut Matrix, absmax: &[f32]) {
        assert_norm_slots(m, absmax);
        for (r, &amax) in absmax.iter().enumerate() {
            math::int8_round_fill(m.row_mut(r), int8_scale(amax));
        }
    }

    fn f16_round(&self, m: &mut Matrix) {
        math::f16_round_fill(m.as_mut_slice());
    }

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        scatter_rows_copy(partial, reps, out);
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        math::box_muller_fill(seed, out);
    }
}

/// The launch-recording backend: numeric methods are no-ops (zero
/// fills where a value is required) and every kernel call lands in an
/// internal log, drained by [`Backend::take_launches`]. Schedule tests
/// construct their own instance (`Box::leak(Box::new(Trace::new()))`)
/// so parallel tests never share a log. The log is unbounded — drain
/// it; don't run figures on it.
#[derive(Debug)]
pub struct Trace {
    launches: Mutex<Vec<KernelLaunch>>,
}

impl Trace {
    /// An empty trace log.
    pub const fn new() -> Self {
        Trace {
            launches: Mutex::new(Vec::new()),
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Backend for Trace {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn record(&self, launch: KernelLaunch) {
        self.launches.lock().unwrap().push(launch);
    }

    fn take_launches(&self) -> Vec<KernelLaunch> {
        std::mem::take(&mut *self.launches.lock().unwrap())
    }

    fn row_norms(&self, m: &Matrix, rows: &[u32], norms: &mut [f32]) {
        assert_norm_slots(m, norms);
        for &r in rows {
            norms[r as usize] = 0.0;
        }
    }

    fn score_pairs(&self, m: &Matrix, pairs: &[(u32, u32)], norms: &[f32], scores: &mut [f32]) {
        assert_pair_shapes(m, pairs, norms, scores);
        scores.fill(0.0);
    }

    fn row_absmax(&self, m: &Matrix, absmax: &mut [f32]) {
        assert_norm_slots(m, absmax);
    }

    fn fake_quantize(&self, m: &mut Matrix, absmax: &[f32]) {
        assert_norm_slots(m, absmax);
        self.record(KernelLaunch::FakeQuantize {
            rows: m.rows(),
            cols: m.cols(),
        });
    }

    fn f16_round(&self, m: &mut Matrix) {
        self.record(KernelLaunch::F16Round {
            rows: m.rows(),
            cols: m.cols(),
        });
    }

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        assert_eq!(reps.len(), out.rows(), "one representative per output row");
        self.record(KernelLaunch::Scatter {
            rows: out.rows(),
            cols: partial.cols(),
        });
    }

    fn normal_fill(&self, _seed: u64, out: &mut [f32]) {
        out.fill(0.0);
    }
}

static SCALAR_REF: ScalarRef = ScalarRef;
static SIMD: Simd = Simd;
static TRACE: Trace = Trace::new();

/// The [`ScalarRef`] oracle backend.
pub fn scalar_ref() -> BackendHandle {
    &SCALAR_REF
}

/// The runtime-dispatched [`Simd`] backend (the default).
pub fn simd() -> BackendHandle {
    &SIMD
}

/// The process-wide shared [`Trace`] instance (what
/// `FOCUS_BACKEND=trace` selects). Tests that assert launch sequences
/// should leak their own [`Trace`] instead, to avoid sharing the log.
pub fn trace() -> BackendHandle {
    &TRACE
}

/// Which backend implementation a name selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// [`ScalarRef`].
    Scalar,
    /// [`Simd`].
    #[default]
    Simd,
    /// [`Trace`].
    Trace,
}

impl BackendKind {
    /// The names [`BackendKind::parse`] accepts, for error messages.
    pub const VALID_FORMS: &'static str = "`scalar`, `simd` or `trace`";

    /// Parses a backend name. Unknown names are an error naming the
    /// valid forms, never a silent fallback.
    pub fn parse(raw: &str) -> Result<BackendKind, String> {
        match raw {
            "scalar" => Ok(BackendKind::Scalar),
            "simd" => Ok(BackendKind::Simd),
            "trace" => Ok(BackendKind::Trace),
            other => Err(format!(
                "unknown backend `{other}`; valid forms: {}",
                BackendKind::VALID_FORMS
            )),
        }
    }

    /// Reads [`BACKEND_ENV`]. `None` when unset; panics on a malformed
    /// value — an override someone bothered to set must never be
    /// silently reinterpreted.
    pub fn from_env() -> Option<BackendKind> {
        let raw = std::env::var(BACKEND_ENV).ok()?;
        match BackendKind::parse(&raw) {
            Ok(kind) => Some(kind),
            Err(why) => panic!("{BACKEND_ENV}={raw:?} rejected: {why}"),
        }
    }

    /// The handle this kind selects.
    pub fn handle(self) -> BackendHandle {
        match self {
            BackendKind::Scalar => scalar_ref(),
            BackendKind::Simd => simd(),
            BackendKind::Trace => trace(),
        }
    }
}

/// The process-wide default backend: [`BACKEND_ENV`] if set (resolved
/// once, first call wins), [`Simd`] otherwise.
pub fn active() -> BackendHandle {
    static ACTIVE: OnceLock<BackendHandle> = OnceLock::new();
    *ACTIVE.get_or_init(|| BackendKind::from_env().unwrap_or_default().handle())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_names() {
        assert_eq!(BackendKind::parse("scalar"), Ok(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("simd"), Ok(BackendKind::Simd));
        assert_eq!(BackendKind::parse("trace"), Ok(BackendKind::Trace));
        let err = BackendKind::parse("avx512").unwrap_err();
        assert!(err.contains("avx512") && err.contains("scalar"), "{err}");
    }

    #[test]
    fn handles_report_their_names() {
        assert_eq!(BackendKind::Scalar.handle().name(), "scalar");
        assert_eq!(BackendKind::Simd.handle().name(), "simd");
        assert_eq!(BackendKind::Trace.handle().name(), "trace");
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }

    #[test]
    fn numeric_backends_drop_records() {
        scalar_ref().record(KernelLaunch::Scatter { rows: 1, cols: 1 });
        simd().record(KernelLaunch::Scatter { rows: 1, cols: 1 });
        assert!(scalar_ref().take_launches().is_empty());
        assert!(simd().take_launches().is_empty());
    }

    #[test]
    fn trace_records_and_drains_in_order() {
        let t = Trace::new();
        let mut m = Matrix::zeros(3, 5);
        t.fake_quantize(&mut m, &[0.0; 3]);
        t.f16_round(&mut m);
        t.record(KernelLaunch::GatherScore { rows: 3, width: 5 });
        assert_eq!(
            t.take_launches(),
            vec![
                KernelLaunch::FakeQuantize { rows: 3, cols: 5 },
                KernelLaunch::F16Round { rows: 3, cols: 5 },
                KernelLaunch::GatherScore { rows: 3, width: 5 },
            ]
        );
        assert!(t.take_launches().is_empty(), "drain must empty the log");
    }

    #[test]
    fn trace_does_no_numeric_work() {
        let t = Trace::new();
        let mut m = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 + 0.3);
        let before = m.clone();
        t.fake_quantize(&mut m, &[5.0; 2]);
        t.f16_round(&mut m);
        assert_eq!(m, before, "trace must leave values untouched");
        let mut norms = [7.0f32; 2];
        t.row_norms(
            &Matrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 0.0]]),
            &[0],
            &mut norms,
        );
        assert_eq!(norms, [0.0, 7.0], "only the listed rows are written");
        let mut noise = [7.0f32; 4];
        t.normal_fill(9, &mut noise);
        assert_eq!(noise, [0.0; 4]);
    }

    #[test]
    fn scalar_and_simd_agree_on_a_smoke_vector() {
        let m = Matrix::from_fn(2, 37, |r, i| {
            if r == 0 {
                (i as f32 * 0.37).sin()
            } else {
                (i as f32 * 0.21).cos()
            }
        });
        let (s, f) = (scalar_ref(), simd());
        let (mut ns, mut nf) = ([0.0f32; 2], [0.0f32; 2]);
        s.row_norms(&m, &[0, 1], &mut ns);
        f.row_norms(&m, &[0, 1], &mut nf);
        assert_eq!(ns.map(f32::to_bits), nf.map(f32::to_bits));
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        s.score_pairs(&m, &[(0, 1)], &ns, &mut a);
        f.score_pairs(&m, &[(0, 1)], &ns, &mut b);
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }
}

//! The synthesis kernel's determinism contract, property-tested:
//!
//! * **Bit-identity** — `box_muller_fill`, `ln_fill` and
//!   `cos_phase24_fill` produce the *same bits* on the chunked-scalar
//!   fallback, the runtime-dispatched path and the explicit AVX2 path,
//!   for random seeds × widths (sweeping every tail length) × chunk
//!   offsets (a fill split at any point, continued with the advanced
//!   seed, equals the unsplit fill).
//! * **Distribution sanity** — the fixed-polynomial Box–Muller still
//!   produces standard normals (mean/variance/symmetry bounds over a
//!   large sample).
//!
//! These tests are what lets the rest of the workspace treat the
//! kernel (not libm) as *the* pinned reference: any drift between
//! paths or across widths fails here first.

use focus_tensor::math::{
    box_muller_fill, box_muller_fill_scalar, cos_phase24_fill, cos_phase24_fill_scalar,
    cosine_with_norms_chunked, dot_chunked, dot_chunked_scalar, dot_pairs_chunked,
    dot_pairs_chunked_scalar, f16_round_fill, f16_round_fill_scalar, fixed_ln, force_scalar,
    int8_round_fill, int8_round_fill_scalar, l2_norm_chunked, l2_norms_chunked,
    l2_norms_chunked_scalar, ln_fill, ln_fill_scalar, normal_from_raw, quant_absmax,
    quant_absmax_scalar, splitmix_mix, GAMMA,
};
use proptest::prelude::*;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar ≡ dispatched ≡ AVX2 for the Box–Muller fill, and a fill
    /// split at any offset (seed advanced by 2·offset·γ) reproduces
    /// the unsplit stream — chunk boundaries are invisible.
    #[test]
    fn box_muller_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        width in 1usize..70,
        split in 0usize..70,
    ) {
        let mut scalar = vec![0.0f32; width];
        box_muller_fill_scalar(seed, &mut scalar);

        let mut dispatched = vec![0.0f32; width];
        box_muller_fill(seed, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "dispatched vs scalar");

        #[cfg(target_arch = "x86_64")]
        {
            let mut avx2 = vec![0.0f32; width];
            if focus_tensor::math::box_muller_fill_avx2(seed, &mut avx2) {
                assert_bits_eq(&avx2, &scalar, "avx2 vs scalar");
            }
        }

        // Position-addressability: fill [0, split) and [split, width)
        // as two independent calls.
        let split = split.min(width);
        let mut parts = vec![0.0f32; width];
        box_muller_fill(seed, &mut parts[..split]);
        let advanced = seed.wrapping_add(GAMMA.wrapping_mul(2 * split as u64));
        box_muller_fill(advanced, &mut parts[split..]);
        assert_bits_eq(&parts, &scalar, "split fill vs whole fill");

        // And each value matches the one-value reference.
        for (i, &v) in scalar.iter().enumerate() {
            let n = (2 * i + 1) as u64;
            let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
            let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
            prop_assert_eq!(v.to_bits(), normal_from_raw(r1, r2).to_bits());
        }
    }

    /// Scalar ≡ dispatched ≡ AVX2 for the fixed-log fill over positive
    /// normal floats spanning the exponent range.
    #[test]
    fn ln_paths_are_bit_identical(
        mantissas in proptest::collection::vec(0.5f32..1.0, 1..40),
        exp in -90i32..90,
    ) {
        let scale = (exp as f32).exp2();
        let xs: Vec<f32> = mantissas.iter().map(|m| m * scale).collect();
        let mut scalar = vec![0.0f32; xs.len()];
        ln_fill_scalar(&xs, &mut scalar);
        for (x, l) in xs.iter().zip(&scalar) {
            prop_assert_eq!(l.to_bits(), fixed_ln(*x).to_bits());
        }

        let mut dispatched = vec![0.0f32; xs.len()];
        ln_fill(&xs, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "ln dispatched vs scalar");

        #[cfg(target_arch = "x86_64")]
        {
            let mut avx2 = vec![0.0f32; xs.len()];
            if focus_tensor::math::ln_fill_avx2(&xs, &mut avx2) {
                assert_bits_eq(&avx2, &scalar, "ln avx2 vs scalar");
            }
        }
    }

    /// Scalar ≡ dispatched ≡ F16C for the batched fp16 round-trip over
    /// raw 32-bit patterns — every float class (normals across the
    /// whole exponent range, subnormals, zeros, infinities, NaNs with
    /// arbitrary payloads) must round identically on every path.
    #[test]
    fn f16_round_paths_are_bit_identical(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..40),
    ) {
        let xs: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
        let mut scalar = xs.clone();
        f16_round_fill_scalar(&mut scalar);

        let mut dispatched = xs.clone();
        f16_round_fill(&mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "f16 dispatched vs scalar");

        #[cfg(target_arch = "x86_64")]
        {
            let mut f16c = xs;
            if focus_tensor::math::f16_round_fill_f16c(&mut f16c) {
                assert_bits_eq(&f16c, &scalar, "f16 f16c vs scalar");
            }
        }
    }

    /// Scalar ≡ dispatched ≡ AVX2 for the lane-chunked dot kernel the
    /// similarity matcher scores with, across every tail length and a
    /// wide magnitude spread (where a different accumulation order
    /// would change last bits).
    #[test]
    fn dot_chunked_paths_are_bit_identical(
        pairs in proptest::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 0..70),
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let a: Vec<f32> = pairs.iter().map(|p| p.0 * scale).collect();
        let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();

        let scalar = dot_chunked_scalar(&a, &b);
        prop_assert_eq!(dot_chunked(&a, &b).to_bits(), scalar.to_bits());

        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = focus_tensor::math::dot_chunked_avx2(&a, &b) {
            prop_assert_eq!(simd.to_bits(), scalar.to_bits());
        }

        // The norm and cosine built on it inherit the identity; the
        // cosine stays clamped and respects the zero conventions.
        let na = l2_norm_chunked(&a);
        let nb = l2_norm_chunked(&b);
        prop_assert_eq!(na.to_bits(), dot_chunked_scalar(&a, &a).sqrt().to_bits());
        let cos = cosine_with_norms_chunked(&a, na, &b, nb);
        if na == 0.0 && nb == 0.0 {
            prop_assert_eq!(cos, 1.0);
        } else if na == 0.0 || nb == 0.0 {
            prop_assert_eq!(cos, 0.0);
        } else {
            prop_assert!((-1.0..=1.0).contains(&cos));
        }
    }

    /// Scalar ≡ dispatched for the index-pair dot batch and the
    /// batched row norms over one contiguous matrix, across pair counts
    /// sweeping the 8-group boundary and widths sweeping every SIMD tail
    /// length. Each pair must also match its own single
    /// [`dot_chunked_scalar`] — the batching is bit-invisible per pair —
    /// and rows left out of a norm launch keep their slots.
    #[test]
    fn pair_kernel_paths_are_bit_identical(
        width in 0usize..70,
        rows in 1usize..12,
        n_pairs in 0usize..20,
        seed in 0u32..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let data: Vec<f32> = (0..rows * width)
            .map(|i| {
                let h = (i * 31 + seed as usize) % 97;
                (h as f32 / 48.5 - 1.0) * scale
            })
            .collect();
        let row = |r: u32| &data[r as usize * width..(r as usize + 1) * width];
        let pairs: Vec<(u32, u32)> = (0..n_pairs)
            .map(|p| (((p * 7 + seed as usize) % rows) as u32, ((p * 3) % rows) as u32))
            .collect();

        let mut scalar = vec![0.0f32; n_pairs];
        dot_pairs_chunked_scalar(&data, width, &pairs, &mut scalar);
        for (p, got) in scalar.iter().enumerate() {
            let (a, b) = pairs[p];
            prop_assert_eq!(got.to_bits(), dot_chunked_scalar(row(a), row(b)).to_bits());
        }
        let mut dispatched = vec![0.0f32; n_pairs];
        dot_pairs_chunked(&data, width, &pairs, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "pair-dot dispatched vs scalar");

        // Every row but the last, listed out of order and more than
        // eight times over when there are enough rows to group.
        let listed: Vec<u32> = (0..rows as u32 - 1).rev().cycle().take(3 * rows).collect();
        let mut scalar_norms = vec![-1.0f32; rows];
        l2_norms_chunked_scalar(&data, width, &listed, &mut scalar_norms);
        for (r, got) in scalar_norms.iter().enumerate() {
            let expect = if r + 1 == rows {
                -1.0
            } else {
                dot_chunked_scalar(row(r as u32), row(r as u32)).sqrt()
            };
            prop_assert_eq!(got.to_bits(), expect.to_bits());
        }
        let mut dispatched_norms = vec![-1.0f32; rows];
        l2_norms_chunked(&data, width, &listed, &mut dispatched_norms);
        assert_bits_eq(
            &dispatched_norms,
            &scalar_norms,
            "batched norms dispatched vs scalar",
        );
    }

    /// Scalar ≡ dispatched for the quantiser's absmax reduction and the
    /// whole-row int8 round-trip, over raw 32-bit patterns — normals,
    /// subnormals, signed zeros, infinities and NaNs must all reduce
    /// and round identically (`f32::max` drops NaN from the absmax and
    /// the saturating `as i8` cast quantises it to zero).
    #[test]
    fn int8_round_trip_paths_are_bit_identical(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..70),
        exp in -30i32..30,
    ) {
        let xs: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();

        let absmax = quant_absmax(&xs);
        prop_assert_eq!(absmax.to_bits(), quant_absmax_scalar(&xs).to_bits());

        let scale = (exp as f32).exp2();
        let mut scalar = xs.clone();
        int8_round_fill_scalar(&mut scalar, scale);
        let mut dispatched = xs;
        int8_round_fill(&mut dispatched, scale);
        assert_bits_eq(&dispatched, &scalar, "int8 round dispatched vs scalar");
    }

    /// The int8 rounder's half-integer ties break away from zero on
    /// every path, exactly like `f32::round`.
    #[test]
    fn int8_round_breaks_ties_away_from_zero(
        halves in proptest::collection::vec(-255i32..=255, 1..40),
        exp in -8i32..8,
    ) {
        let scale = (exp as f32).exp2();
        // v/scale lands exactly on k + 0.5 for odd h = 2k+1.
        let xs: Vec<f32> = halves.iter().map(|&h| h as f32 / 2.0 * scale).collect();
        let mut scalar = xs.clone();
        int8_round_fill_scalar(&mut scalar, scale);
        let mut dispatched = xs.clone();
        int8_round_fill(&mut dispatched, scale);
        assert_bits_eq(&dispatched, &scalar, "int8 ties dispatched vs scalar");
        for (&h, got) in halves.iter().zip(&scalar) {
            let code = (h as f32 / 2.0).round().clamp(-127.0, 127.0);
            prop_assert_eq!(got.to_bits(), (code * scale).to_bits());
        }
    }

    /// Scalar ≡ dispatched ≡ AVX2 for the phase-cosine fill over raw
    /// 32-bit phases (high bits deliberately left set: the kernel must
    /// mask to 24 bits identically on every path).
    #[test]
    fn cos_paths_are_bit_identical(
        phases in proptest::collection::vec(0u32..u32::MAX, 1..40),
    ) {
        let mut scalar = vec![0.0f32; phases.len()];
        cos_phase24_fill_scalar(&phases, &mut scalar);

        let mut dispatched = vec![0.0f32; phases.len()];
        cos_phase24_fill(&phases, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "cos dispatched vs scalar");

        #[cfg(target_arch = "x86_64")]
        {
            let mut avx2 = vec![0.0f32; phases.len()];
            if focus_tensor::math::cos_phase24_fill_avx2(&phases, &mut avx2) {
                assert_bits_eq(&avx2, &scalar, "cos avx2 vs scalar");
            }
        }
    }
}

/// The `force_scalar` performance switch must not change a single bit
/// of output. (The switch is process-global; flipping it mid-test is
/// safe for concurrently running tests *because* of this property.)
#[test]
fn force_scalar_switch_is_bit_invisible() {
    let mut default_path = vec![0.0f32; 1024];
    box_muller_fill(0x5EED, &mut default_path);
    force_scalar(true);
    let mut forced = vec![0.0f32; 1024];
    box_muller_fill(0x5EED, &mut forced);
    force_scalar(false);
    assert_bits_eq(&forced, &default_path, "forced scalar vs default dispatch");
}

/// Distribution sanity: the kernel's output is still a standard
/// normal. Bounds are generous multiples of the expected sampling
/// error at n = 200_000 (σ_mean ≈ 0.0022, σ_var ≈ 0.0032).
#[test]
fn box_muller_output_is_standard_normal() {
    const N: usize = 200_000;
    let mut samples = vec![0.0f32; N];
    box_muller_fill(0xD15_7A1B_0715, &mut samples);

    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / N as f64;
    let var = samples
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / N as f64;
    let negatives = samples.iter().filter(|&&v| v < 0.0).count() as f64 / N as f64;
    let within_one_sigma = samples.iter().filter(|&&v| v.abs() < 1.0).count() as f64 / N as f64;

    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((var - 1.0).abs() < 0.02, "variance {var}");
    assert!((negatives - 0.5).abs() < 0.01, "sign balance {negatives}");
    assert!(
        (within_one_sigma - 0.6827).abs() < 0.01,
        "P(|x| < 1) = {within_one_sigma}"
    );
    // The radius construction bounds every sample by sqrt(48·ln 2).
    let max = samples.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    assert!(max <= 5.78, "max |sample| {max}");
}

/// `fixed_ln` tracks libm within a few ulps across the full positive
/// normal range (sanity that the re-baseline did not change the
/// *function*, only its last bits).
#[test]
fn fixed_ln_tracks_libm() {
    let mut worst = 0.0f64;
    for i in 1..20_000u32 {
        let x = f32::from_bits(0x0080_0000 + i * 214_000); // spans normals
        if !x.is_finite() {
            break;
        }
        let got = fixed_ln(x) as f64;
        let want = (x as f64).ln();
        let tol = 4.0 * f64::EPSILON.max(f32::EPSILON as f64 * want.abs().max(1.0));
        let err = (got - want).abs();
        worst = worst.max(err / want.abs().max(1.0));
        assert!(err <= tol, "ln({x}): {got} vs {want}");
    }
    assert!(worst < 1e-6, "relative error {worst}");
}

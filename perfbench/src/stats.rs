//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples. The
//! tail percentile follows the benchmark's reporting rule: p90 when at
//! least ten samples lie beyond it, otherwise the highest rank that
//! still has ten samples beyond it, so a short run never reports a tail
//! that rests on a handful of values.

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending (NaN-free input assumed).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(v.len(), 0.5)]
}

/// The tail value: p90 by nearest rank, lowered to the highest rank with
/// [`TAIL_BEYOND`] samples beyond it. With too few samples for any such
/// rank the median stands in; 0 for no samples.
pub fn tail(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return v[rank(n, 0.5)];
    }
    v[rank(n, 0.9).min(n - 1 - TAIL_BEYOND)]
}

/// The median of `stat` over consecutive windows of `window` samples,
/// in arrival order; a short remainder joins the last full window. One
/// burst of interference from outside then moves one window's figure,
/// not the run's.
pub fn windowed(samples: &[f64], window: usize, stat: fn(&[f64]) -> f64) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            stat(&samples[w * window..end])
        })
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p90_once_ten_samples_lie_beyond() {
        // 100 samples: p90 is the 90th value and 10 values exceed it.
        let v = ramp(100);
        assert_eq!(tail(&v), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > tail(&v)).count(), TAIL_BEYOND);
        // 1000 samples: plain p90 (100 beyond).
        assert_eq!(tail(&ramp(1000)), 900.0);
    }

    #[test]
    fn tail_drops_to_keep_ten_samples_beyond() {
        // 50 samples: p90 (45) would leave only 5 beyond; the rule
        // reports the 40th value, which has exactly 10 beyond.
        let v = ramp(50);
        assert_eq!(tail(&v), 40.0);
        assert_eq!(v.iter().filter(|&&x| x > tail(&v)).count(), TAIL_BEYOND);
        // 11 samples: only the smallest has ten beyond it.
        assert_eq!(tail(&ramp(11)), 1.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_tiny_samples() {
        assert_eq!(tail(&ramp(10)), 5.0);
        assert_eq!(tail(&[7.0]), 7.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn windowed_takes_the_median_over_windows() {
        // Three windows of 4; the middle one holds a burst.
        let v = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(windowed(&v, 4, median), 2.0);
        // The remainder (two samples) joins the last window.
        let v = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 1.0, 1.0];
        assert_eq!(windowed(&v, 3, median), 3.0);
        // Fewer samples than a window: one window over everything.
        assert_eq!(windowed(&[4.0, 5.0, 6.0], 10, median), 5.0);
    }
}

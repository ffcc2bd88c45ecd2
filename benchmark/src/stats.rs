//! Order statistics for the benchmark's own samples.

/// Percentile rungs a tail may be reported at.
const RUNGS: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: f64 = 10.0;

/// The highest rung at or below `cap` with at least ten of the `n` samples
/// beyond it; p50 when even that has fewer.
pub fn tail_rung(n: usize, cap: u32) -> u32 {
    RUNGS
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && n as f64 * f64::from(100 - p) / 100.0 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Percentile `p` (0–100) of ascending `sorted`, interpolating linearly
/// between the two closest ranks. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Quartiles by the exclusive method, which is what Python's
/// `statistics.quantiles(values, n=4)` computes: `(q1, q2, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| -> f64 {
        if n < 2 {
            return s.first().copied().unwrap_or(0.0);
        }
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median (the contract's
/// run-to-run spread); `0.0` when the median is zero.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `(max − min) / median`, the issue's calibration spread.
pub fn range_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let m = percentile(&s, 50.0);
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rung_needs_ten_samples_beyond() {
        // p99 leaves 1 % beyond: 1000 samples are the least that qualify.
        assert_eq!(tail_rung(1000, 99), 99);
        assert_eq!(tail_rung(999, 99), 95);
        // p95 leaves 5 %: 200 samples.
        assert_eq!(tail_rung(200, 99), 95);
        assert_eq!(tail_rung(199, 99), 90);
        assert_eq!(tail_rung(100, 99), 90);
        assert_eq!(tail_rung(99, 99), 75);
        assert_eq!(tail_rung(40, 99), 75);
        assert_eq!(tail_rung(39, 99), 50);
        assert_eq!(tail_rung(3, 99), 50, "p50 is the floor");
        // The cap wins over sample count.
        assert_eq!(tail_rung(1_000_000, 95), 95);
        assert_eq!(tail_rung(1_000_000, 50), 50);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert!((percentile(&s, 99.0) - 39.7).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn range_share_is_max_minus_min_over_median() {
        assert!((range_share(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(range_share(&[]), 0.0);
    }
}

//! Order statistics for latency samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a handful of outliers cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending in place.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of ascending `sorted`: the sample at 1-based
/// rank `ceil(p/100 * n)`. `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 90.0), Some(180.0));
        // rank 198 leaves two samples beyond it.
        assert_eq!(percentile(&v, 99.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_the_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}

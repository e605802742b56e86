//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`. A
/// tail percentile is worth reporting only when at least ten samples lie
/// beyond it (choosing-metrics §1): p90 needs 100 samples, p99 1000.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(samples_beyond(1, 0.9), 0);
    }
}

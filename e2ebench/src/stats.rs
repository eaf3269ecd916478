//! Order statistics over measured samples.

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `samples`.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples
/// (multiplying before dividing keeps `p * n / 100` exact for whole
/// percentiles).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The interquartile mean: the mean of the middle half of the samples
/// (all of them when there are fewer than four). It moves smoothly when
/// a run mixes fast and slow stretches of the host, where a median jumps
/// between them, and ignores the bursts a plain mean would absorb.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = if sorted.len() >= 4 {
        sorted.len() / 4
    } else {
        0
    };
    let middle = &sorted[cut..sorted.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, so it is measured rather than guessed.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let shuffled = [7.0, 1.0, 9.0, 3.0, 5.0];
        assert_eq!(median(&shuffled), Some(5.0));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[3.0, 1.0]), Some(2.0));
        // 8 samples: the two lowest and two highest are dropped.
        let v = [100.0, 1.0, 5.0, 4.0, 6.0, 3.0, -50.0, 2.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
    }
}

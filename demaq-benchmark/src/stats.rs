//! Order statistics over the benchmark's own samples.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Median over fixed windows of each window's `q`-percentile. Samples are
/// `(window index, value)`; a window needs `min_beyond` samples above its
/// percentile to count (choosing-metrics: a percentile is only as good as
/// the samples beyond it), so sparse windows are skipped, not trusted.
pub fn median_of_window_percentiles(
    samples: &[(usize, f64)],
    q: f64,
    min_beyond: usize,
) -> Option<f64> {
    let windows = samples.iter().map(|s| s.0).max()? + 1;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(w, v) in samples {
        per_window[w].push(v);
    }
    let qualifying: Vec<f64> = per_window
        .into_iter()
        .filter(|w| (w.len() as f64 * (1.0 - q)).floor() as usize >= min_beyond)
        .map(|w| percentile(&sorted(w), q))
        .collect();
    (!qualifying.is_empty()).then(|| median(&qualifying))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn window_percentiles_skip_sparse_windows() {
        // Window 0: 2000 samples 1..=2000 → p99 = 1980, 20 beyond it.
        // Window 1: 100 samples → only 1 beyond p99 → skipped at min 15.
        // Window 2: 2000 samples of 5.0 → p99 = 5.
        let mut samples: Vec<(usize, f64)> = (1..=2000).map(|v| (0, v as f64)).collect();
        samples.extend((1..=100).map(|v| (1, 1e6 * v as f64)));
        samples.extend((0..2000).map(|_| (2, 5.0)));
        let m = median_of_window_percentiles(&samples, 0.99, 15).unwrap();
        assert_eq!(m, (1980.0 + 5.0) / 2.0);
        assert_eq!(
            median_of_window_percentiles(&samples[2000..2100], 0.99, 15),
            None
        );
    }
}

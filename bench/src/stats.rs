//! Order statistics the benchmark reports: the median and the
//! tail-percentile rule.

/// Sorted copy of `samples` (NaN-free by construction: every sample is
/// an `Instant` difference or a count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples for an even count.
/// Panics on an empty slice — every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail to report beside a median: the highest percentile that
/// still has at least ten samples beyond it, and the sample at that
/// percentile. `None` below eleven samples, where no such percentile
/// exists.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Ten samples lie strictly beyond index n - 11.
    let index = n - 11;
    let percentile = 100.0 * (index + 1) as f64 / n as f64;
    Some((percentile, v[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 11 samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 1000 samples: p99 is sample 990, with exactly ten beyond.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        // 320 samples (serve-grid's two clients × 160): p96.875.
        let grid: Vec<f64> = (1..=320).map(f64::from).collect();
        assert_eq!(tail(&grid), Some((96.875, 310.0)));
    }
}

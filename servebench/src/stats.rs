//! Order statistics for the reported metrics.

/// The `q`-quantile (nearest rank) of `samples`, refusing a percentile
/// that fewer than ten samples lie beyond: a p99 needs at least 1000
/// samples, a p90 at least 100, a median at least 20.
///
/// # Errors
///
/// A message naming the percentile and the sample count it lacks.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < 10 {
        return Err(format!(
            "p{} needs at least ten samples beyond it; have {n} samples",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a few per-session values (mean of the middle pair for
/// an even count). No sample-count rule: this aggregates sessions, each
/// of which already passed [`percentile`]'s.
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9).unwrap(), 90.0);
        assert_eq!(percentile(&hundred, 0.5).unwrap(), 50.0);
        let err = percentile(&hundred, 0.99).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99).unwrap(), 990.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 0.5).unwrap();
        v.reverse();
        assert_eq!(a, percentile(&v, 0.5).unwrap());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! Order statistics for latency samples and for sets of runs.

/// Exact-rank percentile (`p` in `[0, 1]`) of `samples`; `None` when
/// empty. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// Nanosecond samples as microseconds.
pub fn ns_to_us(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / 1e3).collect()
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the driver measures run-to-run spread with exactly this.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_exact_ranks() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some((10.0, 40.0)));
        assert_eq!(spread(&v), Some(1.0));
    }
}

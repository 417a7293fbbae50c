//! Order statistics over wall-clock samples.

/// The median of `values` (mean of the two middle values for an even count).
/// Returns `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99.9, p99, p90 and p50 that leaves at least ten samples above
/// it, as `(label, value)`. With fewer than twenty samples no percentile has ten
/// samples beyond it, and the maximum is reported instead.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len() as f64;
    for (label, q) in [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
        ("p50", 0.50),
    ] {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(values, q));
        }
    }
    ("max", quantile(values, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let small: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&small).0, "max");
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty).0, "p50");
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).0, "p99");
    }
}

//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count); 0 when
/// there are no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`); 0 when there are no
/// samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The highest of the percentiles 99, 90 and 50 that leaves at least ten
/// samples above it, or `None` when there are fewer than twenty samples.
pub fn supported_percentile(count: usize) -> Option<f64> {
    [99, 90, 50]
        .into_iter()
        .find(|p| count * (100 - p) >= 10 * 100)
        .map(|p| p as f64)
}

/// `median …, pNN … (n=…)` in seconds, for the human-readable report.
pub fn describe(values: &[f64]) -> String {
    let mut out = format!("median {:.4} s", median(values));
    if let Some(p) = supported_percentile(values.len()) {
        out.push_str(&format!(", p{p} {:.4} s", percentile(values, p)));
    }
    out.push_str(&format!(" (n={})", values.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
    }
}

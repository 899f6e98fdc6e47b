//! Order statistics the benchmark reports.

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// closest ranks (NaNs sort last). Empty input gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver's spread check uses.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range over the median: the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 1.0), 4.0);
        assert!((quantile(&[4.0, 1.0, 3.0, 2.0], 0.25) - 1.75).abs() < 1e-12);
    }
}

//! Order statistics and means over samples.

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method) does, so spreads printed here match the ones a gate
/// computes from the same numbers. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread the gate
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The `p`-quantile (0..=1) by linear interpolation between closest
/// ranks. One value is its own quantile.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fastest of repeated timings of the same work: a repeat is that
/// work plus whatever the allocator, page faults, cold caches and the
/// box's other tenants add, and they only ever add. On the shared
/// reference box the speed of even a register-only loop moves by a tenth
/// from one five-second stretch to the next; quartiles of the repeats
/// follow that, the fastest repeat does not.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean: the average for ratios and for rates over sizes
/// that differ by orders of magnitude.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}

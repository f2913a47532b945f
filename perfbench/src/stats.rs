//! Order statistics over one run's samples.

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics (position `q·(n−1)`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank percentile `p` of `xs`, and how many samples lie beyond
/// it; `(0, 0)` when empty.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (v[rank - 1], n - rank)
}

/// The quartile of `xs` on the better side: the upper one when higher is
/// better, else the lower one.
pub fn better_quartile(xs: &[f64], higher_is_better: bool) -> f64 {
    quantile(xs, if higher_is_better { 0.75 } else { 0.25 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(better_quartile(&[4.0, 1.0, 2.0, 3.0, 5.0], false), 2.0);
        assert_eq!(better_quartile(&[4.0, 1.0, 2.0, 3.0, 5.0], true), 4.0);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), (190.0, 10));
        assert_eq!(percentile(&xs[..40], 75.0), (30.0, 10));
        assert_eq!(percentile(&[], 90.0), (0.0, 0));
    }
}

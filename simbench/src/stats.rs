//! Order statistics: percentiles with the ten-samples-beyond rule, and
//! the quartiles the steadiness report compares against each bound.

/// The smallest number of samples that must lie strictly above a reported
/// percentile. A p90 over 50 samples rests on five values and moves with
/// any one of them; ten keeps a single straggler from setting the figure.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` sorted samples lie above the `q`-percentile taken by
/// [`percentile`] (nearest rank: the value at rank `ceil(q·n)`).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The fewest samples for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_BEYOND)
        .expect("finite")
}

/// A latency distribution summarized as p50 and p90 with its sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Latency {
    /// Summarizes `values`; `None` when p90 would rest on fewer than
    /// [`MIN_BEYOND`] samples.
    pub fn of(values: &[f64]) -> Option<Latency> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Latency {
            samples: sorted.len(),
            p50: percentile(&sorted, 0.5)?,
            p90: percentile(&sorted, 0.9)?,
        })
    }
}

/// The median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None, "99 samples leave 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn latency_reports_its_sample_count() {
        let v: Vec<f64> = (0..250).rev().map(f64::from).collect();
        let l = Latency::of(&v).expect("enough samples");
        assert_eq!(l.samples, 250);
        assert_eq!(l.p50, 124.0);
        assert_eq!(l.p90, 224.0);
        assert!(Latency::of(&v[..99]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

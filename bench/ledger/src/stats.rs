//! Order statistics over the samples of one metric.

/// Sample count, extremes and quartiles of one metric's samples. The
/// quartiles are the ones Python's `statistics.quantiles(values, n=4)`
/// gives, so the spreads printed here are the spreads the driver computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values`. Panics on an empty slice: a metric with no
    /// sample is a bug in the workload, not a number.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // statistics.quantiles, method "exclusive": cut point i of 4 sits at
        // position i·(n+1)/4 of the 1-based sorted samples, interpolated.
        let cut = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            max: v[n - 1],
        }
    }

    /// `(max − min) / median`, the spread `--repeat-check` holds to a bound.
    pub fn range_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `p`-th percentile (nearest rank) of `values`; `None` when fewer than
/// `min_samples` were taken — a p99 of 40 samples is its maximum, not a tail.
pub fn percentile(values: &[f64], p: f64, min_samples: usize) -> Option<f64> {
    if values.is_empty() || values.len() < min_samples {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_needs_enough_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0, 1000), Some(990.0));
        assert_eq!(percentile(&v, 50.0, 1), Some(500.0));
        assert_eq!(percentile(&v[..40], 99.0, 1000), None);
    }
}

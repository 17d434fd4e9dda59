//! Small statistics helpers for repeated measurements.
//!
//! The paper repeats each experiment three times and reports mean ± standard
//! deviation. [`Summary`] implements Welford's online algorithm so bench
//! binaries can stream samples in without keeping them.

/// Online mean / variance / extrema accumulator (Welford).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for < 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest sample (`NaN`-free; +∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Format as `mean ± std`.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean(), self.std_dev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(samples: impl IntoIterator<Item = f64>) -> Summary {
        let mut s = Summary::new();
        for x in samples {
            s.add(x);
        }
        s
    }

    #[test]
    fn mean_and_std_of_known_sequence() {
        let s = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn single_sample() {
        let s = summarize([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn display_format() {
        let s = summarize([1.0, 1.0]);
        assert_eq!(s.display(), "1.000 ± 0.000");
    }
}

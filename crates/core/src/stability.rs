//! Seed-stability analysis.
//!
//! The paper's conclusions rest on sampled traces (§2.2); a reproduction
//! built on *synthetic* traces must additionally show that its conclusions
//! do not hinge on one lucky seed. [`SeedStudy`] summarizes the spread of
//! a metric observed over several generator seeds; the campaign engine's
//! `stability` figure applies it to the headline comparisons.

/// Mean/min/max/σ of a metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStudy {
    /// Seeds evaluated.
    pub seeds: usize,
    /// Mean of the metric.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl SeedStudy {
    /// Builds the summary from raw observations.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one observation");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        SeedStudy {
            seeds: values.len(),
            mean,
            stddev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_are_correct() {
        let s = SeedStudy::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.seeds, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn single_observation_has_zero_spread() {
        let s = SeedStudy::from_values(&[4.2]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, s.max);
    }
}

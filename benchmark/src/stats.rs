//! Order statistics and rate arithmetic for repeated measurements.

/// Order statistics of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The tenth percentile: the value a run reports (see README,
    /// "Observed spreads", for why not the median).
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p10: quantile(&v, 0.1),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: q = 0 is the minimum, q = 1 the maximum).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median alone (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// `count` per second over `seconds` (0 when no time passed).
pub fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Nanoseconds per item (0 when there were no items).
pub fn ns_per(total_ns: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        total_ns as f64 / items as f64
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Events per thousand instructions.
pub fn per_kilo(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        1000.0 * events as f64 / instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert!((s.p10 - 1.3).abs() < 1e-12);
        assert!((s.spread() - 0.6).abs() < 1e-12);

        let odd = Summary::of(&[9.0, 7.0, 8.0]).unwrap();
        assert_eq!((odd.q1, odd.median, odd.q3), (7.5, 8.0, 8.5));

        let one = Summary::of(&[5.0]).unwrap();
        assert_eq!((one.p10, one.q1, one.median, one.q3), (5.0, 5.0, 5.0, 5.0));
        assert_eq!(one.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rates_are_safe_at_zero() {
        assert_eq!(per_second(3_000_000, 1.5), 2_000_000.0);
        assert_eq!(per_second(10, 0.0), 0.0);
        assert_eq!(ns_per(1_000, 4), 250.0);
        assert_eq!(ns_per(1_000, 0), 0.0);
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(per_kilo(5, 2_000), 2.5);
        assert_eq!(per_kilo(5, 0), 0.0);
    }
}

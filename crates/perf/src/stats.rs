//! Order statistics over a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here matches the one the
//! benchmark driver computes from the same values.

/// Five-number summary of one metric's repetitions.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exclusive method. A single sample is its
/// own quartiles; an empty slice yields zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

impl Summary {
    /// Summarize `xs`; `None` when there are no samples.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let v = sorted(xs);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1,
            median: median(&v),
            q3,
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile distance as a share of the median (0 for a zero
    /// median, where a relative spread has no meaning).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `num / den`, or 0 when the denominator is 0 — the convention every
/// derived metric uses for "this workload has no such quantity".
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 32.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 9.0, 11.0, 13.0));
        assert!((s.spread() - (12.5 - 9.5) / 11.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}

//! Order statistics and the parent-versus-change comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same numbers in Python.

/// Median; `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linearly interpolated `p`-th percentile (0–100); `NaN` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            match s.get(lo + 1) {
                Some(hi) => s[lo] + (hi - s[lo]) * frac,
                None => s[lo],
            }
        }
    }
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives
/// them. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, for `n` samples; `None` below 20.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// The outcome of comparing a change's runs with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of ≥ 10 pairs and the medians differ by more than
    /// the parent's interquartile range.
    Improved,
    /// The median is no worse than the bound allows.
    Unchanged,
    /// The median is worse than the parent's by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so "unchanged" cannot be
    /// told apart from a regression.
    Unresolved,
}

/// Summary of one metric's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The rule's outcome.
    pub verdict: Verdict,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Signed share by which the change is worse (negative: better).
    pub worse_by: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// Compares paired runs: `parent[i]` and `change[i]` are the same seed
/// measured on the two commits. `bound` is the share by which the
/// change's median may be worse before it counts as a regression.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let (pm, cm) = (median(parent), median(change));
    let is_better = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| is_better(c, p))
        .count();
    let (q1, q3) = quartiles(parent);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| is_better(c, p)));
    let spread = relative_spread(parent).max(relative_spread(change));

    let verdict = if pairs >= 10
        && wins * 10 >= pairs * 9
        && is_better(cm, pm)
        && (cm - pm).abs() > q3 - q1
    {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Comparison {
        verdict,
        parent: pm,
        change: cm,
        worse_by,
        wins,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    fn alternating(base: f64, step: f64) -> Vec<f64> {
        (0..12).map(|i| base + step * (i % 3) as f64).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = alternating(100.0, 1.0);
        let change = alternating(90.0, 1.0);
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!((c.wins, c.pairs), (12, 12));
        // The same numbers read as rates are a regression.
        let c = compare(&parent, &change, Better::Higher, 0.05);
        assert_eq!(c.verdict, Verdict::Regressed);
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_tenths_wins() {
        let parent = alternating(100.0, 1.0);
        let change = alternating(90.0, 1.0);
        let c = compare(&parent[..9], &change[..9], Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged, "nine pairs are too few");
        let mut change = change;
        change[0] = 150.0;
        change[1] = 150.0;
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Unchanged, "10 of 12 wins is below 9/10");
    }

    #[test]
    fn gain_must_exceed_the_parent_spread() {
        let parent: Vec<f64> = (0..12).map(|i| 100.0 + 10.0 * (i % 4) as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        let c = compare(&parent, &change, Better::Lower, 0.5);
        assert_eq!(c.wins, 12);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn small_slowdown_within_bound_is_unchanged() {
        let parent = alternating(100.0, 0.5);
        let change = alternating(104.0, 0.5);
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert!((c.worse_by - 4.0 / 100.5).abs() < 1e-12);
    }

    #[test]
    fn slowdown_beyond_bound_is_regressed() {
        let parent = alternating(100.0, 0.5);
        let change = alternating(115.0, 0.5);
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let parent: Vec<f64> = (0..12).map(|i| 100.0 + 30.0 * (i % 2) as f64).collect();
        let change: Vec<f64> = (0..12)
            .map(|i| 105.0 + 30.0 * ((i + 1) % 2) as f64)
            .collect();
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        let change: Vec<f64> = (0..12).map(|i| 50.0 + 30.0 * (i % 2) as f64).collect();
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_ne!(c.verdict, Verdict::Unresolved);
        assert_ne!(c.verdict, Verdict::Regressed);
    }
}

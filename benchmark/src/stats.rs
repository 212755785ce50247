//! Order statistics for timings, and the verdict two summaries get.
//!
//! Every timing is reported as a median with its quartiles, the sample
//! count, and the highest percentile that still has ten samples beyond
//! it (so a tail is never read off two or three points).

/// Percentiles a tail may be reported at, highest first, each with the
/// samples in a thousand that lie beyond it.
const TAIL_LADDER: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Value at [`Summary::tail_percentile`].
    pub tail: f64,
    /// The highest percentile with at least ten samples beyond it; 50
    /// when there are too few samples for any tail.
    pub tail_percentile: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it: 100 samples give p90, 1 000 give p99, 19 only the median.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= TAIL_MIN_BEYOND * 1_000)
        .map_or(50.0, |(percentile, _)| percentile)
}

/// Linear-interpolated percentile of sorted samples.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here is the
/// spread an outside checker computes from the same values.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Summarize samples. Panics on an empty slice: every caller measures at
/// least once.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, q3) = quartiles_sorted(&sorted);
    let tail_percentile = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        median: percentile_sorted(&sorted, 50.0),
        q1,
        q3,
        tail: percentile_sorted(&sorted, tail_percentile),
        tail_percentile,
    }
}

/// Median of samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What comparing a metric between two result sets concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Better,
    /// The spread exceeds the bound and the two ranges overlap: neither
    /// "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one metric in one result set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Compare `b` against the baseline `a`. `bound` is the share of `a`'s
/// median by which the metric may worsen; a bound of zero means any
/// worsening counts.
pub fn verdict(a: Spread, b: Spread, better: Better, bound: f64) -> Verdict {
    let base = a.median.abs();
    let worse_by = match better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    if base == 0.0 || bound == 0.0 {
        // No scale to take a share of (a metric that is zero when
        // healthy, like `failed_share`): any movement is a verdict.
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::WithinBound,
        };
    }
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1) / base;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by / base > bound {
        Verdict::Worse
    } else if -worse_by / base > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(19), 50.0);
        let s = summarize(&(1..=19).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_percentile, s.tail), (50.0, s.median));
    }

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    fn spread(median: f64, half: f64) -> Spread {
        Spread {
            median,
            q1: median - half,
            q3: median + half,
        }
    }

    #[test]
    fn verdicts_cover_the_four_cases() {
        let a = spread(100.0, 1.0);
        assert_eq!(
            verdict(a, spread(99.0, 1.0), Better::Higher, 0.08),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(a, spread(80.0, 1.0), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, spread(120.0, 1.0), Better::Higher, 0.08),
            Verdict::Better
        );
        assert_eq!(
            verdict(a, spread(120.0, 1.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        // Wide and overlapping: no claim either way.
        assert_eq!(
            verdict(
                spread(100.0, 10.0),
                spread(91.0, 10.0),
                Better::Higher,
                0.08
            ),
            Verdict::Unresolved
        );
        // Wide but disjoint: the medians decide.
        assert_eq!(
            verdict(
                spread(100.0, 10.0),
                spread(60.0, 10.0),
                Better::Higher,
                0.08
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn a_zero_bound_flags_any_increase() {
        let zero = spread(0.0, 0.0);
        assert_eq!(
            verdict(zero, spread(0.1, 0.0), Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(zero, zero, Better::Lower, 0.0),
            Verdict::WithinBound
        );
    }
}

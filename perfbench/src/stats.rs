//! The benchmark's own arithmetic: percentiles, the tail percentile,
//! geometric means, shares with their bases, and failure accounting.
//!
//! Everything here is pure so that the unit tests below pin it down
//! independently of any timing.

use std::collections::{BTreeMap, BTreeSet};

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of all samples at or below it. `None` on no
/// samples.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    let rank = percentile_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn percentile_rank(n: usize, p: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let p = p.clamp(1, 100) as usize;
    Some((p * n).div_ceil(100).max(1))
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The samples in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest whole percentile whose nearest-rank sample still has at
/// least `beyond` samples strictly above it, among `n` samples. `None`
/// when `n <= beyond` (no percentile qualifies).
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    (1..=99)
        .rev()
        .find(|&p| percentile_rank(n, p).is_some_and(|rank| n - rank >= beyond))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// A ratio kept together with its base, so that every printed share can
/// name what it divides by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Share {
    /// Items with the property.
    pub part: u64,
    /// Items the share is taken over.
    pub base: u64,
}

impl Share {
    /// A share of `part` out of `base`.
    pub fn new(part: u64, base: u64) -> Self {
        assert!(part <= base, "share {part}/{base} exceeds its base");
        Share { part, base }
    }

    /// `part / base`, or `None` for an empty base.
    pub fn value(self) -> Option<f64> {
        (self.base > 0).then(|| self.part as f64 / self.base as f64)
    }
}

impl std::fmt::Display for Share {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.part, self.base)
    }
}

/// Request accounting: every attempted request either succeeds or fails
/// for one or more named reasons (a correctness breach, a transport or
/// typed wire error, a panic, or reaching the wall-clock guard). A
/// request counts as failed once, however many checks it breaks.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    attempted: u64,
    failed: BTreeSet<u64>,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one attempted request and returns its index.
    pub fn attempt(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted - 1
    }

    /// Records that attempted request `request` failed for `reason`.
    pub fn fail(&mut self, request: u64, reason: impl Into<String>) {
        assert!(
            request < self.attempted,
            "request {request} was never attempted"
        );
        self.failed.insert(request);
        *self.reasons.entry(reason.into()).or_insert(0) += 1;
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Distinct requests that failed.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> Share {
        Share::new(self.failed(), self.attempted)
    }

    /// Breach counts by reason, in name order.
    pub fn reasons(&self) -> &BTreeMap<String, u64> {
        &self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 51), Some(6.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 1), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 48 samples: p79 is rank 38 (10 beyond); p80 is rank 39 (9).
        assert_eq!(tail_percentile(48, 10), Some(79));
        // 100 samples: p90 is rank 90, exactly 10 beyond.
        assert_eq!(tail_percentile(100, 10), Some(90));
        // 20 samples: the tail collapses onto the median.
        assert_eq!(tail_percentile(20, 10), Some(50));
        // 11 samples: only the lowest rank has 10 above it.
        assert_eq!(tail_percentile(11, 10), Some(9));
        assert_eq!(tail_percentile(10, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
        for n in 11..500 {
            let p = tail_percentile(n, 10).expect("qualifies");
            let rank = percentile_rank(n, p).expect("non-empty");
            assert!(n - rank >= 10, "n={n} p={p}");
            if p < 99 {
                let next = percentile_rank(n, p + 1).expect("non-empty");
                assert!(n - next < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[2.0, 8.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[5.0]).expect("positive");
        assert!((g - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn shares_keep_their_base() {
        let s = Share::new(5, 12);
        assert_eq!(s.to_string(), "5/12");
        assert!((s.value().expect("non-empty") - 5.0 / 12.0).abs() < 1e-15);
        assert_eq!(Share::new(0, 0).value(), None);
        assert_eq!(Share::new(0, 3).value(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "exceeds its base")]
    fn share_above_base_is_a_bug() {
        Share::new(4, 3);
    }

    #[test]
    fn tally_counts_failed_requests_once() {
        let mut t = Tally::default();
        let ids: Vec<u64> = (0..4).map(|_| t.attempt()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(t.failed_share(), Share::new(0, 4));
        t.fail(1, "guard");
        t.fail(2, "sim");
        // A second breach on the same request is recorded but the
        // request still fails only once.
        t.fail(2, "validate");
        assert_eq!(t.failed(), 2);
        assert_eq!(t.reasons().get("sim"), Some(&1));
        assert_eq!(t.reasons().len(), 3);
        assert_eq!(t.failed_share().value(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "never attempted")]
    fn failing_an_unattempted_request_is_a_bug() {
        let mut t = Tally::default();
        t.attempt();
        t.fail(1, "sim");
    }
}

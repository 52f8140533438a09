//! Exact statistics over raw client-side samples.
//!
//! Every timing the benchmark reports is computed here from the full
//! list of samples, never from a bucketed histogram: a power-of-two
//! bucket midpoint cannot resolve a 15 % change.

/// Exact `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, interpolating linearly
/// between the two closest ranks (the "type 7" rule of numpy and R).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of unsorted values (sorts a copy).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A timing distribution: median plus one tail percentile, with the
/// sample count and how many samples lie beyond the tail value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (for example 99.0).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Samples strictly greater than `tail`.
    pub beyond: usize,
}

impl Summary {
    /// Summarises `samples` with the median and the `tail_pct`
    /// percentile.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64], tail_pct: f64) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = quantile_sorted(&sorted, tail_pct / 100.0);
        let beyond = sorted.len() - sorted.partition_point(|&v| v <= tail);
        Self {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            tail_pct,
            tail,
            beyond,
        }
    }

    /// Summarises `samples` with the highest standard percentile that
    /// still has at least ten samples beyond it.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn with_supported_tail(samples: &[f64]) -> Self {
        Self::of(samples, supported_tail_pct(samples.len()))
    }

    /// `p50=… p99=… n=… beyond=…` with values scaled by `scale`.
    #[must_use]
    pub fn describe(&self, scale: f64) -> String {
        format!(
            "p50={:.1} p{}={:.1} n={} beyond={}",
            self.p50 * scale,
            self.tail_pct,
            self.tail * scale,
            self.n,
            self.beyond
        )
    }
}

/// Which window stands for a run: the quiet quartile. On a shared host,
/// phases of slowdown caused by other tenants last seconds and can cover
/// half a run; the median window then reads the neighbours, not the
/// system. The window at the first quartile of latency (third quartile
/// of rate) moves only when three quarters of a run are slower, as they
/// are when the system itself slows.
pub const QUIET_QUARTILE: f64 = 0.25;

/// The quiet quartile of per-window values: the first quartile of a
/// cost (lower is better), the third of a rate (higher is better).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quiet(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better {
        1.0 - QUIET_QUARTILE
    } else {
        QUIET_QUARTILE
    };
    quantile_sorted(&v, q)
}

/// Per-window statistics of a measured interval cut into consecutive
/// windows, each reduced over the full windows to its quiet quartile
/// (see [`QUIET_QUARTILE`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Full windows in the interval.
    pub windows: usize,
    /// Quiet-quartile window median.
    pub p50: f64,
    /// Quiet-quartile samples completed per second.
    pub rate: f64,
}

impl Windowed {
    /// Cuts `samples` — `(completion time in ns since the interval
    /// began, value)` — into windows of `window_ns` over an interval of
    /// `total_ns`, dropping the trailing partial window. Empty windows
    /// count with rate 0 and no median.
    ///
    /// # Panics
    ///
    /// Panics if no full window holds a sample.
    #[must_use]
    pub fn of(samples: &[(u64, f64)], window_ns: u64, total_ns: u64) -> Self {
        let full = (total_ns / window_ns).max(1) as usize;
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); full];
        for &(at, v) in samples {
            if let Some(b) = buckets.get_mut((at / window_ns) as usize) {
                b.push(v);
            }
        }
        let rates: Vec<f64> = buckets
            .iter()
            .map(|b| b.len() as f64 / (window_ns as f64 / 1e9))
            .collect();
        let medians: Vec<f64> = buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| median(b))
            .collect();
        assert!(!medians.is_empty(), "no samples in any full window");
        Self {
            windows: full,
            p50: quiet(&medians, false),
            rate: quiet(&rates, true),
        }
    }

    /// `quiet quartile of N windows: p50=… rate=…` with the median
    /// scaled by `scale`.
    #[must_use]
    pub fn describe(&self, scale: f64) -> String {
        format!(
            "quiet quartile of {} windows: p50={:.1} rate={:.1}/s",
            self.windows,
            self.p50 * scale,
            self.rate
        )
    }
}

/// The highest of the standard percentiles (99.9, 99, 98, 95, 90, 75,
/// 50) that leaves at least ten of `n` samples beyond it.
#[must_use]
pub fn supported_tail_pct(n: usize) -> f64 {
    for pct in [99.9, 99.0, 98.0, 95.0, 90.0, 75.0] {
        if n as f64 * (1.0 - pct / 100.0) >= 10.0 {
            return pct;
        }
    }
    50.0
}

/// Requests attempted and how each one that did not succeed failed.
/// The failure ratio counts typed errors, refusals, timeouts and output
/// mismatches alike against everything attempted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests (or steps, or builds) attempted.
    pub attempted: u64,
    /// Typed errors returned by the system.
    pub errors: u64,
    /// Admission refusals (queue full, quota exceeded).
    pub refusals: u64,
    /// Requests that never resolved in time.
    pub timeouts: u64,
    /// Responses whose bits differ from the reference recomputation.
    pub mismatches: u64,
}

impl Outcomes {
    /// Every attempt that did not end in a correct response.
    #[must_use]
    pub fn failed(&self) -> u64 {
        (self.errors + self.refusals + self.timeouts + self.mismatches).min(self.attempted)
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// `1 − fail_ratio`: the share of attempts that ended correct.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.fail_ratio()
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refusals += other.refusals;
        self.timeouts += other.timeouts;
        self.mismatches += other.mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert!((quantile_sorted(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_counts_and_disorder() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn p99_is_exact_not_a_bucket_midpoint() {
        // 1000 samples 1..=1000 ns: the exact p99 is 990.01, where a
        // power-of-two histogram would report the [512, 1024) midpoint.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v, 99.0);
        assert!((s.tail - 990.01).abs() < 1e-9, "{}", s.tail);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.n, 1000);
        assert_eq!(s.beyond, 10);
        // A 5 % shift of every sample moves p99 by exactly 5 %.
        let shifted: Vec<f64> = v.iter().map(|x| x * 1.05).collect();
        let t = Summary::of(&shifted, 99.0);
        assert!((t.tail / s.tail - 1.05).abs() < 1e-12);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail_pct(20_000), 99.9);
        assert_eq!(supported_tail_pct(1000), 99.0);
        assert_eq!(supported_tail_pct(999), 98.0);
        assert_eq!(supported_tail_pct(120), 90.0);
        assert_eq!(supported_tail_pct(5), 50.0);
        for n in [40usize, 100, 500, 1000, 4000, 10_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = Summary::with_supported_tail(&v);
            assert!(s.beyond >= 10 || s.tail_pct == 50.0, "n={n}: {s:?}");
        }
    }

    /// Five 1 s windows; the first `slow` of them run at 500 ns per
    /// sample and half the rate, the rest at about 10 ns. A sample in the
    /// trailing partial window is dropped.
    fn phases(slow: u64) -> Vec<(u64, f64)> {
        let sec = 1_000_000_000u64;
        let mut samples = Vec::new();
        for w in 0..5u64 {
            let n = if w < slow { 50 } else { 100 };
            for i in 0..n {
                let v = if w < slow {
                    500.0
                } else {
                    10.0 + i as f64 * 0.01
                };
                samples.push((w * sec + i * (sec / n), v));
            }
        }
        samples.push((5 * sec + 1, 1e9));
        samples
    }

    #[test]
    fn windowed_quiet_quartile_ignores_a_noisy_phase() {
        let sec = 1_000_000_000u64;
        // Two of five windows slowed by a neighbour: unchanged.
        let w = Windowed::of(&phases(2), sec, 5 * sec + sec / 2);
        assert_eq!(w.windows, 5);
        assert!((w.p50 - 10.495).abs() < 1e-9, "{w:?}");
        assert_eq!(w.rate, 100.0);
        // Three slow windows of five: the whole-run p75 reads the slow
        // phase, the quiet quartile still does not.
        let all: Vec<f64> = phases(3)[..350].iter().map(|s| s.1).collect();
        assert_eq!(Summary::of(&all, 75.0).tail, 500.0);
        assert!(Windowed::of(&phases(3), sec, 5 * sec).p50 < 11.0);
        // A system slowed for the whole run shows.
        let slowed = Windowed::of(&phases(4), sec, 5 * sec);
        assert_eq!(slowed.p50, 500.0);
        assert_eq!(slowed.rate, 50.0);
    }

    #[test]
    fn windowed_rate_counts_empty_windows() {
        let sec = 1_000_000_000u64;
        let samples: Vec<(u64, f64)> = (0..10).map(|i| (i * 1000, 1.0)).collect();
        // A system that stalls after its first window reads as stalled.
        let w = Windowed::of(&samples, sec, 5 * sec);
        assert_eq!(w.windows, 5);
        assert_eq!(w.rate, 0.0);
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let v = vec![1.0; 500];
        let s = Summary::of(&v, 99.0);
        assert_eq!(s.beyond, 0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1e-4, 1e-2]) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn fail_ratio_counts_every_kind_of_failure() {
        let o = Outcomes {
            attempted: 200,
            errors: 1,
            refusals: 2,
            timeouts: 3,
            mismatches: 4,
        };
        assert_eq!(o.failed(), 10);
        assert!((o.fail_ratio() - 0.05).abs() < 1e-12);
        assert!((o.ok_ratio() - 0.95).abs() < 1e-12);
        let mut total = Outcomes::default();
        assert_eq!(total.fail_ratio(), 0.0);
        total.merge(&o);
        total.merge(&Outcomes {
            attempted: 800,
            ..Outcomes::default()
        });
        assert_eq!(total.attempted, 1000);
        assert!((total.fail_ratio() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn failures_never_exceed_attempts() {
        // A request can both error and be counted as a timeout by two
        // observers; the ratio still saturates at 1.
        let o = Outcomes {
            attempted: 2,
            errors: 2,
            timeouts: 2,
            ..Outcomes::default()
        };
        assert_eq!(o.failed(), 2);
        assert_eq!(o.ok_ratio(), 0.0);
    }
}

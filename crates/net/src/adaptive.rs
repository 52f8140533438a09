//! The adaptive coalescing deadline: an EWMA arrival-rate tracker that
//! retunes the serving front-end's `max_wait` between throughput (dense
//! traffic) and latency (sparse traffic).
//!
//! Like [`Coalescer`](gqa_served::Coalescer), the tracker takes time as
//! an explicit tick argument and has no clocks, threads, or locks
//! inside; the server observes every validated socket `Infer` and
//! applies a fresh suggestion through [`Served::set_max_wait`] every
//! [`AdaptiveConfig::update_every`] arrivals.
//!
//! [`Served::set_max_wait`]: gqa_served::Served::set_max_wait

/// Adaptive-deadline controller configuration (see
/// [`AdaptiveWait`]): the EWMA of observed inter-arrival gaps retunes
/// the live coalescer's `max_wait` through
/// [`gqa_served::Served::set_max_wait`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest gap).
    pub alpha: f64,
    /// Lower clamp on the suggested `max_wait` (ticks).
    pub min_wait: u64,
    /// Upper clamp on the suggested `max_wait` (ticks) — the latency
    /// SLO under sparse traffic.
    pub max_wait: u64,
    /// Apply a fresh suggestion every this many admitted arrivals.
    pub update_every: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            min_wait: 0,
            max_wait: 8,
            update_every: 32,
        }
    }
}

/// EWMA arrival-rate tracker driving the adaptive coalescing deadline.
///
/// Observes request arrival ticks and maintains an exponentially
/// weighted moving average of the inter-arrival gap. The suggested
/// `max_wait` is the time a `max_batch`-wide batch plausibly takes to
/// form at the observed rate — `(max_batch - 1) × ewma_gap` — clamped
/// to `[min_wait, max_wait]`:
///
/// * **Dense traffic** (gap → 0): suggestion clamps to `min_wait`.
///   Batches fill by size before any deadline matters; a long deadline
///   would only add tail latency to stragglers.
/// * **Sparse traffic** (gap large): suggestion clamps to `max_wait`,
///   the latency SLO — never hold a lone request longer than the cap
///   waiting for company that is not coming.
///
/// Pure and deterministic: same observation sequence, same suggestions.
#[derive(Debug, Clone)]
pub struct AdaptiveWait {
    alpha: f64,
    ewma_gap: Option<f64>,
    last_arrival: Option<u64>,
    min_wait: u64,
    max_wait: u64,
}

impl AdaptiveWait {
    /// A tracker smoothing with factor `alpha` (weight of the newest
    /// gap, in `(0, 1]`) and clamping suggestions to
    /// `[min_wait, max_wait]` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `min_wait > max_wait`.
    #[must_use]
    pub fn new(alpha: f64, min_wait: u64, max_wait: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} not in (0, 1]");
        assert!(
            min_wait <= max_wait,
            "min_wait {min_wait} > max_wait {max_wait}"
        );
        Self {
            alpha,
            ewma_gap: None,
            last_arrival: None,
            min_wait,
            max_wait,
        }
    }

    /// Records one arrival at tick `now`. Out-of-order ticks (a wall
    /// clock read racing another thread's) count as gap 0 — densest
    /// possible, which only ever shrinks the suggestion.
    pub fn observe(&mut self, now: u64) {
        if let Some(last) = self.last_arrival {
            let gap = now.saturating_sub(last) as f64;
            self.ewma_gap = Some(match self.ewma_gap {
                Some(e) => e + self.alpha * (gap - e),
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    /// The smoothed inter-arrival gap in ticks (`None` before two
    /// arrivals).
    #[must_use]
    pub fn ewma_gap(&self) -> Option<f64> {
        self.ewma_gap
    }

    /// The suggested `max_wait` for a `max_batch`-wide coalescer:
    /// `(max_batch - 1) × ewma_gap`, clamped to the configured bounds.
    /// Before any gap has been observed, suggests `max_wait` (the
    /// conservative cap).
    #[must_use]
    pub fn suggest(&self, max_batch: usize) -> u64 {
        let Some(gap) = self.ewma_gap else {
            return self.max_wait;
        };
        let fill = gap * max_batch.saturating_sub(1) as f64;
        // Ceil, then clamp: a fractional tick of fill time still needs a
        // whole tick of deadline.
        (fill.ceil() as u64).clamp(self.min_wait, self.max_wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_wait_tracks_dense_and_sparse_regimes() {
        let mut a = AdaptiveWait::new(0.5, 1, 64);
        assert_eq!(a.suggest(16), 64, "no observations: conservative cap");
        // Dense: back-to-back arrivals every tick.
        for now in 0..32 {
            a.observe(now);
        }
        assert!(a.ewma_gap().unwrap() <= 1.0 + 1e-9);
        assert_eq!(a.suggest(16), 15, "15 gaps of ~1 tick fill a 16-batch");
        assert_eq!(a.suggest(2), 1, "tiny batch clamps to min");
        // Sparse: arrivals 1000 ticks apart pull the EWMA up fast.
        for k in 1..=8u64 {
            a.observe(32 + k * 1000);
        }
        assert_eq!(a.suggest(16), 64, "sparse traffic clamps to the cap");
    }

    #[test]
    fn adaptive_wait_is_deterministic() {
        let run = || {
            let mut a = AdaptiveWait::new(0.25, 0, 100);
            for now in [0u64, 3, 4, 10, 11, 11, 30, 31] {
                a.observe(now);
            }
            (a.ewma_gap().unwrap().to_bits(), a.suggest(8))
        };
        assert_eq!(run(), run());
    }
}

//! The request coalescer: a **pure, single-threaded state machine** that
//! turns per-tenant arrivals into same-model batches, fairly.
//!
//! All policy lives here — flush-by-size, flush-by-deadline, model
//! segregation, weighted tenant fairness, bounded admission — and none of
//! the threading does. Time is an explicit `now` argument in **ticks** (an
//! abstract monotonic counter): the production server feeds it wall-time
//! ticks, and the test suites feed it scripted schedules, which is what
//! makes every concurrency and fairness property in `tests/coalesce.rs`
//! and `tests/fairness.rs` reproducible without a single sleep.
//!
//! **Tenant lanes.** Every queue holds one FIFO lane per tenant. A flush
//! takes up to `max_batch` rows from one queue in deficit-round-robin
//! (DRR) order: the lane at the front of the queue's rotation is topped
//! up with `quantum × w_t` credits when its credit is spent, each row
//! costs one credit, and a lane that spends its credit rotates to the
//! back. A lane that empties leaves the rotation and forfeits its
//! residual credit (the anti-banking rule: an idle tenant cannot save up
//! a burst allowance), and a lane that becomes non-empty joins the back.
//!
//! **Starvation-freedom bound.** A row at position `p` (0-based) in
//! tenant `t`'s lane of a queue leaves that queue within
//! `(floor(p / (quantum·w_t)) + 1) · Σ_u quantum·w_u` rows flushed from
//! the queue, counted from the moment it reaches the lane: every full
//! rotation hands each active tenant `u` at most `quantum·w_u` rows, and
//! `t` needs `floor(p / (quantum·w_t)) + 1` of its own visits to reach
//! position `p`. The bound depends on the tenant's **own** lane depth and
//! the weight sum — never on another tenant's backlog.
//!
//! **Admission.** The whole coalescer holds at most `capacity` rows, and
//! tenant `t` at most its weighted share `max(1, capacity · w_t / Σw)`
//! of them (across all queues). With one tenant the share is `capacity`.
//!
//! Determinism contract: given the same sequence of
//! [`Coalescer::submit`] / [`Coalescer::poll`] calls with the same `now`
//! values, the emitted batches are identical — queues are scanned in
//! index order (size-ready batches before deadline-ready ones), lanes are
//! visited in DRR order, and items leave each lane in arrival order.

use std::collections::VecDeque;

use crate::request::{ModelId, Rejected, TenantId};

/// Coalescing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a model's queue as soon as it holds this many requests (the
    /// batched `forward` width the SIMD kernels are paid off by).
    pub max_batch: usize,
    /// Flush a non-empty queue once its **oldest** request has waited
    /// this many ticks, even below `max_batch` — the latency bound. `0`
    /// flushes whatever is queued at the next poll.
    pub max_wait: u64,
    /// Total queued-request bound across all models. Submissions beyond
    /// it — or beyond the submitting tenant's weighted share of it — are
    /// rejected ([`Rejected`]), never buffered: the queue cannot grow
    /// without bound no matter how fast tenants submit.
    pub capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: 2,
            capacity: 1024,
        }
    }
}

/// One queued item plus its arrival tick.
#[derive(Debug)]
struct Pending<T> {
    item: T,
    enqueued: u64,
}

/// A flushed batch: same-model items in DRR order (FIFO per tenant).
#[derive(Debug, PartialEq, Eq)]
pub struct Batch<T> {
    /// The model every item belongs to (batches never mix models).
    pub model: ModelId,
    /// The coalesced items.
    pub items: Vec<T>,
    /// Arrival tick of the oldest item in the batch.
    pub oldest: u64,
}

/// One queue: a FIFO lane per tenant plus the DRR rotation over them.
#[derive(Debug)]
struct Queue<T> {
    lanes: Vec<VecDeque<Pending<T>>>,
    deficit: Vec<u64>,
    /// Tenants with non-empty lanes, front = next to serve.
    active: VecDeque<TenantId>,
    len: usize,
}

impl<T> Queue<T> {
    fn new(tenants: usize) -> Self {
        Self {
            lanes: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficit: vec![0; tenants],
            active: VecDeque::new(),
            len: 0,
        }
    }

    fn push(&mut self, tenant: TenantId, p: Pending<T>) {
        if self.lanes[tenant].is_empty() {
            // A newly active lane joins the BACK of the rotation with an
            // empty deficit: it cannot jump ahead of tenants already
            // waiting for their turn.
            self.active.push_back(tenant);
        }
        self.lanes[tenant].push_back(p);
        self.len += 1;
    }

    /// Arrival tick of the oldest lane front.
    fn oldest(&self) -> Option<u64> {
        self.active
            .iter()
            .map(|&t| self.lanes[t].front().expect("active lanes are non-empty"))
            .map(|p| p.enqueued)
            .min()
    }

    /// Pops the next row in DRR order; `credits[t]` is tenant `t`'s
    /// per-visit credit (`quantum × w_t`).
    fn pop(&mut self, credits: &[u64]) -> Option<(TenantId, Pending<T>)> {
        let &tenant = self.active.front()?;
        if self.deficit[tenant] == 0 {
            self.deficit[tenant] = credits[tenant];
        }
        self.deficit[tenant] -= 1;
        let p = self.lanes[tenant]
            .pop_front()
            .expect("active lanes are non-empty");
        self.len -= 1;
        if self.lanes[tenant].is_empty() {
            // Anti-banking: an emptied lane leaves the rotation and
            // forfeits its residual credit.
            self.active.pop_front();
            self.deficit[tenant] = 0;
        } else if self.deficit[tenant] == 0 {
            self.active.rotate_left(1);
        }
        Some((tenant, p))
    }
}

/// The coalescing state machine. Generic over the queued payload so the
/// scheduler-script tests can drive it with bare markers while the
/// server queues response slots.
#[derive(Debug)]
pub struct Coalescer<T> {
    cfg: BatchConfig,
    /// Per-visit DRR credit per tenant: `quantum × w_t`.
    credits: Vec<u64>,
    /// Per-tenant admission bound: `max(1, capacity · w_t / Σw)`.
    shares: Vec<usize>,
    queues: Vec<Queue<T>>,
    tenant_depth: Vec<usize>,
    depth: usize,
}

impl<T> Coalescer<T> {
    /// A coalescer over `models` queues, each with one lane per entry of
    /// `weights` (the tenants' DRR weights), granting `quantum × w_t`
    /// credits per scheduling visit.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch`, `capacity` or `quantum` is zero, `weights`
    /// is empty, or any weight is zero (configuration bugs, not states).
    #[must_use]
    pub fn new(models: usize, weights: &[u64], quantum: u64, cfg: BatchConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.capacity > 0, "capacity must be positive");
        assert!(quantum > 0, "quantum must be positive");
        assert!(!weights.is_empty(), "a coalescer needs at least one tenant");
        assert!(
            weights.iter().all(|&w| w > 0),
            "tenant weights must be positive, got {weights:?}"
        );
        let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        let shares = weights
            .iter()
            .map(|&w| {
                let share = cfg.capacity as u128 * u128::from(w) / total;
                (share as usize).max(1)
            })
            .collect();
        Self {
            cfg,
            credits: weights.iter().map(|&w| quantum.saturating_mul(w)).collect(),
            shares,
            queues: (0..models).map(|_| Queue::new(weights.len())).collect(),
            tenant_depth: vec![0; weights.len()],
            depth: 0,
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Retunes the deadline bound (`max_wait`) on a live coalescer — the
    /// hook the network layer's adaptive-wait controller uses to track
    /// the observed arrival rate.
    ///
    /// Applies to every queued **and** future request: deadlines are
    /// computed from arrival ticks at poll time, never cached, so a
    /// lowered bound can make already-queued requests immediately
    /// deadline-ready and a raised bound extends them. Batching policy
    /// only — the response bits never depend on `max_wait` (coalescing
    /// invisibility).
    pub fn set_max_wait(&mut self, max_wait: u64) {
        self.cfg.max_wait = max_wait;
    }

    /// Requests currently queued across all models.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Requests `tenant` currently has queued across all models.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant_depth(&self, tenant: TenantId) -> usize {
        self.tenant_depth[tenant]
    }

    /// Admits `item` into `tenant`'s lane of `model`'s queue at tick
    /// `now`, or rejects it.
    ///
    /// # Errors
    ///
    /// [`Rejected`] carrying the tenant's depth and share when the tenant
    /// holds its full weighted share, else the total depth and capacity
    /// when the coalescer is full. The item is returned to the caller
    /// untouched via the error (it was never queued).
    ///
    /// # Panics
    ///
    /// Panics if `model` or `tenant` is out of range — the server
    /// validates ids before they reach the coalescer.
    pub fn submit(
        &mut self,
        model: ModelId,
        tenant: TenantId,
        item: T,
        now: u64,
    ) -> Result<(), (Rejected, T)> {
        let (depth, capacity) = (self.tenant_depth[tenant], self.shares[tenant]);
        if depth >= capacity {
            return Err((Rejected { depth, capacity }, item));
        }
        if self.depth >= self.cfg.capacity {
            return Err((
                Rejected {
                    depth: self.depth,
                    capacity: self.cfg.capacity,
                },
                item,
            ));
        }
        self.queues[model].push(
            tenant,
            Pending {
                item,
                enqueued: now,
            },
        );
        self.tenant_depth[tenant] += 1;
        self.depth += 1;
        Ok(())
    }

    fn deadline_hit(&self, q: &Queue<T>, now: u64) -> bool {
        q.oldest()
            .is_some_and(|t| now >= t.saturating_add(self.cfg.max_wait))
    }

    /// Whether a poll at tick `now` would emit a batch.
    #[must_use]
    pub fn ready(&self, now: u64) -> bool {
        self.queues
            .iter()
            .any(|q| q.len >= self.cfg.max_batch || self.deadline_hit(q, now))
    }

    /// Emits the next ready batch at tick `now`, or `None` when nothing is
    /// flushable yet.
    ///
    /// Scan order is deterministic: first the lowest-indexed queue with a
    /// **full** batch (`max_batch` queued across its lanes — these pay for
    /// themselves regardless of deadlines), then the lowest-indexed queue
    /// whose oldest lane front has aged past `max_wait`. Either way at
    /// most `max_batch` items leave, in DRR order.
    pub fn poll(&mut self, now: u64) -> Option<Batch<T>> {
        let n = self.queues.len();
        let m = (0..n)
            .find(|&m| self.queues[m].len >= self.cfg.max_batch)
            .or_else(|| (0..n).find(|&m| self.deadline_hit(&self.queues[m], now)))?;
        Some(self.flush(m))
    }

    /// Emits the next non-empty queue as a batch regardless of size or
    /// deadline — the shutdown drain, so no queued request is ever
    /// dropped on the floor.
    pub fn drain(&mut self) -> Option<Batch<T>> {
        (0..self.queues.len())
            .find(|&m| self.queues[m].len > 0)
            .map(|m| self.flush(m))
    }

    /// The earliest tick at which a currently queued request hits its
    /// deadline (`None` when empty). The server sizes its waits with
    /// this; a size-ready queue reports its oldest front's deadline too,
    /// which is always `<=` any wait the caller would compute.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.queues
            .iter()
            .filter_map(Queue::oldest)
            .min()
            .map(|t| t.saturating_add(self.cfg.max_wait))
    }

    fn flush(&mut self, model: ModelId) -> Batch<T> {
        let queue = &mut self.queues[model];
        let take = queue.len.min(self.cfg.max_batch);
        let mut items = Vec::with_capacity(take);
        let mut oldest = u64::MAX;
        for _ in 0..take {
            let (tenant, p) = queue.pop(&self.credits).expect("take <= queue length");
            self.tenant_depth[tenant] -= 1;
            oldest = oldest.min(p.enqueued);
            items.push(p.item);
        }
        self.depth -= take;
        Batch {
            model,
            items,
            oldest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_wait: u64, capacity: usize) -> BatchConfig {
        BatchConfig {
            max_batch,
            max_wait,
            capacity,
        }
    }

    fn single(models: usize, cfg: BatchConfig) -> Coalescer<u32> {
        Coalescer::new(models, &[1], 4, cfg)
    }

    #[test]
    fn flushes_by_size_before_deadline() {
        let mut c = single(1, cfg(3, 100, 10));
        for i in 0..3 {
            c.submit(0, 0, i, 0).unwrap();
        }
        // Deadline (tick 100) is far away, but the batch is full.
        let b = c.poll(0).expect("size-ready");
        assert_eq!((b.model, b.items, b.oldest), (0, vec![0, 1, 2], 0));
        assert_eq!(c.depth(), 0);
        assert!(c.poll(0).is_none());
    }

    #[test]
    fn flushes_by_deadline_exactly_at_max_wait() {
        let mut c = single(1, cfg(8, 5, 10));
        c.submit(0, 0, 7, 2).unwrap();
        assert!(!c.ready(6), "one tick early");
        assert!(c.poll(6).is_none());
        assert_eq!(c.next_deadline(), Some(7));
        let b = c.poll(7).expect("deadline-ready");
        assert_eq!(b.items, vec![7]);
    }

    #[test]
    fn oversize_queue_flushes_in_max_batch_chunks_fifo() {
        let mut c = single(1, cfg(2, 0, 10));
        for i in 0..5 {
            c.submit(0, 0, i, 0).unwrap();
        }
        assert_eq!(c.poll(0).unwrap().items, vec![0, 1]);
        assert_eq!(c.poll(0).unwrap().items, vec![2, 3]);
        // The remainder goes out via the deadline rule (max_wait = 0).
        assert_eq!(c.poll(0).unwrap().items, vec![4]);
        assert!(c.poll(0).is_none());
    }

    #[test]
    fn models_never_mix_and_lower_index_flushes_first() {
        let mut c = single(2, cfg(2, 0, 10));
        c.submit(1, 0, 10, 0).unwrap();
        c.submit(0, 0, 20, 0).unwrap();
        c.submit(1, 0, 11, 0).unwrap();
        // Model 1 has a full batch; size-readiness outranks model 0's
        // deadline-readiness even though model 0 has the lower index.
        let b = c.poll(0).unwrap();
        assert_eq!((b.model, b.items), (1, vec![10, 11]));
        let b = c.poll(0).unwrap();
        assert_eq!((b.model, b.items), (0, vec![20]));
    }

    #[test]
    fn rejects_at_capacity_and_returns_the_item() {
        let mut c = single(1, cfg(4, 10, 2));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(0, 0, 2, 0).unwrap();
        let (rej, item) = c.submit(0, 0, 3, 0).unwrap_err();
        assert_eq!((rej.depth, rej.capacity, item), (2, 2, 3));
        assert_eq!(c.depth(), 2, "rejected submissions never queue");
        // Flushing frees capacity again.
        let _ = c.poll(10).unwrap();
        c.submit(0, 0, 3, 10).unwrap();
    }

    #[test]
    fn drain_empties_everything_ignoring_deadlines() {
        let mut c = single(2, cfg(8, 1000, 10));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(1, 0, 2, 0).unwrap();
        assert!(c.poll(0).is_none(), "nothing is ready by policy");
        assert_eq!(c.drain().unwrap().items, vec![1]);
        assert_eq!(c.drain().unwrap().items, vec![2]);
        assert!(c.drain().is_none());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn size_readiness_and_deadline_span_every_lane() {
        let mut c = Coalescer::new(1, &[1, 1], 4, cfg(3, 5, 10));
        c.submit(0, 1, 10, 4).unwrap();
        c.submit(0, 0, 20, 1).unwrap();
        // Two rows in two lanes: not size-ready; the deadline is the
        // oldest lane front (tick 1), not the rotation front's.
        assert_eq!(c.next_deadline(), Some(6));
        assert!(!c.ready(5));
        c.submit(0, 0, 21, 5).unwrap();
        assert!(c.ready(5), "three rows across two lanes fill the batch");
        let b = c.poll(5).unwrap();
        assert_eq!((b.items, b.oldest), (vec![10, 20, 21], 1));
    }

    #[test]
    fn equal_weights_interleave_in_quantum_runs() {
        let mut c = Coalescer::new(1, &[1, 1], 2, cfg(1, 0, 64));
        for i in 0..6 {
            c.submit(0, 0, i, 0).unwrap();
            c.submit(0, 1, 100 + i, 0).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| c.poll(0).map(|b| b.items[0])).collect();
        // Tenant 0 activated first: runs of `quantum = 2` alternate.
        assert_eq!(order, vec![0, 1, 100, 101, 2, 3, 102, 103, 4, 5, 104, 105]);
    }

    #[test]
    fn weights_set_the_flush_proportion() {
        let mut c = Coalescer::new(1, &[3, 1], 2, cfg(8, 0, 256));
        for i in 0..24 {
            c.submit(0, 0, i, 0).unwrap();
            c.submit(0, 1, 100 + i, 0).unwrap();
        }
        // One full rotation in one batch: 6 from tenant 0 (quantum 2 ×
        // weight 3), then 2 from tenant 1.
        let b = c.poll(0).unwrap();
        assert_eq!(b.items, vec![0, 1, 2, 3, 4, 5, 100, 101]);
    }

    #[test]
    fn tenant_share_rejects_with_typed_depth_and_share() {
        let mut c = Coalescer::new(2, &[1, 1], 4, cfg(4, 10, 4));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(1, 0, 2, 0).unwrap();
        // Tenant 0's share (4 · 1/2 = 2) counts across every queue.
        let (rej, item) = c.submit(0, 0, 3, 0).unwrap_err();
        assert_eq!((rej.depth, rej.capacity, item), (2, 2, 3));
        // The OTHER tenant's share is unaffected.
        c.submit(0, 1, 9, 0).unwrap();
        assert_eq!((c.tenant_depth(0), c.tenant_depth(1)), (2, 1));
    }

    #[test]
    fn share_is_at_least_one_row() {
        let mut c = Coalescer::new(1, &[1, 1, 1, 1], 4, cfg(4, 10, 2));
        // 2 · 1/4 floors to 0; every tenant may still queue one row, and
        // the global bound still caps the total.
        c.submit(0, 3, 1, 0).unwrap();
        c.submit(0, 2, 2, 0).unwrap();
        let (rej, _) = c.submit(0, 1, 3, 0).unwrap_err();
        assert_eq!((rej.depth, rej.capacity), (2, 2));
    }

    #[test]
    fn emptied_lane_forfeits_residual_credit() {
        let mut c = Coalescer::new(1, &[1, 1], 4, cfg(1, 0, 16));
        c.submit(0, 0, 1, 0).unwrap();
        c.submit(0, 1, 2, 0).unwrap();
        assert_eq!(c.poll(0).unwrap().items, vec![1]);
        // Tenant 0's lane emptied with 3 credits left; re-submitting must
        // NOT let it bank them into a 7-long run.
        for i in 10..18 {
            c.submit(0, 0, i, 0).unwrap();
        }
        // Tenant 1 is at the front of the rotation now.
        assert_eq!(c.poll(0).unwrap().items, vec![2]);
        let next: Vec<u32> = (0..4).map(|_| c.poll(0).unwrap().items[0]).collect();
        assert_eq!(
            next,
            vec![10, 11, 12, 13],
            "fresh quantum, not banked credit"
        );
        assert_eq!(
            c.poll(0).unwrap().items,
            vec![14],
            "still tenant 0: no one else queued"
        );
    }
}

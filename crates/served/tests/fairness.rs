//! Deterministic fairness suites — all virtual time, no sleeps, no
//! tolerances.
//!
//! The centrepiece is the DRR starvation-freedom bound: a row whose
//! tenant lane holds `p` rows ahead of it leaves its queue within
//! `(floor(p / (quantum·w_t)) + 1) · Σ_u quantum·w_u` rows flushed from
//! that queue, no matter how hard every other tenant floods. The pure
//! [`Coalescer`] tests flush one row per batch (`max_batch` 1), so every
//! flush is one DRR release; they pin that bound exactly under an
//! adversarial backlog and pin weighted throughput shares over a
//! sustained replay. The [`Served`](gqa_served::Served)-level tests pin
//! the same properties end to end through the threaded server: a
//! flooding tenant cannot push another tenant's row behind its backlog,
//! nor take another tenant's share of the queue.

use std::sync::{Arc, Condvar, Mutex};

use gqa_serve::{EngineBuilder, OperatorPlan};
use gqa_served::{
    generate_trace, BatchConfig, Coalescer, LoadGenConfig, ModelSpec, Rejected, Request,
    ServedBuilder, ServedConfig, ServedError,
};
use gqa_tensor::Tensor;

/// A one-queue coalescer that flushes single rows, giving each tenant
/// `share · w_t` admission slots. Payloads are `(tenant, marker)`.
fn fair(weights: &[u64], share: usize, quantum: u64) -> Coalescer<(usize, u32)> {
    let total: u64 = weights.iter().sum();
    let batch = BatchConfig {
        max_batch: 1,
        max_wait: 0,
        capacity: share * total as usize,
    };
    Coalescer::new(1, weights, quantum, batch)
}

fn admit(
    f: &mut Coalescer<(usize, u32)>,
    tenant: usize,
    item: u32,
    now: u64,
) -> Result<(), Rejected> {
    f.submit(0, tenant, (tenant, item), now).map_err(|(r, _)| r)
}

/// One flushed row: its tenant, marker, and wait in ticks.
struct Release {
    tenant: usize,
    item: u32,
    waited: u64,
}

fn release(f: &mut Coalescer<(usize, u32)>, now: u64) -> Option<Release> {
    f.poll(now).map(|b| {
        let [(tenant, item)] = b.items[..] else {
            panic!("max_batch 1 flushes single rows");
        };
        Release {
            tenant,
            item,
            waited: now - b.oldest,
        }
    })
}

/// The worst-case flush position of a row at lane depth `p` for tenant
/// `t`: every full quantum run of every tenant can precede each of the
/// row's own quantum runs.
fn starvation_bound(weights: &[u64], quantum: u64, t: usize, p: u64) -> u64 {
    let per_visit: u64 = quantum * weights[t];
    let round: u64 = weights.iter().map(|w| quantum * w).sum();
    (p / per_visit + 1) * round
}

/// An adversary floods three heavy lanes to their share; a light tenant
/// submits one item. The light item is released within the analytic
/// bound — and the bound is *independent of the flood depth*.
#[test]
fn light_tenant_release_is_bounded_under_flood() {
    let weights = [1u64, 1, 1, 1];
    let quantum = 4;
    let share = 256;
    let mut f = fair(&weights, share, quantum);

    // Heavy tenants 0..3 fill their lanes to their share BEFORE the
    // light tenant shows up — worst case for FIFO, best case for
    // starvation.
    for heavy in 0..3 {
        for i in 0..share as u32 {
            admit(&mut f, heavy, heavy as u32 * 1000 + i, 0).unwrap();
        }
    }
    admit(&mut f, 3, 9999, 0).unwrap();

    let bound = starvation_bound(&weights, quantum, 3, 0);
    let mut released_at = None;
    for k in 1..=bound {
        let r = release(&mut f, k).unwrap();
        if r.tenant == 3 {
            released_at = Some(k);
            break;
        }
    }
    let released_at = released_at.expect("light tenant starved past the analytic bound");
    assert!(
        released_at <= bound,
        "released at {released_at}, bound {bound}"
    );
    // Tighter sanity: with equal weights the light item waits at most
    // one full round of everyone's quantum (it sits at lane depth 0).
    assert!(released_at <= weights.len() as u64 * quantum);
}

/// The bound holds at depth too: an item buried `p` deep in its own
/// lane still releases within the analytic bound while the other
/// tenants keep their lanes saturated the whole time.
#[test]
fn buried_item_release_is_bounded_under_sustained_flood() {
    let weights = [1u64, 1, 2];
    let quantum = 2;
    let share = 64;
    let mut f = fair(&weights, share, quantum);

    let p = 10u64; // our item's lane depth at submission
    for i in 0..p as u32 {
        admit(&mut f, 2, 100 + i, 0).unwrap();
    }
    admit(&mut f, 2, 777, 0).unwrap();

    let bound = starvation_bound(&weights, quantum, 2, p);
    let mut seen = false;
    for k in 1..=bound {
        // Adversary: keep the heavy lanes topped up at every step.
        for heavy in 0..2 {
            while f.tenant_depth(heavy) < share {
                if admit(&mut f, heavy, 0, k).is_err() {
                    break;
                }
            }
        }
        if let Some(r) = release(&mut f, k) {
            if r.item == 777 {
                seen = true;
                break;
            }
        }
    }
    assert!(seen, "item at depth {p} starved past the bound {bound}");
}

/// Sustained weighted shares: over full rounds with all lanes saturated,
/// releases split exactly `quantum·w` per tenant per round — DRR's
/// throughput guarantee, not an approximation.
#[test]
fn sustained_shares_track_weights_exactly() {
    let weights = [4u64, 2, 1];
    let quantum = 2;
    let mut f = fair(&weights, 1024, quantum);
    let round: u64 = weights.iter().map(|w| quantum * w).sum();
    let rounds = 6u64;

    for (t, &w) in weights.iter().enumerate() {
        for i in 0..(quantum * w * rounds) as u32 {
            admit(&mut f, t, i, 0).unwrap();
        }
    }
    let mut counts = [0u64; 3];
    for k in 0..round * rounds {
        let r = release(&mut f, k).expect("lanes sized to drain exactly");
        counts[r.tenant] += 1;
    }
    assert_eq!(
        counts,
        [
            quantum * weights[0] * rounds,
            quantum * weights[1] * rounds,
            quantum * weights[2] * rounds
        ],
        "shares must be exactly quantum-weighted"
    );
    assert_eq!(f.depth(), 0);
}

/// Replaying the seeded Zipf trace through the lanes: the hottest
/// tenant's flood cannot push the coldest tenant's worst admission wait
/// (in releases) past the analytic bound.
#[test]
fn zipf_replay_keeps_cold_tenant_waits_bounded() {
    let tenants = 4;
    let weights = vec![1u64; tenants];
    let quantum = 4u64;
    let share = 64;
    let trace = generate_trace(&LoadGenConfig {
        seed: 0xFA1,
        requests: 512,
        tenants,
        models: 1,
        skew: 1.3, // hard skew: tenant 0 dominates
        mean_gap: 0,
    });

    let mut f = fair(&weights, share, quantum);
    let mut worst_wait = vec![0u64; tenants];
    let mut clock = 0u64;
    let mut it = trace.iter().peekable();
    // Closed alternation: one arrival, one release per tick — a flusher
    // that keeps up, while lanes still go deep under bursts.
    while it.peek().is_some() || f.depth() > 0 {
        if let Some(e) = it.next() {
            // Shed on the share like the server does; the trace is hot
            // enough that tenant 0 sheds, the cold tenants never do.
            let _ = admit(&mut f, e.tenant, 0, clock);
        }
        if let Some(r) = release(&mut f, clock) {
            worst_wait[r.tenant] = worst_wait[r.tenant].max(r.waited);
        }
        clock += 1;
    }
    let bound = starvation_bound(&weights, quantum, tenants - 1, (share - 1) as u64);
    assert!(
        worst_wait[tenants - 1] <= bound,
        "cold tenant worst wait {} exceeds bound {bound} (waits: {worst_wait:?})",
        worst_wait[tenants - 1]
    );
}

/// The bitwise-determinism contract of the fairness layer itself: the
/// same submissions at the same ticks release in the same order with
/// the same waits, run after run.
#[test]
fn fair_schedule_is_deterministic() {
    let run = || {
        let mut f = fair(&[2, 1], 16, 3);
        let mut out = Vec::new();
        for k in 0..64u64 {
            admit(&mut f, (k % 3 == 0) as usize, k as u32, k).ok();
            if let Some(r) = release(&mut f, k) {
                out.push((r.tenant, r.item, r.waited));
            }
        }
        out
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------
// Through the threaded server
// ---------------------------------------------------------------------

/// A gate a model forward can park on: the test learns when the worker
/// is inside the forward and decides when it may leave.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (entered, open)
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
        while !s.1 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.0 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

fn row(marker: f32) -> Tensor {
    Tensor::from_vec(vec![marker], &[1])
}

/// One worker parked on a gate; 64 tenant-0 rows and then one tenant-1
/// row queue behind it. After release, tenant 1's row leaves within the
/// DRR bound — the second batch — not behind tenant 0's whole backlog
/// (a shared FIFO would flush it 17th).
#[test]
fn flooding_tenant_cannot_push_another_tenant_behind_its_backlog() {
    let gate = Arc::new(Gate::default());
    let batches: Arc<Mutex<Vec<Vec<f32>>>> = Arc::default();
    let spec = {
        let (gate, batches) = (Arc::clone(&gate), Arc::clone(&batches));
        ModelSpec::new("probe", &[1], move |g, x| {
            batches.lock().unwrap().push(g.value(x).data.clone());
            gate.park();
            g.scale(x, 1.0)
        })
    };
    let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: 0,
                capacity: 128,
            },
            workers: 1,
            tenants: 2, // default quantum: 4
            ..ServedConfig::default()
        })
        .with_virtual_clock()
        .build();
    let submit = |tenant: usize, marker: f32| {
        served
            .submit(Request {
                tenant,
                model: 0,
                input: row(marker),
            })
            .unwrap()
    };

    let mut tickets = vec![submit(0, -1.0)];
    gate.wait_entered();
    tickets.extend((0..64).map(|i| submit(0, i as f32)));
    tickets.push(submit(1, 1000.0));
    gate.open();
    for t in tickets {
        t.wait().unwrap();
    }

    let batches = batches.lock().unwrap();
    assert_eq!(batches[0], vec![-1.0], "the parked batch");
    let flushed = &batches[1..];
    let at = flushed
        .iter()
        .position(|b| b.contains(&1000.0))
        .expect("tenant 1's row was flushed");
    let rows_through: usize = flushed[..=at].iter().map(Vec::len).sum();
    let bound = starvation_bound(&[1, 1], 4, 1, 0);
    assert!(
        rows_through as u64 <= bound,
        "tenant 1's row left after {rows_through} rows, bound {bound}"
    );
    assert_eq!(at + 1, 2, "tenant 1's row must flush in the second batch");
}

/// Each tenant may hold only its weighted share of the queue: with two
/// equal tenants and capacity 8, tenant 0 is refused at 4 queued rows
/// (its share) while tenant 1 is still admitted.
#[test]
fn a_tenant_is_refused_at_its_share_while_others_are_admitted() {
    let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
        .with_model(ModelSpec::new("id", &[1], |g, x| g.scale(x, 1.0)))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: 0,
                capacity: 8,
            },
            workers: 0,
            tenants: 2,
            ..ServedConfig::default()
        })
        .with_virtual_clock()
        .build();
    let submit = |tenant: usize| {
        served.submit(Request {
            tenant,
            model: 0,
            input: row(0.5),
        })
    };

    let mut tickets: Vec<_> = (0..4).map(|_| submit(0).unwrap()).collect();
    match submit(0) {
        Err(ServedError::Rejected(Rejected {
            depth: 4,
            capacity: 4,
        })) => {}
        other => panic!("expected Rejected {{ depth: 4, capacity: 4 }}, got {other:?}"),
    }
    tickets.push(submit(1).expect("tenant 1 keeps its own share"));
    assert_eq!(served.stats().depth, 5);
    assert_eq!(served.stats().rejected, 1);
}

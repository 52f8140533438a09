//! Adaptive `max_wait`: the EWMA controller and the live retune hook
//! it drives — all virtual time, no sleeps, no tolerances.

use gqa_net::AdaptiveWait;
use gqa_serve::{EngineBuilder, OperatorPlan};
use gqa_served::{BatchConfig, ModelSpec, Request, ServedBuilder, ServedConfig};
use gqa_tensor::Tensor;

/// `suggest` scales with the observed gap: dense traffic drives the
/// deadline to the floor, sparse traffic to the SLO cap — exactly
/// `clamp(ceil(gap · (max_batch − 1)))` in between.
#[test]
fn adaptive_suggestion_is_the_clamped_fill_time() {
    let mut a = AdaptiveWait::new(1.0, 1, 100); // alpha 1: ewma = last gap
    a.observe(0);
    a.observe(4); // gap 4
    assert_eq!(a.suggest(8), 28, "4 ticks × 7 remaining slots");
    a.observe(4); // gap 0: dense burst
    assert_eq!(a.suggest(8), 1, "dense traffic floors at min_wait");
    a.observe(1000); // huge gap
    assert_eq!(a.suggest(8), 100, "sparse traffic caps at max_wait");
}

/// [`Served::set_max_wait`] retunes a LIVE virtual-clock server: a
/// request parked behind an unreachable deadline flushes the moment the
/// bound drops to zero — no clock movement, no resubmission.
#[test]
fn set_max_wait_flushes_parked_work_immediately() {
    let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
        .with_model(ModelSpec::new("double", &[2], |g, x| g.scale(x, 2.0)))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: 1_000_000,
                capacity: 8,
            },
            workers: 1,
            tenants: 1,
            ..ServedConfig::default()
        })
        .with_virtual_clock()
        .build();
    let mut ticket = served
        .submit(Request {
            tenant: 0,
            model: 0,
            input: Tensor::from_vec(vec![1.5, -2.0], &[2]),
        })
        .unwrap();
    // Parked: not size-ready (1 of 16) and the deadline is a million
    // ticks out on a clock that never moves.
    assert!(ticket
        .wait_timeout(std::time::Duration::from_millis(20))
        .is_none());

    let prev = served.set_max_wait(0);
    assert_eq!(prev, 1_000_000, "retune reports the previous bound");
    let out = ticket.wait().unwrap();
    assert_eq!(out.data, vec![3.0, -4.0]);
    assert_eq!(served.batch_config().max_wait, 0);
    assert_eq!(served.now(), 0, "the clock never moved");
}

//! `segformer_open`: one generator thread submits SegformerLite images
//! (all five operators LUT-served, calibrated) to the in-process
//! front-end on a seeded open-loop schedule; one thread collects the
//! tickets. The offered load steps through a fixed ladder of three
//! rates, then a saturating phase keeps the front-end full to measure
//! its capacity. Forward compute dominates; the socket layer is
//! bypassed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa_net::{RequestFrame, ResponseFrame};
use gqa_registry::LutRegistry;
use gqa_serve::Engine;
use gqa_served::{
    dispatch_batch, generate_trace, request_input, trace_fingerprint, LoadGenConfig, ModelSpec,
    Request, Served, ServedBuilder, ServedConfig, ServedError, Ticket, TraceEntry,
};
use gqa_tensor::{BufferPool, Tensor};

use crate::models::{
    bits_hash, engine_with, exact_forward, mse, random_images, spec_of, Seg, SEG_SHAPE,
};
use crate::replay;
use crate::report::Report;
use crate::stats::{median, Outcomes, Summary};
use crate::trace::Tracer;
use crate::workloads::{
    process_cpu, report_latency, report_outcomes, report_overhead, timed_setup, windowed, Slices,
};
use crate::Args;

/// Offered rates (images per second) of the three rungs, sized once at
/// about 20, 40 and 70 % of the open-loop capacity measured on the
/// reference host when it was quiet (about 1,000 img/s; see README.md)
/// and frozen as absolute numbers. The headroom keeps the gated middle
/// rung below the knee when other tenants take CPU from the host.
pub const LADDER: [f64; 3] = [200.0, 400.0, 700.0];
/// The p99 latency limit (from the due time) a rung must meet to count
/// towards `slo_rate_rps`.
pub const SLO_P99_US: f64 = 25_000.0;
/// The rung whose latency is gated (`latency_p50_us`):
/// the middle one, where queueing shows but does not dominate.
const GATED_RUNG: usize = 1;
/// Shares of the measured time per rung, then of the capacity phase:
/// the gated rung and the capacity phase get twice the other rungs, so
/// their gated figures are read from twice as many windows.
const SHARE: [u32; 4] = [1, 2, 1, 2];
/// Tickets the capacity phase keeps outstanding: two full batches per
/// worker of the shipped defaults (`max_batch` 16, 2 workers), so a full
/// batch is always queued and the completion rate is the one the
/// front-end sets, not an offered one.
const CAPACITY_DEPTH: usize = 64;
/// Distinct images per rung: request `i` carries image `i % POOL`,
/// generated from the payload seeds of the rung's first `POOL` entries
/// before the rung starts, so the generator does no per-request work on
/// the cores the server runs on. Prime, so every `SAMPLE`-th request
/// still visits every image.
const POOL: usize = 31;
/// A rung whose outstanding tickets exceed this when its schedule ends
/// has a growing backlog.
const BACKLOG_LIMIT: u64 = 64;
/// Generator lateness (p99) beyond which the run is invalid: the
/// generator, not the system, fell behind.
const GEN_LAG_LIMIT_US: f64 = 2_000.0;
/// Every `SAMPLE`-th request keeps an output fingerprint for the checks.
const SAMPLE: usize = 16;
/// Sampled requests scored against exact math.
const APPROX_SAMPLES: usize = 3 * POOL;
/// Images replayed in process (and over a probe socket) by a traced run.
const REPLAY: usize = 200;
/// Seed of the fixed calibration images (part of the system, not of the
/// workload's inputs).
const CALIB_SEED: u64 = 0xca1b;
/// How long the collector waits for one ticket before counting a timeout.
const TICKET_TIMEOUT: Duration = Duration::from_secs(30);

struct Stack {
    served: Served,
    engine: Engine,
    spec: ModelSpec,
    seg: Arc<Seg>,
}

fn build(tracer: &Arc<Tracer>) -> Result<Stack, String> {
    let seg = Arc::new(Seg::new(Arc::clone(tracer)));
    let plan = seg.calibrated_plan(&random_images(CALIB_SEED, 4));
    let engine = engine_with(plan, Arc::new(LutRegistry::new()))?;
    let spec = spec_of("segformer", &SEG_SHAPE, Arc::clone(&seg));
    let served = ServedBuilder::new(engine.clone())
        .with_model(spec.clone())
        .with_config(ServedConfig::default())
        .build();
    for img in random_images(CALIB_SEED + 1, 16) {
        served
            .serve(Request {
                tenant: 0,
                model: 0,
                input: img,
            })
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Stack {
        served,
        engine,
        spec,
        seg,
    })
}

/// The seeded schedule of one rung: arrival offsets in microseconds
/// with uniform gaps of mean `1e6 / rate`, long enough for `dur`.
#[must_use]
pub fn schedule(seed: u64, rung: usize, rate: f64, dur: Duration) -> Vec<TraceEntry> {
    let gap_us = (1e6 / rate).round() as u64;
    let requests = (rate * dur.as_secs_f64() * 1.25) as usize + 64;
    let trace = generate_trace(&LoadGenConfig {
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rung as u64),
        requests,
        tenants: 1,
        models: 1,
        skew: 1.0,
        mean_gap: gap_us,
    });
    let horizon = dur.as_micros() as u64;
    trace.into_iter().take_while(|e| e.at < horizon).collect()
}

/// The distinct images of a rung (see [`POOL`]).
#[must_use]
pub fn image_pool(sched: &[TraceEntry]) -> Vec<Tensor> {
    sched
        .iter()
        .take(POOL)
        .map(|e| request_input(e, &SEG_SHAPE))
        .collect()
}

struct Submitted {
    image: usize,
    due: Instant,
    ticket: Ticket,
    traced: bool,
}

/// What the collector saw for one rung.
#[derive(Default)]
struct RungLog {
    /// `(completion ns since the rung began, latency from due ns, traced
    /// slice)` per completed request.
    latencies: Vec<(u64, f64, bool)>,
    /// `(pool image, output fingerprint)` of every `SAMPLE`-th request.
    samples: Vec<(usize, u64)>,
    outcomes: Outcomes,
}

fn collect(
    rx: mpsc::Receiver<(usize, Submitted)>,
    start: Instant,
    collected: &AtomicU64,
) -> RungLog {
    let mut log = RungLog::default();
    for (i, mut s) in rx {
        match s.ticket.wait_timeout(TICKET_TIMEOUT) {
            Some(Ok(out)) => {
                let done = Instant::now();
                log.latencies.push((
                    done.saturating_duration_since(start).as_nanos() as u64,
                    done.saturating_duration_since(s.due).as_nanos() as f64,
                    s.traced,
                ));
                if i % SAMPLE == 0 {
                    log.samples.push((s.image, bits_hash(&out)));
                }
            }
            Some(Err(_)) => log.outcomes.errors += 1,
            None => log.outcomes.timeouts += 1,
        }
        collected.fetch_add(1, Ordering::Release);
    }
    log
}

/// Result of one rung.
struct Rung {
    rate: f64,
    fingerprint: u64,
    pool: Vec<Tensor>,
    log: RungLog,
    gen_lag_ns: Vec<f64>,
    backlog_max: u64,
    backlog_end: u64,
}

fn run_rung(
    served: &Served,
    tracer: &Tracer,
    seed: u64,
    rung: usize,
    dur: Duration,
    traced: bool,
) -> Rung {
    let rate = LADDER[rung];
    let sched = schedule(seed, rung, rate, dur);
    let pool = image_pool(&sched);
    let collected = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel();
    let mut gen_lag_ns = Vec::with_capacity(sched.len());
    let (mut backlog_max, mut backlog_end) = (0u64, 0u64);
    let mut outcomes = Outcomes::default();
    let mut log = std::thread::scope(|s| {
        let start = Instant::now() + Duration::from_millis(1);
        let counter = &collected;
        let collector = s.spawn(move || collect(rx, start, counter));
        let slices = traced.then(|| Slices::new(start, dur));
        for (i, e) in sched.iter().enumerate() {
            let input = pool[i % POOL].clone();
            let due = start + Duration::from_micros(e.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit_at = Instant::now();
            gen_lag_ns.push(submit_at.saturating_duration_since(due).as_nanos() as f64);
            let in_traced = slices.is_some_and(|sl| sl.traced_at(due));
            tracer.set_enabled(in_traced);
            let backlog = i as u64 - collected.load(Ordering::Acquire);
            backlog_max = backlog_max.max(backlog);
            outcomes.attempted += 1;
            let (span, t0) = (tracer.next_id(), tracer.now());
            match served.submit(Request {
                tenant: 0,
                model: 0,
                input,
            }) {
                Ok(ticket) => {
                    if in_traced {
                        tracer.record(span, "served.submit", t0, 0, i as u64 + 1);
                    }
                    let sub = Submitted {
                        image: i % POOL,
                        due,
                        ticket,
                        traced: in_traced,
                    };
                    tx.send((i, sub)).expect("collector alive");
                }
                Err(ServedError::Rejected(_)) => {
                    outcomes.refusals += 1;
                    collected.fetch_add(1, Ordering::Release);
                }
                Err(_) => {
                    outcomes.errors += 1;
                    collected.fetch_add(1, Ordering::Release);
                }
            }
        }
        backlog_end = sched.len() as u64 - collected.load(Ordering::Acquire);
        drop(tx);
        collector.join().expect("collector thread")
    });
    tracer.set_enabled(false);
    log.outcomes.merge(&outcomes);
    Rung {
        rate,
        fingerprint: trace_fingerprint(&sched),
        pool,
        log,
        gen_lag_ns,
        backlog_max,
        backlog_end,
    }
}

/// The capacity phase: submits images from `pool` as fast as the
/// front-end completes them, keeping about [`CAPACITY_DEPTH`] tickets
/// outstanding, for `dur`. Latencies are measured from submission.
fn run_capacity(served: &Served, pool: &[Tensor], dur: Duration) -> RungLog {
    let collected = AtomicU64::new(0);
    let (tx, rx) = mpsc::sync_channel(CAPACITY_DEPTH);
    let mut outcomes = Outcomes::default();
    let mut log = std::thread::scope(|s| {
        let start = Instant::now();
        let end = start + dur;
        let counter = &collected;
        let collector = s.spawn(move || collect(rx, start, counter));
        let mut i = 0;
        while Instant::now() < end {
            outcomes.attempted += 1;
            let submitted = Instant::now();
            match served.submit(Request {
                tenant: 0,
                model: 0,
                input: pool[i % POOL].clone(),
            }) {
                Ok(ticket) => {
                    let sub = Submitted {
                        image: i % POOL,
                        due: submitted,
                        ticket,
                        traced: false,
                    };
                    tx.send((i, sub)).expect("collector alive");
                }
                Err(ServedError::Rejected(_)) => outcomes.refusals += 1,
                Err(_) => outcomes.errors += 1,
            }
            i += 1;
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    log.outcomes.merge(&outcomes);
    log
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, as text.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let stack = timed_setup(args, rep, || build(&tracer))?;
    let total: u32 = SHARE.iter().sum();
    let rung_dur: Vec<Duration> = SHARE.iter().map(|&s| args.seconds * s / total).collect();
    let rungs: Vec<Rung> = (0..LADDER.len())
        .map(|r| {
            run_rung(
                &stack.served,
                &tracer,
                args.seed,
                r,
                rung_dur[r],
                args.trace,
            )
        })
        .collect();
    let served_stats = stack.served.stats();
    rep.header("served", served_stats);
    let top = LADDER.len() - 1;
    let cap_dur = rung_dur[LADDER.len()];
    let cap_cpu_start = process_cpu();
    let capacity = run_capacity(&stack.served, &rungs[top].pool, cap_dur);
    let cap_cpu = process_cpu() - cap_cpu_start;
    rep.outcomes.merge(&capacity.outcomes);

    let mut all_lat = Vec::new();
    let mut traced_lat = Vec::new();
    let mut timed_by_rung = Vec::new();
    let mut gen_lag = Vec::new();
    let mut slo_rate = None;
    let mut backlog_max = 0;
    for (r, rung) in rungs.iter().enumerate() {
        rep.outcomes.merge(&rung.log.outcomes);
        let timed: Vec<(u64, f64)> = rung
            .log
            .latencies
            .iter()
            .filter(|l| !l.2)
            .map(|l| (l.0, l.1))
            .collect();
        let lat: Vec<f64> = timed.iter().map(|l| l.1).collect();
        traced_lat.extend(rung.log.latencies.iter().filter(|l| l.2).map(|l| l.1));
        all_lat.extend_from_slice(&lat);
        timed_by_rung.push(timed);
        gen_lag.extend_from_slice(&rung.gen_lag_ns);
        backlog_max = backlog_max.max(rung.backlog_max);
        let s = Summary::of(&lat, 99.0);
        let growing = rung.backlog_end > BACKLOG_LIMIT;
        let failed = rung.log.outcomes.failed() > 0;
        rep.header(
            &format!("rung r{}", r + 1),
            format!(
                "rate={} img/s schedule_fingerprint={:016x} {} backlog_max={} backlog_end={}{}{}",
                rung.rate,
                rung.fingerprint,
                s.describe(1e-3),
                rung.backlog_max,
                rung.backlog_end,
                if growing { " GROWING" } else { "" },
                if failed { " FAILURES" } else { "" },
            ),
        );
        rep.metric(
            &format!("latency_p50_us.r{}", r + 1),
            s.p50 / 1e3,
            "us",
            &format!("n={}", s.n),
        );
        rep.metric(
            &format!("latency_p99_us.r{}", r + 1),
            s.tail / 1e3,
            "us",
            &format!("n={} beyond={}", s.n, s.beyond),
        );
        if s.tail / 1e3 <= SLO_P99_US && !growing && !failed {
            slo_rate = Some(rung.rate);
        }
    }
    if all_lat.is_empty() {
        return Err("no request completed".into());
    }
    let lag = Summary::of(&gen_lag, 99.0);
    let valid = lag.tail / 1e3 <= GEN_LAG_LIMIT_US;
    rep.metric(
        "gen_lag_p99_us",
        lag.tail / 1e3,
        "us",
        &format!("generator lateness, n={} beyond={}", lag.n, lag.beyond),
    );
    rep.header(
        "run_valid",
        if valid {
            "yes".to_owned()
        } else {
            format!("NO: generator p99 lateness above {GEN_LAG_LIMIT_US} us; latencies reflect the generator, not the system")
        },
    );
    rep.metric(
        "slo_rate_rps",
        slo_rate.unwrap_or(0.0),
        "1/s",
        &format!("highest rung with p99 <= {SLO_P99_US} us, no growing backlog, no failures"),
    );

    // Output checks: sampled coalesced outputs vs batch-of-one.
    let session = stack.engine.session();
    let mut pool = BufferPool::new();
    let mut approx = Vec::new();
    let mut pairs = Vec::new();
    let mut checked_outputs = 0;
    let sampled = rungs
        .iter()
        .map(|r| (&r.pool, &r.log.samples))
        .chain([(&rungs[top].pool, &capacity.samples)]);
    for (images, samples) in sampled {
        // Batch-of-one reference per distinct image, computed once.
        let mut reference: Vec<Option<u64>> = vec![None; images.len()];
        for &(image, hash) in samples {
            let input = &images[image];
            let expected = *reference[image].get_or_insert_with(|| {
                let one = dispatch_batch(
                    &session,
                    &stack.spec,
                    std::slice::from_ref(input),
                    &mut pool,
                )
                .pop()
                .expect("one output");
                if approx.len() < APPROX_SAMPLES {
                    let exact = exact_forward(input, |g, x| stack.seg.build(g, x));
                    approx.push(mse(&one.data, &exact.data));
                }
                let h = bits_hash(&one);
                if args.trace && pairs.len() < 16 {
                    pairs.push((
                        RequestFrame::Infer {
                            tenant: 0,
                            model: 0,
                            input: input.clone(),
                        },
                        ResponseFrame::Output { output: one },
                    ));
                }
                h
            });
            checked_outputs += 1;
            if hash != expected {
                rep.outcomes.mismatches += 1;
            }
        }
    }
    rep.check_outputs(
        checked_outputs,
        "sampled coalesced outputs vs batch-of-one dispatch_batch",
    );

    report_latency(
        rep,
        &timed_by_rung[GATED_RUNG],
        rung_dur[GATED_RUNG],
        "latency_gated_rung",
        &format!(
            "from due time at r{} ({} img/s)",
            GATED_RUNG + 1,
            LADDER[GATED_RUNG]
        ),
    );
    let cap_lat: Vec<f64> = capacity.latencies.iter().map(|l| l.1).collect();
    // The queue stays full until the last tickets drain, so the phase
    // ends at its last completion.
    let Some(cap_end) = capacity.latencies.iter().map(|l| l.0).max() else {
        return Err("no request completed in the capacity phase".into());
    };
    let cap_timed: Vec<(u64, f64)> = capacity.latencies.iter().map(|l| (l.0, l.1)).collect();
    let cap_windows = windowed(&cap_timed, cap_dur);
    rep.metric(
        "capacity_per_s",
        cap_lat.len() as f64 / (cap_end as f64 / 1e9),
        "1/s",
        &format!(
            "completed images per second at capacity, whole phase ({CAPACITY_DEPTH} tickets kept \
             outstanding for {:.1} s); {}; latency from submission {}",
            cap_dur.as_secs_f64(),
            cap_windows.describe(1e-3),
            Summary::of(&cap_lat, 99.0).describe(1e-3)
        ),
    );
    if !args.trace {
        rep.metric(
            "throughput_per_s",
            cap_lat.len() as f64 / cap_cpu.as_secs_f64(),
            "1/s",
            &format!(
                "completed images per CPU-second of the process in the capacity phase ({:.2} CPU-s)",
                cap_cpu.as_secs_f64()
            ),
        );
    }

    report_outcomes(rep);
    rep.metric(
        "approx_mse",
        median(&approx),
        "mse",
        &format!(
            "median over {} sampled images of logits MSE vs exact FP32 forward",
            approx.len()
        ),
    );

    if args.trace {
        report_overhead(rep, &all_lat, &traced_lat);
        replay::report_served(rep, &served_stats, backlog_max, "the ladder");
        rep.metric(
            "net.codec_ns",
            replay::codec_ns(&pairs),
            "ns",
            "image request + logits response frames",
        );
        let reqs: Vec<replay::Replayed> = rungs
            .iter()
            .flat_map(|r| r.pool.iter())
            .cycle()
            .take(REPLAY)
            .map(|img| (0, img.clone()))
            .collect();
        // The socket layer is not on this workload's path; the probe
        // measures what it would add for these requests.
        let probe_served = ServedBuilder::new(stack.engine.clone())
            .with_model(stack.spec.clone())
            .with_config(ServedConfig::default())
            .build();
        replay::socket_probe(probe_served, &tracer, &reqs)?;
        replay::report_stream_layers(rep, &tracer, "net.infer");
        crate::probes::run(rep, args.seed)?;
        replay::write_spans(rep, &tracer, &args.workload, args.seed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_determined_by_the_seed() {
        let dur = Duration::from_millis(500);
        let a = schedule(11, 1, LADDER[1], dur);
        let b = schedule(11, 1, LADDER[1], dur);
        assert_eq!(a, b);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
        let c = schedule(12, 1, LADDER[1], dur);
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&c));
        let other_rung = schedule(11, 2, LADDER[1], dur);
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&other_rung));
    }

    #[test]
    fn schedule_offers_the_rung_rate() {
        let dur = Duration::from_secs(4);
        for (r, &rate) in LADDER.iter().enumerate() {
            let s = schedule(5, r, rate, dur);
            let offered = s.len() as f64 / dur.as_secs_f64();
            assert!(
                (offered / rate - 1.0).abs() < 0.05,
                "rung {r}: offered {offered} for {rate}"
            );
            assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(s.last().expect("non-empty").at < dur.as_micros() as u64);
        }
    }
}

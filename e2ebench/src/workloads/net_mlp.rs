//! `net_mlp_closed`: two closed-loop socket clients send the Zipfian
//! multi-tenant trace to the 64-wide MLP behind `NetServer` on shipped
//! defaults. Compute is a few microseconds per request, so the wire,
//! the connection threads, fair admission, the coalescer deadline and
//! the worker handoff are nearly all of the latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa_net::{NetClient, NetConfig, NetServer, RequestFrame, ResponseFrame};
use gqa_registry::LutRegistry;
use gqa_serve::Engine;
use gqa_served::{
    dispatch_batch, generate_trace, request_input, trace_fingerprint, LoadGenConfig, ModelSpec,
    ServedBuilder, ServedConfig, TraceEntry,
};
use gqa_tensor::{BufferPool, Tensor};

use crate::models::{exact_forward, gelu_engine, mse, same_bits, spec_of, Mlp, MLP_DIM};
use crate::replay;
use crate::report::Report;
use crate::stats::{median, Outcomes};
use crate::trace::Tracer;
use crate::workloads::{
    closed_loop_rate, count_net_error, process_cpu, report_latency, report_outcomes,
    report_overhead, timed_setup, InFlight, Slices,
};
use crate::Args;

/// Tenants of the Zipfian trace (the fair-admission lanes).
const TENANTS: usize = 4;
/// Client connections, one thread each: the reference host's two cores.
const CONNECTIONS: usize = 2;
/// Trace length; clients wrap around it on very fast hosts.
const TRACE_LEN: usize = 300_000;
/// Every `SAMPLE`-th request keeps its input and output for the checks.
const SAMPLE: usize = 16;
/// Sampled requests scored against exact math.
const APPROX_SAMPLES: usize = 1024;
/// Sampled requests replayed in process by a traced run.
const REPLAY: usize = 1500;

struct Stack {
    clients: Vec<NetClient>,
    server: NetServer,
    engine: Engine,
    spec: ModelSpec,
    mlp: Arc<Mlp>,
}

fn build(tracer: &Arc<Tracer>, seed: u64) -> Result<Stack, String> {
    let engine = gelu_engine(Arc::new(LutRegistry::new()))?;
    let mlp = Arc::new(Mlp::new(Arc::clone(tracer)));
    let spec = spec_of("mlp", &[MLP_DIM], Arc::clone(&mlp));
    let served = ServedBuilder::new(engine.clone())
        .with_model(spec.clone())
        .with_config(ServedConfig {
            tenants: TENANTS,
            ..ServedConfig::default()
        })
        .build();
    let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| NetClient::connect(server.addr(), "e2ebench"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let warm = generate_trace(&LoadGenConfig {
        seed: seed ^ 0x3a4d_0000,
        requests: 64,
        tenants: TENANTS,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    });
    for (i, e) in warm.iter().enumerate() {
        clients[i % CONNECTIONS]
            .infer(e.tenant as u64, 0, request_input(e, &[MLP_DIM]))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Stack {
        clients,
        server,
        engine,
        spec,
        mlp,
    })
}

/// One client's record of the measured interval.
#[derive(Default)]
struct ClientLog {
    /// `(completion ns since start, latency ns, sent in a traced slice)`
    /// per completed request.
    latencies: Vec<(u64, f64, bool)>,
    /// `(tenant, input, output)` of every `SAMPLE`-th request.
    samples: Vec<(usize, Tensor, Tensor)>,
    outcomes: Outcomes,
    end: Option<Instant>,
}

/// What the client threads share during the measured interval.
struct Ctx<'a> {
    trace: &'a [TraceEntry],
    start: Instant,
    deadline: Instant,
    slices: Option<Slices>,
    tracer: &'a Tracer,
    in_flight: InFlight,
}

fn client_loop(ctx: &Ctx<'_>, c: usize, client: &mut NetClient) -> ClientLog {
    let Ctx {
        trace,
        start,
        deadline,
        slices,
        tracer,
        ref in_flight,
    } = *ctx;
    let mut log = ClientLog::default();
    let mut idx = c;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let e = &trace[idx % trace.len()];
        let input = request_input(e, &[MLP_DIM]);
        let keep = (idx / CONNECTIONS).is_multiple_of(SAMPLE);
        let kept = keep.then(|| input.clone());
        let traced = slices.is_some_and(|s| s.traced_at(now));
        tracer.set_enabled(traced);
        log.outcomes.attempted += 1;
        let (span, t0) = (tracer.next_id(), tracer.now());
        in_flight.enter();
        let sent = Instant::now();
        let result = client.infer(e.tenant as u64, 0, input);
        let ns = sent.elapsed().as_nanos() as f64;
        in_flight.leave();
        if traced {
            tracer.record(span, "net.infer", t0, 0, idx as u64 + 1);
        }
        match result {
            Ok(out) => {
                let done = start.elapsed().as_nanos() as u64;
                log.latencies.push((done, ns, traced));
                if let Some(input) = kept {
                    log.samples.push((e.tenant, input, out));
                }
            }
            Err(err) => {
                if !count_net_error(&mut log.outcomes, &err) {
                    break;
                }
            }
        }
        idx += CONNECTIONS;
    }
    log.end = Some(Instant::now());
    log
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, as text.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let mut stack = timed_setup(args, rep, || build(&tracer, args.seed))?;
    let trace = generate_trace(&LoadGenConfig {
        seed: args.seed,
        requests: TRACE_LEN,
        tenants: TENANTS,
        models: 1,
        skew: 1.0,
        mean_gap: 0,
    });
    rep.header(
        "trace",
        format!(
            "zipf tenants={TENANTS} skew=1.0 len={TRACE_LEN} fingerprint={:016x}",
            trace_fingerprint(&trace)
        ),
    );

    let cpu_start = process_cpu();
    let start = Instant::now();
    let ctx = Ctx {
        trace: &trace,
        start,
        deadline: start + args.seconds,
        slices: args.trace.then(|| Slices::new(start, args.seconds)),
        tracer: &tracer,
        in_flight: InFlight::default(),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let ctx = &ctx;
                s.spawn(move || client_loop(ctx, c, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tracer.set_enabled(false);
    let cpu = process_cpu() - cpu_start;
    let elapsed = logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .map_or(Duration::ZERO, |end| end - start);
    let served_stats = stack.server.served().stats();
    let net_stats = stack.server.stats();

    let mut latencies = Vec::new();
    let mut traced_lat = Vec::new();
    let mut samples = Vec::new();
    for log in &logs {
        rep.outcomes.merge(&log.outcomes);
        for &(done, ns, traced) in &log.latencies {
            if traced {
                traced_lat.push(ns);
            } else {
                latencies.push((done, ns));
            }
        }
        samples.extend(log.samples.iter().cloned());
    }
    if latencies.is_empty() {
        return Err("no request completed".into());
    }

    // Output checks, outside the timed interval: every sampled socket
    // response must be bit-identical to a batch-of-one dispatch.
    let session = stack.engine.session();
    let mut pool = BufferPool::new();
    let mut approx = Vec::new();
    for (i, (_, input, out)) in samples.iter().enumerate() {
        let one = dispatch_batch(
            &session,
            &stack.spec,
            std::slice::from_ref(input),
            &mut pool,
        )
        .pop()
        .expect("one output");
        if !same_bits(&one, out) {
            rep.outcomes.mismatches += 1;
        }
        if i < APPROX_SAMPLES {
            let exact = exact_forward(input, |g, x| stack.mlp.build(g, x));
            approx.push(mse(&out.data, &exact.data));
        }
    }
    rep.check_outputs(
        samples.len(),
        "sampled socket responses vs batch-of-one dispatch_batch",
    );

    let windows = report_latency(
        rep,
        &latencies,
        args.seconds,
        "latency_run",
        "request round trip from send",
    );
    let completed = latencies.len() + traced_lat.len();
    let rate = completed as f64 / elapsed.as_secs_f64();
    if !args.trace {
        rep.metric(
            "throughput_per_s",
            closed_loop_rate(CONNECTIONS, &windows),
            "1/s",
            &format!(
                "{CONNECTIONS} connections / gated latency; windowed rate {:.1}/s (quiet quartile \
                 of {} 0.5 s windows)",
                windows.rate, windows.windows
            ),
        );
    }
    rep.metric(
        "throughput_rps",
        rate,
        "1/s",
        "completed requests per second, whole run",
    );
    rep.metric(
        "requests_per_cpu_s",
        completed as f64 / cpu.as_secs_f64(),
        "1/s",
        &format!(
            "completed requests per CPU-second of the process ({:.2} CPU-s)",
            cpu.as_secs_f64()
        ),
    );
    report_outcomes(rep);
    rep.metric(
        "approx_mse",
        median(&approx),
        "mse",
        &format!(
            "median over {} sampled responses of MSE vs exact FP32 forward",
            approx.len()
        ),
    );
    rep.metric(
        "net.quota_rejections",
        net_stats.quota_rejections as f64,
        "count",
        "",
    );
    rep.metric(
        "net.protocol_errors",
        net_stats.protocol_errors as f64,
        "count",
        "",
    );
    rep.metric("served.rejected", served_stats.rejected as f64, "count", "");
    rep.header("served", served_stats);

    if args.trace {
        let untraced: Vec<f64> = latencies.iter().map(|l| l.1).collect();
        report_overhead(rep, &untraced, &traced_lat);
        replay::report_served(rep, &served_stats, ctx.in_flight.max(), "the run");
        let pairs: Vec<(RequestFrame, ResponseFrame)> = samples
            .iter()
            .map(|(tenant, input, out)| {
                (
                    RequestFrame::Infer {
                        tenant: *tenant as u64,
                        model: 0,
                        input: input.clone(),
                    },
                    ResponseFrame::Output {
                        output: out.clone(),
                    },
                )
            })
            .collect();
        rep.metric(
            "net.codec_ns",
            replay::codec_ns(&pairs),
            "ns",
            "request+response encode+decode",
        );
        let reqs: Vec<replay::Replayed> = samples
            .iter()
            .take(REPLAY)
            .map(|(t, input, _)| (*t, input.clone()))
            .collect();
        replay::replay_serve(stack.server.served(), &tracer, &reqs)?;
        replay::report_stream_layers(rep, &tracer, "net.infer");
        crate::probes::run(rep, args.seed)?;
        replay::write_spans(rep, &tracer, &args.workload, args.seed);
    }
    stack.clients.clear();
    Ok(())
}

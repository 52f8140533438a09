//! `decode_net`: two socket clients each run back-to-back greedy decode
//! sessions of the TinyDecoder (LUT GELU): open a session, step a
//! 32-token prompt in, then generate 96 tokens. Every step is a tiny,
//! strictly sequential, stateful tensor, so the KV cache, cached
//! attention and the per-step decode queue dominate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gqa_models::argmax;
use gqa_net::{NetClient, NetConfig, NetServer, RequestFrame, ResponseFrame};
use gqa_registry::LutRegistry;
use gqa_serve::Engine;
use gqa_served::{ServedBuilder, ServedConfig};
use gqa_tensor::{BufferPool, EvalMode, ExactBackend, Graph, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::models::{bits_hash, gelu_engine, mse, spec_of, Dec};
use crate::replay;
use crate::report::Report;
use crate::stats::{median, Outcomes, Summary};
use crate::trace::Tracer;
use crate::workloads::{
    closed_loop_rate, count_net_error, process_cpu, report_latency, report_outcomes,
    report_overhead, timed_setup, InFlight, Slices,
};
use crate::Args;

/// Client connections, one thread each: the reference host's two cores.
const CONNECTIONS: usize = 2;
/// Prompt tokens stepped into each fresh session.
const PROMPT: usize = 32;
/// Tokens generated per session (the first from the last prompt step).
const GEN: usize = 96;
/// A connection keeps every session it opened until it closes, so each
/// client reconnects after this many sessions (outside any timed sample).
const SESSIONS_PER_CONNECTION: usize = 32;
/// Every `SAMPLE`-th session keeps its tokens and logits fingerprints.
const SAMPLE: usize = 4;
/// Sampled sessions scored against exact math (a 20 s run samples about
/// a hundred; the score is a median over sessions, so more of them make
/// it depend less on which prompts a seed draws).
const APPROX_SESSIONS: usize = 128;
/// Sampled sessions replayed in process by a traced run.
const REPLAY_SESSIONS: usize = 4;

struct Stack {
    clients: Vec<NetClient>,
    server: NetServer,
    engine: Engine,
    dec: Arc<Dec>,
}

fn build(tracer: &Arc<Tracer>) -> Result<Stack, String> {
    let engine = gelu_engine(Arc::new(LutRegistry::new()))?;
    let dec = Arc::new(Dec::new(Arc::clone(tracer)));
    let spec = spec_of("tiny-decoder", &[1], Arc::clone(&dec));
    let served = ServedBuilder::new(engine.clone())
        .with_model(spec)
        .with_config(ServedConfig {
            tenants: CONNECTIONS,
            ..ServedConfig::default()
        })
        .build();
    let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut stack = Stack {
        clients: Vec::new(),
        server,
        engine,
        dec,
    };
    for c in 0..CONNECTIONS {
        stack.clients.push(connect(&stack.server)?);
        let client = stack.clients.last_mut().expect("just pushed");
        let session = client
            .open_decode(c as u64, 0)
            .map_err(|e| format!("warm-up: {e}"))?;
        for tok in 0..16u8 {
            client
                .decode_step(session, token_tensor(usize::from(tok)))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(stack)
}

fn connect(server: &NetServer) -> Result<NetClient, String> {
    NetClient::connect(server.addr(), "e2ebench").map_err(|e| format!("connect: {e}"))
}

fn token_tensor(tok: usize) -> Tensor {
    Tensor::from_vec(vec![tok as f32], &[1])
}

/// The seeded prompt of session `k`.
#[must_use]
pub fn prompt(seed: u64, k: usize, vocab: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ k as u64);
    (0..PROMPT).map(|_| rng.gen_range(0..vocab)).collect()
}

/// A sampled session: every token fed, and the fingerprint of the
/// logits each step returned.
struct SessionRecord {
    fed: Vec<usize>,
    logits: Vec<u64>,
}

#[derive(Default)]
struct ClientLog {
    /// `(TTFT ns, traced)` per session.
    ttft: Vec<(f64, bool)>,
    /// `(completion ns since start, token gap ns, traced)` per
    /// generation step.
    gaps: Vec<(u64, f64, bool)>,
    generated: u64,
    sessions: Vec<SessionRecord>,
    outcomes: Outcomes,
    end: Option<Instant>,
}

struct Ctx<'a> {
    seed: u64,
    vocab: usize,
    start: Instant,
    deadline: Instant,
    slices: Option<Slices>,
    tracer: &'a Tracer,
    server: &'a NetServer,
    in_flight: InFlight,
}

/// One session; `None` when the connection broke.
fn one_session(
    ctx: &Ctx<'_>,
    client: &mut NetClient,
    c: usize,
    k: usize,
    log: &mut ClientLog,
) -> Option<()> {
    let tracer = ctx.tracer;
    let keep = k.is_multiple_of(SAMPLE);
    let mut record = SessionRecord {
        fed: Vec::new(),
        logits: Vec::new(),
    };
    let opened = Instant::now();
    let traced = ctx.slices.is_some_and(|s| s.traced_at(opened));
    tracer.set_enabled(traced);
    let session = match client.open_decode(c as u64, 0) {
        Ok(s) => s,
        Err(e) => {
            log.outcomes.attempted += 1;
            return count_net_error(&mut log.outcomes, &e).then_some(());
        }
    };
    let mut next = 0usize;
    let prompt = prompt(ctx.seed, k, ctx.vocab);
    for i in 0..PROMPT + GEN - 1 {
        let tok = prompt.get(i).copied().unwrap_or(next);
        log.outcomes.attempted += 1;
        let (span, t0) = (tracer.next_id(), tracer.now());
        ctx.in_flight.enter();
        let sent = Instant::now();
        let result = client.decode_step(session, token_tensor(tok));
        let ns = sent.elapsed().as_nanos() as f64;
        ctx.in_flight.leave();
        if traced {
            tracer.record(span, "net.decode_step", t0, 0, k as u64 + 1);
        }
        let logits = match result {
            Ok(l) => l,
            Err(e) => return count_net_error(&mut log.outcomes, &e).then_some(()),
        };
        next = argmax(&logits.data);
        if keep {
            record.fed.push(tok);
            record.logits.push(bits_hash(&logits));
        }
        if i == PROMPT - 1 {
            log.ttft.push((opened.elapsed().as_nanos() as f64, traced));
            log.generated += 1;
        } else if i >= PROMPT {
            log.gaps
                .push((ctx.start.elapsed().as_nanos() as u64, ns, traced));
            log.generated += 1;
        }
    }
    if keep {
        log.sessions.push(record);
    }
    Some(())
}

fn client_loop(ctx: &Ctx<'_>, c: usize, client: &mut NetClient) -> ClientLog {
    let mut log = ClientLog::default();
    let mut k = c;
    let mut on_connection = 0;
    while Instant::now() < ctx.deadline {
        if on_connection == SESSIONS_PER_CONNECTION {
            match connect(ctx.server) {
                Ok(fresh) => *client = fresh,
                Err(_) => {
                    log.outcomes.errors += 1;
                    break;
                }
            }
            on_connection = 0;
        }
        if one_session(ctx, client, c, k, &mut log).is_none() {
            break;
        }
        on_connection += 1;
        k += CONNECTIONS;
    }
    log.end = Some(Instant::now());
    log
}

fn split(samples: &[(f64, bool)]) -> (Vec<f64>, Vec<f64>) {
    let untraced = samples.iter().filter(|s| !s.1).map(|s| s.0).collect();
    let traced = samples.iter().filter(|s| s.1).map(|s| s.0).collect();
    (untraced, traced)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, as text.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let mut stack = timed_setup(args, rep, || build(&tracer))?;
    let vocab = stack.dec.vocab();
    let cpu_start = process_cpu();
    let start = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        vocab,
        start,
        deadline: start + args.seconds,
        slices: args.trace.then(|| Slices::new(start, args.seconds)),
        tracer: &tracer,
        server: &stack.server,
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
    rep.header("served", served_stats);

    let mut ttft = Vec::new();
    let mut gaps = Vec::new();
    let mut generated = 0;
    let mut sessions = Vec::new();
    for log in logs {
        rep.outcomes.merge(&log.outcomes);
        ttft.extend(log.ttft);
        gaps.extend(log.gaps);
        generated += log.generated;
        sessions.extend(log.sessions);
    }
    let timed_gaps: Vec<(u64, f64)> = gaps.iter().filter(|g| !g.2).map(|g| (g.0, g.1)).collect();
    let gap_u: Vec<f64> = timed_gaps.iter().map(|g| g.1).collect();
    let gap_t: Vec<f64> = gaps.iter().filter(|g| g.2).map(|g| g.1).collect();
    let (ttft_u, _) = split(&ttft);
    if gap_u.is_empty() || ttft_u.is_empty() {
        return Err("no decode session completed".into());
    }

    // Output checks: each sampled step's logits must be bit-identical to
    // row t of the causal forward over the same fed tokens.
    let session = stack.engine.session();
    let mut approx = Vec::new();
    let mut checked_steps = 0;
    for (i, rec) in sessions.iter().enumerate() {
        let mut g = Graph::with_mode(&session, EvalMode::Inference, BufferPool::new());
        let y = stack.dec.forward_logits(&mut g, &rec.fed);
        let full = g.value(y);
        for (t, &hash) in rec.logits.iter().enumerate() {
            let row = Tensor::from_vec(full.data[t * vocab..(t + 1) * vocab].to_vec(), &[1, vocab]);
            checked_steps += 1;
            if bits_hash(&row) != hash {
                rep.outcomes.mismatches += 1;
            }
        }
        if i < APPROX_SESSIONS {
            let mut ge = Graph::with_mode(&ExactBackend, EvalMode::Inference, BufferPool::new());
            let ye = stack.dec.forward_logits(&mut ge, &rec.fed);
            approx.push(mse(&full.data, &ge.value(ye).data));
        }
    }
    rep.check_outputs(
        checked_steps,
        &format!(
            "decode steps of {} sampled sessions vs rows of forward_logits",
            sessions.len()
        ),
    );

    let windows = report_latency(rep, &timed_gaps, args.seconds, "token_gap", "token gap");
    let rate = generated as f64 / elapsed.as_secs_f64();
    if !args.trace {
        rep.metric(
            "throughput_per_s",
            closed_loop_rate(CONNECTIONS, &windows),
            "1/s",
            &format!(
                "{CONNECTIONS} connections / gated token gap; windowed rate {:.1}/s (quiet \
                 quartile of {} 0.5 s windows)",
                windows.rate, windows.windows
            ),
        );
    }
    rep.timing("ttft", &Summary::with_supported_tail(&ttft_u));
    rep.metric(
        "tokens_per_s",
        rate,
        "1/s",
        "generated tokens per second, whole run",
    );
    rep.metric(
        "tokens_per_cpu_s",
        generated as f64 / cpu.as_secs_f64(),
        "1/s",
        &format!(
            "generated tokens per CPU-second of the process ({:.2} CPU-s)",
            cpu.as_secs_f64()
        ),
    );
    report_outcomes(rep);
    rep.metric(
        "approx_mse",
        median(&approx),
        "mse",
        &format!(
            "median over {} sampled sessions of logits MSE vs exact FP32 forward",
            approx.len()
        ),
    );

    if args.trace {
        report_overhead(rep, &gap_u, &gap_t);
        replay::report_served(rep, &served_stats, ctx.in_flight.max(), "the run");
        let pairs: Vec<(RequestFrame, ResponseFrame)> = (0..64)
            .map(|t| {
                (
                    RequestFrame::DecodeStep {
                        session: 0,
                        input: token_tensor(t),
                    },
                    ResponseFrame::Output {
                        output: Tensor::from_vec(vec![0.5; vocab], &[1, vocab]),
                    },
                )
            })
            .collect();
        rep.metric(
            "net.codec_ns",
            replay::codec_ns(&pairs),
            "ns",
            "step request + logits response frames",
        );
        replay_decode(&stack, &tracer, &sessions)?;
        replay::report_stream_layers(rep, &tracer, "net.decode_step");
        crate::probes::run(rep, args.seed)?;
        replay::write_spans(rep, &tracer, &args.workload, args.seed);
    }
    stack.clients.clear();
    Ok(())
}

/// Replays sampled sessions' fed tokens through in-process
/// `DecodeSession`s, one `served.serve` span per step with the model's
/// `model.decode_step` span inside.
fn replay_decode(stack: &Stack, tracer: &Tracer, sessions: &[SessionRecord]) -> Result<(), String> {
    tracer.set_enabled(true);
    for (k, rec) in sessions.iter().take(REPLAY_SESSIONS).enumerate() {
        let session = stack
            .server
            .served()
            .open_decode(0, 0)
            .map_err(|e| format!("replay open: {e}"))?;
        for &tok in &rec.fed {
            let id = tracer.next_id();
            let request = 3_000_000_000 + k as u64;
            tracer.set_ambient(id, request);
            let start = tracer.now();
            session
                .step(token_tensor(tok))
                .and_then(|t| t.wait())
                .map_err(|e| format!("replay step: {e}"))?;
            tracer.record(id, "served.serve", start, 0, request);
        }
    }
    tracer.set_ambient(0, 0);
    tracer.set_enabled(false);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompts_are_determined_by_seed_and_session() {
        assert_eq!(prompt(3, 5, 256), prompt(3, 5, 256));
        assert_ne!(prompt(3, 5, 256), prompt(4, 5, 256));
        assert_ne!(prompt(3, 5, 256), prompt(3, 6, 256));
        assert!(prompt(9, 0, 17).iter().all(|&t| t < 17));
        assert_eq!(prompt(9, 0, 17).len(), PROMPT);
    }
}

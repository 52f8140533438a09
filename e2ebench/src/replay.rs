//! Traced-run helpers shared by the workloads: in-process replays of a
//! run's own requests, a socket probe for workloads that bypass the
//! socket, and the wire codec timing.

use std::time::Instant;

use gqa_net::{
    decode_request, decode_response, encode_request, encode_response, NetClient, NetConfig,
    NetServer, RequestFrame, ResponseFrame,
};
use gqa_served::{Request, Served, ServedStats};
use gqa_tensor::Tensor;

use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::InFlight;

/// One request of a replayed stream: tenant and input row.
pub type Replayed = (usize, Tensor);

/// Serves `reqs` one at a time through `Served::serve` with the tracer
/// on, wrapping each in a `served.serve` span that the model's
/// `model.forward` span attaches to. Returns the replayed outputs.
///
/// # Errors
///
/// A served error, as text.
pub fn replay_serve(
    served: &Served,
    tracer: &Tracer,
    reqs: &[Replayed],
) -> Result<Vec<Tensor>, String> {
    let was = tracer.enabled();
    tracer.set_enabled(true);
    let mut outs = Vec::with_capacity(reqs.len());
    for (i, (tenant, input)) in reqs.iter().enumerate() {
        let id = tracer.next_id();
        let request = 1_000_000_000 + i as u64;
        tracer.set_ambient(id, request);
        let start = tracer.now();
        let out = served.serve(Request {
            tenant: *tenant,
            model: 0,
            input: input.clone(),
        });
        tracer.record(id, "served.serve", start, 0, request);
        outs.push(out.map_err(|e| format!("in-process replay: {e}"))?);
    }
    tracer.set_ambient(0, 0);
    tracer.set_enabled(was);
    Ok(outs)
}

/// Sends `reqs` through a loopback `NetServer` (shipped `NetConfig`) in
/// front of `served`, one client, closed loop, as `net.infer` spans;
/// then replays them in process on the same server. Returns the
/// server's counters, the most requests the client had outstanding, and
/// the replayed outputs.
///
/// # Errors
///
/// Bind, connect or request failures, as text.
pub fn socket_probe(
    served: Served,
    tracer: &Tracer,
    reqs: &[Replayed],
) -> Result<(ServedStats, u64, Vec<Tensor>), String> {
    let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut client =
        NetClient::connect(server.addr(), "e2ebench-probe").map_err(|e| format!("connect: {e}"))?;
    let was = tracer.enabled();
    tracer.set_enabled(true);
    let in_flight = InFlight::default();
    for (i, (tenant, input)) in reqs.iter().enumerate() {
        let id = tracer.next_id();
        let start = tracer.now();
        in_flight.enter();
        client
            .infer(*tenant as u64, 0, input.clone())
            .map_err(|e| format!("socket probe: {e}"))?;
        in_flight.leave();
        tracer.record(id, "net.infer", start, 0, 2_000_000_000 + i as u64);
    }
    tracer.set_enabled(was);
    drop(client);
    let outs = replay_serve(server.served(), tracer, reqs)?;
    Ok((server.served().stats(), in_flight.max(), outs))
}

/// Reports the front-end's counters for a traced run:
/// `served.batch_rows_mean`, `served.backlog_max` (the most requests the
/// clients had outstanding at once, as they counted them) and
/// `served.completed_ratio`.
pub fn report_served(rep: &mut Report, stats: &ServedStats, backlog_max: u64, source: &str) {
    rep.metric("served.batch_rows_mean", stats.mean_batch(), "rows", source);
    rep.metric("served.backlog_max", backlog_max as f64, "count", source);
    rep.metric(
        "served.completed_ratio",
        stats.completed as f64 / stats.submitted.max(1) as f64,
        "ratio",
        source,
    );
}

/// Reports the stream metrics of a traced run from its spans:
/// `net.self_us.p50` (socket round trip minus the in-process replay),
/// `served.roundtrip_us.p50` and `served.wait_us.p50` (replay minus the
/// model's forward span), plus `trace.spans`.
///
/// `socket_span` names the client-side round-trip span.
pub fn report_stream_layers(rep: &mut Report, tracer: &Tracer, socket_span: &str) {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let socket = trace::durations(&spans, socket_span);
    let serve = trace::durations(&spans, "served.serve");
    let wait = trace::self_durations(&spans, &selfs, "served.serve");
    let (socket, serve, wait) = (
        Summary::with_supported_tail(&socket),
        Summary::with_supported_tail(&serve),
        Summary::with_supported_tail(&wait),
    );
    rep.metric(
        "net.self_us.p50",
        (socket.p50 - serve.p50) / 1e3,
        "us",
        &format!(
            "socket {} minus in-process {}",
            socket.describe(1e-3),
            serve.describe(1e-3)
        ),
    );
    rep.metric(
        "served.roundtrip_us.p50",
        serve.p50 / 1e3,
        "us",
        &serve.describe(1e-3),
    );
    rep.metric(
        "served.wait_us.p50",
        wait.p50 / 1e3,
        "us",
        &wait.describe(1e-3),
    );
    rep.metric(
        "trace.spans",
        spans.len() as f64,
        "count",
        &format!("dropped={}", tracer.dropped()),
    );
}

/// Median nanoseconds to encode and decode one request frame and its
/// response frame, over `pairs`, through the pure `wire` functions.
///
/// # Panics
///
/// Panics if a frame does not round-trip (a codec bug).
#[must_use]
pub fn codec_ns(pairs: &[(RequestFrame, ResponseFrame)]) -> f64 {
    const ROUNDS: usize = 15;
    let mut per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for (req, resp) in pairs {
            let a = decode_request(&encode_request(req)).expect("request round-trips");
            let b = decode_response(&encode_response(resp)).expect("response round-trips");
            std::hint::black_box((a, b));
        }
        per_round.push(t.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    median(&per_round)
}

/// Writes the run's spans under `.bench_out/` and prints where.
pub fn write_spans(rep: &Report, tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(n) => rep.header("spans", format!("{n} written to {}", path.display())),
        Err(e) => rep.header("spans", format!("not written: {e}")),
    }
}

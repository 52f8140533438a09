//! The four workloads and what they share: repeated timed set-up, the
//! traced run's alternating slices, and error accounting.

pub mod decode;
pub mod lut;
pub mod net_mlp;
pub mod segformer;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gqa_net::{NetError, RemoteError};

use crate::report::Report;
use crate::stats::{median, Outcomes, Summary, Windowed};
use crate::Args;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Builds the system under test `SETUPS` times (once when traced),
/// timing each build; the first is timed from process start. Every
/// build but the last is torn down before the next one starts, outside
/// the timed interval. Returns the last build.
///
/// # Errors
///
/// The first failing build's error.
pub fn timed_setup<S>(
    args: &Args,
    rep: &mut Report,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let count = if args.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        drop(last.take());
        let start = if i == 0 { args.started } else { Instant::now() };
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let detail = times
        .iter()
        .map(|t| format!("{t:.4}"))
        .collect::<Vec<_>>()
        .join(" ");
    rep.metric(
        "setup_s",
        median(&times),
        "s",
        &format!("median of {count} set-ups: {detail}"),
    );
    Ok(last.expect("at least one set-up"))
}

/// Alternating untraced / traced slices of a traced run's measured
/// interval: U T U T. The latency difference between the two kinds of
/// slice is the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Slices {
    start: Instant,
    slice: Duration,
}

/// Slices per traced run.
const SLICES: u32 = 4;

impl Slices {
    /// Slices of `total` starting at `start`.
    #[must_use]
    pub fn new(start: Instant, total: Duration) -> Self {
        Self {
            start,
            slice: total / SLICES,
        }
    }

    /// Whether `at` falls into a traced slice.
    #[must_use]
    pub fn traced_at(&self, at: Instant) -> bool {
        let idx = at.duration_since(self.start).as_nanos() / self.slice.as_nanos().max(1);
        idx % 2 == 1
    }
}

/// Requests the client threads have outstanding, and the most they had
/// at once (`served.backlog_max` of the closed loops).
#[derive(Debug, Default)]
pub struct InFlight {
    now: AtomicU64,
    max: AtomicU64,
}

impl InFlight {
    /// A request was sent.
    pub fn enter(&self) {
        let n = self.now.fetch_add(1, Ordering::AcqRel) + 1;
        self.max.fetch_max(n, Ordering::AcqRel);
    }

    /// A request's response (or error) arrived.
    pub fn leave(&self) {
        self.now.fetch_sub(1, Ordering::AcqRel);
    }

    /// The most requests outstanding at once.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Acquire)
    }
}

/// CPU time consumed so far by every thread of this process, living or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`). The kernel charges a thread only
/// for the time it ran: neither time spent waiting for a core nor time
/// the hypervisor gave the virtual CPU to another guest (steal) counts.
#[must_use]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the C ABI
    // (64-bit `time_t` and `long` on the 64-bit Linux targets this
    // benchmark builds for); the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Classifies a failed socket call. Returns `false` when the connection
/// is unusable afterwards.
pub fn count_net_error(outcomes: &mut Outcomes, err: &NetError) -> bool {
    match err {
        NetError::Remote(RemoteError::Rejected { .. } | RemoteError::QuotaExceeded { .. }) => {
            outcomes.refusals += 1;
            true
        }
        NetError::Remote(_) | NetError::Unexpected(_) => {
            outcomes.errors += 1;
            true
        }
        NetError::Io(_) | NetError::Wire(_) | NetError::Closed => {
            outcomes.errors += 1;
            false
        }
    }
}

/// Reports tracing overhead from the latency samples of the untraced
/// and traced slices, and the traced unit latency.
pub fn report_overhead(rep: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    rep.metric(
        "trace.overhead_pct",
        (t / u - 1.0) * 100.0,
        "%",
        &format!(
            "traced p50 {:.1} us (n={}) vs untraced p50 {:.1} us (n={})",
            t / 1e3,
            traced.len(),
            u / 1e3,
            untraced.len()
        ),
    );
    rep.metric(
        "trace.unit_us.p50",
        t / 1e3,
        "us",
        "unit latency in traced slices",
    );
}

/// Window length of the windowed latency medians.
const WINDOW: Duration = Duration::from_millis(500);

/// Quiet-quartile medians over 0.5 s windows of `(completion ns since
/// the measured interval began, latency ns)` samples.
#[must_use]
pub fn windowed(timed: &[(u64, f64)], interval: Duration) -> Windowed {
    Windowed::of(timed, WINDOW.as_nanos() as u64, interval.as_nanos() as u64)
}

/// Reports the gated latency of an untraced run, `latency_p50_us`, from
/// 0.5 s windows of `timed` (see [`Windowed`]), and returns the windows
/// (their quiet-quartile rate is the closed loops' gated throughput).
/// Tails are not gated: on a shared two-core host they move by tens of
/// percent between identical runs. The exact whole-run p50, p99 and the
/// highest percentile with ten samples beyond it print as
/// `<name>_p50_us`, `<name>_p99_us`, `<name>_pNN_us`.
pub fn report_latency(
    rep: &mut Report,
    timed: &[(u64, f64)],
    interval: Duration,
    name: &str,
    what: &str,
) -> Windowed {
    let w = windowed(timed, interval);
    if !rep.traced() {
        rep.metric(
            "latency_p50_us",
            w.p50 / 1e3,
            "us",
            &format!("{what}; {}", w.describe(1e-3)),
        );
    }
    let all: Vec<f64> = timed.iter().map(|t| t.1).collect();
    rep.timing(name, &Summary::of(&all, 99.0));
    let s = Summary::with_supported_tail(&all);
    if s.tail_pct != 99.0 {
        let pct = format!("{}", s.tail_pct).replace('.', "_");
        let detail = format!("n={} beyond={}", s.n, s.beyond);
        rep.metric(&format!("{name}_p{pct}_us"), s.tail / 1e3, "us", &detail);
    }
    w
}

/// The gated throughput of a closed loop: the rate `connections`
/// clients sustain at the gated latency (the quiet-quartile window
/// median of `w`). A closed loop's completion rate is `connections` over
/// the *mean* latency, and the mean follows the host: stalls of a few
/// milliseconds when other guests hold the CPU halved the windowed rate
/// of `decode_net` while its median step moved by a tenth.
#[must_use]
pub fn closed_loop_rate(connections: usize, w: &Windowed) -> f64 {
    connections as f64 * 1e9 / w.p50
}

/// Prints the fail ratio and its parts, and reports `ok_ratio`.
pub fn report_outcomes(rep: &mut Report) {
    let o = rep.outcomes;
    rep.metric(
        "fail_ratio",
        o.fail_ratio(),
        "ratio",
        &format!(
            "attempted={} errors={} refusals={} timeouts={} mismatches={}",
            o.attempted, o.errors, o.refusals, o.timeouts, o.mismatches
        ),
    );
    rep.metric("ok_ratio", o.ok_ratio(), "ratio", "1 - fail_ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_keeps_the_most_outstanding() {
        let f = InFlight::default();
        f.enter();
        f.enter();
        f.leave();
        f.enter();
        f.leave();
        f.leave();
        assert_eq!(f.max(), 2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        f.enter();
                        f.leave();
                    }
                });
            }
        });
        assert_eq!(f.max(), 2);
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let wall = Instant::now();
        let mut x = 0u64;
        while process_cpu() - before < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
            assert!(
                wall.elapsed() < Duration::from_secs(30),
                "no CPU time charged"
            );
        }
        assert!(process_cpu() >= before);
    }

    #[test]
    fn closed_loop_rate_is_connections_over_the_gated_latency() {
        let w = Windowed {
            windows: 40,
            p50: 500_000.0,
            rate: 3000.0,
        };
        assert!((closed_loop_rate(2, &w) - 4000.0).abs() < 1e-9);
    }
}

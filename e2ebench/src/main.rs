//! End-to-end benchmark of the GQA-LUT serving stack.
//!
//! ```text
//! e2ebench --workload <net_mlp_closed|segformer_open|decode_net|lut_compile>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the shipped defaults and drives the stack only
//! through its public APIs. An untraced run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! split and writes its spans to `.bench_out/`. The last line of
//! standard output is the JSON result. See `README.md` for what each
//! workload stresses and what each metric should move.

mod fingerprint;
mod models;
mod probes;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "net_mlp_closed",
    "segformer_open",
    "decode_net",
    "lut_compile",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// When the process started (the first set-up is timed from here).
    pub started: Instant,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(argv: &[String], started: Instant) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds must be in (0, 120], got {s}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            started,
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv, started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::new(args.trace);
    rep.header("workload", &args.workload);
    rep.header("seed", args.seed);
    rep.header("seconds", args.seconds.as_secs_f64());
    rep.header("mode", if args.trace { "traced" } else { "untraced" });
    rep.header("fingerprint", fingerprint::Fingerprint::detect().line());
    let result = match args.workload.as_str() {
        "net_mlp_closed" => workloads::net_mlp::run(&args, &mut rep),
        "segformer_open" => workloads::segformer::run(&args, &mut rep),
        "decode_net" => workloads::decode::run(&args, &mut rep),
        "lut_compile" => workloads::lut::run(&args, &mut rep),
        _ => unreachable!("validated by Args::parse"),
    };
    match result.and_then(|()| rep.finish()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(
            &argv("--workload decode_net --seed 3 --seconds 10 --trace 1"),
            Instant::now(),
        )
        .expect("valid");
        assert_eq!(a.workload, "decode_net");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload lut_compile --seconds 1",
            "--workload lut_compile --seed x --seconds 1",
            "--workload lut_compile --seed 1 --seconds 1 --trace 2",
            "--workload lut_compile --seed 1 --seconds 0",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad), Instant::now()).is_err(), "{bad}");
        }
    }
}

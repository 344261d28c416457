//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `serve-steady`,
//! `serve-durable-lossy`, `batch-analyze` (see `LAYERS.md` beside this
//! crate). Inputs are generated from `--seed` before timing starts;
//! every output is checked against a reference outside the timed
//! window. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`, `--trace 1` its per-layer metrics (medians over
//! repetitions of the traced suite for `--seconds`) and writes the
//! beat-lag distribution and hop shares to `perfbench/out/`. The last
//! stdout line is the result object; the line before it is the host
//! fingerprint.

mod batch;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::error::Error;
use std::process::ExitCode;

use cardiotouch_obs::json::{self, Value};

use crate::stats::Metrics;

/// A workload run's result before it is printed.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Extra JSON members for the traced-run detail file.
    pub detail: String,
}

/// Repeats a traced suite until `seconds` have passed (at least once)
/// and reports each per-layer metric's median over the repetitions.
/// Operation counts add up; the detail is the first repetition's.
pub fn repeat_traced(
    seconds: f64,
    mut suite: impl FnMut() -> Result<Outcome, Box<dyn Error>>,
) -> Result<Outcome, Box<dyn Error>> {
    let started = std::time::Instant::now();
    let mut reps = vec![suite()?];
    while stats::secs(started) < seconds {
        reps.push(suite()?);
    }
    let mut metrics = Metrics::default();
    for (name, _, unit) in &reps[0].metrics.0 {
        let mut values: Vec<f64> = reps.iter().filter_map(|r| r.metrics.get(name)).collect();
        metrics.put(name, stats::median(&mut values), unit);
    }
    eprintln!("traced suite repeated {} times", reps.len());
    Ok(Outcome {
        metrics,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        detail: reps.swap_remove(0).detail,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metric names `BENCHMARK.json` (in the working directory) lists
/// under `key`, in order.
fn declared(key: &str) -> Result<Vec<String>, Box<dyn Error>> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: no `{key}` list"))?;
    Ok(list
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect())
}

fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    let key = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = declared(key)?;
    let out = match args.workload.as_str() {
        "serve-steady" => serve::run(args.seed, args.seconds, args.trace, false)?,
        "serve-durable-lossy" => serve::run(args.seed, args.seconds, args.trace, true)?,
        "batch-analyze" => batch::run(args.seed, args.seconds, args.trace)?,
        w => return Err(format!("unknown workload {w}").into()),
    };
    // Report exactly the declared metrics, in declared order.
    let mut reported = Metrics::default();
    for name in &names {
        let (_, value, unit) = out
            .metrics
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or(format!("{}: metric {name} was not measured", args.workload))?;
        reported.put(name, *value, unit);
    }
    let host = stats::host_json();
    if args.trace {
        std::fs::create_dir_all("perfbench/out")?;
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        );
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"host\": {host}, {}, \"metrics\": {}}}\n",
            stats::string(&args.workload),
            args.seed,
            out.detail,
            out.metrics.to_json(),
        );
        std::fs::write(&path, doc)?;
        eprintln!("wrote {path}");
    }
    println!("host {host}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        reported.to_json()
    );
    if out.failed > 0 {
        eprintln!(
            "{} of {} operations failed the correctness gate",
            out.failed, out.attempted
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

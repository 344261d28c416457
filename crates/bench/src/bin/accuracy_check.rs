//! Accuracy-regression gate: recomputes the accuracy snapshot over the
//! pinned conformance corpus and compares it against the committed
//! `ACC_<date>.json` baseline.
//!
//! ```text
//! accuracy_check                 # newest ACC_*.json in CWD vs fresh compute (CI gate)
//! accuracy_check BASELINE.json   # explicit baseline file
//! accuracy_check --write [PATH]  # write a fresh ACC_<today>.json baseline
//! accuracy_check --strategy S …  # compute under a non-default strategy
//! ```
//!
//! Exit status: 0 when no statistic regresses past the documented
//! [`Thresholds`] margins, 1 on regression or error — the same
//! contract as `metrics_check`, so CI wires both identically. A
//! perturbed detector constant (e.g. narrowing the B-point search
//! window) moves the landmark statistics by far more than the margins,
//! so the gate trips on real detector drift while formatting
//! round-trips and benign noise pass.
//!
//! `--strategy` selects the [`DelineationStrategy`] the fresh snapshot
//! is computed with (default: the pipeline default). The committed
//! repo baseline pins the default strategy; non-default runs are for
//! CI's informational matrix legs and per-strategy artifacts, and they
//! drop the absolute floor/ceiling gates ([`Thresholds::relative_only`])
//! because those are calibrated for the default strategy. A baseline
//! recorded under a different strategy always fails the gate (the
//! report's `strategy` field is compared first).

use std::process::ExitCode;

use cardiotouch::config::DelineationStrategy;
use cardiotouch_conformance::accuracy::{self, AccuracyReport, Thresholds};
use cardiotouch_conformance::corpus::golden_corpus;

/// Civil date from days since the Unix epoch (Howard Hinnant's
/// `civil_from_days` algorithm), mirroring `perf_bench`'s dating.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_iso() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Newest `ACC_*.json` in the working directory (lexicographic max —
/// the names embed ISO dates, so that is also the newest).
fn newest_baseline() -> Result<String, String> {
    let mut names: Vec<String> = std::fs::read_dir(".")
        .map_err(|e| format!("read cwd: {e}"))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("ACC_") && n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .pop()
        .ok_or_else(|| "no ACC_*.json baseline found (run `accuracy_check --write` first)".into())
}

fn compute_fresh(strategy: DelineationStrategy) -> Result<AccuracyReport, String> {
    accuracy::compute_with(&golden_corpus(), &today_iso(), strategy)
        .map_err(|e| format!("compute: {e}"))
}

fn write_baseline(path: Option<&str>, strategy: DelineationStrategy) -> Result<(), String> {
    let report = compute_fresh(strategy)?;
    let path = path.map_or_else(|| format!("ACC_{}.json", report.date), str::to_owned);
    std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {path} ({}): {} cases, {}/{} beats matched (rate {:.4})",
        report.strategy.name(),
        report.cases,
        report.matched_beats,
        report.truth_beats,
        report.detection_rate
    );
    Ok(())
}

fn check(baseline: Option<&str>, strategy: DelineationStrategy) -> Result<Vec<String>, String> {
    let name = match baseline {
        Some(p) => p.to_owned(),
        None => newest_baseline()?,
    };
    let text = std::fs::read_to_string(&name).map_err(|e| format!("read {name}: {e}"))?;
    let committed = AccuracyReport::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
    let fresh = compute_fresh(strategy)?;
    println!(
        "baseline {name} ({}, {}): detection {:.4}, B p95 {:.3} ms | \
         fresh ({}): detection {:.4}, B p95 {:.3} ms",
        committed.date,
        committed.strategy.name(),
        committed.detection_rate,
        committed.b.p95_abs_ms,
        fresh.strategy.name(),
        fresh.detection_rate,
        fresh.b.p95_abs_ms
    );
    // The absolute floors/ceilings are calibrated for the default
    // strategy; relative drift is all a non-default leg can gate on.
    let thr = if strategy == DelineationStrategy::default() {
        Thresholds::default()
    } else {
        Thresholds::default().relative_only()
    };
    Ok(accuracy::regressions(&committed, &fresh, &thr))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut strategy = DelineationStrategy::default();
    if let Some(pos) = args.iter().position(|a| a == "--strategy") {
        if pos + 1 >= args.len() {
            eprintln!("accuracy_check: --strategy requires a value");
            return ExitCode::FAILURE;
        }
        let Some(s) = DelineationStrategy::parse(&args[pos + 1]) else {
            eprintln!(
                "accuracy_check: unknown strategy `{}` \
                 (expected classic | hybrid)",
                args[pos + 1]
            );
            return ExitCode::FAILURE;
        };
        strategy = s;
        args.drain(pos..pos + 2);
    }
    let result = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--write"] => write_baseline(None, strategy).map(|()| Vec::new()),
        ["--write", path] => write_baseline(Some(path), strategy).map(|()| Vec::new()),
        [] => check(None, strategy),
        [path] => check(Some(path), strategy),
        _ => Err("usage: accuracy_check [--strategy S] [BASELINE.json] | \
                  accuracy_check [--strategy S] --write [PATH]"
            .into()),
    };
    match result {
        Ok(regs) if regs.is_empty() => {
            println!("accuracy_check: OK");
            ExitCode::SUCCESS
        }
        Ok(regs) => {
            eprintln!("accuracy_check: {} regression(s) past margins:", regs.len());
            for r in &regs {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("accuracy_check: {e}");
            ExitCode::FAILURE
        }
    }
}

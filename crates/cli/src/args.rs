//! Hand-rolled argument parsing (no external parser dependency): the
//! surface is four subcommands with a handful of `--key value` options.

use std::fmt;

use cardiotouch::config::DelineationStrategy;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate one session and write it as recording CSV.
    Simulate {
        /// Subject index, 1-based (1–5 in the reference population).
        subject: usize,
        /// Arm position, 1–3.
        position: usize,
        /// Injection frequency, hertz.
        freq_hz: f64,
        /// Recording duration, seconds.
        seconds: f64,
        /// Random seed.
        seed: u64,
        /// Output path (`-` for stdout).
        out: String,
    },
    /// Analyze a recording CSV and print/emit per-beat parameters.
    Analyze {
        /// Input recording path.
        input: String,
        /// Optional per-beat CSV output path.
        beats_out: Option<String>,
        /// Enable the SQI morphology gate.
        sqi: bool,
        /// Thoracic-equivalent Z0 for the SV formulas, ohms.
        hemo_z0: Option<f64>,
    },
    /// Rerun the paper's position study and print every table/figure.
    Study {
        /// Use shortened (12 s) sessions.
        quick: bool,
        /// Worker-thread count for the session grid (`None` → automatic).
        threads: Option<usize>,
        /// Write a metrics snapshot (JSON) here after the run (`-` for
        /// stdout).
        metrics_out: Option<String>,
        /// Fault-scenario spec injected into every device chain
        /// (see `FAULTS` in [`USAGE`]).
        faults: Option<String>,
        /// Delineation strategy override (`None` → pipeline default).
        delineation: Option<DelineationStrategy>,
    },
    /// Drive many concurrent streaming sessions through the incremental
    /// engine and report sustained throughput and per-hop latency.
    ServeSim {
        /// Concurrent session count.
        sessions: usize,
        /// Worker-thread count (`None` → automatic).
        threads: Option<usize>,
        /// Fleet shard count: `None` runs the single rayon-pool
        /// scheduler, `Some(n)` serves the sessions from `n` dedicated
        /// shard threads (`cardiotouch::fleet`).
        shards: Option<usize>,
        /// Simulated signal duration per session, seconds (= hops).
        seconds: usize,
        /// Random seed for the template recordings.
        seed: u64,
        /// Metrics destination: `.jsonl` paths stream one snapshot per
        /// tick, anything else gets one pretty snapshot after the run
        /// (`-` for stdout).
        metrics_out: Option<String>,
        /// Fault-scenario spec injected into every session's feed
        /// (see `FAULTS` in [`USAGE`]).
        faults: Option<String>,
        /// Serve through the encoded wire front door
        /// (`cardiotouch::wire`): sessions are framed, multiplexed and
        /// decoded instead of fed as in-memory vectors.
        wire: bool,
        /// Frame drop probability on the simulated lossy wire, 0..=1.
        wire_loss: f64,
        /// Per-frame bit-corruption probability on the simulated lossy
        /// wire, 0..=1.
        wire_corrupt: f64,
        /// Durable serving: directory receiving the checkpoint store
        /// and segmented ingest-log files (requires `--wire`).
        checkpoint_dir: Option<String>,
        /// Checkpoint cadence in simulated seconds (requires
        /// `--checkpoint-dir` or `--recover`; `None` → the 60 s
        /// default).
        checkpoint_every_s: Option<usize>,
        /// Cold-start recovery: restore the fleet from a checkpoint
        /// directory written by an earlier `--checkpoint-dir` run and
        /// continue serving (requires `--wire`).
        recover: Option<String>,
        /// Delineation strategy override (`None` → pipeline default).
        delineation: Option<DelineationStrategy>,
    },
    /// Run the conformance suite: differential batch/stream testing
    /// over the pinned corpus, golden-vector drift check and the
    /// accuracy snapshot.
    Conformance {
        /// Golden-vector directory (default `conformance/golden`).
        golden: Option<String>,
        /// Regenerate the golden baseline instead of checking it.
        write_golden: bool,
        /// Write the accuracy snapshot (`ACC_*.json` format) here
        /// (`-` for stdout).
        acc_out: Option<String>,
        /// Delineation strategy override (`None` → pipeline default).
        /// Golden vectors pin the default strategy, so the drift check
        /// and `--write-golden` are skipped under an override.
        delineation: Option<DelineationStrategy>,
    },
    /// Print the Table-I power model and battery-life figures.
    Power,
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Longest recording `simulate` generates, seconds: one hour, ~22 MB
/// per channel at 250 Hz. The limit keeps a mistyped `--seconds` from
/// sizing the channels past what the process can allocate.
const MAX_SIMULATE_SECONDS: f64 = 3600.0;

/// Usage text.
pub const USAGE: &str = "\
cardiotouch — touch-based ICG/ECG simulation and analysis

USAGE:
  cardiotouch simulate [--subject N] [--position N] [--freq HZ]
                       [--seconds S] [--seed N] [--out FILE]
  cardiotouch analyze <recording.csv> [--beats-out FILE] [--sqi]
                       [--hemo-z0 OHM]
  cardiotouch study [--quick] [--threads N] [--metrics-out FILE]
                       [--faults SPEC] [--delineation STRAT]
  cardiotouch serve-sim [--sessions N] [--threads N] [--shards N]
                       [--seconds S] [--seed N] [--metrics-out FILE]
                       [--faults SPEC] [--wire] [--wire-loss P]
                       [--wire-corrupt P] [--checkpoint-dir DIR]
                       [--checkpoint-every-s S] [--recover DIR]
                       [--delineation STRAT]
  cardiotouch conformance [--golden DIR] [--write-golden]
                       [--acc-out FILE] [--delineation STRAT]
  cardiotouch power
  cardiotouch help

Conformance: runs the pinned corpus through the batch pipeline and
both streaming engines, asserts the tolerance bands, checks the
committed golden vectors under --golden (default conformance/golden;
--write-golden regenerates them instead), prints the accuracy
snapshot (--acc-out saves it in the committed ACC_*.json format), then
streams the clean corpus in 1 s pushes and prints its beat emission
lag and its accuracy against truth.

Metrics: --metrics-out writes a point-in-time observability snapshot
(counters, gauges, latency histograms) as JSON; `-` writes to stdout.
For serve-sim a path ending in `.jsonl` streams one compact snapshot
line per scheduler tick instead.

Sharding: serve-sim --shards N serves the fleet from N worker shards,
each a dedicated thread owning its own scheduler slab with bounded
ingest and per-shard metrics (core.fleet.shard<i>.*); without --shards
one scheduler fans sessions over the rayon pool instead.

Wire: serve-sim --wire drives the fleet through the encoded wire
protocol instead of in-memory vectors — every session's samples are
framed (session-tagged, sequence-numbered, CRC-trailed), multiplexed
into one byte stream and decoded by the zero-copy ingest front door
into shard mailboxes. --wire-loss / --wire-corrupt put a seeded lossy
link on the wire (frame drops and bit flips; the decoder resyncs and
the reassembler NaN-fills, counted under ingest.*). Implies shard
serving (--shards, default 2).

Durability: serve-sim --wire --checkpoint-dir DIR journals every
accepted frame into a rotating, compacting segmented log and seals a
CRC-chained checkpoint of all stream states every --checkpoint-every-s
simulated seconds (default 60; the log keeps data durable between
checkpoints, so the cadence only bounds recovery replay). A later
serve-sim --wire --recover DIR cold-starts from the newest intact
checkpoint, replays the log suffix, and continues serving with
bitwise-identical beat emissions; it keeps checkpointing into DIR.

Delineation: --delineation selects the ICG delineation strategy used
for beat landmark detection. STRAT is classic | hybrid (default
hybrid). Golden vectors pin the default strategy, so
`conformance --delineation` with a non-default strategy skips the
golden drift check and refuses --write-golden; the differential and
accuracy legs still run.

FAULTS: --faults injects a deterministic fault scenario into every
device chain. SPEC is `none`, `rand:SEED`, or comma-separated events
`kind@start+duration[:channel]` where kind is drop | loss[=level] |
sat[=limit] | motion[=amp] | step[=delta] | fail, times take `s`, `ms`
or raw-sample suffixes and channel is ecg | z | both (default both).
Example: --faults drop@5s+200ms,loss=0@10s+1.5s:ecg,motion@20s+2s:z
";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseArgsError`] with a user-facing message for unknown
/// subcommands, unknown flags, missing values or out-of-range numbers.
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let mut it = args.iter();
    let sub = match it.next() {
        Some(s) => s.as_str(),
        None => return Ok(Command::Help),
    };
    let rest: Vec<&String> = it.collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "power" => {
            expect_no_args(&rest)?;
            Ok(Command::Power)
        }
        "conformance" => {
            let mut golden = None;
            let mut write_golden = false;
            let mut acc_out = None;
            let mut delineation = None;
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                match flag {
                    "--write-golden" => {
                        write_golden = true;
                        i += 1;
                    }
                    "--golden" | "--acc-out" | "--delineation" => {
                        let v = rest
                            .get(i + 1)
                            .ok_or_else(|| ParseArgsError(format!("{flag} requires a value")))?
                            .to_string();
                        match flag {
                            "--golden" => golden = Some(v),
                            "--acc-out" => acc_out = Some(v),
                            _ => delineation = Some(parse_delineation(&v)?),
                        }
                        i += 2;
                    }
                    other => return Err(unknown_flag("conformance", other)),
                }
            }
            Ok(Command::Conformance {
                golden,
                write_golden,
                acc_out,
                delineation,
            })
        }
        "study" => {
            let mut quick = false;
            let mut threads = None;
            let mut metrics_out = None;
            let mut faults = None;
            let mut delineation = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--quick" => {
                        quick = true;
                        i += 1;
                    }
                    "--threads" => {
                        let v = rest
                            .get(i + 1)
                            .ok_or_else(|| ParseArgsError("--threads requires a value".into()))?;
                        let n: usize = parse_num("--threads", v)?;
                        if n == 0 {
                            return Err(ParseArgsError("--threads must be at least 1".into()));
                        }
                        threads = Some(n);
                        i += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| {
                                    ParseArgsError("--metrics-out requires a value".into())
                                })?
                                .to_string(),
                        );
                        i += 2;
                    }
                    "--faults" => {
                        faults = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| {
                                    ParseArgsError("--faults requires a spec value".into())
                                })?
                                .to_string(),
                        );
                        i += 2;
                    }
                    "--delineation" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            ParseArgsError("--delineation requires a value".into())
                        })?;
                        delineation = Some(parse_delineation(v)?);
                        i += 2;
                    }
                    other => return Err(unknown_flag("study", other)),
                }
            }
            Ok(Command::Study {
                quick,
                threads,
                metrics_out,
                faults,
                delineation,
            })
        }
        "serve-sim" => {
            let mut sessions = 256usize;
            let mut threads = None;
            let mut shards = None;
            let mut seconds = 10usize;
            let mut seed = 7u64;
            let mut metrics_out = None;
            let mut faults = None;
            let mut wire = false;
            let mut wire_loss = 0.0f64;
            let mut wire_corrupt = 0.0f64;
            let mut checkpoint_dir = None;
            let mut checkpoint_every_s = None;
            let mut recover = None;
            let mut delineation = None;
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let value = |i: usize| -> Result<&String, ParseArgsError> {
                    rest.get(i + 1)
                        .copied()
                        .ok_or_else(|| ParseArgsError(format!("{flag} requires a value")))
                };
                match flag {
                    "--wire" => {
                        wire = true;
                        i += 1;
                        continue;
                    }
                    "--sessions" => sessions = parse_num(flag, value(i)?)?,
                    "--threads" => threads = Some(parse_num(flag, value(i)?)?),
                    "--shards" => shards = Some(parse_num(flag, value(i)?)?),
                    "--seconds" => seconds = parse_num(flag, value(i)?)?,
                    "--seed" => seed = parse_num(flag, value(i)?)?,
                    "--metrics-out" => metrics_out = Some(value(i)?.clone()),
                    "--faults" => faults = Some(value(i)?.clone()),
                    "--wire-loss" => wire_loss = parse_num(flag, value(i)?)?,
                    "--wire-corrupt" => wire_corrupt = parse_num(flag, value(i)?)?,
                    "--checkpoint-dir" => checkpoint_dir = Some(value(i)?.clone()),
                    "--checkpoint-every-s" => {
                        checkpoint_every_s = Some(parse_num(flag, value(i)?)?);
                    }
                    "--recover" => recover = Some(value(i)?.clone()),
                    "--delineation" => delineation = Some(parse_delineation(value(i)?)?),
                    other => return Err(unknown_flag("serve-sim", other)),
                }
                i += 2;
            }
            if sessions == 0 {
                return Err(ParseArgsError("--sessions must be at least 1".into()));
            }
            if seconds == 0 {
                return Err(ParseArgsError("--seconds must be at least 1".into()));
            }
            if threads == Some(0) {
                return Err(ParseArgsError("--threads must be at least 1".into()));
            }
            if shards == Some(0) {
                return Err(ParseArgsError("--shards must be at least 1".into()));
            }
            for (flag, p) in [("--wire-loss", wire_loss), ("--wire-corrupt", wire_corrupt)] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ParseArgsError(format!("{flag} must be within 0..=1")));
                }
                if p > 0.0 && !wire {
                    return Err(ParseArgsError(format!("{flag} requires --wire")));
                }
            }
            if wire && faults.is_some() {
                return Err(ParseArgsError(
                    "--faults does not apply to --wire serving; \
                     use --wire-loss / --wire-corrupt for wire faults"
                        .into(),
                ));
            }
            if wire && threads.is_some() {
                return Err(ParseArgsError(
                    "--threads does not apply to --wire serving \
                     (the wire always drives shard workers; use --shards)"
                        .into(),
                ));
            }
            if checkpoint_every_s == Some(0) {
                return Err(ParseArgsError(
                    "--checkpoint-every-s must be at least 1".into(),
                ));
            }
            if checkpoint_every_s.is_some() && checkpoint_dir.is_none() && recover.is_none() {
                return Err(ParseArgsError(
                    "--checkpoint-every-s requires --checkpoint-dir or --recover".into(),
                ));
            }
            if checkpoint_dir.is_some() && recover.is_some() {
                return Err(ParseArgsError(
                    "--checkpoint-dir and --recover are mutually exclusive; \
                     recovered runs keep checkpointing into the recovered directory"
                        .into(),
                ));
            }
            if (checkpoint_dir.is_some() || recover.is_some()) && !wire {
                return Err(ParseArgsError(
                    "durable serving (--checkpoint-dir / --recover) requires --wire: \
                     the checkpoint store and ingest log sit behind the wire front door"
                        .into(),
                ));
            }
            Ok(Command::ServeSim {
                sessions,
                threads,
                shards,
                seconds,
                seed,
                metrics_out,
                faults,
                wire,
                wire_loss,
                wire_corrupt,
                checkpoint_dir,
                checkpoint_every_s,
                recover,
                delineation,
            })
        }
        "simulate" => {
            let mut subject = 1usize;
            let mut position = 1usize;
            let mut freq_hz = 50_000.0;
            let mut seconds = 30.0;
            let mut seed = 7u64;
            let mut out = "-".to_owned();
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].as_str();
                let value = |i: usize| -> Result<&String, ParseArgsError> {
                    rest.get(i + 1)
                        .copied()
                        .ok_or_else(|| ParseArgsError(format!("{flag} requires a value")))
                };
                match flag {
                    "--subject" => subject = parse_num(flag, value(i)?)?,
                    "--position" => position = parse_num(flag, value(i)?)?,
                    "--freq" => freq_hz = parse_num(flag, value(i)?)?,
                    "--seconds" => seconds = parse_num(flag, value(i)?)?,
                    "--seed" => seed = parse_num(flag, value(i)?)?,
                    "--out" => out = value(i)?.clone(),
                    other => return Err(unknown_flag("simulate", other)),
                }
                i += 2;
            }
            if !(1..=5).contains(&subject) {
                return Err(ParseArgsError("--subject must be 1..=5".into()));
            }
            if !(1..=3).contains(&position) {
                return Err(ParseArgsError("--position must be 1..=3".into()));
            }
            if !(seconds > 0.0 && seconds <= MAX_SIMULATE_SECONDS) {
                return Err(ParseArgsError(format!(
                    "--seconds must be within (0, {MAX_SIMULATE_SECONDS}]"
                )));
            }
            Ok(Command::Simulate {
                subject,
                position,
                freq_hz,
                seconds,
                seed,
                out,
            })
        }
        "analyze" => {
            let input = rest
                .first()
                .ok_or_else(|| ParseArgsError("analyze requires a recording path".into()))?
                .to_string();
            let mut beats_out = None;
            let mut sqi = false;
            let mut hemo_z0 = None;
            let mut i = 1;
            while i < rest.len() {
                let flag = rest[i].as_str();
                match flag {
                    "--sqi" => {
                        sqi = true;
                        i += 1;
                    }
                    "--beats-out" => {
                        beats_out = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| {
                                    ParseArgsError("--beats-out requires a value".into())
                                })?
                                .to_string(),
                        );
                        i += 2;
                    }
                    "--hemo-z0" => {
                        let v = rest
                            .get(i + 1)
                            .ok_or_else(|| ParseArgsError("--hemo-z0 requires a value".into()))?;
                        hemo_z0 = Some(parse_num("--hemo-z0", v)?);
                        i += 2;
                    }
                    other => return Err(unknown_flag("analyze", other)),
                }
            }
            Ok(Command::Analyze {
                input,
                beats_out,
                sqi,
                hemo_z0,
            })
        }
        other => Err(ParseArgsError(format!(
            "unknown subcommand `{other}` (try `cardiotouch help`)"
        ))),
    }
}

fn expect_no_args(rest: &[&String]) -> Result<(), ParseArgsError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(ParseArgsError(format!("unexpected argument `{}`", rest[0])))
    }
}

fn unknown_flag(sub: &str, flag: &str) -> ParseArgsError {
    ParseArgsError(format!("unknown flag `{flag}` for `{sub}`"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseArgsError> {
    v.parse()
        .map_err(|_| ParseArgsError(format!("{flag}: cannot parse `{v}`")))
}

fn parse_delineation(v: &str) -> Result<DelineationStrategy, ParseArgsError> {
    DelineationStrategy::parse(v).ok_or_else(|| {
        ParseArgsError(format!(
            "--delineation: unknown strategy `{v}` \
             (expected classic | hybrid)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseArgsError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse(&owned)
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults_and_overrides() {
        let c = p(&["simulate"]).unwrap();
        assert_eq!(
            c,
            Command::Simulate {
                subject: 1,
                position: 1,
                freq_hz: 50_000.0,
                seconds: 30.0,
                seed: 7,
                out: "-".into()
            }
        );
        let c = p(&[
            "simulate",
            "--subject",
            "3",
            "--position",
            "2",
            "--freq",
            "10000",
            "--seconds",
            "12",
            "--seed",
            "99",
            "--out",
            "rec.csv",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Simulate {
                subject: 3,
                position: 2,
                freq_hz: 10_000.0,
                seconds: 12.0,
                seed: 99,
                out: "rec.csv".into()
            }
        );
    }

    #[test]
    fn simulate_validates_ranges() {
        assert!(p(&["simulate", "--subject", "9"]).is_err());
        assert!(p(&["simulate", "--position", "0"]).is_err());
        assert!(p(&["simulate", "--seed"]).is_err());
        assert!(p(&["simulate", "--bogus", "1"]).is_err());
    }

    #[test]
    fn simulate_rejects_unusable_durations() {
        // Parsed only: nothing here allocates a recording.
        for bad in ["nan", "inf", "-inf", "0", "-5", "1e7", "3600.5"] {
            let err = p(&["simulate", "--seconds", bad]).unwrap_err();
            assert!(err.0.contains("--seconds"), "{bad}: {}", err.0);
        }
        for ok in ["0.5", "30", "3600"] {
            assert!(p(&["simulate", "--seconds", ok]).is_ok(), "{ok}");
        }
    }

    #[test]
    fn analyze_forms() {
        assert_eq!(
            p(&["analyze", "rec.csv"]).unwrap(),
            Command::Analyze {
                input: "rec.csv".into(),
                beats_out: None,
                sqi: false,
                hemo_z0: None
            }
        );
        assert_eq!(
            p(&[
                "analyze",
                "rec.csv",
                "--sqi",
                "--beats-out",
                "b.csv",
                "--hemo-z0",
                "28"
            ])
            .unwrap(),
            Command::Analyze {
                input: "rec.csv".into(),
                beats_out: Some("b.csv".into()),
                sqi: true,
                hemo_z0: Some(28.0)
            }
        );
        assert!(p(&["analyze"]).is_err());
        assert!(p(&["analyze", "rec.csv", "--hemo-z0", "abc"]).is_err());
    }

    #[test]
    fn study_and_power() {
        assert_eq!(
            p(&["study"]).unwrap(),
            Command::Study {
                quick: false,
                threads: None,
                metrics_out: None,
                faults: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["study", "--quick"]).unwrap(),
            Command::Study {
                quick: true,
                threads: None,
                metrics_out: None,
                faults: None,
                delineation: None
            }
        );
        assert_eq!(p(&["power"]).unwrap(), Command::Power);
        assert!(p(&["power", "extra"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
    }

    #[test]
    fn serve_sim_defaults_and_overrides() {
        assert_eq!(
            p(&["serve-sim"]).unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&[
                "serve-sim",
                "--sessions",
                "1000",
                "--threads",
                "4",
                "--seconds",
                "30",
                "--seed",
                "9"
            ])
            .unwrap(),
            Command::ServeSim {
                sessions: 1000,
                threads: Some(4),
                shards: None,
                seconds: 30,
                seed: 9,
                metrics_out: None,
                faults: None,
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert!(p(&["serve-sim", "--sessions", "0"]).is_err());
        assert!(p(&["serve-sim", "--seconds", "0"]).is_err());
        assert!(p(&["serve-sim", "--threads", "0"]).is_err());
        assert!(p(&["serve-sim", "--bogus", "1"]).is_err());
    }

    #[test]
    fn conformance_forms() {
        assert_eq!(
            p(&["conformance"]).unwrap(),
            Command::Conformance {
                golden: None,
                write_golden: false,
                acc_out: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&[
                "conformance",
                "--golden",
                "golden/dir",
                "--write-golden",
                "--acc-out",
                "ACC_test.json"
            ])
            .unwrap(),
            Command::Conformance {
                golden: Some("golden/dir".into()),
                write_golden: true,
                acc_out: Some("ACC_test.json".into()),
                delineation: None
            }
        );
        assert!(p(&["conformance", "--golden"]).is_err());
        assert!(p(&["conformance", "--acc-out"]).is_err());
        assert!(p(&["conformance", "--bogus"]).is_err());
    }

    #[test]
    fn study_threads_flag() {
        assert_eq!(
            p(&["study", "--threads", "4"]).unwrap(),
            Command::Study {
                quick: false,
                threads: Some(4),
                metrics_out: None,
                faults: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["study", "--quick", "--threads", "2"]).unwrap(),
            Command::Study {
                quick: true,
                threads: Some(2),
                metrics_out: None,
                faults: None,
                delineation: None
            }
        );
        assert!(p(&["study", "--threads"]).is_err());
        assert!(p(&["study", "--threads", "0"]).is_err());
        assert!(p(&["study", "--threads", "abc"]).is_err());
    }

    #[test]
    fn metrics_out_flag() {
        assert_eq!(
            p(&["serve-sim", "--metrics-out", "m.json"]).unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: Some("m.json".into()),
                faults: None,
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["serve-sim", "--sessions", "8", "--metrics-out", "m.jsonl"]).unwrap(),
            Command::ServeSim {
                sessions: 8,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: Some("m.jsonl".into()),
                faults: None,
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["study", "--quick", "--metrics-out", "-"]).unwrap(),
            Command::Study {
                quick: true,
                threads: None,
                metrics_out: Some("-".into()),
                faults: None,
                delineation: None
            }
        );
        assert!(p(&["serve-sim", "--metrics-out"]).is_err());
        assert!(p(&["study", "--metrics-out"]).is_err());
    }

    #[test]
    fn faults_flag() {
        assert_eq!(
            p(&["serve-sim", "--faults", "drop@5s+200ms"]).unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: Some("drop@5s+200ms".into()),
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["study", "--quick", "--faults", "rand:42"]).unwrap(),
            Command::Study {
                quick: true,
                threads: None,
                metrics_out: None,
                faults: Some("rand:42".into()),
                delineation: None
            }
        );
        // the spec itself is validated downstream, not by the parser
        assert!(p(&["serve-sim", "--faults"]).is_err());
        assert!(p(&["study", "--faults"]).is_err());
        assert!(p(&["simulate", "--faults", "x"]).is_err());
        assert!(p(&["analyze", "rec.csv", "--faults", "x"]).is_err());
    }

    #[test]
    fn delineation_flag() {
        for (name, strat) in [
            ("classic", DelineationStrategy::Classic),
            ("hybrid", DelineationStrategy::Hybrid),
        ] {
            assert_eq!(
                p(&["study", "--delineation", name]).unwrap(),
                Command::Study {
                    quick: false,
                    threads: None,
                    metrics_out: None,
                    faults: None,
                    delineation: Some(strat)
                }
            );
        }
        assert_eq!(
            p(&["serve-sim", "--delineation", "classic"]).unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: false,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: Some(DelineationStrategy::Classic)
            }
        );
        assert_eq!(
            p(&["conformance", "--delineation", "classic"]).unwrap(),
            Command::Conformance {
                golden: None,
                write_golden: false,
                acc_out: None,
                delineation: Some(DelineationStrategy::Classic)
            }
        );
        // value validation: the two stable names only; the retired
        // stand-alone strategies are unknown
        let err = p(&["study", "--delineation", "fancy"]).unwrap_err();
        assert!(err.0.contains("unknown strategy"), "{}", err.0);
        assert!(err.0.contains("classic | hybrid"), "{}", err.0);
        assert!(p(&["study", "--delineation", "rebeat"]).is_err());
        assert!(p(&["study", "--delineation", "weighted-b"]).is_err());
        assert!(p(&["study", "--delineation"]).is_err());
        assert!(p(&["serve-sim", "--delineation", "x"]).is_err());
        assert!(p(&["conformance", "--delineation"]).is_err());
        assert!(p(&["simulate", "--delineation", "classic"]).is_err());
    }

    #[test]
    fn wire_flags() {
        assert_eq!(
            p(&["serve-sim", "--wire", "--sessions", "64"]).unwrap(),
            Command::ServeSim {
                sessions: 64,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: true,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&[
                "serve-sim",
                "--wire",
                "--wire-loss",
                "0.05",
                "--wire-corrupt",
                "0.02",
                "--shards",
                "4"
            ])
            .unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: Some(4),
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: true,
                wire_loss: 0.05,
                wire_corrupt: 0.02,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: None,
                delineation: None
            }
        );
        // value validation and flag interplay
        assert!(p(&["serve-sim", "--wire-loss", "0.1"]).is_err()); // needs --wire
        assert!(p(&["serve-sim", "--wire", "--wire-loss", "1.5"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--wire-corrupt", "-0.1"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--wire-loss"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--faults", "rand:1"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--threads", "2"]).is_err());
        // plain vector serving is unaffected by a zero-prob default
        assert!(p(&["serve-sim", "--wire-loss", "0"]).is_ok());
    }

    #[test]
    fn durability_flags() {
        assert_eq!(
            p(&[
                "serve-sim",
                "--wire",
                "--checkpoint-dir",
                "ckpt",
                "--checkpoint-every-s",
                "30"
            ])
            .unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: true,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: Some("ckpt".into()),
                checkpoint_every_s: Some(30),
                recover: None,
                delineation: None
            }
        );
        assert_eq!(
            p(&["serve-sim", "--wire", "--recover", "ckpt"]).unwrap(),
            Command::ServeSim {
                sessions: 256,
                threads: None,
                shards: None,
                seconds: 10,
                seed: 7,
                metrics_out: None,
                faults: None,
                wire: true,
                wire_loss: 0.0,
                wire_corrupt: 0.0,
                checkpoint_dir: None,
                checkpoint_every_s: None,
                recover: Some("ckpt".into()),
                delineation: None
            }
        );
        // flag interplay: durable serving rides the wire front door
        assert!(p(&["serve-sim", "--checkpoint-dir", "ckpt"]).is_err());
        assert!(p(&["serve-sim", "--recover", "ckpt"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--checkpoint-every-s", "5"]).is_err());
        assert!(p(&[
            "serve-sim",
            "--wire",
            "--checkpoint-dir",
            "a",
            "--checkpoint-every-s",
            "0"
        ])
        .is_err());
        assert!(p(&[
            "serve-sim",
            "--wire",
            "--checkpoint-dir",
            "a",
            "--recover",
            "b"
        ])
        .is_err());
        assert!(p(&["serve-sim", "--wire", "--checkpoint-dir"]).is_err());
        assert!(p(&["serve-sim", "--wire", "--recover"]).is_err());
    }
}

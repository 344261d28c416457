//! `cardiotouch` — command-line front end to the workspace.
//!
//! ```text
//! cardiotouch simulate --subject 2 --position 1 --out rec.csv
//! cardiotouch analyze rec.csv --beats-out beats.csv
//! cardiotouch study --quick
//! cardiotouch power
//! ```

mod args;

use args::{parse, Command, USAGE};
use cardiotouch::config::{DelineationStrategy, PipelineConfig};
use cardiotouch::experiment::{run_position_study, StudyConfig};
use cardiotouch::fleet::{Fleet, DEFAULT_MAILBOX_CAPACITY};
use cardiotouch::io::{read_recording_csv, write_beats_csv, write_recording_csv};
use cardiotouch::pipeline::Pipeline;
use cardiotouch::report;
use cardiotouch::respiration::estimate_respiration_rate;
use cardiotouch::scheduler::{SessionFeed, SessionScheduler};
use cardiotouch_device::mcu::CycleBudget;
use cardiotouch_device::power::{DutyCycle, PowerBudget};
use cardiotouch_ingest::{CheckpointStore, LossyWire, SegmentPolicy, SegmentedLog, SessionEncoder};
use cardiotouch_physio::faults::FaultScenario;
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes a pretty point-in-time snapshot of the process-wide metrics
/// registry to `path` (`-` for stdout).
fn write_metrics_snapshot(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let json = cardiotouch_obs::snapshot().to_json(true);
    if path == "-" {
        println!("{json}");
    } else {
        let mut f = BufWriter::new(File::create(path)?);
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// Persists a durable fleet's state into `dir`: every live log segment
/// as `segment-<id>.ctlog`, then the checkpoint store as
/// `checkpoint.ctckpt` (via temp file + rename). Segments are written
/// before the store so a crash mid-persist leaves the store at or
/// behind the log — recovery then just replays a longer suffix.
/// Sealed segments never change, so a file whose length already
/// matches is skipped; files of retired (compacted-away) segments are
/// pruned, keeping the directory's footprint bounded like the
/// in-memory log.
fn persist_checkpoint(
    fleet: &cardiotouch::fleet::Fleet,
    dir: &std::path::Path,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let log = fleet
        .wire_segmented_log()
        .ok_or("durable mode is off (no segmented log)")?;
    let mut live = std::collections::BTreeSet::new();
    for seg in log.segments() {
        live.insert(seg.id());
        let path = dir.join(format!("segment-{:08}.ctlog", seg.id()));
        if std::fs::metadata(&path).is_ok_and(|m| m.len() as usize == seg.bytes().len()) {
            continue;
        }
        std::fs::write(&path, seg.bytes())?;
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name
            .to_string_lossy()
            .strip_prefix("segment-")
            .and_then(|r| r.strip_suffix(".ctlog"))
            .and_then(|r| r.parse::<u64>().ok())
        else {
            continue;
        };
        if !live.contains(&id) {
            std::fs::remove_file(entry.path())?;
        }
    }
    let store = fleet
        .checkpoint_store_bytes()
        .ok_or("durable mode is off (no checkpoint store)")?;
    let tmp = dir.join("checkpoint.ctckpt.tmp");
    std::fs::write(&tmp, store)?;
    std::fs::rename(&tmp, dir.join("checkpoint.ctckpt"))?;
    Ok(())
}

/// Cold-starts a fleet from a directory written by
/// [`persist_checkpoint`]: reopens the store's longest valid prefix,
/// rebuilds the segmented log from the segment files (only the newest
/// may carry a crash cut), restores every checkpointed session and
/// replays the log suffix past the watermark. Returns the fleet plus
/// the log frame count at the checkpoint used and the suffix frame
/// count, for the startup banner.
fn recover_fleet(
    config: PipelineConfig,
    shards: usize,
    mailbox: usize,
    policy: SegmentPolicy,
    dir: &std::path::Path,
) -> Result<(cardiotouch::fleet::Fleet, u64, u64), Box<dyn std::error::Error>> {
    let store_path = dir.join("checkpoint.ctckpt");
    let store_bytes = std::fs::read(&store_path)
        .map_err(|e| format!("cannot read {}: {e}", store_path.display()))?;
    let (store, newest) = CheckpointStore::from_valid_prefix(&store_bytes)?;
    let newest = newest.ok_or_else(|| format!("{}: no intact checkpoint", store_path.display()))?;
    let mut parts: Vec<(u64, Vec<u8>)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name
            .to_string_lossy()
            .strip_prefix("segment-")
            .and_then(|r| r.strip_suffix(".ctlog"))
            .and_then(|r| r.parse::<u64>().ok())
        else {
            continue;
        };
        parts.push((id, std::fs::read(entry.path())?));
    }
    parts.sort_by_key(|(id, _)| *id);
    if parts.is_empty() {
        return Err(format!("{}: no segment-*.ctlog files", dir.display()).into());
    }
    let log = SegmentedLog::from_segments(policy, &parts)?;
    let mut suffix_frames = 0u64;
    log.replay_from(&newest.checkpoint.watermark, |_| suffix_frames += 1)?;
    let fleet = Fleet::recover(config, shards, mailbox, store, &newest.checkpoint, log)?;
    Ok((fleet, newest.checkpoint.watermark.frames, suffix_frames))
}

/// The conformance suite as a CLI verb: differential engines over the
/// pinned corpus, golden drift check (or regeneration), the accuracy
/// snapshot and the streamed corpus's lag and accuracy — the same
/// layers CI gates on, runnable locally in one command.
fn run_conformance(
    golden_dir: Option<&str>,
    write_golden: bool,
    acc_out: Option<&str>,
    delineation: Option<DelineationStrategy>,
) -> Result<(), Box<dyn std::error::Error>> {
    use cardiotouch_conformance::{accuracy, corpus, differential, golden, latency, replay};
    use std::path::Path;

    let strategy = delineation.unwrap_or_default();
    // The committed golden vectors pin the *default* strategy; under a
    // non-default override the drift check would flag every case, so
    // those legs are skipped (and regeneration refused) instead.
    let default_strategy = strategy == DelineationStrategy::default();
    if write_golden && !default_strategy {
        return Err(format!(
            "--write-golden pins the default strategy ({}); drop --delineation {}",
            DelineationStrategy::default().name(),
            strategy.name()
        )
        .into());
    }
    let dir = golden_dir.unwrap_or("conformance/golden");
    let corpus_cases = corpus::golden_corpus();

    // 1. Differential: batch vs incremental stream everywhere, plus the
    //    windowed oracle on a fixed subset (it costs ~20x a batch run).
    let reanalysis_ids = [
        "s1-p1-f50k",
        "s3-p2-f50k",
        "s1-p1-f50k-loss",
        "s2-p2-f50k-satstep",
    ];
    let tol = differential::Tolerances::default();
    let reports = differential::run_corpus(&corpus_cases, &tol, &reanalysis_ids)?;
    println!("differential ({} cases):", reports.len());
    let mut violations = Vec::new();
    for r in &reports {
        println!(
            "  {:<22} batch {:>3}  stream {:>3}  matched {:>3}  agreed {:>3}{}{}",
            r.id,
            r.batch_beats,
            r.stream_beats,
            r.matched,
            r.agreed,
            if r.faulted { "  [faulted]" } else { "" },
            if r.reanalysis.is_some() {
                "  [oracle]"
            } else {
                ""
            },
        );
        violations.extend(r.violations(&tol));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("  VIOLATION {v}");
        }
        return Err(format!("{} differential tolerance violation(s)", violations.len()).into());
    }

    // 2. Golden vectors: regenerate or drift-check.
    if !default_strategy {
        println!(
            "golden: skipped (vectors pin the {} strategy, running {})",
            DelineationStrategy::default().name(),
            strategy.name()
        );
    } else if write_golden {
        std::fs::create_dir_all(dir)?;
        for case in &corpus_cases {
            let g = golden::compute(case)?;
            std::fs::write(Path::new(dir).join(format!("{}.json", g.id)), g.to_json())?;
        }
        println!("golden: rewrote {} baselines in {dir}", corpus_cases.len());
    } else {
        let mut drifts = Vec::new();
        for case in &corpus_cases {
            let fresh = golden::compute(case)?;
            let path = Path::new(dir).join(format!("{}.json", fresh.id));
            let committed = golden::GoldenCase::from_json(&std::fs::read_to_string(&path)?)?;
            drifts.extend(golden::diff(&committed, &fresh));
        }
        if !drifts.is_empty() {
            for d in &drifts {
                eprintln!("  DRIFT {d}");
            }
            return Err(format!("{} golden drift(s) vs {dir}", drifts.len()).into());
        }
        println!("golden: {} cases conformant with {dir}", corpus_cases.len());
    }

    // 3. Replay equivalence: the corpus multiplexed onto the encoded
    //    wire — clean wire vs the in-memory path, and ingest-log replay
    //    vs the live run (clean and lossy legs), all bitwise.
    let rep = replay::run_corpus(&corpus_cases)?;
    println!(
        "replay: {} sessions muxed, {} frames; lossy leg dropped {} corrupted {} \
         (resyncs {}, log {} B)",
        rep.cases.len(),
        rep.frames_sent,
        rep.wire_dropped,
        rep.wire_corrupted,
        rep.lossy_resyncs,
        rep.lossy_log_bytes
    );
    let replay_violations = rep.violations();
    if !replay_violations.is_empty() {
        for v in &replay_violations {
            eprintln!("  VIOLATION {v}");
        }
        return Err(format!(
            "{} replay-equivalence violation(s)",
            replay_violations.len()
        )
        .into());
    }

    // 4. Accuracy snapshot over the full corpus (fault cases included;
    //    their guarded landmarks are excluded from the denominator).
    let acc = accuracy::compute_with(&corpus_cases, "local", strategy)?;
    println!(
        "accuracy ({}): {} cases, detection {:.4} ({}/{} beats)",
        acc.strategy.name(),
        acc.cases,
        acc.detection_rate,
        acc.matched_beats,
        acc.truth_beats
    );
    println!(
        "  landmark p95 |offset|: B {:.1} ms, C {:.1} ms, X {:.1} ms",
        acc.b.p95_abs_ms, acc.c.p95_abs_ms, acc.x.p95_abs_ms
    );
    println!(
        "  bias: LVET {:+.1} ms, PEP {:+.1} ms, HR {:+.2} bpm",
        acc.lvet.bias * 1e3,
        acc.pep.bias * 1e3,
        acc.hr.bias
    );

    // 5. The clean corpus streamed in 1 s pushes: when beats reach the
    //    caller, and how close they are to truth.
    let lat = latency::run_corpus(&corpus::clean_corpus(), strategy)?;
    let s = |samples: usize| samples as f64 / lat.fs;
    println!(
        "stream ({}, 1 s pushes): {} clean cases, {} beats, emission lag min {:.2} s, \
         p50 {:.2} s, max {:.2} s",
        lat.strategy.name(),
        lat.cases.len(),
        lat.lag.beats,
        s(lat.lag.min),
        s(lat.lag.p50),
        s(lat.lag.max)
    );
    println!(
        "  vs truth ({} s in to {} s before the end): detection {:.4} ({}/{} beats), \
         p95 |offset| B {:.1} ms, C {:.1} ms, X {:.1} ms",
        latency::SCORE_START_S,
        latency::SCORE_END_MARGIN_S,
        lat.detection_rate,
        lat.matched_beats,
        lat.truth_beats,
        lat.b.p95_abs_ms,
        lat.c.p95_abs_ms,
        lat.x.p95_abs_ms
    );
    if let Some(path) = acc_out {
        if path == "-" {
            print!("{}", acc.to_json());
        } else {
            std::fs::write(path, acc.to_json())?;
            eprintln!("wrote accuracy snapshot to {path}");
        }
    }
    Ok(())
}

fn run(command: Command) -> Result<(), Box<dyn std::error::Error>> {
    match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Power => {
            let budget = PowerBudget::paper_table_i();
            let duty = CycleBudget::paper_pipeline().duty_cycle(250.0, 70.0);
            println!("CPU duty cycle (float pipeline): {:.1} %", duty * 100.0);
            for (label, d) in [
                (
                    "continuous (paper worst case)",
                    DutyCycle::paper_worst_case(),
                ),
                ("continuous (paper best case)", DutyCycle::paper_best_case()),
                ("raw streaming", DutyCycle::raw_streaming()),
            ] {
                println!(
                    "{label:<32} {:6.3} mA -> {:6.1} h on 710 mAh",
                    budget.average_current_ma(&d),
                    budget.battery_life_hours(710.0, &d)
                );
            }
            Ok(())
        }
        Command::Conformance {
            golden,
            write_golden,
            acc_out,
            delineation,
        } => run_conformance(
            golden.as_deref(),
            write_golden,
            acc_out.as_deref(),
            delineation,
        ),
        Command::Study {
            quick,
            threads,
            metrics_out,
            faults,
            delineation,
        } => {
            let mut config = StudyConfig::paper_default();
            if quick {
                config.protocol = Protocol {
                    duration_s: 12.0,
                    ..Protocol::paper_default()
                };
            }
            if let Some(spec) = faults {
                config.faults = Some(FaultScenario::parse(&spec, config.protocol.fs)?);
            }
            if let Some(d) = delineation {
                config.delineation = d;
            }
            // The study is bit-identical at any thread count (each session
            // derives its own RNG streams), so --threads only trades wall
            // clock for cores.
            let population = Population::reference_five();
            let outcome = match threads {
                Some(n) => rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()?
                    .install(|| run_position_study(&population, &config))?,
                None => run_position_study(&population, &config)?,
            };
            for table in &outcome.correlation_tables {
                println!("{}", report::correlation_table(table));
            }
            println!("{}", report::bioimpedance_profiles(&outcome.profiles));
            println!("{}", report::relative_errors(&outcome.errors));
            println!("{}", report::hemodynamics(&outcome.hemodynamics));
            print!("{}", report::summary(&outcome.summary));
            if let Some(path) = metrics_out {
                write_metrics_snapshot(&path)?;
            }
            Ok(())
        }
        Command::ServeSim {
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
        } => {
            // A handful of distinct template recordings (subject × seed)
            // shared across the fleet: generation is the expensive part,
            // playback phase offsets make every session's timeline unique.
            let fs = 250.0;
            let population = Population::reference_five();
            let protocol = Protocol::paper_default();
            let template_count = sessions.min(population.subjects().len());
            let mut templates = Vec::with_capacity(template_count);
            for t in 0..template_count {
                let rec = PairedRecording::generate(
                    &population.subjects()[t % population.subjects().len()],
                    Position::One,
                    50_000.0,
                    &protocol,
                    seed + t as u64,
                )?;
                templates.push((
                    Arc::new(rec.device_ecg().to_vec()),
                    Arc::new(rec.device_z().to_vec()),
                ));
            }
            let scenario = match faults.as_deref() {
                Some(spec) => {
                    let s = FaultScenario::parse(spec, fs)?;
                    (!s.is_empty()).then(|| Arc::new(s))
                }
                None => None,
            };
            let feeds: Vec<SessionFeed> = (0..sessions)
                .map(|i| {
                    let (ecg, z) = &templates[i % templates.len()];
                    let feed =
                        SessionFeed::clean(Arc::clone(ecg), Arc::clone(z), (i * 977) % ecg.len());
                    match &scenario {
                        Some(s) => feed.with_faults(Arc::clone(s)),
                        None => feed,
                    }
                })
                .collect();
            let mut config = PipelineConfig::paper_default(fs);
            if let Some(d) = delineation {
                config = config.with_delineation(d);
            }
            // A `.jsonl` metrics path streams one registry snapshot per
            // scheduler tick (a metrics time series); any other path gets
            // one pretty snapshot after the run.
            let mut exporter = match metrics_out.as_deref().filter(|p| p.ends_with(".jsonl")) {
                Some(p) => Some(cardiotouch_obs::JsonlExporter::new(BufWriter::new(
                    File::create(p)?,
                ))),
                None => None,
            };

            // --wire: serve the fleet through the encoded wire protocol.
            // Each session's timeline is framed by its own sequence-
            // numbered encoder, all sessions are multiplexed into one
            // byte stream per simulated second (optionally through a
            // seeded lossy link), and the fleet's ingest front door
            // decodes, reassembles and dispatches into shard mailboxes.
            if wire {
                let shard_count = shards.unwrap_or(2);
                // 0.5 s frames at the paper's 250 Hz — the same framing
                // the replay-equivalence conformance leg pins.
                let frame_len = 125usize;
                let samples_per_s = 250usize; // = fs
                let frames_per_s = samples_per_s / frame_len;
                let mailbox = sessions.max(DEFAULT_MAILBOX_CAPACITY);
                let policy = SegmentPolicy::DEFAULT;
                // Durable serving persists into --checkpoint-dir; a
                // recovered run keeps checkpointing into the directory
                // it recovered from.
                let durable_dir = checkpoint_dir
                    .as_deref()
                    .or(recover.as_deref())
                    .map(std::path::Path::new);
                let ckpt_every = checkpoint_every_s.unwrap_or(60);
                // Per-session frame index the templates resume from: a
                // recovered encoder picks up its timeline where the
                // dead process stopped (`next_seq` frames in), so the
                // continued run feeds the exact bytes the uninterrupted
                // run would have.
                let mut frame_base = vec![0usize; sessions];
                let mut fleet;
                let mut encoders: Vec<SessionEncoder>;
                if let Some(dir) = recover.as_deref().map(std::path::Path::new) {
                    let (f, ckpt_frames, suffix_frames) =
                        recover_fleet(config, shard_count, mailbox, policy, dir)?;
                    let resumes = f.wire_session_resumes();
                    if resumes.len() != sessions {
                        return Err(format!(
                            "{} holds {} checkpointed session(s); rerun with --sessions {} \
                             (and the original --seed) to continue it",
                            dir.display(),
                            resumes.len(),
                            resumes.len()
                        )
                        .into());
                    }
                    encoders = Vec::with_capacity(sessions);
                    for (s, base) in frame_base.iter_mut().enumerate() {
                        let (id, resume) = resumes
                            .iter()
                            .find(|(id, _)| *id as usize == s)
                            .ok_or_else(|| format!("session {s} missing from checkpoint"))?;
                        encoders.push(SessionEncoder::with_start_seq(*id, resume.next_seq));
                        *base = usize::from(resume.next_seq);
                    }
                    eprintln!(
                        "recovered {sessions} session(s) from {} \
                         (checkpoint at log frame {ckpt_frames}, {suffix_frames} suffix frames replayed)",
                        dir.display()
                    );
                    fleet = f;
                } else {
                    fleet = Fleet::new(config, shard_count, mailbox)?;
                    if durable_dir.is_some() {
                        fleet.wire_enable_durable(policy);
                    }
                    for s in 0..sessions {
                        fleet.wire_admit(u32::try_from(s)?)?;
                    }
                    encoders = (0..sessions)
                        .map(|s| Ok(SessionEncoder::new(u32::try_from(s)?)))
                        .collect::<Result<_, std::num::TryFromIntError>>()?;
                }
                let mut link = (wire_loss > 0.0 || wire_corrupt > 0.0)
                    .then(|| LossyWire::new(seed ^ 0xC71C, wire_loss, wire_corrupt));
                eprintln!(
                    "serving {sessions} wire sessions across {shard_count} shard(s) \
                     for {seconds} simulated seconds…"
                );
                let start = Instant::now();
                let mut frame_scratch = Vec::new();
                let mut wire_buf = Vec::new();
                let mut frames_sent: u64 = 0;
                let mut checkpoints_sealed: u64 = 0;
                for sec in 0..seconds {
                    wire_buf.clear();
                    for f in 0..frames_per_s {
                        for (s, enc) in encoders.iter_mut().enumerate() {
                            let (ecg, z) = &templates[s % templates.len()];
                            // Per-session phase offset over the shared
                            // template, wrapping on whole frames.
                            let off = (s * 977
                                + (frame_base[s] + sec * frames_per_s + f) * frame_len)
                                % (ecg.len() - frame_len);
                            let (e, zc) = (&ecg[off..off + frame_len], &z[off..off + frame_len]);
                            match &mut link {
                                Some(l) => {
                                    frame_scratch.clear();
                                    enc.push_frame(e, zc, &mut frame_scratch)?;
                                    l.transmit(&frame_scratch, &mut wire_buf);
                                }
                                None => {
                                    enc.push_frame(e, zc, &mut wire_buf)?;
                                }
                            }
                            frames_sent += 1;
                        }
                    }
                    fleet.wire_push(&wire_buf);
                    if let Some(dir) = durable_dir {
                        if (sec + 1) % ckpt_every == 0 && sec + 1 < seconds {
                            fleet.checkpoint()?;
                            persist_checkpoint(&fleet, dir)?;
                            checkpoints_sealed += 1;
                        }
                    }
                    if let Some(ex) = &mut exporter {
                        ex.export(&cardiotouch_obs::snapshot())?;
                    }
                }
                // Graceful shutdown of a durable run seals one final
                // checkpoint so a later --recover continues from the
                // very end instead of replaying the whole tail.
                if let Some(dir) = durable_dir {
                    fleet.checkpoint()?;
                    persist_checkpoint(&fleet, dir)?;
                    checkpoints_sealed += 1;
                }
                let elapsed_s = start.elapsed().as_secs_f64();
                let results = fleet.wire_collect()?;
                let (dec, asm) = fleet.wire_stats();
                let durable_summary = durable_dir.map(|dir| {
                    let log = fleet
                        .wire_segmented_log()
                        .expect("durable serving keeps its segmented log");
                    (
                        dir.display().to_string(),
                        log.total_bytes(),
                        log.segment_count(),
                        log.retired(),
                    )
                });
                fleet.shutdown();
                if let Some(ex) = exporter {
                    let path = metrics_out.as_deref().unwrap_or("-");
                    eprintln!("streamed {} metric snapshots to {path}", ex.lines());
                } else if let Some(path) = &metrics_out {
                    write_metrics_snapshot(path)?;
                }
                let total_beats: usize = results.iter().map(|r| r.beats.len()).sum();
                let session_seconds =
                    (asm.delivered as f64 * frame_len as f64 + asm.filled_samples as f64) / fs;
                println!("sessions            : {}", results.len());
                println!("shards              : {shard_count}");
                println!("frames sent         : {frames_sent}");
                println!("frames decoded      : {}", dec.frames);
                println!("wire bytes          : {}", dec.bytes);
                println!("decoder resyncs     : {}", dec.resyncs);
                println!("frames reordered    : {}", asm.reordered);
                println!("frames dropped      : {}", asm.dropped);
                if let Some(l) = &link {
                    println!("link dropped        : {}", l.dropped());
                    println!("link corrupted      : {}", l.corrupted());
                    println!("gap samples filled  : {}", asm.filled_samples);
                }
                println!("signal processed    : {session_seconds:.0} session-seconds");
                println!("wall clock          : {elapsed_s:.3} s");
                println!("beats emitted       : {total_beats}");
                if let Some((dir, log_bytes, segments, retired)) = durable_summary {
                    println!("checkpoints sealed  : {checkpoints_sealed}");
                    println!(
                        "log retained        : {log_bytes} B in {segments} segment(s), \
                         {retired} retired"
                    );
                    println!("checkpoint dir      : {dir}");
                }
                println!(
                    "sustained sessions  : {:.0} concurrent real-time streams",
                    session_seconds / elapsed_s.max(1e-12)
                );
                return Ok(());
            }

            // --shards: serve the fleet from dedicated shard threads
            // (each owning its own scheduler slab) instead of fanning
            // one scheduler over the rayon pool.
            if let Some(shards) = shards {
                let mut fleet = Fleet::new(config, shards, sessions.max(DEFAULT_MAILBOX_CAPACITY))?;
                for feed in feeds {
                    fleet.admit(feed)?;
                }
                eprintln!(
                    "serving {sessions} concurrent sessions across {shards} shard(s) \
                     for {seconds} simulated seconds…"
                );
                let start = Instant::now();
                for _ in 0..seconds {
                    fleet.run(1)?;
                    if let Some(ex) = &mut exporter {
                        ex.export(&cardiotouch_obs::snapshot())?;
                    }
                }
                let elapsed_s = start.elapsed().as_secs_f64();
                let reports = fleet.reports(elapsed_s)?;
                fleet.shutdown();
                if let Some(ex) = exporter {
                    let path = metrics_out.as_deref().unwrap_or("-");
                    eprintln!("streamed {} metric snapshots to {path}", ex.lines());
                } else if let Some(path) = &metrics_out {
                    write_metrics_snapshot(path)?;
                }
                let total_sessions: usize = reports.iter().map(|r| r.sessions).sum();
                let total_beats: usize = reports.iter().map(|r| r.beats).sum();
                let session_seconds: f64 = reports.iter().map(|r| r.session_seconds).sum();
                println!("sessions            : {total_sessions}");
                println!("shards              : {shards}");
                for (i, r) in reports.iter().enumerate() {
                    println!(
                        "  shard {i:<2}          : {} sessions, {} beats, hop p50 {:.1} us, \
                         p99 {:.1} us, {} quarantined",
                        r.sessions, r.beats, r.hop_p50_us, r.hop_p99_us, r.sessions_quarantined
                    );
                }
                println!("signal processed    : {session_seconds:.0} session-seconds");
                println!("wall clock          : {elapsed_s:.3} s");
                println!("beats emitted       : {total_beats}");
                if scenario.is_some() {
                    println!(
                        "session errors      : {}",
                        reports.iter().map(|r| r.session_errors).sum::<usize>()
                    );
                    println!(
                        "session recoveries  : {}",
                        reports.iter().map(|r| r.session_recoveries).sum::<usize>()
                    );
                    println!(
                        "quarantined now     : {}",
                        reports
                            .iter()
                            .map(|r| r.sessions_quarantined)
                            .sum::<usize>()
                    );
                }
                println!(
                    "sustained sessions  : {:.0} concurrent real-time streams",
                    session_seconds / elapsed_s.max(1e-12)
                );
                return Ok(());
            }

            let mut scheduler = SessionScheduler::new(config, feeds)?;
            eprintln!("serving {sessions} concurrent sessions for {seconds} simulated seconds…");
            let pool = match threads {
                Some(n) => Some(rayon::ThreadPoolBuilder::new().num_threads(n).build()?),
                None => None,
            };
            let start = Instant::now();
            for _ in 0..seconds {
                match &pool {
                    Some(p) => p.install(|| scheduler.tick())?,
                    None => scheduler.tick()?,
                }
                if let Some(ex) = &mut exporter {
                    ex.export(&cardiotouch_obs::snapshot())?;
                }
            }
            let report = scheduler.report(start.elapsed().as_secs_f64());
            if let Some(ex) = exporter {
                let path = metrics_out.as_deref().unwrap_or("-");
                eprintln!("streamed {} metric snapshots to {path}", ex.lines());
            } else if let Some(path) = &metrics_out {
                write_metrics_snapshot(path)?;
            }
            println!("sessions            : {}", report.sessions);
            println!("worker threads      : {}", report.threads);
            println!(
                "signal processed    : {:.0} session-seconds",
                report.session_seconds
            );
            println!("wall clock          : {:.3} s", report.elapsed_s);
            println!("beats emitted       : {}", report.beats);
            if scenario.is_some() {
                println!("session errors      : {}", report.session_errors);
                println!("session retries     : {}", report.session_retries);
                println!("session recoveries  : {}", report.session_recoveries);
                println!("quarantined now     : {}", report.sessions_quarantined);
            }
            println!(
                "sustained sessions  : {:.0} concurrent real-time streams",
                report.sustained_sessions()
            );
            println!("per-hop latency p50 : {:.1} us", report.hop_p50_us);
            println!("per-hop latency p99 : {:.1} us", report.hop_p99_us);
            Ok(())
        }
        Command::Simulate {
            subject,
            position,
            freq_hz,
            seconds,
            seed,
            out,
        } => {
            let population = Population::reference_five();
            let position = match position {
                1 => Position::One,
                2 => Position::Two,
                _ => Position::Three,
            };
            let protocol = Protocol {
                duration_s: seconds,
                ..Protocol::paper_default()
            };
            let rec = PairedRecording::generate(
                &population.subjects()[subject - 1],
                position,
                freq_hz,
                &protocol,
                seed,
            )?;
            if out == "-" {
                let stdout = std::io::stdout();
                write_recording_csv(stdout.lock(), protocol.fs, rec.device_ecg(), rec.device_z())?;
            } else {
                let f = BufWriter::new(File::create(&out)?);
                write_recording_csv(f, protocol.fs, rec.device_ecg(), rec.device_z())?;
                eprintln!(
                    "wrote {} samples ({seconds} s at {} Hz) to {out}",
                    rec.device_ecg().len(),
                    protocol.fs
                );
            }
            Ok(())
        }
        Command::Analyze {
            input,
            beats_out,
            sqi,
            hemo_z0,
        } => {
            let rec = read_recording_csv(BufReader::new(File::open(&input)?))?;
            let fs = rec.fs.round();
            let mut cfg = PipelineConfig::paper_default(fs);
            if sqi {
                cfg = cfg.with_sqi_gate(cardiotouch_icg::quality::DEFAULT_SQI_THRESHOLD);
            }
            if let Some(z0) = hemo_z0 {
                cfg = cfg.with_hemo_z0(z0);
            }
            let analysis = Pipeline::new(cfg)?.analyze(&rec.ecg_mv, &rec.z_ohm)?;
            let st = analysis.intervals()?;
            println!("{input}: {} samples at {fs} Hz", rec.ecg_mv.len());
            println!("  beats analysed : {}", analysis.beats().len());
            println!("  HR             : {:6.1} bpm", analysis.mean_hr_bpm()?);
            println!("  Z0             : {:6.1} ohm", analysis.z0_ohm());
            println!(
                "  PEP            : {:6.1} ± {:.1} ms",
                st.pep_mean_s * 1e3,
                st.pep_sd_s * 1e3
            );
            println!(
                "  LVET           : {:6.1} ± {:.1} ms",
                st.lvet_mean_s * 1e3,
                st.lvet_sd_s * 1e3
            );
            if let Ok(resp) = estimate_respiration_rate(&rec.z_ohm, fs) {
                println!(
                    "  respiration    : {:6.1} breaths/min (confidence {:.2})",
                    resp.rate_brpm, resp.confidence
                );
            }
            if let Some(path) = beats_out {
                let mut f = BufWriter::new(File::create(&path)?);
                write_beats_csv(&mut f, fs, analysis.beats())?;
                f.flush()?;
                eprintln!("wrote {} beats to {path}", analysis.beats().len());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `analyze --hemo-z0` on a 30 s simulated recording: a usable Z0
    /// analyses it, an unusable one fails by name instead of silently
    /// dropping every beat.
    #[test]
    fn analyze_rejects_unusable_hemo_z0() {
        let dir = std::env::temp_dir().join(format!("cardiotouch-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = dir.join("rec.csv").to_string_lossy().into_owned();
        run(Command::Simulate {
            subject: 1,
            position: 1,
            freq_hz: 50_000.0,
            seconds: 30.0,
            seed: 7,
            out: rec.clone(),
        })
        .unwrap();
        let analyze = |hemo_z0| {
            run(Command::Analyze {
                input: rec.clone(),
                beats_out: None,
                sqi: false,
                hemo_z0,
            })
        };
        analyze(None).unwrap();
        analyze(Some(28.0)).unwrap();
        for z0 in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
            let err = analyze(Some(z0)).unwrap_err().to_string();
            assert!(err.contains("hemo_z0_ohm"), "{z0}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The wire-serving workloads: `serve-steady` and `serve-durable-lossy`.
//!
//! A closed loop with one slot in flight: the generator (the fleet's
//! own control thread) pushes one second of signal for every session
//! with `Fleet::wire_push`, then waits on `Fleet::reports`, a solicited
//! round trip to every shard that works as a barrier because shard
//! mailboxes are FIFO. Slot service time is therefore the latency a
//! patient's report sees at real-time pace.

use std::error::Error;
use std::time::Instant;

use cardiotouch::config::PipelineConfig;
use cardiotouch::fleet::{Fleet, DEFAULT_MAILBOX_CAPACITY};
use cardiotouch::wire::{WireHub, WireSessionResult};
use cardiotouch_ingest::{CheckpointStore, SegmentPolicy, SegmentedLog};

use crate::inputs::{self, Link, Recording, Wire, FS, SLOT};
use crate::layers::{self, StreamRun};
use crate::stats::{cores, median, quantile, secs, Metrics};
use crate::Outcome;

/// Sessions served by both workloads.
pub const SESSIONS: usize = 256;
/// Slots (seconds of signal) per pass.
pub const SLOTS: usize = 40;
/// A checkpoint is sealed after every this many slots on durable runs.
pub const CHECKPOINT_EVERY: usize = 10;
/// Slot after which the durable run's "crash" state is copied: five
/// slots past the second seal, so every recovery replays the same
/// suffix length and `recover_ms` compares across seeds.
pub const CRASH_SLOT: usize = 2 * CHECKPOINT_EVERY + 4;
/// Link impairment of the lossy workload.
pub const LOSS: f64 = 0.01;
pub const CORRUPT: f64 = 0.01;

type Res<T> = Result<T, Box<dyn Error>>;

/// What a process leaves behind if it dies after a slot: the
/// checkpoint-store bytes and the live log segments.
pub struct Crash {
    pub slot: usize,
    store: Vec<u8>,
    segments: Vec<(u64, Vec<u8>)>,
}

/// One fleet pass over a wire run.
pub struct Pass {
    pub setup_s: f64,
    pub slot_s: Vec<f64>,
    pub push_s: Vec<f64>,
    pub barrier_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub results: Vec<WireSessionResult>,
    pub crashes: Vec<Crash>,
    pub log_bytes: usize,
    pub store_bytes: usize,
}

fn mailbox(sessions: usize) -> usize {
    sessions.max(DEFAULT_MAILBOX_CAPACITY)
}

/// Serves `wire` on a fresh `nproc`-shard fleet. Set-up (fleet, shard
/// threads, admission of every session and one barrier) is timed apart
/// from the slots; on a durable fleet a checkpoint is sealed after every
/// [`CHECKPOINT_EVERY`] slots and counts toward that slot. After each
/// slot in `crash_at` the crash state is copied (untimed).
pub fn fleet_pass(
    config: PipelineConfig,
    wire: &Wire,
    durable: bool,
    crash_at: &[usize],
) -> Res<Pass> {
    let t = Instant::now();
    let mut fleet = Fleet::new(config, cores(), mailbox(wire.sessions))?;
    if durable {
        fleet.wire_enable_durable(SegmentPolicy::DEFAULT);
    }
    for s in 0..wire.sessions {
        fleet.wire_admit(u32::try_from(s)?)?;
    }
    fleet.reports(0.0)?;
    let setup_s = secs(t);
    let n = wire.slots.len();
    let mut pass = Pass {
        setup_s,
        slot_s: Vec::with_capacity(n),
        push_s: Vec::with_capacity(n),
        barrier_s: Vec::with_capacity(n),
        checkpoint_s: Vec::new(),
        results: Vec::new(),
        crashes: Vec::new(),
        log_bytes: 0,
        store_bytes: 0,
    };
    for (i, bytes) in wire.slots.iter().enumerate() {
        let t0 = Instant::now();
        fleet.wire_push(bytes);
        let t1 = Instant::now();
        fleet.reports(0.0)?;
        let t2 = Instant::now();
        if durable && (i + 1) % CHECKPOINT_EVERY == 0 && i + 1 < n {
            fleet.checkpoint()?;
            pass.checkpoint_s.push(secs(t2));
        }
        pass.slot_s.push(secs(t0));
        pass.push_s.push((t1 - t0).as_secs_f64());
        pass.barrier_s.push((t2 - t1).as_secs_f64());
        if crash_at.contains(&i) {
            pass.crashes.push(Crash {
                slot: i,
                store: fleet.checkpoint_store_bytes().unwrap_or_default().to_vec(),
                segments: fleet
                    .wire_segmented_log()
                    .map(|l| l.segments().map(|s| (s.id(), s.bytes().to_vec())).collect())
                    .unwrap_or_default(),
            });
        }
    }
    pass.log_bytes = fleet
        .wire_segmented_log()
        .map_or(0, SegmentedLog::total_bytes);
    pass.store_bytes = fleet.checkpoint_store_bytes().map_or(0, <[u8]>::len);
    pass.results = fleet.wire_collect()?;
    fleet.shutdown();
    Ok(pass)
}

/// Cold start from a crash state, timed to a serving fleet:
/// `recover_latest` (via `CheckpointStore::from_valid_prefix`, which
/// also reopens the store), `SegmentedLog::from_segments`,
/// `Fleet::recover` and one barrier. Then the source resumes with the
/// slots after the crash (untimed) and the recovered fleet's output is
/// merged with the beats the reference had emitted up to the recovered
/// checkpoint. Returns the recovery time and the sessions whose merged
/// output is not bitwise equal to the reference (none are checked
/// unless `finish`).
pub fn recover_and_finish(
    config: PipelineConfig,
    wire: &Wire,
    crash: &Crash,
    reference: &StreamRun,
    want: &[WireSessionResult],
    finish: bool,
) -> Res<(f64, usize)> {
    let t = Instant::now();
    let (store, newest) = CheckpointStore::from_valid_prefix(&crash.store)?;
    let newest = newest.ok_or("crash state holds no intact checkpoint")?;
    let log = SegmentedLog::from_segments(SegmentPolicy::DEFAULT, &crash.segments)?;
    let mut fleet = Fleet::recover(
        config,
        cores(),
        mailbox(wire.sessions),
        store,
        &newest.checkpoint,
        log,
    )?;
    fleet.reports(0.0)?;
    let recover_s = secs(t);
    if !finish {
        fleet.shutdown();
        return Ok((recover_s, 0));
    }
    for bytes in &wire.slots[crash.slot + 1..] {
        fleet.wire_push(bytes);
    }
    let tail = fleet.wire_collect()?;
    fleet.shutdown();
    // Beats drained at the recovered checkpoint and before are the
    // caller's durable output; the recovered fleet emits the rest.
    let covered = (usize::try_from(newest.index)? + 1) * CHECKPOINT_EVERY - 1;
    let merged: Vec<WireSessionResult> = tail
        .into_iter()
        .map(|mut r| {
            let s = r.session as usize;
            let mut beats: Vec<_> = reference
                .results
                .iter()
                .find(|x| x.session == r.session)
                .map(|x| {
                    x.beats
                        .iter()
                        .zip(&reference.emitted_slot[s])
                        .filter(|(_, &slot)| slot <= covered)
                        .map(|(b, _)| *b)
                        .collect()
                })
                .unwrap_or_default();
            beats.append(&mut r.beats);
            r.beats = beats;
            r
        })
        .collect();
    Ok((recover_s, layers::mismatches(&merged, want)))
}

/// A serving workload's inputs and references, made before timing.
struct Prepared {
    recs: Vec<Recording>,
    wire: Wire,
    hub: Vec<WireSessionResult>,
    hub_s: f64,
    reference: StreamRun,
    reference_failed: usize,
}

fn prepare(
    config: PipelineConfig,
    recs: Vec<Recording>,
    slots: usize,
    link: Option<Link>,
    durable: bool,
) -> Res<Prepared> {
    let wire = Wire::encode(&recs, slots, link);
    let t = Instant::now();
    let mut hub = WireHub::new(config)?;
    for bytes in &wire.slots {
        hub.push(bytes)?;
    }
    let hub = hub.finish();
    let hub_s = secs(t);
    let reference = layers::stream_run(config, &wire, durable);
    let reference_failed = layers::mismatches(&reference.results, &hub);
    Ok(Prepared {
        recs,
        wire,
        hub,
        hub_s,
        reference,
        reference_failed,
    })
}

/// Runs `serve-steady` (`lossy == false`) or `serve-durable-lossy`.
pub fn run(seed: u64, seconds: f64, trace: bool, lossy: bool) -> Res<Outcome> {
    let started = Instant::now();
    let config = PipelineConfig::paper_default(FS);
    let recs = inputs::grid(seed, SESSIONS, SLOTS as f64);
    let link = lossy.then_some(Link {
        seed: seed ^ 0xC71C,
        drop: LOSS,
        corrupt: CORRUPT,
    });
    let p = prepare(config, recs, SLOTS, link, lossy)?;
    eprintln!(
        "inputs and references ready after {:.1} s",
        crate::stats::secs(started)
    );
    if trace {
        return crate::repeat_traced(seconds, || {
            let mut out = traced_suite(config, &p, lossy)?;
            let sub = &p.recs[..32.min(p.recs.len())];
            layers::batch_stages(config, sub, &mut out.metrics);
            let overhead = overhead(|| {
                fleet_pass(config, &p.wire, lossy, &[]).map(|x| x.slot_s.iter().sum())
            })?;
            out.metrics.put("trace.overhead_frac", overhead, "fraction");
            Ok(out)
        });
    }

    cardiotouch_obs::set_enabled(false);
    let crash_at: &[usize] = if lossy { &[CRASH_SLOT] } else { &[] };
    let mut attempted = p.hub.len() as u64 + p.wire.frames_sent;
    let mut failed = p.reference_failed as u64;
    let (mut setup, mut slots, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    let fig = layers::beat_figures(&p.reference, &p.recs, SLOTS, FS);
    // The fleet's output is gated bitwise equal to the reference, so the
    // reference's first emitting slot is the fleet's too.
    let first_beat_slot = fig
        .lags
        .iter()
        .map(|&(k, _)| k)
        .min()
        .ok_or("no beat was emitted")?;
    // A beat's report leaves when its slot's barrier returns, so its lag
    // is its signal lag plus that slot's measured service time.
    let mut lags = Vec::new();
    let mut served_s = 0.0;
    let mut timed = 0.0;
    let mut pass_no = 0;
    while pass_no < 4 || timed < seconds {
        let pass = fleet_pass(config, &p.wire, lossy, crash_at)?;
        attempted += p.hub.len() as u64;
        failed += layers::mismatches(&pass.results, &p.hub) as u64;
        let cold_s = if let Some(crash) = pass.crashes.first() {
            // The recovered output is gated on the first two passes; later
            // passes only time the cold start.
            let finish = pass_no < 2;
            let (rec_s, bad) =
                recover_and_finish(config, &p.wire, crash, &p.reference, &p.hub, finish)?;
            if finish {
                attempted += p.hub.len() as u64;
                failed += bad as u64;
            }
            rec_s
        } else {
            // No state to recover: a cold start to the first beat report.
            pass.setup_s + pass.slot_s[..=first_beat_slot].iter().sum::<f64>()
        };
        // The first pass warms caches and the design cache; it is gated
        // but not measured.
        if pass_no > 0 {
            timed +=
                pass.setup_s + pass.slot_s.iter().sum::<f64>() + if lossy { cold_s } else { 0.0 };
            served_s += pass.slot_s.iter().sum::<f64>();
            setup.push(pass.setup_s);
            lags.extend(fig.lags.iter().map(|&(k, lag)| lag + pass.slot_s[k]));
            slots.extend(pass.slot_s);
            recover.push(cold_s);
        }
        pass_no += 1;
    }
    let session_s = (p.wire.sessions * slots.len()) as f64;
    let sustained = session_s / served_s;
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup), "s");
    m.put("sustained_sessions", sustained, "sessions");
    m.put("slot_p50_ms", quantile(&mut slots, 0.5) * 1e3, "ms");
    m.put("slot_p99_ms", quantile(&mut slots, 0.99) * 1e3, "ms");
    m.put("beat_lag_p50_s", quantile(&mut lags, 0.5), "s");
    m.put("beat_lag_p99_s", quantile(&mut lags, 0.99), "s");
    m.put(
        "beat_yield",
        fig.matched as f64 / fig.truth.max(1) as f64,
        "fraction",
    );
    m.put("recover_ms", median(&mut recover) * 1e3, "ms");
    m.put("analyze_rec_per_s", sustained / 30.0, "recordings/s");
    m.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    eprintln!(
        "{}: {} passes, {} slots timed, {} sessions",
        if lossy {
            "serve-durable-lossy"
        } else {
            "serve-steady"
        },
        pass_no,
        slots.len(),
        p.wire.sessions
    );
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail: String::new(),
    })
}

/// `traced / untraced − 1` for the workload's primary loop, `f`
/// returning its measured seconds: three alternating pairs, with the
/// program's own metrics registry off for the untraced side.
pub fn overhead(mut f: impl FnMut() -> Res<f64>) -> Res<f64> {
    let (mut on, mut off) = (0.0, 0.0);
    for i in 0..6 {
        let traced = i % 2 == 1;
        cardiotouch_obs::set_enabled(traced);
        let s = f()?;
        if traced {
            on += s;
        } else {
            off += s;
        }
    }
    cardiotouch_obs::set_enabled(true);
    Ok(on / off - 1.0)
}

fn counter(name: &str) -> u64 {
    cardiotouch_obs::snapshot().counter(name).unwrap_or(0)
}

/// Every serving-side per-layer metric on a prepared run: the fleet
/// pass of the workload's own mode with push, barrier and seal timed
/// apart, a durable pass crashed right after a seal and again five
/// slots later, and the single-thread layer replays.
fn traced_suite(config: PipelineConfig, p: &Prepared, durable: bool) -> Res<Outcome> {
    let mut m = Metrics::default();
    let sessions = p.wire.sessions;
    let slots = p.wire.slots.len();
    let mut attempted = sessions as u64 + p.wire.frames_sent;
    let mut failed = p.reference_failed as u64;

    // Fleet pass in the workload's mode.
    let shard_beats = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|i| counter(&format!("core.fleet.shard{i}.wire_beats")))
            .collect()
    };
    let before = shard_beats(cores());
    let pass = fleet_pass(config, &p.wire, durable, &[])?;
    let after = shard_beats(cores());
    attempted += sessions as u64;
    failed += layers::mismatches(&pass.results, &p.hub) as u64;
    let per_shard: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let skew = per_shard.iter().copied().fold(0.0, f64::max)
        / per_shard
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
    let sustained = (sessions * slots) as f64 / pass.slot_s.iter().sum::<f64>();
    let hub_sessions = (sessions * slots) as f64 / p.hub_s;
    let (mut push, mut barrier) = (pass.push_s.clone(), pass.barrier_s.clone());
    m.put(
        "core.fleet.push_us_p50",
        quantile(&mut push, 0.5) * 1e6,
        "us",
    );
    m.put(
        "core.fleet.push_us_p99",
        quantile(&mut push, 0.99) * 1e6,
        "us",
    );
    m.put(
        "core.fleet.barrier_us_p50",
        quantile(&mut barrier, 0.5) * 1e6,
        "us",
    );
    m.put(
        "core.fleet.barrier_us_p99",
        quantile(&mut barrier, 0.99) * 1e6,
        "us",
    );

    // Durable pass: seals, the log and store it retains, and recovery
    // with an empty and a five-slot suffix.
    let after_seal = 2 * CHECKPOINT_EVERY - 1;
    let crash_at = [after_seal, CRASH_SLOT.min(slots - 2)];
    // On a non-durable workload this is what the same sessions would
    // cost to checkpoint and recover.
    let dpass = fleet_pass(config, &p.wire, true, &crash_at)?;
    attempted += sessions as u64;
    failed += layers::mismatches(&dpass.results, &p.hub) as u64;
    let mut rec = Vec::new();
    for crash in &dpass.crashes {
        let (s, bad) = recover_and_finish(config, &p.wire, crash, &p.reference, &p.hub, true)?;
        attempted += sessions as u64;
        failed += bad as u64;
        rec.push(s);
    }
    let mut ckpt = dpass.checkpoint_s.clone();
    m.put(
        "core.fleet.checkpoint_ms_p50",
        quantile(&mut ckpt, 0.5) * 1e3,
        "ms",
    );
    m.put(
        "core.fleet.checkpoint_ms_max",
        quantile(&mut ckpt, 1.0) * 1e3,
        "ms",
    );
    m.put("core.fleet.recover_restore_ms", rec[0] * 1e3, "ms");
    m.put(
        "core.fleet.recover_replay_ms",
        (rec[1] - rec[0]) * 1e3,
        "ms",
    );
    m.put("core.fleet.shard_skew", skew, "ratio");
    // The fleet runs one shard per core, so min(shards, cores) = cores.
    m.put(
        "core.fleet.scaling_eff",
        sustained / (hub_sessions * cores() as f64),
        "fraction",
    );
    m.put(
        "ingest.segment.retained_bytes",
        dpass.log_bytes as f64,
        "bytes",
    );
    m.put(
        "ingest.checkpoint.store_bytes",
        dpass.store_bytes as f64,
        "bytes",
    );
    m.put("core.wire.hub_sessions", hub_sessions, "sessions");

    // Single-thread layer replays.
    layers::wire_layers(&p.wire, durable, &mut m);
    layers::state_layers(config, &p.reference, &p.wire, &mut m);

    let suppressed_before = counter("core.stream.beats_suppressed");
    let run = layers::stream_run(config, &p.wire, durable);
    let suppressed = (counter("core.stream.beats_suppressed") - suppressed_before) as f64;
    let emitted: usize = run.results.iter().map(|r| r.beats.len()).sum();
    let stages = layers::hop_stages(config, &p.recs, slots);
    let fig = layers::beat_figures(&run, &p.recs, slots, FS);
    let per_sample = |v: f64| v / run.samples.max(1) as f64;
    let mut push_us = run.push_us.clone();
    m.put("core.stream.push_us_p50", quantile(&mut push_us, 0.5), "us");
    m.put(
        "core.stream.push_us_p99",
        quantile(&mut push_us, 0.99),
        "us",
    );
    m.put(
        "core.stream.ns_per_sample",
        per_sample(run.ingest_ns + run.hop_ns),
        "ns",
    );
    m.put(
        "core.stream.ingest_ns_per_sample",
        per_sample(run.ingest_ns),
        "ns",
    );
    m.put(
        "core.stream.useful_beat_frac",
        fig.physiological as f64 / stages.refined.max(1) as f64,
        "fraction",
    );
    m.put(
        "core.stream.suppressed_frac",
        suppressed / (suppressed + emitted as f64).max(1.0),
        "fraction",
    );
    let st_per = |v: f64| v / stages.samples.max(1) as f64;
    m.put("ecg.online.ns_per_sample", st_per(stages.ecg_online), "ns");
    m.put(
        "dsp.streaming.deriv_ns_per_sample",
        st_per(stages.deriv),
        "ns",
    );
    m.put("dsp.streaming.lp_ns_per_sample", st_per(stages.lp), "ns");
    m.put("dsp.streaming.hp_ns_per_sample", st_per(stages.hp), "ns");
    m.put(
        "dsp.zero_phase.refine_us_per_beat",
        stages.refine / stages.refined.max(1) as f64 / 1e3,
        "us",
    );
    m.put("icg.online.ns_per_sample", st_per(stages.icg_online), "ns");
    m.put(
        "icg.online.us_per_beat",
        stages.icg_online / stages.delineated.max(1) as f64 / 1e3,
        "us",
    );
    // Stage replays and the stream see the same samples; compare per
    // sample so a lossy run's gap fill does not skew the share.
    let hop_per = per_sample(run.hop_ns);
    m.put(
        "core.stream.residual_frac",
        (hop_per - st_per(stages.total())) / hop_per,
        "fraction",
    );
    m.put(
        "dsp.design_cache.misses",
        counter("dsp.design_cache.misses") as f64,
        "count",
    );

    let mut lags: Vec<f64> = fig.lags.iter().map(|&(_, lag)| lag).collect();
    let share = |v: f64| st_per(v) / hop_per;
    let detail = format!(
        "\"beat_lag_signal_s\": {{\"n\": {}, \"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}, \
         \"hop_share\": {{\"ecg.online\": {}, \"dsp.streaming.deriv\": {}, \"dsp.streaming.lp\": {}, \
         \"dsp.streaming.hp\": {}, \"dsp.zero_phase.refine\": {}, \"icg.online\": {}, \"residual\": {}}}, \
         \"hop_ns_per_sample\": {}, \"sessions\": {sessions}, \"slots\": {slots}, \"slot_samples\": {}",
        lags.len(),
        quantile(&mut lags, 0.0),
        quantile(&mut lags, 0.5),
        quantile(&mut lags, 0.99),
        quantile(&mut lags, 1.0),
        share(stages.ecg_online),
        share(stages.deriv),
        share(stages.lp),
        share(stages.hp),
        share(stages.refine),
        share(stages.icg_online),
        1.0 - share(stages.total()),
        hop_per,
        sessions * SLOT,
    );
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail,
    })
}

/// The serving-side per-layer suite on recordings that are not a
/// serving workload's own (batch recordings served as wire sessions).
pub fn traced_suite_for(
    config: PipelineConfig,
    recs: Vec<Recording>,
    slots: usize,
) -> Res<Outcome> {
    let p = prepare(config, recs, slots, None, false)?;
    traced_suite(config, &p, false)
}

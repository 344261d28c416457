//! Crash-recovery conformance: durable checkpoint/restore against the
//! golden corpus.
//!
//! Every corpus case becomes one wire session, multiplexed round-robin
//! into per-slot byte buffers (one frame per live session per slot —
//! the fleet's hop cadence). Two chaos gates per run, both judged
//! bitwise against the uninterrupted golden run:
//!
//! * **Shard crash** — a durable 2-shard [`cardiotouch::fleet::Fleet`]
//!   serves the stream with periodic checkpoints; at a seeded slot a
//!   seeded shard is panicked mid-run. The supervisor must surface
//!   [`cardiotouch::CoreError::ShardDown`] (never hang), the shard is
//!   restarted from the last checkpoint plus an ingest-log suffix
//!   replay, and the drained output of the whole run must be bitwise
//!   identical to the undisturbed reference.
//! * **Crash cut** — a durable [`cardiotouch::wire::WireHub`] runs the
//!   same stream until a seeded slot, then the "process dies": all that
//!   survives are the checkpoint-store bytes and the log segments, each
//!   truncated at a seeded byte offset inside its final append (the
//!   window a real crash can corrupt). Recovery restores the newest
//!   decodable checkpoint, rebuilds the log from its longest valid
//!   prefixes, replays the suffix, then the source **re-feeds the
//!   entire stream at-least-once** — the reassembler's resumed sequence
//!   window drops every already-applied frame, so checkpoint-covered
//!   beats plus recovered emissions reproduce the golden run bitwise.
//!
//! The second gate is exactly the paper-system claim that matters for a
//! monitoring backend: beat-to-beat output is insensitive to *when* the
//! process dies, as long as the durable artifacts respect the
//! lag-by-one compaction invariant (see `cardiotouch_ingest::segment`).

use std::collections::BTreeMap;

use cardiotouch::config::PipelineConfig;
use cardiotouch::fleet::Fleet;
use cardiotouch::stream::QualifiedBeat;
use cardiotouch::wire::{WireHub, WireSessionResult};
use cardiotouch::CoreError;
use cardiotouch_ingest::{
    recover_latest, CheckpointStore, IngestLog, SegmentPolicy, SegmentedLog, SessionEncoder,
};

use crate::corpus::{CorpusCase, RenderedCase};
use crate::replay::WIRE_FRAME_SAMPLES;
use crate::ConformanceError;

/// Seed of the chaos schedule (crash slot, crashed shard, cut offsets).
/// Pinned: the gate is deterministic end to end.
pub const CHAOS_SEED: u64 = 0x5EED_C0DE;

/// Slots between checkpoints on both gates.
pub const CHECKPOINT_EVERY_SLOTS: usize = 7;

/// Crash-cut trials on the second gate (distinct seeded offsets).
pub const CUT_TRIALS: usize = 4;

/// Segment rotation bounds used by both gates — small enough that the
/// corpus run rotates and compacts many times.
const GATE_POLICY: SegmentPolicy = SegmentPolicy {
    max_bytes: 32 * 1024,
    max_frames: 64,
};

/// Deterministic chaos randomness: splitmix64, seeded once per run.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`; `lo` when the range is empty.
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + usize::try_from(self.next() % ((hi - lo) as u64)).expect("range fits usize")
    }
}

/// One crash-cut trial's outcome.
#[derive(Debug, Clone)]
pub struct CutTrialReport {
    /// Bytes kept of the checkpoint store (its full length on trial 0).
    pub store_kept: usize,
    /// Bytes kept of the active log segment (full length on trial 0).
    pub log_kept: usize,
    /// Seal number (zero-based) of the checkpoint recovery fell back
    /// to, found by its watermark.
    pub recovered_checkpoint: u64,
    /// Log-suffix frames replayed before the re-feed.
    pub suffix_frames: u64,
    /// Sessions whose merged output matched the golden run bitwise.
    pub identical_sessions: usize,
}

/// Per-case outcome across both gates.
#[derive(Debug, Clone)]
pub struct RecoveryCaseReport {
    /// Corpus case id (also names the wire session).
    pub id: String,
    /// Wire session number (corpus index).
    pub session: u32,
    /// Whether the case carries a fault scenario.
    pub faulted: bool,
    /// Shard-crash gate: fleet output == golden run, bitwise.
    pub fleet_crash_identical: bool,
    /// Crash-cut gate: every trial's merged output == golden, bitwise.
    pub cut_recovery_identical: bool,
    /// Beats the golden run emitted for this session.
    pub golden_beats: usize,
}

/// Corpus-wide outcome of the crash-recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-case outcomes, corpus order.
    pub cases: Vec<RecoveryCaseReport>,
    /// Slot at which the fleet shard was panicked.
    pub crash_slot: usize,
    /// The shard that was panicked and restarted.
    pub crashed_shard: usize,
    /// Slot at which the crash-cut gate's process "died".
    pub cut_slot: usize,
    /// Checkpoints the crash-cut gate sealed before dying.
    pub checkpoints_sealed: usize,
    /// Segments the durable hub's compaction retired before the crash.
    pub segments_retired: u64,
    /// Per-trial crash-cut outcomes.
    pub cut_trials: Vec<CutTrialReport>,
}

impl RecoveryReport {
    /// Human-readable failures; empty means the gate passes.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cases {
            if !c.fleet_crash_identical {
                out.push(format!(
                    "{}: fleet output diverged after shard crash + restart",
                    c.id
                ));
            }
            if !c.cut_recovery_identical {
                out.push(format!(
                    "{}: crash-cut recovery diverged from the golden run",
                    c.id
                ));
            }
            if c.golden_beats == 0 {
                out.push(format!("{}: golden run emitted no beats", c.id));
            }
        }
        if self.checkpoints_sealed < 2 {
            out.push(
                "crash-cut gate sealed fewer than two checkpoints (lag-by-one untested)".into(),
            );
        }
        if self.segments_retired == 0 {
            out.push("compaction never retired a segment (rotation bounds drift?)".into());
        }
        for (i, t) in self.cut_trials.iter().enumerate() {
            if t.identical_sessions != self.cases.len() {
                out.push(format!(
                    "cut trial {i} (store {} B, log {} B): only {}/{} sessions identical",
                    t.store_kept,
                    t.log_kept,
                    t.identical_sessions,
                    self.cases.len()
                ));
            }
        }
        out
    }
}

/// Renders the corpus, muxes it into per-slot wire buffers, and runs
/// both chaos gates. See the module docs.
///
/// # Errors
///
/// Rendering errors, engine errors, and [`ConformanceError::Format`]
/// when a durable artifact fails to recover — which is itself a
/// conformance failure.
pub fn run_corpus(cases: &[CorpusCase]) -> Result<RecoveryReport, ConformanceError> {
    let rendered: Vec<RenderedCase> = cases
        .iter()
        .map(CorpusCase::render)
        .collect::<Result<_, _>>()?;
    let fs = rendered.first().map_or(250.0, |r| r.fs);
    let config = PipelineConfig::paper_default(fs);
    let mut chaos = Chaos(CHAOS_SEED);

    // ------------------------------------------------------------------
    // Per-slot wire buffers: one frame per live session per slot.
    // ------------------------------------------------------------------
    let mut encoders: Vec<SessionEncoder> = (0..rendered.len())
        .map(|i| SessionEncoder::new(u32::try_from(i).expect("corpus fits u32")))
        .collect();
    let slots = rendered
        .iter()
        .map(|r| r.ecg.len() / WIRE_FRAME_SAMPLES)
        .max()
        .unwrap_or(0);
    let mut slot_bufs: Vec<Vec<u8>> = Vec::with_capacity(slots);
    for slot in 0..slots {
        let mut buf = Vec::new();
        for (r, enc) in rendered.iter().zip(&mut encoders) {
            if slot < r.ecg.len() / WIRE_FRAME_SAMPLES {
                let off = slot * WIRE_FRAME_SAMPLES;
                enc.push_frame(
                    &r.ecg[off..off + WIRE_FRAME_SAMPLES],
                    &r.z[off..off + WIRE_FRAME_SAMPLES],
                    &mut buf,
                )
                .map_err(|e| ConformanceError::Format(format!("wire encode: {e}")))?;
            }
        }
        slot_bufs.push(buf);
    }

    // Golden reference: the uninterrupted single-threaded run.
    let mut golden_hub = WireHub::new(config)?;
    for buf in &slot_bufs {
        golden_hub.push(buf)?;
    }
    let golden = golden_hub.finish();

    // ------------------------------------------------------------------
    // Gate 1: durable fleet, shard panicked at a seeded slot.
    // ------------------------------------------------------------------
    let crash_slot = chaos.pick(slots / 4, (3 * slots) / 4);
    let crashed_shard = chaos.pick(0, 2);
    let mut fleet = Fleet::new(config, 2, 64)?;
    fleet.wire_enable_durable(GATE_POLICY);
    for (slot, buf) in slot_bufs.iter().enumerate() {
        fleet.wire_push(buf);
        if slot == crash_slot {
            fleet.inject_shard_panic(crashed_shard);
            // FIFO puts the panic ahead of the snapshot request below,
            // so the next collective call must refuse with ShardDown —
            // if it hangs instead, the test harness times out, which is
            // the failure mode this gate exists to rule out.
            match fleet.checkpoint() {
                Err(CoreError::ShardDown { shard }) if shard == crashed_shard => {}
                other => {
                    return Err(ConformanceError::Format(format!(
                        "panicked shard {crashed_shard} did not surface ShardDown (got {other:?})"
                    )))
                }
            }
            fleet
                .restart_shard(crashed_shard)
                .map_err(|e| ConformanceError::Format(format!("shard restart: {e}")))?;
        } else if slot % CHECKPOINT_EVERY_SLOTS == CHECKPOINT_EVERY_SLOTS - 1 {
            fleet.checkpoint()?;
        }
    }
    let fleet_results = fleet.shutdown_graceful()?;

    // ------------------------------------------------------------------
    // Gate 2: durable hub, process "dies" at a seeded slot, crash-cut
    // artifacts recovered and the stream re-fed at-least-once.
    // ------------------------------------------------------------------
    let cut_slot = chaos.pick(slots / 2, slots - 1);
    let mut store = CheckpointStore::new();
    let mut live = WireHub::with_durable_log(config, GATE_POLICY)?;
    // Beats drained at each checkpoint, in checkpoint order: the
    // durably-covered output the caller already owns at crash time.
    let mut drains: Vec<BTreeMap<u32, Vec<QualifiedBeat>>> = Vec::new();
    // Each seal's watermark: how a recovered checkpoint is matched to
    // its drains (the store retires old entries, so its entry index is
    // no seal count).
    let mut watermarks = Vec::new();
    for (slot, buf) in slot_bufs[..cut_slot].iter().enumerate() {
        live.push(buf)?;
        if slot % CHECKPOINT_EVERY_SLOTS == CHECKPOINT_EVERY_SLOTS - 1 {
            let (watermark, drained) = live.checkpoint(&mut store)?;
            drains.push(drained.into_iter().collect());
            watermarks.push(watermark);
        }
    }
    let checkpoints_sealed = watermarks.len();
    if checkpoints_sealed < 2 {
        return Err(ConformanceError::Format(
            "cut slot too early: fewer than two checkpoints sealed".into(),
        ));
    }
    let log = live
        .segmented_log()
        .expect("durable hub has a segmented log");
    let segments_retired = log.retired();
    let segment_parts: Vec<(u64, Vec<u8>)> = log
        .segments()
        .map(|s| (s.id(), s.bytes().to_vec()))
        .collect();
    let store_bytes = store.as_bytes().to_vec();
    drop(live);

    // A real crash corrupts only the append in flight: store cuts stay
    // inside the final checkpoint entry (lag-by-one keeps the previous
    // one replayable), log cuts anywhere inside the active segment
    // past its header.
    let header_len = IngestLog::new().as_bytes().len();
    let last_entry_start = store
        .newest_entry_start()
        .expect("two checkpoints were sealed");
    let active_len = segment_parts.last().map_or(0, |(_, b)| b.len());
    let mut cut_trials = Vec::with_capacity(CUT_TRIALS);
    let mut cut_identical = vec![true; golden.len()];
    for trial in 0..CUT_TRIALS {
        let (store_kept, log_kept) = if trial == 0 {
            // Trial 0: clean shutdown-shaped artifacts (no cut at all).
            (store_bytes.len(), active_len)
        } else {
            (
                chaos.pick(last_entry_start + 1, store_bytes.len() + 1),
                chaos.pick(header_len + 1, active_len + 1),
            )
        };
        let recovered = recover_latest(&store_bytes[..store_kept])
            .map_err(|e| ConformanceError::Format(format!("store recovery: {e}")))?
            .ok_or_else(|| {
                ConformanceError::Format("no checkpoint survived a tail-window cut".into())
            })?;
        let mut parts = segment_parts.clone();
        if let Some(last) = parts.last_mut() {
            last.1.truncate(log_kept);
        }
        let cut_log = SegmentedLog::from_segments(GATE_POLICY, &parts)
            .map_err(|e| ConformanceError::Format(format!("log recovery: {e}")))?;
        let suffix_frames = cut_log
            .replay_from(&recovered.checkpoint.watermark, |_| {})
            .map(|r| r.frames)
            .unwrap_or(0);
        let covered = watermarks
            .iter()
            .rposition(|w| *w == recovered.checkpoint.watermark)
            .ok_or_else(|| {
                ConformanceError::Format("recovered checkpoint matches no sealed watermark".into())
            })?;
        let mut hub = WireHub::recover(config, &recovered.checkpoint, cut_log)?;
        // At-least-once re-feed: the source resends the whole stream,
        // crash-lost tail included, then serving continues to the end.
        // The resumed reassembly window stale-drops every frame the
        // recovered state already covers.
        for buf in &slot_bufs {
            hub.push(buf)?;
        }
        let recovered_results = hub.finish();

        let mut identical_sessions = 0;
        for (i, want) in golden.iter().enumerate() {
            let mut beats: Vec<QualifiedBeat> = Vec::new();
            for d in &drains[..=covered] {
                if let Some(b) = d.get(&want.session) {
                    beats.extend(b.iter().cloned());
                }
            }
            let tail = recovered_results.iter().find(|r| r.session == want.session);
            let ok = tail.is_some_and(|tail| {
                let mut merged_beats = beats;
                merged_beats.extend(tail.beats.iter().cloned());
                let merged = WireSessionResult {
                    session: want.session,
                    beats: merged_beats,
                    snapshot_bytes: tail.snapshot_bytes.clone(),
                    states: tail.states,
                };
                merged.bitwise_eq(want)
            });
            if ok {
                identical_sessions += 1;
            } else {
                cut_identical[i] = false;
            }
        }
        cut_trials.push(CutTrialReport {
            store_kept,
            log_kept,
            recovered_checkpoint: covered as u64,
            suffix_frames,
            identical_sessions,
        });
    }

    // ------------------------------------------------------------------
    // Per-case verdicts.
    // ------------------------------------------------------------------
    let mut case_reports = Vec::new();
    for (i, r) in rendered.iter().enumerate() {
        let session = u32::try_from(i).expect("corpus fits u32");
        let want = &golden[i];
        let fleet_ok = fleet_results
            .iter()
            .find(|f| f.session == session)
            .is_some_and(|f| f.bitwise_eq(want));
        case_reports.push(RecoveryCaseReport {
            id: r.id.clone(),
            session,
            faulted: r.faults.is_some(),
            fleet_crash_identical: fleet_ok,
            cut_recovery_identical: cut_identical[i],
            golden_beats: want.beats.len(),
        });
    }

    Ok(RecoveryReport {
        cases: case_reports,
        crash_slot,
        crashed_shard,
        cut_slot,
        checkpoints_sealed,
        segments_retired,
        cut_trials,
    })
}

//! Replay-equivalence conformance: the wire-serving front door against
//! the golden corpus.
//!
//! Every corpus case becomes one wire session; all 13 are multiplexed
//! round-robin into a single encoded byte stream, the way `serve-sim
//! --wire` drives the fleet. Two legs per run:
//!
//! * **Clean wire** — the lossless stream through a
//!   [`cardiotouch::wire::WireHub`] must reproduce, bitwise, what the
//!   in-memory vector path (direct [`BeatStream::push_qualified`] of
//!   the same chunks) emits: beats, qualified states, final snapshot
//!   bytes. This is the "the wire adds nothing" proof.
//! * **Lossy replay** — the same frames through a seeded
//!   [`LossyWire`] (drops + bit corruption), decoded live with the
//!   append-only ingest log enabled; then the log is read back and fed
//!   through a fresh hub. Live and replayed runs must match bitwise on
//!   every session — the "the log is sufficient to reproduce the run"
//!   proof, faults included. The clean leg's log is replayed too.
//!
//! Determinism hinges on the log capturing frames at the acceptance
//! point (decoder-validated, pre-reassembly): replay pushes the exact
//! accepted-frame sequence through the exact reassembly policy.

use cardiotouch::config::PipelineConfig;
use cardiotouch::stream::BeatStream;
use cardiotouch::wire::{WireHub, WireSessionResult};
use cardiotouch_ingest::{LogReader, LossyWire, SessionEncoder, WireDecoder};

use crate::corpus::{CorpusCase, RenderedCase};
use crate::ConformanceError;

/// Samples per wire frame (0.5 s at the paper's 250 Hz).
pub const WIRE_FRAME_SAMPLES: usize = 125;

/// Seed of the lossy leg's fault sequence (pinned; part of the
/// conformance contract).
pub const WIRE_FAULT_SEED: u64 = 0xC71C;

/// Frame drop probability on the lossy leg.
pub const WIRE_DROP_PROB: f64 = 0.05;

/// Per-frame bit-corruption probability on the lossy leg.
pub const WIRE_CORRUPT_PROB: f64 = 0.05;

/// Per-case outcome of the replay-equivalence run.
#[derive(Debug, Clone)]
pub struct ReplayCaseReport {
    /// Corpus case id (also names the wire session).
    pub id: String,
    /// Wire session number (corpus index).
    pub session: u32,
    /// Whether the case carries a fault scenario.
    pub faulted: bool,
    /// Clean wire == in-memory vector path, bitwise.
    pub clean_wire_identical: bool,
    /// Clean log replay == clean live run, bitwise.
    pub clean_replay_identical: bool,
    /// Lossy log replay == lossy live run, bitwise.
    pub lossy_replay_identical: bool,
    /// Beats the clean-wire session emitted.
    pub clean_beats: usize,
    /// Beats the lossy live session emitted.
    pub lossy_beats: usize,
}

/// Corpus-wide outcome of the replay-equivalence run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-case outcomes, corpus order.
    pub cases: Vec<ReplayCaseReport>,
    /// Frames encoded onto the clean wire.
    pub frames_sent: u64,
    /// Frames the lossy link dropped outright.
    pub wire_dropped: u64,
    /// Frames the lossy link delivered corrupted.
    pub wire_corrupted: u64,
    /// Resync episodes the live lossy decoder logged.
    pub lossy_resyncs: u64,
    /// Serialized size of the lossy ingest log, bytes.
    pub lossy_log_bytes: usize,
}

impl ReplayReport {
    /// Human-readable failures; empty means the gate passes.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cases {
            if !c.clean_wire_identical {
                out.push(format!(
                    "{}: clean wire diverged from the in-memory path",
                    c.id
                ));
            }
            if !c.clean_replay_identical {
                out.push(format!(
                    "{}: clean log replay diverged from the live run",
                    c.id
                ));
            }
            if !c.lossy_replay_identical {
                out.push(format!(
                    "{}: lossy log replay diverged from the live run",
                    c.id
                ));
            }
            if c.clean_beats == 0 {
                out.push(format!("{}: clean wire emitted no beats", c.id));
            }
        }
        if self.wire_dropped == 0 && self.wire_corrupted == 0 {
            out.push("lossy leg exercised no wire faults (seed/probability drift?)".into());
        }
        out
    }
}

/// Renders the corpus, muxes it onto the wire, and runs both
/// equivalence legs. See the module docs.
///
/// # Errors
///
/// Rendering errors, engine errors, and
/// [`ConformanceError::Format`] when the lossy ingest log fails to
/// read back (which would itself be a conformance failure).
pub fn run_corpus(cases: &[CorpusCase]) -> Result<ReplayReport, ConformanceError> {
    let rendered: Vec<RenderedCase> = cases
        .iter()
        .map(CorpusCase::render)
        .collect::<Result<_, _>>()?;
    let fs = rendered.first().map_or(250.0, |r| r.fs);
    let config = PipelineConfig::paper_default(fs);

    // ------------------------------------------------------------------
    // Reference: the in-memory vector path, same chunk schedule as the
    // wire encoder (chunk invariance makes the schedule immaterial, but
    // matching it keeps this a pure wire-vs-memory comparison).
    // ------------------------------------------------------------------
    let mut reference = Vec::new();
    for (i, r) in rendered.iter().enumerate() {
        let mut stream = BeatStream::new(config)?;
        let mut beats = Vec::new();
        for chunk in 0..r.ecg.len() / WIRE_FRAME_SAMPLES {
            let off = chunk * WIRE_FRAME_SAMPLES;
            beats.extend(stream.push_qualified(
                &r.ecg[off..off + WIRE_FRAME_SAMPLES],
                &r.z[off..off + WIRE_FRAME_SAMPLES],
            )?);
        }
        reference.push(WireSessionResult {
            session: u32::try_from(i).expect("corpus fits u32"),
            snapshot_bytes: stream.snapshot().into_bytes(),
            states: stream.channel_states(),
            beats,
        });
    }

    // ------------------------------------------------------------------
    // Encode the multiplexed clean wire: round-robin across sessions,
    // one frame per session per time slot.
    // ------------------------------------------------------------------
    let mut encoders: Vec<SessionEncoder> = (0..rendered.len())
        .map(|i| SessionEncoder::new(u32::try_from(i).expect("corpus fits u32")))
        .collect();
    let slots = rendered
        .iter()
        .map(|r| r.ecg.len() / WIRE_FRAME_SAMPLES)
        .max()
        .unwrap_or(0);
    let mut clean_wire = Vec::new();
    let mut frames_sent = 0u64;
    for slot in 0..slots {
        for (r, enc) in rendered.iter().zip(&mut encoders) {
            if slot < r.ecg.len() / WIRE_FRAME_SAMPLES {
                let off = slot * WIRE_FRAME_SAMPLES;
                enc.push_frame(
                    &r.ecg[off..off + WIRE_FRAME_SAMPLES],
                    &r.z[off..off + WIRE_FRAME_SAMPLES],
                    &mut clean_wire,
                )
                .map_err(|e| ConformanceError::Format(format!("wire encode: {e}")))?;
                frames_sent += 1;
            }
        }
    }

    // Clean live run, log enabled.
    let mut clean_hub = WireHub::with_log(config)?;
    clean_hub.push(&clean_wire)?;
    let clean_log = clean_hub
        .log_bytes()
        .expect("logging hub has a log")
        .to_vec();
    let clean_live = clean_hub.finish();

    // Clean log replayed through a fresh hub.
    let clean_replay = replay_log(&clean_log, config)?;

    // ------------------------------------------------------------------
    // Lossy leg: the same frames through the seeded fault link.
    // ------------------------------------------------------------------
    let mut link = LossyWire::new(WIRE_FAULT_SEED, WIRE_DROP_PROB, WIRE_CORRUPT_PROB);
    let mut lossy_wire = Vec::new();
    {
        let mut splitter = WireDecoder::new();
        splitter.push(&clean_wire, |frame| {
            link.transmit(frame.as_bytes(), &mut lossy_wire);
        });
    }
    let mut lossy_hub = WireHub::with_log(config)?;
    // Uneven chunking exercises the decoder's carry path on the live
    // side; replay pushes frame-at-a-time. Bitwise equality across the
    // two chunkings is part of what this leg proves.
    for chunk in lossy_wire.chunks(997) {
        lossy_hub.push(chunk)?;
    }
    let lossy_resyncs = lossy_hub.door().decode_stats().resyncs;
    let lossy_log = lossy_hub
        .log_bytes()
        .expect("logging hub has a log")
        .to_vec();
    let lossy_live = lossy_hub.finish();
    let lossy_replay = replay_log(&lossy_log, config)?;

    // ------------------------------------------------------------------
    // Per-case verdicts.
    // ------------------------------------------------------------------
    let find = |results: &[WireSessionResult], session: u32| -> Option<WireSessionResult> {
        results.iter().find(|r| r.session == session).cloned()
    };
    let mut case_reports = Vec::new();
    for (i, r) in rendered.iter().enumerate() {
        let session = u32::try_from(i).expect("corpus fits u32");
        let want = &reference[i];
        let clean = find(&clean_live, session);
        let clean_re = find(&clean_replay, session);
        let lossy = find(&lossy_live, session);
        let lossy_re = find(&lossy_replay, session);
        case_reports.push(ReplayCaseReport {
            id: r.id.clone(),
            session,
            faulted: r.faults.is_some(),
            clean_wire_identical: clean.as_ref().is_some_and(|c| c.bitwise_eq(want)),
            clean_replay_identical: match (&clean, &clean_re) {
                (Some(a), Some(b)) => a.bitwise_eq(b),
                _ => false,
            },
            lossy_replay_identical: match (&lossy, &lossy_re) {
                (Some(a), Some(b)) => a.bitwise_eq(b),
                // A session absent from both runs (every frame lost)
                // still replays identically.
                (None, None) => true,
                _ => false,
            },
            clean_beats: clean.as_ref().map_or(0, |c| c.beats.len()),
            lossy_beats: lossy.as_ref().map_or(0, |c| c.beats.len()),
        });
    }

    Ok(ReplayReport {
        cases: case_reports,
        frames_sent,
        wire_dropped: link.dropped(),
        wire_corrupted: link.corrupted(),
        lossy_resyncs,
        lossy_log_bytes: lossy_log.len(),
    })
}

/// Reads an ingest log back and feeds every frame through a fresh hub —
/// the deterministic-replay half of both legs.
fn replay_log(
    log: &[u8],
    config: PipelineConfig,
) -> Result<Vec<WireSessionResult>, ConformanceError> {
    let mut reader =
        LogReader::new(log).map_err(|e| ConformanceError::Format(format!("ingest log: {e}")))?;
    let mut hub = WireHub::new(config)?;
    while let Some(frame) = reader.next_frame() {
        hub.push(frame)?;
    }
    if let Some(e) = reader.error() {
        return Err(ConformanceError::Format(format!(
            "ingest log readback stopped early: {e}"
        )));
    }
    Ok(hub.finish())
}

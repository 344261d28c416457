//! Wire-serving front door: decoded device frames in, per-session
//! qualified beats out.
//!
//! [`FrontDoor`] composes the `cardiotouch_ingest` stack — streaming
//! frame decoder, optional append-only ingest log, per-session
//! reassembler — and publishes the `ingest.*` counters. Frames are
//! logged at the **acceptance point** (after the decoder validates the
//! CRC, before reassembly), so replaying the log pushes the identical
//! frame sequence through the identical reassembly policy and the run
//! reproduces bitwise.
//!
//! [`WireHub`] adds the session layer: one [`BeatStream`] per wire
//! session, fed through [`BeatStream::push_qualified`]. Because the
//! stream engine is chunk-invariant, a lossless wire delivers exactly
//! the sample stream the in-memory vector path would have pushed — the
//! emitted beats are bit-identical. Wire loss surfaces as NaN runs
//! (courtesy of the reassembler's gap fill) and is handled by the same
//! signal-degradation ladder that covers electrode contact loss.
//!
//! The sharded serving path lives in [`crate::fleet`]: the fleet control
//! thread runs a [`FrontDoor`] and forwards reassembled sample runs into
//! shard mailboxes ([`crate::fleet::Fleet::wire_push`]).
//!
//! # Counters
//!
//! `ingest.frames`, `ingest.bytes` — CRC-valid frames/bytes accepted;
//! `ingest.resyncs` — corruption episodes the decoder skipped past;
//! `ingest.reordered` — frames parked by the out-of-order window;
//! `ingest.dropped` — frames lost (gap members, stale duplicates, and —
//! on the fleet path — admission-backpressure sheds);
//! `ingest.log_appended` — frames persisted to the ingest log.

use std::collections::BTreeMap;

use cardiotouch_ingest::{
    Assembler, AssemblyStats, Checkpoint, CheckpointStore, DecodeStats, IngestLog, LogError,
    LogPosition, SegmentPolicy, SegmentedLog, SessionCheckpoint, SessionResume, SuffixReplay,
    WireDecoder,
};

use crate::config::PipelineConfig;
use crate::snapshot::BeatStreamSnapshot;
use crate::stream::{BeatStream, QualifiedBeat, SignalState};
use crate::CoreError;

/// Obs handles for the `ingest.*` counter family, shared by every
/// front-door instance (the registry deduplicates by name).
#[derive(Debug)]
struct IngestCounters {
    frames: cardiotouch_obs::Counter,
    bytes: cardiotouch_obs::Counter,
    resyncs: cardiotouch_obs::Counter,
    reordered: cardiotouch_obs::Counter,
    dropped: cardiotouch_obs::Counter,
    log_appended: cardiotouch_obs::Counter,
}

impl IngestCounters {
    fn new() -> Self {
        Self {
            frames: cardiotouch_obs::counter("ingest.frames"),
            bytes: cardiotouch_obs::counter("ingest.bytes"),
            resyncs: cardiotouch_obs::counter("ingest.resyncs"),
            reordered: cardiotouch_obs::counter("ingest.reordered"),
            dropped: cardiotouch_obs::counter("ingest.dropped"),
            log_appended: cardiotouch_obs::counter("ingest.log_appended"),
        }
    }
}

/// Running totals already flushed to the registry, so each flush only
/// adds the delta.
#[derive(Debug, Default, Clone, Copy)]
struct FlushedTotals {
    frames: u64,
    bytes: u64,
    resyncs: u64,
    reordered: u64,
    dropped: u64,
    appended: u64,
}

/// Where a front door persists accepted frames.
#[derive(Debug)]
enum LogSink {
    /// One unbounded CRC-chained log — replay legs and tests.
    Flat(IngestLog),
    /// Rotating, compactable segments — durable serving.
    Segmented(SegmentedLog),
}

impl LogSink {
    fn append(&mut self, frame: &[u8]) {
        match self {
            LogSink::Flat(log) => log.append(frame),
            LogSink::Segmented(log) => log.append(frame),
        }
    }

    fn frames(&self) -> u64 {
        match self {
            LogSink::Flat(log) => log.frames(),
            LogSink::Segmented(log) => log.frames(),
        }
    }
}

/// Decoder + optional ingest log + reassembler, with `ingest.*`
/// counter publication. The transport-facing half of wire serving —
/// everything below the session layer.
#[derive(Debug)]
pub struct FrontDoor {
    decoder: WireDecoder,
    assembler: Assembler,
    log: Option<LogSink>,
    counters: IngestCounters,
    flushed: FlushedTotals,
}

impl Default for FrontDoor {
    fn default() -> Self {
        Self::new()
    }
}

impl FrontDoor {
    /// Creates a front door without an ingest log.
    #[must_use]
    pub fn new() -> Self {
        Self {
            decoder: WireDecoder::new(),
            assembler: Assembler::new(),
            log: None,
            counters: IngestCounters::new(),
            flushed: FlushedTotals::default(),
        }
    }

    /// Creates a front door that appends every accepted frame to an
    /// in-memory ingest log before dispatch.
    #[must_use]
    pub fn with_log() -> Self {
        let mut door = Self::new();
        door.log = Some(LogSink::Flat(IngestLog::new()));
        door
    }

    /// Creates a front door that logs into size/entry-bounded segments,
    /// the precondition for checkpointing and compaction.
    #[must_use]
    pub fn with_segmented_log(policy: SegmentPolicy) -> Self {
        let mut door = Self::new();
        door.log = Some(LogSink::Segmented(SegmentedLog::new(policy)));
        door
    }

    /// Installs an existing segmented log (recovery continues the log
    /// it crashed with), replacing any current sink.
    pub fn install_segmented_log(&mut self, log: SegmentedLog) {
        self.flushed.appended = log.frames();
        self.log = Some(LogSink::Segmented(log));
    }

    /// Pushes a chunk of wire bytes. `sink(session, ecg, z)` fires once
    /// per reassembled sample run, in deterministic arrival order.
    pub fn push<F>(&mut self, chunk: &[u8], mut sink: F)
    where
        F: FnMut(u32, &[f64], &[f64]),
    {
        let Self {
            decoder,
            assembler,
            log,
            ..
        } = self;
        decoder.push(chunk, |frame| {
            if let Some(log) = log.as_mut() {
                log.append(frame.as_bytes());
            }
            assembler.accept(&frame, &mut sink);
        });
        self.flush_counters();
    }

    /// Replays the installed segmented log from `from` through decode +
    /// reassembly *without* re-appending any frame — the suffix-replay
    /// half of crash recovery, where every frame is in the log by
    /// definition. Each logged frame goes straight from the log into
    /// the decoder; nothing is copied. `sink` fires as in
    /// [`FrontDoor::push`].
    ///
    /// # Errors
    ///
    /// Whatever [`SegmentedLog::replay_from`] returns, or
    /// [`LogError::MissingSegment`] when no segmented log is installed.
    /// Frames before a violation have already reached `sink`.
    pub fn replay_log<F>(
        &mut self,
        from: &LogPosition,
        mut sink: F,
    ) -> Result<SuffixReplay, LogError>
    where
        F: FnMut(u32, &[f64], &[f64]),
    {
        let Self {
            decoder,
            assembler,
            log,
            ..
        } = self;
        let Some(LogSink::Segmented(log)) = log.as_ref() else {
            return Err(LogError::MissingSegment {
                segment: from.segment,
            });
        };
        let replay = log.replay_from(from, |frame| {
            decoder.push(frame, |f| assembler.accept(&f, &mut sink));
        })?;
        self.flush_counters();
        Ok(replay)
    }

    /// Adds everything accumulated since the last flush to the
    /// `ingest.*` registry counters.
    fn flush_counters(&mut self) {
        let d = self.decoder.stats();
        let a = self.assembler.stats();
        let appended = self.log.as_ref().map_or(0, LogSink::frames);
        self.counters.frames.add(d.frames - self.flushed.frames);
        self.counters.bytes.add(d.bytes - self.flushed.bytes);
        self.counters.resyncs.add(d.resyncs - self.flushed.resyncs);
        self.counters
            .reordered
            .add(a.reordered - self.flushed.reordered);
        self.counters.dropped.add(a.dropped - self.flushed.dropped);
        self.counters
            .log_appended
            .add(appended - self.flushed.appended);
        self.flushed = FlushedTotals {
            frames: d.frames,
            bytes: d.bytes,
            resyncs: d.resyncs,
            reordered: a.reordered,
            dropped: a.dropped,
            appended,
        };
    }

    /// Counts `n` frames shed above the reassembler (fleet admission
    /// backpressure) into `ingest.dropped`.
    pub(crate) fn count_shed(&mut self, n: u64) {
        self.counters.dropped.add(n);
    }

    /// Decoder totals.
    #[must_use]
    pub fn decode_stats(&self) -> DecodeStats {
        self.decoder.stats()
    }

    /// Reassembly totals.
    #[must_use]
    pub fn assembly_stats(&self) -> AssemblyStats {
        self.assembler.stats()
    }

    /// The serialized flat ingest log, when flat logging is enabled
    /// (`None` for segmented sinks — use [`FrontDoor::segmented_log`]).
    #[must_use]
    pub fn log_bytes(&self) -> Option<&[u8]> {
        match &self.log {
            Some(LogSink::Flat(log)) => Some(log.as_bytes()),
            _ => None,
        }
    }

    /// The segmented log, when segmented logging is enabled.
    #[must_use]
    pub fn segmented_log(&self) -> Option<&SegmentedLog> {
        match &self.log {
            Some(LogSink::Segmented(log)) => Some(log),
            _ => None,
        }
    }

    /// Mutable segmented-log access (compaction).
    pub fn segmented_log_mut(&mut self) -> Option<&mut SegmentedLog> {
        match &mut self.log {
            Some(LogSink::Segmented(log)) => Some(log),
            _ => None,
        }
    }

    /// The segmented log's current end — what a checkpoint records as
    /// its watermark. `None` without a segmented sink.
    #[must_use]
    pub fn log_position(&self) -> Option<LogPosition> {
        self.segmented_log().map(SegmentedLog::position)
    }

    /// Every reassembly session's resume state, ordered by session id —
    /// the transport half of a checkpoint.
    #[must_use]
    pub fn export_sessions(&self) -> Vec<(u32, SessionResume)> {
        self.assembler.export_sessions()
    }

    /// Restores one session's reassembly state (recovery).
    pub fn resume_session(&mut self, session: u32, state: &SessionResume) {
        self.assembler.resume_session(session, state);
    }

    /// Combined capacity of the decoder carry buffer and reassembler
    /// scratch — stable across pushes in steady state (the bench's
    /// alloc-free assertion).
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.decoder.buffer_capacity() + self.assembler.scratch_capacity()
    }
}

/// Everything one wire session produced: the replay-equivalence unit of
/// comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSessionResult {
    /// Wire session identifier.
    pub session: u32,
    /// Every qualified beat the session emitted, in order.
    pub beats: Vec<QualifiedBeat>,
    /// Final engine state through the serialized snapshot codec.
    pub snapshot_bytes: Vec<u8>,
    /// Final degradation-ladder states `(ecg, z)`.
    pub states: (SignalState, SignalState),
}

impl WireSessionResult {
    /// `true` when `other` is bitwise-identical: same beats (every
    /// float compared by bit pattern), same final snapshot bytes, same
    /// ladder states.
    #[must_use]
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        fn beat_bits(q: &QualifiedBeat) -> [u64; 8] {
            [
                q.report.pep_s.to_bits(),
                q.report.lvet_s.to_bits(),
                q.report.hr_bpm.to_bits(),
                q.report.dzdt_max.to_bits(),
                q.report.sv_kubicek_ml.to_bits(),
                q.report.sv_sramek_ml.to_bits(),
                q.report.co_l_per_min.to_bits(),
                q.sqi.map_or(u64::MAX, f64::to_bits),
            ]
        }
        self.session == other.session
            && self.states == other.states
            && self.snapshot_bytes == other.snapshot_bytes
            && self.beats.len() == other.beats.len()
            && self.beats.iter().zip(&other.beats).all(|(a, b)| {
                (a.report.r, a.report.b, a.report.c, a.report.x)
                    == (b.report.r, b.report.b, b.report.c, b.report.x)
                    && a.report.physiological == b.report.physiological
                    && a.state == b.state
                    && a.sqi.is_some() == b.sqi.is_some()
                    && beat_bits(a) == beat_bits(b)
            })
    }
}

struct WireSession {
    stream: BeatStream,
    beats: Vec<QualifiedBeat>,
}

/// Per-session beats drained at a checkpoint — durably covered, so the
/// caller owns them from that point on.
pub type DrainedBeats = Vec<(u32, Vec<QualifiedBeat>)>;

/// Single-threaded wire serving: a [`FrontDoor`] feeding one
/// [`BeatStream`] per session. Used by the conformance replay leg and
/// as the reference for the fleet wire path; sessions auto-admit on
/// their first frame.
pub struct WireHub {
    door: FrontDoor,
    config: PipelineConfig,
    sessions: BTreeMap<u32, WireSession>,
    deferred: Option<CoreError>,
    /// Watermark of the last sealed checkpoint: the compaction target
    /// when the *next* one is sealed (lag-by-one, see
    /// `cardiotouch_ingest::segment`).
    last_watermark: Option<LogPosition>,
}

impl std::fmt::Debug for WireHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireHub")
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl WireHub {
    /// Creates a hub without an ingest log.
    ///
    /// # Errors
    ///
    /// Engine-construction errors for an invalid `config` (probed up
    /// front so session auto-admission is infallible).
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        Self::build(config, FrontDoor::new())
    }

    /// Creates a hub that logs every accepted frame for replay.
    ///
    /// # Errors
    ///
    /// Same surface as [`WireHub::new`].
    pub fn with_log(config: PipelineConfig) -> Result<Self, CoreError> {
        Self::build(config, FrontDoor::with_log())
    }

    /// Creates a hub with a segmented (rotating, compactable) ingest
    /// log — the precondition for [`WireHub::checkpoint`].
    ///
    /// # Errors
    ///
    /// Same surface as [`WireHub::new`].
    pub fn with_durable_log(
        config: PipelineConfig,
        policy: SegmentPolicy,
    ) -> Result<Self, CoreError> {
        Self::build(config, FrontDoor::with_segmented_log(policy))
    }

    fn build(config: PipelineConfig, door: FrontDoor) -> Result<Self, CoreError> {
        drop(BeatStream::new(config)?);
        Ok(Self {
            door,
            config,
            sessions: BTreeMap::new(),
            deferred: None,
            last_watermark: None,
        })
    }

    /// Pushes a chunk of wire bytes through decode, log, reassembly and
    /// every touched session's stream engine.
    ///
    /// # Errors
    ///
    /// Engine errors from [`BeatStream::push_qualified`] — none occur
    /// on reassembler output (equal-length channels by construction),
    /// but a failure would be reported here rather than swallowed.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), CoreError> {
        let config = self.config;
        let sessions = &mut self.sessions;
        let deferred = &mut self.deferred;
        self.door.push(chunk, |session, ecg, z| {
            if deferred.is_some() {
                return;
            }
            let slot = sessions.entry(session).or_insert_with(|| WireSession {
                stream: BeatStream::new(config).expect("config probed at construction"),
                beats: Vec::new(),
            });
            match slot.stream.push_qualified(ecg, z) {
                Ok(mut beats) => slot.beats.append(&mut beats),
                Err(e) => *deferred = Some(e),
            }
        });
        match self.deferred.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Sessions seen so far.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The transport-level front door (stats, log bytes).
    #[must_use]
    pub fn door(&self) -> &FrontDoor {
        &self.door
    }

    /// Consumes the hub, returning every session's beats, final
    /// snapshot and ladder states, ordered by session id.
    #[must_use]
    pub fn finish(self) -> Vec<WireSessionResult> {
        self.sessions
            .into_iter()
            .map(|(session, slot)| WireSessionResult {
                session,
                snapshot_bytes: slot.stream.snapshot().into_bytes(),
                states: slot.stream.channel_states(),
                beats: slot.beats,
            })
            .collect()
    }

    /// The serialized ingest log, when logging is enabled.
    #[must_use]
    pub fn log_bytes(&self) -> Option<&[u8]> {
        self.door.log_bytes()
    }

    /// Seals one checkpoint: appends every session's reassembly state
    /// and engine snapshot at the current log watermark to `store`,
    /// compacts the log to the *previous* checkpoint's watermark
    /// (lag-by-one: a crash mid-append falls back one checkpoint, whose
    /// suffix must still be on disk), retires the store entries older
    /// than that checkpoint, and drains the beats emitted
    /// since the last checkpoint — they are durably covered now, so the
    /// caller owns them.
    ///
    /// # Errors
    ///
    /// [`CoreError::RecoveryFailed`] when the hub has no segmented log.
    pub fn checkpoint(
        &mut self,
        store: &mut CheckpointStore,
    ) -> Result<(LogPosition, DrainedBeats), CoreError> {
        let watermark = self
            .door
            .log_position()
            .ok_or_else(|| CoreError::RecoveryFailed {
                reason: "checkpointing requires a segmented ingest log".into(),
            })?;
        let sessions = self
            .door
            .export_sessions()
            .into_iter()
            .map(|(session, resume)| SessionCheckpoint {
                session,
                resume,
                snapshot: self
                    .sessions
                    .get(&session)
                    .map_or_else(Vec::new, |s| s.stream.snapshot().into_bytes()),
            })
            .collect();
        store.append(&Checkpoint {
            watermark,
            sessions,
        });
        if let Some(prev) = self.last_watermark {
            if let Some(log) = self.door.segmented_log_mut() {
                log.compact(&prev);
            }
            store.retire_stale();
        }
        self.last_watermark = Some(watermark);
        let drained = self
            .sessions
            .iter_mut()
            .map(|(&session, slot)| (session, std::mem::take(&mut slot.beats)))
            .filter(|(_, beats)| !beats.is_empty())
            .collect();
        Ok((watermark, drained))
    }

    /// Rebuilds a hub from a recovered checkpoint and the (possibly
    /// crash-cut) segmented log it watermarks: restores every session's
    /// engine snapshot and reassembly window, takes ownership of the
    /// log, then replays the suffix past the watermark straight from
    /// the log. Beats the replay re-emits accumulate in the sessions
    /// exactly as the uninterrupted run would have emitted them after
    /// the checkpoint.
    ///
    /// # Errors
    ///
    /// [`CoreError::RecoveryFailed`] for a watermark below the oldest
    /// retained segment (checked before anything is restored), an
    /// unusable snapshot, or a suffix that fails validation (a
    /// watermark chain CRC that does not match the log, corruption).
    pub fn recover(
        config: PipelineConfig,
        checkpoint: &Checkpoint,
        log: SegmentedLog,
    ) -> Result<Self, CoreError> {
        log.check_retained(&checkpoint.watermark)
            .map_err(suffix_replay_failed)?;
        let mut hub = Self::build(config, FrontDoor::new())?;
        hub.door.install_segmented_log(log);
        for sc in &checkpoint.sessions {
            hub.door.resume_session(sc.session, &sc.resume);
            let stream = if sc.snapshot.is_empty() {
                BeatStream::new(config).expect("config probed at construction")
            } else {
                let snap = BeatStreamSnapshot::from_bytes(&sc.snapshot).map_err(|e| {
                    CoreError::RecoveryFailed {
                        reason: format!("session {} snapshot: {e}", sc.session),
                    }
                })?;
                BeatStream::restore(config, &snap).map_err(|e| CoreError::RecoveryFailed {
                    reason: format!("session {} restore: {e}", sc.session),
                })?
            };
            hub.sessions.insert(
                sc.session,
                WireSession {
                    stream,
                    beats: Vec::new(),
                },
            );
        }
        let config = hub.config;
        let sessions = &mut hub.sessions;
        let deferred = &mut hub.deferred;
        hub.door
            .replay_log(&checkpoint.watermark, |session, ecg, z| {
                if deferred.is_some() {
                    return;
                }
                let slot = sessions.entry(session).or_insert_with(|| WireSession {
                    stream: BeatStream::new(config).expect("config probed at construction"),
                    beats: Vec::new(),
                });
                match slot.stream.push_qualified(ecg, z) {
                    Ok(mut beats) => slot.beats.append(&mut beats),
                    Err(e) => *deferred = Some(e),
                }
            })
            .map_err(suffix_replay_failed)?;
        if let Some(e) = hub.deferred.take() {
            return Err(e);
        }
        hub.last_watermark = Some(checkpoint.watermark);
        Ok(hub)
    }

    /// The segmented log, when durable logging is enabled.
    #[must_use]
    pub fn segmented_log(&self) -> Option<&SegmentedLog> {
        self.door.segmented_log()
    }
}

/// The recovery error for an ingest-log suffix that cannot be replayed.
pub(crate) fn suffix_replay_failed(e: LogError) -> CoreError {
    CoreError::RecoveryFailed {
        reason: format!("suffix replay: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_ingest::{LogReader, LossyWire, SessionEncoder};
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    fn recording() -> (Vec<f64>, Vec<f64>) {
        static CACHE: std::sync::OnceLock<(Vec<f64>, Vec<f64>)> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| {
                let population = Population::reference_five();
                let rec = PairedRecording::generate(
                    &population.subjects()[0],
                    Position::One,
                    50_000.0,
                    &Protocol::paper_default(),
                    23,
                )
                .unwrap();
                (rec.device_ecg().to_vec(), rec.device_z().to_vec())
            })
            .clone()
    }

    /// Encodes `sessions` offset copies of the recording, round-robin
    /// interleaved, `frame_len` samples per frame.
    fn mux_wire(sessions: u32, frame_len: usize) -> Vec<u8> {
        let (ecg, z) = recording();
        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut wire = Vec::new();
        let chunks = ecg.len() / frame_len;
        for c in 0..chunks {
            for enc in &mut encoders {
                let off = c * frame_len;
                enc.push_frame(
                    &ecg[off..off + frame_len],
                    &z[off..off + frame_len],
                    &mut wire,
                )
                .unwrap();
            }
        }
        wire
    }

    #[test]
    fn clean_wire_matches_in_memory_vector_path_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = recording();
        let frame_len = 125;

        // In-memory vector path: push the same chunks directly.
        let mut direct = BeatStream::new(config).unwrap();
        let mut want = Vec::new();
        for c in 0..ecg.len() / frame_len {
            let off = c * frame_len;
            want.extend(
                direct
                    .push_qualified(&ecg[off..off + frame_len], &z[off..off + frame_len])
                    .unwrap(),
            );
        }

        let mut hub = WireHub::new(config).unwrap();
        hub.push(&mux_wire(1, frame_len)).unwrap();
        let results = hub.finish();
        assert_eq!(results.len(), 1);
        let got = &results[0];
        assert!(!got.beats.is_empty());
        let reference = WireSessionResult {
            session: 0,
            beats: want,
            snapshot_bytes: direct.snapshot().to_bytes(),
            states: direct.channel_states(),
        };
        assert!(got.bitwise_eq(&reference));
    }

    #[test]
    fn lossy_replay_reproduces_live_run_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let clean = mux_wire(3, 125);

        // Re-frame the clean wire through a lossy link.
        let mut lossy = Vec::new();
        let mut link = LossyWire::new(7, 0.05, 0.05);
        let mut dec = cardiotouch_ingest::WireDecoder::new();
        dec.push(&clean, |f| {
            link.transmit(f.as_bytes(), &mut lossy);
        });
        assert!(link.dropped() > 0);

        let mut live = WireHub::with_log(config).unwrap();
        // Push in uneven slivers to exercise the carry path too.
        for chunk in lossy.chunks(977) {
            live.push(chunk).unwrap();
        }
        let log = live.log_bytes().unwrap().to_vec();
        let stats = live.door().decode_stats();
        assert!(stats.resyncs > 0, "corruption should trigger resyncs");
        let live_results = live.finish();
        assert_eq!(live_results.len(), 3);

        // Replay: every logged frame through a fresh hub.
        let mut replay = WireHub::new(config).unwrap();
        let mut reader = LogReader::new(&log).unwrap();
        while let Some(frame) = reader.next_frame() {
            replay.push(frame).unwrap();
        }
        assert_eq!(reader.error(), None);
        assert_eq!(reader.frames_read(), stats.frames);
        let replay_results = replay.finish();
        assert_eq!(replay_results.len(), live_results.len());
        for (a, b) in live_results.iter().zip(&replay_results) {
            assert!(a.bitwise_eq(b), "session {} diverged on replay", a.session);
        }
    }

    #[test]
    fn checkpoint_then_recover_is_bitwise_equal_to_uninterrupted_run() {
        let config = PipelineConfig::paper_default(250.0);
        let wire = mux_wire(2, 125);

        // Uninterrupted reference run.
        let mut reference = WireHub::new(config).unwrap();
        for chunk in wire.chunks(977) {
            reference.push(chunk).unwrap();
        }
        let want = reference.finish();

        // Durable run: checkpoint midway, keep pushing, then "crash".
        let policy = cardiotouch_ingest::SegmentPolicy {
            max_bytes: 8 * 1024,
            max_frames: 16,
        };
        let mut store = CheckpointStore::new();
        let mut live = WireHub::with_durable_log(config, policy).unwrap();
        let chunks: Vec<&[u8]> = wire.chunks(977).collect();
        let split = chunks.len() / 2;
        for chunk in &chunks[..split] {
            live.push(chunk).unwrap();
        }
        let (_, drained) = live.checkpoint(&mut store).unwrap();
        assert!(!drained.is_empty(), "midway checkpoint should cover beats");
        for chunk in &chunks[split..] {
            live.push(chunk).unwrap();
        }
        // Second checkpoint proves lag-by-one compaction retires
        // segments without touching the replayable suffix. Its drain
        // is discarded: the cut below makes this checkpoint
        // non-durable, so recovery re-emits those beats via replay.
        live.checkpoint(&mut store).unwrap();
        let segments_before = live.segmented_log().unwrap().segment_count();
        let log = live.segmented_log().unwrap().clone();
        assert!(log.retired() > 0, "compaction should have retired segments");

        // Crash-cut the store inside the final append: recovery falls
        // back to the first checkpoint, whose suffix is retained.
        let store_bytes = store.as_bytes();
        let cut = store_bytes.len() - 7;
        let recovered = cardiotouch_ingest::recover_latest(&store_bytes[..cut])
            .unwrap()
            .expect("first checkpoint survives the cut");
        assert_eq!(recovered.index, 0);
        let hub = WireHub::recover(config, &recovered.checkpoint, log).unwrap();
        assert_eq!(
            hub.segmented_log().unwrap().segment_count(),
            segments_before
        );
        let got = hub.finish();

        // drained-at-checkpoint-1 beats + recovered re-emissions must
        // equal the uninterrupted run bitwise (checkpoint 2's drain is
        // not durable — its beats are re-emitted by the replay).
        assert_eq!(got.len(), want.len());
        let drained: BTreeMap<u32, Vec<QualifiedBeat>> = drained.into_iter().collect();
        for (g, w) in got.iter().zip(&want) {
            let mut beats = drained.get(&g.session).cloned().unwrap_or_default();
            beats.extend(g.beats.iter().cloned());
            let merged = WireSessionResult {
                session: g.session,
                beats,
                snapshot_bytes: g.snapshot_bytes.clone(),
                states: g.states,
            };
            assert!(
                merged.bitwise_eq(w),
                "session {} diverged after recovery",
                g.session
            );
        }
    }
}

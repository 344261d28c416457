//! Streaming, beat-to-beat execution of the pipeline — the software
//! architecture of the firmware flowchart (Fig 3).
//!
//! The embedded device cannot buffer a whole session; it processes each
//! ADC chunk as it arrives and emits every beat's parameters as soon as
//! the beat completes. Two execution models live here:
//!
//! * [`BeatStream`] — the **incremental engine**: stateful streaming
//!   filters ([`cardiotouch_dsp::streaming`]), the online Pan–Tompkins
//!   detector ([`cardiotouch_ecg::online`]) and the incremental B/C/X
//!   delineator ([`cardiotouch_icg::online`]). Per-hop cost is O(hop),
//!   independent of any window length; per-session memory is a few
//!   seconds of signal (≈20 KB at 250 Hz — within the STM32L151's 48 KB
//!   budget with room for the radio stack). [`BeatStream::push_group`]
//!   runs the hops of several sessions stage-major, so their zero-phase
//!   backward passes share lock-step lane kernels; per-hop scratch lives
//!   in a per-thread workspace, not in the session.
//! * [`ReanalysisBeatStream`] — the original windowed engine, kept as
//!   the equivalence oracle and benchmark baseline: it re-runs the whole
//!   block pipeline over a 20 s sliding window every 1 s hop, so each
//!   emitted beat costs ~20× redundant filtering and detection.
//!
//! Both accept chunks of any size and emit [`BeatReport`]s in absolute
//! session coordinates. The incremental engine additionally quantizes
//! all internal state transitions to exact 1 s hops of the *absolute*
//! sample count, which makes its emissions bitwise chunk-size invariant
//! (the windowed engine is only invariant up to the final partial hop).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use cardiotouch_dsp::codec::{Reader, Writer};
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::fir::Fir;
use cardiotouch_dsp::iir::LANES;
use cardiotouch_dsp::streaming::{HistoryRing, StreamingDerivative, StreamingZeroPhase};
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::filtfilt_fir_span_into;
use cardiotouch_ecg::online::OnlinePanTompkins;
use cardiotouch_icg::filter::IcgConditioner;
use cardiotouch_icg::online::{BeatDelineator, OnlineBeat};

use crate::config::PipelineConfig;
use crate::pipeline::{report_from_points, BeatReport, Pipeline};
use crate::snapshot::{malformed, BeatStreamSnapshot};
use crate::CoreError;

/// Per-channel signal condition in the degradation ladder.
///
/// The ladder replaces the original "hold the last finite sample
/// forever" policy with explicit semantics:
///
/// ```text
///            ≥0.1 s suspect              ≥ holdover cap suspect
///   Good ───────────────────▶ Degraded ───────────────────▶ Lost
///    ▲                           │ ≥0.25 s clean              │
///    │                           ▼                            │ ≥0.25 s clean
///    │ ≥2 s clean (re-lock)   Good                            ▼
///    └────────────────────────────────────────────────── Recovering
/// ```
///
/// A sample is *suspect* when it is non-finite, clamped at a rail, or
/// part of a flatline run (bit-identical consecutive values — an open
/// measurement loop). `Lost` stops data fabrication: the channel is fed
/// a neutral value and, on contact return, the conditioning chain is
/// warm-restarted at the next hop boundary and beats are suppressed
/// until the detectors re-lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SignalState {
    /// Clean contact; beats emit as usual.
    Good,
    /// Contact has returned after a loss; detectors are re-locking and
    /// beats overlapping this phase are suppressed.
    Recovering,
    /// Suspect signal beyond the degrade threshold but within the
    /// holdover cap; beats are emitted flagged, not clean.
    Degraded,
    /// Sustained suspect signal beyond the holdover cap; no data is
    /// fabricated and no beat may span this stretch.
    Lost,
}

impl SignalState {
    fn severity(self) -> u8 {
        match self {
            SignalState::Good => 0,
            SignalState::Recovering => 1,
            SignalState::Degraded => 2,
            SignalState::Lost => 3,
        }
    }

    fn from_severity(sev: u8) -> Self {
        match sev {
            0 => SignalState::Good,
            1 => SignalState::Recovering,
            2 => SignalState::Degraded,
            _ => SignalState::Lost,
        }
    }

    /// Reads a severity byte, refusing any past `Lost`.
    fn decode_severity(r: &mut Reader<'_>) -> Result<u8, CoreError> {
        let sev = r.u8()?;
        if sev > SignalState::Lost.severity() {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.severity",
                value: f64::from(sev),
                constraint: "a ladder severity runs from 0 (good) to 3 (lost)",
            });
        }
        Ok(sev)
    }
}

/// A beat report annotated with the ladder's quality verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualifiedBeat {
    /// The hemodynamic parameters, as [`BeatStream::push`] emits them.
    pub report: BeatReport,
    /// Worst combined channel state over the beat's `[r, next_r)`
    /// window. [`SignalState::Lost`] never appears here — such beats are
    /// suppressed before emission.
    pub state: SignalState,
    /// Morphology confidence from the online delineator's ensemble
    /// template ([`cardiotouch_icg::quality::beat_sqi`]); `None` during
    /// template warm-up.
    pub sqi: Option<f64>,
}

impl QualifiedBeat {
    /// `true` when the ladder saw clean contact for the whole beat and
    /// the morphology confidence (when available) clears `threshold`.
    #[must_use]
    pub fn is_clean(&self, threshold: f64) -> bool {
        self.state == SignalState::Good && self.sqi.map_or(true, |s| s >= threshold)
    }
}

/// Flatline run length, seconds, before samples count as suspect.
const FLAT_S: f64 = 0.08;
/// Suspect run, seconds, before a channel degrades.
const DEGRADE_S: f64 = 0.10;
/// Clean run, seconds, before a lost channel starts recovering (and a
/// degraded one returns to good).
const RECOVER_S: f64 = 0.25;
/// Clean run, seconds, of detector re-lock before a recovering channel
/// is good again (matches the QRS warm-restart threshold window).
const RELOCK_S: f64 = 2.0;
/// ECG rail magnitude, millivolts: far beyond any physiological R wave,
/// reached only by a saturated front end or an open loop.
const ECG_RAIL_MV: f64 = 25.0;
/// Impedance rails, ohms: a hand-to-hand path reads hundreds of ohms;
/// at or below zero (short) or in the kilo-ohm range (open loop) the
/// loop is broken.
const Z_RAIL_LO_OHM: f64 = 1.0;
const Z_RAIL_HI_OHM: f64 = 3000.0;

/// Flatline/rail/finiteness detectors and the per-channel state machine.
#[derive(Debug, Clone)]
struct ChannelMonitor {
    state: SignalState,
    /// Consecutive suspect samples (retroactively covers a flat run).
    bad_run: usize,
    /// Consecutive clean samples.
    good_run: usize,
    /// Consecutive bit-identical raw samples.
    flat_run: usize,
    last_bits: u64,
    /// A non-finite sample occurred in the current suspect run (the run
    /// was being bridged by holdover fabrication).
    run_had_nonfinite: bool,
    rail_lo: f64,
    rail_hi: f64,
    flat: usize,
    degrade: usize,
    lost: usize,
    recover: usize,
    relock: usize,
}

impl ChannelMonitor {
    fn new(fs: f64, rail_lo: f64, rail_hi: f64, holdover_cap_s: f64) -> Self {
        Self {
            state: SignalState::Good,
            bad_run: 0,
            good_run: 0,
            flat_run: 0,
            last_bits: f64::NAN.to_bits(),
            run_had_nonfinite: false,
            rail_lo,
            rail_hi,
            flat: ((FLAT_S * fs) as usize).max(2),
            degrade: ((DEGRADE_S * fs) as usize).max(1),
            lost: ((holdover_cap_s * fs) as usize).max(2),
            recover: ((RECOVER_S * fs) as usize).max(1),
            relock: ((RELOCK_S * fs) as usize).max(1),
        }
    }

    /// Observes one raw sample and advances the ladder; returns the
    /// state before the observation so the caller can react to edges.
    fn observe(&mut self, v: f64) -> SignalState {
        let prev = self.state;
        let bits = v.to_bits();
        if bits == self.last_bits {
            self.flat_run += 1;
        } else {
            self.flat_run = 0;
            self.last_bits = bits;
        }
        let finite = v.is_finite();
        let railed = finite && (v <= self.rail_lo || v >= self.rail_hi);
        let flat = self.flat_run >= self.flat;
        if !finite || railed || flat {
            if self.bad_run == 0 {
                self.run_had_nonfinite = false;
            }
            self.good_run = 0;
            self.bad_run += 1;
            if flat {
                // The whole flat run was suspect in hindsight.
                self.bad_run = self.bad_run.max(self.flat_run + 1);
            }
            if !finite {
                self.run_had_nonfinite = true;
            }
            if self.bad_run >= self.lost {
                self.state = SignalState::Lost;
            } else if self.bad_run >= self.degrade && self.state != SignalState::Lost {
                self.state = SignalState::Degraded;
            }
        } else {
            self.bad_run = 0;
            self.good_run += 1;
            match self.state {
                SignalState::Lost if self.good_run >= self.recover => {
                    self.state = SignalState::Recovering;
                }
                SignalState::Degraded if self.good_run >= self.recover => {
                    self.state = SignalState::Good;
                }
                SignalState::Recovering if self.good_run >= self.relock => {
                    self.state = SignalState::Good;
                }
                _ => {}
            }
        }
        prev
    }

    /// Length of the longest prefix of `x` that [`Self::observe`] would
    /// count as clean from the current flat-run state: finite, strictly
    /// inside the rails, and never completing a flat run.
    fn clean_prefix(&self, x: &[f64]) -> usize {
        let (mut flat_run, mut last_bits) = (self.flat_run, self.last_bits);
        for (i, &v) in x.iter().enumerate() {
            let bits = v.to_bits();
            if bits == last_bits {
                flat_run += 1;
            } else {
                flat_run = 0;
                last_bits = bits;
            }
            // NaN fails both comparisons, ±∞ one of them.
            if !(self.rail_lo < v && v < self.rail_hi) || flat_run >= self.flat {
                return i;
            }
        }
        x.len()
    }

    /// [`Self::observe`] over samples [`Self::clean_prefix`] accepted, from
    /// a `Good` state: no edge, only the run counters and the flat-run
    /// detector move.
    fn take_clean(&mut self, x: &[f64]) {
        let Some(&newest) = x.last() else {
            return;
        };
        let bits = newest.to_bits();
        let same = x.iter().rev().take_while(|v| v.to_bits() == bits).count();
        self.flat_run = if same == x.len() && bits == self.last_bits {
            self.flat_run + same
        } else {
            same - 1
        };
        self.last_bits = bits;
        self.bad_run = 0;
        self.good_run += x.len();
    }

    /// Writes the machine state as its severity, then the run counters
    /// (thresholds are derived from the configuration).
    fn encode(&self, w: &mut Writer) {
        w.u8(self.state.severity());
        w.usize(self.bad_run);
        w.usize(self.good_run);
        w.usize(self.flat_run);
        w.u64(self.last_bits);
        w.bool(self.run_had_nonfinite);
    }

    /// Reads the state [`Self::encode`] wrote; untouched on error.
    fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), CoreError> {
        let state = SignalState::from_severity(SignalState::decode_severity(r)?);
        let (bad_run, good_run, flat_run) = (r.usize()?, r.usize()?, r.usize()?);
        let (last_bits, run_had_nonfinite) = (r.u64()?, r.bool()?);
        (self.state, self.bad_run, self.good_run) = (state, bad_run, good_run);
        (self.flat_run, self.last_bits) = (flat_run, last_bits);
        self.run_had_nonfinite = run_had_nonfinite;
        Ok(())
    }
}

/// Ingestion metric deltas for one chunk, flushed as one counter add
/// each.
#[derive(Debug, Default)]
struct IngestTally {
    sanitized: u64,
    holdovers: u64,
    transitions: u64,
    truncated: u64,
}

/// Worst combined ladder state over the absolute range `[lo, hi)`.
///
/// `log` holds `(absolute sample, severity)` transitions in ascending
/// order, each meaning "combined severity from this sample onward", with
/// an implicit `(0, Good)` before the first entry.
fn worst_state(log: &VecDeque<(usize, u8)>, lo: usize, hi: usize) -> SignalState {
    let mut sev = 0;
    for &(idx, s) in log {
        if idx >= hi {
            break;
        }
        if idx <= lo {
            // The newest entry at or before `lo` governs the window start.
            sev = s;
        } else {
            sev = sev.max(s);
        }
    }
    SignalState::from_severity(sev)
}

/// Incremental beat-to-beat processor with O(hop) per-hop cost.
///
/// Pipeline per hop (1 s of samples): raw ECG → online Pan–Tompkins →
/// local zero-phase FIR apex refinement; raw Z → streaming central
/// difference → negation → streaming zero-phase 20 Hz low-pass →
/// streaming zero-phase 0.4 Hz high-pass → incremental B/C/X
/// delineation → the same per-beat interval/hemodynamics arithmetic the
/// batch [`Pipeline`] runs.
///
/// Non-finite input samples (NaN/±∞ from a saturated front-end) are
/// replaced at ingestion by the last finite value of the same channel,
/// so a transient glitch cannot poison the recursive filter states.
#[derive(Debug, Clone)]
pub struct BeatStream {
    config: PipelineConfig,
    /// Internal processing quantum: 1 s of samples.
    hop: usize,
    /// Raw samples awaiting a complete hop (sanitized).
    pend_ecg: Vec<f64>,
    pend_z: Vec<f64>,
    /// Absolute count of samples accepted by `push`.
    pushed: usize,
    /// Absolute count of samples consumed by the engine (hop multiple).
    processed: usize,
    /// Last finite sample per channel, for glitch hold-over.
    last_ecg: f64,
    last_z: f64,
    z_seen_finite: bool,
    /// Running sum of processed Z for the Z0 estimate.
    z_sum: f64,
    // --- ECG path ---
    qrs: OnlinePanTompkins,
    ecg_fir: Arc<Fir>,
    ecg_ring: HistoryRing,
    /// Confirmed raw-apex R peaks awaiting refinement context.
    raw_rs: VecDeque<usize>,
    last_refined_r: Option<usize>,
    /// Forward-pass workspace of the span-limited refinement filter.
    refine_work: Vec<f64>,
    /// The filtered ±40 ms search span.
    refine_buf: Vec<f64>,
    /// Raw context kept around each apex for local zero-phase filtering.
    ctx: usize,
    /// Half-width of the apex search around the online detection.
    search: usize,
    // --- ICG path ---
    deriv: StreamingDerivative,
    lp: StreamingZeroPhase,
    hp: StreamingZeroPhase,
    delineator: BeatDelineator,
    beats_scratch: Vec<OnlineBeat>,
    // --- observability (see DESIGN.md §6c) ---
    /// `core.stream.beats_emitted` — finalized reports handed to callers.
    beats_emitted: cardiotouch_obs::Counter,
    /// `core.stream.samples_sanitized` — non-finite samples replaced at
    /// ingestion (per channel sample, not per pair).
    samples_sanitized: cardiotouch_obs::Counter,
    /// `core.stream.holdover_events` — finite→non-finite transitions,
    /// i.e. distinct glitch bursts rather than glitched samples.
    holdover_events: cardiotouch_obs::Counter,
    ecg_in_holdover: bool,
    z_in_holdover: bool,
    // --- degradation ladder (see DESIGN.md §6d) ---
    ecg_mon: ChannelMonitor,
    z_mon: ChannelMonitor,
    /// Slow EMA of clean impedance samples — the neutral fill while the
    /// Z channel is lost (frozen for the loss duration).
    z_ema: f64,
    z_ema_init: bool,
    /// Combined-severity transition log `(absolute sample, severity)`
    /// for worst-state-over-window queries at beat emission.
    state_log: VecDeque<(usize, u8)>,
    /// Absolute samples of Lost→Recovering transitions whose warm
    /// restart has not yet been applied (applied at the start of the hop
    /// containing them, keeping restarts chunk-size invariant).
    restarts: VecDeque<usize>,
    /// Beats whose R lies before this absolute index are suppressed
    /// (re-lock window after each loss).
    suppress_before: usize,
    /// `core.stream.state_transitions` — per-channel ladder edges.
    state_transitions: cardiotouch_obs::Counter,
    /// `core.stream.holdover_truncated` — suspect runs that hit the
    /// holdover cap while being bridged with fabricated samples.
    holdover_truncated: cardiotouch_obs::Counter,
    /// `core.stream.beats_suppressed` — beats dropped by the ladder
    /// (loss overlap or re-lock window).
    beats_suppressed: cardiotouch_obs::Counter,
    /// `core.stream.beats_degraded` — beats emitted flagged (ladder
    /// state not `Good`, or SQI below the configured threshold).
    beats_degraded: cardiotouch_obs::Counter,
    /// `core.stream.hop_us` — per-hop wall time. Cached handle: the
    /// per-hop path must never pay the registry's name lookup (a mutex
    /// and a map probe per hop showed up as the obs overhead
    /// regression).
    hop_us: cardiotouch_obs::Histogram,
}

/// Streams whose hops run stage-major together in
/// [`BeatStream::push_group`]. Each hop gives both zero-phase stages two
/// blocks, so four sessions fill the lane kernel's eight lanes; a wider
/// group would only spill the hop's tails out of L1.
pub const GROUP: usize = LANES / 2;

/// One stream's chunk in [`BeatStream::push_group`], and where its beats
/// go.
#[derive(Debug)]
pub struct GroupPush<'a> {
    stream: &'a mut BeatStream,
    ecg: &'a [f64],
    z: &'a [f64],
    beats: &'a mut Vec<QualifiedBeat>,
    /// Pending samples consumed by this push's hops so far.
    done: usize,
    /// `beats.len()` when the push started.
    before: usize,
}

impl<'a> GroupPush<'a> {
    /// Pushes `ecg`/`z` into `stream`, appending its beats to `beats`.
    pub fn new(
        stream: &'a mut BeatStream,
        ecg: &'a [f64],
        z: &'a [f64],
        beats: &'a mut Vec<QualifiedBeat>,
    ) -> Self {
        Self {
            stream,
            ecg,
            z,
            beats,
            done: 0,
            before: 0,
        }
    }

    /// `true` while a whole hop is pending past the consumed ones.
    fn hop_ready(&self) -> bool {
        self.stream.pend_ecg.len() - self.done >= self.stream.hop
    }
}

/// Per-thread hop workspace, one slot per group member: the hop's
/// −dZ/dt, its LP output and its HP output. Pure workspace, never part
/// of a stream's state.
#[derive(Default)]
struct HopWork {
    neg: [Vec<f64>; GROUP],
    lp: [Vec<f64>; GROUP],
    hp: [Vec<f64>; GROUP],
}

thread_local! {
    static HOP_WORK: RefCell<HopWork> = RefCell::new(HopWork::default());
}

impl BeatStream {
    /// Creates an incremental stream for the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and filter-design errors.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let fs = config.fs;
        let hop = fs as usize;
        // The zero-phase stages mirror the batch conditioner's designs
        // (shared via the design cache) and edge extensions. Settle
        // margins: the 4th-order 20 Hz low-pass has a time constant of
        // ~5 samples, so 0.1 s (25 samples at 250 Hz, ~4.8 τ) leaves
        // ~0.8 % residual; the 0.4 Hz high-pass rings for ~0.56 s, so 2 s
        // of right context leaves ~1 % residual — well inside the B/X
        // detection tolerances.
        //
        // Both stages' block grids are aligned to the hop: the derivative
        // delays the LP input by one sample, and the LP's settle delays
        // the HP input further, so without alignment each block would
        // complete just after the hop ends and wait a whole hop. Aligned
        // (and with a hop of two whole blocks), the conditioned ICG at
        // every hop end reaches exactly `LATENCY + lp_settle + hp_settle`
        // samples behind the input: 526 at 250 Hz.
        let lp_settle = (0.1 * fs) as usize;
        let lp_filter = design_cache::butterworth_lowpass(IcgConditioner::DEFAULT_ORDER, 20.0, fs)
            .map_err(cardiotouch_icg::IcgError::from)?;
        let hp_filter = design_cache::butterworth_highpass(2, IcgConditioner::HIGHPASS_HZ, fs)
            .map_err(cardiotouch_icg::IcgError::from)?;
        let block = (hop / 2).max(1);
        Ok(Self {
            config,
            hop,
            pend_ecg: Vec::new(),
            pend_z: Vec::new(),
            pushed: 0,
            processed: 0,
            last_ecg: 0.0,
            last_z: 0.0,
            z_seen_finite: false,
            z_sum: 0.0,
            qrs: OnlinePanTompkins::new(fs)?,
            ecg_fir: design_cache::fir_bandpass(32, 0.05, 40.0, fs, Window::Hamming)
                .map_err(cardiotouch_ecg::EcgError::from)?,
            ecg_ring: HistoryRing::new(),
            raw_rs: VecDeque::new(),
            last_refined_r: None,
            refine_work: Vec::new(),
            refine_buf: Vec::new(),
            ctx: (0.4 * fs) as usize,
            search: (0.04 * fs) as usize,
            deriv: StreamingDerivative::new(fs),
            lp: StreamingZeroPhase::new(
                lp_filter,
                lp_settle,
                3 * 6 * (IcgConditioner::DEFAULT_ORDER + 1),
                block,
            )
            .aligned_to(StreamingDerivative::LATENCY),
            hp: StreamingZeroPhase::new(
                hp_filter,
                (2.0 * fs) as usize,
                (fs / IcgConditioner::HIGHPASS_HZ) as usize,
                block,
            )
            .aligned_to(StreamingDerivative::LATENCY + lp_settle),
            delineator: BeatDelineator::with_strategy(
                fs,
                config.x_search,
                config.delineation,
                config.min_rr_s,
                config.max_rr_s,
            )?,
            beats_scratch: Vec::new(),
            beats_emitted: cardiotouch_obs::counter("core.stream.beats_emitted"),
            samples_sanitized: cardiotouch_obs::counter("core.stream.samples_sanitized"),
            holdover_events: cardiotouch_obs::counter("core.stream.holdover_events"),
            ecg_in_holdover: false,
            z_in_holdover: false,
            ecg_mon: ChannelMonitor::new(fs, -ECG_RAIL_MV, ECG_RAIL_MV, config.holdover_cap_s),
            z_mon: ChannelMonitor::new(fs, Z_RAIL_LO_OHM, Z_RAIL_HI_OHM, config.holdover_cap_s),
            z_ema: 0.0,
            z_ema_init: false,
            state_log: VecDeque::new(),
            restarts: VecDeque::new(),
            suppress_before: 0,
            state_transitions: cardiotouch_obs::counter("core.stream.state_transitions"),
            holdover_truncated: cardiotouch_obs::counter("core.stream.holdover_truncated"),
            beats_suppressed: cardiotouch_obs::counter("core.stream.beats_suppressed"),
            beats_degraded: cardiotouch_obs::counter("core.stream.beats_degraded"),
            hop_us: cardiotouch_obs::histogram("core.stream.hop_us"),
        })
    }

    /// Current ladder state of the `(ecg, z)` channels.
    #[must_use]
    pub fn channel_states(&self) -> (SignalState, SignalState) {
        (self.ecg_mon.state, self.z_mon.state)
    }

    /// Absolute index of the next sample to be pushed.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pushed
    }

    /// Pushes one chunk of simultaneous samples and returns the beats
    /// that completed since the previous call, in chronological order,
    /// with indices in **absolute** (whole-session) coordinates.
    ///
    /// Chunks of any size are accepted — including chunks far larger
    /// than any internal buffer; the engine consumes them in exact 1 s
    /// quanta, so emissions depend only on the total sample count.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length.
    pub fn push(&mut self, ecg: &[f64], z: &[f64]) -> Result<Vec<BeatReport>, CoreError> {
        Ok(self
            .push_qualified(ecg, z)?
            .into_iter()
            .map(|q| q.report)
            .collect())
    }

    /// Like [`BeatStream::push`], but annotates every beat with the
    /// degradation ladder's verdict: the worst channel state over the
    /// beat window and the per-beat morphology confidence. Beats whose
    /// window overlaps a `Lost` stretch, or that fall in the re-lock
    /// window after a loss, are suppressed (counted in
    /// `core.stream.beats_suppressed`), never returned.
    ///
    /// On clean input every beat comes back `Good` and the emitted
    /// reports are bit-identical to [`BeatStream::push`]'s historical
    /// behaviour — the ladder only observes until a detector trips.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length.
    pub fn push_qualified(
        &mut self,
        ecg: &[f64],
        z: &[f64],
    ) -> Result<Vec<QualifiedBeat>, CoreError> {
        let mut beats = Vec::new();
        Self::push_group(&mut [GroupPush::new(self, ecg, z, &mut beats)])?;
        Ok(beats)
    }

    /// Pushes one chunk into each of several streams and appends each
    /// stream's beats to its own `beats`: for every stream, bit for bit
    /// what [`BeatStream::push_qualified`] returns for its chunk, and the
    /// same state after. Returns the number of beats emitted.
    ///
    /// Every chunk is ingested first. The completed hops then run
    /// stage-major, [`GROUP`] streams at a time: the ECG path, the
    /// derivative and any warm restart per stream, the LP and HP
    /// zero-phase stages of the whole group through one
    /// [`StreamingZeroPhase::push_group`] each, so the streams' forward
    /// and backward passes share lock-step lane kernels, then delineation and
    /// emission per stream. A stream with more hops pending keeps its
    /// group until they are done; one with none skips every stage.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when any stream's chunks
    ///   differ in length; no stream is touched then.
    pub fn push_group(group: &mut [GroupPush<'_>]) -> Result<usize, CoreError> {
        if let Some(p) = group.iter().find(|p| p.ecg.len() != p.z.len()) {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: p.ecg.len(),
                z_len: p.z.len(),
            });
        }
        let mut emitted = 0;
        for p in group.iter_mut() {
            p.stream.ingest_qualified(p.ecg, p.z)?;
            p.done = 0;
            p.before = p.beats.len();
        }
        let mut ready = group.iter_mut().filter(|p| p.hop_ready());
        loop {
            let mut members: [Option<&mut GroupPush<'_>>; GROUP] = Default::default();
            let n = members
                .iter_mut()
                .zip(&mut ready)
                .map(|(slot, p)| *slot = Some(p))
                .count();
            if n == 0 {
                break;
            }
            while members.iter().flatten().any(|p| p.hop_ready()) {
                Self::hop_group(&mut members[..n]);
            }
        }
        for p in group.iter_mut() {
            let s = &mut *p.stream;
            s.pend_ecg.drain(..p.done);
            s.pend_z.drain(..p.done);
            let n = p.beats.len() - p.before;
            if n > 0 {
                s.beats_emitted.add(n as u64);
            }
            emitted += n;
        }
        Ok(emitted)
    }

    /// Buffers one chunk through the degradation ladder and holdover
    /// fill **without consuming any completed hop** — the ingestion
    /// half of [`BeatStream::push_qualified`], which is exactly this
    /// followed by draining every ready hop. The hops stay pending until
    /// the next push, so splitting a push into `ingest_qualified` plus
    /// an empty `push_qualified` emits the same beats; profilers use the
    /// split to time ingestion apart from hop processing.
    ///
    /// Clean runs — the steady state of a good contact — move through
    /// the ladder, the holdover fill and the pending buffers in bulk;
    /// only the samples between them step the ladder one at a time. The
    /// result is bitwise that of stepping every sample.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length.
    pub fn ingest_qualified(&mut self, ecg: &[f64], z: &[f64]) -> Result<(), CoreError> {
        if ecg.len() != z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: ecg.len(),
                z_len: z.len(),
            });
        }
        // Metric deltas accumulate locally and flush as one batched
        // atomic add per counter per chunk, keeping the per-sample loop
        // free of shared-memory traffic.
        let mut tally = IngestTally::default();
        self.pend_ecg.reserve(ecg.len());
        self.pend_z.reserve(z.len());
        let mut i = 0;
        while i < ecg.len() {
            i += self.ingest_clean_run(&ecg[i..], &z[i..]);
            if i < ecg.len() {
                self.ingest_sample(self.pushed + i, ecg[i], z[i], &mut tally);
                i += 1;
            }
        }
        self.pushed += ecg.len();
        if tally.sanitized > 0 {
            self.samples_sanitized.add(tally.sanitized);
            self.holdover_events.add(tally.holdovers);
        }
        if tally.transitions > 0 {
            self.state_transitions.add(tally.transitions);
            self.holdover_truncated.add(tally.truncated);
        }
        Ok(())
    }

    /// Ingests the longest clean run at the front of `ecg`/`z` in bulk and
    /// returns its length. A run is clean while both channels are `Good`
    /// with a `Good` combined log entry, and every sample is finite,
    /// strictly inside its channel's rails and ends no flat run of
    /// `flat` samples. For such samples [`Self::ingest_sample`] changes no
    /// ladder state and fabricates nothing: it only counts the clean run,
    /// tracks the flat-run detector, folds Z into `z_ema` and buffers the
    /// raw values — which is what this does, a run at a time.
    fn ingest_clean_run(&mut self, ecg: &[f64], z: &[f64]) -> usize {
        if self.ecg_mon.state != SignalState::Good
            || self.z_mon.state != SignalState::Good
            || self.state_log.back().is_some_and(|&(_, sev)| sev != 0)
        {
            return 0;
        }
        let k = self.ecg_mon.clean_prefix(ecg);
        let k = self.z_mon.clean_prefix(&z[..k]);
        if k == 0 {
            return 0;
        }
        let (ecg, z) = (&ecg[..k], &z[..k]);
        self.ecg_mon.take_clean(ecg);
        self.z_mon.take_clean(z);
        self.last_ecg = ecg[k - 1];
        self.ecg_in_holdover = false;
        self.last_z = z[k - 1];
        self.z_seen_finite = true;
        self.z_in_holdover = false;
        let mut rest = z;
        if !self.z_ema_init {
            self.z_ema = z[0];
            self.z_ema_init = true;
            rest = &z[1..];
        }
        let mut ema = self.z_ema;
        for &zv in rest {
            ema += (zv - ema) / 256.0;
        }
        self.z_ema = ema;
        self.pend_ecg.extend_from_slice(ecg);
        self.pend_z.extend_from_slice(z);
        k
    }

    /// One step of the degradation ladder and holdover fill for the
    /// sample pair at absolute index `idx`.
    fn ingest_sample(&mut self, idx: usize, e: f64, zv: f64, tally: &mut IngestTally) {
        // Ladder detectors observe the *raw* samples; transitions are
        // pure functions of the absolute sample history, so the ladder
        // is chunk-size invariant by construction.
        let e_prev = self.ecg_mon.observe(e);
        let z_prev = self.z_mon.observe(zv);
        let (e_state, z_state) = (self.ecg_mon.state, self.z_mon.state);
        for (prev, now, mon) in [
            (e_prev, e_state, &self.ecg_mon),
            (z_prev, z_state, &self.z_mon),
        ] {
            if prev == now {
                continue;
            }
            tally.transitions += 1;
            if now == SignalState::Lost && mon.run_had_nonfinite {
                // The holdover cap tripped while fabricating data.
                tally.truncated += 1;
            }
            if prev == SignalState::Lost && now == SignalState::Recovering {
                // Warm-restart the conditioning chain at the next hop
                // boundary and suppress beats until re-lock.
                if self.restarts.back() != Some(&idx) {
                    self.restarts.push_back(idx);
                }
                self.suppress_before = self.suppress_before.max(idx + mon.relock);
            }
        }
        let sev = e_state.severity().max(z_state.severity());
        if self.state_log.back().map_or(0, |&(_, last)| last) != sev {
            self.state_log.push_back((idx, sev));
        }

        // ECG fill: hold the last finite value over glitches (the
        // recursive filters must never ingest a NaN), but stop
        // fabricating once the ladder declares the channel lost.
        if e.is_finite() {
            self.last_ecg = e;
            self.ecg_in_holdover = false;
        } else {
            tally.sanitized += 1;
            if !self.ecg_in_holdover {
                tally.holdovers += 1;
                self.ecg_in_holdover = true;
            }
        }
        self.pend_ecg.push(if e_state == SignalState::Lost {
            0.0
        } else {
            self.last_ecg
        });

        // Z fill: same policy; the neutral value is the frozen slow EMA
        // of clean impedance, so Z0 estimates do not drift toward an
        // arbitrary constant during a loss.
        if zv.is_finite() {
            self.last_z = zv;
            self.z_seen_finite = true;
            self.z_in_holdover = false;
            if z_state == SignalState::Good {
                if self.z_ema_init {
                    self.z_ema += (zv - self.z_ema) / 256.0;
                } else {
                    self.z_ema = zv;
                    self.z_ema_init = true;
                }
            }
        } else {
            tally.sanitized += 1;
            if !self.z_in_holdover {
                tally.holdovers += 1;
                self.z_in_holdover = true;
            }
        }
        self.pend_z.push(if z_state == SignalState::Lost {
            self.z_ema
        } else if self.z_seen_finite {
            self.last_z
        } else {
            0.0
        });
    }

    /// Applies a deferred warm restart: the conditioning chain is reset
    /// to its start-of-stream state, the delineator drops anything that
    /// could span the gap, and its conditioned stream is zero-padded up
    /// to the current hop boundary so post-restart output stays aligned
    /// with the absolute R-peak clock.
    fn warm_restart(&mut self) {
        self.deriv.reset();
        self.lp.reset();
        self.hp.reset();
        self.qrs.restart();
        self.raw_rs.clear();
        self.delineator.abort_pending();
        self.delineator.pad_to(self.processed);
    }

    /// Runs one hop of every member with a whole hop pending,
    /// stage-major (see [`Self::push_group`]).
    ///
    /// With obs on, each session hop records one `core.stream.hop_us`
    /// sample: the group's wall time divided by its session hops. Manual
    /// timing against the cached histogram handle: the `span!` macro
    /// resolves its histogram by name on every drop (a registry mutex, a
    /// map probe and a string allocation), which is exactly the per-hop
    /// overhead the 2 % obs budget forbids. With obs off no clock is
    /// read.
    fn hop_group(members: &mut [Option<&mut GroupPush<'_>>]) {
        let t0 = cardiotouch_obs::enabled().then(|| cardiotouch_obs::registry().clock().now_ns());
        // Members without a whole hop pending sit this hop out.
        let mut hops = 0;
        for i in 0..members.len() {
            if members[i].as_ref().is_some_and(|p| p.hop_ready()) {
                members.swap(hops, i);
                hops += 1;
            }
        }
        let members = &mut members[..hops];
        HOP_WORK.with(|work| {
            let HopWork { neg, lp, hp } = &mut *work.borrow_mut();
            for (p, neg) in members.iter_mut().flatten().zip(neg.iter_mut()) {
                p.stream.begin_hop(p.done, neg);
            }
            StreamingZeroPhase::push_group(
                members
                    .iter_mut()
                    .flatten()
                    .zip(neg.iter())
                    .zip(lp.iter_mut())
                    .map(|((p, neg), lp)| {
                        lp.clear();
                        (&mut p.stream.lp, &neg[..], lp)
                    }),
            );
            StreamingZeroPhase::push_group(
                members
                    .iter_mut()
                    .flatten()
                    .zip(lp.iter())
                    .zip(hp.iter_mut())
                    .map(|((p, lp), hp)| {
                        hp.clear();
                        (&mut p.stream.hp, &lp[..], hp)
                    }),
            );
            for (p, hp) in members.iter_mut().flatten().zip(hp.iter()) {
                p.stream.finish_hop(hp, p.beats);
                p.done += p.stream.hop;
            }
        });
        if let Some(t0) = t0 {
            let ns = cardiotouch_obs::registry()
                .clock()
                .now_ns()
                .saturating_sub(t0);
            for p in members.iter().flatten() {
                p.stream.hop_us.record(ns / hops as u64 / 1_000);
            }
        }
    }

    /// The hop's front half, per session, for the hop starting at `off`
    /// in the pending buffers: any due warm restart, the ECG ring and
    /// online QRS detection, the Z0 running sum and −dZ/dt into `neg`.
    fn begin_hop(&mut self, off: usize, neg: &mut Vec<f64>) {
        if self.take_restart() {
            self.warm_restart();
        }
        let hop = self.hop;
        self.processed += hop;

        // ECG: raw ring (for apex refinement) and online QRS detection.
        let ecg = &self.pend_ecg[off..off + hop];
        self.ecg_ring.extend(ecg);
        let raw_rs = &mut self.raw_rs;
        self.qrs.push_chunk(ecg, |r| raw_rs.push_back(r));

        // ICG: Z → Z0 running sum and −dZ/dt, which the group's
        // zero-phase stages and the delineator take from here.
        neg.clear();
        for &zv in &self.pend_z[off..off + hop] {
            self.z_sum += zv;
            if let Some(d) = self.deriv.push(zv) {
                neg.push(-d);
            }
        }
    }

    /// Pops every deferred warm restart falling inside the next hop.
    ///
    /// A Lost→Recovering transition inside (or before) this hop
    /// triggers the warm restart now, at the hop boundary — the restart
    /// point is a pure function of the absolute transition sample,
    /// never of caller chunking.
    fn take_restart(&mut self) -> bool {
        let mut restart = false;
        while let Some(&t) = self.restarts.front() {
            if t < self.processed + self.hop {
                self.restarts.pop_front();
                restart = true;
            } else {
                break;
            }
        }
        restart
    }

    /// The hop's back half, consuming the hop's conditioned ICG `hp`:
    /// delineation, R refinement, buffer pruning, beat qualification.
    fn finish_hop(&mut self, hp: &[f64], out: &mut Vec<QualifiedBeat>) {
        let hop = self.hop;
        let head = self.processed;
        self.delineator.push_samples(hp);

        // Refine and commit every raw R that now has full context.
        while let Some(&r) = self.raw_rs.front() {
            if head <= r + self.ctx {
                break;
            }
            self.raw_rs.pop_front();
            let refined = self.refine_r(r);
            if self.last_refined_r.map_or(true, |p| refined > p) {
                let _ = self.delineator.push_r(refined);
                self.last_refined_r = Some(refined);
            }
        }
        // Keep 3 s of raw ECG (apexes confirm within 0.3 s, refinement
        // reaches 0.4 s back), but never discard a pending apex context.
        let mut keep = head.saturating_sub(3 * hop);
        if let Some(&r) = self.raw_rs.front() {
            keep = keep.min(r.saturating_sub(self.ctx));
        }
        self.ecg_ring.discard_before(keep);

        // Prune the state log: anything older than the delineator's
        // reach is dead (keep one entry as the governing state).
        let cutoff = head.saturating_sub(30 * hop);
        while self.state_log.len() >= 2 && self.state_log[1].0 <= cutoff {
            self.state_log.pop_front();
        }

        // Finalize beats whose segments are fully settled.
        self.beats_scratch.clear();
        self.delineator.poll_into(&mut self.beats_scratch);
        if self.beats_scratch.is_empty() {
            return;
        }
        let z0 = self.z_sum / head as f64;
        let mut suppressed: u64 = 0;
        let mut degraded: u64 = 0;
        for ob in &self.beats_scratch {
            let worst = worst_state(&self.state_log, ob.window.r, ob.window.end);
            // The ladder's emission gate: nothing from a lost stretch or
            // the post-loss re-lock window reaches the caller.
            if ob.window.r < self.suppress_before || worst == SignalState::Lost {
                suppressed += 1;
                continue;
            }
            if let Some(rep) =
                report_from_points(&self.config, &ob.window, &ob.points, ob.dzdt_max, z0)
            {
                if rep.pep_s.is_finite()
                    && rep.lvet_s.is_finite()
                    && rep.dzdt_max.is_finite()
                    && rep.sv_kubicek_ml.is_finite()
                {
                    let threshold = self
                        .config
                        .sqi_threshold
                        .unwrap_or(cardiotouch_icg::quality::DEFAULT_SQI_THRESHOLD);
                    let qb = QualifiedBeat {
                        report: rep,
                        state: worst,
                        sqi: ob.sqi,
                    };
                    if !qb.is_clean(threshold) {
                        degraded += 1;
                    }
                    out.push(qb);
                }
            }
        }
        if suppressed > 0 {
            self.beats_suppressed.add(suppressed);
        }
        if degraded > 0 {
            self.beats_degraded.add(degraded);
        }
    }

    /// Captures the complete mutable state of the stream — every filter
    /// delay line, ring buffer, adaptive threshold, ladder counter and
    /// holdover flag — as encoded bytes ([`BeatStreamSnapshot`]): the
    /// stream's own fields, then each kernel's `encode`.
    ///
    /// Scratch buffers (the refinement filter's span workspace, the
    /// per-hop work vectors) are pure workspace and never captured;
    /// coefficient sets are shared `Arc`s re-derived from the design
    /// cache by [`BeatStream::restore`]. A snapshot taken between two
    /// `push` calls and restored into a fresh stream resumes **bitwise
    /// identically** — the conformance migration leg pins this across
    /// the whole golden corpus.
    #[must_use]
    pub fn snapshot(&self) -> BeatStreamSnapshot {
        let mut w = BeatStreamSnapshot::writer();
        w.f64(self.config.fs);
        w.f64s(&self.pend_ecg);
        w.f64s(&self.pend_z);
        w.usize(self.pushed);
        w.usize(self.processed);
        w.f64(self.last_ecg);
        w.f64(self.last_z);
        w.bool(self.z_seen_finite);
        w.f64(self.z_sum);
        self.qrs.encode(&mut w);
        self.ecg_ring.encode(&mut w);
        w.usizes(self.raw_rs.iter());
        w.opt_usize(self.last_refined_r);
        self.deriv.encode(&mut w);
        self.lp.encode(&mut w);
        self.hp.encode(&mut w);
        self.delineator.encode(&mut w);
        w.bool(self.ecg_in_holdover);
        w.bool(self.z_in_holdover);
        self.ecg_mon.encode(&mut w);
        self.z_mon.encode(&mut w);
        w.f64(self.z_ema);
        w.bool(self.z_ema_init);
        w.usize(self.state_log.len());
        for &(idx, sev) in &self.state_log {
            w.usize(idx);
            w.u8(sev);
        }
        w.usizes(self.restarts.iter());
        w.usize(self.suppress_before);
        BeatStreamSnapshot::from_writer(w)
    }

    /// Reconstructs a stream from a snapshot: designs a fresh engine
    /// for `config` (re-deriving every coefficient set from the design
    /// cache) and decodes the state into it, each kernel checking its
    /// part against its own design, resuming the session
    /// bitwise-identically to one that never paused.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] when the snapshot was taken at
    ///   a different sampling rate than `config.fs`, when its sample
    ///   counters disagree with its pending buffers, its QRS clock or its
    ///   raw-ECG ring, when it holds a raw R at or past that clock or
    ///   conditioned ICG past it, a ladder severity past `Lost`, or
    ///   trailing bytes (a corrupted snapshot);
    /// * [`CoreError::ChannelLengthMismatch`] when its pending ECG and Z
    ///   buffers differ in length (a corrupted snapshot);
    /// * [`CoreError::Dsp`], [`CoreError::Ecg`] or [`CoreError::Icg`]
    ///   when a kernel's state does not fit its design, or the bytes run
    ///   out (a corrupted snapshot);
    /// * construction errors from [`BeatStream::new`].
    pub fn restore(config: PipelineConfig, snap: &BeatStreamSnapshot) -> Result<Self, CoreError> {
        let mut r = snap.reader();
        let fs = r.f64()?;
        if fs.to_bits() != config.fs.to_bits() {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.fs",
                value: fs,
                constraint: "must equal the restoring configuration's fs",
            });
        }
        let mut s = Self::new(config)?;
        (s.pend_ecg, s.pend_z) = (r.vec_f64()?, r.vec_f64()?);
        (s.pushed, s.processed) = (r.usize()?, r.usize()?);
        // Every hop reads the same span of both pending buffers, and
        // `push` accounts for each buffered sample exactly once.
        if s.pend_ecg.len() != s.pend_z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: s.pend_ecg.len(),
                z_len: s.pend_z.len(),
            });
        }
        if s.processed.checked_add(s.pend_ecg.len()) != Some(s.pushed) {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.pushed",
                value: s.pushed as f64,
                constraint: "must equal processed plus the pending samples",
            });
        }
        (s.last_ecg, s.last_z) = (r.f64()?, r.f64()?);
        (s.z_seen_finite, s.z_sum) = (r.bool()?, r.f64()?);
        s.qrs.decode(&mut r)?;
        s.ecg_ring.decode(&mut r)?;
        s.raw_rs = r.vec_usize()?.into();
        s.last_refined_r = r.opt_usize()?;
        // The detector and the raw-ECG ring see every processed sample,
        // and each raw R the detector confirmed lies behind its clock. An
        // R past it would overflow the refinement-context test on the
        // next hop; a ring ending elsewhere would be sliced out of range.
        if s.qrs.position() != s.processed
            || s.ecg_ring.end() != s.processed
            || s.raw_rs.iter().any(|&r| r >= s.processed)
        {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.raw_rs",
                value: s.qrs.position() as f64,
                constraint:
                    "the QRS clock and raw-ECG ring must end at processed and every raw R precede it",
            });
        }
        s.deriv.decode(&mut r)?;
        s.lp.decode(&mut r)?;
        s.hp.decode(&mut r)?;
        s.delineator.decode(&mut r)?;
        // The conditioned ICG trails the raw input (or is padded to it at
        // a warm restart), so it never reaches past `processed`.
        if s.delineator.samples_end() > s.processed {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.delineator",
                value: s.delineator.samples_end() as f64,
                constraint: "conditioned samples must not run past processed",
            });
        }
        (s.ecg_in_holdover, s.z_in_holdover) = (r.bool()?, r.bool()?);
        s.ecg_mon.decode(&mut r)?;
        s.z_mon.decode(&mut r)?;
        (s.z_ema, s.z_ema_init) = (r.f64()?, r.bool()?);
        let n = r.usize()?;
        s.state_log = VecDeque::with_capacity(r.capacity::<(usize, u8)>(n));
        for _ in 0..n {
            let idx = r.usize()?;
            s.state_log
                .push_back((idx, SignalState::decode_severity(&mut r)?));
        }
        s.restarts = r.vec_usize()?.into();
        s.suppress_before = r.usize()?;
        if !r.at_end() {
            return Err(malformed("trailing bytes"));
        }
        Ok(s)
    }

    /// Re-localises a raw online apex against a local zero-phase FIR
    /// rendering of the surrounding raw ECG — the streaming stand-in for
    /// the batch path's apex on the globally conditioned record. The
    /// local window is wide enough (±0.4 s around a ±0.04 s search) that
    /// the filtered interior is edge-effect free, so the argmax agrees
    /// with the batch apex wherever the slow baseline is locally smooth.
    /// Only the search span of the window's zero-phase rendering is
    /// computed, bitwise equal to filtering the whole window.
    fn refine_r(&mut self, r: usize) -> usize {
        let lo = r.saturating_sub(self.ctx).max(self.ecg_ring.base());
        let hi = (r + self.ctx + 1).min(self.ecg_ring.end());
        if hi <= lo + 2 {
            return r;
        }
        let s_lo = r.saturating_sub(self.search).max(lo);
        let s_hi = (r + self.search + 1).min(hi);
        let span = s_lo - lo..s_hi.saturating_sub(lo);
        let seg = self.ecg_ring.slice(lo, hi);
        if filtfilt_fir_span_into(
            &self.ecg_fir,
            seg,
            span,
            &mut self.refine_work,
            &mut self.refine_buf,
        )
        .is_err()
        {
            return r;
        }
        let mut best = (r, f64::MIN);
        for (i, &v) in (s_lo..).zip(&self.refine_buf) {
            if v > best.1 {
                best = (i, v);
            }
        }
        best.0
    }
}

/// The original windowed streaming engine: re-runs the whole block
/// pipeline over a sliding window (default 20 s) on every 1 s hop.
///
/// Kept as the equivalence oracle and the benchmark baseline for
/// [`BeatStream`]; its per-hop cost grows with the window length where
/// the incremental engine's does not. Buffer trims use
/// [`HistoryRing`]'s amortized compaction instead of the original
/// per-push `Vec::drain`, so even this engine no longer pays O(window)
/// per push (nor a pathological cost when one chunk exceeds the
/// window).
#[derive(Debug, Clone)]
pub struct ReanalysisBeatStream {
    pipeline: Pipeline,
    ecg: HistoryRing,
    z: HistoryRing,
    /// Samples accumulated since the last analysis run.
    pending: usize,
    /// Absolute R index of the last emitted beat.
    last_emitted_r: Option<usize>,
    window_samples: usize,
    hop_samples: usize,
}

impl ReanalysisBeatStream {
    /// Creates a stream with the default 20 s window and 1 s re-analysis
    /// hop.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        Self::with_window(config, 20.0)
    }

    /// Creates a stream with an explicit sliding-window length. The
    /// re-analysis hop stays 1 s; a longer window buys more per-window
    /// context at proportionally more re-filtering per hop — which is
    /// exactly the cost curve the benchmarks contrast with the
    /// incremental engine's window-free O(hop).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors; rejects windows
    /// shorter than 5 s (the pipeline needs several beats per window).
    pub fn with_window(config: PipelineConfig, window_s: f64) -> Result<Self, CoreError> {
        let fs = config.fs;
        let pipeline = Pipeline::new(config)?;
        if !(window_s.is_finite() && window_s >= 5.0) {
            return Err(CoreError::InvalidParameter {
                name: "window_s",
                value: window_s,
                constraint: "must be at least 5 s",
            });
        }
        Ok(Self {
            pipeline,
            ecg: HistoryRing::new(),
            z: HistoryRing::new(),
            pending: 0,
            last_emitted_r: None,
            window_samples: (window_s * fs) as usize,
            hop_samples: fs as usize,
        })
    }

    /// Absolute index of the next sample to be pushed.
    #[must_use]
    pub fn position(&self) -> usize {
        self.ecg.end()
    }

    /// Pushes one chunk of simultaneous samples and returns the beats that
    /// completed since the previous call, in chronological order, with
    /// indices in **absolute** (whole-session) coordinates.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length;
    /// * wrapped stage errors from the underlying pipeline (not-enough-
    ///   beats conditions are treated as "nothing yet", not an error).
    pub fn push(&mut self, ecg: &[f64], z: &[f64]) -> Result<Vec<BeatReport>, CoreError> {
        if ecg.len() != z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: ecg.len(),
                z_len: z.len(),
            });
        }
        self.ecg.extend(ecg);
        self.z.extend(z);
        self.pending += ecg.len();

        // Trim to the sliding window (amortized O(dropped)).
        if self.ecg.len() > self.window_samples {
            let keep_from = self.ecg.end() - self.window_samples;
            self.ecg.discard_before(keep_from);
            self.z.discard_before(keep_from);
        }

        if self.pending < self.hop_samples || self.ecg.len() < 4 * self.hop_samples {
            return Ok(Vec::new());
        }
        self.pending = 0;

        let analysis = match self
            .pipeline
            .analyze(self.ecg.as_slice(), self.z.as_slice())
        {
            Ok(a) => a,
            // A quiet or noisy window simply has nothing to emit yet.
            Err(CoreError::NotEnoughBeats { .. }) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };

        let base = self.ecg.base();
        let fs = self.pipeline.config().fs;
        // Hold back beats whose X could still move when more context
        // arrives (within ~1 s of the window end).
        let settled_end = self.ecg.len().saturating_sub(fs as usize);
        let mut out = Vec::new();
        for b in analysis.beats() {
            let abs_r = base + b.r;
            if b.x >= settled_end {
                continue;
            }
            if self.last_emitted_r.map_or(true, |last| abs_r > last) {
                let mut report = *b;
                report.r = abs_r;
                report.b = base + b.b;
                report.c = base + b.c;
                report.x = base + b.x;
                out.push(report);
            }
        }
        if let Some(last) = out.last() {
            self.last_emitted_r = Some(last.r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    fn recording(seed: u64) -> PairedRecording {
        let population = Population::reference_five();
        PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn streaming_emits_each_beat_once_in_order() {
        let rec = recording(1);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            all.extend(stream.push(e, z).unwrap());
        }
        assert!(all.len() > 20, "only {} beats emitted", all.len());
        for w in all.windows(2) {
            assert!(w[1].r > w[0].r, "duplicate or out-of-order emission");
        }
    }

    #[test]
    fn streaming_matches_batch_analysis() {
        let rec = recording(2);
        let cfg = PipelineConfig::paper_default(250.0);
        let batch = Pipeline::new(cfg)
            .unwrap()
            .analyze(rec.device_ecg(), rec.device_z())
            .unwrap();

        let mut stream = BeatStream::new(cfg).unwrap();
        let mut streamed = Vec::new();
        for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
            streamed.extend(stream.push(e, z).unwrap());
        }
        // Every streamed beat should match a batch beat at (nearly) the
        // same R with similar intervals. Edge beats may differ.
        let mut matched = 0;
        let mut agree = 0;
        for s in &streamed {
            if let Some(b) = batch.beats().iter().find(|b| b.r.abs_diff(s.r) <= 2) {
                matched += 1;
                // Borderline beats may resolve X differently with
                // different window context; the bulk must agree.
                if (b.lvet_s - s.lvet_s).abs() < 0.045 {
                    agree += 1;
                }
            }
        }
        assert!(
            matched as f64 >= 0.9 * streamed.len() as f64,
            "{matched}/{} streamed beats matched batch",
            streamed.len()
        );
        assert!(
            agree as f64 >= 0.85 * matched as f64,
            "only {agree}/{matched} matched beats agree on LVET"
        );
        assert!(streamed.len() as f64 >= 0.75 * batch.beats().len() as f64);
    }

    #[test]
    fn chunk_size_does_not_change_emissions() {
        let rec = recording(3);
        let run = |chunk: usize| -> Vec<usize> {
            let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
            let mut rs = Vec::new();
            for (e, z) in rec
                .device_ecg()
                .chunks(chunk)
                .zip(rec.device_z().chunks(chunk))
            {
                rs.extend(stream.push(e, z).unwrap().into_iter().map(|b| b.r));
            }
            rs
        };
        let small = run(50);
        let large = run(500);
        // identical beat sets up to the tail (the last partial hop)
        let common = small.len().min(large.len());
        assert!(common > 15);
        assert_eq!(
            &small[..common.min(small.len())],
            &large[..common.min(large.len())]
        );
    }

    #[test]
    fn mismatched_chunks_rejected() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        assert!(stream.push(&[0.0; 10], &[0.0; 9]).is_err());
    }

    #[test]
    fn position_tracks_pushed_samples() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        stream.push(&[0.0; 100], &[500.0; 100]).unwrap();
        assert_eq!(stream.position(), 100);
        // push enough to exceed any internal buffer and force trimming
        for _ in 0..60 {
            stream.push(&[0.0; 125], &[500.0; 125]).unwrap();
        }
        assert_eq!(stream.position(), 100 + 60 * 125);
    }

    #[test]
    fn reanalysis_stream_emits_each_beat_once_in_order() {
        let rec = recording(1);
        let mut stream = ReanalysisBeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            all.extend(stream.push(e, z).unwrap());
        }
        assert!(all.len() > 20, "only {} beats emitted", all.len());
        for w in all.windows(2) {
            assert!(w[1].r > w[0].r, "duplicate or out-of-order emission");
        }
    }

    #[test]
    fn engines_agree_on_the_bulk_of_beats() {
        let rec = recording(2);
        let cfg = PipelineConfig::paper_default(250.0);
        let run_inc = || {
            let mut s = BeatStream::new(cfg).unwrap();
            let mut v = Vec::new();
            for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
                v.extend(s.push(e, z).unwrap());
            }
            v
        };
        let run_re = || {
            let mut s = ReanalysisBeatStream::new(cfg).unwrap();
            let mut v = Vec::new();
            for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
                v.extend(s.push(e, z).unwrap());
            }
            v
        };
        let inc = run_inc();
        let re = run_re();
        let matched = inc
            .iter()
            .filter(|s| re.iter().any(|b| b.r.abs_diff(s.r) <= 2))
            .count();
        assert!(
            matched as f64 >= 0.85 * inc.len() as f64,
            "{matched}/{} incremental beats matched the windowed engine",
            inc.len()
        );
    }

    #[test]
    fn reanalysis_position_survives_oversized_chunks() {
        let rec = recording(4);
        let mut stream = ReanalysisBeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        // one chunk larger than the whole 20 s window
        let n = 6000;
        let beats = stream
            .push(&rec.device_ecg()[..n], &rec.device_z()[..n])
            .unwrap();
        assert_eq!(stream.position(), n);
        assert!(!beats.is_empty());
    }

    #[test]
    fn ladder_declares_lost_then_recovers_and_resumes_beats() {
        let rec = recording(6);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // 3 s of full contact loss (dropout on both channels) at 10 s.
        let (lo, hi) = ((10.0 * fs) as usize, (13.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        let cfg = PipelineConfig::paper_default(fs);
        let mut stream = BeatStream::new(cfg).unwrap();
        let mut all = Vec::new();
        let mut lost_seen_at = None;
        for (k, (e, zc)) in ecg.chunks(125).zip(z.chunks(125)).enumerate() {
            all.extend(stream.push_qualified(e, zc).unwrap());
            let (es, zs) = stream.channel_states();
            let pos = (k + 1) * 125;
            if pos > lo + (cfg.holdover_cap_s * fs) as usize + 125 && pos < hi {
                assert_eq!(es, SignalState::Lost, "ecg must be lost at {pos}");
                assert_eq!(zs, SignalState::Lost, "z must be lost at {pos}");
                lost_seen_at.get_or_insert(pos);
            }
        }
        // Lost was entered within the holdover cap of the onset.
        assert!(lost_seen_at.is_some(), "never observed Lost during the gap");
        // Contact returned 17 s before the end: both channels re-locked.
        let (es, zs) = stream.channel_states();
        assert_eq!(es, SignalState::Good);
        assert_eq!(zs, SignalState::Good);
        // Beats resumed after restoration, none spanning the gap, and no
        // non-finite parameter anywhere.
        let after = all.iter().filter(|q| q.report.r > hi).count();
        assert!(after >= 5, "only {after} beats after contact returned");
        for q in &all {
            assert!(
                q.report.r >= hi || q.report.x < lo,
                "beat [{}, {}] overlaps the loss window",
                q.report.r,
                q.report.x
            );
            assert!(q.state != SignalState::Lost);
            assert!(q.report.pep_s.is_finite() && q.report.lvet_s.is_finite());
            assert!(q.report.sv_kubicek_ml.is_finite() && q.report.co_l_per_min.is_finite());
        }
    }

    #[test]
    fn push_qualified_on_clean_input_is_all_good_and_matches_push() {
        let rec = recording(7);
        let cfg = PipelineConfig::paper_default(250.0);
        let mut qual_stream = BeatStream::new(cfg).unwrap();
        let mut plain_stream = BeatStream::new(cfg).unwrap();
        let mut qual = Vec::new();
        let mut plain = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            qual.extend(qual_stream.push_qualified(e, z).unwrap());
            plain.extend(plain_stream.push(e, z).unwrap());
        }
        assert_eq!(qual.len(), plain.len());
        for (q, p) in qual.iter().zip(&plain) {
            assert_eq!(q.state, SignalState::Good);
            assert_eq!(q.report, *p, "clean-path reports must be bit-identical");
        }
        // SQI wiring: once the template warms, beats carry a confidence.
        let scored = qual.iter().filter(|q| q.sqi.is_some()).count();
        assert!(
            scored >= qual.len().saturating_sub(4),
            "{scored}/{}",
            qual.len()
        );
    }

    #[test]
    fn flatline_contact_loss_is_detected_without_nonfinite_samples() {
        let rec = recording(8);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // Finger lift modeled as a hard rail: perfectly flat, finite.
        let (lo, hi) = ((12.0 * fs) as usize, (15.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = 0.0;
            z[i] = 430.0;
        }
        let mut stream = BeatStream::new(PipelineConfig::paper_default(fs)).unwrap();
        let mut saw_lost = false;
        for (e, zc) in ecg.chunks(250).zip(z.chunks(250)) {
            stream.push_qualified(e, zc).unwrap();
            let (es, zs) = stream.channel_states();
            saw_lost |= es == SignalState::Lost && zs == SignalState::Lost;
        }
        assert!(saw_lost, "flatline must trip the ladder without any NaN");
        let (es, zs) = stream.channel_states();
        assert_eq!((es, zs), (SignalState::Good, SignalState::Good));
    }

    #[test]
    fn worst_state_queries_the_transition_log() {
        let mut log = VecDeque::new();
        assert_eq!(worst_state(&log, 0, 100), SignalState::Good);
        log.push_back((50, SignalState::Degraded.severity()));
        log.push_back((80, SignalState::Lost.severity()));
        log.push_back((120, SignalState::Good.severity()));
        assert_eq!(worst_state(&log, 0, 40), SignalState::Good);
        assert_eq!(worst_state(&log, 0, 60), SignalState::Degraded);
        assert_eq!(worst_state(&log, 60, 90), SignalState::Lost);
        assert_eq!(worst_state(&log, 130, 200), SignalState::Good);
        assert_eq!(worst_state(&log, 90, 130), SignalState::Lost);
    }

    #[test]
    fn snapshot_restore_resumes_bitwise_including_faults() {
        let rec = recording(9);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // A contact loss mid-record so ladder/restart/suppression state
        // is live at the migration point.
        let (lo, hi) = ((9.0 * fs) as usize, (12.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        let cfg = PipelineConfig::paper_default(fs);
        let qkey = |q: &QualifiedBeat| {
            (
                q.report.r,
                q.report.pep_s.to_bits(),
                q.report.lvet_s.to_bits(),
                q.report.sv_kubicek_ml.to_bits(),
                q.report.co_l_per_min.to_bits(),
                q.state,
                q.sqi.map(f64::to_bits),
            )
        };

        let mut reference = BeatStream::new(cfg).unwrap();
        let mut ref_out = Vec::new();
        for (e, zc) in ecg.chunks(125).zip(z.chunks(125)) {
            ref_out.extend(reference.push_qualified(e, zc).unwrap());
        }
        assert!(ref_out.len() > 10);

        // Migrate at an uneven chunk boundary inside the fault window —
        // through the full byte codec, as the fleet's live path does.
        let split = 125 * 20; // 10 s in, mid-loss
        let mut first = BeatStream::new(cfg).unwrap();
        let mut out = Vec::new();
        for (e, zc) in ecg[..split].chunks(125).zip(z[..split].chunks(125)) {
            out.extend(first.push_qualified(e, zc).unwrap());
        }
        let bytes = first.snapshot().to_bytes();
        let snap = crate::snapshot::BeatStreamSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = BeatStream::restore(cfg, &snap).unwrap();
        assert_eq!(resumed.position(), split);
        assert_eq!(resumed.channel_states(), first.channel_states());
        for (e, zc) in ecg[split..].chunks(125).zip(z[split..].chunks(125)) {
            out.extend(resumed.push_qualified(e, zc).unwrap());
        }
        assert_eq!(out.len(), ref_out.len());
        for (a, b) in out.iter().zip(&ref_out) {
            assert_eq!(qkey(a), qkey(b));
        }
    }

    /// The full-window refinement oracle: filter the whole ±0.4 s window
    /// with `filtfilt_fir_into`, then argmax over the ±40 ms search.
    /// Returns the refined R and the filtered search span.
    fn refine_r_full_window(s: &BeatStream, r: usize) -> (usize, Vec<f64>) {
        use cardiotouch_dsp::zero_phase::{filtfilt_fir_into, ZeroPhaseScratch};
        let lo = r.saturating_sub(s.ctx).max(s.ecg_ring.base());
        let hi = (r + s.ctx + 1).min(s.ecg_ring.end());
        let mut y = Vec::new();
        if hi <= lo + 2
            || filtfilt_fir_into(
                &s.ecg_fir,
                s.ecg_ring.slice(lo, hi),
                &mut ZeroPhaseScratch::new(),
                &mut y,
            )
            .is_err()
        {
            return (r, Vec::new());
        }
        let s_lo = r.saturating_sub(s.search).max(lo);
        let s_hi = (r + s.search + 1).min(hi);
        let mut best = (r, f64::MIN);
        for i in s_lo..s_hi {
            if y[i - lo] > best.1 {
                best = (i, y[i - lo]);
            }
        }
        (best.0, y[s_lo - lo..s_hi - lo].to_vec())
    }

    #[test]
    fn span_refinement_matches_full_window_oracle() {
        let rec = recording(6);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // 3 s of contact loss at 10 s: the ladder goes Lost, and the
        // warm restart on recovery re-arms online detection.
        let (loss_lo, loss_hi) = ((10.0 * fs) as usize, (13.0 * fs) as usize);
        for i in loss_lo..loss_hi {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        let mut stream = BeatStream::new(PipelineConfig::paper_default(fs)).unwrap();
        let (hop, ctx) = (stream.hop, stream.ctx);
        let mut refined_rs = Vec::new();
        let mut checked = 0;
        let mut saw_lost = false;
        for (e, zc) in ecg.chunks(hop).zip(z.chunks(hop)) {
            stream.push_qualified(e, zc).unwrap();
            saw_lost |= stream.channel_states().0 == SignalState::Lost;
            refined_rs.extend(stream.last_refined_r);
            // Every apex position that became refinable in this hop —
            // a superset of the raw Rs `finish_hop` refined — sees the
            // same ring the hop refined against: the ring end is the
            // hop head and pruning stops short of the ±0.4 s window.
            let head = stream.processed;
            for r in head.saturating_sub(hop + ctx)..head.saturating_sub(ctx) {
                let (want, want_span) = refine_r_full_window(&stream, r);
                assert_eq!(stream.refine_r(r), want, "apex {r}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&stream.refine_buf), bits(&want_span), "apex {r}");
                checked += 1;
            }
        }
        // Every position was checked once: from the first sample, where
        // the window clamps to the ring base and, below 0.17 s, odd
        // reflection enters the search span's cone (the online detector
        // is still learning there, so only the superset reaches it),
        // through the restart to the last refinable apex.
        assert_eq!(checked, ecg.len() - ctx);
        assert!(saw_lost, "the loss must trip the ladder");
        assert!(
            refined_rs.iter().any(|&r| r < loss_lo) && refined_rs.iter().any(|&r| r > loss_hi),
            "Rs must be refined on both sides of the restart: {refined_rs:?}"
        );
    }

    #[test]
    fn restore_rejects_mismatched_fs() {
        let snap = BeatStream::new(PipelineConfig::paper_default(250.0))
            .unwrap()
            .snapshot();
        assert!(BeatStream::restore(PipelineConfig::paper_default(500.0), &snap).is_err());
    }

    /// A stream 11.5 s into `recording(1)`, mid-hop: both channels
    /// dropped to NaN at 9 s, the ECG came back at 11 s and is
    /// recovering with its warm restart queued, and the Z is still lost.
    fn mid_loss_stream() -> (BeatStream, Vec<f64>, Vec<f64>) {
        let rec = recording(1);
        let (mut ecg, mut z) = (rec.device_ecg().to_vec(), rec.device_z().to_vec());
        ecg[2250..2750].fill(f64::NAN);
        z[2250..3000].fill(f64::NAN);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        for (e, zc) in ecg[..2875].chunks(125).zip(z[..2875].chunks(125)) {
            stream.push_qualified(e, zc).unwrap();
        }
        assert_eq!(
            stream.channel_states(),
            (SignalState::Recovering, SignalState::Lost)
        );
        assert!(!stream.restarts.is_empty());
        (stream, ecg, z)
    }

    /// Restores `bytes` under the paper configuration.
    fn restore_bytes(bytes: &[u8]) -> Result<BeatStream, CoreError> {
        let snap = BeatStreamSnapshot::from_bytes(bytes)?;
        BeatStream::restore(PipelineConfig::paper_default(250.0), &snap)
    }

    /// Restores `bytes` and pushes the hop that follows them.
    fn restore_and_push_a_hop(bytes: &[u8], ecg: &[f64], z: &[f64]) {
        let mut s = restore_bytes(bytes).unwrap();
        let at = s.position();
        s.push_qualified(&ecg[at..at + s.hop], &z[at..at + s.hop])
            .unwrap();
        assert_eq!(s.position(), at + s.hop);
    }

    /// `bytes` with the single occurrence of `part` replaced by `with`.
    fn splice(bytes: &[u8], part: &[u8], with: &[u8]) -> Vec<u8> {
        let at: Vec<usize> = (0..=bytes.len() - part.len())
            .filter(|&i| bytes[i..].starts_with(part))
            .collect();
        assert_eq!(at.len(), 1, "the part must occur once");
        [&bytes[..at[0]], with, &bytes[at[0] + part.len()..]].concat()
    }

    fn encoded(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn kernel_decode_errors_surface_as_their_crate_errors() {
        let (stream, ..) = mid_loss_stream();
        let good = stream.snapshot().into_bytes();
        assert!(restore_bytes(&good).is_ok());

        // A corrupt checkpoint whose HP tail is far longer than any real
        // stage holds between calls (every later block would run a
        // backward pass over it).
        let mut inflated = stream.clone();
        let hp = design_cache::butterworth_highpass(2, 0.4, 250.0).unwrap();
        inflated.hp = StreamingZeroPhase::new(hp, 100_000, 625, 125).aligned_to(26);
        inflated.hp.push_chunk(&vec![1.0; 50_000], &mut Vec::new());
        assert!(matches!(
            restore_bytes(&inflated.snapshot().into_bytes()),
            Err(CoreError::Dsp(_))
        ));
        // A detector designed for another sampling rate.
        let mut wrong_fs = stream.clone();
        wrong_fs.qrs = OnlinePanTompkins::new(500.0).unwrap();
        assert!(matches!(
            restore_bytes(&wrong_fs.snapshot().into_bytes()),
            Err(CoreError::Ecg(_))
        ));
        // A delineator queue out of order.
        let delineator = encoded(|w| stream.delineator.encode(w));
        let unordered = encoded(|w| {
            w.usize(0);
            w.f64s(&[]);
            w.usizes([5, 3].iter());
            w.f64s(&[]);
            w.usize(0);
            w.f64(0.0);
            w.u64(0);
        });
        assert!(matches!(
            restore_bytes(&splice(&good, &delineator, &unordered)),
            Err(CoreError::Icg(_))
        ));
    }

    #[test]
    fn restore_rejects_a_ladder_severity_past_lost() {
        let (stream, ecg, z) = mid_loss_stream();
        let good = stream.snapshot().into_bytes();
        let z_mon = encoded(|w| stream.z_mon.encode(w));
        assert_eq!(z_mon[0], SignalState::Lost.severity());
        let log = encoded(|w| {
            for &(idx, sev) in &stream.state_log {
                w.usize(idx);
                w.u8(sev);
            }
        });
        let with_severity = |part: &[u8], at: usize, sev: u8| {
            let mut forged = part.to_vec();
            forged[at] = sev;
            splice(&good, part, &forged)
        };
        let last_sev = log.len() - 1;
        for (part, at) in [(&z_mon, 0), (&log, last_sev)] {
            // The ladder tops out at 3 (`Lost`), the bytes' own value; a
            // 4 must be refused rather than read as `Lost`.
            assert!(matches!(
                restore_bytes(&with_severity(part, at, 4)),
                Err(CoreError::InvalidParameter {
                    name: "snapshot.severity",
                    ..
                })
            ));
            restore_and_push_a_hop(&with_severity(part, at, 3), &ecg, &z);
        }
    }

    #[test]
    fn restore_rejects_a_raw_ecg_ring_off_the_clock() {
        let (stream, ecg, z) = mid_loss_stream();
        let good = stream.snapshot().into_bytes();
        let ring = encoded(|w| stream.ecg_ring.encode(w));
        let rebased = |base: usize| {
            let mut forged = ring.clone();
            forged[..8].copy_from_slice(&(base as u64).to_le_bytes());
            splice(&good, &ring, &forged)
        };
        let (base, len) = (stream.ecg_ring.base(), stream.ecg_ring.len());
        // An end past the index range fails in the ring's own decode.
        assert!(matches!(
            restore_bytes(&rebased(usize::MAX - len + 1)),
            Err(CoreError::Dsp(_))
        ));
        // A ring that does not end at `processed` would let refinement
        // slice past it (a base pushed up reaches `slice`'s assert).
        for forged in [
            rebased(usize::MAX - len),
            rebased(base + 1),
            rebased(base - 1),
        ] {
            assert!(matches!(
                restore_bytes(&forged),
                Err(CoreError::InvalidParameter {
                    name: "snapshot.raw_rs",
                    ..
                })
            ));
        }
        // The neighbour that drops the oldest sample still ends at
        // `processed`: it restores and keeps refining.
        let mut trimmed = stream.clone();
        trimmed.ecg_ring.discard_before(base + 1);
        restore_and_push_a_hop(&trimmed.snapshot().into_bytes(), &ecg, &z);
        restore_and_push_a_hop(&good, &ecg, &z);
    }

    #[test]
    fn restore_rejects_forged_qrs_clock() {
        let rec = recording(1);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        stream
            .push(&rec.device_ecg()[..2500], &rec.device_z()[..2500])
            .unwrap();
        let forged = |forge: &dyn Fn(&mut BeatStream)| {
            let mut s = stream.clone();
            forge(&mut s);
            s.snapshot().into_bytes()
        };
        // The stream's own queue of raw Rs awaiting refinement context
        // must sit behind the detector clock: one near `usize::MAX` would
        // overflow `r + ctx` on the next hop. The clock itself must be
        // the stream's, and no conditioned ICG may run ahead of it.
        let bad = [
            forged(&|s| s.raw_rs = [usize::MAX - 10].into()),
            forged(&|s| s.raw_rs = [s.processed].into()),
            forged(&|s| s.qrs.push_chunk(&[0.0], |_| {})),
            forged(&|s| s.delineator.pad_to(s.processed + 1)),
        ];
        for bytes in &bad {
            assert!(matches!(
                restore_bytes(bytes),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
        let ok = [
            forged(&|s| s.raw_rs = [s.processed - 1].into()),
            forged(&|s| s.delineator.pad_to(s.processed)),
        ];
        for bytes in &ok {
            restore_and_push_a_hop(bytes, rec.device_ecg(), rec.device_z());
        }
    }

    #[test]
    fn restore_rejects_inconsistent_pending_buffers() {
        let rec = recording(1);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        stream
            .push(&rec.device_ecg()[..2600], &rec.device_z()[..2600])
            .unwrap();
        assert_eq!(stream.pend_ecg.len(), 100);

        // Pending buffers of unequal length would index past the short
        // one on the next completed hop; a pushed count that disagrees
        // with them would misplace every later sample index.
        let mut short_z = stream.clone();
        short_z.pend_z.clear();
        assert!(matches!(
            restore_bytes(&short_z.snapshot().into_bytes()),
            Err(CoreError::ChannelLengthMismatch {
                ecg_len: 100,
                z_len: 0
            })
        ));
        let mut short_count = stream.clone();
        short_count.pushed -= 1;
        assert!(matches!(
            restore_bytes(&short_count.snapshot().into_bytes()),
            Err(CoreError::InvalidParameter {
                name: "snapshot.pushed",
                ..
            })
        ));

        // A rejected snapshot leaves nothing half-restored; the good one
        // still resumes and keeps pushing.
        let mut resumed = restore_bytes(&stream.snapshot().into_bytes()).unwrap();
        resumed
            .push(&rec.device_ecg()[2600..2750], &rec.device_z()[2600..2750])
            .unwrap();
    }

    #[test]
    fn nan_and_saturated_samples_do_not_panic_or_emit_garbage() {
        let rec = recording(5);
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // a NaN burst, an infinite spike and a saturated plateau
        for i in 2000..2050 {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        ecg[3000] = f64::INFINITY;
        z[3100] = f64::NEG_INFINITY;
        for i in 4000..4100 {
            ecg[i] = 1.0e6;
            z[i] = 1.0e6;
        }
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, zc) in ecg.chunks(125).zip(z.chunks(125)) {
            all.extend(stream.push(e, zc).unwrap());
        }
        // the stream must keep running and still find clean-region beats
        assert!(all.len() > 5, "only {} beats after glitches", all.len());
        for b in &all {
            assert!(b.pep_s.is_finite() && b.lvet_s.is_finite());
            assert!(b.dzdt_max.is_finite());
            assert!(b.sv_kubicek_ml.is_finite() && b.co_l_per_min.is_finite());
            assert!(b.r < b.b && b.b < b.c && b.c < b.x);
        }
    }
}

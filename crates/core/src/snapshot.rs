//! Serializable [`BeatStream`](crate::stream::BeatStream) state.
//!
//! A [`BeatStreamSnapshot`] is the complete mutable state of the
//! incremental engine — every filter delay line, ring buffer, adaptive
//! threshold, ladder counter and holdover flag — captured between two
//! `push` calls. Restoring it into a freshly constructed stream (same
//! [`PipelineConfig`](crate::config::PipelineConfig)) resumes the
//! session **bitwise identically** to one that never paused, which is
//! what lets the fleet layer migrate live sessions between shards and
//! recover them after a crash.
//!
//! Two invariants keep snapshots small and exact:
//!
//! * **No coefficients.** Filter designs are pure functions of the
//!   configuration and live behind shared `Arc`s from
//!   [`cardiotouch_dsp::design_cache`]; the restoring side re-derives
//!   them. Only the per-session mutable floats travel.
//! * **Bit-exact floats.** The wire codec stores every `f64` as its
//!   IEEE-754 bit pattern ([`f64::to_bits`]), so serialization can
//!   never perturb the resumed stream — the conformance migration leg
//!   and the round-trip proptest both pin this.
//!
//! The wire format is a little-endian, length-prefixed byte stream with
//! a magic/version header ([`BeatStreamSnapshot::to_bytes`] /
//! [`BeatStreamSnapshot::from_bytes`]); it has no external
//! dependencies and is stable within a snapshot version.

use cardiotouch_dsp::streaming::{CascadeState, DerivativeState, HistoryRingState, ZeroPhaseState};
use cardiotouch_ecg::online::PanTompkinsState;
use cardiotouch_icg::online::DelineatorState;
use cardiotouch_icg::strategy::StrategyState;

use crate::CoreError;

/// Wire-format magic: `b"CTSS"` (CardioTouch Stream Snapshot).
const MAGIC: u32 = 0x4354_5353;
/// Wire-format version; bump on any layout or meaning change. v2 added
/// the delineation [`StrategyState`] (adaptive R→B prior) to the
/// delineator block. v3 keeps the v2 layout, but its ICG zero-phase
/// states belong to the hop-aligned block grid and the 0.1 s low-pass
/// settle, so a v2 state restored into the new chain would resume on
/// the wrong grid.
const VERSION: u16 = 3;

/// Mutable state of the per-channel degradation-ladder monitor (see
/// `DESIGN.md §6d`). Derived thresholds are re-computed from the
/// configuration on restore; only the run counters and the machine
/// state travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorState {
    /// Ladder state encoded as severity (0 = Good … 3 = Lost).
    pub severity: u8,
    /// Consecutive suspect samples.
    pub bad_run: usize,
    /// Consecutive clean samples.
    pub good_run: usize,
    /// Consecutive bit-identical raw samples.
    pub flat_run: usize,
    /// Bit pattern of the last observed raw sample.
    pub last_bits: u64,
    /// Whether the current suspect run contained a non-finite sample.
    pub run_had_nonfinite: bool,
}

/// The complete mutable state of a
/// [`BeatStream`](crate::stream::BeatStream), captured by
/// [`BeatStream::snapshot`](crate::stream::BeatStream::snapshot)
/// between two `push` calls. Plain data; every field is public so the
/// codec (and external tooling) can inspect it.
#[derive(Debug, Clone, PartialEq)]
pub struct BeatStreamSnapshot {
    /// Sampling rate the stream was configured with — checked on
    /// restore so a snapshot can never silently resume under a
    /// mismatched design.
    pub fs: f64,
    /// Sanitized raw samples awaiting a complete hop.
    pub pend_ecg: Vec<f64>,
    /// Sanitized raw samples awaiting a complete hop.
    pub pend_z: Vec<f64>,
    /// Absolute count of samples accepted by `push`.
    pub pushed: usize,
    /// Absolute count of samples consumed by the engine.
    pub processed: usize,
    /// Last finite ECG sample (glitch holdover).
    pub last_ecg: f64,
    /// Last finite impedance sample (glitch holdover).
    pub last_z: f64,
    /// Whether any finite impedance sample has been seen.
    pub z_seen_finite: bool,
    /// Running sum of processed Z for the Z0 estimate.
    pub z_sum: f64,
    /// Online Pan–Tompkins detector state.
    pub qrs: PanTompkinsState,
    /// Raw-ECG history for apex refinement.
    pub ecg_ring: HistoryRingState,
    /// Confirmed raw-apex R peaks awaiting refinement context.
    pub raw_rs: Vec<usize>,
    /// Absolute index of the last refined R handed to the delineator.
    pub last_refined_r: Option<usize>,
    /// Streaming derivative state.
    pub deriv: DerivativeState,
    /// 20 Hz low-pass zero-phase stage state.
    pub lp: ZeroPhaseState,
    /// 0.4 Hz high-pass zero-phase stage state.
    pub hp: ZeroPhaseState,
    /// Incremental B/C/X delineator state.
    pub delineator: DelineatorState,
    /// ECG channel currently bridging a glitch.
    pub ecg_in_holdover: bool,
    /// Z channel currently bridging a glitch.
    pub z_in_holdover: bool,
    /// ECG degradation-ladder monitor state.
    pub ecg_mon: MonitorState,
    /// Z degradation-ladder monitor state.
    pub z_mon: MonitorState,
    /// Slow EMA of clean impedance (the neutral fill during a loss).
    pub z_ema: f64,
    /// Whether the EMA has been seeded.
    pub z_ema_init: bool,
    /// Combined-severity transition log `(absolute sample, severity)`.
    pub state_log: Vec<(usize, u8)>,
    /// Pending warm-restart sample indices.
    pub restarts: Vec<usize>,
    /// Beats with R before this index are suppressed (re-lock window).
    pub suppress_before: usize,
}

impl BeatStreamSnapshot {
    /// Serializes the snapshot to the dependency-free wire format.
    /// Floats travel as IEEE-754 bit patterns, so
    /// `from_bytes(&to_bytes())` reproduces the snapshot exactly.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u16(VERSION);
        w.f64(self.fs);
        w.vec_f64(&self.pend_ecg);
        w.vec_f64(&self.pend_z);
        w.usize(self.pushed);
        w.usize(self.processed);
        w.f64(self.last_ecg);
        w.f64(self.last_z);
        w.bool(self.z_seen_finite);
        w.f64(self.z_sum);
        // --- qrs ---
        w.usize(self.qrs.sections.len());
        for s in &self.qrs.sections {
            w.f64(s.s1);
            w.f64(s.s2);
        }
        for &v in &self.qrs.bp_hist {
            w.f64(v);
        }
        w.vec_f64(&self.qrs.mwi_buf);
        w.usize(self.qrs.mwi_pos);
        w.f64(self.qrs.mwi_sum);
        for &v in &self.qrs.mwi_hist {
            w.f64(v);
        }
        w.vec_f64(&self.qrs.raw_ring);
        w.f64(self.qrs.spki);
        w.f64(self.qrs.npki);
        w.usize(self.qrs.sample_idx);
        w.opt_usize(self.qrs.last_r);
        w.opt_usize(self.qrs.pending);
        w.usize(self.qrs.warmup);
        // --- rings and kernels ---
        w.usize(self.ecg_ring.base);
        w.vec_f64(&self.ecg_ring.samples);
        w.vec_usize(&self.raw_rs);
        w.opt_usize(self.last_refined_r);
        w.f64(self.deriv.prev);
        w.f64(self.deriv.prev2);
        w.usize(self.deriv.seen);
        w.zero_phase(&self.lp);
        w.zero_phase(&self.hp);
        // --- delineator ---
        w.usize(self.delineator.ring.base);
        w.vec_f64(&self.delineator.ring.samples);
        w.vec_usize(&self.delineator.rs);
        w.vec_f64(&self.delineator.template);
        w.usize(self.delineator.template_beats);
        w.f64(self.delineator.strategy.rb_ema_s);
        w.u64(self.delineator.strategy.rb_beats);
        // --- ladder ---
        w.bool(self.ecg_in_holdover);
        w.bool(self.z_in_holdover);
        w.monitor(&self.ecg_mon);
        w.monitor(&self.z_mon);
        w.f64(self.z_ema);
        w.bool(self.z_ema_init);
        w.usize(self.state_log.len());
        for &(idx, sev) in &self.state_log {
            w.usize(idx);
            w.buf.push(sev);
        }
        w.vec_usize(&self.restarts);
        w.usize(self.suppress_before);
        w.buf
    }

    /// Deserializes a snapshot produced by
    /// [`BeatStreamSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the bytes are truncated,
    /// carry the wrong magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(malformed("magic mismatch"));
        }
        if r.u16()? != VERSION {
            return Err(malformed("unsupported snapshot version"));
        }
        let fs = r.f64()?;
        let pend_ecg = r.vec_f64()?;
        let pend_z = r.vec_f64()?;
        let pushed = r.usize()?;
        let processed = r.usize()?;
        let last_ecg = r.f64()?;
        let last_z = r.f64()?;
        let z_seen_finite = r.bool()?;
        let z_sum = r.f64()?;
        let n_sections = r.usize()?;
        let mut sections = Vec::with_capacity(n_sections.min(64));
        for _ in 0..n_sections {
            sections.push(cardiotouch_dsp::streaming::BiquadState {
                s1: r.f64()?,
                s2: r.f64()?,
            });
        }
        let mut bp_hist = [0.0; 5];
        for v in &mut bp_hist {
            *v = r.f64()?;
        }
        let mwi_buf = r.vec_f64()?;
        let mwi_pos = r.usize()?;
        let mwi_sum = r.f64()?;
        let mut mwi_hist = [0.0; 3];
        for v in &mut mwi_hist {
            *v = r.f64()?;
        }
        let qrs = PanTompkinsState {
            sections,
            bp_hist,
            mwi_buf,
            mwi_pos,
            mwi_sum,
            mwi_hist,
            raw_ring: r.vec_f64()?,
            spki: r.f64()?,
            npki: r.f64()?,
            sample_idx: r.usize()?,
            last_r: r.opt_usize()?,
            pending: r.opt_usize()?,
            warmup: r.usize()?,
        };
        let ecg_ring = HistoryRingState {
            base: r.usize()?,
            samples: r.vec_f64()?,
        };
        let raw_rs = r.vec_usize()?;
        let last_refined_r = r.opt_usize()?;
        let deriv = DerivativeState {
            prev: r.f64()?,
            prev2: r.f64()?,
            seen: r.usize()?,
        };
        let lp = r.zero_phase()?;
        let hp = r.zero_phase()?;
        let delineator = DelineatorState {
            ring: HistoryRingState {
                base: r.usize()?,
                samples: r.vec_f64()?,
            },
            rs: r.vec_usize()?,
            template: r.vec_f64()?,
            template_beats: r.usize()?,
            strategy: StrategyState {
                rb_ema_s: r.f64()?,
                rb_beats: r.u64()?,
            },
        };
        let ecg_in_holdover = r.bool()?;
        let z_in_holdover = r.bool()?;
        let ecg_mon = r.monitor()?;
        let z_mon = r.monitor()?;
        let z_ema = r.f64()?;
        let z_ema_init = r.bool()?;
        let n_log = r.usize()?;
        let mut state_log = Vec::with_capacity(n_log.min(1024));
        for _ in 0..n_log {
            let idx = r.usize()?;
            let sev = r.u8()?;
            state_log.push((idx, sev));
        }
        let restarts = r.vec_usize()?;
        let suppress_before = r.usize()?;
        if !r.at_end() {
            return Err(malformed("trailing bytes"));
        }
        Ok(Self {
            fs,
            pend_ecg,
            pend_z,
            pushed,
            processed,
            last_ecg,
            last_z,
            z_seen_finite,
            z_sum,
            qrs,
            ecg_ring,
            raw_rs,
            last_refined_r,
            deriv,
            lp,
            hp,
            delineator,
            ecg_in_holdover,
            z_in_holdover,
            ecg_mon,
            z_mon,
            z_ema,
            z_ema_init,
            state_log,
            restarts,
            suppress_before,
        })
    }
}

fn malformed(constraint: &'static str) -> CoreError {
    CoreError::InvalidParameter {
        name: "snapshot_bytes",
        value: 0.0,
        constraint,
    }
}

/// Little-endian byte writer for the snapshot wire format.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.buf.push(1);
                self.usize(x);
            }
            None => self.buf.push(0),
        }
    }

    fn vec_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    fn vec_usize(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    fn cascade(&mut self, s: &CascadeState) {
        self.usize(s.sections.len());
        for &(s1, s2) in &s.sections {
            self.f64(s1);
            self.f64(s2);
        }
    }

    fn zero_phase(&mut self, s: &ZeroPhaseState) {
        self.cascade(&s.forward);
        self.vec_f64(&s.pending);
        self.vec_f64(&s.tail);
        self.bool(s.primed);
    }

    fn monitor(&mut self, m: &MonitorState) {
        self.buf.push(m.severity);
        self.usize(m.bad_run);
        self.usize(m.good_run);
        self.usize(m.flat_run);
        self.u64(m.last_bits);
        self.bool(m.run_had_nonfinite);
    }
}

/// Bounds-checked little-endian reader for the snapshot wire format.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, CoreError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("index overflows usize"))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CoreError> {
        Ok(self.u8()? != 0)
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, CoreError> {
        if self.u8()? == 0 {
            Ok(None)
        } else {
            Ok(Some(self.usize()?))
        }
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>, CoreError> {
        let n = self.usize()?;
        // Bound the pre-allocation by what the buffer could possibly
        // hold, so a corrupt length cannot trigger a huge reservation.
        let mut v = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn vec_usize(&mut self) -> Result<Vec<usize>, CoreError> {
        let n = self.usize()?;
        let mut v = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            v.push(self.usize()?);
        }
        Ok(v)
    }

    fn cascade(&mut self) -> Result<CascadeState, CoreError> {
        let n = self.usize()?;
        let mut sections = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            sections.push((self.f64()?, self.f64()?));
        }
        Ok(CascadeState { sections })
    }

    fn zero_phase(&mut self) -> Result<ZeroPhaseState, CoreError> {
        Ok(ZeroPhaseState {
            forward: self.cascade()?,
            pending: self.vec_f64()?,
            tail: self.vec_f64()?,
            primed: self.bool()?,
        })
    }

    fn monitor(&mut self) -> Result<MonitorState, CoreError> {
        Ok(MonitorState {
            severity: self.u8()?,
            bad_run: self.usize()?,
            good_run: self.usize()?,
            flat_run: self.usize()?,
            last_bits: self.u64()?,
            run_had_nonfinite: self.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::stream::BeatStream;

    #[test]
    fn bytes_round_trip_is_exact() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        // Push irregular chunks, including a NaN burst so holdover and
        // ladder fields are non-trivial.
        let mut e = vec![0.4; 700];
        let mut z = vec![470.0; 700];
        for i in 300..340 {
            e[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        for i in 0..700 {
            e[i] += (i as f64 * 0.37).sin();
            z[i] += (i as f64 * 0.11).cos();
        }
        stream.push(&e, &z).unwrap();
        let snap = stream.snapshot();
        let bytes = snap.to_bytes();
        let back = BeatStreamSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let snap = BeatStream::new(PipelineConfig::paper_default(250.0))
            .unwrap()
            .snapshot();
        let bytes = snap.to_bytes();
        assert!(BeatStreamSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(BeatStreamSnapshot::from_bytes(&[]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(BeatStreamSnapshot::from_bytes(&wrong_magic).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(BeatStreamSnapshot::from_bytes(&trailing).is_err());
    }

    /// A stream one hop in, its snapshot encoded.
    fn one_hop_bytes() -> Vec<u8> {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let e: Vec<f64> = (0..300).map(|i| (f64::from(i) * 0.37).sin()).collect();
        let z: Vec<f64> = (0..300)
            .map(|i| 470.0 + (f64::from(i) * 0.11).cos())
            .collect();
        stream.push(&e, &z).unwrap();
        stream.snapshot().to_bytes()
    }

    #[test]
    fn previous_version_is_refused() {
        let mut bytes = one_hop_bytes();
        for old in [1u16, 2] {
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                BeatStreamSnapshot::from_bytes(&bytes),
                Err(CoreError::InvalidParameter {
                    name: "snapshot_bytes",
                    constraint: "unsupported snapshot version",
                    ..
                })
            ));
        }
        bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        assert!(BeatStreamSnapshot::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn zero_phase_geometry_off_the_aligned_grid_is_refused() {
        let config = PipelineConfig::paper_default(250.0);
        let snap = BeatStreamSnapshot::from_bytes(&one_hop_bytes()).unwrap();
        // One hop in, both stages have run their shortened first block
        // (LP 124 samples, HP 99): nothing pending, tails within settle.
        assert!(snap.lp.primed && snap.hp.primed);
        assert_eq!((snap.lp.pending.len(), snap.hp.pending.len()), (0, 0));
        assert_eq!((snap.lp.tail.len(), snap.hp.tail.len()), (25, 224));
        let restore = |snap: &BeatStreamSnapshot| {
            let bytes = snap.to_bytes();
            BeatStream::restore(config, &BeatStreamSnapshot::from_bytes(&bytes).unwrap())
        };
        assert!(restore(&snap).is_ok());

        // An unprimed stage may hold less than its first block, never a
        // whole one.
        for (lp, first) in [(true, 124), (false, 99)] {
            let mut forged = snap.clone();
            let stage = if lp { &mut forged.lp } else { &mut forged.hp };
            stage.primed = false;
            stage.tail.clear();
            stage.pending = vec![0.0; first - 1];
            assert!(restore(&forged).is_ok(), "lp={lp}");
            let stage = if lp { &mut forged.lp } else { &mut forged.hp };
            stage.pending.push(0.0);
            assert!(
                matches!(restore(&forged), Err(CoreError::Dsp(_))),
                "lp={lp}: a whole first block pending"
            );
        }
        // The LP tail is bounded by its 0.1 s settle.
        let mut forged = snap;
        forged.lp.tail.push(0.0);
        assert!(matches!(restore(&forged), Err(CoreError::Dsp(_))));
    }
}

//! Causal, sample-by-sample Pan–Tompkins QRS detection.
//!
//! [`crate::pan_tompkins`] processes whole records with zero-phase
//! filters — right for the retrospective analyses of the paper's
//! evaluation. The *firmware* (Fig 3), however, sees one ADC sample at a
//! time and must flag each R peak within a bounded latency so the ICG
//! beat processing can start. [`OnlinePanTompkins`] is that detector: a
//! per-sample state machine with causal filters, the original adaptive
//! dual thresholds, and R-apex localisation against a short raw-signal
//! ring buffer. Detections are emitted at most
//! [`OnlinePanTompkins::MAX_LATENCY_S`] after the apex.
//!
//! [`OnlinePanTompkins::push_chunk`] is the kernel; `push` is a
//! one-sample call to it. A chunk runs as one sample loop over locals:
//! the high-pass and low-pass band-pass sections in registers as a pair,
//! the derivative and MWI histories shifted in registers, and the raw and
//! MWI rings advanced by compare-and-wrap. Its output and end state are
//! bitwise those of the per-sample loop at any chunking (pinned by the
//! `oracle_` property in `tests/properties.rs`). The streaming engine
//! calls it once per 1 s hop.

use crate::EcgError;
use cardiotouch_dsp::codec::{Reader, Writer};
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::iir::Biquad;

/// The streaming QRS detector.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePanTompkins {
    fs: f64,
    /// The 5–15 Hz band-pass: its high-pass and low-pass sections.
    sections: [Biquad; 2],
    /// Direct-form-II-transposed `(s1, s2)` registers of `sections`.
    bp_state: [(f64, f64); 2],
    /// last 5 band-passed samples for the derivative kernel
    bp_hist: [f64; 5],
    /// moving-window-integration ring buffer of squared samples
    mwi_buf: Vec<f64>,
    mwi_pos: usize,
    mwi_sum: f64,
    /// last 3 MWI values for local-max detection
    mwi_hist: [f64; 3],
    /// raw-signal ring for apex localisation
    raw_ring: Vec<f64>,
    spki: f64,
    npki: f64,
    sample_idx: usize,
    last_r: Option<usize>,
    refractory: usize,
    /// pending candidate: (mwi peak index, deadline for confirmation)
    pending: Option<usize>,
    warmup: usize,
    /// `ecg.online.beats_detected` — confirmed R emissions.
    beats_detected: cardiotouch_obs::Counter,
}

impl OnlinePanTompkins {
    /// Maximum emission latency after the R apex, seconds.
    pub const MAX_LATENCY_S: f64 = 0.30;

    /// Creates a streaming detector for sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns [`EcgError::InvalidParameter`] when `fs` cannot support
    /// the 15 Hz band edge.
    pub fn new(fs: f64) -> Result<Self, EcgError> {
        if !(fs.is_finite() && fs > 30.0) {
            return Err(EcgError::InvalidParameter {
                name: "fs",
                value: fs,
                constraint: "must exceed 30 Hz",
            });
        }
        let bp = design_cache::butterworth_bandpass(2, 5.0, 15.0, fs)?;
        let &[hp_section, lp_section] = bp.sections() else {
            return Err(EcgError::InvalidParameter {
                name: "fs",
                value: fs,
                constraint: "the order-2 band-pass must design to two sections",
            });
        };
        let w = (0.150 * fs).round().max(1.0) as usize;
        let ring = (0.40 * fs).round() as usize;
        Ok(Self {
            fs,
            sections: [hp_section, lp_section],
            bp_state: [(0.0, 0.0); 2],
            bp_hist: [0.0; 5],
            mwi_buf: vec![0.0; w],
            mwi_pos: 0,
            mwi_sum: 0.0,
            mwi_hist: [0.0; 3],
            raw_ring: vec![0.0; ring],
            spki: 0.0,
            npki: 0.0,
            sample_idx: 0,
            last_r: None,
            refractory: (0.200 * fs) as usize,
            pending: None,
            warmup: (2.0 * fs) as usize,
            beats_detected: cardiotouch_obs::counter("ecg.online.beats_detected"),
        })
    }

    /// Absolute index of the next sample to be pushed: the detector's
    /// clock, which [`Self::restart`] preserves.
    #[must_use]
    pub fn position(&self) -> usize {
        self.sample_idx
    }

    /// Current adaptive detection threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.npki + 0.25 * (self.spki - self.npki)
    }

    /// Warm restart after signal loss: zeroes every filter delay line,
    /// forgets the adaptive thresholds and any pending candidate, and
    /// re-enters the threshold warm-up for the next 2 s of signal — but
    /// **preserves the absolute sample clock**, so detections emitted
    /// after the restart stay in absolute stream coordinates.
    pub fn restart(&mut self) {
        self.bp_state = [(0.0, 0.0); 2];
        self.bp_hist = [0.0; 5];
        self.mwi_buf.fill(0.0);
        self.mwi_pos = 0;
        self.mwi_sum = 0.0;
        self.mwi_hist = [0.0; 3];
        self.raw_ring.fill(0.0);
        self.spki = 0.0;
        self.npki = 0.0;
        self.last_r = None;
        self.pending = None;
        self.warmup = self.sample_idx + (2.0 * self.fs) as usize;
    }

    /// Pushes one raw ECG sample; returns the absolute sample index of a
    /// newly confirmed R peak, if one was just confirmed. A one-sample
    /// [`OnlinePanTompkins::push_chunk`].
    pub fn push(&mut self, sample: f64) -> Option<usize> {
        let mut r = None;
        self.push_chunk(std::slice::from_ref(&sample), |v| r = Some(v));
        r
    }

    /// Pushes a chunk of raw ECG samples, calling `on_r` with the
    /// absolute sample index of every R peak confirmed along the way, in
    /// order. Bitwise what per-sample [`OnlinePanTompkins::push`] calls
    /// would emit and leave behind, at any chunking.
    ///
    /// One sample loop carries the whole state in locals: both band-pass
    /// sections run as a pair with their registers in registers, the
    /// derivative and MWI histories shift as locals, and the raw and MWI
    /// rings advance by compare-and-wrap instead of `%`.
    pub fn push_chunk(&mut self, chunk: &[f64], mut on_r: impl FnMut(usize)) {
        let [p, q] = self.sections;
        let [(mut p1, mut p2), (mut q1, mut q2)] = self.bp_state;
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.bp_hist;
        let [mut m0, mut m1, mut m2] = self.mwi_hist;
        let (mut mwi_sum, mut mwi_pos) = (self.mwi_sum, self.mwi_pos);
        let (mut spki, mut npki) = (self.spki, self.npki);
        let (mut last_r, mut pending) = (self.last_r, self.pending);
        let fs = self.fs;
        let warmup = self.warmup;
        let refractory = self.refractory;
        let settle = (0.05 * fs) as usize;
        let mwi_len = self.mwi_buf.len();
        let ring_len = self.raw_ring.len();
        let mut ring_pos = self.sample_idx % ring_len;
        let mut idx = self.sample_idx;
        for &sample in chunk {
            self.raw_ring[ring_pos] = sample;
            ring_pos += 1;
            if ring_pos == ring_len {
                ring_pos = 0;
            }

            // causal band-pass: the high-pass and low-pass sections
            let yp = p.b0 * sample + p1;
            p1 = p.b1 * sample - p.a1 * yp + p2;
            p2 = p.b2 * sample - p.a2 * yp;
            let bp = q.b0 * yp + q1;
            q1 = q.b1 * yp - q.a1 * bp + q2;
            q2 = q.b2 * yp - q.a2 * bp;
            // five-point derivative
            (h0, h1, h2, h3, h4) = (h1, h2, h3, h4, bp);
            let d = (2.0 * h4 + h3 - h1 - 2.0 * h0) * fs / 8.0;
            // squaring + moving-window integration
            let sq = d * d;
            mwi_sum += sq - self.mwi_buf[mwi_pos];
            self.mwi_buf[mwi_pos] = sq;
            mwi_pos += 1;
            if mwi_pos == mwi_len {
                mwi_pos = 0;
            }
            let mwi = mwi_sum / mwi_len as f64;
            (m0, m1, m2) = (m1, m2, mwi);

            let now = idx;
            idx += 1;
            // threshold warm-up: track the maximum during the first seconds
            if now < warmup {
                if mwi > spki {
                    spki = mwi;
                    npki = 0.1 * mwi;
                }
                continue;
            }

            // local maximum of the MWI one sample ago?
            if m1 > m0 && m1 >= m2 {
                let peak_idx = now - 1;
                let since_last = last_r.map_or(usize::MAX, |r| peak_idx.saturating_sub(r));
                if m1 > npki + 0.25 * (spki - npki) && since_last > refractory {
                    spki = 0.125 * m1 + 0.875 * spki;
                    pending = Some(peak_idx);
                } else {
                    npki = 0.125 * m1 + 0.875 * npki;
                }
            }

            // Confirm a pending candidate once enough post-peak context has
            // streamed in to localise the apex (the MWI lags the QRS by
            // roughly the integration window).
            if let Some(peak_idx) = pending {
                if now >= peak_idx + settle {
                    pending = None;
                    let r = self.localize_apex(peak_idx, idx);
                    // apex must respect the refractory after localisation too
                    if last_r.map_or(true, |prev| r > prev + refractory) {
                        last_r = Some(r);
                        self.beats_detected.inc();
                        on_r(r);
                    }
                }
            }
        }
        self.bp_state = [(p1, p2), (q1, q2)];
        self.bp_hist = [h0, h1, h2, h3, h4];
        self.mwi_hist = [m0, m1, m2];
        (self.mwi_sum, self.mwi_pos) = (mwi_sum, mwi_pos);
        (self.spki, self.npki) = (spki, npki);
        (self.last_r, self.pending) = (last_r, pending);
        self.sample_idx = idx;
    }

    /// Writes every mutable field of the detector — filter registers,
    /// MWI ring, adaptive thresholds, absolute clock, pending candidate
    /// and warm-up deadline. Derived constants (`refractory`, window
    /// sizes) and the coefficient set stay with the design.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.bp_state.len());
        for &(s1, s2) in &self.bp_state {
            w.f64(s1);
            w.f64(s2);
        }
        for &v in &self.bp_hist {
            w.f64(v);
        }
        w.f64s(&self.mwi_buf);
        w.usize(self.mwi_pos);
        w.f64(self.mwi_sum);
        for &v in &self.mwi_hist {
            w.f64(v);
        }
        w.f64s(&self.raw_ring);
        w.f64(self.spki);
        w.f64(self.npki);
        w.usize(self.sample_idx);
        w.opt_usize(self.last_r);
        w.opt_usize(self.pending);
        w.usize(self.warmup);
    }

    /// Reads the state [`Self::encode`] wrote. The detector must have
    /// been built for the same `fs`; resumption is then bitwise
    /// identical to a stream that never paused.
    ///
    /// # Errors
    ///
    /// [`EcgError::InvalidParameter`] when the state's shape does not
    /// match this detector's sampling rate (section count, MWI window,
    /// raw ring, MWI position), or when its clock is inconsistent:
    /// warm-up ending before the first 2 s, or a pending candidate or
    /// last R at or past the clock. [`EcgError::Dsp`] when the bytes run
    /// out. The detector is untouched on error.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), EcgError> {
        let sections = r.usize()?;
        let bad_shape = || EcgError::InvalidParameter {
            name: "state.sections",
            value: sections as f64,
            constraint: "shape must match the detector's sampling rate",
        };
        if sections != self.bp_state.len() {
            return Err(bad_shape());
        }
        let mut bp_state = [(0.0, 0.0); 2];
        for s in &mut bp_state {
            *s = (r.f64()?, r.f64()?);
        }
        let mut bp_hist = [0.0; 5];
        for v in &mut bp_hist {
            *v = r.f64()?;
        }
        let (mwi_buf, mwi_pos, mwi_sum) = (r.vec_f64()?, r.usize()?, r.f64()?);
        let mut mwi_hist = [0.0; 3];
        for v in &mut mwi_hist {
            *v = r.f64()?;
        }
        let raw_ring = r.vec_f64()?;
        let (spki, npki, sample_idx) = (r.f64()?, r.f64()?, r.usize()?);
        let (last_r, pending, warmup) = (r.opt_usize()?, r.opt_usize()?, r.usize()?);
        if mwi_buf.len() != self.mwi_buf.len()
            || raw_ring.len() != self.raw_ring.len()
            || mwi_pos >= mwi_buf.len()
        {
            return Err(bad_shape());
        }
        // A live detector never ends warm-up before its first 2 s, and
        // every candidate or apex it holds lies behind its clock. A
        // forged clock would take an MWI peak at sample 0 (`idx − 1`
        // underflows) or wait on a candidate that never comes due.
        let behind = |v: Option<usize>| v.map_or(true, |i| i < sample_idx);
        if warmup < (2.0 * self.fs) as usize || !behind(pending) || !behind(last_r) {
            return Err(EcgError::InvalidParameter {
                name: "state.sample_idx",
                value: sample_idx as f64,
                constraint:
                    "warm-up must cover the first 2 s and pending/last R must precede the clock",
            });
        }
        (self.bp_state, self.bp_hist, self.mwi_hist) = (bp_state, bp_hist, mwi_hist);
        (self.mwi_buf, self.mwi_pos, self.mwi_sum) = (mwi_buf, mwi_pos, mwi_sum);
        (self.raw_ring, self.spki, self.npki) = (raw_ring, spki, npki);
        (self.sample_idx, self.last_r, self.pending) = (sample_idx, last_r, pending);
        self.warmup = warmup;
        Ok(())
    }

    /// Finds the raw-signal apex within the window preceding the MWI
    /// peak, compensating the causal chain delay. `seen` is the number of
    /// samples pushed so far, the newest one included.
    fn localize_apex(&self, mwi_peak_idx: usize, seen: usize) -> usize {
        let ring_len = self.raw_ring.len();
        let back = self.mwi_buf.len() + (0.10 * self.fs) as usize;
        let lo = mwi_peak_idx.saturating_sub(back);
        let hi = (mwi_peak_idx + (0.05 * self.fs) as usize).min(seen - 1);
        let lo = lo.max(seen.saturating_sub(ring_len));
        let mut best = (lo, f64::MIN);
        for i in lo..=hi {
            let v = self.raw_ring[i % ring_len];
            if v > best.1 {
                best = (i, v);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pan_tompkins::PanTompkins;
    use cardiotouch_physio::ecg::EcgMorphology;
    use cardiotouch_physio::heart::HeartModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 250.0;

    fn synth(seed: u64, hr: f64) -> (Vec<f64>, Vec<usize>) {
        let model = HeartModel {
            hr_mean_bpm: hr,
            ..HeartModel::default()
        };
        let beats = model
            .schedule(30.0, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let n = (30.0 * FS) as usize;
        (
            EcgMorphology::default().render(&beats, n, FS),
            EcgMorphology::r_peak_indices(&beats, n, FS),
        )
    }

    fn run(x: &[f64]) -> Vec<usize> {
        let mut det = OnlinePanTompkins::new(FS).unwrap();
        let mut out = Vec::new();
        for &v in x {
            if let Some(r) = det.push(v) {
                out.push(r);
            }
        }
        out
    }

    fn score(det: &[usize], truth: &[usize], tol: usize, skip_s: f64) -> (usize, usize) {
        // ignore truth beats inside the warm-up
        let start = (skip_s * FS) as usize;
        let t: Vec<usize> = truth.iter().copied().filter(|&v| v > start).collect();
        let hits = t
            .iter()
            .filter(|&&tr| det.iter().any(|&d| d.abs_diff(tr) <= tol))
            .count();
        (hits, t.len())
    }

    #[test]
    fn detects_clean_stream() {
        let (x, truth) = synth(1, 70.0);
        let det = run(&x);
        let (hits, total) = score(&det, &truth, 5, 2.5);
        assert!(hits >= total - 1, "{hits}/{total} beats");
        // no gross over-detection
        assert!(det.len() <= total + 3, "{} detections", det.len());
    }

    #[test]
    fn works_across_heart_rates() {
        for hr in [55.0, 75.0, 100.0] {
            let (x, truth) = synth(2, hr);
            let det = run(&x);
            let (hits, total) = score(&det, &truth, 5, 2.5);
            assert!(
                hits as f64 >= 0.95 * total as f64,
                "hr {hr}: {hits}/{total}"
            );
        }
    }

    #[test]
    fn tolerates_noise() {
        let (mut x, truth) = synth(3, 70.0);
        let mut rng = StdRng::seed_from_u64(9);
        for (v, n) in x
            .iter_mut()
            .zip(cardiotouch_physio::noise::white(7500, 0.05, &mut rng))
        {
            *v += n;
        }
        let det = run(&x);
        let (hits, total) = score(&det, &truth, 5, 2.5);
        assert!(hits as f64 >= 0.9 * total as f64, "{hits}/{total}");
    }

    #[test]
    fn agrees_with_batch_detector() {
        let (x, _) = synth(4, 70.0);
        let online = run(&x);
        let batch = PanTompkins::new(FS).unwrap().detect(&x).unwrap();
        let matched = online
            .iter()
            .filter(|&&o| batch.iter().any(|&b| b.abs_diff(o) <= 3))
            .count();
        assert!(
            matched as f64 >= 0.95 * online.len() as f64,
            "{matched}/{} online beats match batch",
            online.len()
        );
    }

    #[test]
    fn latency_is_bounded() {
        // instrument push() indices: a detection for apex r must be
        // emitted no later than r + MAX_LATENCY_S.
        let (x, _) = synth(5, 70.0);
        let mut det = OnlinePanTompkins::new(FS).unwrap();
        for (i, &v) in x.iter().enumerate() {
            if let Some(r) = det.push(v) {
                let latency = (i - r) as f64 / FS;
                assert!(
                    latency <= OnlinePanTompkins::MAX_LATENCY_S,
                    "R at {r} emitted at {i}: latency {latency} s"
                );
            }
        }
    }

    #[test]
    fn detections_monotone_and_refractory() {
        let (x, _) = synth(6, 95.0);
        let det = run(&x);
        for w in det.windows(2) {
            assert!(w[1] > w[0] + (0.2 * FS) as usize);
        }
    }

    #[test]
    fn rejects_bad_fs() {
        assert!(OnlinePanTompkins::new(20.0).is_err());
    }

    fn encoded(det: &OnlinePanTompkins) -> Vec<u8> {
        let mut w = Writer::new();
        det.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let (x, _) = synth(8, 80.0);
        let split = x.len() / 2 + 173;
        let mut reference = OnlinePanTompkins::new(FS).unwrap();
        let ref_out: Vec<Option<usize>> = x.iter().map(|&v| reference.push(v)).collect();

        let mut first = OnlinePanTompkins::new(FS).unwrap();
        for (i, &v) in x[..split].iter().enumerate() {
            assert_eq!(first.push(v), ref_out[i]);
        }
        let state = encoded(&first);
        let mut resumed = OnlinePanTompkins::new(FS).unwrap();
        let mut r = Reader::new(&state);
        resumed.decode(&mut r).unwrap();
        assert!(r.at_end());
        assert_eq!(resumed, first);
        for (i, &v) in x[split..].iter().enumerate() {
            assert_eq!(resumed.push(v), ref_out[split + i], "sample {}", split + i);
        }
        assert_eq!(
            resumed.threshold().to_bits(),
            reference.threshold().to_bits()
        );
    }

    #[test]
    fn restore_rejects_wrong_fs_shape() {
        let state = encoded(&OnlinePanTompkins::new(250.0).unwrap());
        let mut wrong = OnlinePanTompkins::new(500.0).unwrap();
        let before = wrong.clone();
        assert!(wrong.decode(&mut Reader::new(&state)).is_err());
        assert_eq!(wrong, before);
        assert!(wrong
            .decode(&mut Reader::new(&state[..state.len() - 1]))
            .is_err());
    }

    #[test]
    fn decode_rejects_a_clock_no_live_detector_reaches() {
        let (x, _) = synth(9, 70.0);
        let mut good = OnlinePanTompkins::new(FS).unwrap();
        good.push_chunk(&x[..2500], |_| {});
        assert!(good.last_r.is_some());
        let forged = |forge: &dyn Fn(&mut OnlinePanTompkins)| {
            let mut det = good.clone();
            forge(&mut det);
            encoded(&det)
        };
        // Warm-up over at sample 0 with an MWI peak pending would take
        // `idx − 1` at idx 0; candidates or apexes past the clock would
        // wait on (or emit) samples from the far future.
        let zero_clock = encoded(&{
            let mut det = OnlinePanTompkins::new(FS).unwrap();
            (det.sample_idx, det.warmup, det.mwi_hist) = (0, 0, [0.0, 0.0, 5.0]);
            det
        });
        let bad = [
            zero_clock,
            forged(&|d| d.pending = Some(d.sample_idx)),
            forged(&|d| d.last_r = Some(usize::MAX - 63)),
            forged(&|d| d.warmup = 499),
            forged(&|d| d.mwi_pos = d.mwi_buf.len()),
        ];
        for state in &bad {
            let mut det = OnlinePanTompkins::new(FS).unwrap();
            assert!(matches!(
                det.decode(&mut Reader::new(state)),
                Err(EcgError::InvalidParameter { .. })
            ));
            assert_eq!(det, OnlinePanTompkins::new(FS).unwrap());
        }
        // The closest live states decode and keep detecting.
        let neighbours = [
            forged(&|d| d.pending = Some(d.sample_idx - 1)),
            forged(&|d| d.warmup = 500),
        ];
        for state in &neighbours {
            let mut det = OnlinePanTompkins::new(FS).unwrap();
            det.decode(&mut Reader::new(state)).unwrap();
            det.push_chunk(&x[2500..2750], |_| {});
            assert_eq!(det.position(), 2750);
        }
    }

    #[test]
    fn restart_relocks_after_garbage() {
        let (x, truth) = synth(7, 70.0);
        let mut det = OnlinePanTompkins::new(FS).unwrap();
        // 4 s of rail garbage, then restart, then the clean record.
        for _ in 0..(4.0 * FS) as usize {
            let _ = det.push(50.0);
        }
        det.restart();
        let offset = (4.0 * FS) as usize;
        let mut out = Vec::new();
        for &v in &x {
            if let Some(r) = det.push(v) {
                out.push(r - offset);
            }
        }
        let (hits, total) = score(&out, &truth, 5, 2.5);
        assert!(hits as f64 >= 0.95 * total as f64, "{hits}/{total}");
        // absolute clock preserved: detections sit past the garbage
        let raw_first = out.first().map_or(0, |&r| r + offset);
        assert!(raw_first >= offset);
    }
}

//! Incremental beat-to-beat B/C/X delineation.
//!
//! The batch path segments a whole conditioned record with
//! [`crate::beat::segment_beats`] and runs [`crate::points::PointDetector`]
//! on every window. The firmware path (paper Fig 3) instead sees the
//! conditioned ICG as it settles out of the streaming filters, and R-peak
//! events as the online QRS detector confirms them. [`BeatDelineator`]
//! bridges the two: it buffers settled conditioned samples in absolute
//! stream coordinates, queues confirmed R peaks, and finalizes one beat as
//! soon as the conditioned stream covers `[rᵢ, rᵢ₊₁)` — the same
//! "enough right-context has arrived" hold-back rule the windowed
//! re-analysis engine applied, but O(beat) instead of O(window) per
//! emission.
//!
//! Per-beat arithmetic is the batch detector verbatim (the same
//! [`PointDetector`] runs on the same segment slice), so streamed points
//! equal batch points wherever the conditioned samples agree.

use std::collections::VecDeque;

use cardiotouch_dsp::codec::{Reader, Writer};
use cardiotouch_dsp::streaming::HistoryRing;

use crate::beat::BeatWindow;
use crate::points::{CharacteristicPoints, PointDetector, XSearch};
use crate::strategy::{DelineationStrategy, StrategyState};
use crate::IcgError;

/// One finalized beat from the incremental delineator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineBeat {
    /// The beat window `[r, next_r)` in absolute stream coordinates.
    pub window: BeatWindow,
    /// Characteristic points relative to `window.r` (index 0 = R), as
    /// produced by [`PointDetector::detect`].
    pub points: CharacteristicPoints,
    /// Conditioned-ICG amplitude at the C point, `(dZ/dt)_max` in Ω/s.
    pub dzdt_max: f64,
    /// Morphology confidence from [`crate::quality::beat_sqi`] against the
    /// delineator's running R-aligned ensemble template, in `[-1, 1]`.
    /// `None` until the template has warmed (first
    /// [`BeatDelineator::SQI_WARMUP_BEATS`] beats).
    pub sqi: Option<f64>,
}

/// Incremental B/C/X delineator over a settled conditioned-ICG stream.
///
/// Feed conditioned samples with [`BeatDelineator::push_samples`] and
/// confirmed R peaks with [`BeatDelineator::push_r`] (in any interleaving
/// — R events may run ahead of the conditioned stream, as they do when an
/// online QRS detector with sub-second latency feeds a zero-phase stage
/// with a multi-second settle delay). Collect finalized beats with
/// [`BeatDelineator::poll_into`].
///
/// Memory is O(seconds of signal): consumed samples are discarded with
/// amortized O(1) cost, and when no beat is pending the buffer is capped
/// at twice the maximum RR interval.
#[derive(Debug, Clone)]
pub struct BeatDelineator {
    fs: f64,
    min_rr_s: f64,
    max_rr_s: f64,
    detector: PointDetector,
    /// Cross-beat state of the configured delineation strategy (the
    /// weighted-window B prior); inert for the stateless strategies.
    strategy_state: StrategyState,
    ring: HistoryRing,
    /// Confirmed R peaks not yet consumed as a beat start.
    rs: VecDeque<usize>,
    /// R-aligned ensemble template (EMA of finalized segments), capped at
    /// 0.6 s — the systolic portion [`crate::quality::beat_sqi`] scores.
    template: Vec<f64>,
    /// Beats folded into the template so far.
    template_beats: usize,
    /// Template length cap in samples.
    template_cap: usize,
    /// `icg.online.beats_delineated` — finalized beats.
    beats_delineated: cardiotouch_obs::Counter,
    /// `icg.online.delineation_failures` — segments the point detector
    /// rejected.
    delineation_failures: cardiotouch_obs::Counter,
    /// `icg.online.rr_rejected` — beats skipped for out-of-range RR.
    rr_rejected: cardiotouch_obs::Counter,
}

impl BeatDelineator {
    /// Beats folded into the ensemble template before per-beat SQI
    /// scoring starts (earlier beats report `sqi: None`).
    pub const SQI_WARMUP_BEATS: usize = 3;

    /// EMA weight of the newest beat in the ensemble template.
    const TEMPLATE_LAMBDA: f64 = 0.25;

    /// Creates a delineator. `min_rr_s`/`max_rr_s` bound accepted RR
    /// intervals exactly as [`crate::beat::segment_beats`] does.
    ///
    /// # Errors
    ///
    /// * [`IcgError::InvalidParameter`] for an invalid `fs` or RR range
    ///   (propagated from [`PointDetector::new`] or checked here).
    pub fn new(fs: f64, x_search: XSearch, min_rr_s: f64, max_rr_s: f64) -> Result<Self, IcgError> {
        Self::with_strategy(
            fs,
            x_search,
            DelineationStrategy::Classic,
            min_rr_s,
            max_rr_s,
        )
    }

    /// Creates a delineator applying `strategy`'s rule set per beat.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn with_strategy(
        fs: f64,
        x_search: XSearch,
        strategy: DelineationStrategy,
        min_rr_s: f64,
        max_rr_s: f64,
    ) -> Result<Self, IcgError> {
        if !(min_rr_s > 0.0 && max_rr_s > min_rr_s) {
            return Err(IcgError::InvalidParameter {
                name: "min_rr_s/max_rr_s",
                value: min_rr_s,
                constraint: "must satisfy 0 < min < max",
            });
        }
        Ok(Self {
            fs,
            min_rr_s,
            max_rr_s,
            detector: PointDetector::with_strategy(fs, x_search, strategy)?,
            strategy_state: StrategyState::default(),
            ring: HistoryRing::new(),
            rs: VecDeque::new(),
            template: Vec::new(),
            template_beats: 0,
            template_cap: (0.6 * fs) as usize,
            beats_delineated: cardiotouch_obs::counter("icg.online.beats_delineated"),
            delineation_failures: cardiotouch_obs::counter("icg.online.delineation_failures"),
            rr_rejected: cardiotouch_obs::counter("icg.online.rr_rejected"),
        })
    }

    /// Absolute index one past the newest buffered conditioned sample.
    #[must_use]
    pub fn samples_end(&self) -> usize {
        self.ring.end()
    }

    /// Appends settled conditioned-ICG samples (consecutive from stream
    /// start).
    pub fn push_samples(&mut self, settled: &[f64]) {
        self.ring.extend(settled);
    }

    /// Drops every R peak queued but not yet finalized. Used on a
    /// warm restart after signal loss: no beat may span the gap, because
    /// its segment would mix pre-loss and post-loss conditioned samples.
    pub fn abort_pending(&mut self) {
        self.rs.clear();
    }

    /// Pads the conditioned stream with zeros up to absolute index `abs`
    /// (no-op when already there). Used on a warm restart: the upstream
    /// conditioning chain is reset and re-primed, so the samples it would
    /// have emitted for the gap never arrive — padding keeps subsequent
    /// [`BeatDelineator::push_samples`] calls aligned with the absolute
    /// R-peak clock. Call [`BeatDelineator::abort_pending`] alongside so
    /// the padding can never enter a finalized segment.
    pub fn pad_to(&mut self, abs: usize) {
        const ZEROS: [f64; 256] = [0.0; 256];
        let mut missing = abs.saturating_sub(self.ring.end());
        while missing > 0 {
            let k = missing.min(ZEROS.len());
            self.ring.extend(&ZEROS[..k]);
            missing -= k;
        }
    }

    /// Registers a confirmed R peak at absolute sample index `r`.
    ///
    /// # Errors
    ///
    /// Returns [`IcgError::InvalidParameter`] when `r` does not strictly
    /// ascend past the previously registered peak.
    pub fn push_r(&mut self, r: usize) -> Result<(), IcgError> {
        if let Some(&last) = self.rs.back() {
            if r <= last {
                return Err(IcgError::InvalidParameter {
                    name: "r",
                    value: r as f64,
                    constraint: "R peaks must be strictly ascending",
                });
            }
        }
        self.rs.push_back(r);
        Ok(())
    }

    /// Finalizes every beat whose segment the conditioned stream now
    /// covers, appending them to `out` in order. Beats with out-of-range
    /// RR, or whose segment the point detector rejects, are skipped —
    /// matching the batch pipeline's behaviour of dropping those windows.
    pub fn poll_into(&mut self, out: &mut Vec<OnlineBeat>) {
        while self.rs.len() >= 2 {
            let (r0, r1) = (self.rs[0], self.rs[1]);
            if self.ring.end() < r1 {
                break;
            }
            let window = BeatWindow { r: r0, end: r1 };
            let rr = window.rr_s(self.fs);
            if rr >= self.min_rr_s && rr <= self.max_rr_s && r0 >= self.ring.base() {
                let segment = self.ring.slice(r0, r1);
                if let Ok(points) = self.detector.detect_with(segment, &mut self.strategy_state) {
                    self.beats_delineated.inc();
                    let sqi = self.score_and_learn(r0, r1);
                    let segment = self.ring.slice(r0, r1);
                    out.push(OnlineBeat {
                        window,
                        points,
                        dzdt_max: segment[points.c],
                        sqi,
                    });
                } else {
                    self.delineation_failures.inc();
                }
            } else {
                self.rr_rejected.inc();
            }
            self.rs.pop_front();
        }
        // Everything before the next pending beat start is dead; with no
        // pending beat, cap the buffer at 2× the longest acceptable RR
        // (any beat reaching further back would be dropped as too long).
        let cap = (2.0 * self.max_rr_s * self.fs) as usize;
        let keep = self
            .rs
            .front()
            .copied()
            .unwrap_or_else(|| self.ring.end().saturating_sub(cap));
        self.ring.discard_before(keep.min(self.ring.end()));
    }

    /// Writes every mutable field — the conditioned-sample ring in
    /// absolute coordinates, queued R peaks, the ensemble template with
    /// its warm-up count, and the strategy's R→B prior. `PointDetector`
    /// is pure configuration and stays with the design.
    pub fn encode(&self, w: &mut Writer) {
        self.ring.encode(w);
        w.usizes(self.rs.iter());
        w.f64s(&self.template);
        w.usize(self.template_beats);
        w.f64(self.strategy_state.rb_ema_s);
        w.u64(self.strategy_state.rb_beats);
    }

    /// Reads the state [`Self::encode`] wrote. The delineator must have
    /// been built with the same `fs`, `XSearch`, strategy and RR bounds
    /// for resumption to be bitwise identical.
    ///
    /// # Errors
    ///
    /// [`IcgError::InvalidParameter`] when the queued R peaks do not
    /// strictly ascend or the template exceeds this delineator's cap
    /// (different `fs`); [`IcgError::Dsp`] when the ring does not decode
    /// or the bytes run out. The delineator is untouched on error.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), IcgError> {
        let mut ring = HistoryRing::new();
        ring.decode(r)?;
        let rs = r.vec_usize()?;
        let (template, template_beats) = (r.vec_f64()?, r.usize()?);
        let strategy_state = StrategyState {
            rb_ema_s: r.f64()?,
            rb_beats: r.u64()?,
        };
        if rs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IcgError::InvalidParameter {
                name: "state.rs",
                value: rs.len() as f64,
                constraint: "R peaks must be strictly ascending",
            });
        }
        if template.len() > self.template_cap {
            return Err(IcgError::InvalidParameter {
                name: "state.template",
                value: template.len() as f64,
                constraint: "template must fit the delineator's cap",
            });
        }
        (self.ring, self.rs, self.template) = (ring, rs.into(), template);
        (self.template_beats, self.strategy_state) = (template_beats, strategy_state);
        Ok(())
    }

    /// Scores `[r0, r1)` against the ensemble template (once warm), then
    /// folds the segment into the template with an EMA.
    fn score_and_learn(&mut self, r0: usize, r1: usize) -> Option<f64> {
        let segment = self.ring.slice(r0, r1);
        let m = segment.len().min(self.template_cap);
        let sqi = if self.template_beats >= Self::SQI_WARMUP_BEATS {
            let s = crate::quality::beat_sqi(&segment[..m], &self.template).unwrap_or(0.0);
            Some(if s.is_finite() { s } else { 0.0 })
        } else {
            None
        };
        if segment[..m].iter().all(|v| v.is_finite()) {
            if self.template.is_empty() {
                self.template.extend_from_slice(&segment[..m]);
            } else {
                let k = self.template.len().min(m);
                for (t, &x) in self.template[..k].iter_mut().zip(&segment[..k]) {
                    *t += Self::TEMPLATE_LAMBDA * (x - *t);
                }
            }
            self.template_beats += 1;
        }
        sqi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beat::segment_beats;
    use crate::filter::IcgConditioner;

    const FS: f64 = 250.0;

    /// A few synthetic ICG-like beats with C waves and X troughs.
    fn synth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                let phase = t % 0.8;
                1.4 * (-(phase - 0.20) * (phase - 0.20) / (2.0 * 0.04 * 0.04)).exp()
                    - 0.5 * (-(phase - 0.45) * (phase - 0.45) / (2.0 * 0.02 * 0.02)).exp()
            })
            .collect()
    }

    fn r_peaks(n: usize) -> Vec<usize> {
        // R at the start of each 0.8 s cycle
        (0..n / 200).map(|k| k * 200).collect()
    }

    #[test]
    fn matches_batch_segmentation_and_detection() {
        let raw = synth(5000);
        let icg = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&raw)
            .unwrap();
        let peaks = r_peaks(5000);

        let windows = segment_beats(&peaks, icg.len(), FS, 0.3, 2.0).unwrap();
        let batch: Vec<_> = windows
            .iter()
            .filter_map(|w| {
                PointDetector::new(FS, XSearch::GlobalMinimum)
                    .unwrap()
                    .detect(w.slice(&icg))
                    .ok()
                    .map(|p| (*w, p))
            })
            .collect();

        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let mut streamed = Vec::new();
        let mut fed = 0;
        let mut next_peak = 0;
        for chunk in icg.chunks(173) {
            d.push_samples(chunk);
            fed += chunk.len();
            // deliver any R peak whose index is now within ~0.3 s of the head
            while next_peak < peaks.len() && peaks[next_peak] + 50 <= fed {
                d.push_r(peaks[next_peak]).unwrap();
                next_peak += 1;
            }
            d.poll_into(&mut streamed);
        }

        assert_eq!(streamed.len(), batch.len());
        for (s, (w, p)) in streamed.iter().zip(&batch) {
            assert_eq!(s.window, *w);
            assert_eq!(s.points, *p);
        }
    }

    #[test]
    fn r_ahead_of_samples_is_held_back() {
        let raw = synth(2000);
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        // R peaks announced long before any conditioned sample arrives.
        d.push_r(0).unwrap();
        d.push_r(200).unwrap();
        let mut out = Vec::new();
        d.poll_into(&mut out);
        assert!(out.is_empty(), "no samples yet — nothing may finalize");
        d.push_samples(&raw[..150]);
        d.poll_into(&mut out);
        assert!(out.is_empty(), "segment not yet covered");
        d.push_samples(&raw[150..300]);
        d.poll_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window, BeatWindow { r: 0, end: 200 });
    }

    #[test]
    fn out_of_range_rr_is_skipped() {
        let raw = synth(3000);
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        d.push_samples(&raw);
        // 40-sample RR (0.16 s) is below min_rr; the follow-up beat is fine.
        for r in [0, 40, 300] {
            d.push_r(r).unwrap();
        }
        let mut out = Vec::new();
        d.poll_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window, BeatWindow { r: 40, end: 300 });
    }

    #[test]
    fn non_ascending_r_rejected() {
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        d.push_r(100).unwrap();
        assert!(d.push_r(100).is_err());
        assert!(d.push_r(50).is_err());
    }

    #[test]
    fn memory_stays_bounded_without_beats() {
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let chunk = vec![0.0; 250];
        let mut out = Vec::new();
        for _ in 0..600 {
            d.push_samples(&chunk);
            d.poll_into(&mut out);
        }
        assert!(out.is_empty());
        // cap = 2 × max_rr × fs = 1000 samples
        assert_eq!(d.samples_end(), 150_000);
        assert!(d.ring.len() <= 1000 + 250);
    }

    #[test]
    fn sqi_warms_then_scores_consistent_beats_high() {
        let raw = synth(8000);
        let icg = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&raw)
            .unwrap();
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        d.push_samples(&icg);
        for r in r_peaks(8000) {
            d.push_r(r).unwrap();
        }
        let mut out = Vec::new();
        d.poll_into(&mut out);
        assert!(out.len() > BeatDelineator::SQI_WARMUP_BEATS + 3);
        for (i, b) in out.iter().enumerate() {
            if i < BeatDelineator::SQI_WARMUP_BEATS {
                assert!(b.sqi.is_none(), "beat {i} should be warm-up");
            } else {
                let sqi = b.sqi.expect("warm template must score");
                assert!(
                    sqi > 0.95,
                    "identical morphology must correlate: beat {i} sqi {sqi}"
                );
            }
        }
    }

    #[test]
    fn abort_and_pad_realign_after_a_gap() {
        let raw = synth(4000);
        let icg = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&raw)
            .unwrap();
        let mut d = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        d.push_samples(&icg[..500]);
        d.push_r(0).unwrap();
        d.push_r(200).unwrap();
        d.push_r(400).unwrap();
        // Signal lost: drop pending beats, skip 1000 samples of the
        // conditioned stream, re-align, and continue with later signal.
        d.abort_pending();
        d.pad_to(1500);
        assert_eq!(d.samples_end(), 1500);
        d.push_samples(&icg[1500..]);
        d.push_r(1600).unwrap();
        d.push_r(1800).unwrap();
        let mut out = Vec::new();
        d.poll_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window, BeatWindow { r: 1600, end: 1800 });
        // pad_to at or behind the current head is a no-op
        d.pad_to(100);
        assert_eq!(d.samples_end(), icg.len());
    }

    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let raw = synth(8000);
        let icg = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&raw)
            .unwrap();
        let peaks = r_peaks(8000);
        let run_from = |d: &mut BeatDelineator, lo: usize| {
            let mut out = Vec::new();
            let mut next = peaks
                .iter()
                .position(|&r| r + 50 > lo)
                .unwrap_or(peaks.len());
            let mut fed = lo;
            for chunk in icg[lo..].chunks(173) {
                d.push_samples(chunk);
                fed += chunk.len();
                while next < peaks.len() && peaks[next] + 50 <= fed {
                    d.push_r(peaks[next]).unwrap();
                    next += 1;
                }
                d.poll_into(&mut out);
            }
            out
        };
        let mut reference = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let ref_out = run_from(&mut reference, 0);
        assert!(ref_out.len() > BeatDelineator::SQI_WARMUP_BEATS + 2);

        // Replay the first half, snapshot, restore elsewhere, resume.
        let split = (icg.len() / 2 / 173) * 173;
        let mut first = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let mut head = Vec::new();
        let mut next = 0;
        let mut fed = 0;
        for chunk in icg[..split].chunks(173) {
            first.push_samples(chunk);
            fed += chunk.len();
            while next < peaks.len() && peaks[next] + 50 <= fed {
                first.push_r(peaks[next]).unwrap();
                next += 1;
            }
            first.poll_into(&mut head);
        }
        let state = encoded(&first);
        let mut resumed = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let mut r = Reader::new(&state);
        resumed.decode(&mut r).unwrap();
        assert!(r.at_end());
        assert_eq!(encoded(&resumed), state);
        let tail = run_from(&mut resumed, split);
        let all: Vec<OnlineBeat> = head.into_iter().chain(tail).collect();
        assert_eq!(all.len(), ref_out.len());
        for (a, b) in all.iter().zip(&ref_out) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.points, b.points);
            assert_eq!(a.dzdt_max.to_bits(), b.dzdt_max.to_bits());
            assert_eq!(a.sqi.map(f64::to_bits), b.sqi.map(f64::to_bits));
        }
    }

    fn encoded(d: &BeatDelineator) -> Vec<u8> {
        let mut w = Writer::new();
        d.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_unordered_rs_and_an_oversized_template() {
        let icg = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&synth(3000))
            .unwrap();
        let mut good = BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        good.push_samples(&icg[..2000]);
        for r in [0, 200, 400, 600, 800, 1000, 1900, 2100] {
            good.push_r(r).unwrap();
        }
        good.poll_into(&mut Vec::new());
        assert_eq!(good.template.len(), 150);
        assert_eq!(Vec::from(good.rs.clone()), [1900, 2100]);
        let forged = |forge: &dyn Fn(&mut BeatDelineator)| {
            let mut d = good.clone();
            forge(&mut d);
            encoded(&d)
        };
        let fresh = || BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.3, 2.0).unwrap();
        let bad = [
            forged(&|d| d.rs = [2100, 1900].into()),
            forged(&|d| d.rs = [1900, 1900].into()),
            forged(&|d| d.template.push(0.0)),
        ];
        for state in &bad {
            let mut d = fresh();
            assert!(matches!(
                d.decode(&mut Reader::new(state)),
                Err(IcgError::InvalidParameter { .. })
            ));
            assert_eq!(encoded(&d), encoded(&fresh()));
        }
        // The ring leads the encoding with its base: one past the last
        // base that keeps its end in range fails in the ring's decode.
        let rebased = |base: usize| {
            let mut state = encoded(&good);
            state[..8].copy_from_slice(&(base as u64).to_le_bytes());
            state
        };
        let live = good.ring.len();
        assert!(matches!(
            fresh().decode(&mut Reader::new(&rebased(usize::MAX - live + 1))),
            Err(IcgError::Dsp(_))
        ));
        fresh()
            .decode(&mut Reader::new(&rebased(usize::MAX - live)))
            .unwrap();
        // The good state and its neighbours decode and keep delineating.
        for state in [
            encoded(&good),
            forged(&|d| d.rs = [1900, 2101].into()),
            forged(&|d| d.template.truncate(149)),
        ] {
            let mut d = fresh();
            d.decode(&mut Reader::new(&state)).unwrap();
            d.push_samples(&icg[2000..]);
            d.poll_into(&mut Vec::new());
            assert_eq!(d.samples_end(), 3000);
        }
    }

    #[test]
    fn bad_rr_range_rejected() {
        assert!(BeatDelineator::new(FS, XSearch::GlobalMinimum, 2.0, 0.3).is_err());
        assert!(BeatDelineator::new(FS, XSearch::GlobalMinimum, 0.0, 2.0).is_err());
    }
}

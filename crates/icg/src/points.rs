//! Detection of the ICG characteristic points B, C and X (Section IV-C).
//!
//! The algorithm operates on one beat at a time — the ICG samples between
//! two consecutive ECG R peaks, with index 0 corresponding to the R peak:
//!
//! * **C point** — the maximum of the ICG within the beat;
//! * **B point** — first the initial estimate **B0** is computed as the
//!   intersection with the horizontal axis of the least-squares line
//!   through the ICG points between 40 % and 80 % of the C amplitude on
//!   the rising edge. If the (+,−,+,−) sign pattern of the second
//!   derivative is present left of C, B is the first minimum of the third
//!   derivative to the left of B0; otherwise B is the first zero crossing
//!   of the first derivative to the left of B0;
//! * **X point** — the initial estimate **X0** is the lowest negative
//!   minimum to the right of C (the paper's variant, chosen because the
//!   T-wave end is an unreliable marker), or the lowest negative minimum
//!   within `[RT, 1.75·RT]` (the Carvalho et al. variant \[28\]); X is then
//!   refined to the local minimum of the third derivative just left of X0.
//!
//! The derivative refinements search within a bounded window (60 ms for B,
//! 50 ms for X; the paper does not specify an extent) and fall back to the
//! initial estimate when the window contains no qualifying extremum —
//! without the bound, the smooth flanks of low-noise beats would let the
//! search run far from the landmark.
//!
//! Detection does not allocate: every strategy smooths the segment and
//! takes its derivatives into one per-thread workspace, computing
//! d1 → d2 → d3 once by successive [`diff::derivative_into`] calls
//! (bitwise `diff::third_derivative` of the smoothed segment), and the
//! B0 line fit reuses the same workspace. The batch pipeline and the
//! streaming delineator run this one detector, so both gain.

use std::cell::RefCell;

use crate::strategy::{DelineationStrategy, StrategyState};
use crate::IcgError;
use cardiotouch_dsp::diff;
use cardiotouch_dsp::peaks;
use cardiotouch_dsp::stats::LineFit;
use cardiotouch_dsp::DspError;

/// Strategy for locating the initial X estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum XSearch {
    /// The paper's choice: the lowest ICG negative minimum to the right of
    /// the C point.
    GlobalMinimum,
    /// Carvalho et al. \[28\]: the lowest ICG negative minimum in the
    /// interval `RT ≤ t ≤ 1.75·RT`, where `RT` is the R→T duration.
    RtWindow {
        /// R-to-T-wave duration for this beat, seconds.
        rt_s: f64,
    },
}

/// Which rule produced the B point (exposed for analysis, C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BRule {
    /// The (+,−,+,−) second-derivative pattern was present: B is the first
    /// third-derivative minimum left of B0.
    ThirdDerivativeMinimum,
    /// Pattern absent: B is the first first-derivative zero crossing left
    /// of B0.
    FirstDerivativeZeroCrossing,
    /// Neither refinement found a candidate in its window: B0 itself.
    LineFitIntercept,
    /// Weighted time-window estimator: the best-scoring candidate
    /// inside the physiologically expected window (or its centre when
    /// the window holds no candidate — the implied-interval gate still
    /// vets that fallback).
    WeightedWindow,
}

/// Plausibility band (seconds) on the implied PEP under the
/// weighted-window strategy: a delineation whose R→B interval leaves
/// it is rejected outright. Deliberately tighter than the downstream
/// `is_physiological` outlier bounds (0.05–0.25 s), which flag but
/// keep the beat.
pub const WEIGHTED_PEP_BAND_S: (f64, f64) = (0.06, 0.20);

/// Plausibility band (seconds) on the implied LVET under the
/// weighted-window strategy (`is_physiological` allows 0.12–0.50 s).
pub const WEIGHTED_LVET_BAND_S: (f64, f64) = (0.15, 0.45);

/// Detected characteristic points of one beat, as sample indices relative
/// to the segment start (the R peak).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CharacteristicPoints {
    /// B point (aortic valve opening).
    pub b: usize,
    /// C point (dZ/dt maximum).
    pub c: usize,
    /// X point (aortic valve closure).
    pub x: usize,
    /// The fractional initial B estimate from the line fit.
    pub b0: f64,
    /// Which refinement rule produced B.
    pub b_rule: BRule,
}

/// The beat-level characteristic-point detector.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PointDetector {
    fs: f64,
    x_search: XSearch,
    strategy: DelineationStrategy,
    /// Extent of the leftward B refinement searches, seconds.
    b_refine_window_s: f64,
    /// Extent of the leftward X refinement search, seconds.
    x_refine_window_s: f64,
    /// Half-width of the weighted B window, seconds.
    b_weight_halfwidth_s: f64,
}

impl PointDetector {
    /// Creates a detector for sampling rate `fs` with the given X-search
    /// strategy.
    ///
    /// # Errors
    ///
    /// Returns [`IcgError::InvalidParameter`] for a non-positive `fs` or a
    /// non-positive `rt_s` in [`XSearch::RtWindow`].
    pub fn new(fs: f64, x_search: XSearch) -> Result<Self, IcgError> {
        Self::with_strategy(fs, x_search, DelineationStrategy::Classic)
    }

    /// Creates a detector applying `strategy`'s rule set.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn with_strategy(
        fs: f64,
        x_search: XSearch,
        strategy: DelineationStrategy,
    ) -> Result<Self, IcgError> {
        if !(fs > 0.0 && fs.is_finite()) {
            return Err(IcgError::InvalidParameter {
                name: "fs",
                value: fs,
                constraint: "must be positive and finite",
            });
        }
        if let XSearch::RtWindow { rt_s } = x_search {
            if !(rt_s > 0.0 && rt_s.is_finite()) {
                return Err(IcgError::InvalidParameter {
                    name: "rt_s",
                    value: rt_s,
                    constraint: "must be positive and finite",
                });
            }
        }
        Ok(Self {
            fs,
            x_search,
            strategy,
            b_refine_window_s: 0.060,
            x_refine_window_s: 0.080,
            b_weight_halfwidth_s: 0.050,
        })
    }

    /// The configured X-search strategy.
    #[must_use]
    pub fn x_search(&self) -> XSearch {
        self.x_search
    }

    /// The configured delineation strategy.
    #[must_use]
    pub fn strategy(&self) -> DelineationStrategy {
        self.strategy
    }

    /// Detects B, C and X in one beat segment (`icg[0]` at the R peak),
    /// using a throwaway [`StrategyState`] — the stateless entry point.
    /// For the weighted-window strategy, prefer [`Self::detect_with`]
    /// so the expected-B prior adapts beat over beat.
    ///
    /// # Errors
    ///
    /// * [`IcgError::BeatTooShort`] for segments under 0.3 s;
    /// * [`IcgError::PointNotFound`] when the beat has no positive C wave
    ///   or (Classic rules) no negative minimum after it.
    pub fn detect(&self, icg: &[f64]) -> Result<CharacteristicPoints, IcgError> {
        self.detect_with(icg, &mut StrategyState::default())
    }

    /// Detects B, C and X in one beat segment, advancing `state` on
    /// success. Both engines — batch ([`detect`](Self::detect) loops in
    /// the core pipeline) and the O(hop) streaming delineator — call
    /// this on the identical settled segment with the identical state
    /// trajectory, which is what keeps batch==stream bitwise identical
    /// per strategy.
    ///
    /// # Errors
    ///
    /// See [`Self::detect`]. `state` is untouched when an error is
    /// returned.
    pub fn detect_with(
        &self,
        icg: &[f64],
        state: &mut StrategyState,
    ) -> Result<CharacteristicPoints, IcgError> {
        DETECT_WORK.with(|work| {
            let work = &mut work.borrow_mut();
            match self.strategy {
                DelineationStrategy::Classic => self.detect_classic(icg, work),
                DelineationStrategy::Hybrid => self.detect_weighted(icg, state, work),
            }
        })
    }

    /// The source paper's rule set (strategy [`DelineationStrategy::Classic`]).
    fn detect_classic(
        &self,
        icg: &[f64],
        work: &mut DetectWork,
    ) -> Result<CharacteristicPoints, IcgError> {
        self.check_len(icg)?;
        let c = self.find_c(icg)?;

        // --- derivatives ---------------------------------------------------
        // Derivatives triple-amplify in-band noise, so they are computed
        // on a lightly binomial-smoothed copy (a standard precaution in
        // ICG point detectors); amplitudes and extrema searches above use
        // the signal as given.
        work.derivatives(icg, self.fs)?;
        let (d1, d2, d3) = (&work.d1[..], &work.d2[..], &work.d3[..]);

        // --- B0: 40-80 % line fit -----------------------------------------
        let b0 = line_fit_b0(icg, c, &mut work.xs, &mut work.ys);
        let b0_idx = (b0.round() as usize).min(c.saturating_sub(1));

        // --- B refinement ---------------------------------------------------
        // The scan starts two samples right of the rounded B0: B0 is a
        // fractional line-fit intercept, and after low-pass conditioning
        // the knee's derivative extremum can land within that rounding
        // slack on either side.
        let b_window = (self.b_refine_window_s * self.fs) as usize;
        let b_start = (b0_idx + 2).min(c.saturating_sub(1));
        let pattern_lo = b0_idx.saturating_sub(2 * b_window);
        let has_pattern = peaks::has_sign_pattern(&d2[pattern_lo..=c], &[true, false, true, false]);
        let (mut b, mut b_rule) = if has_pattern {
            match first_local_min_left_within(d3, b_start, b_window) {
                Some(idx) => (idx, BRule::ThirdDerivativeMinimum),
                None => (b0_idx, BRule::LineFitIntercept),
            }
        } else {
            match first_zero_crossing_left_within(d1, b_start, b_window) {
                Some(idx) => (idx, BRule::FirstDerivativeZeroCrossing),
                None => (b0_idx, BRule::LineFitIntercept),
            }
        };
        // If the pattern rule found nothing, try the zero-crossing rule
        // before settling on B0.
        if b_rule == BRule::LineFitIntercept {
            if let Some(idx) = first_zero_crossing_left_within(d1, b_start, b_window) {
                b = idx;
                b_rule = BRule::FirstDerivativeZeroCrossing;
            }
        }
        let b = b.min(c.saturating_sub(1));

        // --- X: the negative post-C trough, refined to its onset ------------
        let x0 = self.x_trough(icg, c)?;
        if icg[x0] >= 0.0 {
            return Err(IcgError::PointNotFound {
                point: "X",
                reason: "no negative minimum after the C point",
            });
        }
        let x = self.refine_x(d3, x0, c);

        Ok(CharacteristicPoints {
            b,
            c,
            x,
            b0,
            b_rule,
        })
    }

    /// Shared beat-length gate.
    fn check_len(&self, icg: &[f64]) -> Result<(), IcgError> {
        let min_len = (0.3 * self.fs) as usize;
        if icg.len() < min_len {
            return Err(IcgError::BeatTooShort {
                len: icg.len(),
                min_len,
            });
        }
        Ok(())
    }

    /// Shared C-apex search. The window keeps away from the segment
    /// edges: the ejection cannot start before ~40 ms after R, and C sits
    /// in the first ~3/4 of the cycle.
    fn find_c(&self, icg: &[f64]) -> Result<usize, IcgError> {
        let c_lo = (0.04 * self.fs) as usize;
        let c_hi = (icg.len() * 3) / 4;
        let c = c_lo
            + peaks::argmax(&icg[c_lo..c_hi]).ok_or(IcgError::PointNotFound {
                point: "C",
                reason: "empty search window",
            })?;
        if icg[c] <= 0.0 {
            return Err(IcgError::PointNotFound {
                point: "C",
                reason: "no positive deflection in the beat",
            });
        }
        Ok(c)
    }

    /// The lowest ICG sample in the X search window right of C. The
    /// global search is bounded at 300 ms past C: the C apex sits ~40 %
    /// into ejection, so X trails it by 0.6·LVET ≤ 270 ms even at the
    /// longest physiological LVET; anything deeper farther out is a
    /// diastolic artifact, not the valve closure.
    fn x_trough(&self, icg: &[f64], c: usize) -> Result<usize, IcgError> {
        let x_bound = c + 1 + (0.30 * self.fs) as usize;
        let (x_lo, x_hi) = match self.x_search {
            XSearch::GlobalMinimum => (c + 1, icg.len().min(x_bound)),
            XSearch::RtWindow { rt_s } => {
                let lo = ((rt_s * self.fs) as usize).max(c + 1);
                let hi = ((1.75 * rt_s * self.fs) as usize).min(icg.len());
                if lo >= hi {
                    (c + 1, icg.len())
                } else {
                    (lo, hi)
                }
            }
        };
        if x_lo >= x_hi {
            return Err(IcgError::PointNotFound {
                point: "X",
                reason: "no samples after the C point",
            });
        }
        Ok(x_lo
            + peaks::argmin(&icg[x_lo..x_hi]).ok_or(IcgError::PointNotFound {
                point: "X",
                reason: "empty search window",
            })?)
    }

    /// Refines the trough `x0` to the third-derivative minimum just left
    /// of it (the valve-closure onset), staying right of C.
    fn refine_x(&self, d3: &[f64], x0: usize, c: usize) -> usize {
        let x_window = (self.x_refine_window_s * self.fs) as usize;
        first_local_min_left_within(d3, x0, x_window)
            .filter(|&idx| idx > c)
            .unwrap_or(x0)
    }

    /// Weighted time-window B (arXiv:2207.04490): candidates inside the
    /// expected-B window, scored by a triangular weight centred on the
    /// prior — an EMA of the per-beat *anchor* (the Classic-style
    /// leftward refinement of the line-fit foot), blended 3:1 with the
    /// current beat's anchor; the first beat uses its anchor directly.
    /// The implied PEP/LVET must land inside the expected bands
    /// ([`WEIGHTED_PEP_BAND_S`], [`WEIGHTED_LVET_BAND_S`]) or the beat
    /// is rejected. The estimator is paired with the ReBeatICG C/X rules
    /// ([`DelineationStrategy::Hybrid`]).
    fn detect_weighted(
        &self,
        icg: &[f64],
        state: &mut StrategyState,
        work: &mut DetectWork,
    ) -> Result<CharacteristicPoints, IcgError> {
        self.check_len(icg)?;
        let c = self.find_c(icg)?;
        work.derivatives(icg, self.fs)?;
        let (d1, d3) = (&work.d1[..], &work.d3[..]);

        // Line-fit B0 (same construction as Classic): the first-beat
        // seed of the weighted window.
        let b0 = line_fit_b0(icg, c, &mut work.xs, &mut work.ys);

        // Per-beat anchor for the expected-B prior: the Classic-style
        // leftward refinement from the line-fit foot. The raw intercept
        // lies on the rising edge — up to the full refinement window
        // *right* of the true knee — so it cannot centre the window
        // itself; the refined knee can. The anchor enters every beat
        // (averaged with the EMA below), not just the first: a prior
        // poisoned by a few bad early beats would otherwise
        // self-confirm forever, because the window only ever offers
        // candidates near wherever the prior already is.
        let seed = {
            let b_window = (self.b_refine_window_s * self.fs) as usize;
            let b0_idx = (b0.round() as usize).min(c.saturating_sub(1));
            let b_start = (b0_idx + 2).min(c.saturating_sub(1));
            first_local_min_left_within(d3, b_start, b_window)
                .or_else(|| first_zero_crossing_left_within(d1, b_start, b_window))
                .map_or(b0, |idx| idx as f64)
        };
        // 3:1 EMA:anchor — enough anchor that a biased prior mean-
        // reverts within a few beats, little enough that one outlier
        // anchor cannot drag B off the knee.
        let pred = if state.rb_beats > 0 {
            0.75 * (state.rb_ema_s * self.fs) + 0.25 * seed
        } else {
            seed
        };
        let (b, b_rule) = self.weighted_b(c, d1, d3, b0, pred);

        // ReBeatICG X: the bounded post-C trough, sign-free (unlike
        // Classic) so a degraded beat still yields a point, refined to
        // its onset via the third derivative.
        let x = self.refine_x(d3, self.x_trough(icg, c)?, c);

        // The same physiologically-expected-window principle the B
        // search runs on, applied to the implied intervals: a beat
        // whose PEP or LVET leaves the expected band is a delineation
        // failure (motion artifacts on degraded touch signals produce
        // deep spurious dZ/dt troughs that a plausible B would
        // otherwise legitimise), so the beat is rejected rather than
        // reported. The bands are deliberately tighter than the
        // downstream `is_physiological` outlier gate — that gate keeps
        // the beat but flags it; this one refuses to emit coordinates
        // at all, which is what keeps junk X points out of the
        // detection set. Classic deliberately has no such gate: its
        // output is pinned bitwise to the source paper's rules.
        let pep_s = b as f64 / self.fs;
        let lvet_s = (x as f64 - b as f64) / self.fs;
        if !(WEIGHTED_PEP_BAND_S.0..=WEIGHTED_PEP_BAND_S.1).contains(&pep_s)
            || !(WEIGHTED_LVET_BAND_S.0..=WEIGHTED_LVET_BAND_S.1).contains(&lvet_s)
        {
            return Err(IcgError::PointNotFound {
                point: "B",
                reason: "implied systolic intervals outside the expected band",
            });
        }

        // The prior tracks the EMA of the per-beat *anchor* — never of
        // the chosen B. Feeding the choice back would self-confirm: a
        // window centred on a wrong track only offers candidates from
        // that track, so the prior could never see contrary evidence.
        // The anchor is unbiased (it ignores the prior entirely), so
        // the EMA mean-reverts within a few beats of any cold-start or
        // warm-up discrepancy — which is also what re-synchronises a
        // freshly started stream with a long-running batch. Advancing
        // only on full success keeps both engines on one trajectory.
        state.accept_rb(seed / self.fs);
        Ok(CharacteristicPoints {
            b,
            c,
            x,
            b0,
            b_rule,
        })
    }

    /// Scores weighted-window B candidates; returns the winner, or the
    /// window centre (the prior itself) when no candidate survives.
    /// The fallback is safe because the caller's interval-plausibility
    /// gate still vets the implied PEP/LVET — a prior-fabricated B
    /// paired with a junk X is rejected there, not reported.
    fn weighted_b(&self, c: usize, d1: &[f64], d3: &[f64], b0: f64, pred: f64) -> (usize, BRule) {
        let half = (self.b_weight_halfwidth_s * self.fs).max(1.0);
        let c_cap = c.saturating_sub(1).max(1);
        // The knee never sits on the C rising flank, whose own
        // third-derivative troughs dwarf the notch and would drag the
        // prior late beat over beat: the window's right edge stops at
        // the line-fit foot (B0 + rounding slack) — the same exclusion
        // the Classic leftward scan gets for free. Only the edge is
        // capped: when a degenerate line fit puts B0 left of the whole
        // window, the beat falls back to the prior rather than letting
        // the bad fit drag the search into the A wave.
        let flank_cap = c_cap.min((b0.round() as usize).saturating_add(2)).max(1);
        let pred = pred.clamp(1.0, c_cap as f64);
        let fallback = ((pred.round() as usize).max(1)).min(c_cap);
        let lo = ((pred - half).floor().max(1.0)) as usize;
        let hi = ((pred + half).ceil() as usize).min(flank_cap);
        if lo > hi {
            return (fallback, BRule::WeightedWindow);
        }
        // The triangle decays to only ½ at the window edge: distance
        // breaks ties between comparable candidates, but a deep knee
        // trough still beats a shallow noise feature sitting right on
        // the prior — a full-decay triangle makes whichever track the
        // prior starts on self-sustaining (two engines with different
        // warm-up histories would lock onto different tracks and never
        // reconverge).
        let weight =
            |i: usize, bonus: f64| bonus * (1.0 - (i as f64 - pred).abs() / (2.0 * (half + 1.0)));
        // Deepest third-derivative trough in the window: candidate
        // prominence is measured against it, so shallow noise minima
        // right at the prior cannot out-score the genuine (deep) knee
        // a few samples away — without this the EMA self-confirms
        // whatever offset it starts with.
        let mut d3_floor = 0.0_f64;
        for &v in d3.iter().take(hi + 1).skip(lo) {
            if v < d3_floor {
                d3_floor = v;
            }
        }
        let mut best: Option<(f64, usize)> = None;
        let consider = |w: f64, i: usize, best: &mut Option<(f64, usize)>| {
            if best.map_or(true, |(bw, _)| w > bw) {
                *best = Some((w, i));
            }
        };
        for i in lo..=hi {
            // Third-derivative local minima — the Classic primary
            // rule's candidate family, weighted by trough depth. The
            // knee sits where the upstroke begins, so the slope one
            // sample on must be non-descending: the A wave's right
            // flank produces equally deep troughs mid-descent, and
            // without the gate a cold-started prior locks onto them.
            if i >= 1
                && i + 1 < d3.len()
                && d3[i] < d3[i - 1]
                && d3[i] <= d3[i + 1]
                && (d1[i] > 0.0 || d1.get(i + 1).is_some_and(|&v| v >= 0.0))
            {
                let depth = if d3_floor < 0.0 {
                    (d3[i] / d3_floor).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                consider(weight(i, depth), i, &mut best);
            }
            // Falling-to-rising first-derivative crossings (valley
            // onsets) — the secondary family, at fixed middling
            // quality: real on a clean notch, but indistinguishable
            // from noise wiggles. Rising-to-falling crossings are
            // local peaks and never B.
            if i + 1 < d1.len() && d1[i] < 0.0 && d1[i + 1] > 0.0 {
                consider(weight(i, 0.5), i, &mut best);
            }
        }
        match best {
            Some((_, i)) => (i, BRule::WeightedWindow),
            None => (fallback, BRule::WeightedWindow),
        }
    }
}

/// Per-beat detection workspace: the smoothed segment, its first three
/// derivatives and the B0 line-fit points. Pure workspace, reused by
/// every beat a thread delineates, so detection never allocates once the
/// buffers have grown to the longest beat.
struct DetectWork {
    smoothed: Vec<f64>,
    d1: Vec<f64>,
    d2: Vec<f64>,
    d3: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

thread_local! {
    static DETECT_WORK: RefCell<DetectWork> = const {
        RefCell::new(DetectWork {
            smoothed: Vec::new(),
            d1: Vec::new(),
            d2: Vec::new(),
            d3: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
        })
    };
}

impl DetectWork {
    /// Smooths `icg` (one [`binomial_smooth_into`] pass) and fills `d1`,
    /// `d2`, `d3` from it by successive [`diff::derivative_into`] calls —
    /// bitwise `diff::{derivative, second_derivative,
    /// third_derivative}` of the smoothed segment, each computed once.
    ///
    /// # Errors
    ///
    /// [`DspError::InputTooShort`] for a segment under 4 samples, as
    /// [`diff::third_derivative`] reports it.
    fn derivatives(&mut self, icg: &[f64], fs: f64) -> Result<(), IcgError> {
        if icg.len() < 4 {
            return Err(DspError::InputTooShort {
                len: icg.len(),
                min_len: 4,
            }
            .into());
        }
        binomial_smooth_into(icg, &mut self.smoothed);
        diff::derivative_into(&self.smoothed, fs, &mut self.d1)?;
        diff::derivative_into(&self.d1, fs, &mut self.d2)?;
        diff::derivative_into(&self.d2, fs, &mut self.d3)?;
        Ok(())
    }
}

/// One pass of 5-point binomial smoothing `[1, 4, 6, 4, 1] / 16` with
/// replicated edges, written into `out` (cleared first). Only the two
/// samples at each end read a clamped index; the interior runs over
/// `windows(5)`.
fn binomial_smooth_into(x: &[f64], out: &mut Vec<f64>) {
    let n = x.len();
    let at = |i: isize| -> f64 { x[i.clamp(0, n as isize - 1) as usize] };
    let edge = |i: usize| {
        let i = i as isize;
        (at(i - 2) + 4.0 * at(i - 1) + 6.0 * at(i) + 4.0 * at(i + 1) + at(i + 2)) / 16.0
    };
    out.clear();
    out.extend((0..n.min(2)).map(edge));
    out.extend(
        x.windows(5)
            .map(|w| (w[0] + 4.0 * w[1] + 6.0 * w[2] + 4.0 * w[3] + w[4]) / 16.0),
    );
    let done = out.len();
    out.extend((done..n).map(edge));
}

/// The initial B estimate B0: the x-axis intercept of the least-squares
/// line through the rising-edge samples between 40 % and 80 % of the C
/// amplitude, walking left from C over one contiguous run. Falls back to
/// the last index inspected (below 40 %) when the fit is degenerate or
/// its intercept leaves `[0, c)`. `xs`/`ys` are workspace.
fn line_fit_b0(icg: &[f64], c: usize, xs: &mut Vec<f64>, ys: &mut Vec<f64>) -> f64 {
    let amp_c = icg[c];
    xs.clear();
    ys.clear();
    let mut i = c;
    while i > 0 {
        let v = icg[i];
        if v < 0.4 * amp_c {
            break;
        }
        if v <= 0.8 * amp_c {
            xs.push(i as f64);
            ys.push(v);
        }
        i -= 1;
    }
    let edge_floor = i; // last index inspected (below 40 %)
    if xs.len() >= 2 {
        LineFit::fit(xs, ys)
            .ok()
            .and_then(|f| f.x_intercept())
            .filter(|&v| v.is_finite() && v >= 0.0 && v < c as f64)
            .unwrap_or(edge_floor as f64)
    } else {
        edge_floor as f64
    }
}

/// First strict local minimum of `x` scanning left from `start`, not
/// farther than `window` samples. `None` when nothing qualifies.
fn first_local_min_left_within(x: &[f64], start: usize, window: usize) -> Option<usize> {
    let stop = start.saturating_sub(window);
    let mut i = start.min(x.len().saturating_sub(1));
    while i >= 2 && i > stop.max(1) {
        let c = i - 1;
        if x[c] < x[c - 1] && x[c] <= x[c + 1] {
            return Some(c);
        }
        i -= 1;
    }
    None
}

/// First sign change of `x` scanning left from `start`, not farther than
/// `window` samples. Returns the left index of the crossing pair.
fn first_zero_crossing_left_within(x: &[f64], start: usize, window: usize) -> Option<usize> {
    let stop = start.saturating_sub(window);
    let mut i = start.min(x.len().saturating_sub(1));
    while i > stop && i > 0 {
        let a = x[i - 1];
        let b = x[i];
        if a != 0.0 && b != 0.0 && (a > 0.0) != (b > 0.0) {
            return Some(i - 1);
        }
        i -= 1;
    }
    None
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{DelineationStrategy, StrategyState};
    use cardiotouch_physio::heart::HeartModel;
    use cardiotouch_physio::icg::IcgMorphology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 250.0;

    /// Renders beats and returns (full icg, landmarks).
    fn synth(seed: u64) -> (Vec<f64>, Vec<cardiotouch_physio::icg::BeatLandmarks>) {
        let beats = HeartModel::default()
            .schedule(20.0, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let n = (20.0 * FS) as usize;
        let m = IcgMorphology::default();
        (m.render_dzdt(&beats, n, FS), m.landmarks(&beats, n, FS))
    }

    fn detector() -> PointDetector {
        PointDetector::new(FS, XSearch::GlobalMinimum).unwrap()
    }

    #[test]
    fn detects_points_near_ground_truth() {
        let (icg, lms) = synth(1);
        let det = detector();
        let mut b_err = Vec::new();
        let mut c_err = Vec::new();
        let mut x_err = Vec::new();
        for w in lms.windows(2) {
            let (lm, next) = (&w[0], &w[1]);
            let seg = &icg[lm.r..next.r];
            let pts = det.detect(seg).unwrap();
            b_err.push((pts.b + lm.r) as f64 - lm.b as f64);
            c_err.push((pts.c + lm.r) as f64 - lm.c as f64);
            x_err.push((pts.x + lm.r) as f64 - lm.x as f64);
        }
        let mae = |v: &[f64]| v.iter().map(|e| e.abs()).sum::<f64>() / v.len() as f64;
        // tolerances in samples at 250 Hz (4 ms each)
        assert!(mae(&c_err) <= 1.5, "C MAE {} samples", mae(&c_err));
        assert!(mae(&b_err) <= 5.0, "B MAE {} samples", mae(&b_err));
        assert!(mae(&x_err) <= 4.0, "X MAE {} samples", mae(&x_err));
    }

    #[test]
    fn ordering_invariant_holds() {
        let (icg, lms) = synth(2);
        let det = detector();
        for w in lms.windows(2) {
            let seg = &icg[w[0].r..w[1].r];
            let pts = det.detect(seg).unwrap();
            assert!(pts.b < pts.c && pts.c < pts.x, "{pts:?}");
        }
    }

    #[test]
    fn rt_window_variant_matches_global_minimum_on_clean_beats() {
        let (icg, lms) = synth(3);
        let global = detector();
        for w in lms.windows(2) {
            let seg = &icg[w[0].r..w[1].r];
            let p1 = global.detect(seg).unwrap();
            // RT duration ≈ R→T apex ≈ 0.30 s for these beats
            let rt = PointDetector::new(FS, XSearch::RtWindow { rt_s: 0.30 }).unwrap();
            let p2 = rt.detect(seg).unwrap();
            assert!(
                p1.x.abs_diff(p2.x) <= 2,
                "variants disagree: {} vs {}",
                p1.x,
                p2.x
            );
        }
    }

    #[test]
    fn b0_line_fit_lands_on_rising_edge() {
        let (icg, lms) = synth(4);
        let det = detector();
        for w in lms.windows(2).take(5) {
            let seg = &icg[w[0].r..w[1].r];
            let pts = det.detect(seg).unwrap();
            // B0 must precede C and come after the segment start
            assert!(pts.b0 > 0.0 && pts.b0 < pts.c as f64);
            // and the signal at B0 must be well below 40 % of the C peak
            let v = seg[pts.b0.round() as usize];
            assert!(v < 0.45 * seg[pts.c], "B0 too high on the edge: {v}");
        }
    }

    #[test]
    fn survives_filtering_chain() {
        use crate::filter::IcgConditioner;
        let (mut icg, lms) = synth(5);
        // add out-of-band noise, then condition as the firmware would
        let mut rng = StdRng::seed_from_u64(99);
        let noise = cardiotouch_physio::noise::white(icg.len(), 0.05, &mut rng);
        for (v, n) in icg.iter_mut().zip(&noise) {
            *v += n;
        }
        let clean = IcgConditioner::paper_default(FS)
            .unwrap()
            .condition(&icg)
            .unwrap();
        let det = detector();
        let mut ok = 0;
        let mut total = 0;
        for w in lms.windows(2) {
            let seg = &clean[w[0].r..w[1].r];
            if let Ok(pts) = det.detect(seg) {
                total += 1;
                let b_abs = pts.b + w[0].r;
                let x_abs = pts.x + w[0].r;
                // Under this much in-band noise (σ = 0.05 Ω/s is ~4 % of
                // the C peak even after 20 Hz conditioning) B-point
                // detection is known to be bimodal; ±40 ms for B and
                // ±32 ms for X on ≥ 80 % of beats is the realistic bar.
                if b_abs.abs_diff(w[0].b) <= 10 && x_abs.abs_diff(w[0].x) <= 8 {
                    ok += 1;
                }
            }
        }
        assert!(total >= lms.len() - 2);
        assert!(
            ok as f64 >= 0.80 * total as f64,
            "only {ok}/{total} beats within tolerance"
        );
    }

    #[test]
    fn too_short_beat_rejected() {
        let det = detector();
        assert!(matches!(
            det.detect(&[0.0; 20]),
            Err(IcgError::BeatTooShort { .. })
        ));
    }

    #[test]
    fn all_negative_beat_has_no_c() {
        let det = detector();
        let seg = vec![-1.0; 200];
        assert!(matches!(
            det.detect(&seg),
            Err(IcgError::PointNotFound { point: "C", .. })
        ));
    }

    #[test]
    fn no_negative_trough_has_no_x() {
        let det = detector();
        // positive bump, never goes negative
        let seg: Vec<f64> = (0..200)
            .map(|i| {
                let t = (i as f64 - 60.0) / FS;
                (-t * t / (2.0 * 0.04 * 0.04)).exp()
            })
            .collect();
        assert!(matches!(
            det.detect(&seg),
            Err(IcgError::PointNotFound { point: "X", .. })
        ));
    }

    #[test]
    fn invalid_configuration_rejected() {
        assert!(PointDetector::new(0.0, XSearch::GlobalMinimum).is_err());
        assert!(PointDetector::new(FS, XSearch::RtWindow { rt_s: 0.0 }).is_err());
    }

    #[test]
    fn all_strategies_detect_near_ground_truth() {
        let (icg, lms) = synth(7);
        for strategy in DelineationStrategy::ALL {
            let det = PointDetector::with_strategy(FS, XSearch::GlobalMinimum, strategy).unwrap();
            let mut state = StrategyState::default();
            let mut b_err = Vec::new();
            let mut x_err = Vec::new();
            for w in lms.windows(2) {
                let seg = &icg[w[0].r..w[1].r];
                let pts = det.detect_with(seg, &mut state).unwrap();
                assert!(pts.b < pts.c && pts.c < pts.x, "{strategy}: {pts:?}");
                b_err.push(((pts.b + w[0].r) as f64 - w[0].b as f64).abs());
                x_err.push(((pts.x + w[0].r) as f64 - w[0].x as f64).abs());
            }
            let mae = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            // 6 samples = 24 ms at 250 Hz: every rule set must stay in
            // the neighbourhood of the synthesis truth on clean beats.
            assert!(mae(&b_err) <= 6.0, "{strategy}: B MAE {}", mae(&b_err));
            assert!(mae(&x_err) <= 8.0, "{strategy}: X MAE {}", mae(&x_err));
        }
    }

    #[test]
    fn classic_strategy_is_bitwise_the_legacy_detector() {
        let (icg, lms) = synth(8);
        let legacy = detector();
        let via_strategy =
            PointDetector::with_strategy(FS, XSearch::GlobalMinimum, DelineationStrategy::Classic)
                .unwrap();
        let mut state = StrategyState::default();
        for w in lms.windows(2) {
            let seg = &icg[w[0].r..w[1].r];
            let a = legacy.detect(seg).unwrap();
            let b = via_strategy.detect_with(seg, &mut state).unwrap();
            assert_eq!(a, b);
        }
        // Classic never touches the cross-beat state.
        assert_eq!(state, StrategyState::default());
    }

    #[test]
    fn weighted_b_prior_adapts_across_beats() {
        let (icg, lms) = synth(9);
        let det =
            PointDetector::with_strategy(FS, XSearch::GlobalMinimum, DelineationStrategy::Hybrid)
                .unwrap();
        let mut state = StrategyState::default();
        for w in lms.windows(2) {
            det.detect_with(&icg[w[0].r..w[1].r], &mut state).unwrap();
        }
        assert_eq!(state.rb_beats as usize, lms.len() - 1);
        // The EMA must have settled near the true PEP of these beats.
        let true_rb: f64 = lms
            .windows(2)
            .map(|w| (w[0].b - w[0].r) as f64 / FS)
            .sum::<f64>()
            / (lms.len() - 1) as f64;
        assert!(
            (state.rb_ema_s - true_rb).abs() < 0.025,
            "prior {} vs truth {}",
            state.rb_ema_s,
            true_rb
        );
    }

    #[test]
    fn b_rule_is_reported() {
        let (icg, lms) = synth(6);
        let det = detector();
        let mut rules = std::collections::HashSet::new();
        for w in lms.windows(2) {
            let seg = &icg[w[0].r..w[1].r];
            rules.insert(format!("{:?}", det.detect(seg).unwrap().b_rule));
        }
        assert!(!rules.is_empty());
    }
}

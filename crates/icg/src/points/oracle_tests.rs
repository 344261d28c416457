//! Oracle property for the per-beat detector: [`PointDetector::detect_with`]
//! (per-thread workspace, one derivative chain, clamp-free smoothing
//! interior, allocation-free sign-pattern test) against a test-local
//! allocating copy of the rules as they ran before the workspace — fresh
//! vectors per beat, a clamped index for every smoothed sample, each
//! derivative order recomputed from the smoothed segment, and the sign
//! runs collected into a `Vec`. The C/X window helpers and the weighted
//! scorer are unchanged and shared.

use super::*;
use crate::strategy::{DelineationStrategy, StrategyState};
use cardiotouch_physio::heart::HeartModel;
use cardiotouch_physio::icg::IcgMorphology;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn smooth_alloc(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let at = |i: isize| -> f64 { x[i.clamp(0, n as isize - 1) as usize] };
    (0..n as isize)
        .map(|i| (at(i - 2) + 4.0 * at(i - 1) + 6.0 * at(i) + 4.0 * at(i + 1) + at(i + 2)) / 16.0)
        .collect()
}

fn derivative_alloc(x: &[f64], fs: f64) -> Vec<f64> {
    let n = x.len();
    let mut y = Vec::new();
    y.push((x[1] - x[0]) * fs);
    for i in 1..n - 1 {
        y.push((x[i + 1] - x[i - 1]) * fs / 2.0);
    }
    y.push((x[n - 1] - x[n - 2]) * fs);
    y
}

fn sign_pattern_alloc(x: &[f64], pattern: &[bool]) -> bool {
    let mut runs: Vec<bool> = Vec::new();
    for &v in x {
        if v == 0.0 {
            continue;
        }
        let s = v > 0.0;
        if runs.last() != Some(&s) {
            runs.push(s);
        }
    }
    runs.windows(pattern.len()).any(|w| w == pattern)
}

fn line_fit_alloc(icg: &[f64], c: usize) -> f64 {
    let amp_c = icg[c];
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
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
    let edge_floor = i;
    if xs.len() >= 2 {
        LineFit::fit(&xs, &ys)
            .ok()
            .and_then(|f| f.x_intercept())
            .filter(|&v| v.is_finite() && v >= 0.0 && v < c as f64)
            .unwrap_or(edge_floor as f64)
    } else {
        edge_floor as f64
    }
}

/// Classic X (global or RT-window trough, third-derivative onset).
fn classic_x_alloc(
    det: &PointDetector,
    icg: &[f64],
    c: usize,
    d3: &[f64],
) -> Result<usize, IcgError> {
    let x_bound = c + 1 + (0.30 * det.fs) as usize;
    let (x_lo, x_hi) = match det.x_search {
        XSearch::GlobalMinimum => (c + 1, icg.len().min(x_bound)),
        XSearch::RtWindow { rt_s } => {
            let lo = ((rt_s * det.fs) as usize).max(c + 1);
            let hi = ((1.75 * rt_s * det.fs) as usize).min(icg.len());
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
    let x0 = x_lo
        + peaks::argmin(&icg[x_lo..x_hi]).ok_or(IcgError::PointNotFound {
            point: "X",
            reason: "empty search window",
        })?;
    if icg[x0] >= 0.0 {
        return Err(IcgError::PointNotFound {
            point: "X",
            reason: "no negative minimum after the C point",
        });
    }
    let x_window = (det.x_refine_window_s * det.fs) as usize;
    Ok(first_local_min_left_within(d3, x0, x_window)
        .filter(|&idx| idx > c)
        .unwrap_or(x0))
}

fn classic_alloc(det: &PointDetector, icg: &[f64]) -> Result<CharacteristicPoints, IcgError> {
    det.check_len(icg)?;
    let c = det.find_c(icg)?;
    let smoothed = smooth_alloc(icg);
    let d1 = derivative_alloc(&smoothed, det.fs);
    let d2 = derivative_alloc(&derivative_alloc(&smoothed, det.fs), det.fs);
    let d3 = derivative_alloc(&d2, det.fs);
    let b0 = line_fit_alloc(icg, c);
    let b0_idx = (b0.round() as usize).min(c.saturating_sub(1));
    let b_window = (det.b_refine_window_s * det.fs) as usize;
    let b_start = (b0_idx + 2).min(c.saturating_sub(1));
    let pattern_lo = b0_idx.saturating_sub(2 * b_window);
    let has_pattern = sign_pattern_alloc(&d2[pattern_lo..=c], &[true, false, true, false]);
    let (mut b, mut b_rule) = if has_pattern {
        match first_local_min_left_within(&d3, b_start, b_window) {
            Some(idx) => (idx, BRule::ThirdDerivativeMinimum),
            None => (b0_idx, BRule::LineFitIntercept),
        }
    } else {
        match first_zero_crossing_left_within(&d1, b_start, b_window) {
            Some(idx) => (idx, BRule::FirstDerivativeZeroCrossing),
            None => (b0_idx, BRule::LineFitIntercept),
        }
    };
    if b_rule == BRule::LineFitIntercept {
        if let Some(idx) = first_zero_crossing_left_within(&d1, b_start, b_window) {
            b = idx;
            b_rule = BRule::FirstDerivativeZeroCrossing;
        }
    }
    let b = b.min(c.saturating_sub(1));
    let x = classic_x_alloc(det, icg, c, &d3)?;
    Ok(CharacteristicPoints {
        b,
        c,
        x,
        b0,
        b_rule,
    })
}

fn weighted_alloc(
    det: &PointDetector,
    icg: &[f64],
    state: &mut StrategyState,
) -> Result<CharacteristicPoints, IcgError> {
    det.check_len(icg)?;
    let c = det.find_c(icg)?;
    let smoothed = smooth_alloc(icg);
    let d1 = derivative_alloc(&smoothed, det.fs);
    let d3 = derivative_alloc(
        &derivative_alloc(&derivative_alloc(&smoothed, det.fs), det.fs),
        det.fs,
    );
    let b0 = line_fit_alloc(icg, c);
    let seed = {
        let b_window = (det.b_refine_window_s * det.fs) as usize;
        let b0_idx = (b0.round() as usize).min(c.saturating_sub(1));
        let b_start = (b0_idx + 2).min(c.saturating_sub(1));
        first_local_min_left_within(&d3, b_start, b_window)
            .or_else(|| first_zero_crossing_left_within(&d1, b_start, b_window))
            .map_or(b0, |idx| idx as f64)
    };
    let pred = if state.rb_beats > 0 {
        0.75 * (state.rb_ema_s * det.fs) + 0.25 * seed
    } else {
        seed
    };
    let (b, b_rule) = det.weighted_b(c, &d1, &d3, b0, pred);
    let x = det.refine_x(&d3, det.x_trough(icg, c)?, c);
    let pep_s = b as f64 / det.fs;
    let lvet_s = (x as f64 - b as f64) / det.fs;
    if !(WEIGHTED_PEP_BAND_S.0..=WEIGHTED_PEP_BAND_S.1).contains(&pep_s)
        || !(WEIGHTED_LVET_BAND_S.0..=WEIGHTED_LVET_BAND_S.1).contains(&lvet_s)
    {
        return Err(IcgError::PointNotFound {
            point: "B",
            reason: "implied systolic intervals outside the expected band",
        });
    }
    state.accept_rb(seed / det.fs);
    Ok(CharacteristicPoints {
        b,
        c,
        x,
        b0,
        b_rule,
    })
}

fn detect_alloc(
    det: &PointDetector,
    icg: &[f64],
    state: &mut StrategyState,
) -> Result<CharacteristicPoints, IcgError> {
    match det.strategy {
        DelineationStrategy::Classic => classic_alloc(det, icg),
        DelineationStrategy::Hybrid => weighted_alloc(det, icg, state),
    }
}

/// Sample bit patterns, NaN payloads folded (the compiler may commute
/// an add, which picks the NaN operand that propagates).
fn bits(x: &[f64]) -> Vec<u64> {
    x.iter()
        .map(|&v| if v.is_nan() { f64::NAN } else { v }.to_bits())
        .collect()
}

/// A detection as bit patterns, so `b0` compares exactly.
fn result_bits(
    r: &Result<CharacteristicPoints, IcgError>,
) -> Result<(usize, usize, usize, u64, BRule), String> {
    r.as_ref()
        .map(|p| (p.b, p.c, p.x, p.b0.to_bits(), p.b_rule))
        .map_err(|e| format!("{e:?}"))
}

proptest! {
    #[test]
    fn oracle_workspace_detector_bitwise_equals_allocating_copy(
        seed in 0u64..1_000_000,
        strategy in 0usize..DelineationStrategy::ALL.len(),
        fs_pick in 0usize..3,
        rt in 0u32..2,
        noise in 0.0f64..0.6,
        junk in 0u32..4,
    ) {
        let fs = [250.0, 200.0, 500.0][fs_pick];
        let x_search = if rt == 1 {
            XSearch::RtWindow { rt_s: 0.28 }
        } else {
            XSearch::GlobalMinimum
        };
        let det = PointDetector::with_strategy(fs, x_search, DelineationStrategy::ALL[strategy])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let beats = HeartModel::default().schedule(8.0, &mut rng).unwrap();
        let n = (8.0 * fs) as usize;
        let m = IcgMorphology::default();
        let mut icg = m.render_dzdt(&beats, n, fs);
        for v in &mut icg {
            *v += noise * (rng.gen::<f64>() - 0.5);
        }
        let mut rs: Vec<usize> = m.landmarks(&beats, n, fs).iter().map(|l| l.r).collect();
        if junk == 0 {
            // Pure noise segments of arbitrary length: every error path
            // and fallback rule, not just well-formed beats.
            for v in &mut icg {
                *v = rng.gen::<f64>() - 0.5;
            }
            rs = (0..n).step_by(37 + (seed % 200) as usize).collect();
        }
        let (mut got_state, mut want_state) = (StrategyState::default(), StrategyState::default());
        for w in rs.windows(2) {
            let seg = &icg[w[0]..w[1]];
            let got = det.detect_with(seg, &mut got_state);
            let want = detect_alloc(&det, seg, &mut want_state);
            let (got, want) = (result_bits(&got), result_bits(&want));
            prop_assert!(got == want, "segment {}..{}: {:?} vs {:?}", w[0], w[1], got, want);
            // Rounding rarely moves a landmark, so the workspace kernels
            // are held to the allocating ones sample for sample as well.
            if seg.len() >= 4 {
                let smoothed = smooth_alloc(seg);
                let d1 = derivative_alloc(&smoothed, fs);
                let d2 = derivative_alloc(&d1, fs);
                let d3 = derivative_alloc(&d2, fs);
                DETECT_WORK.with(|work| {
                    let work = &mut work.borrow_mut();
                    work.derivatives(seg, fs).unwrap();
                    for (got, want) in [
                        (&work.smoothed, &smoothed),
                        (&work.d1, &d1),
                        (&work.d2, &d2),
                        (&work.d3, &d3),
                    ] {
                        assert!(bits(got) == bits(want), "segment {}..{}", w[0], w[1]);
                    }
                });
            }
            prop_assert_eq!(got_state.rb_ema_s.to_bits(), want_state.rb_ema_s.to_bits());
            prop_assert_eq!(got_state.rb_beats, want_state.rb_beats);
        }
    }
}

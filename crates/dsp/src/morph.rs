//! 1-D grayscale morphological filtering.
//!
//! The paper removes ECG baseline wander with the morphological method of
//! Sun, Chan & Krishnan (2002) \[21\]: *"It first applies an erosion followed
//! by a dilation, which removes peaks in the signal. Then, the resultant
//! waveforms with pits are removed by a dilation followed by an erosion.
//! The final result is an estimate of the baseline drift."* That is an
//! opening followed by a closing, with flat structuring elements sized to
//! straddle the widest in-beat feature. [`estimate_baseline`] implements
//! exactly that pipeline and [`remove_baseline`] subtracts the estimate.
//!
//! Erosion and dilation use a monotonic-deque sliding-window min/max:
//! each sample enters and leaves the deque at most once, so a pass costs
//! amortised O(n) regardless of element length — this is what makes the
//! method viable on a 32 MHz STM32L151.

use crate::DspError;
use std::collections::VecDeque;

/// Flat (all-zero) structuring element of odd length, described by its
/// half-width. A `FlatElement::new(k)` spans `2k + 1` samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlatElement {
    half_width: usize,
}

impl FlatElement {
    /// Element spanning `2 * half_width + 1` samples.
    #[must_use]
    pub fn new(half_width: usize) -> Self {
        Self { half_width }
    }

    /// Element sized to span `duration_s` seconds at sampling rate `fs`
    /// (rounded to the nearest odd sample count).
    #[must_use]
    pub fn from_duration(duration_s: f64, fs: f64) -> Self {
        let len = (duration_s * fs).round().max(1.0) as usize;
        Self {
            half_width: len / 2,
        }
    }

    /// Half-width in samples.
    #[must_use]
    pub fn half_width(&self) -> usize {
        self.half_width
    }

    /// Full length in samples (always odd).
    #[must_use]
    pub fn len(&self) -> usize {
        2 * self.half_width + 1
    }

    /// `true` only for the degenerate single-sample element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Sliding-window extremum with a monotonic deque; `cmp` returns `true`
/// when the first argument should *evict* the second from the deque
/// (i.e. `a <= b` for erosion/min, `a >= b` for dilation/max). Edge
/// handling clamps the window to the signal (equivalent to padding with
/// replicated border values, which is the standard choice for baseline
/// estimation).
fn sliding_extremum(x: &[f64], k: usize, keep_min: bool) -> Vec<f64> {
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    let mut dq: VecDeque<usize> = VecDeque::new();
    let dominates = |a: f64, b: f64| if keep_min { a <= b } else { a >= b };

    // The window for output i is [i - k, i + k] ∩ [0, n).
    let mut right = 0usize; // next index to admit
    for i in 0..n {
        let hi = (i + k).min(n - 1);
        while right <= hi {
            while let Some(&back) = dq.back() {
                if dominates(x[right], x[back]) {
                    dq.pop_back();
                } else {
                    break;
                }
            }
            dq.push_back(right);
            right += 1;
        }
        let lo = i.saturating_sub(k);
        while let Some(&front) = dq.front() {
            if front < lo {
                dq.pop_front();
            } else {
                break;
            }
        }
        out.push(x[*dq.front().expect("window is never empty")]);
    }
    out
}

/// Grayscale erosion (sliding minimum) of `x` by a flat element.
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when the element is wider than the
/// signal.
pub fn erode(x: &[f64], element: FlatElement) -> Result<Vec<f64>, DspError> {
    check(x, element)?;
    Ok(sliding_extremum(x, element.half_width(), true))
}

/// Grayscale dilation (sliding maximum) of `x` by a flat element.
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when the element is wider than the
/// signal.
pub fn dilate(x: &[f64], element: FlatElement) -> Result<Vec<f64>, DspError> {
    check(x, element)?;
    Ok(sliding_extremum(x, element.half_width(), false))
}

/// Opening: erosion followed by dilation. Removes positive peaks narrower
/// than the element.
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when the element is wider than the
/// signal.
pub fn open(x: &[f64], element: FlatElement) -> Result<Vec<f64>, DspError> {
    dilate(&erode(x, element)?, element)
}

/// Closing: dilation followed by erosion. Removes negative pits narrower
/// than the element.
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when the element is wider than the
/// signal.
pub fn close(x: &[f64], element: FlatElement) -> Result<Vec<f64>, DspError> {
    erode(&dilate(x, element)?, element)
}

/// Parameters of the Sun–Chan–Krishnan baseline estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BaselineConfig {
    /// Element used by the opening stage (must exceed the QRS width).
    pub peak_element: FlatElement,
    /// Element used by the closing stage (conventionally 1.5× the first).
    pub pit_element: FlatElement,
}

impl BaselineConfig {
    /// Conventional sizing for ECG at sampling rate `fs`: the opening
    /// element spans 0.2 s (wider than any QRS) and the closing element
    /// spans 0.3 s (1.5×), per Sun et al.
    #[must_use]
    pub fn for_ecg(fs: f64) -> Self {
        Self {
            peak_element: FlatElement::from_duration(0.2, fs),
            pit_element: FlatElement::from_duration(0.3, fs),
        }
    }
}

/// Estimates the baseline drift of `x`: opening (removes peaks) followed by
/// closing (removes pits), exactly the two-stage construction the paper
/// cites from \[21\].
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when either element is wider than
/// the signal.
pub fn estimate_baseline(x: &[f64], config: BaselineConfig) -> Result<Vec<f64>, DspError> {
    close(&open(x, config.peak_element)?, config.pit_element)
}

/// Removes baseline wander: `x − estimate_baseline(x)`.
///
/// # Errors
///
/// Returns [`DspError::InvalidKernel`] when either element is wider than
/// the signal.
pub fn remove_baseline(x: &[f64], config: BaselineConfig) -> Result<Vec<f64>, DspError> {
    let b = estimate_baseline(x, config)?;
    Ok(x.iter().zip(&b).map(|(v, w)| v - w).collect())
}

fn check(x: &[f64], element: FlatElement) -> Result<(), DspError> {
    if x.is_empty() || element.len() > x.len() {
        return Err(DspError::InvalidKernel {
            kernel_len: element.len(),
            signal_len: x.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erode_is_sliding_min() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = erode(&x, FlatElement::new(1)).unwrap();
        assert_eq!(y, vec![1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn dilate_is_sliding_max() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = dilate(&x, FlatElement::new(1)).unwrap();
        assert_eq!(y, vec![3.0, 4.0, 4.0, 5.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn zero_half_width_is_identity() {
        let x = [3.0, 1.0, 4.0];
        assert_eq!(erode(&x, FlatElement::new(0)).unwrap(), x.to_vec());
        assert_eq!(dilate(&x, FlatElement::new(0)).unwrap(), x.to_vec());
    }

    #[test]
    fn opening_removes_narrow_peak_keeps_plateau() {
        // narrow spike of width 1 on a flat signal disappears under a
        // 3-sample element
        let mut x = vec![0.0; 20];
        x[10] = 5.0;
        let y = open(&x, FlatElement::new(1)).unwrap();
        assert!(y.iter().all(|&v| v.abs() < 1e-12));

        // a plateau of width 5 survives a 3-sample opening
        let mut x2 = vec![0.0; 20];
        for v in x2[8..13].iter_mut() {
            *v = 5.0;
        }
        let y2 = open(&x2, FlatElement::new(1)).unwrap();
        assert_eq!(y2[10], 5.0);
    }

    #[test]
    fn closing_fills_narrow_pit() {
        let mut x = vec![1.0; 20];
        x[10] = -5.0;
        let y = close(&x, FlatElement::new(1)).unwrap();
        assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn erosion_below_dilation_above() {
        let x: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.3).sin()).collect();
        let e = erode(&x, FlatElement::new(4)).unwrap();
        let d = dilate(&x, FlatElement::new(4)).unwrap();
        for i in 0..100 {
            assert!(e[i] <= x[i] + 1e-12);
            assert!(d[i] >= x[i] - 1e-12);
        }
    }

    #[test]
    fn opening_is_idempotent() {
        let x: Vec<f64> = (0..200)
            .map(|i| ((i as f64) * 0.17).sin() + 0.3 * ((i as f64) * 0.71).cos())
            .collect();
        let el = FlatElement::new(3);
        let once = open(&x, el).unwrap();
        let twice = open(&once, el).unwrap();
        for i in 0..200 {
            assert!((once[i] - twice[i]).abs() < 1e-12, "idempotence at {i}");
        }
    }

    #[test]
    fn element_wider_than_signal_rejected() {
        let x = [1.0, 2.0, 3.0];
        assert!(erode(&x, FlatElement::new(2)).is_err());
        assert!(erode(&[], FlatElement::new(0)).is_err());
    }

    #[test]
    fn from_duration_sizes_correctly() {
        // 0.2 s at 250 Hz = 50 samples → half-width 25, span 51.
        let el = FlatElement::from_duration(0.2, 250.0);
        assert_eq!(el.half_width(), 25);
        assert_eq!(el.len(), 51);
    }

    #[test]
    fn baseline_estimator_tracks_slow_drift_ignores_spikes() {
        let fs = 250.0;
        let n = 2500;
        // slow 0.3 Hz drift plus narrow periodic spikes ("QRS")
        let drift: Vec<f64> = (0..n)
            .map(|i| 0.5 * (2.0 * std::f64::consts::PI * 0.3 * i as f64 / fs).sin())
            .collect();
        let mut x = drift.clone();
        for beat in (100..n).step_by(250) {
            x[beat] += 2.0; // 4 ms spike, far narrower than 0.2 s element
        }
        let est = estimate_baseline(&x, BaselineConfig::for_ecg(fs)).unwrap();
        // interior estimate should track the drift within the drift change
        // over half an element (~0.15 s of a 0.3 Hz sine → ≲ 0.15)
        for i in 200..n - 200 {
            assert!(
                (est[i] - drift[i]).abs() < 0.2,
                "sample {i}: est {} vs drift {}",
                est[i],
                drift[i]
            );
        }
        let corrected = remove_baseline(&x, BaselineConfig::for_ecg(fs)).unwrap();
        // spikes must survive correction
        assert!(corrected[100 + 250] > 1.5);
        // flat regions must be near zero
        assert!(corrected[300].abs() < 0.25);
    }

    #[test]
    fn monotone_deque_matches_naive_on_random_data() {
        // deterministic pseudo-random data; compare against O(n·k) naive
        let mut state = 0x1234_5678_u64;
        let mut x = Vec::with_capacity(300);
        for _ in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x.push((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5);
        }
        for k in [0usize, 1, 3, 7, 20] {
            let fast = sliding_extremum(&x, k, true);
            for (i, &f) in fast.iter().enumerate() {
                let lo = i.saturating_sub(k);
                let hi = (i + k).min(x.len() - 1);
                let naive = x[lo..=hi].iter().cloned().fold(f64::INFINITY, f64::min);
                assert_eq!(f, naive, "k={k} i={i}");
            }
        }
    }
}

//! Peak, zero-crossing and sign-pattern utilities.
//!
//! These are the scan primitives behind the ICG characteristic-point rules:
//! the C point is a global beat maximum, B needs "first minimum of the 3rd
//! derivative to the left of B0" and "(+,−,+,−) sign pattern of the 2nd
//! derivative left of C", X needs "lowest negative minimum right of C".

use crate::DspError;

/// Direction of a zero crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Crossing {
    /// Signal goes from negative (or zero) to positive.
    Rising,
    /// Signal goes from positive (or zero) to negative.
    Falling,
}

/// Index of the maximum value in `x[range]`, ties resolved to the lowest
/// index. Returns `None` for an empty slice/range.
#[must_use]
pub fn argmax(x: &[f64]) -> Option<usize> {
    x.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f64)>, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Index of the minimum value in `x`, ties resolved to the lowest index.
/// Returns `None` for an empty slice.
#[must_use]
pub fn argmin(x: &[f64]) -> Option<usize> {
    x.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f64)>, (i, &v)| match best {
            Some((_, bv)) if bv <= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Indices of strict local maxima (`x[i-1] < x[i] >= x[i+1]`, with the
/// plateau convention of taking the first sample) at least `min_distance`
/// samples apart and at least `min_height` high. When two candidates are
/// closer than `min_distance`, the higher one wins.
#[must_use]
pub fn local_maxima(x: &[f64], min_height: f64, min_distance: usize) -> Vec<usize> {
    let mut cands: Vec<usize> = Vec::new();
    for i in 1..x.len().saturating_sub(1) {
        if x[i] >= min_height && x[i] > x[i - 1] && x[i] >= x[i + 1] {
            cands.push(i);
        }
    }
    if min_distance <= 1 {
        return cands;
    }
    // Greedy selection by height.
    let mut by_height = cands.clone();
    by_height.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut taken: Vec<usize> = Vec::new();
    for i in by_height {
        if taken.iter().all(|&j| i.abs_diff(j) >= min_distance) {
            taken.push(i);
        }
    }
    taken.sort_unstable();
    taken
}

/// Indices of strict local minima, mirrored from [`local_maxima`]:
/// candidates must be at most `max_height` and at least `min_distance`
/// apart (deeper minima win conflicts).
#[must_use]
pub fn local_minima(x: &[f64], max_height: f64, min_distance: usize) -> Vec<usize> {
    let neg: Vec<f64> = x.iter().map(|v| -v).collect();
    local_maxima(&neg, -max_height, min_distance)
}

/// All zero crossings of `x` with their directions. A crossing is reported
/// at the index of the *second* sample of the sign-changing pair. Exact
/// zeros take the sign of the next non-zero sample.
#[must_use]
pub fn zero_crossings(x: &[f64]) -> Vec<(usize, Crossing)> {
    let mut out = Vec::new();
    let mut prev_sign: Option<bool> = None; // true = positive
    for (i, &v) in x.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let sign = v > 0.0;
        if let Some(p) = prev_sign {
            if p != sign {
                out.push((
                    i,
                    if sign {
                        Crossing::Rising
                    } else {
                        Crossing::Falling
                    },
                ));
            }
        }
        prev_sign = Some(sign);
    }
    out
}

/// Scans **leftward** from `start` (exclusive) and returns the index of the
/// first zero crossing of `x` encountered, i.e. the largest `i < start`
/// such that `x[i]` and `x[i+1]` have opposite signs. This is the fallback
/// B-point rule of the paper ("first zero-crossing of the first derivative
/// of the ICG to the left of B0").
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `start` is out of bounds.
pub fn first_zero_crossing_left(x: &[f64], start: usize) -> Result<Option<usize>, DspError> {
    if start >= x.len() {
        return Err(DspError::InvalidParameter {
            name: "start",
            value: start as f64,
            constraint: "must be a valid index into the signal",
        });
    }
    let mut i = start;
    while i > 0 {
        let a = x[i - 1];
        let b = x[i];
        if a != 0.0 && b != 0.0 && (a > 0.0) != (b > 0.0) {
            return Ok(Some(i - 1));
        }
        i -= 1;
    }
    Ok(None)
}

/// Scans **leftward** from `start` (exclusive) and returns the index of the
/// first strict local minimum of `x` encountered. This is the primary
/// B-point rule ("first minimum of the 3rd derivative to the left of B0")
/// and also the X refinement.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `start` is out of bounds.
pub fn first_local_minimum_left(x: &[f64], start: usize) -> Result<Option<usize>, DspError> {
    if start >= x.len() {
        return Err(DspError::InvalidParameter {
            name: "start",
            value: start as f64,
            constraint: "must be a valid index into the signal",
        });
    }
    let mut i = start;
    while i >= 2 {
        let c = i - 1;
        if x[c] < x[c - 1] && x[c] <= x[c + 1] {
            return Ok(Some(c));
        }
        i -= 1;
    }
    Ok(None)
}

/// Checks whether the run-length-encoded sign sequence of `x[lo..hi]`,
/// read **left to right**, contains `pattern` as a contiguous subsequence.
/// Zeros are skipped (they extend the current run). This implements the
/// paper's "(+,−,+,−) sign pattern of the second-order derivative of ICG to
/// the left of the C point" test: call it with the second derivative and
/// `pattern = [true, false, true, false]`.
#[must_use]
pub fn has_sign_pattern(x: &[f64], pattern: &[bool]) -> bool {
    let Some(&head) = pattern.first() else {
        return true;
    };
    // Consecutive sign runs alternate by construction, so only an
    // alternating pattern can match, and it does exactly when
    // `pattern.len()` runs exist from the first run of sign `head` on.
    if pattern.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    let mut last = None;
    let mut matched = 0;
    for &v in x {
        if v == 0.0 {
            continue;
        }
        let s = v > 0.0;
        if last == Some(s) {
            continue;
        }
        last = Some(s);
        if matched > 0 || s == head {
            matched += 1;
            if matched == pattern.len() {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_argmin_basic() {
        let x = [1.0, 5.0, 3.0, 5.0, -2.0];
        assert_eq!(argmax(&x), Some(1)); // first of the ties
        assert_eq!(argmin(&x), Some(4));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn local_maxima_finds_peaks() {
        let x = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        assert_eq!(local_maxima(&x, 0.5, 1), vec![1, 3, 5]);
    }

    #[test]
    fn local_maxima_height_filter() {
        let x = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0];
        assert_eq!(local_maxima(&x, 1.5, 1), vec![3, 5]);
    }

    #[test]
    fn local_maxima_distance_keeps_higher() {
        let x = [0.0, 2.0, 1.0, 3.0, 0.0];
        // peaks at 1 (h=2) and 3 (h=3), distance 2 < 3 → keep index 3
        assert_eq!(local_maxima(&x, 0.0, 3), vec![3]);
    }

    #[test]
    fn local_maxima_plateau_takes_first_sample() {
        let x = [0.0, 1.0, 1.0, 0.0];
        assert_eq!(local_maxima(&x, 0.0, 1), vec![1]);
    }

    #[test]
    fn local_minima_mirror() {
        let x = [0.0, -1.0, 0.0, -3.0, 0.0];
        assert_eq!(local_minima(&x, -0.5, 1), vec![1, 3]);
        assert_eq!(local_minima(&x, -2.0, 1), vec![3]);
    }

    #[test]
    fn zero_crossings_directions() {
        let x = [-1.0, -0.5, 0.5, 1.0, -1.0];
        let zc = zero_crossings(&x);
        assert_eq!(zc, vec![(2, Crossing::Rising), (4, Crossing::Falling)]);
    }

    #[test]
    fn zero_crossings_skip_exact_zero() {
        let x = [-1.0, 0.0, 1.0];
        let zc = zero_crossings(&x);
        assert_eq!(zc, vec![(2, Crossing::Rising)]);
    }

    #[test]
    fn first_zero_crossing_left_finds_nearest() {
        //        0     1    2     3    4     5
        let x = [1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        // from index 5 leftward: pair (3,4) crosses → index 3
        assert_eq!(first_zero_crossing_left(&x, 5).unwrap(), Some(3));
        // from index 2: pair (1,2) crosses → 1
        assert_eq!(first_zero_crossing_left(&x, 2).unwrap(), Some(1));
        // from index 1: pair (0,1) crosses → 0
        assert_eq!(first_zero_crossing_left(&x, 1).unwrap(), Some(0));
        assert_eq!(first_zero_crossing_left(&x, 0).unwrap(), None);
    }

    #[test]
    fn first_zero_crossing_left_out_of_bounds() {
        assert!(first_zero_crossing_left(&[1.0], 1).is_err());
    }

    #[test]
    fn first_local_minimum_left_finds_nearest() {
        //        0    1    2    3    4    5
        let x = [5.0, 1.0, 4.0, 0.0, 3.0, 2.0];
        // from 5 leftward: minimum at 3
        assert_eq!(first_local_minimum_left(&x, 5).unwrap(), Some(3));
        // from 3: minimum at 1
        assert_eq!(first_local_minimum_left(&x, 3).unwrap(), Some(1));
        // from 1: none (index 0 can't be a strict interior minimum)
        assert_eq!(first_local_minimum_left(&x, 1).unwrap(), None);
    }

    #[test]
    fn sign_pattern_detection() {
        // signs: + − + −
        let x = [1.0, 2.0, -1.0, -2.0, 3.0, -4.0];
        assert!(has_sign_pattern(&x, &[true, false, true, false]));
        assert!(!has_sign_pattern(&x, &[false, false]));
        // zeros are transparent
        let y = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0];
        assert!(has_sign_pattern(&y, &[true, false, true, false]));
    }

    #[test]
    fn sign_pattern_empty_is_trivially_true() {
        assert!(has_sign_pattern(&[1.0], &[]));
        assert!(has_sign_pattern(&[], &[]));
        assert!(!has_sign_pattern(&[], &[true]));
    }

    #[test]
    fn sign_pattern_needs_contiguous_runs() {
        // signs: + − −  + (runs: +,−,+) — pattern +−+− absent
        let x = [1.0, -1.0, -2.0, 3.0];
        assert!(!has_sign_pattern(&x, &[true, false, true, false]));
        assert!(has_sign_pattern(&x, &[true, false, true]));
    }
}

//! Discrete derivatives.
//!
//! The paper's characteristic-point rules are built on derivatives of the
//! ICG: the B point inspects the sign pattern of the **second** derivative
//! and the minima of the **third**; the fallback rule uses zero crossings of
//! the **first**. Pan–Tompkins also uses a five-point derivative stage.
//!
//! All routines return a signal of the same length as the input; endpoints
//! use one-sided differences so downstream index arithmetic stays simple.

use crate::DspError;

/// First derivative by central differences, scaled by the sampling rate so
/// the result is in units of `[x]/s`:
/// `y[n] = (x[n+1] − x[n−1]) · fs / 2`, with one-sided differences at the
/// ends.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples,
/// or [`DspError::InvalidParameter`] for a non-positive `fs`.
pub fn derivative(x: &[f64], fs: f64) -> Result<Vec<f64>, DspError> {
    let mut y = Vec::new();
    derivative_into(x, fs, &mut y)?;
    Ok(y)
}

/// Buffer-reusing variant of [`derivative`]: `y` is cleared and filled
/// with the derivative, reusing its capacity. Bitwise-identical to
/// [`derivative`], which delegates here.
///
/// # Errors
///
/// Same conditions as [`derivative`].
pub fn derivative_into(x: &[f64], fs: f64, y: &mut Vec<f64>) -> Result<(), DspError> {
    if x.len() < 2 {
        return Err(DspError::InputTooShort {
            len: x.len(),
            min_len: 2,
        });
    }
    if !fs.is_finite() || fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            value: fs,
            constraint: "must be positive and finite",
        });
    }
    let n = x.len();
    y.clear();
    y.reserve(n);
    y.push((x[1] - x[0]) * fs);
    y.extend(x.windows(3).map(|w| (w[2] - w[0]) * fs / 2.0));
    y.push((x[n - 1] - x[n - 2]) * fs);
    Ok(())
}

/// Second derivative: `derivative` applied twice.
///
/// # Errors
///
/// Same conditions as [`derivative`] (with a 3-sample minimum).
pub fn second_derivative(x: &[f64], fs: f64) -> Result<Vec<f64>, DspError> {
    if x.len() < 3 {
        return Err(DspError::InputTooShort {
            len: x.len(),
            min_len: 3,
        });
    }
    derivative(&derivative(x, fs)?, fs)
}

/// Third derivative: `derivative` applied three times.
///
/// # Errors
///
/// Same conditions as [`derivative`] (with a 4-sample minimum).
pub fn third_derivative(x: &[f64], fs: f64) -> Result<Vec<f64>, DspError> {
    if x.len() < 4 {
        return Err(DspError::InputTooShort {
            len: x.len(),
            min_len: 4,
        });
    }
    derivative(&second_derivative(x, fs)?, fs)
}

/// The five-point derivative used by the original Pan–Tompkins paper:
/// `y[n] = (2x[n] + x[n−1] − x[n−3] − 2x[n−4]) / 8`, scaled by `fs`.
/// The first four outputs are computed with truncated history (treated as
/// zero-padded past).
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 5 samples,
/// or [`DspError::InvalidParameter`] for a non-positive `fs`.
pub fn five_point_derivative(x: &[f64], fs: f64) -> Result<Vec<f64>, DspError> {
    if x.len() < 5 {
        return Err(DspError::InputTooShort {
            len: x.len(),
            min_len: 5,
        });
    }
    if !fs.is_finite() || fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            value: fs,
            constraint: "must be positive and finite",
        });
    }
    let get = |i: isize| -> f64 {
        if i < 0 {
            0.0
        } else {
            x[i as usize]
        }
    };
    Ok((0..x.len() as isize)
        .map(|n| (2.0 * get(n) + get(n - 1) - get(n - 3) - 2.0 * get(n - 4)) * fs / 8.0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_linear_ramp_is_constant() {
        let fs = 100.0;
        let x: Vec<f64> = (0..50).map(|i| 3.0 * i as f64 / fs).collect();
        let d = derivative(&x, fs).unwrap();
        for v in d {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        let d = derivative(&[5.0; 10], 250.0).unwrap();
        assert!(d.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn derivative_of_sine_is_cosine() {
        let fs = 1000.0;
        let f = 2.0;
        let w = 2.0 * std::f64::consts::PI * f;
        let x: Vec<f64> = (0..2000).map(|i| (w * i as f64 / fs).sin()).collect();
        let d = derivative(&x, fs).unwrap();
        for (i, &di) in d.iter().enumerate().take(1990).skip(10) {
            let expect = w * (w * i as f64 / fs).cos();
            assert!((di - expect).abs() < 0.01 * w, "sample {i}");
        }
    }

    #[test]
    fn second_derivative_of_parabola_is_constant() {
        let fs = 100.0;
        let x: Vec<f64> = (0..100)
            .map(|i| {
                let t = i as f64 / fs;
                2.5 * t * t
            })
            .collect();
        let d2 = second_derivative(&x, fs).unwrap();
        for v in &d2[3..97] {
            assert!((v - 5.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn third_derivative_of_cubic_is_constant() {
        let fs = 100.0;
        let x: Vec<f64> = (0..200)
            .map(|i| {
                let t = i as f64 / fs;
                t * t * t
            })
            .collect();
        let d3 = third_derivative(&x, fs).unwrap();
        for v in &d3[6..194] {
            assert!((v - 6.0).abs() < 1e-5, "{v}");
        }
    }

    #[test]
    fn lengths_preserved() {
        let x = vec![0.0; 37];
        assert_eq!(derivative(&x, 250.0).unwrap().len(), 37);
        assert_eq!(second_derivative(&x, 250.0).unwrap().len(), 37);
        assert_eq!(third_derivative(&x, 250.0).unwrap().len(), 37);
        assert_eq!(five_point_derivative(&x, 250.0).unwrap().len(), 37);
    }

    #[test]
    fn too_short_inputs_rejected() {
        assert!(derivative(&[1.0], 250.0).is_err());
        assert!(second_derivative(&[1.0, 2.0], 250.0).is_err());
        assert!(third_derivative(&[1.0, 2.0, 3.0], 250.0).is_err());
        assert!(five_point_derivative(&[1.0; 4], 250.0).is_err());
    }

    #[test]
    fn bad_fs_rejected() {
        assert!(derivative(&[1.0, 2.0], 0.0).is_err());
        assert!(derivative(&[1.0, 2.0], -5.0).is_err());
        assert!(derivative(&[1.0, 2.0], f64::NAN).is_err());
    }

    #[test]
    fn five_point_derivative_tracks_slope() {
        let fs = 200.0;
        let x: Vec<f64> = (0..100).map(|i| 4.0 * i as f64 / fs).collect();
        let d = five_point_derivative(&x, fs).unwrap();
        // The Pan–Tompkins kernel has a DC-slope gain of 10/8 = 1.25, so a
        // ramp of slope 4 reads 5.0 after the start-up region. (The
        // detector only thresholds this output, so the constant gain is
        // irrelevant there.)
        for v in &d[10..] {
            assert!((v - 5.0).abs() < 1e-9, "{v}");
        }
    }
}

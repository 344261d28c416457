//! Windowed-sinc FIR filter design and application.
//!
//! The paper specifies a *"32nd-order FIR bandpass filter with cut-off
//! frequencies f1 = 0.05 Hz and f2 = 40 Hz"* for ECG conditioning. This
//! module designs exactly that class of filter: an odd-length, symmetric
//! (linear-phase, type-I) impulse response obtained by windowing the ideal
//! sinc response.

use crate::window::Window;
use crate::DspError;

/// A finite-impulse-response filter described by its tap coefficients.
///
/// Constructed by the `lowpass` / `highpass` / `bandpass` / `bandstop`
/// designers or [`Fir::from_taps`] for externally computed coefficients.
///
/// # Example
///
/// The paper's ECG bandpass at 250 Hz sampling:
///
/// ```
/// use cardiotouch_dsp::fir::Fir;
/// use cardiotouch_dsp::window::Window;
///
/// # fn main() -> Result<(), cardiotouch_dsp::DspError> {
/// let bp = Fir::bandpass(32, 0.05, 40.0, 250.0, Window::Hamming)?;
/// assert_eq!(bp.order(), 32);
/// assert_eq!(bp.taps().len(), 33);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Wraps externally computed taps into a filter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidOrder`] if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::InvalidOrder {
                order: 0,
                constraint: "tap vector must be non-empty",
            });
        }
        Ok(Self { taps })
    }

    /// Designs a linear-phase low-pass filter of the given even `order`
    /// (the filter has `order + 1` taps) with cut-off `fc` hertz.
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidOrder`] if `order` is zero or odd (type-I
    ///   symmetry needs an even order);
    /// * [`DspError::InvalidFrequency`] if `fc` is not in `(0, fs/2)`.
    pub fn lowpass(order: usize, fc: f64, fs: f64, window: Window) -> Result<Self, DspError> {
        check_order(order)?;
        check_freq(fc, fs)?;
        let w = window.coefficients(order + 1);
        let fc_n = fc / fs; // cycles per sample
        let m = order as f64 / 2.0;
        let taps: Vec<f64> = (0..=order)
            .map(|n| sinc_lp(n as f64 - m, fc_n) * w[n])
            .collect();
        let mut fir = Self { taps };
        fir.normalize_dc_gain();
        Ok(fir)
    }

    /// Designs a linear-phase high-pass filter by spectral inversion of the
    /// complementary low-pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fir::lowpass`].
    pub fn highpass(order: usize, fc: f64, fs: f64, window: Window) -> Result<Self, DspError> {
        check_order(order)?;
        check_freq(fc, fs)?;
        let lp = Self::lowpass(order, fc, fs, window)?;
        let mut taps = lp.taps;
        for t in taps.iter_mut() {
            *t = -*t;
        }
        taps[order / 2] += 1.0;
        Ok(Self { taps })
    }

    /// Designs a linear-phase band-pass filter with pass band `(f1, f2)`.
    ///
    /// This is the designer used for the paper's ECG conditioning filter
    /// (order 32, 0.05–40 Hz).
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidOrder`] if `order` is zero or odd;
    /// * [`DspError::InvalidFrequency`] if either edge is outside
    ///   `(0, fs/2)` or `f1 >= f2`.
    pub fn bandpass(
        order: usize,
        f1: f64,
        f2: f64,
        fs: f64,
        window: Window,
    ) -> Result<Self, DspError> {
        check_order(order)?;
        check_freq(f1, fs)?;
        check_freq(f2, fs)?;
        if f1 >= f2 {
            return Err(DspError::InvalidFrequency {
                frequency_hz: f1,
                sample_rate_hz: fs,
            });
        }
        let w = window.coefficients(order + 1);
        let m = order as f64 / 2.0;
        let (lo, hi) = (f1 / fs, f2 / fs);
        let taps: Vec<f64> = (0..=order)
            .map(|n| {
                let t = n as f64 - m;
                (sinc_lp(t, hi) - sinc_lp(t, lo)) * w[n]
            })
            .collect();
        let mut fir = Self { taps };
        fir.normalize_band_gain((f1 * f2).sqrt(), fs);
        Ok(fir)
    }

    /// Designs a linear-phase band-stop filter with stop band `(f1, f2)`,
    /// useful for powerline (50/60 Hz) rejection.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fir::bandpass`].
    pub fn bandstop(
        order: usize,
        f1: f64,
        f2: f64,
        fs: f64,
        window: Window,
    ) -> Result<Self, DspError> {
        let bp = Self::bandpass(order, f1, f2, fs, window)?;
        let order = bp.order();
        let mut taps = bp.taps;
        for t in taps.iter_mut() {
            *t = -*t;
        }
        taps[order / 2] += 1.0;
        Ok(Self { taps })
    }

    /// The filter order (number of taps minus one).
    #[must_use]
    pub fn order(&self) -> usize {
        self.taps.len() - 1
    }

    /// Borrow the tap coefficients.
    #[must_use]
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// The group delay of a linear-phase FIR, in samples (`order / 2`).
    #[must_use]
    pub fn group_delay(&self) -> f64 {
        self.order() as f64 / 2.0
    }

    /// Filters `x` causally (direct-form convolution), producing an output
    /// of the same length. The first `order` outputs carry the start-up
    /// transient; use [`crate::zero_phase::filtfilt_fir`] for the zero-phase
    /// variant the paper requires.
    ///
    /// Allocates the output vector; delegates to [`Fir::filter_into`], so
    /// both paths are arithmetic-identical.
    #[must_use]
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.filter_into(x, &mut y);
        y
    }

    /// Filters `x` causally into a caller-provided buffer, reusing its
    /// capacity. `y` is cleared and resized to `x.len()`; after the first
    /// call at a given length, no allocation occurs.
    ///
    /// This is the hot-path entry used by the pipeline's pre-allocated
    /// scratch buffers; [`Fir::filter`] is the convenience wrapper.
    ///
    /// Output `n` is `0.0 + taps[0]·x[n] + … + taps[kmax]·x[n − kmax]`
    /// with `kmax = min(n, order)`, summed in ascending `k`. Full-tap
    /// outputs are computed eight at a time, one independent accumulator
    /// each, so the eight dependent add chains overlap (and vectorise)
    /// without changing any output's summation order.
    pub fn filter_into(&self, x: &[f64], y: &mut Vec<f64>) {
        const BLOCK: usize = 8;
        let taps = &self.taps[..];
        let order = taps.len() - 1;
        y.clear();
        y.resize(x.len(), 0.0);
        let scalar = |n: usize| {
            taps[..=n.min(order)]
                .iter()
                .zip(x[..=n].iter().rev())
                .fold(0.0, |acc, (t, v)| acc + t * v)
        };
        // The first `order` outputs see partial taps; they and the last
        // `< BLOCK` outputs stay scalar.
        let head = order.min(x.len());
        let (partial, full) = y.split_at_mut(head);
        for (n, out) in partial.iter_mut().enumerate() {
            *out = scalar(n);
        }
        let mut blocks = full.chunks_exact_mut(BLOCK);
        let mut n = head;
        for out in &mut blocks {
            let mut acc = [0.0; BLOCK];
            for (k, &t) in taps.iter().enumerate() {
                for (a, &v) in acc.iter_mut().zip(&x[n - k..n - k + BLOCK]) {
                    *a += t * v;
                }
            }
            out.copy_from_slice(&acc);
            n += BLOCK;
        }
        for (i, out) in blocks.into_remainder().iter_mut().enumerate() {
            *out = scalar(n + i);
        }
    }

    /// Complex frequency response magnitude at frequency `f` hertz for
    /// sampling rate `fs`.
    #[must_use]
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * f / fs;
        let (mut re, mut im) = (0.0, 0.0);
        for (n, t) in self.taps.iter().enumerate() {
            re += t * (omega * n as f64).cos();
            im -= t * (omega * n as f64).sin();
        }
        (re * re + im * im).sqrt()
    }

    /// Scales taps so the DC gain is exactly one (low-pass normalisation).
    fn normalize_dc_gain(&mut self) {
        let sum: f64 = self.taps.iter().sum();
        if sum.abs() > f64::EPSILON {
            for t in self.taps.iter_mut() {
                *t /= sum;
            }
        }
    }

    /// Scales taps so the gain at `f_ref` hertz is exactly one (band-pass
    /// normalisation at the geometric centre of the pass band).
    fn normalize_band_gain(&mut self, f_ref: f64, fs: f64) {
        let g = self.magnitude_at(f_ref, fs);
        if g > f64::EPSILON {
            for t in self.taps.iter_mut() {
                *t /= g;
            }
        }
    }
}

/// Ideal low-pass impulse response sample: `2 fc sinc(2 fc t)` with `fc` in
/// cycles/sample and `t` in samples.
fn sinc_lp(t: f64, fc_n: f64) -> f64 {
    if t.abs() < 1e-12 {
        2.0 * fc_n
    } else {
        (2.0 * std::f64::consts::PI * fc_n * t).sin() / (std::f64::consts::PI * t)
    }
}

fn check_order(order: usize) -> Result<(), DspError> {
    if order == 0 {
        return Err(DspError::InvalidOrder {
            order,
            constraint: "must be positive",
        });
    }
    if order % 2 != 0 {
        return Err(DspError::InvalidOrder {
            order,
            constraint: "must be even for type-I linear phase",
        });
    }
    Ok(())
}

fn check_freq(f: f64, fs: f64) -> Result<(), DspError> {
    if !(f.is_finite() && fs.is_finite()) || f <= 0.0 || f >= fs / 2.0 {
        return Err(DspError::InvalidFrequency {
            frequency_hz: f,
            sample_rate_hz: fs,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 250.0;

    #[test]
    fn lowpass_tap_count_and_symmetry() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        assert_eq!(f.taps().len(), 33);
        for i in 0..16 {
            assert!((f.taps()[i] - f.taps()[32 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lowpass_dc_gain_is_unity() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        assert!((f.magnitude_at(0.0, FS) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_attenuates_above_cutoff() {
        let f = Fir::lowpass(64, 20.0, FS, Window::Hamming).unwrap();
        assert!(f.magnitude_at(5.0, FS) > 0.95);
        assert!(f.magnitude_at(60.0, FS) < 0.05);
    }

    #[test]
    fn highpass_blocks_dc_passes_high() {
        let f = Fir::highpass(64, 30.0, FS, Window::Hamming).unwrap();
        assert!(f.magnitude_at(0.0, FS) < 1e-10);
        assert!(f.magnitude_at(100.0, FS) > 0.9);
    }

    #[test]
    fn paper_ecg_bandpass_design() {
        // 32nd order, 0.05–40 Hz at fs = 250 Hz, exactly as the paper.
        let f = Fir::bandpass(32, 0.05, 40.0, FS, Window::Hamming).unwrap();
        assert_eq!(f.order(), 32);
        // Pass band centre ~ geometric mean of band edges.
        let centre = (0.05f64 * 40.0).sqrt();
        assert!((f.magnitude_at(centre, FS) - 1.0).abs() < 1e-9);
        // QRS energy region must pass.
        assert!(f.magnitude_at(10.0, FS) > 0.8);
        // Far out-of-band must attenuate. (A 32-order filter at 250 Hz has a
        // wide transition band; test well above the edge.)
        assert!(f.magnitude_at(120.0, FS) < 0.2);
    }

    #[test]
    fn bandstop_notches_centre() {
        let f = Fir::bandstop(128, 45.0, 55.0, FS, Window::Blackman).unwrap();
        assert!(f.magnitude_at(50.0, FS) < 0.1);
        assert!(f.magnitude_at(10.0, FS) > 0.9);
        assert!(f.magnitude_at(90.0, FS) > 0.9);
    }

    #[test]
    fn odd_order_rejected() {
        assert!(matches!(
            Fir::lowpass(31, 20.0, FS, Window::Hamming),
            Err(DspError::InvalidOrder { .. })
        ));
    }

    #[test]
    fn zero_order_rejected() {
        assert!(Fir::lowpass(0, 20.0, FS, Window::Hamming).is_err());
    }

    #[test]
    fn out_of_range_frequency_rejected() {
        assert!(Fir::lowpass(32, 125.0, FS, Window::Hamming).is_err());
        assert!(Fir::lowpass(32, -1.0, FS, Window::Hamming).is_err());
        assert!(Fir::bandpass(32, 40.0, 0.05, FS, Window::Hamming).is_err());
    }

    #[test]
    fn from_taps_rejects_empty() {
        assert!(Fir::from_taps(vec![]).is_err());
        assert!(Fir::from_taps(vec![1.0]).is_ok());
    }

    #[test]
    fn filter_impulse_reproduces_taps() {
        let f = Fir::from_taps(vec![0.25, 0.5, 0.25]).unwrap();
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let y = f.filter(&x);
        assert!((y[0] - 0.25).abs() < 1e-15);
        assert!((y[1] - 0.5).abs() < 1e-15);
        assert!((y[2] - 0.25).abs() < 1e-15);
        assert!(y[3].abs() < 1e-15);
    }

    #[test]
    fn filter_preserves_length() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        let x = vec![1.0; 100];
        assert_eq!(f.filter(&x).len(), 100);
    }

    #[test]
    fn filter_sine_in_passband_preserves_amplitude() {
        let f = Fir::lowpass(64, 30.0, FS, Window::Hamming).unwrap();
        let x: Vec<f64> = (0..1000)
            .map(|n| (2.0 * std::f64::consts::PI * 10.0 * n as f64 / FS).sin())
            .collect();
        let y = f.filter(&x);
        // After the transient, peak amplitude should be ~1.
        let peak = y[200..].iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!((peak - 1.0).abs() < 0.02, "peak = {peak}");
    }

    #[test]
    fn group_delay_matches_half_order() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        assert_eq!(f.group_delay(), 16.0);
    }
}

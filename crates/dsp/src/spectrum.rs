//! Small spectral toolbox: DFT, Goertzel single-bin evaluation and power
//! spectra.
//!
//! The paper motivates its ICG low-pass by inspecting the signal spectrum
//! ("amplitudes of the components at frequencies f > 20 Hz were not
//! significant"); the tests and examples in this workspace reproduce that
//! inspection with these routines. They are also used to verify that
//! designed filters meet their cut-off specifications.

use crate::DspError;

/// One complex DFT coefficient, stored as `(re, im)`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Bin {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Bin {
    /// Magnitude `sqrt(re² + im²)`.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }

    /// Phase in radians.
    #[must_use]
    pub fn phase(&self) -> f64 {
        self.im.atan2(self.re)
    }
}

/// Direct DFT of `x` (O(n²); intended for test-sized inputs and filter
/// verification, not streaming use). Returns `x.len()` bins.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] for an empty input.
pub fn dft(x: &[f64]) -> Result<Vec<Bin>, DspError> {
    if x.is_empty() {
        return Err(DspError::InputTooShort { len: 0, min_len: 1 });
    }
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let (mut re, mut im) = (0.0, 0.0);
        let w = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        for (i, &v) in x.iter().enumerate() {
            let a = w * i as f64;
            re += v * a.cos();
            im += v * a.sin();
        }
        out.push(Bin { re, im });
    }
    Ok(out)
}

/// Goertzel algorithm: the DFT evaluated at a single frequency `f` hertz
/// for sampling rate `fs` — O(n) per frequency, which is what an embedded
/// target would actually run.
///
/// # Errors
///
/// * [`DspError::InputTooShort`] for an empty input;
/// * [`DspError::InvalidFrequency`] when `f` is not in `[0, fs/2]`.
pub fn goertzel(x: &[f64], f: f64, fs: f64) -> Result<Bin, DspError> {
    if x.is_empty() {
        return Err(DspError::InputTooShort { len: 0, min_len: 1 });
    }
    if !f.is_finite() || f < 0.0 || f > fs / 2.0 {
        return Err(DspError::InvalidFrequency {
            frequency_hz: f,
            sample_rate_hz: fs,
        });
    }
    let omega = 2.0 * std::f64::consts::PI * f / fs;
    let coeff = 2.0 * omega.cos();
    let (mut s1, mut s2) = (0.0, 0.0);
    for &v in x {
        let s0 = v + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    // X = (s1 − e^{−jω} s2) · e^{−jω(N−1)} matches the DFT phase convention
    // X(k) = Σ x(n) e^{−jωn}.
    let re_t = s1 - s2 * omega.cos();
    let im_t = s2 * omega.sin();
    let ang = -omega * (x.len() as f64 - 1.0);
    Ok(Bin {
        re: re_t * ang.cos() - im_t * ang.sin(),
        im: re_t * ang.sin() + im_t * ang.cos(),
    })
}

/// Single-sided amplitude spectrum of `x`: `(frequency_hz, amplitude)`
/// pairs for bins `0..=n/2`, amplitude normalised so a unit-amplitude sine
/// at a bin centre reads ≈ 1.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] for inputs shorter than 2 samples,
/// or [`DspError::InvalidParameter`] for a non-positive `fs`.
pub fn amplitude_spectrum(x: &[f64], fs: f64) -> Result<Vec<(f64, f64)>, DspError> {
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
    let bins = dft(x)?;
    Ok(bins
        .iter()
        .take(n / 2 + 1)
        .enumerate()
        .map(|(k, b)| {
            let scale = if k == 0 || (n % 2 == 0 && k == n / 2) {
                1.0 / n as f64
            } else {
                2.0 / n as f64
            };
            (k as f64 * fs / n as f64, b.magnitude() * scale)
        })
        .collect())
}

/// Fraction of total signal power located above `f_split` hertz, computed
/// from the amplitude spectrum. Used to reproduce the paper's observation
/// that ICG power above 20 Hz is insignificant.
///
/// # Errors
///
/// Propagates the conditions of [`amplitude_spectrum`].
pub fn power_fraction_above(x: &[f64], f_split: f64, fs: f64) -> Result<f64, DspError> {
    let spec = amplitude_spectrum(x, fs)?;
    let total: f64 = spec.iter().skip(1).map(|(_, a)| a * a).sum();
    if total == 0.0 {
        return Ok(0.0);
    }
    let above: f64 = spec
        .iter()
        .skip(1)
        .filter(|(f, _)| *f > f_split)
        .map(|(_, a)| a * a)
        .sum();
    Ok(above / total)
}

/// Welch's averaged-periodogram PSD estimate: the signal is split into
/// windowed, half-overlapping segments whose periodograms are averaged,
/// trading frequency resolution for variance reduction. Returns
/// `(frequency_hz, power_density)` pairs for bins `0..=segment_len/2`,
/// normalized so that integrating the density over frequency recovers
/// the signal power (one-sided convention).
///
/// # Errors
///
/// * [`DspError::InvalidOrder`] when `segment_len < 8` or exceeds the
///   signal;
/// * [`DspError::InvalidParameter`] for a non-positive `fs`.
pub fn welch_psd(
    x: &[f64],
    fs: f64,
    segment_len: usize,
    window: crate::window::Window,
) -> Result<Vec<(f64, f64)>, DspError> {
    if segment_len < 8 || segment_len > x.len() {
        return Err(DspError::InvalidOrder {
            order: segment_len,
            constraint: "segment length must be within 8..=signal length",
        });
    }
    if !(fs > 0.0 && fs.is_finite()) {
        return Err(DspError::InvalidParameter {
            name: "fs",
            value: fs,
            constraint: "must be positive and finite",
        });
    }
    let w = window.coefficients(segment_len);
    let win_power: f64 = w.iter().map(|v| v * v).sum::<f64>() / segment_len as f64;
    let hop = segment_len / 2;
    let n_bins = segment_len / 2 + 1;
    let mut acc = vec![0.0f64; n_bins];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= x.len() {
        let seg: Vec<f64> = x[start..start + segment_len]
            .iter()
            .zip(&w)
            .map(|(v, wv)| v * wv)
            .collect();
        let bins = dft(&seg)?;
        for (k, b) in bins.iter().take(n_bins).enumerate() {
            let one_sided = if k == 0 || (segment_len % 2 == 0 && k == n_bins - 1) {
                1.0
            } else {
                2.0
            };
            acc[k] += one_sided * b.magnitude().powi(2) / (fs * segment_len as f64 * win_power);
        }
        segments += 1;
        start += hop;
    }
    let df = fs / segment_len as f64;
    Ok(acc
        .into_iter()
        .enumerate()
        .map(|(k, p)| (k as f64 * df, p / segments as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 250.0;

    fn sine(f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f * i as f64 / FS).sin())
            .collect()
    }

    #[test]
    fn dft_of_dc_concentrates_in_bin0() {
        let bins = dft(&[1.0; 16]).unwrap();
        assert!((bins[0].magnitude() - 16.0).abs() < 1e-9);
        for b in &bins[1..] {
            assert!(b.magnitude() < 1e-9);
        }
    }

    #[test]
    fn dft_of_bin_centred_sine() {
        // 10 Hz sine, 250 Hz, 250 samples → bin 10
        let x = sine(10.0, 250, 1.0);
        let bins = dft(&x).unwrap();
        assert!((bins[10].magnitude() - 125.0).abs() < 1e-6);
        assert!(bins[11].magnitude() < 1e-6);
    }

    #[test]
    fn goertzel_matches_dft_bin() {
        let x = sine(10.0, 250, 1.0);
        let g = goertzel(&x, 10.0, FS).unwrap();
        let d = dft(&x).unwrap()[10];
        assert!((g.magnitude() - d.magnitude()).abs() < 1e-6);
        assert!((g.phase() - d.phase()).abs() < 1e-6);
    }

    #[test]
    fn goertzel_rejects_bad_frequency() {
        assert!(goertzel(&[1.0; 8], 200.0, FS).is_err());
        assert!(goertzel(&[1.0; 8], -1.0, FS).is_err());
        assert!(goertzel(&[], 10.0, FS).is_err());
    }

    #[test]
    fn amplitude_spectrum_reads_unit_for_unit_sine() {
        let x = sine(25.0, 500, 1.0);
        let spec = amplitude_spectrum(&x, FS).unwrap();
        // bin spacing 0.5 Hz → 25 Hz is bin 50
        let (f, a) = spec[50];
        assert!((f - 25.0).abs() < 1e-9);
        assert!((a - 1.0).abs() < 1e-6);
    }

    #[test]
    fn amplitude_spectrum_dc_term() {
        let x = vec![2.0; 100];
        let spec = amplitude_spectrum(&x, FS).unwrap();
        assert!((spec[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_fraction_above_split() {
        // equal-amplitude 5 Hz and 50 Hz → 50 % of power above 20 Hz
        let n = 500;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 5.0 * t).sin()
                    + (2.0 * std::f64::consts::PI * 50.0 * t).sin()
            })
            .collect();
        let frac = power_fraction_above(&x, 20.0, FS).unwrap();
        assert!((frac - 0.5).abs() < 0.01, "{frac}");
        // everything below 60 Hz
        assert!(power_fraction_above(&x, 60.0, FS).unwrap() < 1e-9);
    }

    #[test]
    fn power_fraction_zero_signal() {
        assert_eq!(power_fraction_above(&[0.0; 64], 20.0, FS).unwrap(), 0.0);
    }

    #[test]
    fn welch_psd_integrates_to_signal_power() {
        use crate::window::Window;
        // unit-amplitude sine: power 0.5; ∑ psd·df ≈ 0.5
        let x = sine(25.0, 4096, 1.0);
        let psd = welch_psd(&x, FS, 256, Window::Hann).unwrap();
        let df = FS / 256.0;
        let total: f64 = psd.iter().map(|(_, p)| p * df).sum();
        assert!((total - 0.5).abs() < 0.02, "total power {total}");
    }

    #[test]
    fn welch_psd_peaks_at_tone_frequency() {
        use crate::window::Window;
        let x = sine(25.0, 4096, 1.0);
        let psd = welch_psd(&x, FS, 256, Window::Hann).unwrap();
        let (f_pk, _) = psd
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((f_pk - 25.0).abs() <= FS / 256.0, "peak at {f_pk}");
    }

    #[test]
    fn welch_psd_is_flat_for_white_noise() {
        use crate::window::Window;
        // deterministic pseudo-noise
        let mut state = 777u64;
        let x: Vec<f64> = (0..16384)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
            })
            .collect();
        let psd = welch_psd(&x, FS, 128, Window::Hann).unwrap();
        // exclude DC; remaining bins within ×3 of the median
        let mut vals: Vec<f64> = psd[1..].iter().map(|(_, p)| *p).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = vals[vals.len() / 2];
        for (f, p) in &psd[1..] {
            assert!(
                *p < 3.0 * med && *p > med / 3.0,
                "bin {f}: {p} vs median {med}"
            );
        }
    }

    #[test]
    fn welch_psd_validation() {
        use crate::window::Window;
        let x = vec![0.0; 64];
        assert!(welch_psd(&x, FS, 4, Window::Hann).is_err());
        assert!(welch_psd(&x, FS, 128, Window::Hann).is_err());
        assert!(welch_psd(&x, 0.0, 32, Window::Hann).is_err());
    }
}

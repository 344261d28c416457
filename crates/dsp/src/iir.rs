//! Butterworth IIR design (bilinear transform) and biquad-cascade filtering.
//!
//! The paper removes high-frequency ICG noise with a *"zero-phase low-pass
//! Butterworth filter with cut-off frequency f = 20 Hz"*. [`Butterworth`]
//! designs that filter as a cascade of second-order sections (biquads),
//! which is numerically far better conditioned than a single high-order
//! direct form; [`crate::zero_phase::filtfilt_iir`] then applies it
//! forward–backward for the zero-phase property.

use crate::DspError;

/// One second-order (or degenerate first-order) IIR section in direct form.
///
/// Transfer function `H(z) = (b0 + b1 z⁻¹ + b2 z⁻²) / (1 + a1 z⁻¹ + a2 z⁻²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Biquad {
    /// Numerator coefficient of z⁰.
    pub b0: f64,
    /// Numerator coefficient of z⁻¹.
    pub b1: f64,
    /// Numerator coefficient of z⁻².
    pub b2: f64,
    /// Denominator coefficient of z⁻¹ (a0 is normalised to 1).
    pub a1: f64,
    /// Denominator coefficient of z⁻².
    pub a2: f64,
}

impl Biquad {
    /// Identity (pass-through) section.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            b0: 1.0,
            b1: 0.0,
            b2: 0.0,
            a1: 0.0,
            a2: 0.0,
        }
    }

    /// A notch (band-reject) section at `f0` hertz with quality factor
    /// `q` (RBJ audio-EQ cookbook form) — the standard powerline filter
    /// for 50/60 Hz rejection.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFrequency`] for `f0` outside
    /// `(0, fs/2)` or [`DspError::InvalidParameter`] for a non-positive
    /// `q`.
    pub fn notch(f0: f64, q: f64, fs: f64) -> Result<Self, DspError> {
        if !(f0 > 0.0 && f0 < fs / 2.0 && f0.is_finite()) {
            return Err(DspError::InvalidFrequency {
                frequency_hz: f0,
                sample_rate_hz: fs,
            });
        }
        if !(q > 0.0 && q.is_finite()) {
            return Err(DspError::InvalidParameter {
                name: "q",
                value: q,
                constraint: "must be positive and finite",
            });
        }
        let w = 2.0 * std::f64::consts::PI * f0 / fs;
        let alpha = w.sin() / (2.0 * q);
        let a0 = 1.0 + alpha;
        Ok(Self {
            b0: 1.0 / a0,
            b1: -2.0 * w.cos() / a0,
            b2: 1.0 / a0,
            a1: -2.0 * w.cos() / a0,
            a2: (1.0 - alpha) / a0,
        })
    }

    /// Filters `x` through this section (direct form II transposed),
    /// starting from zero state.
    ///
    /// Allocates the output vector; delegates to
    /// [`Biquad::filter_in_place`], so both paths are
    /// arithmetic-identical.
    #[must_use]
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.filter_in_place(&mut y);
        y
    }

    /// Filters the buffer through this section in place (direct form II
    /// transposed, zero initial state) without allocating.
    pub fn filter_in_place(&self, x: &mut [f64]) {
        let (mut s1, mut s2) = (0.0, 0.0);
        for xn in x.iter_mut() {
            let input = *xn;
            let yn = self.b0 * input + s1;
            s1 = self.b1 * input - self.a1 * yn + s2;
            s2 = self.b2 * input - self.a2 * yn;
            *xn = yn;
        }
    }

    /// [`Biquad::filter_in_place`] over two equal-length buffers in
    /// lock-step. The two recursions are independent, so interleaving
    /// them hides each one's dependent-multiply latency; every output is
    /// bitwise what `filter_in_place` produces for its own buffer.
    fn filter_pair_in_place(&self, a: &mut [f64], b: &mut [f64]) {
        let (mut a1, mut a2, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0);
        for (xa, xb) in a.iter_mut().zip(b.iter_mut()) {
            let (ia, ib) = (*xa, *xb);
            let ya = self.b0 * ia + a1;
            let yb = self.b0 * ib + b1;
            a1 = self.b1 * ia - self.a1 * ya + a2;
            b1 = self.b1 * ib - self.a1 * yb + b2;
            a2 = self.b2 * ia - self.a2 * ya;
            b2 = self.b2 * ib - self.a2 * yb;
            *xa = ya;
            *xb = yb;
        }
    }

    /// Complex magnitude response at normalised angular frequency
    /// `omega = 2π f / fs`.
    #[must_use]
    pub fn magnitude_at_omega(&self, omega: f64) -> f64 {
        let (c1, s1) = (omega.cos(), omega.sin());
        let (c2, s2) = ((2.0 * omega).cos(), (2.0 * omega).sin());
        let num_re = self.b0 + self.b1 * c1 + self.b2 * c2;
        let num_im = -(self.b1 * s1 + self.b2 * s2);
        let den_re = 1.0 + self.a1 * c1 + self.a2 * c2;
        let den_im = -(self.a1 * s1 + self.a2 * s2);
        ((num_re * num_re + num_im * num_im) / (den_re * den_re + den_im * den_im)).sqrt()
    }

    /// `true` when both poles lie strictly inside the unit circle
    /// (Schur–Cohn / jury conditions for a quadratic).
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.a2.abs() < 1.0 && self.a1.abs() < 1.0 + self.a2
    }
}

/// A Butterworth filter realised as a cascade of [`Biquad`] sections.
///
/// # Example
///
/// The paper's ICG low-pass (20 Hz at fs = 250 Hz):
///
/// ```
/// use cardiotouch_dsp::iir::Butterworth;
///
/// # fn main() -> Result<(), cardiotouch_dsp::DspError> {
/// let lp = Butterworth::lowpass(4, 20.0, 250.0)?;
/// // −3 dB at the cut-off, maximally flat below it:
/// let g = lp.magnitude_at(20.0, 250.0);
/// assert!((g - 0.5_f64.sqrt()).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Butterworth {
    sections: Vec<Biquad>,
    order: usize,
}

/// Band sense of a Butterworth design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lowpass,
    Highpass,
}

impl Butterworth {
    /// Designs an order-`n` low-pass with cut-off `fc` hertz at sampling
    /// rate `fs` hertz, via analog prototype poles, frequency pre-warping
    /// and the bilinear transform.
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidOrder`] if `n == 0`;
    /// * [`DspError::InvalidFrequency`] if `fc` is not in `(0, fs/2)`.
    pub fn lowpass(n: usize, fc: f64, fs: f64) -> Result<Self, DspError> {
        Self::design(n, fc, fs, Kind::Lowpass)
    }

    /// Designs an order-`n` high-pass with cut-off `fc` hertz.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Butterworth::lowpass`].
    pub fn highpass(n: usize, fc: f64, fs: f64) -> Result<Self, DspError> {
        Self::design(n, fc, fs, Kind::Highpass)
    }

    /// Designs a band-pass as a cascade of an order-`n` high-pass at `f1`
    /// and an order-`n` low-pass at `f2` (each edge then shows the
    /// Butterworth −3 dB characteristic of its own order).
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidFrequency`] if `f1 >= f2` or either edge is
    ///   outside `(0, fs/2)`;
    /// * [`DspError::InvalidOrder`] if `n == 0`.
    pub fn bandpass(n: usize, f1: f64, f2: f64, fs: f64) -> Result<Self, DspError> {
        if f1 >= f2 {
            return Err(DspError::InvalidFrequency {
                frequency_hz: f1,
                sample_rate_hz: fs,
            });
        }
        let hp = Self::highpass(n, f1, fs)?;
        let lp = Self::lowpass(n, f2, fs)?;
        let mut sections = hp.sections;
        sections.extend(lp.sections);
        Ok(Self {
            sections,
            order: 2 * n,
        })
    }

    fn design(n: usize, fc: f64, fs: f64, kind: Kind) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::InvalidOrder {
                order: n,
                constraint: "must be positive",
            });
        }
        if !(fc.is_finite() && fs.is_finite()) || fc <= 0.0 || fc >= fs / 2.0 {
            return Err(DspError::InvalidFrequency {
                frequency_hz: fc,
                sample_rate_hz: fs,
            });
        }
        // Pre-warped analog cut-off and bilinear constant.
        let k = 2.0 * fs;
        let wc = k * (std::f64::consts::PI * fc / fs).tan();
        let mut sections = Vec::with_capacity(n.div_ceil(2));

        // Conjugate pole pairs of the normalised analog prototype:
        // s² + 2 sin(θ_i) s + 1 with θ_i = π (2i + 1) / (2n), i = 0..n/2.
        for i in 0..n / 2 {
            let theta = std::f64::consts::PI * (2.0 * i as f64 + 1.0) / (2.0 * n as f64);
            let q2 = 2.0 * theta.sin(); // = 2·ζ for this pair
                                        // Denominator after bilinear transform of
                                        // wc² / (s² + q2·wc·s + wc²):
            let a0 = k * k + q2 * wc * k + wc * wc;
            let a1 = (2.0 * wc * wc - 2.0 * k * k) / a0;
            let a2 = (k * k - q2 * wc * k + wc * wc) / a0;
            let (b0, b1, b2) = match kind {
                Kind::Lowpass => {
                    let g = wc * wc / a0;
                    (g, 2.0 * g, g)
                }
                Kind::Highpass => {
                    let g = k * k / a0;
                    (g, -2.0 * g, g)
                }
            };
            sections.push(Biquad { b0, b1, b2, a1, a2 });
        }

        // Real pole for odd orders: wc / (s + wc).
        if n % 2 == 1 {
            let a0 = k + wc;
            let a1 = (wc - k) / a0;
            let (b0, b1) = match kind {
                Kind::Lowpass => (wc / a0, wc / a0),
                Kind::Highpass => (k / a0, -k / a0),
            };
            sections.push(Biquad {
                b0,
                b1,
                b2: 0.0,
                a1,
                a2: 0.0,
            });
        }

        Ok(Self { sections, order: n })
    }

    /// The total filter order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Borrow the biquad sections of the cascade.
    #[must_use]
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Filters `x` causally through the cascade (zero initial state).
    ///
    /// The output has the group-delay distortion inherent to causal IIR
    /// filtering; the paper's processing uses
    /// [`crate::zero_phase::filtfilt_iir`] instead.
    ///
    /// Allocates the output vector; delegates to
    /// [`Butterworth::filter_in_place`], so both paths are
    /// arithmetic-identical.
    #[must_use]
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.filter_in_place(&mut y);
        y
    }

    /// Filters the buffer through the cascade in place without
    /// allocating. Sections run two at a time in one sample loop with
    /// both states in registers: section `k` at sample `n + 1` overlaps
    /// section `k + 1` at sample `n`. Every section performs the same
    /// operations on the same inputs as [`Biquad::filter_in_place`] run
    /// section after section, so the output is bitwise that of the plain
    /// cascade; an odd last section runs through `filter_in_place`.
    pub fn filter_in_place(&self, x: &mut [f64]) {
        let mut pairs = self.sections.chunks_exact(2);
        for pair in &mut pairs {
            let (p, q) = (pair[0], pair[1]);
            let (mut p1, mut p2, mut q1, mut q2) = (0.0, 0.0, 0.0, 0.0);
            for xn in x.iter_mut() {
                let input = *xn;
                let yp = p.b0 * input + p1;
                p1 = p.b1 * input - p.a1 * yp + p2;
                p2 = p.b2 * input - p.a2 * yp;
                let yq = q.b0 * yp + q1;
                q1 = q.b1 * yp - q.a1 * yq + q2;
                q2 = q.b2 * yp - q.a2 * yq;
                *xn = yq;
            }
        }
        if let [last] = pairs.remainder() {
            last.filter_in_place(x);
        }
    }

    /// Filters two equal-length buffers through the cascade in place,
    /// each from zero state, section by section in lock-step. Each buffer
    /// ends bitwise equal to what [`Butterworth::filter_in_place`] makes
    /// of it; running the two independent recursions together roughly
    /// halves the per-step latency of a single chain.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the buffers differ in length
    /// (neither is touched).
    pub fn filter_pair_in_place(&self, a: &mut [f64], b: &mut [f64]) -> Result<(), DspError> {
        if a.len() != b.len() {
            return Err(DspError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        for s in &self.sections {
            s.filter_pair_in_place(a, b);
        }
        Ok(())
    }

    /// Magnitude response at `f` hertz for sampling rate `fs`.
    #[must_use]
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * f / fs;
        self.sections
            .iter()
            .map(|s| s.magnitude_at_omega(omega))
            .product()
    }

    /// `true` when every section is stable.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 250.0;

    #[test]
    fn lowpass_minus_3db_at_cutoff() {
        for n in 1..=8 {
            let f = Butterworth::lowpass(n, 20.0, FS).unwrap();
            let g = f.magnitude_at(20.0, FS);
            assert!(
                (g - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9,
                "order {n}: gain at cutoff = {g}"
            );
        }
    }

    #[test]
    fn lowpass_dc_gain_unity() {
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        assert!((f.magnitude_at(0.0, FS) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_rolloff_increases_with_order() {
        let g2 = Butterworth::lowpass(2, 20.0, FS)
            .unwrap()
            .magnitude_at(40.0, FS);
        let g6 = Butterworth::lowpass(6, 20.0, FS)
            .unwrap()
            .magnitude_at(40.0, FS);
        assert!(g6 < g2);
        assert!(g2 < 0.3);
    }

    #[test]
    fn highpass_minus_3db_at_cutoff_and_blocks_dc() {
        let f = Butterworth::highpass(3, 5.0, FS).unwrap();
        assert!((f.magnitude_at(5.0, FS) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!(f.magnitude_at(0.0, FS) < 1e-12);
        assert!((f.magnitude_at(100.0, FS) - 1.0).abs() < 0.01);
    }

    #[test]
    fn bandpass_passes_centre_rejects_edges() {
        // Pan-Tompkins style 5–15 Hz.
        let f = Butterworth::bandpass(2, 5.0, 15.0, FS).unwrap();
        assert!(f.magnitude_at(9.0, FS) > 0.8);
        assert!(f.magnitude_at(0.5, FS) < 0.1);
        assert!(f.magnitude_at(60.0, FS) < 0.1);
    }

    #[test]
    fn bandpass_rejects_swapped_edges() {
        assert!(Butterworth::bandpass(2, 15.0, 5.0, FS).is_err());
    }

    #[test]
    fn all_designs_stable() {
        for n in 1..=10 {
            assert!(Butterworth::lowpass(n, 20.0, FS).unwrap().is_stable());
            assert!(Butterworth::highpass(n, 0.5, FS).unwrap().is_stable());
        }
    }

    #[test]
    fn section_count_matches_order() {
        assert_eq!(
            Butterworth::lowpass(4, 20.0, FS).unwrap().sections().len(),
            2
        );
        assert_eq!(
            Butterworth::lowpass(5, 20.0, FS).unwrap().sections().len(),
            3
        );
        assert_eq!(
            Butterworth::lowpass(1, 20.0, FS).unwrap().sections().len(),
            1
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Butterworth::lowpass(0, 20.0, FS).is_err());
        assert!(Butterworth::lowpass(4, 0.0, FS).is_err());
        assert!(Butterworth::lowpass(4, 125.0, FS).is_err());
        assert!(Butterworth::lowpass(4, f64::NAN, FS).is_err());
    }

    #[test]
    fn filter_attenuates_out_of_band_sine() {
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        // 60 Hz sine should be strongly attenuated after the transient.
        let x: Vec<f64> = (0..2000)
            .map(|n| (2.0 * std::f64::consts::PI * 60.0 * n as f64 / FS).sin())
            .collect();
        let y = f.filter(&x);
        let peak = y[500..].iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let expect = f.magnitude_at(60.0, FS);
        assert!(
            (peak - expect).abs() < 0.02,
            "peak {peak} vs expected {expect}"
        );
    }

    #[test]
    fn filter_passes_in_band_sine() {
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        let x: Vec<f64> = (0..2000)
            .map(|n| (2.0 * std::f64::consts::PI * 5.0 * n as f64 / FS).sin())
            .collect();
        let y = f.filter(&x);
        let peak = y[500..].iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!((peak - 1.0).abs() < 0.01);
    }

    #[test]
    fn notch_rejects_centre_passes_neighbours() {
        let n = Biquad::notch(50.0, 8.0, FS).unwrap();
        assert!(n.is_stable());
        let omega = |f: f64| 2.0 * std::f64::consts::PI * f / FS;
        assert!(n.magnitude_at_omega(omega(50.0)) < 1e-6);
        assert!(n.magnitude_at_omega(omega(40.0)) > 0.9);
        assert!(n.magnitude_at_omega(omega(60.0)) > 0.9);
        assert!((n.magnitude_at_omega(omega(5.0)) - 1.0).abs() < 0.01);
    }

    #[test]
    fn notch_q_controls_width() {
        let narrow = Biquad::notch(50.0, 20.0, FS).unwrap();
        let wide = Biquad::notch(50.0, 2.0, FS).unwrap();
        let omega = 2.0 * std::f64::consts::PI * 47.0 / FS;
        assert!(narrow.magnitude_at_omega(omega) > wide.magnitude_at_omega(omega));
    }

    #[test]
    fn notch_filters_out_mains_tone() {
        let n = Biquad::notch(50.0, 8.0, FS).unwrap();
        let x: Vec<f64> = (0..3000)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 8.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 50.0 * t).sin()
            })
            .collect();
        let y = n.filter(&x);
        let g50 = crate::spectrum::goertzel(&y[1000..], 50.0, FS)
            .unwrap()
            .magnitude();
        let g8 = crate::spectrum::goertzel(&y[1000..], 8.0, FS)
            .unwrap()
            .magnitude();
        assert!(g8 > 50.0 * g50, "8 Hz {g8} vs residual 50 Hz {g50}");
    }

    #[test]
    fn notch_rejects_bad_params() {
        assert!(Biquad::notch(0.0, 8.0, FS).is_err());
        assert!(Biquad::notch(130.0, 8.0, FS).is_err());
        assert!(Biquad::notch(50.0, 0.0, FS).is_err());
    }

    #[test]
    fn biquad_identity_is_transparent() {
        let x = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(Biquad::identity().filter(&x), x.to_vec());
    }

    #[test]
    fn biquad_stability_check() {
        assert!(Biquad::identity().is_stable());
        let unstable = Biquad {
            b0: 1.0,
            b1: 0.0,
            b2: 0.0,
            a1: -2.1,
            a2: 1.05,
        };
        assert!(!unstable.is_stable());
    }
}

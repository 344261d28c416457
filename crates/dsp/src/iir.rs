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

    /// One step of `N` independent recursions in lock-step, registers
    /// `s[0]` and `s[1]` per lane. Every lane does the operations of one
    /// [`Biquad::filter_in_place`] step on its own input, so interleaving
    /// the lanes hides each recursion's dependent-multiply latency
    /// without changing a bit of its output.
    #[inline(always)]
    fn step_lanes<const N: usize>(&self, x: [f64; N], s: &mut [[f64; N]; 2]) -> [f64; N] {
        let mut y = [0.0; N];
        for j in 0..N {
            y[j] = self.b0 * x[j] + s[0][j];
            s[0][j] = self.b1 * x[j] - self.a1 * y[j] + s[1][j];
            s[1][j] = self.b2 * x[j] - self.a2 * y[j];
        }
        y
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

    /// Filters any number of equal-length buffers through the cascade in
    /// place, each from zero state, [`LANES`] at a time in lock-step.
    /// Each buffer ends bitwise equal to what
    /// [`Butterworth::filter_in_place`] makes of it; running independent
    /// recursions together fills the execution ports that one chain's
    /// latency leaves idle.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the buffers differ in length
    /// (none is touched).
    pub fn filter_lanes_in_place(&self, lanes: &mut [&mut [f64]]) -> Result<(), DspError> {
        let len = lanes.first().map_or(0, |l| l.len());
        if let Some(l) = lanes.iter().find(|l| l.len() != len) {
            return Err(DspError::LengthMismatch {
                left: len,
                right: l.len(),
            });
        }
        let mut rows = Vec::new();
        for group in lanes.chunks_mut(LANES) {
            let width = lane_width(group.len());
            let io = &mut InPlace(group);
            match width {
                1 => cascade_lanes::<1>(&self.sections, len, 0, io, &mut rows),
                2 => cascade_lanes::<2>(&self.sections, len, 0, io, &mut rows),
                4 => cascade_lanes::<4>(&self.sections, len, 0, io, &mut rows),
                _ => cascade_lanes::<LANES>(&self.sections, len, 0, io, &mut rows),
            }
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

/// Recursions the lock-step kernels run side by side:
/// [`Butterworth::filter_lanes_in_place`] and the backward passes of
/// [`crate::streaming::StreamingZeroPhase::push_group`]. Eight chains of
/// a biquad step fill the floating-point ports that one chain's
/// mul → sub → add → add latency leaves idle; more would not fit the
/// register file.
pub const LANES: usize = 8;

/// The kernel width that runs `lanes` recursions: the next of 1, 2, 4 or
/// [`LANES`], the spare lanes padding. A padded lane costs less than a
/// narrower second pass.
pub(crate) fn lane_width(lanes: usize) -> usize {
    lanes.next_power_of_two().min(LANES)
}

/// Where a lane kernel reads its input and writes its output.
pub(crate) trait LaneIo<const N: usize> {
    /// Input sample `i` of every lane.
    fn load(&self, i: usize) -> [f64; N];
    /// Output sample `i` of every lane.
    fn store(&mut self, i: usize, y: [f64; N]);
    /// The registers every lane starts section `k` from: zero unless the
    /// lanes continue streams.
    fn initial(&self, _k: usize) -> [[f64; N]; 2] {
        [[0.0; N]; 2]
    }
    /// The registers every lane ends section `k` with.
    fn finish(&mut self, _k: usize, _s: [[f64; N]; 2]) {}
}

/// Lanes filtered where they lie; spare lanes read zeros and keep
/// nothing.
struct InPlace<'a, 'b>(&'a mut [&'b mut [f64]]);

impl<const N: usize> LaneIo<N> for InPlace<'_, '_> {
    fn load(&self, i: usize) -> [f64; N] {
        std::array::from_fn(|j| self.0.get(j).map_or(0.0, |l| l[i]))
    }

    fn store(&mut self, i: usize, y: [f64; N]) {
        for (l, y) in self.0.iter_mut().zip(y) {
            l[i] = y;
        }
    }
}

/// Runs `sections` over `N` lanes of `len` samples in lock-step, each
/// section from `io.initial` registers, and hands outputs `keep..len` to
/// `io.store` and each section's end registers to `io.finish`. The
/// cascade runs section by section, as [`Butterworth::filter_in_place`]
/// does with one lane: the first section reads through `io.load`, the
/// later ones over `rows` (`N` values per sample), and the last keeps
/// only what is asked for. Pipelining sections inside a lane row would
/// need more live values than there are registers.
pub(crate) fn cascade_lanes<const N: usize>(
    sections: &[Biquad],
    len: usize,
    keep: usize,
    io: &mut impl LaneIo<N>,
    rows: &mut Vec<f64>,
) {
    let row = |r: &[f64]| -> [f64; N] { r.try_into().expect("rows are N wide") };
    let Some((last, rest)) = sections.split_last() else {
        for i in keep..len {
            io.store(i, io.load(i));
        }
        return;
    };
    let lastk = sections.len() - 1;
    let Some((first, middle)) = rest.split_first() else {
        let mut s = io.initial(0);
        for i in 0..keep {
            last.step_lanes(io.load(i), &mut s);
        }
        for i in keep..len {
            io.store(i, last.step_lanes(io.load(i), &mut s));
        }
        io.finish(0, s);
        return;
    };
    if rows.len() < len * N {
        rows.resize(len * N, 0.0);
    }
    let rows = &mut rows[..len * N];
    let mut s = io.initial(0);
    for (i, r) in rows.chunks_exact_mut(N).enumerate() {
        r.copy_from_slice(&first.step_lanes(io.load(i), &mut s));
    }
    io.finish(0, s);
    for (k, section) in (1..).zip(middle) {
        let mut s = io.initial(k);
        for r in rows.chunks_exact_mut(N) {
            let y = section.step_lanes(row(r), &mut s);
            r.copy_from_slice(&y);
        }
        io.finish(k, s);
    }
    let mut s = io.initial(lastk);
    let (settling, kept) = rows.split_at(keep * N);
    for r in settling.chunks_exact(N) {
        last.step_lanes(row(r), &mut s);
    }
    for (i, r) in (keep..).zip(kept.chunks_exact(N)) {
        io.store(i, last.step_lanes(row(r), &mut s));
    }
    io.finish(lastk, s);
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

//! Zero-phase (forward–backward) filtering.
//!
//! Both of the paper's conditioning filters are *zero-phase*: the ECG
//! 0.05–40 Hz FIR bandpass and the ICG 20 Hz Butterworth low-pass. Zero
//! phase matters because the whole point of the downstream algorithm is the
//! *timing* of the R, B, C and X landmarks — a causal filter's group delay
//! (and, for IIR, its phase distortion) would bias LVET and PEP directly.
//!
//! The classic `filtfilt` construction is used: the signal is extended at
//! both ends by odd reflection (to suppress edge transients), filtered
//! forward, reversed, filtered again, reversed back, and trimmed. The
//! resulting effective magnitude response is the square of the underlying
//! filter's and the phase is identically zero.

use std::ops::Range;

use crate::fir::Fir;
use crate::iir::Butterworth;
use crate::DspError;

/// Reusable work buffers for the `filtfilt_*_into` zero-allocation entry
/// points.
///
/// One scratch instance amortises the padded-signal and forward-pass
/// buffers across calls: after the first call at a given session length no
/// further allocation happens. The allocating wrappers
/// ([`filtfilt_fir`], [`filtfilt_iir`], [`filtfilt_iir_ext`]) delegate to
/// the `_into` functions with a fresh scratch, so both paths run the exact
/// same arithmetic and produce bitwise-identical output.
#[derive(Debug, Clone, Default)]
pub struct ZeroPhaseScratch {
    /// Edge-extended copy of the input (and, for IIR, the in-place
    /// filtering buffer).
    padded: Vec<f64>,
    /// Secondary buffer for FIR passes, which cannot run in place.
    work: Vec<f64>,
}

impl ZeroPhaseScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Applies `filter` forward and backward over `x`, returning a zero-phase
/// result of the same length.
///
/// The edge extension length is `3 × (order + 1)` samples (clamped to
/// `x.len() − 1`), mirroring SciPy's default.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
///
/// # Example
///
/// ```
/// use cardiotouch_dsp::fir::Fir;
/// use cardiotouch_dsp::window::Window;
/// use cardiotouch_dsp::zero_phase::filtfilt_fir;
///
/// # fn main() -> Result<(), cardiotouch_dsp::DspError> {
/// let lp = Fir::lowpass(32, 20.0, 250.0, Window::Hamming)?;
/// let x: Vec<f64> = (0..300).map(|n| (n as f64 / 10.0).sin()).collect();
/// let y = filtfilt_fir(&lp, &x)?;
/// assert_eq!(y.len(), x.len());
/// # Ok(())
/// # }
/// ```
pub fn filtfilt_fir(filter: &Fir, x: &[f64]) -> Result<Vec<f64>, DspError> {
    let mut y = Vec::new();
    filtfilt_fir_into(filter, x, &mut ZeroPhaseScratch::new(), &mut y)?;
    Ok(y)
}

/// Zero-allocation variant of [`filtfilt_fir`]: writes the zero-phase
/// result into `y` (cleared first) using the caller's scratch buffers.
///
/// Bitwise-identical to [`filtfilt_fir`] by construction — the allocating
/// wrapper delegates here.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
pub fn filtfilt_fir_into(
    filter: &Fir,
    x: &[f64],
    scratch: &mut ZeroPhaseScratch,
    y: &mut Vec<f64>,
) -> Result<(), DspError> {
    let ext = checked_ext(x, filter.order() + 1)?;
    odd_reflect_into(x, ext, &mut scratch.padded);
    // Forward pass, reverse, backward pass, reverse back: the two FIR
    // passes ping-pong between the scratch buffers since direct-form
    // convolution cannot run in place.
    filter.filter_into(&scratch.padded, &mut scratch.work);
    scratch.work.reverse();
    filter.filter_into(&scratch.work, &mut scratch.padded);
    scratch.padded.reverse();
    y.clear();
    y.extend_from_slice(&scratch.padded[ext..ext + x.len()]);
    Ok(())
}

/// Writes `filtfilt_fir_into(filter, x)[span]` into `y` (cleared first),
/// **bitwise**, while filtering only the samples that span depends on.
///
/// Output sample `p` of the two FIR passes depends only on padded input
/// `[p − order, p + order]`, so the forward pass runs over the padded
/// indices `[ext + span.start, ext + span.end + order)` and the backward
/// pass over the span alone. Reflected edge samples are computed on the
/// fly with [`odd_reflect_into`]'s expressions, and both passes keep
/// [`Fir::filter_into`]'s ascending-tap accumulation from `0.0`, so every
/// output bit matches the full-length call. As in `Fir::filter_into`,
/// interior full-tap outputs of both passes run eight at a time, one
/// accumulator each; outputs that read a reflected edge stay scalar.
/// `work` holds the forward pass (`span.len() + order` samples at most).
///
/// # Errors
///
/// * [`DspError::InputTooShort`] when `x` has fewer than 2 samples (the
///   same check as [`filtfilt_fir_into`]);
/// * [`DspError::InvalidParameter`] when `span` is inverted or ends past
///   `x.len()`.
pub fn filtfilt_fir_span_into(
    filter: &Fir,
    x: &[f64],
    span: Range<usize>,
    work: &mut Vec<f64>,
    y: &mut Vec<f64>,
) -> Result<(), DspError> {
    let order = filter.order();
    let ext = checked_ext(x, order + 1)?;
    let n = x.len();
    if span.start > span.end || span.end > n {
        return Err(DspError::InvalidParameter {
            name: "span.end",
            value: span.end as f64,
            constraint: "span must satisfy start <= end <= x.len()",
        });
    }
    let padded = |j: usize| {
        if j < ext {
            2.0 * x[0] - x[ext - j]
        } else if j < ext + n {
            x[j - ext]
        } else {
            2.0 * x[n - 1] - x[n - 1 - (j + 1 - ext - n)]
        }
    };
    let taps = filter.taps();
    let np = n + 2 * ext;
    let (start, end) = (ext + span.start, ext + span.end);
    // Forward pass over [start, q_end) of the padded signal. Outputs
    // whose taps all read `x` itself run eight at a time, one
    // accumulator each, as in `Fir::filter_into`; the edges stay scalar.
    let fwd_at = |q: usize| {
        let taps_q = &taps[..=q.min(order)];
        let first = q + 1 - taps_q.len();
        if first >= ext && q < ext + n {
            let xs = x[first - ext..=q - ext].iter().rev();
            taps_q.iter().zip(xs).fold(0.0, |acc, (t, v)| acc + t * v)
        } else {
            taps_q
                .iter()
                .enumerate()
                .fold(0.0, |acc, (k, t)| acc + t * padded(q - k))
        }
    };
    let q_end = (end + order).min(np);
    let full_lo = start.max(ext + order).min(q_end);
    let full_hi = q_end.min(ext + n).max(full_lo);
    work.clear();
    work.extend((start..full_lo).map(fwd_at));
    let mut q = full_lo;
    while q + BLOCK <= full_hi {
        work.extend_from_slice(&block_dot(taps, &x[q - ext - order..], true));
        q += BLOCK;
    }
    work.extend((q..q_end).map(fwd_at));
    // Backward pass, already in forward time order: output p reads
    // forward samples [p, p + min(np − 1 − p, order)]; the outputs with
    // all `order + 1` of them run eight at a time.
    let bwd_at = |p: usize| {
        let m = (np - 1 - p).min(order);
        let fwd = &work[p - start..=p - start + m];
        taps[..=m]
            .iter()
            .zip(fwd)
            .fold(0.0, |acc, (t, v)| acc + t * v)
    };
    let full_end = end.min(np.saturating_sub(order)).max(start);
    y.clear();
    let mut p = start;
    while p + BLOCK <= full_end {
        y.extend_from_slice(&block_dot(taps, &work[p - start..], false));
        p += BLOCK;
    }
    y.extend((p..end).map(bwd_at));
    Ok(())
}

/// Outputs computed per block by the span kernel's full-tap loops.
const BLOCK: usize = 8;

/// Eight full-tap dot products at once, one accumulator each, taps in
/// ascending order from `0.0`. `reversed` convolves (output `j` is
/// `Σ taps[k]·s[order + j − k]`, the forward pass); otherwise it
/// correlates (`Σ taps[k]·s[j + k]`, the backward pass read in forward
/// time).
fn block_dot(taps: &[f64], s: &[f64], reversed: bool) -> [f64; BLOCK] {
    let order = taps.len() - 1;
    let mut acc = [0.0; BLOCK];
    for (k, &t) in taps.iter().enumerate() {
        let at = if reversed { order - k } else { k };
        for (a, &v) in acc.iter_mut().zip(&s[at..at + BLOCK]) {
            *a += t * v;
        }
    }
    acc
}

/// Applies a Butterworth cascade forward and backward over `x`, returning a
/// zero-phase result of the same length. This is the exact operation the
/// paper describes for ICG conditioning.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
pub fn filtfilt_iir(filter: &Butterworth, x: &[f64]) -> Result<Vec<f64>, DspError> {
    let mut y = Vec::new();
    filtfilt_iir_into(filter, x, &mut ZeroPhaseScratch::new(), &mut y)?;
    Ok(y)
}

/// Zero-allocation variant of [`filtfilt_iir`]: writes the zero-phase
/// result into `y` (cleared first) using the caller's scratch buffers.
///
/// Bitwise-identical to [`filtfilt_iir`] by construction — the allocating
/// wrapper delegates here.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
pub fn filtfilt_iir_into(
    filter: &Butterworth,
    x: &[f64],
    scratch: &mut ZeroPhaseScratch,
    y: &mut Vec<f64>,
) -> Result<(), DspError> {
    // IIR transients decay over many samples; use a generous extension.
    let ext = checked_ext(x, 6 * (filter.order() + 1))?;
    odd_reflect_into(x, ext, &mut scratch.padded);
    filtfilt_iir_core(filter, &mut scratch.padded);
    y.clear();
    y.extend_from_slice(&scratch.padded[ext..ext + x.len()]);
    Ok(())
}

/// Forward–backward IIR pass over an already edge-extended buffer, fully
/// in place (biquad cascades, unlike FIR convolution, can filter in situ).
fn filtfilt_iir_core(filter: &Butterworth, padded: &mut [f64]) {
    filter.filter_in_place(padded);
    padded.reverse();
    filter.filter_in_place(padded);
    padded.reverse();
}

/// Like [`filtfilt_iir`] but with an explicit edge-extension length in
/// samples (before the internal ×3 factor) and **even** (symmetric)
/// reflection instead of odd.
///
/// Use this variant for **high-pass** filters with very low corners: odd
/// reflection offsets the extension's local mean by `2·x(end)`, and a slow
/// high-pass turns that pedestal into a decaying error that reaches
/// hundreds of samples into the interior. Even reflection preserves the
/// local mean (at the cost of a slope kink, which a high-pass passes as a
/// brief, local wiggle), so the interior stays clean.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
pub fn filtfilt_iir_ext(
    filter: &Butterworth,
    x: &[f64],
    ext_samples: usize,
) -> Result<Vec<f64>, DspError> {
    let mut y = Vec::new();
    filtfilt_iir_ext_into(filter, x, ext_samples, &mut ZeroPhaseScratch::new(), &mut y)?;
    Ok(y)
}

/// Zero-allocation variant of [`filtfilt_iir_ext`]: writes the zero-phase
/// result into `y` (cleared first) using the caller's scratch buffers.
///
/// Bitwise-identical to [`filtfilt_iir_ext`] by construction — the
/// allocating wrapper delegates here.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when `x` has fewer than 2 samples.
pub fn filtfilt_iir_ext_into(
    filter: &Butterworth,
    x: &[f64],
    ext_samples: usize,
    scratch: &mut ZeroPhaseScratch,
    y: &mut Vec<f64>,
) -> Result<(), DspError> {
    let ext = checked_ext(x, ext_samples.max(1))?;
    even_reflect_into(x, ext, &mut scratch.padded);
    filtfilt_iir_core(filter, &mut scratch.padded);
    y.clear();
    y.extend_from_slice(&scratch.padded[ext..ext + x.len()]);
    Ok(())
}

/// Validates the minimum input length and returns the clamped edge
/// extension `(3 × base).min(x.len() − 1)` shared by every filtfilt
/// entry point.
fn checked_ext(x: &[f64], base: usize) -> Result<usize, DspError> {
    if x.len() < 2 {
        return Err(DspError::InputTooShort {
            len: x.len(),
            min_len: 2,
        });
    }
    Ok((3 * base).min(x.len() - 1))
}

/// Extends `x` by `ext` samples on each side using odd (anti-symmetric)
/// reflection about the end points: the extension at the start is
/// `2·x[0] − x[ext..0]` and analogously at the end. Odd reflection keeps
/// the signal continuous in value *and* first difference, which minimises
/// the start-up transient of the filter.
#[must_use]
pub fn odd_reflect(x: &[f64], ext: usize) -> Vec<f64> {
    let mut out = Vec::new();
    odd_reflect_into(x, ext, &mut out);
    out
}

/// Buffer-reusing variant of [`odd_reflect`]: `out` is cleared and filled
/// with the extended signal. `ext` is clamped to `x.len() − 1` (a
/// reflection cannot reach past the far end point).
pub fn odd_reflect_into(x: &[f64], ext: usize, out: &mut Vec<f64>) {
    let ext = ext.min(x.len().saturating_sub(1));
    let n = x.len();
    out.clear();
    out.reserve(n + 2 * ext);
    for i in (1..=ext).rev() {
        out.push(2.0 * x[0] - x[i]);
    }
    out.extend_from_slice(x);
    for i in 1..=ext {
        out.push(2.0 * x[n - 1] - x[n - 1 - i]);
    }
}

/// Extends `x` by `ext` samples on each side using even (symmetric)
/// reflection about the end points: value-continuous and mean-preserving,
/// but with a slope kink at the junction.
#[must_use]
pub fn even_reflect(x: &[f64], ext: usize) -> Vec<f64> {
    let mut out = Vec::new();
    even_reflect_into(x, ext, &mut out);
    out
}

/// Buffer-reusing variant of [`even_reflect`]: `out` is cleared and filled
/// with the extended signal. `ext` is clamped to `x.len() − 1`, as in
/// [`odd_reflect_into`].
pub fn even_reflect_into(x: &[f64], ext: usize, out: &mut Vec<f64>) {
    let ext = ext.min(x.len().saturating_sub(1));
    let n = x.len();
    out.clear();
    out.reserve(n + 2 * ext);
    for i in (1..=ext).rev() {
        out.push(x[i]);
    }
    out.extend_from_slice(x);
    for i in 1..=ext {
        out.push(x[n - 1 - i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    const FS: f64 = 250.0;

    fn sine(f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / FS).sin())
            .collect()
    }

    #[test]
    fn odd_reflect_shape() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let p = odd_reflect(&x, 2);
        // start: 2*1-3=-1, 2*1-2=0 ; end: 2*4-3=5, 2*4-2=6
        assert_eq!(p, vec![-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn odd_reflect_zero_ext_is_identity() {
        let x = [1.0, 2.0];
        assert_eq!(odd_reflect(&x, 0), x.to_vec());
    }

    #[test]
    fn reflect_clamps_oversized_ext() {
        assert_eq!(odd_reflect(&[1.0], 5), vec![1.0]);
        assert_eq!(even_reflect(&[1.0], 5), vec![1.0]);
        assert_eq!(odd_reflect(&[], 3), Vec::<f64>::new());
        assert_eq!(even_reflect(&[], 3), Vec::<f64>::new());
        let x = [1.0, 2.0, 4.0];
        assert_eq!(odd_reflect(&x, 9), odd_reflect(&x, 2));
        assert_eq!(even_reflect(&x, 9), vec![4.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0]);
    }

    #[test]
    fn filtfilt_fir_preserves_length() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        for n in [2, 10, 50, 300] {
            let x = sine(5.0, n);
            assert_eq!(filtfilt_fir(&f, &x).unwrap().len(), n);
        }
    }

    #[test]
    fn filtfilt_rejects_tiny_input() {
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        assert!(filtfilt_fir(&f, &[1.0]).is_err());
        assert!(filtfilt_fir(&f, &[]).is_err());
    }

    #[test]
    fn filtfilt_fir_zero_phase_on_passband_sine() {
        // A 5 Hz sine through a 20 Hz low-pass must come out time-aligned:
        // cross-correlation at zero lag should dominate.
        let f = Fir::lowpass(32, 20.0, FS, Window::Hamming).unwrap();
        let x = sine(5.0, 1000);
        let y = filtfilt_fir(&f, &x).unwrap();
        // compare interior samples directly (transients are at the edges)
        for i in 100..900 {
            assert!(
                (x[i] - y[i]).abs() < 0.01,
                "sample {i}: {} vs {}",
                x[i],
                y[i]
            );
        }
    }

    #[test]
    fn filtfilt_iir_zero_phase_on_passband_sine() {
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        let x = sine(3.0, 1500);
        let y = filtfilt_iir(&f, &x).unwrap();
        for i in 200..1300 {
            assert!((x[i] - y[i]).abs() < 0.01, "sample {i}");
        }
    }

    #[test]
    fn filtfilt_iir_squares_the_magnitude() {
        // A 30 Hz sine through a 20 Hz 4th-order LP: single pass gain g,
        // filtfilt gain must be ~g².
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        let g = f.magnitude_at(30.0, FS);
        let x = sine(30.0, 4000);
        let y = filtfilt_iir(&f, &x).unwrap();
        let peak = y[1000..3000].iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!((peak - g * g).abs() < 0.01, "peak {peak} vs g² {}", g * g);
    }

    #[test]
    fn filtfilt_preserves_dc() {
        let f = Butterworth::lowpass(2, 20.0, FS).unwrap();
        let x = vec![3.7; 400];
        let y = filtfilt_iir(&f, &x).unwrap();
        for v in &y[50..350] {
            assert!((v - 3.7).abs() < 1e-9);
        }
    }

    #[test]
    fn filtfilt_linear_ramp_passes_lowpass_cleanly() {
        // Odd reflection keeps first differences continuous, so a ramp
        // through a low-pass should be nearly untouched even at edges.
        let f = Butterworth::lowpass(2, 20.0, FS).unwrap();
        let x: Vec<f64> = (0..500).map(|i| 0.01 * i as f64).collect();
        let y = filtfilt_iir(&f, &x).unwrap();
        for i in 0..500 {
            assert!(
                (x[i] - y[i]).abs() < 0.02,
                "sample {i}: {} vs {}",
                x[i],
                y[i]
            );
        }
    }

    #[test]
    fn paper_icg_chain_attenuates_above_20hz() {
        // 35 Hz must be strongly suppressed, 5 Hz preserved — exactly what
        // the ICG conditioning in the paper needs (ICG band 0.8–20 Hz).
        let f = Butterworth::lowpass(4, 20.0, FS).unwrap();
        let x: Vec<f64> = (0..2000)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 5.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 35.0 * t).sin()
            })
            .collect();
        let y = filtfilt_iir(&f, &x).unwrap();
        let clean = sine(5.0, 2000);
        let mut err = 0.0f64;
        for i in 300..1700 {
            err = err.max((y[i] - clean[i]).abs());
        }
        assert!(err < 0.06, "residual interference {err}");
    }
}

//! ECG conditioning: the paper's two-stage noise-cancellation chain.
//!
//! Stage 1 estimates and subtracts baseline wander with the morphological
//! method of \[21\] (erosion+dilation to remove peaks, then dilation+erosion
//! to remove pits). Stage 2 removes high-frequency noise with a
//! *zero-phase* 32nd-order FIR band-pass, cut-offs 0.05 Hz and 40 Hz.
//! Both stage parameters are exposed so ablation benchmarks can vary them.

use std::sync::Arc;

use crate::EcgError;
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::fir::Fir;
use cardiotouch_dsp::morph::{self, BaselineConfig};
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::{filtfilt_fir_into, ZeroPhaseScratch};

/// The paper's ECG conditioning chain.
///
/// The FIR stage is held behind an [`Arc`] obtained from the process-wide
/// [`design_cache`], so every conditioner built with the same parameters
/// (e.g. one per study session) shares a single coefficient set and
/// construction skips the windowed-sinc design entirely after first use.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EcgConditioner {
    baseline: BaselineConfig,
    bandpass: Arc<Fir>,
    baseline_enabled: bool,
}

impl EcgConditioner {
    /// Builds the chain exactly as the paper specifies for sampling rate
    /// `fs`: morphological baseline removal sized for ECG, then a 32nd
    /// order FIR band-pass 0.05–40 Hz (Hamming windowed-sinc design).
    ///
    /// # Errors
    ///
    /// Returns [`EcgError::InvalidParameter`] when `fs` cannot support the
    /// 40 Hz band edge (fs ≤ 80 Hz).
    pub fn paper_default(fs: f64) -> Result<Self, EcgError> {
        if fs <= 80.0 {
            return Err(EcgError::InvalidParameter {
                name: "fs",
                value: fs,
                constraint: "must exceed 80 Hz for the 40 Hz band edge",
            });
        }
        Ok(Self {
            baseline: BaselineConfig::for_ecg(fs),
            bandpass: design_cache::fir_bandpass(32, 0.05, 40.0, fs, Window::Hamming)?,
            baseline_enabled: true,
        })
    }

    /// Builds a custom chain from explicit parts (for ablation studies).
    #[must_use]
    pub fn with_parts(baseline: BaselineConfig, bandpass: Fir, baseline_enabled: bool) -> Self {
        Self {
            baseline,
            bandpass: Arc::new(bandpass),
            baseline_enabled,
        }
    }

    /// The FIR stage of the chain.
    #[must_use]
    pub fn bandpass(&self) -> &Fir {
        &self.bandpass
    }

    /// Runs the full chain: baseline removal (when enabled) then the
    /// zero-phase band-pass. The output has the same length as the input.
    ///
    /// # Errors
    ///
    /// Returns [`EcgError::RecordTooShort`] when the record is shorter
    /// than the morphological structuring elements or the filter can not
    /// run (fewer than 2 samples).
    pub fn condition(&self, x: &[f64]) -> Result<Vec<f64>, EcgError> {
        let mut y = Vec::new();
        self.condition_into(x, &mut ZeroPhaseScratch::new(), &mut y)?;
        Ok(y)
    }

    /// Zero-allocation variant of [`EcgConditioner::condition`] for hot
    /// loops: the band-pass stage reuses the caller's scratch buffers and
    /// writes into `y` (cleared first). The morphological baseline stage
    /// still allocates internally, and it dominates the chain's cost: on
    /// a 30 s, 250 Hz record (2-core Xeon) it measured about 40 ns per
    /// sample against about 11 for the order-32 zero-phase FIR.
    ///
    /// Bitwise-identical to [`EcgConditioner::condition`] by construction
    /// — the allocating wrapper delegates here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EcgConditioner::condition`].
    pub fn condition_into(
        &self,
        x: &[f64],
        scratch: &mut ZeroPhaseScratch,
        y: &mut Vec<f64>,
    ) -> Result<(), EcgError> {
        let min_len = 2 * self.baseline.pit_element.len().max(2);
        if x.len() < min_len {
            return Err(EcgError::RecordTooShort {
                len: x.len(),
                min_len,
            });
        }
        if self.baseline_enabled {
            let detrended = morph::remove_baseline(x, self.baseline)?;
            filtfilt_fir_into(&self.bandpass, &detrended, scratch, y)?;
        } else {
            filtfilt_fir_into(&self.bandpass, x, scratch, y)?;
        }
        Ok(())
    }

    /// Returns only the estimated baseline (useful for inspection and for
    /// the artifact-lab example).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EcgConditioner::condition`].
    pub fn baseline_estimate(&self, x: &[f64]) -> Result<Vec<f64>, EcgError> {
        Ok(morph::estimate_baseline(x, self.baseline)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 250.0;

    /// A crude spike-train "ECG": 1 mV R spikes every second.
    fn spike_train(n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for k in (125..n).step_by(250) {
            if k > 0 && k + 1 < n {
                x[k - 1] = 0.3;
                x[k] = 1.0;
                x[k + 1] = 0.3;
            }
        }
        x
    }

    #[test]
    fn removes_slow_baseline_drift() {
        let n = 2500;
        let mut x = spike_train(n);
        // 0.2 Hz, 1 mV drift — bigger than the QRS
        for (i, v) in x.iter_mut().enumerate() {
            *v += (2.0 * std::f64::consts::PI * 0.2 * i as f64 / FS).sin();
        }
        let c = EcgConditioner::paper_default(FS).unwrap();
        let y = c.condition(&x).unwrap();
        // drift gone: long-window mean near zero everywhere
        for chunk in y[250..2250].chunks(250) {
            let m = chunk.iter().sum::<f64>() / chunk.len() as f64;
            assert!(m.abs() < 0.08, "residual drift {m}");
        }
        // spikes survive (a 3-sample spike is narrower than a real QRS, so
        // the 40 Hz edge takes roughly half its peak — that is expected)
        let peak = y[250..2250].iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.3, "QRS flattened to {peak}");
    }

    #[test]
    fn removes_powerline_noise() {
        let n = 2500;
        let mut x = spike_train(n);
        for (i, v) in x.iter_mut().enumerate() {
            *v += 0.2 * (2.0 * std::f64::consts::PI * 50.0 * i as f64 / FS).sin();
        }
        let c = EcgConditioner::paper_default(FS).unwrap();
        let y = c.condition(&x).unwrap();
        // 50 Hz is above the 40 Hz edge: strongly attenuated after
        // the double (zero-phase) pass
        let g50 = cardiotouch_dsp::spectrum::goertzel(&y[400..2448], 50.0, FS)
            .unwrap()
            .magnitude();
        let g50_in = cardiotouch_dsp::spectrum::goertzel(&x[400..2448], 50.0, FS)
            .unwrap()
            .magnitude();
        assert!(g50 < 0.35 * g50_in, "50 Hz gain {}", g50 / g50_in);
    }

    #[test]
    fn preserves_timing_zero_phase() {
        let n = 2500;
        let x = spike_train(n);
        let c = EcgConditioner::paper_default(FS).unwrap();
        let y = c.condition(&x).unwrap();
        // each spike's filtered peak stays within ±2 samples of the input
        for k in (125..n - 1).step_by(250) {
            let lo = k.saturating_sub(10);
            let hi = (k + 10).min(n);
            let local = &y[lo..hi];
            let arg = lo
                + local
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
            assert!(arg.abs_diff(k) <= 2, "peak moved from {k} to {arg}");
        }
    }

    #[test]
    fn output_length_matches_input() {
        let x = spike_train(1000);
        let c = EcgConditioner::paper_default(FS).unwrap();
        assert_eq!(c.condition(&x).unwrap().len(), 1000);
    }

    #[test]
    fn rejects_too_short_records() {
        let c = EcgConditioner::paper_default(FS).unwrap();
        assert!(matches!(
            c.condition(&[0.0; 10]),
            Err(EcgError::RecordTooShort { .. })
        ));
    }

    #[test]
    fn rejects_unsupported_fs() {
        assert!(EcgConditioner::paper_default(60.0).is_err());
    }

    #[test]
    fn baseline_estimate_tracks_drift() {
        let n = 2500;
        let mut x = spike_train(n);
        for (i, v) in x.iter_mut().enumerate() {
            *v += 0.8 * (2.0 * std::f64::consts::PI * 0.15 * i as f64 / FS).sin();
        }
        let c = EcgConditioner::paper_default(FS).unwrap();
        let b = c.baseline_estimate(&x).unwrap();
        for i in (300..2200).step_by(100) {
            let truth = 0.8 * (2.0 * std::f64::consts::PI * 0.15 * i as f64 / FS).sin();
            assert!(
                (b[i] - truth).abs() < 0.2,
                "sample {i}: {} vs {truth}",
                b[i]
            );
        }
    }

    #[test]
    fn disabling_baseline_skips_stage() {
        let n = 2500;
        let mut x = spike_train(n);
        for (i, v) in x.iter_mut().enumerate() {
            // drift *inside* the FIR pass band (0.2 Hz > 0.05 Hz) — only
            // the morphological stage can remove it
            *v += 1.0 * (2.0 * std::f64::consts::PI * 0.2 * i as f64 / FS).sin();
        }
        let on = EcgConditioner::paper_default(FS).unwrap();
        let off = EcgConditioner::with_parts(
            cardiotouch_dsp::morph::BaselineConfig::for_ecg(FS),
            on.bandpass().clone(),
            false,
        );
        let y_on = on.condition(&x).unwrap();
        let y_off = off.condition(&x).unwrap();
        let drift = |y: &[f64]| {
            y[250..2250]
                .chunks(125)
                .map(|c| (c.iter().sum::<f64>() / c.len() as f64).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(drift(&y_on) < 0.5 * drift(&y_off));
    }
}

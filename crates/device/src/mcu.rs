//! STM32L151 cycle-budget model.
//!
//! The paper reports that the full acquisition-and-estimation pipeline
//! needs "just between 40 % and 50 % of the duty cycle of the CPU power in
//! the STM32 micro-controller". The STM32L151 is a Cortex-M3 with **no
//! hardware FPU**, so every double-precision operation runs in software at
//! roughly 100–200 cycles. This module budgets the pipeline stage by
//! stage in floating-point operations per sample (or per beat), converts
//! to cycles with a software-float cost, and reports the CPU duty cycle at
//! a given core clock — reproducing the paper's estimate and enabling the
//! what-if analyses in the benchmarks (e.g. how the duty cycle scales with
//! sampling rate or filter order).

use crate::DeviceError;

/// One pipeline stage with its arithmetic cost.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Stage {
    /// Stage label for reports.
    pub name: &'static str,
    /// Floating-point operations per input sample.
    pub flops_per_sample: f64,
    /// Additional floating-point operations per detected beat.
    pub flops_per_beat: f64,
}

/// Cycle-budget model of a Cortex-M3 class microcontroller.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CycleBudget {
    stages: Vec<Stage>,
    cycles_per_flop: f64,
    overhead_factor: f64,
    clock_hz: f64,
}

impl CycleBudget {
    /// Creates a budget.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`] for non-positive cost factors
    /// or clock.
    pub fn new(
        stages: Vec<Stage>,
        cycles_per_flop: f64,
        overhead_factor: f64,
        clock_hz: f64,
    ) -> Result<Self, DeviceError> {
        for (name, v) in [
            ("cycles_per_flop", cycles_per_flop),
            ("overhead_factor", overhead_factor),
            ("clock_hz", clock_hz),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(DeviceError::OutOfRange {
                    name,
                    value: v,
                    range: "(0, inf)",
                });
            }
        }
        Ok(Self {
            stages,
            cycles_per_flop,
            overhead_factor,
            clock_hz,
        })
    }

    /// The paper pipeline on a 32 MHz STM32L151 with software
    /// double-precision arithmetic (~150 cycles per flop on Cortex-M3) and
    /// 45 % scheduling/memory overhead (the zero-phase filters copy,
    /// reverse and edge-pad their block buffers twice per pass, which on a
    /// flash-wait-state Cortex-M3 costs nearly as much as the arithmetic).
    ///
    /// Stage costs count multiply–accumulate pairs as 2 flops. The
    /// zero-phase filters run forward and backward, hence the ×2 on their
    /// per-sample cost.
    #[must_use]
    pub fn paper_pipeline() -> Self {
        let stages = vec![
            Stage {
                // Sun–Chan–Krishnan baseline: two openings/closings with
                // monotonic-deque sliding extrema — ~3 comparisons+updates
                // per sample per pass, 4 passes, plus the subtraction.
                name: "ECG morphological baseline removal",
                flops_per_sample: 26.0,
                flops_per_beat: 0.0,
            },
            Stage {
                // 33-tap FIR, zero-phase (×2 passes): 33 MACs = 66 flops/pass.
                name: "ECG FIR band-pass 0.05-40 Hz (zero-phase)",
                flops_per_sample: 132.0,
                flops_per_beat: 0.0,
            },
            Stage {
                // 2 biquads (4th order), 9 flops each, ×2 passes.
                name: "ICG Butterworth low-pass 20 Hz (zero-phase)",
                flops_per_sample: 36.0,
                flops_per_beat: 0.0,
            },
            Stage {
                // Pan-Tompkins: band-pass (2 biquads), derivative, square,
                // 30-sample moving integration (running sum), thresholds.
                name: "Pan-Tompkins QRS detection",
                flops_per_sample: 40.0,
                flops_per_beat: 60.0,
            },
            Stage {
                // derivatives of the beat segment (3 passes over ~250
                // samples) + line fit + scans.
                name: "ICG B/C/X detection",
                flops_per_sample: 0.0,
                flops_per_beat: 2_600.0,
            },
            Stage {
                name: "hemodynamic parameters (LVET/PEP/HR/Z0/SV)",
                flops_per_sample: 1.0,
                flops_per_beat: 120.0,
            },
        ];
        Self {
            stages,
            cycles_per_flop: 150.0,
            overhead_factor: 1.45,
            clock_hz: 32.0e6,
        }
    }

    /// Borrow the stage table.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Total cycles consumed per second at sampling rate `fs` and heart
    /// rate `hr_bpm`.
    #[must_use]
    pub fn cycles_per_second(&self, fs: f64, hr_bpm: f64) -> f64 {
        let beats_per_s = hr_bpm / 60.0;
        let flops_per_s: f64 = self
            .stages
            .iter()
            .map(|s| s.flops_per_sample * fs + s.flops_per_beat * beats_per_s)
            .sum();
        flops_per_s * self.cycles_per_flop * self.overhead_factor
    }

    /// CPU duty cycle (0–1) at sampling rate `fs` and heart rate `hr_bpm`.
    #[must_use]
    pub fn duty_cycle(&self, fs: f64, hr_bpm: f64) -> f64 {
        self.cycles_per_second(fs, hr_bpm) / self.clock_hz
    }

    /// Per-stage duty-cycle breakdown, `(name, duty)` pairs.
    #[must_use]
    pub fn breakdown(&self, fs: f64, hr_bpm: f64) -> Vec<(&'static str, f64)> {
        let beats_per_s = hr_bpm / 60.0;
        self.stages
            .iter()
            .map(|s| {
                let cycles = (s.flops_per_sample * fs + s.flops_per_beat * beats_per_s)
                    * self.cycles_per_flop
                    * self.overhead_factor;
                (s.name, cycles / self.clock_hz)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pipeline_duty_in_reported_band() {
        let b = CycleBudget::paper_pipeline();
        let duty = b.duty_cycle(250.0, 70.0);
        assert!(
            (0.40..=0.50).contains(&duty),
            "duty {duty} outside the paper's 40-50 % band"
        );
    }

    #[test]
    fn duty_scales_with_sampling_rate() {
        let b = CycleBudget::paper_pipeline();
        assert!(b.duty_cycle(500.0, 70.0) > 1.8 * b.duty_cycle(250.0, 70.0));
    }

    #[test]
    fn duty_rises_slightly_with_heart_rate() {
        let b = CycleBudget::paper_pipeline();
        assert!(b.duty_cycle(250.0, 120.0) > b.duty_cycle(250.0, 50.0));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let b = CycleBudget::paper_pipeline();
        let total: f64 = b.breakdown(250.0, 70.0).iter().map(|(_, d)| d).sum();
        assert!((total - b.duty_cycle(250.0, 70.0)).abs() < 1e-12);
    }

    #[test]
    fn fir_is_the_dominant_stage() {
        // the 33-tap zero-phase FIR dominates the per-sample cost, which
        // is what motivates the paper's low order choice
        let b = CycleBudget::paper_pipeline();
        let bd = b.breakdown(250.0, 70.0);
        let fir = bd
            .iter()
            .find(|(n, _)| n.contains("FIR"))
            .expect("fir stage present")
            .1;
        for (name, d) in &bd {
            if !name.contains("FIR") {
                assert!(fir >= *d, "{name} exceeds the FIR stage");
            }
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(CycleBudget::new(vec![], 0.0, 1.0, 32e6).is_err());
        assert!(CycleBudget::new(vec![], 150.0, 0.0, 32e6).is_err());
        assert!(CycleBudget::new(vec![], 150.0, 1.0, 0.0).is_err());
        assert!(CycleBudget::new(vec![], 150.0, 1.0, 32e6).is_ok());
    }

    #[test]
    fn empty_budget_is_free() {
        let b = CycleBudget::new(vec![], 150.0, 1.25, 32e6).unwrap();
        assert_eq!(b.duty_cycle(250.0, 70.0), 0.0);
    }
}

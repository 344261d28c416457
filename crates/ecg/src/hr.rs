//! Heart-rate and RR-interval utilities.
//!
//! The device reports HR alongside `Z0`, `LVET` and `PEP`; all of them are
//! derived beat-to-beat. HR comes straight from the R-peak indices the
//! Pan–Tompkins detector produces.

use crate::EcgError;

/// RR-interval series derived from R-peak sample indices.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RrSeries {
    intervals_s: Vec<f64>,
    fs: f64,
}

impl RrSeries {
    /// Builds the series from ascending R-peak indices at sampling rate
    /// `fs`.
    ///
    /// # Errors
    ///
    /// * [`EcgError::RecordTooShort`] with fewer than 2 peaks;
    /// * [`EcgError::InvalidParameter`] for a non-positive `fs` or
    ///   non-ascending peaks.
    pub fn from_peaks(peaks: &[usize], fs: f64) -> Result<Self, EcgError> {
        if peaks.len() < 2 {
            return Err(EcgError::RecordTooShort {
                len: peaks.len(),
                min_len: 2,
            });
        }
        if !(fs > 0.0 && fs.is_finite()) {
            return Err(EcgError::InvalidParameter {
                name: "fs",
                value: fs,
                constraint: "must be positive and finite",
            });
        }
        let mut intervals = Vec::with_capacity(peaks.len() - 1);
        for w in peaks.windows(2) {
            if w[1] <= w[0] {
                return Err(EcgError::InvalidParameter {
                    name: "peaks",
                    value: w[1] as f64,
                    constraint: "must be strictly ascending",
                });
            }
            intervals.push((w[1] - w[0]) as f64 / fs);
        }
        Ok(Self {
            intervals_s: intervals,
            fs,
        })
    }

    /// Sampling rate the peak indices refer to.
    #[must_use]
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Mean heart rate over the record, beats per minute.
    #[must_use]
    pub fn mean_hr_bpm(&self) -> f64 {
        let mean_rr = self.intervals_s.iter().sum::<f64>() / self.intervals_s.len() as f64;
        60.0 / mean_rr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_peaks_give_exact_hr() {
        // peaks every 250 samples at 250 Hz = 1 s RR = 60 bpm
        let peaks: Vec<usize> = (0..10).map(|i| i * 250).collect();
        let rr = RrSeries::from_peaks(&peaks, 250.0).unwrap();
        assert!((rr.mean_hr_bpm() - 60.0).abs() < 1e-12);
        assert_eq!(rr.intervals_s.len(), 9);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(RrSeries::from_peaks(&[5], 250.0).is_err());
        assert!(RrSeries::from_peaks(&[5, 10], 0.0).is_err());
        assert!(RrSeries::from_peaks(&[10, 5], 250.0).is_err());
        assert!(RrSeries::from_peaks(&[5, 5], 250.0).is_err());
    }
}

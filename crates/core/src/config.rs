//! Pipeline configuration.

use cardiotouch_icg::hemo::HemoConstants;
use cardiotouch_icg::points::XSearch;
pub use cardiotouch_icg::strategy::DelineationStrategy;

use crate::CoreError;

/// Configuration of the end-to-end device pipeline.
///
/// Construct with [`PipelineConfig::paper_default`] and adjust fields via
/// the `with_*` builders.
///
/// # Example
///
/// ```
/// use cardiotouch::config::PipelineConfig;
/// use cardiotouch_icg::points::XSearch;
///
/// let cfg = PipelineConfig::paper_default(250.0)
///     .with_x_search(XSearch::RtWindow { rt_s: 0.32 })
///     .with_min_beats(5);
/// assert_eq!(cfg.fs, 250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Sampling rate of both channels, hertz.
    pub fs: f64,
    /// X-point search strategy.
    pub x_search: XSearch,
    /// B/C/X delineation rule set (see [`DelineationStrategy`]). The
    /// default is the measured-best strategy on the conformance corpus;
    /// `classic` reproduces the source paper's rules exactly.
    pub delineation: DelineationStrategy,
    /// Beats with RR outside `[min_rr_s, max_rr_s]` are discarded.
    pub min_rr_s: f64,
    /// Upper RR bound, seconds.
    pub max_rr_s: f64,
    /// Minimum analysable beats for a valid recording.
    pub min_beats: usize,
    /// Constants for the stroke-volume formulas.
    pub hemo: HemoConstants,
    /// Thoracic-equivalent base impedance to use in the stroke-volume
    /// formulas, ohms. The Kubicek and Sramek–Bernstein formulas assume a
    /// *chest-band* Z0 (tens of ohms); a hand-to-hand touch measurement
    /// reads an order of magnitude higher, so SV/CO from a touch session
    /// need this per-subject calibration. `None` (the default) uses the
    /// measured Z0 directly — correct for the traditional electrode
    /// configuration, indicative only for touch sessions.
    pub hemo_z0_ohm: Option<f64>,
    /// When `true`, per-beat interval outliers (non-physiological PEP or
    /// LVET) are excluded from the aggregate statistics.
    pub reject_outliers: bool,
    /// Optional morphology gate: beats whose signal-quality index (the
    /// correlation against the recording's own ensemble template) falls
    /// below this threshold are skipped before point detection. `None`
    /// disables the gate. See [`cardiotouch_icg::quality`].
    pub sqi_threshold: Option<f64>,
    /// Maximum duration, seconds, that the streaming engine may hold the
    /// last finite sample over a non-finite (or railed/flat) stretch
    /// before it stops fabricating data and declares the channel `Lost`
    /// (see `cardiotouch::stream::SignalState`). Default 0.25 s.
    pub holdover_cap_s: f64,
}

impl PipelineConfig {
    /// The paper's configuration at sampling rate `fs` (250 Hz in the
    /// experiments): global-minimum X search, physiological RR gating,
    /// outlier rejection on.
    #[must_use]
    pub fn paper_default(fs: f64) -> Self {
        let (min_rr, max_rr) = cardiotouch_icg::beat::physiological_rr_bounds();
        Self {
            fs,
            x_search: XSearch::GlobalMinimum,
            delineation: DelineationStrategy::default(),
            min_rr_s: min_rr,
            max_rr_s: max_rr,
            min_beats: 3,
            hemo: HemoConstants::default(),
            hemo_z0_ohm: None,
            reject_outliers: true,
            sqi_threshold: None,
            holdover_cap_s: 0.25,
        }
    }

    /// Replaces the streaming holdover cap (seconds a channel may be
    /// bridged with fabricated samples before it is declared lost).
    #[must_use]
    pub fn with_holdover_cap_s(mut self, cap_s: f64) -> Self {
        self.holdover_cap_s = cap_s;
        self
    }

    /// Enables the per-beat morphology (SQI) gate at `threshold`
    /// (conventional: [`cardiotouch_icg::quality::DEFAULT_SQI_THRESHOLD`]).
    #[must_use]
    pub fn with_sqi_gate(mut self, threshold: f64) -> Self {
        self.sqi_threshold = Some(threshold);
        self
    }

    /// Sets the thoracic-equivalent Z0 calibration for the stroke-volume
    /// formulas (see [`PipelineConfig::hemo_z0_ohm`]).
    #[must_use]
    pub fn with_hemo_z0(mut self, z0_ohm: f64) -> Self {
        self.hemo_z0_ohm = Some(z0_ohm);
        self
    }

    /// Replaces the X-search strategy.
    #[must_use]
    pub fn with_x_search(mut self, x_search: XSearch) -> Self {
        self.x_search = x_search;
        self
    }

    /// Replaces the delineation strategy.
    #[must_use]
    pub fn with_delineation(mut self, strategy: DelineationStrategy) -> Self {
        self.delineation = strategy;
        self
    }

    /// Replaces the minimum beat count.
    #[must_use]
    pub fn with_min_beats(mut self, min_beats: usize) -> Self {
        self.min_beats = min_beats;
        self
    }

    /// Replaces the hemodynamic constants.
    #[must_use]
    pub fn with_hemo(mut self, hemo: HemoConstants) -> Self {
        self.hemo = hemo;
        self
    }

    /// Enables or disables interval outlier rejection.
    #[must_use]
    pub fn with_outlier_rejection(mut self, on: bool) -> Self {
        self.reject_outliers = on;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unusable sampling
    /// rate, RR gate, beat count, SQI threshold, holdover cap or Z0
    /// calibration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.fs > 80.0 && self.fs.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "fs",
                value: self.fs,
                constraint: "must exceed 80 Hz (the ECG chain's 40 Hz edge)",
            });
        }
        if !(self.min_rr_s > 0.0 && self.max_rr_s > self.min_rr_s) {
            return Err(CoreError::InvalidParameter {
                name: "min_rr_s/max_rr_s",
                value: self.min_rr_s,
                constraint: "must satisfy 0 < min < max",
            });
        }
        if self.min_beats == 0 {
            return Err(CoreError::InvalidParameter {
                name: "min_beats",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if let Some(t) = self.sqi_threshold {
            if !(-1.0..=1.0).contains(&t) {
                return Err(CoreError::InvalidParameter {
                    name: "sqi_threshold",
                    value: t,
                    constraint: "must be within [-1, 1]",
                });
            }
        }
        if !(self.holdover_cap_s > 0.0 && self.holdover_cap_s <= 5.0) {
            return Err(CoreError::InvalidParameter {
                name: "holdover_cap_s",
                value: self.holdover_cap_s,
                constraint: "must be within (0, 5] seconds",
            });
        }
        if let Some(z0) = self.hemo_z0_ohm {
            if !(z0 > 0.0 && z0.is_finite()) {
                return Err(CoreError::InvalidParameter {
                    name: "hemo_z0_ohm",
                    value: z0,
                    constraint: "must be positive and finite",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        assert!(PipelineConfig::paper_default(250.0).validate().is_ok());
    }

    #[test]
    fn builders_replace_fields() {
        let cfg = PipelineConfig::paper_default(250.0)
            .with_min_beats(7)
            .with_outlier_rejection(false)
            .with_hemo_z0(28.0)
            .with_x_search(XSearch::RtWindow { rt_s: 0.3 })
            .with_delineation(DelineationStrategy::Classic);
        assert_eq!(cfg.min_beats, 7);
        assert!(!cfg.reject_outliers);
        assert_eq!(cfg.hemo_z0_ohm, Some(28.0));
        assert!(matches!(cfg.x_search, XSearch::RtWindow { .. }));
        assert_eq!(cfg.delineation, DelineationStrategy::Classic);
    }

    #[test]
    fn unusable_hemo_z0_rejected() {
        assert!(PipelineConfig::paper_default(250.0)
            .with_hemo_z0(28.0)
            .validate()
            .is_ok());
        for z0 in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            let err = PipelineConfig::paper_default(250.0)
                .with_hemo_z0(z0)
                .validate()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidParameter {
                        name: "hemo_z0_ohm",
                        ..
                    }
                ),
                "{z0}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = PipelineConfig::paper_default(250.0);
        cfg.fs = 50.0;
        assert!(cfg.validate().is_err());
        let mut cfg2 = PipelineConfig::paper_default(250.0);
        cfg2.max_rr_s = 0.1;
        assert!(cfg2.validate().is_err());
        let cfg3 = PipelineConfig::paper_default(250.0).with_min_beats(0);
        assert!(cfg3.validate().is_err());
        let cfg4 = PipelineConfig::paper_default(250.0).with_holdover_cap_s(0.0);
        assert!(cfg4.validate().is_err());
        let cfg5 = PipelineConfig::paper_default(250.0).with_holdover_cap_s(0.5);
        assert!(cfg5.validate().is_ok());
    }
}

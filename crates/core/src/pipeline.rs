//! The end-to-end device pipeline (Fig 3 of the paper).
//!
//! Raw channels in — the ECG in millivolts and the demodulated impedance
//! `Z(t)` in ohms — and per-beat hemodynamic parameters out:
//!
//! 1. condition the ECG (morphological baseline removal + zero-phase
//!    0.05–40 Hz FIR);
//! 2. detect R peaks (Pan–Tompkins);
//! 3. compute `ICG = −dZ/dt` and condition it (zero-phase 20 Hz
//!    Butterworth);
//! 4. segment the ICG between consecutive R peaks;
//! 5. detect B/C/X per beat, derive PEP and LVET;
//! 6. estimate stroke volume (Kubicek and Sramek–Bernstein), cardiac
//!    output and thoracic fluid content from `Z0` and `(dZ/dt)max`.

use std::cell::RefCell;

use cardiotouch_dsp::diff;
use cardiotouch_dsp::stats;
use cardiotouch_dsp::zero_phase::ZeroPhaseScratch;
use cardiotouch_ecg::filter::EcgConditioner;
use cardiotouch_ecg::hr::RrSeries;
use cardiotouch_ecg::pan_tompkins::PanTompkins;
use cardiotouch_icg::beat::{segment_beats, BeatWindow};
use cardiotouch_icg::filter::{IcgConditioner, IcgScratch};
use cardiotouch_icg::hemo::{
    cardiac_output_l_per_min, stroke_volume_kubicek, stroke_volume_sramek_bernstein,
    thoracic_fluid_content, BeatHemoInput,
};
use cardiotouch_icg::intervals::{IntervalStatistics, SystolicIntervals};
use cardiotouch_icg::points::{CharacteristicPoints, PointDetector};
use cardiotouch_icg::strategy::StrategyState;

use crate::config::PipelineConfig;
use crate::CoreError;

/// Everything the pipeline derives for one beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeatReport {
    /// R-peak sample index (full-record coordinates).
    pub r: usize,
    /// Detected points (full-record coordinates).
    pub b: usize,
    /// C point.
    pub c: usize,
    /// X point.
    pub x: usize,
    /// Pre-ejection period, seconds.
    pub pep_s: f64,
    /// Left-ventricular ejection time, seconds.
    pub lvet_s: f64,
    /// Instantaneous heart rate of this cycle, beats per minute.
    pub hr_bpm: f64,
    /// `(dZ/dt)max` — the C-point amplitude, Ω/s.
    pub dzdt_max: f64,
    /// Stroke volume (Kubicek), millilitres.
    pub sv_kubicek_ml: f64,
    /// Stroke volume (Sramek–Bernstein), millilitres.
    pub sv_sramek_ml: f64,
    /// Cardiac output from the Kubicek SV, litres/minute.
    pub co_l_per_min: f64,
    /// Whether the systolic intervals passed the physiological gate.
    pub physiological: bool,
}

/// Result of analysing one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    fs: f64,
    conditioned_ecg: Vec<f64>,
    conditioned_icg: Vec<f64>,
    r_peaks: Vec<usize>,
    beats: Vec<BeatReport>,
    z0_ohm: f64,
    reject_outliers: bool,
}

impl Analysis {
    /// Sampling rate, hertz.
    #[must_use]
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// The conditioned ECG channel (millivolts).
    #[must_use]
    pub fn conditioned_ecg(&self) -> &[f64] {
        &self.conditioned_ecg
    }

    /// The conditioned ICG channel (Ω/s).
    #[must_use]
    pub fn conditioned_icg(&self) -> &[f64] {
        &self.conditioned_icg
    }

    /// Detected R-peak sample indices.
    #[must_use]
    pub fn r_peaks(&self) -> &[usize] {
        &self.r_peaks
    }

    /// Per-beat reports (only beats where point detection succeeded).
    #[must_use]
    pub fn beats(&self) -> &[BeatReport] {
        &self.beats
    }

    /// Beats that pass the physiological gate (all beats when outlier
    /// rejection is disabled).
    #[must_use]
    pub fn valid_beats(&self) -> Vec<&BeatReport> {
        self.beats
            .iter()
            .filter(|b| !self.reject_outliers || b.physiological)
            .collect()
    }

    /// Mean base impedance `Z0` over the recording, ohms.
    #[must_use]
    pub fn z0_ohm(&self) -> f64 {
        self.z0_ohm
    }

    /// Mean heart rate over the detected R peaks, beats per minute.
    ///
    /// # Errors
    ///
    /// Returns a wrapped error when fewer than two R peaks were found.
    pub fn mean_hr_bpm(&self) -> Result<f64, CoreError> {
        Ok(RrSeries::from_peaks(&self.r_peaks, self.fs)?.mean_hr_bpm())
    }

    /// Aggregate PEP/LVET statistics over the valid beats.
    ///
    /// # Errors
    ///
    /// Returns a wrapped error when no valid beats exist.
    pub fn intervals(&self) -> Result<IntervalStatistics, CoreError> {
        let series: Vec<SystolicIntervals> = self
            .valid_beats()
            .iter()
            .map(|b| SystolicIntervals {
                pep_s: b.pep_s,
                lvet_s: b.lvet_s,
            })
            .collect();
        Ok(IntervalStatistics::from_series(&series)?)
    }

    /// Mean stroke volume (Kubicek) over the valid beats, millilitres.
    /// Returns `None` when no valid beats exist.
    #[must_use]
    pub fn mean_sv_kubicek_ml(&self) -> Option<f64> {
        let v = self.valid_beats();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().map(|b| b.sv_kubicek_ml).sum::<f64>() / v.len() as f64)
        }
    }

    /// Mean cardiac output over the valid beats, litres/minute. Returns
    /// `None` when no valid beats exist.
    #[must_use]
    pub fn mean_co_l_per_min(&self) -> Option<f64> {
        let v = self.valid_beats();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().map(|b| b.co_l_per_min).sum::<f64>() / v.len() as f64)
        }
    }

    /// Thoracic fluid content `1000/Z0`, kΩ⁻¹.
    ///
    /// # Errors
    ///
    /// Returns a wrapped error for a non-positive Z0.
    pub fn tfc(&self) -> Result<f64, CoreError> {
        Ok(thoracic_fluid_content(self.z0_ohm)?)
    }
}

/// Reusable work buffers for [`Pipeline::analyze_with`].
///
/// One instance amortises the derivative, negation and zero-phase
/// filtering buffers across sessions: after the first analysis at a
/// given record length the hot path performs no intermediate
/// allocations (only the conditioned channels owned by the returned
/// [`Analysis`] are freshly allocated, since they outlive the call).
#[derive(Debug, Clone, Default)]
pub struct AnalysisScratch {
    dz: Vec<f64>,
    icg_raw: Vec<f64>,
    ecg: ZeroPhaseScratch,
    icg: IcgScratch,
}

impl AnalysisScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread scratch backing the `&self` convenience entry points
    /// ([`Pipeline::analyze`]). Thread
    /// local so a `Pipeline` shared across a parallel study never
    /// contends or aliases buffers.
    static THREAD_SCRATCH: RefCell<AnalysisScratch> = RefCell::new(AnalysisScratch::new());
}

/// The assembled device pipeline.
///
/// Construction pulls all four filter designs from the process-wide
/// [`cardiotouch_dsp::design_cache`], so building one pipeline per
/// session (as the study harness does) shares coefficient sets instead
/// of re-running the designs.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    ecg_conditioner: EcgConditioner,
    icg_conditioner: IcgConditioner,
    qrs: PanTompkins,
    detector: PointDetector,
}

impl Pipeline {
    /// Assembles the pipeline from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] (via validation) or a
    /// wrapped filter-design error.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self {
            config,
            ecg_conditioner: EcgConditioner::paper_default(config.fs)?,
            icg_conditioner: IcgConditioner::paper_default(config.fs)?,
            qrs: PanTompkins::new(config.fs)?,
            detector: PointDetector::with_strategy(config.fs, config.x_search, config.delineation)?,
        })
    }

    /// The pipeline's configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Analyses one recording: `ecg` in millivolts, `z` the demodulated
    /// impedance in ohms, both at the configured sampling rate.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the channels differ;
    /// * [`CoreError::NotEnoughBeats`] when fewer than
    ///   [`PipelineConfig::min_beats`] beats could be analysed;
    /// * wrapped stage errors otherwise.
    pub fn analyze(&self, ecg: &[f64], z: &[f64]) -> Result<Analysis, CoreError> {
        THREAD_SCRATCH.with(|s| self.analyze_with(&mut s.borrow_mut(), ecg, z))
    }

    /// [`Pipeline::analyze`] with caller-provided scratch buffers, for
    /// callers that manage their own reuse (e.g. a benchmark loop). The
    /// default entry point uses a thread-local scratch and produces
    /// bitwise-identical results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pipeline::analyze`].
    pub fn analyze_with(
        &self,
        scratch: &mut AnalysisScratch,
        ecg: &[f64],
        z: &[f64],
    ) -> Result<Analysis, CoreError> {
        let _span = cardiotouch_obs::span!("core.pipeline.analyze_us");
        cardiotouch_obs::counter("core.pipeline.analyses").inc();
        if ecg.len() != z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: ecg.len(),
                z_len: z.len(),
            });
        }
        let fs = self.config.fs;

        // 1-2: ECG conditioning and R-peak detection.
        let mut conditioned_ecg = Vec::new();
        self.ecg_conditioner
            .condition_into(ecg, &mut scratch.ecg, &mut conditioned_ecg)?;
        let r_peaks = self.qrs.detect(&conditioned_ecg)?;

        // 3: ICG = −dZ/dt, conditioned at 20 Hz zero-phase.
        let z0_ohm = stats::mean(z).unwrap_or(0.0);
        diff::derivative_into(z, fs, &mut scratch.dz)?;
        scratch.icg_raw.clear();
        scratch.icg_raw.extend(scratch.dz.iter().map(|v| -v));
        let mut conditioned_icg = Vec::new();
        self.icg_conditioner.condition_into(
            &scratch.icg_raw,
            &mut scratch.icg,
            &mut conditioned_icg,
        )?;

        // 4: beat segmentation.
        if r_peaks.len() < 2 {
            return Err(CoreError::NotEnoughBeats {
                found: 0,
                required: self.config.min_beats,
            });
        }
        let windows = segment_beats(
            &r_peaks,
            conditioned_icg.len(),
            fs,
            self.config.min_rr_s,
            self.config.max_rr_s,
        )?;

        // 5: optional morphology gate — beats that do not resemble the
        // recording's own ensemble template are artifact hits and are
        // skipped before point detection.
        let windows = match self.config.sqi_threshold {
            Some(threshold) => {
                match cardiotouch_icg::quality::QualityReport::assess(&conditioned_icg, &windows) {
                    Ok(report) => report.accepted(threshold),
                    // degenerate record (e.g. all windows dropped): keep
                    // the ungated windows and let detection decide
                    Err(_) => windows,
                }
            }
            None => windows,
        };

        // 6: per-beat points, intervals and hemodynamics. The strategy
        // state starts fresh per recording and advances only on
        // successful detections, in beat order — the same trajectory the
        // streaming delineator walks, which keeps batch==stream bitwise.
        let mut beats = Vec::with_capacity(windows.len());
        let mut strategy_state = StrategyState::default();
        for w in &windows {
            if let Some(report) =
                self.analyze_beat(&conditioned_icg, w, z0_ohm, &mut strategy_state)
            {
                beats.push(report);
            }
        }
        if beats.len() < self.config.min_beats {
            return Err(CoreError::NotEnoughBeats {
                found: beats.len(),
                required: self.config.min_beats,
            });
        }

        Ok(Analysis {
            fs,
            conditioned_ecg,
            conditioned_icg,
            r_peaks,
            beats,
            z0_ohm,
            reject_outliers: self.config.reject_outliers,
        })
    }

    /// Runs point detection and parameter estimation on one beat window;
    /// `None` when detection fails (the beat is skipped, matching how the
    /// firmware drops unusable beats).
    fn analyze_beat(
        &self,
        icg: &[f64],
        w: &BeatWindow,
        z0_ohm: f64,
        strategy_state: &mut StrategyState,
    ) -> Option<BeatReport> {
        let seg = w.slice(icg);
        let pts: CharacteristicPoints = self.detector.detect_with(seg, strategy_state).ok()?;
        report_from_points(&self.config, w, &pts, seg[pts.c], z0_ohm)
    }
}

/// Derives one [`BeatReport`] from already-detected characteristic
/// points: intervals, instantaneous heart rate, and the Kubicek and
/// Sramek–Bernstein hemodynamics. Shared verbatim by the batch pipeline
/// and the incremental [`crate::stream::BeatStream`], so both execution
/// models run identical per-beat arithmetic.
pub(crate) fn report_from_points(
    config: &PipelineConfig,
    w: &BeatWindow,
    pts: &CharacteristicPoints,
    dzdt_max: f64,
    z0_ohm: f64,
) -> Option<BeatReport> {
    let si = SystolicIntervals::from_points(pts, config.fs).ok()?;
    let hr_bpm = 60.0 / w.rr_s(config.fs);
    let hemo_in = BeatHemoInput {
        z0_ohm: config.hemo_z0_ohm.unwrap_or(z0_ohm),
        dzdt_max_ohm_per_s: dzdt_max,
        lvet_s: si.lvet_s,
        hr_bpm,
    };
    let sv_k = stroke_volume_kubicek(&hemo_in, &config.hemo).ok()?;
    let sv_s = stroke_volume_sramek_bernstein(&hemo_in, &config.hemo).ok()?;
    let co = cardiac_output_l_per_min(sv_k, hr_bpm).ok()?;
    Some(BeatReport {
        r: w.r,
        b: w.r + pts.b,
        c: w.r + pts.c,
        x: w.r + pts.x,
        pep_s: si.pep_s,
        lvet_s: si.lvet_s,
        hr_bpm,
        dzdt_max,
        sv_kubicek_ml: sv_k,
        sv_sramek_ml: sv_s,
        co_l_per_min: co,
        physiological: si.is_physiological(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    fn analysis(seed: u64) -> (Analysis, PairedRecording) {
        let population = Population::reference_five();
        let rec = PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            seed,
        )
        .unwrap();
        let p = Pipeline::new(PipelineConfig::paper_default(250.0)).unwrap();
        (p.analyze(rec.device_ecg(), rec.device_z()).unwrap(), rec)
    }

    #[test]
    fn recovers_heart_rate() {
        let (a, rec) = analysis(1);
        let truth_hr = 60.0
            / (rec.truth().beats.iter().map(|b| b.rr).sum::<f64>()
                / rec.truth().beats.len() as f64);
        let hr = a.mean_hr_bpm().unwrap();
        assert!((hr - truth_hr).abs() < 2.0, "HR {hr} vs truth {truth_hr}");
    }

    #[test]
    fn recovers_z0() {
        let (a, rec) = analysis(2);
        assert!(
            (a.z0_ohm() - rec.device_z0()).abs() < 1.0,
            "Z0 {} vs truth {}",
            a.z0_ohm(),
            rec.device_z0()
        );
    }

    #[test]
    fn recovers_systolic_intervals_within_tolerance() {
        let (a, rec) = analysis(3);
        let st = a.intervals().unwrap();
        let truth_pep =
            rec.truth().beats.iter().map(|b| b.pep).sum::<f64>() / rec.truth().beats.len() as f64;
        let truth_lvet =
            rec.truth().beats.iter().map(|b| b.lvet).sum::<f64>() / rec.truth().beats.len() as f64;
        assert!(
            (st.pep_mean_s - truth_pep).abs() < 0.025,
            "PEP {} vs truth {}",
            st.pep_mean_s,
            truth_pep
        );
        assert!(
            (st.lvet_mean_s - truth_lvet).abs() < 0.030,
            "LVET {} vs truth {}",
            st.lvet_mean_s,
            truth_lvet
        );
    }

    #[test]
    fn detects_most_beats() {
        let (a, rec) = analysis(4);
        let truth_beats = rec.truth().landmarks.len();
        assert!(
            a.beats().len() as f64 > 0.8 * truth_beats as f64,
            "{} of {} beats analysed",
            a.beats().len(),
            truth_beats
        );
        assert!(
            a.valid_beats().len() as f64 > 0.7 * a.beats().len() as f64,
            "too many beats gated as non-physiological"
        );
    }

    #[test]
    fn beat_reports_are_consistent() {
        let (a, _) = analysis(5);
        for b in a.beats() {
            assert!(b.r < b.b && b.b < b.c && b.c < b.x);
            assert!(b.pep_s > 0.0 && b.lvet_s > 0.0);
            assert!(b.dzdt_max > 0.0);
            assert!(b.sv_kubicek_ml > 0.0 && b.sv_sramek_ml > 0.0);
            assert!(b.co_l_per_min > 0.0);
        }
    }

    #[test]
    fn hemodynamics_in_physiological_range() {
        // The touch channel sees an attenuated ΔZ over a much larger Z0
        // than a chest band, so absolute SV values are not calibrated —
        // but they must be positive and stable; the chest-referenced
        // versions are checked in the hemo module's own tests.
        let (a, _) = analysis(6);
        let sv = a.mean_sv_kubicek_ml().unwrap();
        let co = a.mean_co_l_per_min().unwrap();
        assert!(sv > 0.0 && co > 0.0);
        assert!(a.tfc().unwrap() > 0.0);
    }

    #[test]
    fn mismatched_channels_rejected() {
        let p = Pipeline::new(PipelineConfig::paper_default(250.0)).unwrap();
        assert!(matches!(
            p.analyze(&[0.0; 100], &[0.0; 99]),
            Err(CoreError::ChannelLengthMismatch { .. })
        ));
    }

    #[test]
    fn sqi_gate_rejects_burst_corrupted_beats() {
        use cardiotouch_physio::noise;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let population = Population::reference_five();
        let rec = PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            8,
        )
        .unwrap();
        // inject bursts corrupting a handful of beats (the template must
        // stay dominated by clean beats for the SQI to be meaningful)
        let mut z = rec.device_z().to_vec();
        let mut rng = StdRng::seed_from_u64(77);
        noise::add_bursts(&mut z, 0.15, 0.30, 0.8, 250.0, &mut rng);

        let plain = Pipeline::new(PipelineConfig::paper_default(250.0)).unwrap();
        let gated = Pipeline::new(
            PipelineConfig::paper_default(250.0)
                .with_sqi_gate(cardiotouch_icg::quality::DEFAULT_SQI_THRESHOLD),
        )
        .unwrap();
        let a_plain = plain.analyze(rec.device_ecg(), &z).unwrap();
        let a_gated = gated.analyze(rec.device_ecg(), &z).unwrap();
        // the gate must drop the corrupted beats…
        assert!(a_gated.beats().len() < a_plain.beats().len());
        assert!(a_gated.beats().len() >= 5);
        // …while the surviving aggregate stays accurate in absolute terms
        // (whether it also beats the ungated aggregate depends on which
        // beats the bursts hit in a given realization)
        let truth_lvet =
            rec.truth().beats.iter().map(|b| b.lvet).sum::<f64>() / rec.truth().beats.len() as f64;
        let err = (a_gated.intervals().unwrap().lvet_mean_s - truth_lvet).abs();
        assert!(err < 0.040, "gated LVET error {err} (truth {truth_lvet})");
    }

    #[test]
    fn flat_channels_fail_with_not_enough_beats() {
        let p = Pipeline::new(PipelineConfig::paper_default(250.0)).unwrap();
        let n = 7500;
        let err = p.analyze(&vec![0.0; n], &vec![500.0; n]).unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughBeats { .. }), "{err}");
    }
}

//! The study population.
//!
//! The paper evaluates on five male subjects. This module defines the
//! per-subject parameter bundle ([`Subject`]) and a deterministic
//! five-subject reference population ([`Population::reference_five`])
//! whose spread of tissue impedance, heart rate and contact quality is
//! chosen to span the variability visible in the paper's Tables II–IV
//! (correlation coefficients from 0.69 to 0.99).

use crate::ecg::EcgMorphology;
use crate::heart::HeartModel;
use crate::icg::IcgMorphology;
use crate::resp::RespirationModel;
use crate::tissue::{BodyPath, ColeCole, ElectrodePolarization};
use crate::PhysioError;

/// All physiological and contact parameters of one synthetic subject.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Subject {
    id: u32,
    name: String,
    thorax: ColeCole,
    arm: ColeCole,
    chest_electrode: ElectrodePolarization,
    finger_electrode: ElectrodePolarization,
    heart: HeartModel,
    ecg: EcgMorphology,
    icg: IcgMorphology,
    resp: RespirationModel,
    /// Base motion-artifact RMS at the hands, ohms (before the position
    /// multiplier).
    touch_motion_rms_ohm: f64,
    /// Motion-artifact RMS of the strapped chest electrodes, ohms.
    chest_motion_rms_ohm: f64,
    /// Instrumentation white-noise RMS, ohms.
    sensor_noise_rms_ohm: f64,
}

impl Subject {
    /// Builder-style constructor used by the reference population; exposed
    /// so downstream users can define their own cohorts.
    ///
    /// # Errors
    ///
    /// Returns [`PhysioError::InvalidParameter`] for a non-positive noise
    /// or motion level.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        name: impl Into<String>,
        thorax: ColeCole,
        arm: ColeCole,
        finger_electrode: ElectrodePolarization,
        heart: HeartModel,
        icg: IcgMorphology,
        resp: RespirationModel,
        touch_motion_rms_ohm: f64,
        sensor_noise_rms_ohm: f64,
    ) -> Result<Self, PhysioError> {
        for (pname, v) in [
            ("touch_motion_rms_ohm", touch_motion_rms_ohm),
            ("sensor_noise_rms_ohm", sensor_noise_rms_ohm),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(PhysioError::InvalidParameter {
                    name: pname,
                    value: v,
                    constraint: "must be non-negative and finite",
                });
            }
        }
        Ok(Self {
            id,
            name: name.into(),
            thorax,
            arm,
            chest_electrode: ElectrodePolarization::new(2e3, 0.75)
                .expect("catalogue parameters are valid"),
            finger_electrode,
            heart,
            ecg: EcgMorphology::default(),
            icg,
            resp,
            touch_motion_rms_ohm,
            chest_motion_rms_ohm: 0.2 * touch_motion_rms_ohm,
            sensor_noise_rms_ohm,
        })
    }

    /// Numeric subject id (1-based in the reference population).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Human-readable label, e.g. `"Subject 1"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The subject's cardiac timing model.
    #[must_use]
    pub fn heart(&self) -> &HeartModel {
        &self.heart
    }

    /// The subject's ECG morphology.
    #[must_use]
    pub fn ecg(&self) -> &EcgMorphology {
        &self.ecg
    }

    /// The subject's ICG morphology.
    #[must_use]
    pub fn icg(&self) -> &IcgMorphology {
        &self.icg
    }

    /// The subject's respiration model.
    #[must_use]
    pub fn resp(&self) -> &RespirationModel {
        &self.resp
    }

    /// Base motion RMS at the hands, ohms.
    #[must_use]
    pub fn touch_motion_rms_ohm(&self) -> f64 {
        self.touch_motion_rms_ohm
    }

    /// Motion RMS of the strapped chest electrodes, ohms.
    #[must_use]
    pub fn chest_motion_rms_ohm(&self) -> f64 {
        self.chest_motion_rms_ohm
    }

    /// Instrumentation white-noise RMS, ohms.
    #[must_use]
    pub fn sensor_noise_rms_ohm(&self) -> f64 {
        self.sensor_noise_rms_ohm
    }

    /// The body path seen by the traditional chest configuration.
    #[must_use]
    pub fn traditional_path(&self) -> BodyPath {
        BodyPath::new(vec![self.thorax], self.chest_electrode)
    }

    /// The body path seen by the touch configuration with the arm segments
    /// scaled by `arm_factor` (see
    /// [`crate::path::Position::arm_impedance_factor`]).
    ///
    /// # Panics
    ///
    /// Never panics for `arm_factor > 0`: the scaled parameters stay in
    /// the valid Cole–Cole domain.
    #[must_use]
    pub fn touch_path(&self, arm_factor: f64) -> BodyPath {
        let scaled = ColeCole::new(
            self.arm.r0() * arm_factor,
            self.arm.r_inf() * arm_factor,
            1.0 / (2.0 * std::f64::consts::PI * 40_000.0),
            0.7,
        )
        .expect("scaling preserves validity for positive factors");
        BodyPath::new(vec![scaled, self.thorax, scaled], self.finger_electrode)
    }
}

/// A cohort of subjects.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Population {
    subjects: Vec<Subject>,
}

impl Population {
    /// Wraps an arbitrary cohort.
    #[must_use]
    pub fn new(subjects: Vec<Subject>) -> Self {
        Self { subjects }
    }

    /// The five-subject reference cohort mirroring the paper's study
    /// group: resting adult men with a spread of body composition, heart
    /// rate and — crucially for Table IV — skin/contact quality (Subject 5
    /// has dry skin and a loose grip, which is what drags his Position 3
    /// correlation down to ~0.69 in the paper).
    #[must_use]
    pub fn reference_five() -> Self {
        let mk = |id: u32,
                  thorax_scale: f64,
                  arm_scale: f64,
                  finger_k: f64,
                  hr: f64,
                  dzdt: f64,
                  resp_rate: f64,
                  motion: f64,
                  noise: f64|
         -> Subject {
            let thorax = ColeCole::new(
                32.0 * thorax_scale,
                22.0 * thorax_scale,
                1.0 / (2.0 * std::f64::consts::PI * 30_000.0),
                0.65,
            )
            .expect("valid");
            let arm = ColeCole::new(
                230.0 * arm_scale,
                140.0 * arm_scale,
                1.0 / (2.0 * std::f64::consts::PI * 40_000.0),
                0.7,
            )
            .expect("valid");
            let finger = ElectrodePolarization::new(finger_k, 0.8).expect("valid");
            let heart = HeartModel {
                hr_mean_bpm: hr,
                ..HeartModel::default()
            };
            let icg = IcgMorphology {
                dzdt_max: dzdt,
                ..IcgMorphology::default()
            };
            let resp = RespirationModel {
                rate_hz: resp_rate,
                depth_ohm: 0.45,
                harmonic: 0.25,
            };
            Subject::new(
                id,
                format!("Subject {id}"),
                thorax,
                arm,
                finger,
                heart,
                icg,
                resp,
                motion,
                noise,
            )
            .expect("catalogue parameters are valid")
        };

        // id, thorax, arm, finger K, HR, dZ/dt max, resp, motion RMS, noise RMS
        Self::new(vec![
            // The sensor-noise column is the *demodulated, in-band* white
            // noise of the lock-in impedance front-end. It must stay in
            // the low-milliohm range: the pipeline differentiates Z(t), so
            // noise at frequency f is amplified by 2πf, and values above
            // ~3 mΩ would bury the coupled dZ/dt at the hands.
            mk(1, 1.00, 1.00, 4.0e4, 68.0, 1.45, 0.24, 0.040, 0.0014),
            mk(2, 0.93, 1.08, 3.5e4, 74.0, 1.30, 0.27, 0.035, 0.0012),
            mk(3, 1.06, 0.95, 3.0e4, 62.0, 1.60, 0.22, 0.022, 0.0010),
            mk(4, 0.88, 1.15, 5.0e4, 79.0, 1.15, 0.30, 0.060, 0.0017),
            mk(5, 1.12, 1.22, 6.5e4, 71.0, 1.25, 0.26, 0.080, 0.0020),
        ])
    }

    /// Borrow the cohort.
    #[must_use]
    pub fn subjects(&self) -> &[Subject] {
        &self.subjects
    }

    /// Number of subjects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// `true` when the cohort is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }
}

impl Default for Population {
    fn default() -> Self {
        Self::reference_five()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Position;

    #[test]
    fn reference_population_has_five_subjects() {
        let p = Population::reference_five();
        assert_eq!(p.len(), 5);
        for (i, s) in p.subjects().iter().enumerate() {
            assert_eq!(s.id() as usize, i + 1);
            assert_eq!(s.name(), format!("Subject {}", i + 1));
        }
    }

    #[test]
    fn touch_path_dominated_by_arms() {
        let p = Population::reference_five();
        let s = &p.subjects()[0];
        let trad = s.traditional_path().magnitude_at(50_000.0);
        let touch = s.touch_path(1.0).magnitude_at(50_000.0);
        assert!(touch > 5.0 * trad, "touch {touch} vs traditional {trad}");
    }

    #[test]
    fn arm_factor_raises_touch_impedance() {
        let p = Population::reference_five();
        let s = &p.subjects()[0];
        let z1 = s.touch_path(Position::One.arm_impedance_factor());
        let z2 = s.touch_path(Position::Two.arm_impedance_factor());
        assert!(z2.magnitude_at(50_000.0) > z1.magnitude_at(50_000.0));
    }

    #[test]
    fn subject5_is_the_noisiest() {
        let p = Population::reference_five();
        let m: Vec<f64> = p
            .subjects()
            .iter()
            .map(Subject::touch_motion_rms_ohm)
            .collect();
        let max = m.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(m[4], max);
    }

    #[test]
    fn subjects_differ_in_heart_rate() {
        let p = Population::reference_five();
        let hrs: Vec<f64> = p.subjects().iter().map(|s| s.heart().hr_mean_bpm).collect();
        let spread = hrs.iter().cloned().fold(f64::MIN, f64::max)
            - hrs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 10.0);
    }

    #[test]
    fn new_rejects_negative_levels() {
        let p = Population::reference_five();
        let s = &p.subjects()[0];
        let bad = Subject::new(
            9,
            "bad",
            s.traditional_path().segments()[0],
            s.traditional_path().segments()[0],
            ElectrodePolarization::ideal(),
            HeartModel::default(),
            IcgMorphology::default(),
            RespirationModel::default(),
            -1.0,
            0.0,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn chest_motion_smaller_than_touch_motion() {
        for s in Population::reference_five().subjects() {
            assert!(s.chest_motion_rms_ohm() < s.touch_motion_rms_ohm());
        }
    }
}

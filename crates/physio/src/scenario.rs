//! Paired recording generation — the synthetic stand-in for the paper's
//! data-collection sessions.
//!
//! The paper records every subject for 30 s in each arm position at each of
//! the four injection frequencies, plus a traditional-electrode reference.
//! [`PairedRecording::generate`] produces both channels *simultaneously*,
//! sharing the same underlying cardiac and respiratory processes (which is
//! what makes the correlation analysis of Tables II–IV meaningful) while
//! motion and instrumentation noise are independent per channel.
//!
//! The generated impedance channels are the *true* physical Z(t) at the
//! electrodes; the device front-end (AC coupling, demodulation, ADC
//! quantization) lives in `cardiotouch-device` and is applied downstream.

use crate::ecg::EcgMorphology;
use crate::heart::Beat;
use crate::icg::{BeatLandmarks, IcgMorphology};
use crate::motion;
use crate::noise;
use crate::path::Position;
use crate::subject::Subject;
use crate::PhysioError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Acquisition protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Protocol {
    /// Sampling rate of the physiological channels, hertz.
    pub fs: f64,
    /// Recording duration, seconds.
    pub duration_s: f64,
    /// Powerline interference frequency, hertz (Europe: 50 Hz).
    pub powerline_hz: f64,
    /// Powerline amplitude on the ECG channel, millivolts.
    pub powerline_mv: f64,
    /// Baseline-wander amplitude on the ECG channel, millivolts.
    pub baseline_wander_mv: f64,
    /// White-noise RMS on the ECG channel, millivolts.
    pub ecg_noise_mv: f64,
}

impl Protocol {
    /// The paper's protocol: fs = 250 Hz, 30 s recordings, 50 Hz mains.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            fs: 250.0,
            duration_s: 30.0,
            powerline_hz: 50.0,
            powerline_mv: 0.05,
            baseline_wander_mv: 0.20,
            ecg_noise_mv: 0.02,
        }
    }

    /// Number of samples in one recording.
    #[must_use]
    pub fn samples(&self) -> usize {
        (self.duration_s * self.fs).round() as usize
    }
}

impl Default for Protocol {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Ground-truth annotations carried by a recording.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Truth {
    /// Per-beat cardiac ground truth.
    pub beats: Vec<Beat>,
    /// Landmark sample indices for beats fully inside the recording.
    pub landmarks: Vec<BeatLandmarks>,
    /// Exact R-peak sample indices.
    pub r_peaks: Vec<usize>,
}

/// One simulated session: traditional-electrode and touch-device channels
/// recorded simultaneously from the same subject.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PairedRecording {
    fs: f64,
    injection_freq_hz: f64,
    position: Position,
    traditional_z: Vec<f64>,
    device_z: Vec<f64>,
    device_ecg: Vec<f64>,
    traditional_z0: f64,
    device_z0: f64,
    truth: Truth,
}

impl PairedRecording {
    /// Simulates one session of `subject` holding the device in
    /// `position`, with injection frequency `injection_freq_hz`, under
    /// `protocol`. `seed` selects the random realisation; the same
    /// arguments always produce the same recording.
    ///
    /// # Errors
    ///
    /// Returns [`PhysioError::InvalidParameter`] for a non-positive or
    /// non-finite injection frequency or sampling rate, or a non-finite
    /// duration, and propagates parameter errors from the underlying
    /// physiological models (heart rate out of range, duration too
    /// short, invalid artifact bands).
    pub fn generate(
        subject: &Subject,
        position: Position,
        injection_freq_hz: f64,
        protocol: &Protocol,
        seed: u64,
    ) -> Result<Self, PhysioError> {
        if !(injection_freq_hz > 0.0 && injection_freq_hz.is_finite()) {
            return Err(PhysioError::InvalidParameter {
                name: "injection_freq_hz",
                value: injection_freq_hz,
                constraint: "must be positive and finite",
            });
        }
        if !(protocol.fs > 0.0 && protocol.fs.is_finite()) {
            return Err(PhysioError::InvalidParameter {
                name: "fs",
                value: protocol.fs,
                constraint: "must be positive and finite",
            });
        }
        // A non-finite duration would size every channel from a
        // saturated or zero cast of `duration_s * fs`.
        if !protocol.duration_s.is_finite() {
            return Err(PhysioError::InvalidParameter {
                name: "duration_s",
                value: protocol.duration_s,
                constraint: "must be finite",
            });
        }
        let n = protocol.samples();
        let fs = protocol.fs;

        // Derive disjoint RNG streams so e.g. changing the motion model
        // does not perturb the beat schedule.
        let mix = |salt: u64| -> StdRng {
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(subject.id()) << 32)
                .wrapping_add((position.index() as u64) << 16)
                .wrapping_add(injection_freq_hz as u64)
                .wrapping_add(salt);
            StdRng::seed_from_u64(s)
        };

        // --- shared physiology -----------------------------------------
        let beats = subject.heart().schedule(protocol.duration_s, &mut mix(1))?;
        let icg_clean = subject.icg().render_dzdt(&beats, n, fs);
        let delta_z_cardiac = IcgMorphology::delta_z(&icg_clean, fs);
        let resp_thorax = subject.resp().render(n, fs, &mut mix(2))?;

        // --- traditional channel ----------------------------------------
        let traditional_z0 = subject.traditional_path().magnitude_at(injection_freq_hz);
        let chest_motion =
            motion::render_hold_still(n, fs, subject.chest_motion_rms_ohm(), &mut mix(3))?;
        let chest_noise = noise::white(n, subject.sensor_noise_rms_ohm(), &mut mix(4));
        let traditional_z: Vec<f64> = (0..n)
            .map(|i| {
                traditional_z0
                    + delta_z_cardiac[i]
                    + resp_thorax[i]
                    + chest_motion[i]
                    + chest_noise[i]
            })
            .collect();

        // --- touch channel ----------------------------------------------
        let device_z0 = subject
            .touch_path(position.arm_impedance_factor())
            .magnitude_at(injection_freq_hz);
        let coupling = position.cardiac_coupling();
        let resp_coupling = position.respiration_coupling();
        let touch_motion_rms = subject.touch_motion_rms_ohm() * position.motion_factor();
        let mut touch_motion = motion::render_hold_still(n, fs, touch_motion_rms, &mut mix(5))?;
        // occasional grip-pressure bursts, heavier in the free-hanging
        // positions
        noise::add_bursts(
            &mut touch_motion,
            0.05 * position.motion_factor(),
            0.3,
            3.0 * touch_motion_rms,
            fs,
            &mut mix(6),
        );
        let touch_noise = noise::white(n, 1.5 * subject.sensor_noise_rms_ohm(), &mut mix(7));
        let device_z: Vec<f64> = (0..n)
            .map(|i| {
                device_z0
                    + coupling * delta_z_cardiac[i]
                    + resp_coupling * resp_thorax[i]
                    + touch_motion[i]
                    + touch_noise[i]
            })
            .collect();

        // --- device ECG channel -----------------------------------------
        let mut device_ecg = subject.ecg().render(&beats, n, fs);
        let wander_scale = if subject.resp().depth_ohm > 0.0 {
            protocol.baseline_wander_mv / subject.resp().depth_ohm
        } else {
            0.0
        };
        let mains = noise::powerline(
            n,
            protocol.powerline_hz,
            protocol.powerline_mv,
            fs,
            &mut mix(8),
        );
        let ecg_noise = noise::white(n, protocol.ecg_noise_mv, &mut mix(9));
        for i in 0..n {
            device_ecg[i] += wander_scale * resp_thorax[i] + mains[i] + ecg_noise[i];
        }

        let landmarks = subject.icg().landmarks(&beats, n, fs);
        let r_peaks = EcgMorphology::r_peak_indices(&beats, n, fs);

        Ok(Self {
            fs,
            injection_freq_hz,
            position,
            traditional_z,
            device_z,
            device_ecg,
            traditional_z0,
            device_z0,
            truth: Truth {
                beats,
                landmarks,
                r_peaks,
            },
        })
    }

    /// Sampling rate, hertz.
    #[must_use]
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Injection frequency of this session, hertz.
    #[must_use]
    pub fn injection_freq_hz(&self) -> f64 {
        self.injection_freq_hz
    }

    /// Arm position of this session.
    #[must_use]
    pub fn position(&self) -> Position {
        self.position
    }

    /// The impedance channel seen by the traditional chest electrodes,
    /// ohms.
    #[must_use]
    pub fn traditional_z(&self) -> &[f64] {
        &self.traditional_z
    }

    /// The impedance channel seen by the touch device, ohms.
    #[must_use]
    pub fn device_z(&self) -> &[f64] {
        &self.device_z
    }

    /// The ECG channel acquired by the touch device, millivolts.
    #[must_use]
    pub fn device_ecg(&self) -> &[f64] {
        &self.device_ecg
    }

    /// True mean bioimpedance of the traditional path at this frequency,
    /// ohms.
    #[must_use]
    pub fn traditional_z0(&self) -> f64 {
        self.traditional_z0
    }

    /// True mean bioimpedance of the touch path at this frequency, ohms.
    #[must_use]
    pub fn device_z0(&self) -> f64 {
        self.device_z0
    }

    /// Ground-truth annotations.
    #[must_use]
    pub fn truth(&self) -> &Truth {
        &self.truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::Population;
    use cardiotouch_dsp::stats;

    fn subject() -> Subject {
        Population::reference_five().subjects()[0].clone()
    }

    #[test]
    fn channels_have_protocol_length() {
        let p = Protocol::paper_default();
        let r = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 1).unwrap();
        assert_eq!(r.traditional_z().len(), p.samples());
        assert_eq!(r.device_z().len(), p.samples());
        assert_eq!(r.device_ecg().len(), p.samples());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Protocol::paper_default();
        let a = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 42).unwrap();
        let b = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 42).unwrap();
        assert_eq!(a, b);
        let c = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 43).unwrap();
        assert_ne!(a.device_z()[..10], c.device_z()[..10]);
    }

    #[test]
    fn mean_levels_near_z0() {
        let p = Protocol::paper_default();
        let r = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 2).unwrap();
        let mean_trad = stats::mean(r.traditional_z()).unwrap();
        let mean_dev = stats::mean(r.device_z()).unwrap();
        assert!((mean_trad - r.traditional_z0()).abs() < 0.5);
        assert!((mean_dev - r.device_z0()).abs() < 1.0);
        assert!(r.device_z0() > 5.0 * r.traditional_z0());
    }

    #[test]
    fn channels_correlate_strongly_in_position_one() {
        let p = Protocol::paper_default();
        let r = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 3).unwrap();
        let r_coef = stats::pearson(r.traditional_z(), r.device_z()).unwrap();
        assert!(r_coef > 0.8, "correlation {r_coef}");
    }

    #[test]
    fn position_three_correlates_worse_than_one() {
        let p = Protocol::paper_default();
        // average over several seeds to avoid single-draw luck
        let avg = |pos: Position| -> f64 {
            (0..4)
                .map(|s| {
                    let r =
                        PairedRecording::generate(&subject(), pos, 50_000.0, &p, 100 + s).unwrap();
                    stats::pearson(r.traditional_z(), r.device_z()).unwrap()
                })
                .sum::<f64>()
                / 4.0
        };
        let r1 = avg(Position::One);
        let r3 = avg(Position::Three);
        assert!(r1 > r3, "pos1 {r1} vs pos3 {r3}");
    }

    #[test]
    fn truth_annotations_consistent() {
        let p = Protocol::paper_default();
        let r = PairedRecording::generate(&subject(), Position::Two, 10_000.0, &p, 4).unwrap();
        let t = r.truth();
        assert!(!t.beats.is_empty());
        assert!(!t.landmarks.is_empty());
        assert_eq!(t.r_peaks.len(), t.beats.len());
        for lm in &t.landmarks {
            assert!(lm.r < lm.b && lm.b < lm.c && lm.c < lm.x);
            assert!(lm.x < p.samples());
        }
    }

    #[test]
    fn rejects_bad_injection_frequency() {
        let p = Protocol::paper_default();
        assert!(PairedRecording::generate(&subject(), Position::One, 0.0, &p, 1).is_err());
        assert!(PairedRecording::generate(&subject(), Position::One, f64::NAN, &p, 1).is_err());
    }

    #[test]
    fn rejects_non_finite_duration_and_rate() {
        for duration_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = Protocol {
                duration_s,
                ..Protocol::paper_default()
            };
            let err =
                PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    PhysioError::InvalidParameter {
                        name: "duration_s",
                        ..
                    }
                ),
                "{duration_s}: {err:?}"
            );
        }
        for fs in [0.0, f64::NAN, f64::INFINITY] {
            let p = Protocol {
                fs,
                ..Protocol::paper_default()
            };
            assert!(PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 1).is_err());
        }
    }

    #[test]
    fn ecg_contains_mains_interference_before_filtering() {
        let p = Protocol::paper_default();
        let r = PairedRecording::generate(&subject(), Position::One, 50_000.0, &p, 5).unwrap();
        let b50 = cardiotouch_dsp::spectrum::goertzel(&r.device_ecg()[..2048], 50.0, p.fs)
            .unwrap()
            .magnitude();
        let b45 = cardiotouch_dsp::spectrum::goertzel(&r.device_ecg()[..2048], 44.6, p.fs)
            .unwrap()
            .magnitude();
        assert!(b50 > 2.0 * b45, "50 Hz {b50} vs 44.6 Hz {b45}");
    }

    #[test]
    fn injection_frequency_changes_z0() {
        let p = Protocol::paper_default();
        let lo = PairedRecording::generate(&subject(), Position::One, 2_000.0, &p, 6).unwrap();
        let hi = PairedRecording::generate(&subject(), Position::One, 100_000.0, &p, 6).unwrap();
        // true tissue impedance decreases with frequency
        assert!(lo.device_z0() > hi.device_z0());
        assert!(lo.traditional_z0() > hi.traditional_z0());
    }
}

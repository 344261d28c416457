//! Signal-processing substrate for the `cardiotouch` workspace.
//!
//! This crate implements, from scratch, every DSP kernel the touch-based
//! ICG/ECG system of Sopic et al. (DATE 2016) relies on:
//!
//! * windowed-sinc **FIR design** ([`fir`]) — the paper's 32nd-order
//!   0.05–40 Hz ECG bandpass;
//! * **Butterworth IIR design** via bilinear transform ([`iir`]) — the
//!   paper's 20 Hz ICG low-pass;
//! * **zero-phase (forward–backward) filtering** ([`zero_phase`]) so that
//!   characteristic-point timing is not skewed by group delay;
//! * 1-D **morphological filtering** ([`morph`]) for ECG baseline-wander
//!   estimation (Sun, Chan & Krishnan, 2002);
//! * discrete **derivatives** ([`diff`]) used by the B- and X-point rules;
//! * peak/zero-crossing/sign-pattern utilities ([`peaks`]);
//! * descriptive **statistics** ([`stats`]) including the Pearson
//!   correlation used for the paper's Tables II–IV;
//! * a small **spectrum** toolbox ([`spectrum`]) used mainly to verify
//!   designed filters against their specifications;
//! * linear **resampling** helpers ([`resample`]).
//!
//! All routines operate on `&[f64]` slices and return owned `Vec<f64>`
//! results; they are `Send + Sync` and usable from multi-threaded
//! experiment runners. The hot kernels additionally expose
//! zero-allocation entry points (`filter_into`, `filter_in_place`, the
//! `filtfilt_*_into` family with [`zero_phase::ZeroPhaseScratch`]) that
//! reuse caller-owned buffers, and [`design_cache`] memoises filter
//! designs process-wide so repeated constructions share coefficients.
//!
//! # Example
//!
//! Design the paper's ICG low-pass and apply it with zero phase:
//!
//! ```
//! use cardiotouch_dsp::iir::Butterworth;
//! use cardiotouch_dsp::zero_phase::filtfilt_iir;
//!
//! # fn main() -> Result<(), cardiotouch_dsp::DspError> {
//! let fs = 250.0;
//! let lp = Butterworth::lowpass(4, 20.0, fs)?;
//! let x: Vec<f64> = (0..500).map(|n| (n as f64 * 0.1).sin()).collect();
//! let y = filtfilt_iir(&lp, &x)?;
//! assert_eq!(y.len(), x.len());
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod design_cache;
pub mod diff;
pub mod fir;
pub mod iir;
pub mod morph;
pub mod peaks;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod streaming;
pub mod window;
pub mod zero_phase;

mod error;

pub use error::DspError;

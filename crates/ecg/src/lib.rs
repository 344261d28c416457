//! ECG processing chain of the touch-based device.
//!
//! Implements the paper's Section IV-A.1 exactly:
//!
//! 1. **baseline wander removal** through morphological filtering
//!    (Sun–Chan–Krishnan), via [`filter::EcgConditioner`];
//! 2. **zero-phase 32nd-order FIR band-pass** with cut-offs 0.05 Hz and
//!    40 Hz for high-frequency noise and artifact removal;
//! 3. **Pan–Tompkins QRS detection** ([`pan_tompkins`]) to anchor the
//!    beat-to-beat ICG analysis (the ICG between two consecutive R peaks
//!    is what the B/C/X detector consumes);
//! 4. heart-rate utilities ([`hr`]) — the HR the device reports is
//!    computed from this ECG chain.
//!
//! # Example
//!
//! ```
//! use cardiotouch_ecg::filter::EcgConditioner;
//! use cardiotouch_ecg::pan_tompkins::PanTompkins;
//!
//! # fn main() -> Result<(), cardiotouch_ecg::EcgError> {
//! let fs = 250.0;
//! // a toy signal: three clean "beats" of a 1 mV spike train
//! let mut x = vec![0.0; 750];
//! for k in [100usize, 350, 600] {
//!     x[k] = 1.0;
//!     x[k - 1] = 0.4;
//!     x[k + 1] = 0.4;
//! }
//! let clean = EcgConditioner::paper_default(fs)?.condition(&x)?;
//! let peaks = PanTompkins::new(fs)?.detect(&clean)?;
//! assert_eq!(peaks.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod filter;
pub mod hr;
pub mod online;
pub mod pan_tompkins;

mod error;

pub use error::EcgError;

//! ICG processing chain: the primary algorithmic contribution of the
//! paper.
//!
//! Implements Sections IV-B and IV-C:
//!
//! * [`filter`] — the zero-phase low-pass Butterworth at 20 Hz that
//!   conditions the raw `−dZ/dt`;
//! * [`beat`] — segmentation of the ICG between consecutive ECG R peaks
//!   (the algorithm "operates on a beat-to-beat basis");
//! * [`points`] — detection of the three characteristic points:
//!   **C** (dZ/dt maximum), **B** (aortic valve opening, via the 40–80 %
//!   line-fit initial estimate refined by derivative rules) and
//!   **X** (aortic valve closure, via the post-C minimum refined by the
//!   third derivative) — with both the paper's X-search variant and the
//!   Carvalho et al. RT-window variant \[28\];
//! * [`intervals`] — the systolic time intervals LVET = t(X) − t(B) and
//!   PEP = t(B) − t(R);
//! * [`hemo`] — stroke volume by the Kubicek \[25\] and Sramek–Bernstein
//!   \[26\] formulas, cardiac output and thoracic fluid content;
//! * [`ensemble`] — R-aligned ensemble averaging, a robustness extension
//!   used by the ablation benchmarks.
//!
//! # Example
//!
//! ```
//! use cardiotouch_icg::filter::IcgConditioner;
//! use cardiotouch_icg::points::{PointDetector, XSearch};
//!
//! # fn main() -> Result<(), cardiotouch_icg::IcgError> {
//! let fs = 250.0;
//! // one synthetic beat: C wave at 120 ms, X trough at 300 ms
//! let beat: Vec<f64> = (0..200)
//!     .map(|i| {
//!         let t = i as f64 / fs;
//!         1.4 * (-(t - 0.12) * (t - 0.12) / (2.0 * 0.04 * 0.04)).exp()
//!             - 0.5 * (-(t - 0.30) * (t - 0.30) / (2.0 * 0.015 * 0.015)).exp()
//!     })
//!     .collect();
//! let lp = IcgConditioner::paper_default(fs)?;
//! let clean = lp.condition(&beat)?;
//! let detector = PointDetector::new(fs, XSearch::GlobalMinimum)?;
//! let pts = detector.detect(&clean)?;
//! assert!(pts.b < pts.c && pts.c < pts.x);
//! # Ok(())
//! # }
//! ```

pub mod beat;
pub mod ensemble;
pub mod filter;
pub mod hemo;
pub mod intervals;
pub mod online;
pub mod points;
pub mod quality;
pub mod strategy;

mod error;

pub use error::IcgError;

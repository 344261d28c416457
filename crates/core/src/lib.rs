//! `cardiotouch` — touch-based beat-to-beat ICG/ECG acquisition and
//! hemodynamic parameter estimation.
//!
//! This is the top-level crate of a full reproduction of
//! *Sopic, Murali, Rincón, Atienza: "Touch-Based System for Beat-to-Beat
//! Impedance Cardiogram Acquisition and Hemodynamic Parameters
//! Estimation"* (DATE 2016). It wires the workspace's substrate crates
//! into the two things the paper delivers:
//!
//! * the **device pipeline** ([`pipeline`], [`stream`]): raw ECG and
//!   impedance channels in → conditioned signals → R peaks → per-beat
//!   B/C/X points → `HR`, `PEP`, `LVET`, `Z0`, stroke volume and cardiac
//!   output out — either over a whole recording or streamed beat by beat
//!   as the firmware (Fig 3) would;
//! * the **evaluation protocol** ([`experiment`]): five subjects × three
//!   arm positions × four injection frequencies, producing the
//!   correlation tables (Tables II–IV), the bioimpedance-vs-frequency
//!   profiles (Figs 6–7), the displacement relative errors (Fig 8), the
//!   per-subject hemodynamics (Fig 9), and the aggregate claims of the
//!   conclusion (r ≈ 85 %, worst-case error < 20 %).
//!
//! Everything runs on the synthetic-physiology and device-model
//! substrates (`cardiotouch-physio`, `cardiotouch-device`) documented in
//! `DESIGN.md`; no hardware or human subjects are required, and every
//! experiment is deterministic given its seed.
//!
//! # Quickstart
//!
//! ```
//! use cardiotouch::config::PipelineConfig;
//! use cardiotouch::pipeline::Pipeline;
//! use cardiotouch_physio::path::Position;
//! use cardiotouch_physio::scenario::{PairedRecording, Protocol};
//! use cardiotouch_physio::subject::Population;
//!
//! # fn main() -> Result<(), cardiotouch::CoreError> {
//! // Simulate one 30-second touch measurement at 50 kHz…
//! let population = Population::reference_five();
//! let rec = PairedRecording::generate(
//!     &population.subjects()[0],
//!     Position::One,
//!     50_000.0,
//!     &Protocol::paper_default(),
//!     7,
//! )?;
//! // …and run the device pipeline over it.
//! let pipeline = Pipeline::new(PipelineConfig::paper_default(250.0))?;
//! let analysis = pipeline.analyze(rec.device_ecg(), rec.device_z())?;
//! println!(
//!     "HR {:.0} bpm, PEP {:.0} ms, LVET {:.0} ms, Z0 {:.0} Ω",
//!     analysis.mean_hr_bpm()?,
//!     analysis.intervals()?.pep_mean_s * 1e3,
//!     analysis.intervals()?.lvet_mean_s * 1e3,
//!     analysis.z0_ohm(),
//! );
//! # Ok(())
//! # }
//! ```

pub mod agreement;
pub mod compare;
pub mod config;
pub mod experiment;
pub mod fleet;
pub mod io;
pub mod pipeline;
pub mod report;
pub mod respiration;
pub mod scheduler;
pub mod snapshot;
pub mod stream;
pub mod wire;

mod error;

pub use error::CoreError;

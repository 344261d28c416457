//! Conformance subsystem: the repo's correctness gate.
//!
//! Four PRs of perf, streaming, observability and fault tooling track
//! *speed* in committed `BENCH_*.json` snapshots — this crate does the
//! same for *measurement fidelity*, which is the paper's actual claim.
//! Three layers, all driven by one pinned corpus:
//!
//! * [`corpus`] — a seeded, committed enumeration of scenarios
//!   (subjects × positions × injection frequencies × fault scenarios)
//!   rendered deterministically by the `physio` synthesizer;
//! * [`golden`] — compact golden vectors (per-beat landmarks and
//!   hemodynamic parameters from the batch pipeline) committed under
//!   `conformance/golden/`, with a regenerate-and-diff binary
//!   (`golden_vectors`) so intentional changes are one command;
//! * [`differential`] — every corpus recording run through the batch
//!   `Pipeline`, the O(hop) `BeatStream` and the windowed
//!   `ReanalysisBeatStream`, asserting beat-set equivalence and
//!   per-parameter tolerance bands (bitwise chunk-size invariance where
//!   the streaming engine promises it);
//! * [`accuracy`] — per-landmark error statistics and LVET/PEP/HR
//!   Bland–Altman agreement against ground truth, emitted as committed
//!   `ACC_<date>.json` and gated in CI by the `accuracy_check` binary;
//! * [`latency`] — the clean corpus streamed in 1 s pushes: each
//!   case's beat emission lag, and the stream's accuracy against truth
//!   held to the batch snapshot's absolute floors;
//! * [`replay`] — the corpus multiplexed onto the encoded wire: the
//!   clean wire must match the in-memory vector path bitwise, and
//!   replaying the append-only ingest log (clean *and* lossy) must
//!   reproduce the live frame-driven run bitwise;
//! * [`recovery`] — chaos gates for the durable serving path: a
//!   panicked-and-restarted fleet shard and a crash-cut
//!   checkpoint-store/segmented-log pair must both reproduce the
//!   uninterrupted golden run bitwise.
//!
//! See DESIGN.md §6e for the contract between these layers.

use std::fmt;

use cardiotouch::CoreError;
use cardiotouch_physio::faults::FaultSpecError;
use cardiotouch_physio::PhysioError;

pub mod accuracy;
pub mod corpus;
pub mod differential;
pub mod golden;
pub mod latency;
pub mod recovery;
pub mod replay;

/// Errors surfaced by the conformance layers.
#[derive(Debug)]
pub enum ConformanceError {
    /// A pipeline/stream stage failed.
    Core(CoreError),
    /// Rendering a corpus case failed.
    Physio(PhysioError),
    /// A corpus fault spec does not parse (a corpus-definition bug).
    Spec(FaultSpecError),
    /// A golden or accuracy document is malformed or out of date.
    Format(String),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::Core(e) => write!(f, "{e}"),
            ConformanceError::Physio(e) => write!(f, "{e}"),
            ConformanceError::Spec(e) => write!(f, "{e}"),
            ConformanceError::Format(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<CoreError> for ConformanceError {
    fn from(e: CoreError) -> Self {
        ConformanceError::Core(e)
    }
}

impl From<PhysioError> for ConformanceError {
    fn from(e: PhysioError) -> Self {
        ConformanceError::Physio(e)
    }
}

impl From<FaultSpecError> for ConformanceError {
    fn from(e: FaultSpecError) -> Self {
        ConformanceError::Spec(e)
    }
}

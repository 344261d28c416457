//! Shared helpers for the `cardiotouch` benchmark harness and the
//! table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` prints one of the paper's tables or figures
//! from a deterministic simulated study. `EXPERIMENTS.md` at the
//! workspace root records paper-reported versus regenerated values.

use cardiotouch::experiment::{run_position_study, StudyConfig, StudyOutcome};
use cardiotouch_physio::scenario::Protocol;
use cardiotouch_physio::subject::Population;

/// Runs the reference study used by every figure/table binary: the
/// five-subject population under the paper protocol (30 s sessions), or a
/// shortened variant when `quick` is set (12 s sessions — same shapes,
/// ~40 % of the runtime; used by CI-style runs).
///
/// # Panics
///
/// Panics when the study cannot run — the study is deterministic, so this
/// only happens on a programming error, which should abort the binary.
#[must_use]
pub fn reference_study(quick: bool) -> StudyOutcome {
    let mut config = StudyConfig::paper_default();
    if quick {
        config.protocol = Protocol {
            duration_s: 12.0,
            ..Protocol::paper_default()
        };
    }
    run_position_study(&Population::reference_five(), &config)
        .expect("the reference study is deterministic and must run")
}

/// `true` when the process was invoked with `--quick` (shorter sessions).
#[must_use]
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_runs() {
        let outcome = reference_study(true);
        assert_eq!(outcome.correlation_tables[0].rows.len(), 5);
    }
}

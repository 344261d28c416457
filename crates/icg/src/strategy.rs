//! Selectable beat-delineation strategies.
//!
//! The paper's original B/C/X rules (`points.rs`, [`Classic`]) are one
//! point in a design space the ICG literature has kept exploring.
//! [`DelineationStrategy::Hybrid`] combines two low-complexity follow-ups
//! built for exactly our streaming, beat-to-beat setting:
//!
//! * the **ReBeatICG** C/X rules (Pale et al., arXiv:2105.01525) — C as
//!   the in-beat apex, X as the bounded, sign-free post-C trough with
//!   third-derivative onset refinement;
//! * the **weighted time-window B-point** (Miljković & Šekara,
//!   arXiv:2207.04490) — B is searched only inside a physiologically
//!   expected window, candidates (third-derivative minima and
//!   first-derivative zero crossings) are scored by a triangular
//!   weight centred on the expected B location, and the expectation
//!   itself adapts beat-over-beat (an EMA of accepted R→B intervals,
//!   seeded from the line-fit intercept on the first beat).
//!
//! The pairing measured best on the conformance corpus and is therefore
//! the pipeline default. Either half on its own (stand-alone ReBeatICG,
//! weighted B with the Classic X) measured no better, so only the pair
//! is offered.
//!
//! Every strategy is implemented in both engines — batch
//! ([`crate::points::PointDetector::detect_with`]) and O(hop) online
//! ([`crate::online::BeatDelineator`]) — operating on the identical
//! settled beat segment, so batch and stream remain bitwise identical
//! per strategy. The only cross-beat state is [`StrategyState`], which
//! [`crate::online::BeatDelineator::encode`] carries (snapshot codec v2
//! and later) so live migration and crash recovery stay invisible.
//!
//! [`Classic`]: DelineationStrategy::Classic

/// Which delineation rule set the detector applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DelineationStrategy {
    /// The source paper's rules: 40–80 % line-fit B0 with derivative
    /// refinement, global-minimum X with third-derivative onset.
    Classic,
    /// ReBeatICG C/X + weighted-window B — the measured-best pairing
    /// on the conformance corpus, hence the default.
    #[default]
    Hybrid,
}

impl DelineationStrategy {
    /// Every strategy, in a stable order (matrix legs iterate this).
    pub const ALL: [Self; 2] = [Self::Classic, Self::Hybrid];

    /// Stable lowercase identifier used by CLI flags, JSON snapshots
    /// and the seed corpus.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Classic => "classic",
            Self::Hybrid => "hybrid",
        }
    }

    /// Parses the identifier produced by [`Self::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.name() == s)
    }

    /// Stable byte code. Codes 1 and 2 belonged to the retired
    /// stand-alone ReBeatICG and weighted-B strategies and are never
    /// reused.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Classic => 0,
            Self::Hybrid => 3,
        }
    }

    /// Inverse of [`Self::code`]; `None` for an unknown or retired code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.code() == code)
    }
}

impl std::fmt::Display for DelineationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cross-beat delineation state: the weighted-window B of `Hybrid`
/// adapts its expected R→B interval as an EMA over accepted beats.
/// `Classic` never reads or writes it.
///
/// The state advances only on *successful* detections, in beat order —
/// the batch pipeline and the streaming delineator therefore walk the
/// identical state trajectory over the identical segment sequence,
/// which is what keeps batch==stream bitwise per strategy. The
/// streaming delineator encodes both words with its own state
/// (snapshot codec v2 and later), so migration/checkpoint round-trips
/// are invisible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StrategyState {
    /// EMA of the accepted R→B interval, seconds. Meaningless until
    /// `rb_beats > 0`.
    pub rb_ema_s: f64,
    /// Number of accepted beats folded into the EMA.
    pub rb_beats: u64,
}

/// EMA weight of the newest accepted R→B interval (matches the online
/// SQI template's settling behaviour: ~4 beats to converge).
pub const RB_EMA_LAMBDA: f64 = 0.25;

impl StrategyState {
    /// Folds one accepted R→B interval into the prior.
    pub fn accept_rb(&mut self, rb_s: f64) {
        self.rb_ema_s = if self.rb_beats == 0 {
            rb_s
        } else {
            RB_EMA_LAMBDA * rb_s + (1.0 - RB_EMA_LAMBDA) * self.rb_ema_s
        };
        self.rb_beats += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in DelineationStrategy::ALL {
            assert_eq!(DelineationStrategy::parse(s.name()), Some(s));
            assert_eq!(DelineationStrategy::from_code(s.code()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(DelineationStrategy::parse("nope"), None);
        assert_eq!(DelineationStrategy::from_code(255), None);
        // The retired strategies' names and codes no longer resolve.
        for (name, code) in [("rebeat", 1), ("weighted-b", 2)] {
            assert_eq!(DelineationStrategy::parse(name), None);
            assert_eq!(DelineationStrategy::from_code(code), None);
        }
    }

    #[test]
    fn state_ema_converges_toward_accepted_intervals() {
        let mut st = StrategyState::default();
        st.accept_rb(0.10);
        assert_eq!(st.rb_ema_s, 0.10);
        for _ in 0..40 {
            st.accept_rb(0.14);
        }
        assert!((st.rb_ema_s - 0.14).abs() < 1e-6);
        assert_eq!(st.rb_beats, 41);
    }
}

//! The clean corpus streamed in 1 s pushes under the default strategy:
//! each case's beat emission lag pinned exactly, and the stream's
//! accuracy against truth pinned and held to the batch snapshot's
//! absolute floors. A change that moves a pin updates it and says why
//! in CHANGES.md.

use cardiotouch::config::DelineationStrategy;
use cardiotouch_conformance::accuracy::Thresholds;
use cardiotouch_conformance::corpus::clean_corpus;
use cardiotouch_conformance::latency::{run_corpus, LagStats};

/// `(case, beats emitted, lag min, p50, max)`, lags in samples at
/// 250 Hz. The hop-aligned ICG chain puts the conditioned signal
/// 526 samples behind each 250-sample push; the rest is the wait for
/// the next R and the push boundary.
const LAG_PINS: [(&str, usize, usize, usize, usize); 11] = [
    ("s1-p1-f50k", 28, 747, 864, 1004),
    ("s1-p2-f50k", 28, 758, 853, 988),
    ("s1-p3-f50k", 19, 759, 849, 979),
    ("s3-p1-f50k", 24, 785, 889, 995),
    ("s3-p2-f50k", 25, 765, 863, 1013),
    ("s3-p3-f50k", 22, 773, 906, 1021),
    ("s5-p1-f50k", 27, 742, 847, 979),
    ("s5-p2-f50k", 16, 739, 843, 952),
    ("s5-p3-f50k", 16, 746, 832, 987),
    ("s1-p1-f2k", 28, 756, 849, 995),
    ("s1-p1-f100k", 26, 757, 867, 992),
];

#[test]
fn streamed_corpus_lag_and_accuracy_are_pinned() {
    let report =
        run_corpus(&clean_corpus(), DelineationStrategy::default()).expect("corpus streams");
    assert_eq!(report.fs, 250.0);
    let got: Vec<_> = report
        .cases
        .iter()
        .map(|c| (c.id.as_str(), c.lag.beats, c.lag.min, c.lag.p50, c.lag.max))
        .collect();
    assert_eq!(got, LAG_PINS);
    assert_eq!(
        report.lag,
        LagStats {
            beats: 259,
            min: 739,
            p50: 861,
            max: 1021
        }
    );

    assert_eq!((report.matched_beats, report.truth_beats), (190, 231));
    let p95 = [
        report.b.p95_abs_ms,
        report.c.p95_abs_ms,
        report.x.p95_abs_ms,
    ];
    assert_eq!(p95, [60.0, 80.0, 88.0]);

    let floors = Thresholds::default();
    assert!(report.detection_rate >= floors.floor_detection_rate);
    assert!(report.b.p95_abs_ms <= floors.ceiling_b_p95_ms);
    assert!(report.x.p95_abs_ms <= floors.ceiling_x_p95_ms);
}

//! Stream latency and stream accuracy: the clean corpus served through
//! the O(hop) [`BeatStream`] in 1 s pushes, the way a live session
//! sees it.
//!
//! [`crate::accuracy`] scores the batch pipeline; this module scores
//! what a user of the stream actually receives, and when:
//!
//! * **Emission lag** — for every emitted beat, the samples pushed when
//!   it was emitted minus its R sample. Pushes are whole hops, so the
//!   lag is a pure function of the code and the case (no wall clock),
//!   and a conformance test pins its min/p50/max per case exactly.
//! * **Accuracy against truth** — emitted beats matched to truth
//!   landmarks by R proximity, exactly as the batch snapshot does, over
//!   truth beats from [`SCORE_START_S`] after the start to
//!   [`SCORE_END_MARGIN_S`] before the end: the stream's QRS warm-up
//!   and its emission lag would otherwise count as misses that say
//!   nothing about delineation.

use cardiotouch::config::{DelineationStrategy, PipelineConfig};
use cardiotouch::stream::BeatStream;

use crate::accuracy::{stats_ms, LandmarkErrorStats, R_MATCH_TOL_SAMPLES};
use crate::corpus::CorpusCase;
use crate::ConformanceError;

/// Truth beats whose R lies before this are not scored (the online QRS
/// detector learns its thresholds over the first 2 s).
pub const SCORE_START_S: f64 = 3.0;

/// Truth beats whose R lies within this of the record end are not
/// scored: the stream has not emitted them yet when the record ends.
pub const SCORE_END_MARGIN_S: f64 = 8.0;

/// Emission lag over a set of beats, in samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagStats {
    /// Beats emitted.
    pub beats: usize,
    /// Smallest lag.
    pub min: usize,
    /// Lower median (nearest rank).
    pub p50: usize,
    /// Largest lag.
    pub max: usize,
}

impl LagStats {
    fn from_lags(lags: &mut [usize]) -> Self {
        lags.sort_unstable();
        let n = lags.len();
        Self {
            beats: n,
            min: lags.first().copied().unwrap_or(0),
            p50: lags.get(n.saturating_sub(1) / 2).copied().unwrap_or(0),
            max: lags.last().copied().unwrap_or(0),
        }
    }
}

/// One case's emission lag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseLag {
    /// Corpus case id.
    pub id: String,
    /// Its emission lag.
    pub lag: LagStats,
}

/// The streamed corpus: lag per case and overall, and accuracy against
/// truth.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// The delineation strategy the streams ran.
    pub strategy: DelineationStrategy,
    /// Sampling rate of the corpus, hertz (lags are in its samples).
    pub fs: f64,
    /// Per-case emission lag, corpus order.
    pub cases: Vec<CaseLag>,
    /// Emission lag over every beat of every case.
    pub lag: LagStats,
    /// Truth beats inside the scoring window.
    pub truth_beats: usize,
    /// Emitted beats matched to one of them.
    pub matched_beats: usize,
    /// `matched_beats / truth_beats`.
    pub detection_rate: f64,
    /// B-point offset statistics.
    pub b: LandmarkErrorStats,
    /// C-point offset statistics.
    pub c: LandmarkErrorStats,
    /// X-point offset statistics.
    pub x: LandmarkErrorStats,
}

/// Streams every case of `corpus` in 1 s pushes under `strategy`.
///
/// # Errors
///
/// Propagates rendering and stream errors.
pub fn run_corpus(
    corpus: &[CorpusCase],
    strategy: DelineationStrategy,
) -> Result<LatencyReport, ConformanceError> {
    let mut fs = 0.0;
    let mut cases = Vec::with_capacity(corpus.len());
    let mut all_lags = Vec::new();
    let mut truth_beats = 0;
    let (mut b_off, mut c_off, mut x_off) = (Vec::new(), Vec::new(), Vec::new());
    for case in corpus {
        let rendered = case.render()?;
        fs = rendered.fs;
        let config = PipelineConfig::paper_default(fs).with_delineation(strategy);
        let mut stream = BeatStream::new(config)?;
        let push = fs as usize;
        let mut beats = Vec::new();
        let mut lags = Vec::new();
        for (k, (ecg, z)) in rendered
            .ecg
            .chunks(push)
            .zip(rendered.z.chunks(push))
            .enumerate()
        {
            let pushed = k * push + ecg.len();
            for beat in stream.push(ecg, z)? {
                lags.push(pushed - beat.r);
                beats.push(beat);
            }
        }
        all_lags.extend_from_slice(&lags);
        cases.push(CaseLag {
            id: rendered.id,
            lag: LagStats::from_lags(&mut lags),
        });

        let lo = (SCORE_START_S * fs) as usize;
        let hi = rendered
            .ecg
            .len()
            .saturating_sub((SCORE_END_MARGIN_S * fs) as usize);
        for lm in rendered
            .truth
            .landmarks
            .iter()
            .filter(|lm| (lo..hi).contains(&lm.r))
        {
            truth_beats += 1;
            let Some(beat) = beats.iter().find(|b| {
                lm.r.abs_diff(b.r) <= R_MATCH_TOL_SAMPLES
                    && (!config.reject_outliers || b.physiological)
            }) else {
                continue;
            };
            let ms = |detected: usize, truth: usize| (detected as f64 - truth as f64) / fs * 1e3;
            b_off.push(ms(beat.b, lm.b));
            c_off.push(ms(beat.c, lm.c));
            x_off.push(ms(beat.x, lm.x));
        }
    }
    let matched_beats = b_off.len();
    Ok(LatencyReport {
        strategy,
        fs,
        cases,
        lag: LagStats::from_lags(&mut all_lags),
        truth_beats,
        matched_beats,
        detection_rate: if truth_beats == 0 {
            0.0
        } else {
            matched_beats as f64 / truth_beats as f64
        },
        b: stats_ms(&b_off),
        c: stats_ms(&c_off),
        x: stats_ms(&x_off),
    })
}

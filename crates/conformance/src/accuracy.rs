//! Accuracy-regression tracker: landmark error statistics and
//! hemodynamic agreement against ground truth, as a committed,
//! diffable snapshot.
//!
//! The golden vectors pin *what the pipeline outputs*; this module
//! pins *how close that output is to the truth* the synthesizer
//! annotated. Every corpus case — fault scenarios included — is
//! analysed by the batch pipeline, detected beats are matched to truth
//! landmarks by R proximity, and the per-landmark offsets plus
//! LVET/PEP/HR Bland–Altman agreement are aggregated into one
//! `ACC_<date>.json` document (schema below). The `accuracy_check`
//! binary recomputes the report and fails CI when any statistic
//! regresses past the [`Thresholds`] margins — absolute, documented
//! tolerances, never exact-float comparison.
//!
//! On fault cases only the landmarks *inside* the guarded fault
//! windows are excluded ([`crate::differential::FAULT_GUARD_S`] on
//! each side, the same predicate the differential layer applies):
//! there the annotated truth no longer describes the corrupted
//! signal. The clean stretches of a fault recording stay in the
//! denominator — a detector that never re-acquires after a dropout is
//! a real detection-rate loss, and schema v1's silent skip of the two
//! fault cases (`"cases": 11`) hid exactly that. Schema v2 counts all
//! 13 cases and records which [`DelineationStrategy`] produced the
//! snapshot, so per-strategy reports are never compared across rule
//! sets by accident.

use cardiotouch::agreement::BlandAltman;
use cardiotouch::config::{DelineationStrategy, PipelineConfig};
use cardiotouch::pipeline::Pipeline;
use cardiotouch_obs::json::{self, Value};

use crate::corpus::CorpusCase;
use crate::differential::outside_faults;
use crate::ConformanceError;

/// Accuracy-snapshot schema version; bump on incompatible changes.
/// v2: `strategy` field, fault cases counted (guarded landmarks
/// excluded) instead of dropped wholesale.
pub const SCHEMA_VERSION: u64 = 2;

/// Detected beats match a truth landmark when their R peaks are within
/// this many samples (the idiom the detector-accuracy bench
/// established).
pub const R_MATCH_TOL_SAMPLES: usize = 3;

/// Mean/SD/p95 of one landmark's timing offset, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarkErrorStats {
    /// Mean signed offset (detected − truth), milliseconds.
    pub mean_ms: f64,
    /// Standard deviation of the signed offset, milliseconds.
    pub sd_ms: f64,
    /// 95th percentile of the *absolute* offset, milliseconds.
    pub p95_abs_ms: f64,
    /// Number of matched beats contributing.
    pub n: usize,
}

/// Bias and limits of agreement of one derived parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamAgreement {
    /// Mean difference (detected − truth).
    pub bias: f64,
    /// SD of the differences.
    pub sd: f64,
    /// Lower 95% limit of agreement.
    pub loa_lower: f64,
    /// Upper 95% limit of agreement.
    pub loa_upper: f64,
    /// Number of pairs.
    pub n: usize,
}

impl From<BlandAltman> for ParamAgreement {
    fn from(ba: BlandAltman) -> Self {
        Self {
            bias: ba.bias,
            sd: ba.sd,
            loa_lower: ba.loa_lower,
            loa_upper: ba.loa_upper,
            n: ba.n,
        }
    }
}

/// One accuracy snapshot over the clean corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// ISO date the snapshot was taken (from the caller; scripts use
    /// the build date so reruns are reproducible).
    pub date: String,
    /// The delineation strategy that produced the snapshot. Baselines
    /// only gate same-strategy reruns ([`regressions`] flags a
    /// mismatch).
    pub strategy: DelineationStrategy,
    /// Number of corpus cases analysed (all of them, fault scenarios
    /// included).
    pub cases: usize,
    /// Truth landmarks across the corpus outside the guarded fault
    /// windows (the detection denominator).
    pub truth_beats: usize,
    /// Detected beats matched to a truth landmark.
    pub matched_beats: usize,
    /// `matched_beats / truth_beats`.
    pub detection_rate: f64,
    /// B-point offset statistics.
    pub b: LandmarkErrorStats,
    /// C-point offset statistics.
    pub c: LandmarkErrorStats,
    /// X-point offset statistics.
    pub x: LandmarkErrorStats,
    /// LVET agreement, seconds.
    pub lvet: ParamAgreement,
    /// PEP agreement, seconds.
    pub pep: ParamAgreement,
    /// Heart-rate agreement, beats per minute (truth HR is the
    /// preceding truth RR; small convention bias is expected and
    /// tracked, not hidden).
    pub hr: ParamAgreement,
}

/// Regression margins for [`regressions`]. The relative margins are
/// *absolute* slack on top of the committed snapshot — wide enough to
/// absorb formatting round-trips and benign noise, tight enough that a
/// real detector change (e.g. shrinking the B-point search window)
/// trips the gate. The `floor_`/`ceiling_` fields are one-sided
/// *absolute* gates on the fresh snapshot alone, so quality cannot be
/// ratcheted down by repeatedly re-committing slightly worse
/// baselines; they are calibrated just outside the measured default
/// strategy (hybrid: detection 0.8237, B p95 60 ms, X p95 84 ms on
/// the 13-case corpus) and deliberately tighter than the pre-strategy
/// classic figures (0.7633 / 72 / 92).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Allowed growth of any landmark's |mean| offset, milliseconds.
    pub landmark_mean_margin_ms: f64,
    /// Allowed growth of any landmark's p95 |offset|, milliseconds.
    pub landmark_p95_margin_ms: f64,
    /// Allowed growth of |bias| for LVET/PEP, seconds.
    pub interval_bias_margin_s: f64,
    /// Allowed growth of |bias| for heart rate, beats per minute.
    pub hr_bias_margin_bpm: f64,
    /// Allowed drop in detection rate (fraction, e.g. 0.02 = 2 pp).
    pub detection_rate_drop: f64,
    /// One-sided absolute floor on the fresh detection rate.
    pub floor_detection_rate: f64,
    /// One-sided absolute ceiling on the fresh B p95 |offset|, ms.
    pub ceiling_b_p95_ms: f64,
    /// One-sided absolute ceiling on the fresh X p95 |offset|, ms.
    pub ceiling_x_p95_ms: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            landmark_mean_margin_ms: 1.0,
            landmark_p95_margin_ms: 1.5,
            interval_bias_margin_s: 0.002,
            hr_bias_margin_bpm: 0.5,
            detection_rate_drop: 0.02,
            floor_detection_rate: 0.80,
            ceiling_b_p95_ms: 68.0,
            ceiling_x_p95_ms: 90.0,
        }
    }
}

impl Thresholds {
    /// Margins without the absolute floor/ceiling gates, for
    /// informational runs of non-default strategies whose statistics
    /// are pinned relative to their own baseline only (classic, for
    /// one, sits below the default-strategy floors by design).
    #[must_use]
    pub fn relative_only(self) -> Self {
        Self {
            floor_detection_rate: 0.0,
            ceiling_b_p95_ms: f64::INFINITY,
            ceiling_x_p95_ms: f64::INFINITY,
            ..self
        }
    }
}

pub(crate) fn stats_ms(offsets: &[f64]) -> LandmarkErrorStats {
    let n = offsets.len();
    if n == 0 {
        return LandmarkErrorStats {
            mean_ms: 0.0,
            sd_ms: 0.0,
            p95_abs_ms: 0.0,
            n: 0,
        };
    }
    let mean = offsets.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        offsets.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let mut abs: Vec<f64> = offsets.iter().map(|v| v.abs()).collect();
    abs.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
    // Nearest-rank p95 (ceil(0.95 n) − 1): no interpolation, so the
    // statistic is exactly one observed offset.
    let rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
    LandmarkErrorStats {
        mean_ms: mean,
        sd_ms: var.sqrt(),
        p95_abs_ms: abs[rank],
        n,
    }
}

/// Computes an accuracy snapshot over `corpus` with the pipeline's
/// default [`DelineationStrategy`]. See [`compute_with`].
///
/// # Errors
///
/// Propagates rendering, pipeline and agreement errors.
pub fn compute(corpus: &[CorpusCase], date: &str) -> Result<AccuracyReport, ConformanceError> {
    compute_with(corpus, date, DelineationStrategy::default())
}

/// Computes an accuracy snapshot over every case of `corpus` under
/// `strategy`. Fault cases contribute their clean stretches only:
/// truth landmarks whose R falls inside a guarded fault window are
/// dropped from both the denominator and the error statistics (the
/// module docs explain why).
///
/// # Errors
///
/// Propagates rendering, pipeline and agreement errors.
pub fn compute_with(
    corpus: &[CorpusCase],
    date: &str,
    strategy: DelineationStrategy,
) -> Result<AccuracyReport, ConformanceError> {
    let mut truth_beats = 0usize;
    let mut cases = 0usize;
    let (mut b_off, mut c_off, mut x_off) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lvet_t, mut lvet_m) = (Vec::new(), Vec::new());
    let (mut pep_t, mut pep_m) = (Vec::new(), Vec::new());
    let (mut hr_t, mut hr_m) = (Vec::new(), Vec::new());

    for case in corpus {
        cases += 1;
        let rendered = case.render()?;
        let fs = rendered.fs;
        let faults = rendered.faults.as_ref();
        let config = PipelineConfig::paper_default(fs).with_delineation(strategy);
        let pipeline = Pipeline::new(config)?;
        let analysis = pipeline.analyze(&rendered.ecg, &rendered.z)?;
        let truth = &rendered.truth;
        let valid = analysis.valid_beats();

        for (li, lm) in truth.landmarks.iter().enumerate() {
            if !outside_faults(lm.r, faults, fs) {
                continue;
            }
            truth_beats += 1;
            let Some(beat) = valid
                .iter()
                .find(|b| lm.r.abs_diff(b.r) <= R_MATCH_TOL_SAMPLES)
            else {
                continue;
            };
            let ms = |detected: usize, truth: usize| (detected as f64 - truth as f64) / fs * 1e3;
            b_off.push(ms(beat.b, lm.b));
            c_off.push(ms(beat.c, lm.c));
            x_off.push(ms(beat.x, lm.x));
            lvet_t.push((lm.x - lm.b) as f64 / fs);
            lvet_m.push(beat.lvet_s);
            pep_t.push((lm.b - lm.r) as f64 / fs);
            pep_m.push(beat.pep_s);
            if li > 0 {
                let rr = (lm.r - truth.landmarks[li - 1].r) as f64 / fs;
                hr_t.push(60.0 / rr);
                hr_m.push(beat.hr_bpm);
            }
        }
    }

    let matched_beats = b_off.len();
    let detection_rate = if truth_beats == 0 {
        0.0
    } else {
        matched_beats as f64 / truth_beats as f64
    };
    Ok(AccuracyReport {
        date: date.to_owned(),
        strategy,
        cases,
        truth_beats,
        matched_beats,
        detection_rate,
        b: stats_ms(&b_off),
        c: stats_ms(&c_off),
        x: stats_ms(&x_off),
        lvet: BlandAltman::from_pairs(&lvet_m, &lvet_t)?.into(),
        pep: BlandAltman::from_pairs(&pep_m, &pep_t)?.into(),
        hr: BlandAltman::from_pairs(&hr_m, &hr_t)?.into(),
    })
}

fn fmt6(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

impl AccuracyReport {
    /// Serializes to the committed `ACC_<date>.json` format. Floats
    /// are written at six decimals (sub-microsecond for the interval
    /// statistics), far below every regression margin.
    #[must_use]
    pub fn to_json(&self) -> String {
        let stats = |s: &LandmarkErrorStats| {
            format!(
                "{{\"mean_ms\": {}, \"sd_ms\": {}, \"p95_abs_ms\": {}, \"n\": {}}}",
                fmt6(s.mean_ms),
                fmt6(s.sd_ms),
                fmt6(s.p95_abs_ms),
                s.n
            )
        };
        let agree = |a: &ParamAgreement| {
            format!(
                "{{\"bias\": {}, \"sd\": {}, \"loa_lower\": {}, \"loa_upper\": {}, \"n\": {}}}",
                fmt6(a.bias),
                fmt6(a.sd),
                fmt6(a.loa_lower),
                fmt6(a.loa_upper),
                a.n
            )
        };
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"date\": \"{}\",\n  \
             \"strategy\": \"{}\",\n  \
             \"cases\": {},\n  \"truth_beats\": {},\n  \"matched_beats\": {},\n  \
             \"detection_rate\": {},\n  \"landmarks\": {{\n    \"b\": {},\n    \
             \"c\": {},\n    \"x\": {}\n  }},\n  \"agreement\": {{\n    \
             \"lvet_s\": {},\n    \"pep_s\": {},\n    \"hr_bpm\": {}\n  }}\n}}\n",
            json::escape(&self.date),
            self.strategy.name(),
            self.cases,
            self.truth_beats,
            self.matched_beats,
            fmt6(self.detection_rate),
            stats(&self.b),
            stats(&self.c),
            stats(&self.x),
            agree(&self.lvet),
            agree(&self.pep),
            agree(&self.hr),
        )
    }

    /// Parses a committed `ACC_<date>.json` document.
    ///
    /// # Errors
    ///
    /// [`ConformanceError::Format`] on malformed JSON, a missing field
    /// or an unsupported schema version.
    pub fn from_json(text: &str) -> Result<Self, ConformanceError> {
        let doc = json::parse(text).map_err(|e| ConformanceError::Format(format!("{e}")))?;
        let missing = |key: &str| ConformanceError::Format(format!("ACC missing `{key}`"));
        let num = |v: &Value, key: &str| -> Result<f64, ConformanceError> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| missing(key))
        };
        let version = num(&doc, "schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(ConformanceError::Format(format!(
                "ACC schema_version {version} (supported: {SCHEMA_VERSION})"
            )));
        }
        let stats = |v: &Value, key: &str| -> Result<LandmarkErrorStats, ConformanceError> {
            let s = v.get(key).ok_or_else(|| missing(key))?;
            Ok(LandmarkErrorStats {
                mean_ms: num(s, "mean_ms")?,
                sd_ms: num(s, "sd_ms")?,
                p95_abs_ms: num(s, "p95_abs_ms")?,
                n: num(s, "n")? as usize,
            })
        };
        let agree = |v: &Value, key: &str| -> Result<ParamAgreement, ConformanceError> {
            let s = v.get(key).ok_or_else(|| missing(key))?;
            Ok(ParamAgreement {
                bias: num(s, "bias")?,
                sd: num(s, "sd")?,
                loa_lower: num(s, "loa_lower")?,
                loa_upper: num(s, "loa_upper")?,
                n: num(s, "n")? as usize,
            })
        };
        let landmarks = doc.get("landmarks").ok_or_else(|| missing("landmarks"))?;
        let agreement = doc.get("agreement").ok_or_else(|| missing("agreement"))?;
        let strategy_name = doc
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or_else(|| missing("strategy"))?;
        let strategy = DelineationStrategy::parse(strategy_name).ok_or_else(|| {
            ConformanceError::Format(format!("ACC unknown strategy `{strategy_name}`"))
        })?;
        Ok(Self {
            date: doc
                .get("date")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("date"))?
                .to_owned(),
            strategy,
            cases: num(&doc, "cases")? as usize,
            truth_beats: num(&doc, "truth_beats")? as usize,
            matched_beats: num(&doc, "matched_beats")? as usize,
            detection_rate: num(&doc, "detection_rate")?,
            b: stats(landmarks, "b")?,
            c: stats(landmarks, "c")?,
            x: stats(landmarks, "x")?,
            lvet: agree(agreement, "lvet_s")?,
            pep: agree(agreement, "pep_s")?,
            hr: agree(agreement, "hr_bpm")?,
        })
    }
}

/// Compares a fresh snapshot against the committed baseline, returning
/// one line per regression past the margins (empty means the gate
/// passes). Improvements never fail the gate.
#[must_use]
pub fn regressions(
    committed: &AccuracyReport,
    current: &AccuracyReport,
    thr: &Thresholds,
) -> Vec<String> {
    let mut out = Vec::new();
    if current.strategy != committed.strategy {
        out.push(format!(
            "strategy mismatch: baseline is `{}`, current is `{}` — \
             cross-strategy comparisons are meaningless",
            committed.strategy, current.strategy
        ));
    }
    if current.detection_rate < committed.detection_rate - thr.detection_rate_drop {
        out.push(format!(
            "detection_rate {:.4} -> {:.4} (allowed drop {})",
            committed.detection_rate, current.detection_rate, thr.detection_rate_drop
        ));
    }
    for (name, old, new) in [
        ("b", &committed.b, &current.b),
        ("c", &committed.c, &current.c),
        ("x", &committed.x, &current.x),
    ] {
        if new.mean_ms.abs() > old.mean_ms.abs() + thr.landmark_mean_margin_ms {
            out.push(format!(
                "landmark {name} |mean| {:.3} -> {:.3} ms (margin {} ms)",
                old.mean_ms, new.mean_ms, thr.landmark_mean_margin_ms
            ));
        }
        if new.p95_abs_ms > old.p95_abs_ms + thr.landmark_p95_margin_ms {
            out.push(format!(
                "landmark {name} p95 {:.3} -> {:.3} ms (margin {} ms)",
                old.p95_abs_ms, new.p95_abs_ms, thr.landmark_p95_margin_ms
            ));
        }
    }
    for (name, old, new, margin) in [
        (
            "lvet_s",
            &committed.lvet,
            &current.lvet,
            thr.interval_bias_margin_s,
        ),
        (
            "pep_s",
            &committed.pep,
            &current.pep,
            thr.interval_bias_margin_s,
        ),
        ("hr_bpm", &committed.hr, &current.hr, thr.hr_bias_margin_bpm),
    ] {
        if new.bias.abs() > old.bias.abs() + margin {
            out.push(format!(
                "{name} |bias| {:.6} -> {:.6} (margin {margin})",
                old.bias, new.bias
            ));
        }
    }
    // One-sided absolute gates on the fresh snapshot — independent of
    // the committed baseline, so the bar cannot drift downward.
    if current.detection_rate < thr.floor_detection_rate {
        out.push(format!(
            "detection_rate {:.4} below the absolute floor {:.4}",
            current.detection_rate, thr.floor_detection_rate
        ));
    }
    if current.b.p95_abs_ms > thr.ceiling_b_p95_ms {
        out.push(format!(
            "landmark b p95 {:.3} ms above the absolute ceiling {:.1} ms",
            current.b.p95_abs_ms, thr.ceiling_b_p95_ms
        ));
    }
    if current.x.p95_abs_ms > thr.ceiling_x_p95_ms {
        out.push(format!(
            "landmark x p95 {:.3} ms above the absolute ceiling {:.1} ms",
            current.x.p95_abs_ms, thr.ceiling_x_p95_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{clean_corpus, golden_corpus};

    #[test]
    fn stats_handle_empty_single_and_small_sets() {
        let empty = stats_ms(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean_ms, 0.0);
        let single = stats_ms(&[4.0]);
        assert_eq!(single.n, 1);
        assert!((single.mean_ms - 4.0).abs() < 1e-12);
        assert_eq!(single.sd_ms, 0.0);
        assert!((single.p95_abs_ms - 4.0).abs() < 1e-12);
        // 20 offsets 1..=20: nearest-rank p95 is the 19th value.
        let offs: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = stats_ms(&offs);
        assert!((s.p95_abs_ms - 19.0).abs() < 1e-12);
    }

    #[test]
    fn regressions_are_margin_gated_and_one_sided() {
        let corpus: Vec<_> = clean_corpus().into_iter().take(2).collect();
        let base = compute(&corpus, "2026-01-01").unwrap();
        assert!(base.matched_beats > 0);
        assert!(base.detection_rate > 0.5, "rate {}", base.detection_rate);
        // the relative margins alone: a 2-case fixture need not clear
        // the full-corpus absolute floors
        let thr = Thresholds::default().relative_only();
        // identical snapshot: no regressions
        assert!(regressions(&base, &base, &thr).is_empty());
        // degrade past every margin
        let mut worse = base.clone();
        worse.detection_rate -= thr.detection_rate_drop + 0.01;
        worse.b.p95_abs_ms += thr.landmark_p95_margin_ms + 0.1;
        worse.lvet.bias = base.lvet.bias.abs() + thr.interval_bias_margin_s + 1e-4;
        let regs = regressions(&base, &worse, &thr);
        assert_eq!(regs.len(), 3, "{regs:?}");
        // improvements never fail the gate
        let mut better = base.clone();
        better.detection_rate = 1.0;
        better.b.p95_abs_ms = 0.0;
        assert!(regressions(&base, &better, &thr).is_empty());
        // cross-strategy comparison is flagged regardless of numbers
        let mut other = base.clone();
        other.strategy = DelineationStrategy::Classic;
        let regs = regressions(&base, &other, &thr);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("strategy mismatch"), "{regs:?}");
    }

    #[test]
    fn absolute_gates_are_one_sided_and_baseline_independent() {
        let thr = Thresholds::default();
        let corpus: Vec<_> = clean_corpus().into_iter().take(2).collect();
        let base = compute(&corpus, "2026-01-01").unwrap();
        // force a snapshot that satisfies every absolute gate
        let mut good = base.clone();
        good.detection_rate = thr.floor_detection_rate + 0.05;
        good.b.p95_abs_ms = thr.ceiling_b_p95_ms - 1.0;
        good.x.p95_abs_ms = thr.ceiling_x_p95_ms - 1.0;
        assert!(regressions(&good, &good, &thr).is_empty());
        // each gate trips alone, even with a baseline that is *worse*
        // (the baseline cannot ratchet the bar down)
        let mut bad_det = good.clone();
        bad_det.detection_rate = thr.floor_detection_rate - 0.01;
        let regs = regressions(&bad_det, &bad_det, &thr);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("absolute floor"), "{regs:?}");
        let mut bad_b = good.clone();
        bad_b.b.p95_abs_ms = thr.ceiling_b_p95_ms + 0.5;
        let regs = regressions(&bad_b, &bad_b, &thr);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("b p95"), "{regs:?}");
        let mut bad_x = good.clone();
        bad_x.x.p95_abs_ms = thr.ceiling_x_p95_ms + 0.5;
        let regs = regressions(&bad_x, &bad_x, &thr);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("x p95"), "{regs:?}");
        // relative_only() disables exactly the absolute gates
        assert!(regressions(&bad_det, &bad_det, &thr.relative_only()).is_empty());
        assert!(regressions(&bad_b, &bad_b, &thr.relative_only()).is_empty());
        // the measured default strategy clears the gates with margin:
        // the floors are calibrated against ACC_2026-08-09.json
        assert!(thr.floor_detection_rate < 0.8237);
        assert!(thr.ceiling_b_p95_ms > 60.0);
        assert!(thr.ceiling_x_p95_ms > 84.0);
    }

    #[test]
    fn acc_json_round_trips_within_write_precision() {
        let corpus: Vec<_> = clean_corpus().into_iter().take(1).collect();
        let report = compute(&corpus, "2026-08-06").unwrap();
        let parsed = AccuracyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.date, report.date);
        assert_eq!(parsed.strategy, DelineationStrategy::default());
        assert_eq!(parsed.matched_beats, report.matched_beats);
        // six written decimals: round-trip error below 1e-6 everywhere
        assert!((parsed.lvet.bias - report.lvet.bias).abs() < 1e-6);
        assert!((parsed.b.p95_abs_ms - report.b.p95_abs_ms).abs() < 1e-6);
        assert!(AccuracyReport::from_json("{}").is_err());
        // v1 documents (no strategy field, old schema number) must not
        // parse as v2: both the version gate and the field are checked.
        let v1 = report
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 1");
        assert!(AccuracyReport::from_json(&v1).is_err());
    }

    /// Hand-computed audit of the fault-guard denominator (the schema
    /// v1 bug dropped the two fault cases wholesale, silently reporting
    /// `cases: 11` and a denominator blind to dropout recovery).
    ///
    /// The corpus `loss` case injects `loss=0@10s+1200ms` at 250 Hz:
    /// event samples [2500, 2800), padded by FAULT_GUARD_S = 4 s
    /// (1000 samples) to the exclusion window [1500, 3800). Truth
    /// landmarks with R inside that window — and only those — leave the
    /// denominator.
    #[test]
    fn fault_case_denominator_counts_only_guarded_landmarks_out() {
        let corpus = golden_corpus();
        let loss = corpus
            .iter()
            .find(|c| c.id() == "s1-p1-f50k-loss")
            .unwrap()
            .clone();
        let rendered = loss.render().unwrap();
        assert!((rendered.fs - 250.0).abs() < 1e-9);
        let expected: usize = rendered
            .truth
            .landmarks
            .iter()
            .filter(|lm| lm.r < 1500 || lm.r >= 3800)
            .count();
        let inside = rendered.truth.landmarks.len() - expected;
        assert!(inside > 0, "the loss window must cover some truth beats");
        let report = compute(std::slice::from_ref(&loss), "2026-08-09").unwrap();
        assert_eq!(report.cases, 1, "fault cases are analysed, not skipped");
        assert_eq!(report.truth_beats, expected);
        assert!(report.matched_beats <= report.truth_beats);
        // the detector re-acquires after the dropout: the clean
        // stretches must still be substantially detected
        assert!(
            report.detection_rate > 0.5,
            "rate {} over the clean stretches",
            report.detection_rate
        );
    }

    /// The full per-strategy matrix over the pinned 13-case corpus:
    /// every strategy must produce a sane report, and the default must
    /// dominate `classic` on detection rate and B-point p95 (the claim
    /// the committed `ACC_*.json` baseline encodes).
    #[test]
    fn strategy_matrix_default_dominates_classic() {
        let corpus = golden_corpus();
        let mut reports = Vec::new();
        for strategy in DelineationStrategy::ALL {
            let r = compute_with(&corpus, "2026-08-09", strategy).unwrap();
            assert_eq!(r.cases, 13, "{strategy}: all cases analysed");
            assert!(r.truth_beats > 0 && r.matched_beats > 0, "{strategy}");
            assert_eq!(r.strategy, strategy);
            println!(
                "{strategy:>10}: det {:.4} ({}/{}) | B mean {:+.1} p95 {:.0} | \
                 C p95 {:.0} | X mean {:+.1} p95 {:.0} | lvet bias {:+.4} sd {:.4}",
                r.detection_rate,
                r.matched_beats,
                r.truth_beats,
                r.b.mean_ms,
                r.b.p95_abs_ms,
                r.c.p95_abs_ms,
                r.x.mean_ms,
                r.x.p95_abs_ms,
                r.lvet.bias,
                r.lvet.sd,
            );
            reports.push(r);
        }
        let by = |s: DelineationStrategy| {
            reports
                .iter()
                .find(|r| r.strategy == s)
                .expect("matrix covers ALL")
        };
        let classic = by(DelineationStrategy::Classic);
        let default = by(DelineationStrategy::default());
        assert!(
            default.detection_rate >= classic.detection_rate,
            "default {} must not detect fewer beats than classic {}",
            default.detection_rate,
            classic.detection_rate
        );
        assert!(
            default.b.p95_abs_ms <= classic.b.p95_abs_ms,
            "default B p95 {} must not exceed classic {}",
            default.b.p95_abs_ms,
            classic.b.p95_abs_ms
        );
    }
}

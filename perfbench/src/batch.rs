//! The `batch-analyze` workload: `Pipeline::analyze` over the 13-case
//! golden corpus plus seeded 30 s grid recordings, on `nproc` worker
//! threads that pull recordings from a shared queue.

use std::error::Error;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cardiotouch::config::PipelineConfig;
use cardiotouch::pipeline::{Analysis, BeatReport, Pipeline};
use cardiotouch_conformance::corpus::golden_corpus;
use cardiotouch_conformance::golden::{self, GoldenBeat, GoldenCase};

use crate::inputs::{self, Recording, FS};
use crate::layers;
use crate::stats::{cores, median, quantile, secs, Metrics};
use crate::Outcome;

/// Seeded grid recordings analysed beside the golden corpus.
pub const GRID_RECORDINGS: usize = 47;
/// Length of every recording, seconds (the paper's protocol).
pub const RECORDING_S: f64 = 30.0;
/// Committed golden vectors, relative to the checkout root.
pub const GOLDEN_DIR: &str = "conformance/golden";

type Res<T> = Result<T, Box<dyn Error>>;

fn q3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The golden-file form of an analysis (as `golden::compute` builds it).
fn golden_case(id: &str, seed: u64, a: &Analysis) -> GoldenCase {
    let beat = |b: &BeatReport| GoldenBeat {
        r: b.r,
        b: b.b,
        c: b.c,
        x: b.x,
        pep_ms: q3(b.pep_s * 1e3),
        lvet_ms: q3(b.lvet_s * 1e3),
        hr_bpm: q3(b.hr_bpm),
        sv_ml: q3(b.sv_kubicek_ml),
        physiological: b.physiological,
    };
    GoldenCase {
        id: id.to_owned(),
        seed,
        fs: a.fs(),
        z0_ohm: q3(a.z0_ohm()),
        beats: a.beats().iter().map(beat).collect(),
    }
}

/// What every recording must produce: a committed golden vector, or
/// the beats of an analysis made before timing.
enum Expect {
    Golden { seed: u64, case: GoldenCase },
    Beats(Vec<BeatReport>),
}

fn check(rec: &Recording, expect: &Expect, got: &Result<Analysis, cardiotouch::CoreError>) -> bool {
    match (expect, got) {
        (Expect::Golden { seed, case }, Ok(a)) => {
            golden::diff(case, &golden_case(&rec.id, *seed, a)).is_empty()
        }
        (Expect::Beats(want), Ok(a)) => a.beats() == want.as_slice(),
        (_, Err(_)) => false,
    }
}

/// One timed pass: set-up, then every recording analysed once.
struct BatchPass {
    setup_s: f64,
    wall_s: f64,
    /// Completion time of each recording's analysis since the pass
    /// started, by recording index.
    done_s: Vec<f64>,
    failed: usize,
}

fn batch_pass(config: PipelineConfig, recs: &[Recording], expect: &[Expect]) -> Res<BatchPass> {
    let t = Instant::now();
    let workers = cores();
    let pipelines = (0..workers)
        .map(|_| Pipeline::new(config))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = secs(t);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_worker: Vec<Vec<(usize, f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pipelines
            .iter()
            .map(|pipeline| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(rec) = recs.get(i) else { break };
                        let got = pipeline.analyze(&rec.ecg, &rec.z);
                        done.push((i, secs(start), check(rec, &expect[i], &got)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    let wall_s = secs(start);
    let all: Vec<_> = per_worker.into_iter().flatten().collect();
    let mut done_s = vec![wall_s; recs.len()];
    for d in &all {
        done_s[d.0] = d.1;
    }
    Ok(BatchPass {
        setup_s,
        wall_s,
        done_s,
        failed: all.iter().filter(|d| !d.2).count() + recs.len() - all.len(),
    })
}

/// Runs `batch-analyze`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let config = PipelineConfig::paper_default(FS);
    let mut recs = Vec::new();
    let mut expect = Vec::new();
    for case in golden_corpus() {
        let r = case.render()?;
        let path = format!("{GOLDEN_DIR}/{}.json", r.id);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        expect.push(Expect::Golden {
            seed: case.seed,
            case: GoldenCase::from_json(&text)?,
        });
        recs.push(Recording {
            id: r.id,
            ecg: r.ecg,
            z: r.z,
            truth_r: r.truth.r_peaks,
        });
    }
    let golden = recs.len();
    let reference = Pipeline::new(config)?;
    for rec in inputs::grid(seed ^ 0xBA7C, GRID_RECORDINGS, RECORDING_S) {
        expect.push(Expect::Beats(
            reference.analyze(&rec.ecg, &rec.z)?.beats().to_vec(),
        ));
        recs.push(rec);
    }
    let signal_s: f64 = recs.iter().map(Recording::seconds).sum();

    if trace {
        let slots = (RECORDING_S as usize).min(
            recs.iter()
                .map(|r| r.ecg.len() / inputs::SLOT)
                .min()
                .unwrap_or(0),
        );
        return crate::repeat_traced(seconds, || {
            let mut out = crate::serve::traced_suite_for(config, recs.clone(), slots)?;
            layers::batch_stages(config, &recs, &mut out.metrics);
            let overhead =
                crate::serve::overhead(|| batch_pass(config, &recs, &expect).map(|p| p.wall_s))?;
            out.metrics.put("trace.overhead_frac", overhead, "fraction");
            Ok(out)
        });
    }

    // Beat lag and yield of the batch path: all recordings are queued
    // when a pass starts, and a beat is reported when its recording's
    // analysis completes.
    let mut sig_lags: Vec<Vec<f64>> = Vec::with_capacity(recs.len());
    let (mut matched, mut truth) = (0, 0);
    for (rec, e) in recs.iter().zip(&expect) {
        let beats = match e {
            Expect::Beats(b) => b.clone(),
            Expect::Golden { .. } => reference.analyze(&rec.ecg, &rec.z)?.beats().to_vec(),
        };
        sig_lags.push(
            beats
                .iter()
                .map(|b| rec.seconds() - b.r as f64 / FS)
                .collect(),
        );
        let phys: Vec<usize> = beats
            .iter()
            .filter(|b| b.physiological)
            .map(|b| b.r)
            .collect();
        let (m, t) = layers::match_beats(&phys, &rec.truth_r, rec.ecg.len());
        matched += m;
        truth += t;
    }
    let mut lags = Vec::new();

    cardiotouch_obs::set_enabled(false);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut setup, mut slots, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut analysed) = (0.0, 0usize);
    let mut pass_no = 0;
    while pass_no < 4 || wall < seconds {
        let p = batch_pass(config, &recs, &expect)?;
        attempted += recs.len() as u64;
        failed += p.failed as u64;
        if pass_no > 0 {
            setup.push(p.setup_s);
            // A batch slot is one pass: every recording submitted at once,
            // done when the last is reported (as a serving slot is every
            // session's second, done at the barrier).
            slots.push(p.wall_s);
            // Cold start: set-up, worker spawn and the golden corpus (the
            // head of the queue) reported. A single first recording would
            // be dominated by thread spawn and first-touch page faults,
            // which swing with host load far more than analysis does.
            cold.push(p.setup_s + p.done_s[..golden].iter().copied().fold(0.0, f64::max));
            for (l, done) in sig_lags.iter().zip(&p.done_s) {
                lags.extend(l.iter().map(|x| x + done));
            }
            wall += p.wall_s;
            analysed += recs.len();
        }
        pass_no += 1;
    }

    let sustained = signal_s * (analysed / recs.len()) as f64 / wall;
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup), "s");
    m.put("sustained_sessions", sustained, "sessions");
    m.put("slot_p50_ms", quantile(&mut slots, 0.5) * 1e3, "ms");
    m.put("slot_p99_ms", quantile(&mut slots, 0.99) * 1e3, "ms");
    m.put("beat_lag_p50_s", quantile(&mut lags, 0.5), "s");
    m.put("beat_lag_p99_s", quantile(&mut lags, 0.99), "s");
    m.put(
        "beat_yield",
        matched as f64 / truth.max(1) as f64,
        "fraction",
    );
    m.put("recover_ms", median(&mut cold) * 1e3, "ms");
    m.put("analyze_rec_per_s", analysed as f64 / wall, "recordings/s");
    m.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    eprintln!("batch-analyze: {pass_no} passes, {analysed} recordings timed");
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail: String::new(),
    })
}

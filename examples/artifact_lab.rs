//! Artifact laboratory: demonstrates each noise-cancellation stage of
//! Section IV-A doing its job. Builds an ECG drowned in baseline wander,
//! powerline hum and white noise, and an ICG buried under respiration and
//! motion, then shows signal quality before and after every stage — and
//! what detection accuracy each stage buys.
//!
//! ```text
//! cargo run --release --example artifact_lab
//! ```

use cardiotouch_dsp::spectrum;
use cardiotouch_ecg::filter::EcgConditioner;
use cardiotouch_ecg::pan_tompkins::PanTompkins;
use cardiotouch_icg::filter::IcgConditioner;
use cardiotouch_icg::points::{PointDetector, XSearch};
use cardiotouch_physio::ecg::EcgMorphology;
use cardiotouch_physio::heart::HeartModel;
use cardiotouch_physio::icg::IcgMorphology;
use cardiotouch_physio::noise;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 250.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let beats = HeartModel::default().schedule(30.0, &mut StdRng::seed_from_u64(5))?;
    let n = (30.0 * FS) as usize;
    let truth_r = EcgMorphology::r_peak_indices(&beats, n, FS);

    // --- ECG chain ------------------------------------------------------
    let mut ecg = EcgMorphology::default().render(&beats, n, FS);
    let mut rng = StdRng::seed_from_u64(6);
    for (i, v) in ecg.iter_mut().enumerate() {
        let t = i as f64 / FS;
        *v += 0.8 * (2.0 * std::f64::consts::PI * 0.22 * t).sin(); // wander
    }
    let mains = noise::powerline(n, 50.0, 0.15, FS, &mut rng);
    let white = noise::white(n, 0.03, &mut rng);
    for i in 0..n {
        ecg[i] += mains[i] + white[i];
    }

    let pt = PanTompkins::new(FS)?;
    let score = |signal: &[f64]| -> (usize, usize) {
        let det = pt.detect(signal).unwrap_or_default();
        let hits = truth_r
            .iter()
            .filter(|&&t| det.iter().any(|&d| d.abs_diff(t) <= 5))
            .count();
        (hits, det.len().saturating_sub(hits))
    };

    println!("ECG chain (truth: {} beats)", truth_r.len());
    let (hits, fps) = score(&ecg);
    println!("  raw + artifacts:          {hits} hits, {fps} false positives");
    let conditioned = EcgConditioner::paper_default(FS)?.condition(&ecg)?;
    let (hits, fps) = score(&conditioned);
    println!("  after full conditioning:  {hits} hits, {fps} false positives");
    let g50_before = spectrum::goertzel(&ecg[..4096], 50.0, FS)?.magnitude();
    let g50_after = spectrum::goertzel(&conditioned[..4096], 50.0, FS)?.magnitude();
    println!(
        "  50 Hz mains suppression:  {:.1} dB",
        20.0 * (g50_before / g50_after).log10()
    );

    // --- ICG chain ------------------------------------------------------
    let morph = IcgMorphology::default();
    let mut icg = morph.render_dzdt(&beats, n, FS);
    let lms = morph.landmarks(&beats, n, FS);
    // respiration-derivative baseline + high-frequency hash
    for (i, v) in icg.iter_mut().enumerate() {
        let t = i as f64 / FS;
        *v += 0.35 * (2.0 * std::f64::consts::PI * 0.25 * t).cos();
    }
    let hf = noise::white(n, 0.10, &mut rng);
    for i in 0..n {
        icg[i] += hf[i];
    }

    println!("\nICG chain ({} beats with ground-truth B/C/X)", lms.len());
    let detector = PointDetector::new(FS, XSearch::GlobalMinimum)?;
    let bcx_score = |signal: &[f64]| -> (usize, f64) {
        let mut ok = 0;
        let mut lvet_mae = 0.0;
        let mut counted = 0;
        for w in lms.windows(2) {
            let seg = &signal[w[0].r..w[1].r];
            if let Ok(p) = detector.detect(seg) {
                let b_err = (p.b + w[0].r).abs_diff(w[0].b);
                let x_err = (p.x + w[0].r).abs_diff(w[0].x);
                if b_err <= 10 && x_err <= 8 {
                    ok += 1;
                }
                let truth_lvet = (w[0].x - w[0].b) as f64 / FS;
                lvet_mae += ((p.x - p.b) as f64 / FS - truth_lvet).abs();
                counted += 1;
            }
        }
        (ok, lvet_mae / counted.max(1) as f64 * 1e3)
    };
    let (ok, mae) = bcx_score(&icg);
    println!(
        "  raw + artifacts:          {ok}/{} beats ok, LVET MAE {mae:.1} ms",
        lms.len() - 1
    );
    let lp_only = IcgConditioner::lowpass_only(FS)?.condition(&icg)?;
    let (ok, mae) = bcx_score(&lp_only);
    println!(
        "  20 Hz low-pass only:      {ok}/{} beats ok, LVET MAE {mae:.1} ms",
        lms.len() - 1
    );
    let full = IcgConditioner::paper_default(FS)?.condition(&icg)?;
    let (ok, mae) = bcx_score(&full);
    println!(
        "  + baseline high-pass:     {ok}/{} beats ok, LVET MAE {mae:.1} ms",
        lms.len() - 1
    );
    Ok(())
}

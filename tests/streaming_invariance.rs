//! Property-based tests for the incremental streaming engine: the
//! sequence of emitted beats is a function of the *signal*, never of the
//! chunking the transport happened to deliver — including degenerate
//! one-sample chunks and chunks far larger than any internal buffer —
//! and non-finite input samples can never poison the engine.

use cardiotouch::config::PipelineConfig;
use cardiotouch::pipeline::BeatReport;
use cardiotouch::stream::{BeatStream, GroupPush};
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use proptest::prelude::*;

const FS: f64 = 250.0;

fn recording(seed: u64) -> PairedRecording {
    let population = Population::reference_five();
    PairedRecording::generate(
        &population.subjects()[(seed % 5) as usize],
        Position::One,
        50_000.0,
        &Protocol {
            duration_s: 20.0,
            ..Protocol::paper_default()
        },
        seed,
    )
    .expect("valid session")
}

/// How each chunk is handed to the engine.
#[derive(Clone, Copy)]
enum Drive {
    /// One `push` per chunk.
    Push,
    /// `ingest_qualified` buffers the chunk, then an empty
    /// `push_qualified` drains every hop it completed.
    IngestThenDrain,
}

/// Streams a recording through a fresh engine in chunks whose sizes
/// cycle through `sizes`, returning every emission.
fn run_chunked(ecg: &[f64], z: &[f64], sizes: &[usize], drive: Drive) -> Vec<BeatReport> {
    let mut stream = BeatStream::new(PipelineConfig::paper_default(FS)).expect("valid config");
    let mut out = Vec::new();
    let mut at = 0;
    let mut k = 0;
    while at < ecg.len() {
        let take = sizes[k % sizes.len()].min(ecg.len() - at);
        k += 1;
        let (e, zc) = (&ecg[at..at + take], &z[at..at + take]);
        match drive {
            Drive::Push => out.extend(stream.push(e, zc).expect("push")),
            Drive::IngestThenDrain => {
                stream.ingest_qualified(e, zc).expect("ingest");
                let drained = stream.push_qualified(&[], &[]).expect("drain");
                out.extend(drained.into_iter().map(|q| q.report));
            }
        }
        at += take;
    }
    out
}

/// Streams a recording through three engines pushed together with
/// `BeatStream::push_group`, each in chunks cycling through `sizes` from
/// its own place in the cycle — so the members' hops fall in and out of
/// step and their zero-phase stages share lane kernels some hops and not
/// others — and returns each engine's emissions.
fn run_grouped(ecg: &[f64], z: &[f64], sizes: &[usize]) -> Vec<Vec<BeatReport>> {
    let config = PipelineConfig::paper_default(FS);
    let mut streams: Vec<BeatStream> = (0..3)
        .map(|_| BeatStream::new(config).expect("valid config"))
        .collect();
    let mut outs = vec![Vec::new(); 3];
    let mut at = [0; 3];
    let mut k = 0;
    while at.iter().any(|&a| a < ecg.len()) {
        let take: Vec<usize> = (0..3)
            .map(|m| sizes[(k + m) % sizes.len()].min(ecg.len() - at[m]))
            .collect();
        let mut group: Vec<GroupPush<'_>> = streams
            .iter_mut()
            .zip(outs.iter_mut())
            .enumerate()
            .map(|(m, (stream, out))| {
                let span = at[m]..at[m] + take[m];
                GroupPush::new(stream, &ecg[span.clone()], &z[span], out)
            })
            .collect();
        BeatStream::push_group(&mut group).expect("push");
        drop(group);
        for (a, t) in at.iter_mut().zip(&take) {
            *a += t;
        }
        k += 1;
    }
    outs.into_iter()
        .map(|out| out.into_iter().map(|q| q.report).collect())
        .collect()
}

/// Two emission sequences are identical in every field.
fn assert_same(a: &[BeatReport], b: &[BeatReport]) {
    assert_eq!(a.len(), b.len(), "emission counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.r, x.b, x.c, x.x), (y.r, y.b, y.c, y.x));
        assert_eq!(x.pep_s.to_bits(), y.pep_s.to_bits());
        assert_eq!(x.lvet_s.to_bits(), y.lvet_s.to_bits());
        assert_eq!(x.sv_kubicek_ml.to_bits(), y.sv_kubicek_ml.to_bits());
        assert_eq!(x.co_l_per_min.to_bits(), y.co_l_per_min.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any chunking — one-sample trickle, odd primes, or one chunk far
    /// larger than the engine's internal buffers — yields bitwise
    /// identical emissions for the same signal, whether each chunk is
    /// pushed, split into ingestion plus an empty drain, or pushed in a
    /// group of engines chunked out of step with each other.
    #[test]
    fn emissions_are_chunk_size_invariant(
        seed in 0u64..200,
        sizes in prop::collection::vec(1usize..1200, 1..4),
    ) {
        let rec = recording(seed);
        let (ecg, z) = (rec.device_ecg(), rec.device_z());
        let reference = run_chunked(ecg, z, &[250], Drive::Push);
        assert_same(&reference, &run_chunked(ecg, z, &sizes, Drive::Push));
        assert_same(&reference, &run_chunked(ecg, z, &sizes, Drive::IngestThenDrain));
        for grouped in run_grouped(ecg, z, &sizes) {
            assert_same(&reference, &grouped);
        }
    }

    /// One chunk spanning the *whole* recording (far beyond the windowed
    /// engine's old 20 s buffer) equals a sample-rate-paced feed.
    #[test]
    fn single_giant_chunk_matches_paced_feed(seed in 0u64..200) {
        let rec = recording(seed);
        let paced = run_chunked(rec.device_ecg(), rec.device_z(), &[250], Drive::Push);
        let giant = run_chunked(rec.device_ecg(), rec.device_z(), &[usize::MAX >> 1], Drive::Push);
        assert_same(&paced, &giant);
    }

    /// Non-finite and saturated samples anywhere in the stream never
    /// panic the engine, never halt emission permanently, and every
    /// emitted report stays finite and ordered.
    #[test]
    fn corrupted_samples_never_poison_the_engine(
        seed in 0u64..200,
        burst_at in 1000usize..3000,
        burst_len in 1usize..120,
        kind in 0u8..3,
    ) {
        let rec = recording(seed);
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        let bad = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => 1.0e9, // rail-saturated ADC
        };
        for i in burst_at..(burst_at + burst_len).min(ecg.len()) {
            ecg[i] = bad;
            z[i] = bad;
        }
        let beats = run_chunked(&ecg, &z, &[125], Drive::Push);
        for b in &beats {
            prop_assert!(b.r < b.b && b.b < b.c && b.c < b.x);
            prop_assert!(b.pep_s.is_finite() && b.lvet_s.is_finite());
            prop_assert!(b.hr_bpm.is_finite() && b.hr_bpm > 0.0);
            prop_assert!(b.sv_kubicek_ml.is_finite());
            prop_assert!(b.sv_sramek_ml.is_finite());
            prop_assert!(b.co_l_per_min.is_finite());
        }
    }
}

//! Oracle property for the grouped hop: [`BeatStream::push_group`] over
//! random groups of streams against every stream pushed on its own with
//! [`BeatStream::push_qualified`] — the group of one — over the same runs,
//! compared on every emitted beat and on the encoded snapshot after every
//! round.

use std::sync::OnceLock;

use cardiotouch::config::PipelineConfig;
use cardiotouch::stream::{BeatStream, GroupPush, QualifiedBeat};
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use proptest::prelude::*;

const FS: f64 = 250.0;

/// Five 16 s recordings, one per reference subject, generated once.
fn corpus() -> &'static [(Vec<f64>, Vec<f64>)] {
    static CORPUS: OnceLock<Vec<(Vec<f64>, Vec<f64>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let population = Population::reference_five();
        (0..5u64)
            .map(|seed| {
                let protocol = Protocol {
                    duration_s: 16.0,
                    ..Protocol::paper_default()
                };
                let rec = PairedRecording::generate(
                    &population.subjects()[seed as usize],
                    Position::One,
                    50_000.0,
                    &protocol,
                    seed,
                )
                .expect("valid session");
                (rec.device_ecg().to_vec(), rec.device_z().to_vec())
            })
            .collect()
    })
}

/// Sixteen cases in the debug suite; `PROPTEST_CASES` overrides it, as
/// CI's release oracle step does.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    ProptestConfig::with_cases(cases)
}

/// One session's input: a stretch of a corpus recording with an optional
/// fault spliced in. NaN bursts and flatlines longer than the 0.25 s
/// holdover cap drive a channel to `Lost`, and its recovery queues a warm
/// restart at the next hop boundary.
fn session_input(
    k: usize,
    start: usize,
    len: usize,
    fault: (u32, usize, usize),
) -> (Vec<f64>, Vec<f64>) {
    let (ecg, z) = &corpus()[k % 5];
    let start = start.min(ecg.len() - len);
    let (mut ecg, mut z) = (
        ecg[start..start + len].to_vec(),
        z[start..start + len].to_vec(),
    );
    let (kind, at, n) = fault;
    let span = at.min(len)..(at + n).min(len);
    match kind {
        0 => z[span].fill(f64::NAN),
        1 => {
            let hold = ecg[span.start.saturating_sub(1)];
            ecg[span].fill(hold);
        }
        2 => {
            ecg[span.clone()].fill(f64::NAN);
            z[span].fill(f64::NAN);
        }
        _ => {}
    }
    (ecg, z)
}

fn beat_text(beats: &[QualifiedBeat]) -> Vec<String> {
    beats.iter().map(|b| format!("{b:?}")).collect()
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn oracle_grouped_hop_bitwise_equals_per_session_push(
        sessions in 1usize..=16,
        starts in prop::collection::vec(0usize..1000, 16),
        lens in prop::collection::vec(1usize..3000, 16),
        kinds in prop::collection::vec(0u32..5, 16),
        fault_at in prop::collection::vec(0usize..2500, 16),
        fault_len in prop::collection::vec(1usize..200, 16),
        runs in prop::collection::vec(1usize..1200, 1..=8),
        turns in prop::collection::vec(0usize..4, 1..=8),
    ) {
        let config = PipelineConfig::paper_default(FS);
        let inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..sessions)
            .map(|k| session_input(k, starts[k], lens[k] + 1000, (kinds[k], fault_at[k], fault_len[k])))
            .collect();
        let mut grouped: Vec<BeatStream> = (0..sessions).map(|_| BeatStream::new(config).unwrap()).collect();
        let mut alone: Vec<BeatStream> = (0..sessions).map(|_| BeatStream::new(config).unwrap()).collect();
        let (mut got, mut want) = (vec![Vec::new(); sessions], vec![Vec::new(); sessions]);
        let (mut fed, mut next_run) = (vec![0; sessions], vec![0; sessions]);
        let mut round = 0;
        while (0..sessions).any(|k| fed[k] < inputs[k].0.len()) {
            // Each round takes one run from a varying subset of the
            // sessions with input left; runs cycle through 1 sample to
            // several hops, each session from its own place in the cycle.
            let turn = turns[round % turns.len()];
            let mut picked: Vec<(usize, usize)> = (0..sessions)
                .filter(|&k| fed[k] < inputs[k].0.len() && (k + round) % (turn + 1) == 0)
                .map(|k| {
                    let n = runs[(next_run[k] + k) % runs.len()].min(inputs[k].0.len() - fed[k]);
                    (k, n)
                })
                .collect();
            if picked.is_empty() {
                let k = (0..sessions).find(|&k| fed[k] < inputs[k].0.len()).unwrap();
                picked.push((k, inputs[k].0.len() - fed[k]));
            }

            let mut members: Vec<GroupPush<'_>> = Vec::new();
            let mut rest = (&mut grouped[..], &mut got[..]);
            let mut base = 0;
            for &(k, n) in &picked {
                let (_, streams) = std::mem::take(&mut rest.0).split_at_mut(k - base);
                let (_, outs) = std::mem::take(&mut rest.1).split_at_mut(k - base);
                let (stream, streams) = streams.split_first_mut().unwrap();
                let (out, outs) = outs.split_first_mut().unwrap();
                rest = (streams, outs);
                base = k + 1;
                let (ecg, z) = &inputs[k];
                members.push(GroupPush::new(stream, &ecg[fed[k]..fed[k] + n], &z[fed[k]..fed[k] + n], out));
            }
            let emitted = BeatStream::push_group(&mut members).unwrap();
            drop(members);

            let mut expected = 0;
            for &(k, n) in &picked {
                let (ecg, z) = &inputs[k];
                let beats = alone[k].push_qualified(&ecg[fed[k]..fed[k] + n], &z[fed[k]..fed[k] + n]).unwrap();
                expected += beats.len();
                want[k].extend(beats);
                fed[k] += n;
                next_run[k] += 1;
                prop_assert!(
                    beat_text(&got[k]) == beat_text(&want[k]),
                    "round {} session {} of {} at {}: {} vs {} beats",
                    round, k, picked.len(), fed[k], got[k].len(), want[k].len()
                );
                prop_assert!(
                    grouped[k].snapshot().to_bytes() == alone[k].snapshot().to_bytes(),
                    "round {} session {}: states differ at {}", round, k, fed[k]
                );
            }
            prop_assert_eq!(emitted, expected);
            round += 1;
        }
    }
}

#[test]
fn mismatched_channels_leave_every_member_untouched() {
    let config = PipelineConfig::paper_default(FS);
    let (ecg, z) = &corpus()[0];
    let (mut a, mut b) = (
        BeatStream::new(config).unwrap(),
        BeatStream::new(config).unwrap(),
    );
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    let before = (a.snapshot().to_bytes(), b.snapshot().to_bytes());
    let mut group = [
        GroupPush::new(&mut a, &ecg[..500], &z[..500], &mut out_a),
        GroupPush::new(&mut b, &ecg[..500], &z[..499], &mut out_b),
    ];
    assert!(BeatStream::push_group(&mut group).is_err());
    assert_eq!((a.snapshot().to_bytes(), b.snapshot().to_bytes()), before);
}

//! Pins the v3 snapshot wire layout byte for byte.
//!
//! One deterministic stream is snapshotted at three points that between
//! them set every field of the format to something non-trivial:
//!
//! * `fresh` — a stream that has seen no sample;
//! * `midloss` — mid-hop, 11.5 s in: both channels dropped to NaN at
//!   9 s, the ECG came back at 11 s and is `Recovering` (its warm restart
//!   is queued for the next hop boundary), while the Z channel is still
//!   in NaN holdover and `Lost`;
//! * `warm` — 30 s in, after the delineator's ensemble template has
//!   warmed up and beats carry an SQI.
//!
//! Each snapshot must encode to the committed bytes under
//! `tests/data/`, and restoring those bytes must re-encode to them
//! exactly, so any change to what the codec writes, in what order, or
//! to what a restore rebuilds shows up here as a byte diff.

use std::path::PathBuf;

use cardiotouch::config::PipelineConfig;
use cardiotouch::snapshot::BeatStreamSnapshot;
use cardiotouch::stream::{BeatStream, SignalState};
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;

const FS: f64 = 250.0;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("snapshot_v3_{name}.bin"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The snapshot bytes of the stream at the three pinned points.
fn snapshots() -> [(&'static str, Vec<u8>); 3] {
    let population = Population::reference_five();
    let rec = PairedRecording::generate(
        &population.subjects()[1],
        Position::One,
        50_000.0,
        &Protocol::paper_default(),
        2027,
    )
    .unwrap();
    let (mut ecg, mut z) = (rec.device_ecg().to_vec(), rec.device_z().to_vec());
    let at = |s: f64| (s * FS) as usize;
    for v in &mut ecg[at(9.0)..at(11.0)] {
        *v = f64::NAN;
    }
    for v in &mut z[at(9.0)..at(12.0)] {
        *v = f64::NAN;
    }
    let config = PipelineConfig::paper_default(FS);
    let mut stream = BeatStream::new(config).unwrap();
    let fresh = stream.snapshot().to_bytes();

    let mut beats = Vec::new();
    let mut push_to = |stream: &mut BeatStream, end: usize| {
        let from = stream.position();
        for (e, zc) in ecg[from..end].chunks(125).zip(z[from..end].chunks(125)) {
            beats.extend(stream.push_qualified(e, zc).unwrap());
        }
    };
    push_to(&mut stream, at(11.5));
    assert_eq!(
        stream.channel_states(),
        (SignalState::Recovering, SignalState::Lost)
    );
    assert_ne!(stream.position() % at(1.0), 0, "mid-hop");
    let midloss = stream.snapshot().to_bytes();

    push_to(&mut stream, ecg.len());
    assert!(beats.iter().any(|b| b.sqi.is_some()), "template warmed up");
    let warm = stream.snapshot().to_bytes();
    [("fresh", fresh), ("midloss", midloss), ("warm", warm)]
}

#[test]
fn v3_layout_is_pinned_and_restores_to_the_same_bytes() {
    let config = PipelineConfig::paper_default(FS);
    for (name, bytes) in snapshots() {
        let pinned = fixture(name);
        assert!(bytes == pinned, "{name}: encoding differs from the fixture");
        let snap = BeatStreamSnapshot::from_bytes(&pinned).unwrap();
        let restored = BeatStream::restore(config, &snap).unwrap();
        assert!(
            restored.snapshot().to_bytes() == pinned,
            "{name}: restore does not re-encode to the fixture"
        );
    }
}

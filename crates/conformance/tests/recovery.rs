//! Crash-recovery conformance over the full pinned corpus: a durable
//! fleet survives a shard panic + restart, and crash-cut checkpoint
//! store / log segments recover to output bitwise identical to the
//! uninterrupted golden run. The CI chaos gate behind durable serving.

use cardiotouch::config::PipelineConfig;
use cardiotouch::fleet::Fleet;
use cardiotouch::wire::WireHub;
use cardiotouch::CoreError;
use cardiotouch_conformance::corpus::{clean_corpus, golden_corpus};
use cardiotouch_conformance::recovery::{run_corpus, CUT_TRIALS};
use cardiotouch_conformance::replay::WIRE_FRAME_SAMPLES;
use cardiotouch_ingest::{
    recover_latest, Checkpoint, CheckpointStore, SegmentPolicy, SegmentedLog, SessionEncoder,
};

#[test]
fn full_corpus_crash_recovery_equivalence() {
    let corpus = golden_corpus();
    let report = run_corpus(&corpus).expect("recovery gates run");
    assert_eq!(report.cases.len(), 13);
    assert_eq!(
        report.cases.iter().filter(|c| c.faulted).count(),
        2,
        "the recovery proof must cover both fault-scenario cases"
    );
    assert!(
        report.checkpoints_sealed >= 2,
        "lag-by-one compaction needs at least two checkpoints \
         (sealed={})",
        report.checkpoints_sealed
    );
    assert!(
        report.segments_retired > 0,
        "the durable run must actually rotate and compact the log"
    );
    assert_eq!(report.cut_trials.len(), CUT_TRIALS);
    assert!(
        report
            .cut_trials
            .iter()
            .skip(1)
            .any(|t| t.suffix_frames > 0),
        "at least one cut trial should replay a non-empty log suffix"
    );
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "crash-recovery equivalence violated:\n{}",
        violations.join("\n")
    );
}

const POLICY: SegmentPolicy = SegmentPolicy {
    max_bytes: 32 * 1024,
    max_frames: 64,
};

/// Four clean corpus cases served durably for 6 s and sealed into one
/// checkpoint, then 10 more slots of frames. Returns the store, the
/// recovered checkpoint, the log and the later slots.
fn sealed_four_sessions() -> (CheckpointStore, Checkpoint, SegmentedLog, Vec<Vec<u8>>) {
    let config = PipelineConfig::paper_default(250.0);
    let rendered: Vec<_> = clean_corpus()[..4]
        .iter()
        .map(|c| c.render().expect("corpus case renders"))
        .collect();
    let mut encoders: Vec<SessionEncoder> = (0..4).map(SessionEncoder::new).collect();
    let slots: Vec<Vec<u8>> = (0..32)
        .map(|slot| {
            let off = slot * WIRE_FRAME_SAMPLES;
            let mut buf = Vec::new();
            for (r, enc) in rendered.iter().zip(&mut encoders) {
                let span = off..off + WIRE_FRAME_SAMPLES;
                enc.push_frame(&r.ecg[span.clone()], &r.z[span], &mut buf)
                    .expect("frame encodes");
            }
            buf
        })
        .collect();
    let mut fleet = Fleet::new(config, 2, 64).unwrap();
    fleet.wire_enable_durable(POLICY);
    for buf in &slots[..12] {
        fleet.wire_push(buf);
    }
    fleet.checkpoint().unwrap();
    let store_bytes = fleet.checkpoint_store_bytes().unwrap().to_vec();
    let log = fleet.wire_segmented_log().unwrap().clone();
    drop(fleet);
    let checkpoint = recover_latest(&store_bytes)
        .unwrap()
        .expect("sealed checkpoint recovers")
        .checkpoint;
    assert_eq!(checkpoint.sessions.len(), 4);
    let (store, _) = CheckpointStore::from_valid_prefix(&store_bytes).unwrap();
    (store, checkpoint, log, slots[12..22].to_vec())
}

/// Each recovery path must refuse a checkpoint with one unusable
/// session snapshot — cut short, or written by the previous snapshot
/// version — and name that session, instead of serving the others and
/// silently dropping it.
#[test]
fn recovery_refuses_an_unusable_session_snapshot() {
    let config = PipelineConfig::paper_default(250.0);
    let (store, good, log, later) = sealed_four_sessions();

    // The untouched checkpoint recovers every session on both paths.
    let mut fleet = Fleet::recover(config, 2, 64, store.clone(), &good, log.clone()).unwrap();
    for buf in &later {
        fleet.wire_push(buf);
    }
    let sessions: Vec<u32> = fleet
        .wire_collect()
        .unwrap()
        .iter()
        .map(|r| r.session)
        .collect();
    assert_eq!(sessions, [0, 1, 2, 3]);
    drop(fleet);
    assert!(WireHub::recover(config, &good, log.clone()).is_ok());

    let mut truncated = good.clone();
    let snap = &mut truncated.sessions[1].snapshot;
    snap.truncate(snap.len() / 2);
    let mut previous_version = good.clone();
    previous_version.sessions[1].snapshot[4..6].copy_from_slice(&2u16.to_le_bytes());
    for forged in [&truncated, &previous_version] {
        let hub = WireHub::recover(config, forged, log.clone());
        let fleet = Fleet::recover(config, 2, 64, store.clone(), forged, log.clone());
        for err in [hub.err(), fleet.err()] {
            match err {
                Some(CoreError::RecoveryFailed { reason }) => {
                    assert!(reason.contains("session 1"), "{reason}");
                }
                other => panic!("expected RecoveryFailed, got {other:?}"),
            }
        }
    }
}

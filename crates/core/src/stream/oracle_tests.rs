//! Oracle property for ingestion: [`BeatStream::ingest_qualified`] (clean
//! runs in bulk, the ladder step per sample elsewhere) against a
//! test-local copy of the per-sample loop it replaced, compared on the
//! encoded snapshot after every chunk.

use super::*;
use proptest::prelude::*;

/// The ingestion loop as it ran before clean runs were taken in bulk:
/// every sample through the ladder, the holdover fill and a `push`. The
/// metric tallies are left out; they are not part of the snapshot.
fn ingest_per_sample(s: &mut BeatStream, ecg: &[f64], z: &[f64]) {
    let mut last_sev = s.state_log.back().map_or(0, |&(_, sev)| sev);
    for (i, (&e, &zv)) in ecg.iter().zip(z).enumerate() {
        let idx = s.pushed + i;
        let e_prev = s.ecg_mon.observe(e);
        let z_prev = s.z_mon.observe(zv);
        let (e_state, z_state) = (s.ecg_mon.state, s.z_mon.state);
        for (prev, now, mon) in [(e_prev, e_state, &s.ecg_mon), (z_prev, z_state, &s.z_mon)] {
            if prev == now {
                continue;
            }
            if prev == SignalState::Lost && now == SignalState::Recovering {
                if s.restarts.back() != Some(&idx) {
                    s.restarts.push_back(idx);
                }
                s.suppress_before = s.suppress_before.max(idx + mon.relock);
            }
        }
        let sev = e_state.severity().max(z_state.severity());
        if sev != last_sev {
            s.state_log.push_back((idx, sev));
            last_sev = sev;
        }
        if e.is_finite() {
            s.last_ecg = e;
            s.ecg_in_holdover = false;
        } else if !s.ecg_in_holdover {
            s.ecg_in_holdover = true;
        }
        s.pend_ecg.push(if e_state == SignalState::Lost {
            0.0
        } else {
            s.last_ecg
        });
        if zv.is_finite() {
            s.last_z = zv;
            s.z_seen_finite = true;
            s.z_in_holdover = false;
            if z_state == SignalState::Good {
                if s.z_ema_init {
                    s.z_ema += (zv - s.z_ema) / 256.0;
                } else {
                    s.z_ema = zv;
                    s.z_ema_init = true;
                }
            }
        } else if !s.z_in_holdover {
            s.z_in_holdover = true;
        }
        s.pend_z.push(if z_state == SignalState::Lost {
            s.z_ema
        } else if s.z_seen_finite {
            s.last_z
        } else {
            0.0
        });
    }
    s.pushed += ecg.len();
}

/// One channel as a run of segments: `(kind, length)` with kinds clean
/// wander, NaN, ±∞, at or past a rail (`rails` lists values on both
/// rails and beyond them), and a flat hold of the previous
/// value (which may continue across the segment boundary).
fn channel(segments: &[(u32, usize)], centre: f64, spread: f64, rails: [f64; 4]) -> Vec<f64> {
    let mut x: Vec<f64> = Vec::new();
    for (k, &(kind, len)) in segments.iter().enumerate() {
        let prev = x.last().copied().unwrap_or(centre);
        for i in 0..len {
            let t = (x.len() + i) as f64;
            x.push(match kind {
                0..=2 => centre + spread * ((0.05 * t).sin() + 0.3 * (0.71 * t + k as f64).cos()),
                3 => f64::NAN,
                4 => [f64::INFINITY, f64::NEG_INFINITY][i % 2],
                5 => rails[(k + i) % 4],
                _ => prev,
            });
        }
    }
    x
}

fn snapshot_bytes(s: &BeatStream) -> Vec<u8> {
    s.snapshot().to_bytes()
}

proptest! {
    #[test]
    fn oracle_bulk_ingest_bitwise_equals_per_sample_ladder(
        ecg_kinds in prop::collection::vec(0u32..7, 1..=10),
        ecg_lens in prop::collection::vec(1usize..600, 10),
        z_kinds in prop::collection::vec(0u32..7, 1..=10),
        z_lens in prop::collection::vec(1usize..600, 10),
        chunks in prop::collection::vec(0usize..700, 1..=8),
        short_cap in 0u32..2,
    ) {
        let mut config = PipelineConfig::paper_default(250.0);
        if short_cap == 1 {
            config.holdover_cap_s = 0.05;
        }
        let ecg_segments: Vec<(u32, usize)> = ecg_kinds.into_iter().zip(ecg_lens).collect();
        let z_segments: Vec<(u32, usize)> = z_kinds.into_iter().zip(z_lens).collect();
        let mut ecg = channel(&ecg_segments, 0.0, 1.5, [ECG_RAIL_MV, -ECG_RAIL_MV, 40.0, -40.0]);
        let mut z = channel(&z_segments, 480.0, 3.0, [Z_RAIL_LO_OHM, Z_RAIL_HI_OHM, 0.2, 9000.0]);
        let n = ecg.len().max(z.len());
        ecg.resize(n, 0.3);
        z.resize(n, 481.0);
        let mut oracle = BeatStream::new(config).unwrap();
        let mut bulk = BeatStream::new(config).unwrap();
        let mut fed = 0;
        for k in 0..=48 {
            let c = if k == 48 { n - fed } else { chunks[k % chunks.len()].min(n - fed) };
            ingest_per_sample(&mut oracle, &ecg[fed..fed + c], &z[fed..fed + c]);
            bulk.ingest_qualified(&ecg[fed..fed + c], &z[fed..fed + c]).unwrap();
            fed += c;
            prop_assert!(
                snapshot_bytes(&bulk) == snapshot_bytes(&oracle),
                "chunk {} ending at {}: states {:?} vs {:?}",
                k, fed, bulk.channel_states(), oracle.channel_states()
            );
        }
        prop_assert_eq!(fed, n);
    }
}

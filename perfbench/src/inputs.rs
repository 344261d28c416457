//! Seeded workload inputs, made before any timing starts: synthetic
//! paired recordings from `cardiotouch_physio` and their wire encoding.

use cardiotouch_ingest::{LossyWire, SessionEncoder};
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;

use crate::stats::{cores, SplitMix};

/// Sampling rate of every recording, hertz (the paper's 250 Hz).
pub const FS: f64 = 250.0;
/// Samples per wire frame (0.5 s), as `serve-sim --wire` frames them.
pub const FRAME: usize = 125;
/// Samples per slot: one second of signal for every session.
pub const SLOT: usize = 250;
/// The paper's injection (carrier) frequencies, hertz.
pub const CARRIERS_HZ: [f64; 4] = [2_000.0, 10_000.0, 50_000.0, 100_000.0];

/// One session's signal and its exact ground truth.
#[derive(Clone)]
pub struct Recording {
    /// Label for gate messages.
    pub id: String,
    /// Device ECG channel, millivolts.
    pub ecg: Vec<f64>,
    /// Device impedance channel, ohms.
    pub z: Vec<f64>,
    /// Exact R-peak sample indices of the clean recording.
    pub truth_r: Vec<usize>,
}

impl Recording {
    /// Signal length, seconds.
    pub fn seconds(&self) -> f64 {
        self.ecg.len() as f64 / FS
    }
}

/// `count` recordings of `seconds` each, generated at full length (no
/// template wrap, so the truth R peaks stay exact). Recording `i` walks
/// the reference five subjects, the three arm positions and the four
/// carriers in turn; its noise seed comes from `seed`. Generation runs
/// on every core and is deterministic in `(seed, count, seconds)`.
pub fn grid(seed: u64, count: usize, seconds: f64) -> Vec<Recording> {
    let population = Population::reference_five();
    let protocol = Protocol {
        duration_s: seconds,
        ..Protocol::paper_default()
    };
    let make = |i: usize| {
        let subject = &population.subjects()[i % 5];
        let position = Position::ALL[(i / 5) % 3];
        let carrier = CARRIERS_HZ[(i / 15) % 4];
        let rec_seed = SplitMix(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        let rec = PairedRecording::generate(subject, position, carrier, &protocol, rec_seed)
            .expect("reference subjects generate at the paper's protocol");
        Recording {
            id: format!("grid{i}-s{}-p{}-f{}", i % 5 + 1, position.index(), carrier),
            ecg: rec.device_ecg().to_vec(),
            z: rec.device_z().to_vec(),
            truth_r: rec.truth().r_peaks.clone(),
        }
    };
    let workers = cores().min(count).max(1);
    let mut out: Vec<(usize, Recording)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let make = &make;
                scope.spawn(move || {
                    (w..count)
                        .step_by(workers)
                        .map(|i| (i, make(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Seeded link impairment: probabilities of dropping and of corrupting
/// each frame.
#[derive(Clone, Copy)]
pub struct Link {
    pub seed: u64,
    pub drop: f64,
    pub corrupt: f64,
}

/// The encoded wire bytes of a serving run: one buffer per slot, each
/// holding two 125-sample frames of every session, multiplexed the way
/// `serve-sim --wire` interleaves them.
pub struct Wire {
    /// Bytes per slot.
    pub slots: Vec<Vec<u8>>,
    /// Frames the sources sent (before link loss).
    pub frames_sent: u64,
    /// Sessions in the run.
    pub sessions: usize,
}

impl Wire {
    /// Encodes the first `slots` seconds of every recording (session id
    /// = index) through per-session sequence-numbered encoders, and
    /// through the seeded lossy link when one is given.
    pub fn encode(recs: &[Recording], slots: usize, link: Option<Link>) -> Self {
        let mut encoders: Vec<SessionEncoder> = (0..recs.len())
            .map(|s| SessionEncoder::new(u32::try_from(s).expect("session ids fit u32")))
            .collect();
        let mut lossy = link.map(|l| LossyWire::new(l.seed, l.drop, l.corrupt));
        let mut scratch = Vec::new();
        let mut out = Vec::with_capacity(slots);
        let mut frames_sent = 0;
        for slot in 0..slots {
            let mut buf = Vec::new();
            for f in 0..SLOT / FRAME {
                let off = slot * SLOT + f * FRAME;
                for (rec, enc) in recs.iter().zip(&mut encoders) {
                    let (e, z) = (&rec.ecg[off..off + FRAME], &rec.z[off..off + FRAME]);
                    match &mut lossy {
                        Some(l) => {
                            scratch.clear();
                            enc.push_frame(e, z, &mut scratch)
                                .expect("frame fits the wire format");
                            // Dropped frames are counted by the link.
                            let _ = l.transmit(&scratch, &mut buf);
                        }
                        None => {
                            enc.push_frame(e, z, &mut buf)
                                .expect("frame fits the wire format");
                        }
                    }
                    frames_sent += 1;
                }
            }
            out.push(buf);
        }
        Self {
            slots: out,
            frames_sent,
            sessions: recs.len(),
        }
    }

    /// Wire bytes across all slots.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

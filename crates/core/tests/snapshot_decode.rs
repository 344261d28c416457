//! Property: no byte sequence derived from a real snapshot makes
//! `BeatStreamSnapshot::from_bytes` → `BeatStream::restore` panic or
//! reserve memory the input does not pay for.
//!
//! Real snapshots (fresh, mid-recording, mid contact loss with a warm
//! restart queued, after the delineator template has warmed up) are cut
//! at a random byte, have random bytes flipped, or have a word that
//! reads as a plausible length overwritten with a huge one. Every
//! variant must come back `Ok` or `Err`; and no single allocation made
//! while decoding it may exceed the larger of the input and what
//! `BeatStream::new` itself allocates, plus one 16-byte item.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use cardiotouch::config::PipelineConfig;
use cardiotouch::snapshot::BeatStreamSnapshot;
use cardiotouch::stream::BeatStream;
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use proptest::prelude::*;

/// The system allocator, recording the largest single request made on
/// this thread while armed.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    }
}

// Measuring allocations needs a `GlobalAlloc`, which is an unsafe
// trait; this test-only hook is the one exception to the workspace's
// `unsafe_code = "deny"`.
// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// only touches const-initialized thread-locals, which never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get))
}

const FS: f64 = 250.0;

/// Snapshots of one recording at four points, and the largest single
/// allocation `BeatStream::new` makes.
fn corpus() -> &'static (Vec<Vec<u8>>, usize) {
    static CORPUS: OnceLock<(Vec<Vec<u8>>, usize)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let population = Population::reference_five();
        let rec = PairedRecording::generate(
            &population.subjects()[2],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            31,
        )
        .unwrap();
        let (mut ecg, mut z) = (rec.device_ecg().to_vec(), rec.device_z().to_vec());
        ecg[2250..2750].fill(f64::NAN);
        z[2250..3000].fill(f64::NAN);
        let config = PipelineConfig::paper_default(FS);
        let mut stream = BeatStream::new(config).unwrap();
        let mut snaps = vec![stream.snapshot().into_bytes()];
        let mut at = 0;
        for end in [1630, 2875, ecg.len()] {
            for (e, zc) in ecg[at..end].chunks(125).zip(z[at..end].chunks(125)) {
                stream.push_qualified(e, zc).unwrap();
            }
            at = end;
            snaps.push(stream.snapshot().into_bytes());
        }
        let _ = BeatStream::new(config).unwrap();
        let (_, floor) = peak_alloc(|| BeatStream::new(config).unwrap());
        (snaps, floor)
    })
}

/// Offsets of words that read as a length whose items would still fit
/// in the bytes after them: length prefixes, among other small words.
fn length_words(bytes: &[u8]) -> Vec<usize> {
    (6..bytes.len().saturating_sub(8))
        .filter(|&p| {
            let n = u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap());
            n > 0 && n < 100_000 && p + 8 + 8 * n as usize <= bytes.len()
        })
        .collect()
}

proptest! {
    #[test]
    fn oracle_snapshot_decode_never_panics(
        pick in 0usize..4,
        kind in 0u32..3,
        at in 0usize..1 << 30,
        flip_at in prop::collection::vec(0usize..1 << 30, 8),
        flip_by in prop::collection::vec(1u8..=255, 1..=8),
        huge in 0usize..5,
    ) {
        let (snaps, floor) = corpus();
        let good = &snaps[pick];
        let bytes = match kind {
            0 => good[..at % (good.len() + 1)].to_vec(),
            1 => {
                let mut b = good.clone();
                for (i, x) in flip_at.iter().zip(&flip_by) {
                    let n = b.len();
                    b[i % n] ^= x;
                }
                b
            }
            _ => {
                let words = length_words(good);
                let mut b = good.clone();
                let p = words[at % words.len()];
                let huge = [u64::MAX, 1 << 61, 1 << 40, 1 << 32, 1 << 20][huge];
                b[p..p + 8].copy_from_slice(&huge.to_le_bytes());
                b
            }
        };
        let config = PipelineConfig::paper_default(FS);
        let (restored, peak) = peak_alloc(|| {
            BeatStreamSnapshot::from_bytes(&bytes).and_then(|s| BeatStream::restore(config, &s))
        });
        prop_assert!(
            peak <= bytes.len().max(*floor) + 16,
            "kind {} pick {}: a {}-byte allocation for {} input bytes (floor {})",
            kind, pick, peak, bytes.len(), floor
        );
        if kind == 0 && bytes.len() < good.len() {
            prop_assert!(restored.is_err(), "a cut snapshot must not restore");
        }
        drop(restored);
    }
}

#[test]
fn untouched_snapshots_restore_within_the_allocation_bound() {
    let (snaps, floor) = corpus();
    let config = PipelineConfig::paper_default(FS);
    for bytes in snaps {
        let (restored, peak) = peak_alloc(|| {
            BeatStreamSnapshot::from_bytes(bytes).and_then(|s| BeatStream::restore(config, &s))
        });
        assert_eq!(restored.unwrap().snapshot().into_bytes(), *bytes);
        assert!(
            peak <= bytes.len().max(*floor) + 16,
            "{peak} for {}",
            bytes.len()
        );
    }
}

//! Property-based tests over the ingest wire format, decoder, log and
//! reassembler: round-trip identity for arbitrary `f64` bit patterns,
//! and never-panics / bounded-loss behaviour on truncated, bit-flipped
//! and garbage-prefixed streams.

use cardiotouch_ingest::checkpoint::{
    decode_checkpoint, encode_checkpoint, recover_latest, Checkpoint, CheckpointStore,
    RecoveredCheckpoint, SessionCheckpoint, CHECKPOINT_MAGIC, MAX_CHECKPOINT_ENTRY,
};
use cardiotouch_ingest::frame::{crc16, crc16_update, MAX_FRAME_LEN};
use cardiotouch_ingest::log::LOG_MAGIC;
use cardiotouch_ingest::segment::{SegmentPolicy, SegmentedLog};
use cardiotouch_ingest::{
    encode_frame, Assembler, FrameView, IngestLog, LogError, LogPosition, LogReader, LossyWire,
    SessionEncoder, SessionResume, WireDecoder, HEADER_LEN,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Encodes `n` frames of `len` deterministic samples for one session,
/// returning the wire bytes and each frame's start offset.
fn encode_wire(session: u32, n: usize, len: usize) -> (Vec<u8>, Vec<usize>) {
    let mut enc = SessionEncoder::new(session);
    let mut out = Vec::new();
    let mut starts = Vec::new();
    for seq in 0..n {
        starts.push(out.len());
        let ecg: Vec<f64> = (0..len)
            .map(|i| (seq * 131 + i) as f64 * 0.5 - 3.0)
            .collect();
        let z: Vec<f64> = (0..len).map(|i| 420.0 + (seq + i) as f64 * 0.25).collect();
        enc.push_frame(&ecg, &z, &mut out).expect("encode");
    }
    (out, starts)
}

/// Pushes enough zero bytes to complete (and so CRC-fail) any pending
/// plausible-prefix the decoder may be buffering — a bit flip in the
/// `n_samples` field can otherwise stall frames behind an `Incomplete`
/// that never resolves. Zero bytes can never start a frame (no magic),
/// so everything buffered gets adjudicated.
fn flush(dec: &mut WireDecoder, seqs: &mut Vec<u16>) {
    let zeros = vec![0u8; MAX_FRAME_LEN];
    dec.push(&zeros, |f| seqs.push(f.seq()));
}

proptest! {
    #[test]
    fn frame_round_trips_any_bit_patterns(
        session in any::<u32>(),
        seq in any::<u16>(),
        ecg_bits in prop::collection::vec(any::<u64>(), 0..200),
        z_bits in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let n = ecg_bits.len().min(z_bits.len());
        let ecg: Vec<f64> = ecg_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();
        let z: Vec<f64> = z_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();
        let mut out = Vec::new();
        let written = encode_frame(session, seq, &ecg, &z, &mut out).expect("encode");
        prop_assert_eq!(written, out.len());
        let (frame, used) = FrameView::parse(&out).expect("parse");
        prop_assert_eq!(used, out.len());
        prop_assert_eq!(frame.session(), session);
        prop_assert_eq!(frame.seq(), seq);
        prop_assert_eq!(frame.n_samples(), n);
        let (mut de, mut dz) = (Vec::new(), Vec::new());
        frame.copy_samples(&mut de, &mut dz);
        // bitwise, so NaN payloads and negative zero survive the wire
        prop_assert_eq!(
            de.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ecg.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            dz.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_bit_flips_never_pass_full_frame_crc(
        len in 1usize..32,
        flip in any::<u32>(),
    ) {
        let (wire, _) = encode_wire(7, 1, len);
        let bit = (flip as usize) % (wire.len() * 8);
        let mut bad = wire.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        // CRC-16 detects every single-bit error, so the only way a
        // flipped buffer can still parse is a shorter reinterpretation
        // (a flip shrinking `n_samples`), never the full frame.
        match FrameView::parse(&bad) {
            Err(_) => {}
            Ok((_, used)) => prop_assert!(used < wire.len()),
        }
    }

    #[test]
    fn decoder_conserves_every_byte_of_garbage(
        data in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..97,
    ) {
        let mut dec = WireDecoder::new();
        let mut frames = 0u64;
        for piece in data.chunks(chunk) {
            dec.push(piece, |_| frames += 1);
        }
        // emitted + skipped + still-buffered must account for every
        // input byte, whatever the input is — and never panic
        let s = dec.stats();
        prop_assert_eq!(s.frames, frames);
        prop_assert_eq!(s.bytes + s.bytes_skipped + dec.buffered() as u64, data.len() as u64);
    }

    #[test]
    fn decoder_loses_at_most_the_bit_flipped_frame(
        n in 2usize..10,
        len in 1usize..16,
        flip in any::<u32>(),
    ) {
        let (mut wire, starts) = encode_wire(1, n, len);
        let bit = (flip as usize) % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        let hit = starts.iter().rposition(|&s| s <= bit / 8).expect("starts[0] is 0");
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&wire, |f| seqs.push(f.seq()));
        flush(&mut dec, &mut seqs);
        let want: Vec<u16> = (0..n as u16).filter(|&s| usize::from(s) != hit).collect();
        prop_assert_eq!(seqs, want);
        // one resync episode for the corruption, at most one more for
        // the zero-byte flush tail
        let s = dec.stats();
        prop_assert!(s.resyncs >= 1 && s.resyncs <= 2, "resyncs {}", s.resyncs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn garbage_prefix_and_truncated_tail_lose_only_the_cut_frame(
        junk in prop::collection::vec(any::<u8>(), 0..64),
        n in 2usize..10,
        len in 1usize..16,
        cut in 1usize..32,
    ) {
        let (wire, _) = encode_wire(3, n, len);
        let frame_len = HEADER_LEN + len * 16 + 2;
        let cut = cut.min(frame_len - 1); // truncate into the final frame
        let mut stream = junk;
        stream.extend_from_slice(&wire[..wire.len() - cut]);
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        for piece in stream.chunks(53) {
            dec.push(piece, |f| seqs.push(f.seq()));
        }
        flush(&mut dec, &mut seqs);
        // every intact frame survives, in order (match by subsequence:
        // arbitrary junk could in principle CRC-collide into a bogus
        // extra frame, which would not be a decoder defect)
        let mut it = seqs.iter();
        for want in 0..n as u16 - 1 {
            prop_assert!(
                it.any(|&s| s == want),
                "frame {} lost to prefix junk or tail cut",
                want
            );
        }
    }

    #[test]
    fn lossy_wire_is_deterministic_and_accounted(
        seed in any::<u16>(),
        n in 1usize..40,
        drop_pct in 0usize..40,
        corrupt_pct in 0usize..40,
    ) {
        let (dp, cp) = (drop_pct as f64 / 100.0, corrupt_pct as f64 / 100.0);
        let (clean, starts) = encode_wire(9, n, 8);
        let frame_len = clean.len() / n;
        let run = || {
            let mut link = LossyWire::new(u64::from(seed), dp, cp);
            let mut out = Vec::new();
            for &s in &starts {
                link.transmit(&clean[s..s + frame_len], &mut out);
            }
            (out, link.delivered(), link.dropped(), link.corrupted())
        };
        let (out, delivered, dropped, corrupted) = run();
        prop_assert_eq!(run(), (out.clone(), delivered, dropped, corrupted));
        prop_assert_eq!(delivered + dropped, n as u64);
        // every corrupted frame fails CRC; every survivor is genuine
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&out, |f| seqs.push(f.seq()));
        flush(&mut dec, &mut seqs);
        prop_assert_eq!(dec.stats().frames, delivered - corrupted);
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "out-of-order survivors");
    }

    #[test]
    fn log_round_trips_and_any_cut_recovers_a_prefix(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..12),
        cut in any::<u16>(),
    ) {
        let mut log = IngestLog::new();
        for f in &frames {
            log.append(f);
        }
        prop_assert_eq!(log.frames(), frames.len() as u64);
        let bytes = log.as_bytes();
        let mut r = LogReader::new(bytes).expect("header");
        let got: Vec<Vec<u8>> = r.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(r.error(), None);
        prop_assert_eq!(r.valid_prefix_len(), bytes.len());
        // a crash can cut the log anywhere; the reader must yield a
        // bitwise prefix of what was appended and nothing else
        let keep = LOG_MAGIC.len() + usize::from(cut) % (bytes.len() - LOG_MAGIC.len() + 1);
        let mut r2 = LogReader::new(&bytes[..keep]).expect("header survives any cut past it");
        let got2: Vec<Vec<u8>> = r2.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(got2.as_slice(), &frames[..got2.len()]);
        prop_assert!(r2.valid_prefix_len() <= keep);
    }

    #[test]
    fn log_byte_flip_truncates_to_a_clean_prefix(
        n in 1usize..10,
        flip in any::<u32>(),
        mask in 1u8..=255,
    ) {
        let mut log = IngestLog::new();
        let mut frames = Vec::new();
        for seq in 0..n {
            let (w, _) = encode_wire(2, 1, 3 + seq);
            log.append(&w);
            frames.push(w);
        }
        let mut bytes = log.into_bytes();
        let idx = LOG_MAGIC.len() + (flip as usize) % (bytes.len() - LOG_MAGIC.len());
        bytes[idx] ^= mask;
        let mut r = LogReader::new(&bytes).expect("magic untouched");
        let got: Vec<Vec<u8>> = r.by_ref().map(<[u8]>::to_vec).collect();
        // the chain CRC stops the read at (or before) the flipped
        // entry; everything yielded is still bitwise trustworthy
        prop_assert!(got.len() < n);
        prop_assert_eq!(got.as_slice(), &frames[..got.len()]);
        prop_assert!(r.error().is_some());
    }

    #[test]
    fn assembler_restores_an_adjacent_swap_bitwise(
        session in any::<u32>(),
        start_seq in any::<u16>(),
        n in 3usize..20,
        swap in any::<u32>(),
        salt in any::<u64>(),
    ) {
        // arbitrary payload bit patterns, delivered with one adjacent
        // pair swapped (never the first frame: the first arrival
        // anchors the session's sequence origin)
        let len = 4usize;
        let mut enc = SessionEncoder::with_start_seq(session, start_seq);
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        let mut want_bits: Vec<u64> = Vec::new();
        for seq in 0..n as u64 {
            let ecg: Vec<f64> = (0..len)
                .map(|i| f64::from_bits(salt.wrapping_mul(seq + 1).wrapping_add(i as u64)))
                .collect();
            let z: Vec<f64> = ecg.iter().map(|v| f64::from_bits(v.to_bits() ^ 0x5A5A)).collect();
            want_bits.extend(ecg.iter().chain(&z).map(|v| v.to_bits()));
            starts.push(wire.len());
            enc.push_frame(&ecg, &z, &mut wire).expect("encode");
        }
        starts.push(wire.len());
        let s = 1 + (swap as usize) % (n - 2);
        let mut order: Vec<usize> = (0..n).collect();
        order.swap(s, s + 1);
        let mut asm = Assembler::new();
        let mut got_bits: Vec<u64> = Vec::new();
        for &idx in &order {
            let (frame, _) = FrameView::parse(&wire[starts[idx]..starts[idx + 1]]).expect("parse");
            asm.accept(&frame, |_, ecg, z| {
                got_bits.extend(ecg.iter().chain(z).map(|v| v.to_bits()));
            });
        }
        prop_assert_eq!(got_bits, want_bits);
        let st = asm.stats();
        prop_assert_eq!(
            (st.delivered, st.reordered, st.dropped, st.filled_samples),
            (n as u64, 1, 0, 0)
        );
    }

    #[test]
    fn segmented_log_any_cut_recovers_a_prefix_across_boundaries(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 1..24),
        max_frames in 1u64..5,
        cut in any::<u32>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        for f in &frames {
            log.append(f);
        }
        let mut parts: Vec<(u64, Vec<u8>)> = log
            .segments()
            .map(|s| (s.id(), s.bytes().to_vec()))
            .collect();
        // A crash can cut the active segment anywhere past its header;
        // whatever survives must replay as a bitwise prefix.
        let tail = parts.last_mut().expect("non-empty");
        let span = tail.1.len() - LOG_MAGIC.len();
        let keep = LOG_MAGIC.len() + (cut as usize) % (span + 1);
        tail.1.truncate(keep);
        let rebuilt = SegmentedLog::from_segments(policy, &parts).expect("rebuild");
        let mut got = Vec::new();
        rebuilt
            .replay_from(&rebuilt.start_position(), |f| got.push(f.to_vec()))
            .expect("replay");
        prop_assert_eq!(got.as_slice(), &frames[..got.len()]);
        // A cut only ever hits the active segment, so at most one
        // segment's worth of frames is lost; earlier segments survive
        // untouched by construction.
        prop_assert!((frames.len() - got.len()) as u64 <= max_frames);
    }

    #[test]
    fn compaction_never_drops_entries_past_the_watermark(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 2..24),
        max_frames in 1u64..5,
        mark_at in any::<u32>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        let k = (mark_at as usize) % frames.len();
        for f in &frames[..k] {
            log.append(f);
        }
        let mark = log.position();
        for f in &frames[k..] {
            log.append(f);
        }
        log.compact(&mark);
        // Everything past the watermark is still replayable, bitwise.
        let mut got = Vec::new();
        let replay = log.replay_from(&mark, |f| got.push(f.to_vec())).expect("replay");
        prop_assert_eq!(replay.frames as usize, frames.len() - k);
        prop_assert_eq!(got.as_slice(), &frames[k..]);
    }

    #[test]
    fn checkpoint_plus_suffix_equals_full_replay(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 2..24),
        max_frames in 1u64..5,
        mark_at in any::<u32>(),
        cut in any::<u16>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        let k = (mark_at as usize) % frames.len();
        let mut covered: Vec<Vec<u8>> = Vec::new();
        for f in &frames[..k] {
            log.append(f);
            covered.push(f.clone());
        }
        // Seal a checkpoint at the watermark (sessions empty: this
        // property is about the log algebra, not engine state).
        let mut store = CheckpointStore::new();
        store.append(&Checkpoint { watermark: log.position(), sessions: Vec::new() });
        for f in &frames[k..] {
            log.append(f);
        }
        // Recover the checkpoint from store bytes cut anywhere in the
        // final append's tail window (the fsynced prefix survives).
        let bytes = store.as_bytes();
        let keep = bytes.len() - (cut as usize) % 3;
        let recovered = recover_latest(&bytes[..keep]).expect("store readable");
        let (watermark, covered_used) = match recovered {
            Some(r) => (r.checkpoint.watermark, covered),
            // Cut destroyed the only checkpoint: cold start from the
            // log head, nothing covered.
            None => (log.start_position(), Vec::new()),
        };
        let mut suffix = Vec::new();
        log.replay_from(&watermark, |f| suffix.push(f.to_vec())).expect("replay");
        let mut recovered_stream = covered_used;
        recovered_stream.extend(suffix);
        // replay(checkpoint + suffix) == replay(full log), bitwise.
        prop_assert_eq!(recovered_stream, frames);
    }
}

/// CRC-16/CCITT-FALSE by its definition: one byte at a time, eight
/// shift/xor steps per byte — the reference the sliced fold must equal.
fn crc16_bit_loop(mut crc: u16, data: &[u8]) -> u16 {
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The store reopen as it was before a single walk served both halves:
/// `recover_latest` walks the CRC chain decoding every valid entry, and
/// the reopen walks it again to copy the prefix. Returns the newest
/// checkpoint, the reopened bytes, their chain CRC and entry count.
type TwoWalkReopen = (Option<RecoveredCheckpoint>, Vec<u8>, u16, u64);

fn two_walk_reopen(data: &[u8]) -> Result<TwoWalkReopen, LogError> {
    let fresh_chain = crc16(&CHECKPOINT_MAGIC);
    if data.is_empty() {
        return Ok((None, CHECKPOINT_MAGIC.to_vec(), fresh_chain, 0));
    }
    if data.len() < CHECKPOINT_MAGIC.len() || data[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(LogError::BadHeader);
    }
    // Walk 1: newest decodable entry, decoding every valid one.
    let mut pos = CHECKPOINT_MAGIC.len();
    let mut chain = fresh_chain;
    let mut newest = None;
    let mut index = 0u64;
    while pos < data.len() {
        let rest = &data[pos..];
        if rest.len() < 6 {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_CHECKPOINT_ENTRY {
            break;
        }
        let stored = u16::from_le_bytes(rest[4..6].try_into().expect("2 bytes"));
        if rest.len() < 6 + len {
            break;
        }
        let payload = &rest[6..6 + len];
        if stored != crc16_update(crc16_update(0xFFFF, &chain.to_le_bytes()), payload) {
            break;
        }
        chain = stored;
        pos += 6 + len;
        if let Some(checkpoint) = decode_checkpoint(payload) {
            newest = Some(RecoveredCheckpoint {
                checkpoint,
                index,
                entries: index + 1,
            });
        }
        index += 1;
    }
    // Walk 2: copy the valid prefix entry by entry.
    let mut buf = CHECKPOINT_MAGIC.to_vec();
    let mut chain = fresh_chain;
    let mut entries = 0u64;
    let mut pos = CHECKPOINT_MAGIC.len();
    loop {
        let rest = &data[pos..];
        if rest.len() < 6 {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_CHECKPOINT_ENTRY || rest.len() < 6 + len {
            break;
        }
        let stored = u16::from_le_bytes(rest[4..6].try_into().expect("2 bytes"));
        let payload = &rest[6..6 + len];
        if stored != crc16_update(crc16_update(0xFFFF, &chain.to_le_bytes()), payload) {
            break;
        }
        buf.extend_from_slice(&rest[..6 + len]);
        chain = stored;
        entries += 1;
        pos += 6 + len;
    }
    Ok((newest, buf, chain, entries))
}

/// Appends one raw entry (length, chain CRC, payload) to store bytes —
/// how a test writes an entry that is CRC-valid but does not decode.
fn raw_store_entry(buf: &mut Vec<u8>, chain: &mut u16, payload: &[u8]) {
    *chain = crc16_update(crc16_update(0xFFFF, &chain.to_le_bytes()), payload);
    buf.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("fits u32")
            .to_le_bytes(),
    );
    buf.extend_from_slice(&chain.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Uniform in `0..n` (`n > 0`).
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.gen::<u64>() % n as u64) as usize
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let n = below(rng, max_len + 1);
    (0..n).map(|_| rng.gen::<u64>() as u8).collect()
}

/// A random checkpoint of 0-2 sessions with small parked payloads and
/// snapshots — the codec, not the engine, is under test.
fn random_checkpoint(rng: &mut StdRng) -> Checkpoint {
    let sessions = (0..below(rng, 3))
        .map(|_| SessionCheckpoint {
            session: rng.gen(),
            resume: SessionResume {
                started: rng.gen(),
                next_seq: rng.gen::<u32>() as u16,
                last_n: below(rng, 300),
                parked: (0..below(rng, 4))
                    .map(|_| rng.gen::<bool>().then(|| random_bytes(rng, 12)))
                    .collect(),
            },
            snapshot: random_bytes(rng, 64),
        })
        .collect();
    Checkpoint {
        watermark: LogPosition {
            segment: rng.gen(),
            offset: rng.gen::<u32>() as usize,
            chain: rng.gen::<u32>() as u16,
            frames: rng.gen(),
        },
        sessions,
    }
}

// The oracle properties share the `oracle_` prefix so CI can run them
// alone in release with a large `PROPTEST_CASES`.
proptest! {
    #[test]
    fn oracle_crc16_fold_equals_bit_loop(
        data in prop::collection::vec(any::<u8>(), 0..=5000),
        init in any::<u16>(),
        short in 0usize..48,
        split in any::<u64>(),
    ) {
        prop_assert_eq!(crc16_update(init, &data), crc16_bit_loop(init, &data));
        // Short and odd lengths: the tail path alone and the seam
        // between sixteen-byte chunks and the tail.
        let head = &data[..short.min(data.len())];
        prop_assert_eq!(crc16_update(init, head), crc16_bit_loop(init, head));
        // Continuing from a running value at any split point.
        let k = split as usize % (data.len() + 1);
        prop_assert_eq!(
            crc16_update(crc16_update(init, &data[..k]), &data[k..]),
            crc16_bit_loop(init, &data)
        );
    }

    #[test]
    fn oracle_store_reopen_equals_two_walks(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // 1-5 checkpoints plus one CRC-valid entry whose payload does
        // not decode (version 0xFFFF), anywhere in the chain.
        let ckpts: Vec<Checkpoint> = (0..1 + below(&mut rng, 5))
            .map(|_| random_checkpoint(&mut rng))
            .collect();
        let bad_at = below(&mut rng, ckpts.len() + 1);
        let mut undecodable = vec![0xFF, 0xFF];
        undecodable.extend(random_bytes(&mut rng, 40));
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        let mut chain = crc16(&CHECKPOINT_MAGIC);
        for (i, c) in ckpts.iter().enumerate() {
            if i == bad_at {
                raw_store_entry(&mut bytes, &mut chain, &undecodable);
            }
            raw_store_entry(&mut bytes, &mut chain, &encode_checkpoint(c));
        }
        if bad_at == ckpts.len() {
            raw_store_entry(&mut bytes, &mut chain, &undecodable);
        }
        // A crash cut anywhere (often none), then maybe one flipped byte.
        let cut = if rng.gen::<bool>() {
            bytes.len()
        } else {
            below(&mut rng, bytes.len() + 1)
        };
        bytes.truncate(cut);
        if !bytes.is_empty() && rng.gen::<bool>() {
            let at = below(&mut rng, bytes.len());
            bytes[at] ^= 1 + below(&mut rng, 255) as u8;
        }
        let next = random_checkpoint(&mut rng);

        let want = two_walk_reopen(&bytes);
        let got_latest = recover_latest(&bytes);
        let got_reopen = CheckpointStore::from_valid_prefix(&bytes);
        match want {
            Err(e) => {
                prop_assert_eq!(got_latest.err(), Some(e));
                prop_assert_eq!(got_reopen.err(), Some(e));
            }
            Ok((newest, prefix, prefix_chain, entries)) => {
                prop_assert_eq!(got_latest.expect("same header verdict"), newest.clone());
                let (mut store, got_newest) = got_reopen.expect("same header verdict");
                prop_assert_eq!(got_newest, newest);
                prop_assert_eq!(store.entries(), entries);
                prop_assert_eq!(store.as_bytes(), prefix.as_slice());
                // One more append continues the same chain, byte for byte.
                let mut expect = prefix;
                let mut expect_chain = prefix_chain;
                raw_store_entry(&mut expect, &mut expect_chain, &encode_checkpoint(&next));
                store.append(&next);
                prop_assert_eq!(store.as_bytes(), expect.as_slice());
            }
        }
    }

    #[test]
    fn oracle_store_compaction_equals_fresh_store(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = CheckpointStore::new();
        // The model: payloads of the entries the store should hold.
        let mut kept: Vec<Vec<u8>> = Vec::new();
        for _ in 0..1 + below(&mut rng, 24) {
            match below(&mut rng, 4) {
                0 | 1 => {
                    let ckpt = random_checkpoint(&mut rng);
                    store.append(&ckpt);
                    kept.push(encode_checkpoint(&ckpt));
                }
                2 => {
                    let dead = kept.len().saturating_sub(2);
                    let size = |p: &[Vec<u8>]| p.iter().map(|e| 6 + e.len()).sum::<usize>();
                    let want = if dead > 0 && size(&kept[..dead]) >= size(&kept[dead..]) {
                        kept.drain(..dead);
                        dead
                    } else {
                        0
                    };
                    prop_assert_eq!(store.retire_stale(), want);
                }
                _ => {
                    // Reopen, often crash-cut: the model keeps the
                    // entries that end inside the cut.
                    let bytes = store.as_bytes();
                    let cut = if rng.gen::<bool>() {
                        bytes.len()
                    } else {
                        below(&mut rng, bytes.len() + 1).max(CHECKPOINT_MAGIC.len())
                    };
                    let mut end = CHECKPOINT_MAGIC.len();
                    let intact = kept
                        .iter()
                        .take_while(|e| {
                            end += 6 + e.len();
                            end <= cut
                        })
                        .count();
                    kept.truncate(intact);
                    store = CheckpointStore::from_valid_prefix(&bytes[..cut])
                        .expect("magic intact")
                        .0;
                }
            }
            let mut fresh = CheckpointStore::new();
            for payload in &kept {
                fresh.append(&decode_checkpoint(payload).expect("model payload decodes"));
            }
            prop_assert_eq!(store.as_bytes(), fresh.as_bytes());
            prop_assert_eq!(store.entries(), kept.len() as u64);
            prop_assert_eq!(store.newest_entry_start(), fresh.newest_entry_start());
            if let Some(newest) = kept.last() {
                let watermark = decode_checkpoint(newest).expect("model payload decodes").watermark;
                prop_assert_eq!(store.entry_at(&watermark), Some(newest.as_slice()));
            }
        }
    }
}

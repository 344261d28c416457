//! Durable checkpoint store: per-session engine snapshots plus an
//! ingest-log watermark, persisted with the same CRC-chained entry
//! discipline as [`crate::log`].
//!
//! # Layout
//!
//! ```text
//! [0..8)          magic  b"CTCKPT\x01\n"
//! then per entry:
//!   u32 LE        payload length in bytes
//!   u16 LE        chain CRC: crc16(prev_chain LE bytes || payload)
//!   [u8; length]  one serialized [`Checkpoint`]
//! ```
//!
//! The chain starts at `crc16(magic)`, exactly like the ingest log, so
//! a crash-cut store yields the longest valid prefix of checkpoints and
//! [`recover_latest`] returns the newest one in it. A checkpoint is
//! *durable* once the following append begins; callers compact the
//! ingest log only to the previous durable checkpoint, which keeps the
//! fall-back-one-checkpoint recovery path replayable (see
//! [`crate::segment`]). Entries older than that have lost their log
//! suffix, so [`CheckpointStore::retire_stale`] retires them beside the
//! log compaction and re-chains the entries that stay.
//!
//! # Checkpoint payload (all little-endian)
//!
//! `u16 version` · watermark (`u64 segment`, `u64 offset`, `u16 chain`,
//! `u64 frames`) · `u32 n_sessions` · per session: `u32 id`,
//! `u8 started`, `u16 next_seq`, `u32 last_n`, `u16 n_parked_slots`,
//! per slot `u8 present` (+ `u32 len` + bytes), `u32 snapshot_len` +
//! snapshot bytes. Snapshot bytes are opaque here — the engine's own
//! versioned codec (`BeatStreamSnapshot`) validates them on restore.

use crate::assembler::SessionResume;
use crate::frame::{crc16, crc16_update};
use crate::log::LogError;
use crate::segment::LogPosition;

/// Leading magic of a checkpoint store.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CTCKPT\x01\n";

/// Serialization version of the checkpoint payload.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Sanity ceiling on one checkpoint entry (guards length-prefix
/// corruption from allocating absurd buffers on read).
pub const MAX_CHECKPOINT_ENTRY: usize = 256 * 1024 * 1024;

/// One wire session's durable state: reassembly resume point plus the
/// serialized engine snapshot taken at the watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Wire session identifier.
    pub session: u32,
    /// Reassembly window state at the watermark.
    pub resume: SessionResume,
    /// Serialized `BeatStreamSnapshot` bytes; empty when the session
    /// had reassembly state but no engine stream yet (frames parked
    /// before the first delivery).
    pub snapshot: Vec<u8>,
}

/// One durable recovery point: every session's state at a single
/// ingest-log watermark. Restoring the sessions and replaying the log
/// suffix past the watermark reproduces the uninterrupted run bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Ingest-log position every snapshot is consistent with.
    pub watermark: LogPosition,
    /// Per-session durable state, ordered by session id.
    pub sessions: Vec<SessionCheckpoint>,
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Serializes one checkpoint payload (no framing, no CRC — the store
/// adds those).
#[must_use]
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_size_hint(ckpt));
    encode_checkpoint_into(ckpt, &mut buf);
    buf
}

/// Conservative serialized-size estimate — session snapshots dominate
/// (tens of KB each), so sizing buffers up front avoids memcpying the
/// payload again through doubling reallocs.
fn encoded_size_hint(ckpt: &Checkpoint) -> usize {
    32 + ckpt
        .sessions
        .iter()
        .map(|s| {
            32 + s.snapshot.len()
                + s.resume
                    .parked
                    .iter()
                    .map(|p| 5 + p.as_ref().map_or(0, Vec::len))
                    .sum::<usize>()
        })
        .sum::<usize>()
}

/// Serializes one checkpoint payload onto the end of `buf` — the
/// in-place worker behind [`encode_checkpoint`], used directly by the
/// store to avoid staging multi-hundred-KB entries in a temporary.
pub fn encode_checkpoint_into(ckpt: &Checkpoint, buf: &mut Vec<u8>) {
    buf.reserve(encoded_size_hint(ckpt));
    put_u16(buf, CHECKPOINT_VERSION);
    put_u64(buf, ckpt.watermark.segment);
    put_u64(buf, ckpt.watermark.offset as u64);
    put_u16(buf, ckpt.watermark.chain);
    put_u64(buf, ckpt.watermark.frames);
    put_u32(
        buf,
        u32::try_from(ckpt.sessions.len()).expect("session count fits u32"),
    );
    for s in &ckpt.sessions {
        put_u32(buf, s.session);
        buf.push(u8::from(s.resume.started));
        put_u16(buf, s.resume.next_seq);
        put_u32(
            buf,
            u32::try_from(s.resume.last_n).expect("frame width fits u32"),
        );
        put_u16(
            buf,
            u16::try_from(s.resume.parked.len()).expect("window fits u16"),
        );
        for slot in &s.resume.parked {
            match slot {
                Some(payload) => {
                    buf.push(1);
                    put_u32(buf, u32::try_from(payload.len()).expect("payload fits u32"));
                    buf.extend_from_slice(payload);
                }
                None => buf.push(0),
            }
        }
        put_u32(
            buf,
            u32::try_from(s.snapshot.len()).expect("snapshot fits u32"),
        );
        buf.extend_from_slice(&s.snapshot);
    }
}

/// Reads a payload's version and watermark: the head of
/// [`decode_checkpoint`], without the sessions.
fn decode_head(c: &mut Cursor<'_>) -> Option<LogPosition> {
    if c.u16()? != CHECKPOINT_VERSION {
        return None;
    }
    Some(LogPosition {
        segment: c.u64()?,
        offset: usize::try_from(c.u64()?).ok()?,
        chain: c.u16()?,
        frames: c.u64()?,
    })
}

/// Deserializes one checkpoint payload; `None` for a malformed or
/// version-mismatched buffer.
#[must_use]
pub fn decode_checkpoint(data: &[u8]) -> Option<Checkpoint> {
    let mut c = Cursor { data, pos: 0 };
    let watermark = decode_head(&mut c)?;
    let n_sessions = c.u32()? as usize;
    let mut sessions = Vec::with_capacity(n_sessions.min(4096));
    for _ in 0..n_sessions {
        let session = c.u32()?;
        let started = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let next_seq = c.u16()?;
        let last_n = usize::try_from(c.u32()?).ok()?;
        let n_slots = c.u16()? as usize;
        let mut parked = Vec::with_capacity(n_slots.min(64));
        for _ in 0..n_slots {
            match c.u8()? {
                0 => parked.push(None),
                1 => {
                    let len = c.u32()? as usize;
                    parked.push(Some(c.take(len)?.to_vec()));
                }
                _ => return None,
            }
        }
        let snap_len = c.u32()? as usize;
        let snapshot = c.take(snap_len)?.to_vec();
        sessions.push(SessionCheckpoint {
            session,
            resume: SessionResume {
                started,
                next_seq,
                last_n,
                parked,
            },
            snapshot,
        });
    }
    if c.pos != data.len() {
        return None;
    }
    Some(Checkpoint {
        watermark,
        sessions,
    })
}

/// An entry's chain CRC: `crc16(prev_chain LE bytes || payload)`.
fn chain_crc(prev: u16, payload: &[u8]) -> u16 {
    crc16_update(crc16_update(0xFFFF, &prev.to_le_bytes()), payload)
}

/// Entries [`CheckpointStore::retire_stale`] keeps: the newest
/// checkpoint and the one before it, the only two whose ingest-log
/// suffix survives lag-by-one log compaction.
const LIVE_ENTRIES: usize = 2;

/// In-memory append-only checkpoint store writer.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    buf: Vec<u8>,
    chain: u16,
    /// Payload span of every entry, oldest first.
    spans: Vec<std::ops::Range<usize>>,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointStore {
    /// Creates an empty store (header written).
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: CHECKPOINT_MAGIC.to_vec(),
            chain: crc16(&CHECKPOINT_MAGIC),
            spans: Vec::new(),
        }
    }

    /// Appends one checkpoint; returns the serialized entry size.
    ///
    /// The payload is encoded straight into the store buffer (entries
    /// run to hundreds of KB for a full fleet, so a staging `Vec`
    /// would cost an extra allocation plus copy on the serving path);
    /// the length/CRC header is patched in afterwards.
    pub fn append(&mut self, ckpt: &Checkpoint) -> usize {
        let header_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 6]);
        let payload_at = self.buf.len();
        encode_checkpoint_into(ckpt, &mut self.buf);
        let payload_len = self.buf.len() - payload_at;
        let next = chain_crc(self.chain, &self.buf[payload_at..]);
        let len_le = u32::try_from(payload_len)
            .expect("checkpoint length fits u32")
            .to_le_bytes();
        self.buf[header_at..header_at + 4].copy_from_slice(&len_le);
        self.buf[header_at + 4..header_at + 6].copy_from_slice(&next.to_le_bytes());
        self.chain = next;
        self.spans.push(payload_at..self.buf.len());
        payload_len + 6
    }

    /// Retires every entry older than the previous checkpoint. Callers
    /// compact the ingest log to the previous checkpoint's watermark
    /// (lag-by-one), so those older entries have lost their log suffix
    /// and can never be recovered. Retirement waits until the dead
    /// entries take at least as many bytes as the two that stay, so the
    /// move and re-chain of the kept tail amortise over the appends
    /// that grew the dead prefix. Returns the number of entries retired
    /// (0 while the prefix is still too small).
    ///
    /// The kept entries are re-chained from the header exactly as
    /// [`CheckpointStore::append`] chains them, so the result is
    /// byte-identical to a fresh store that appended only the kept
    /// checkpoints.
    pub fn retire_stale(&mut self) -> usize {
        let dead = self.spans.len().saturating_sub(LIVE_ENTRIES);
        if dead == 0 {
            return 0;
        }
        let cut = self.spans[dead].start - 6;
        let dead_bytes = cut - CHECKPOINT_MAGIC.len();
        if dead_bytes < self.buf.len() - cut {
            return 0;
        }
        let mut chain = crc16(&CHECKPOINT_MAGIC);
        for span in &self.spans[dead..] {
            chain = chain_crc(chain, &self.buf[span.clone()]);
            self.buf[span.start - 2..span.start].copy_from_slice(&chain.to_le_bytes());
        }
        self.chain = chain;
        self.buf.drain(CHECKPOINT_MAGIC.len()..cut);
        self.spans.drain(..dead);
        for span in &mut self.spans {
            *span = span.start - dead_bytes..span.end - dead_bytes;
        }
        dead
    }

    /// Checkpoints held: appended or reopened, minus those retired by
    /// [`CheckpointStore::retire_stale`].
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Byte offset of the newest entry's header: where a crash cut
    /// inside the append in flight falls. `None` for an empty store.
    #[must_use]
    pub fn newest_entry_start(&self) -> Option<usize> {
        self.spans.last().map(|span| span.start - 6)
    }

    /// Payload of the newest entry sealed at `watermark`, found by
    /// reading entry heads only; [`decode_checkpoint`] turns it into
    /// the checkpoint. `None` when no entry held has that watermark.
    #[must_use]
    pub fn entry_at(&self, watermark: &LogPosition) -> Option<&[u8]> {
        self.spans
            .iter()
            .rev()
            .map(|span| &self.buf[span.clone()])
            .find(|payload| {
                let mut head = Cursor {
                    data: payload,
                    pos: 0,
                };
                decode_head(&mut head).as_ref() == Some(watermark)
            })
    }

    /// The serialized store, header included.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Serialized size so far.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Reopens a (possibly crash-cut) serialized store for further
    /// appends: keeps the longest valid prefix, discards the cut tail,
    /// and continues the CRC chain from the last intact entry — so a
    /// recovered process appends to the store it crashed with and older
    /// checkpoints stay recoverable. Also returns the newest decodable
    /// checkpoint in that prefix, exactly as [`recover_latest`] would.
    /// Empty input reopens as a fresh store.
    ///
    /// One CRC walk serves both halves: the prefix it validates is
    /// copied once, and only the newest entries are decoded (see
    /// [`recover_latest`]). The chain continues from the last
    /// CRC-valid entry even when that entry does not decode.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] when non-empty input lacks the magic.
    pub fn from_valid_prefix(data: &[u8]) -> Result<(Self, Option<RecoveredCheckpoint>), LogError> {
        if data.is_empty() {
            return Ok((Self::new(), None));
        }
        let prefix = ValidPrefix::walk(data)?;
        let newest = newest_decodable(data, &prefix.payloads);
        let store = Self {
            buf: data[..prefix.end].to_vec(),
            chain: prefix.chain,
            spans: prefix.payloads,
        };
        Ok((store, newest))
    }
}

/// The newest checkpoint recovered from a (possibly crash-cut) store.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredCheckpoint {
    /// The newest decodable checkpoint in the valid prefix.
    pub checkpoint: Checkpoint,
    /// Zero-based index of that entry among the entries the store
    /// holds — not a seal count once [`CheckpointStore::retire_stale`] has
    /// retired older entries.
    pub index: u64,
    /// Total valid entries read (`index + 1`).
    pub entries: u64,
}

/// The longest CRC-valid prefix of a serialized store: where it ends,
/// the chain CRC there, and the payload span of every entry in it.
struct ValidPrefix {
    end: usize,
    chain: u16,
    payloads: Vec<std::ops::Range<usize>>,
}

impl ValidPrefix {
    /// Validates the magic and walks the CRC chain front to back once,
    /// stopping at the first cut tail, oversize length or chain
    /// mismatch. Decodes nothing.
    fn walk(data: &[u8]) -> Result<Self, LogError> {
        if data.len() < CHECKPOINT_MAGIC.len() || data[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
        {
            return Err(LogError::BadHeader);
        }
        let mut pos = CHECKPOINT_MAGIC.len();
        let mut chain = crc16(&CHECKPOINT_MAGIC);
        let mut payloads = Vec::new();
        while pos < data.len() {
            let rest = &data[pos..];
            if rest.len() < 6 {
                break; // crash-cut tail
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_CHECKPOINT_ENTRY || rest.len() < 6 + len {
                break; // corrupt length or crash-cut tail
            }
            let stored = u16::from_le_bytes(rest[4..6].try_into().expect("2 bytes"));
            let computed = chain_crc(chain, &rest[6..6 + len]);
            if stored != computed {
                break; // corruption: trust only the prefix
            }
            chain = stored;
            payloads.push(pos + 6..pos + 6 + len);
            pos += 6 + len;
        }
        Ok(Self {
            end: pos,
            chain,
            payloads,
        })
    }
}

/// Decodes from the newest entry backward and returns the first that
/// decodes — older entries are never touched when the newest one is
/// intact.
fn newest_decodable(
    data: &[u8],
    payloads: &[std::ops::Range<usize>],
) -> Option<RecoveredCheckpoint> {
    payloads.iter().enumerate().rev().find_map(|(index, span)| {
        let index = index as u64;
        decode_checkpoint(&data[span.clone()]).map(|checkpoint| RecoveredCheckpoint {
            checkpoint,
            index,
            entries: index + 1,
        })
    })
}

/// Returns the newest decodable checkpoint in the longest CRC-valid
/// prefix of a serialized store — the crash-recovery entry point. An
/// interrupted final append simply falls back one checkpoint. The CRC
/// chain is validated front to back once; entries are then decoded
/// from the newest backward, stopping at the first that decodes, so a
/// CRC-valid entry that does not decode falls back to the one before
/// it. `Ok(None)` for an empty store (header only), empty input, or a
/// prefix in which nothing decodes.
///
/// # Errors
///
/// * [`LogError::BadHeader`] when non-empty input lacks the magic.
pub fn recover_latest(data: &[u8]) -> Result<Option<RecoveredCheckpoint>, LogError> {
    if data.is_empty() {
        return Ok(None);
    }
    Ok(newest_decodable(data, &ValidPrefix::walk(data)?.payloads))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint(n: u32) -> Checkpoint {
        Checkpoint {
            watermark: LogPosition {
                segment: u64::from(n),
                offset: 100 + n as usize,
                chain: 0xBEE0 + n as u16,
                frames: u64::from(n) * 7,
            },
            sessions: (0..n)
                .map(|i| SessionCheckpoint {
                    session: i,
                    resume: SessionResume {
                        started: i % 2 == 0,
                        next_seq: (i * 31) as u16,
                        last_n: 125,
                        parked: vec![None, Some(vec![1, 2, 3, i as u8]), None],
                    },
                    snapshot: vec![0xAB; 16 + i as usize],
                })
                .collect(),
        }
    }

    #[test]
    fn payload_round_trips() {
        for n in [0u32, 1, 5] {
            let ckpt = sample_checkpoint(n);
            let bytes = encode_checkpoint(&ckpt);
            assert_eq!(decode_checkpoint(&bytes), Some(ckpt));
        }
        assert_eq!(decode_checkpoint(&[]), None);
        assert_eq!(decode_checkpoint(&[9, 9]), None);
    }

    #[test]
    fn store_recovers_the_newest_entry() {
        let mut store = CheckpointStore::new();
        for n in 1..=4 {
            store.append(&sample_checkpoint(n));
        }
        let got = recover_latest(store.as_bytes()).unwrap().unwrap();
        assert_eq!(got.index, 3);
        assert_eq!(got.entries, 4);
        assert_eq!(got.checkpoint, sample_checkpoint(4));
    }

    #[test]
    fn crash_cut_falls_back_exactly_one_checkpoint() {
        let mut store = CheckpointStore::new();
        store.append(&sample_checkpoint(1));
        store.append(&sample_checkpoint(2));
        let before_last = store.byte_len();
        store.append(&sample_checkpoint(3));
        // Cut at every byte inside the final append: recovery must
        // yield checkpoint 2 (cut mid-entry) or 3 (cut at the end).
        let bytes = store.as_bytes();
        for cut in before_last..bytes.len() {
            let got = recover_latest(&bytes[..cut]).unwrap().unwrap();
            assert_eq!(got.checkpoint, sample_checkpoint(2), "cut at {cut}");
        }
        let full = recover_latest(bytes).unwrap().unwrap();
        assert_eq!(full.checkpoint, sample_checkpoint(3));
    }

    #[test]
    fn empty_and_garbage_inputs() {
        assert_eq!(recover_latest(&[]).unwrap(), None);
        assert_eq!(
            recover_latest(CheckpointStore::new().as_bytes()).unwrap(),
            None
        );
        assert!(matches!(
            recover_latest(b"definitely not a store"),
            Err(LogError::BadHeader)
        ));
    }

    #[test]
    fn reopened_store_continues_the_chain_past_a_cut() {
        let mut store = CheckpointStore::new();
        store.append(&sample_checkpoint(1));
        store.append(&sample_checkpoint(2));
        let mut bytes = store.as_bytes().to_vec();
        bytes.truncate(bytes.len() - 4); // cut inside the last entry
        let (mut reopened, newest) = CheckpointStore::from_valid_prefix(&bytes).unwrap();
        assert_eq!(reopened.entries(), 1);
        assert_eq!(newest.unwrap().checkpoint, sample_checkpoint(1));
        reopened.append(&sample_checkpoint(3));
        let got = recover_latest(reopened.as_bytes()).unwrap().unwrap();
        assert_eq!(got.checkpoint, sample_checkpoint(3));
        assert_eq!(got.entries, 2);
    }

    #[test]
    fn compaction_waits_for_a_dead_prefix_as_large_as_the_kept_tail() {
        // Equal-sized entries told apart by their watermark.
        let sealed = |k: u64| {
            let mut ckpt = sample_checkpoint(4);
            ckpt.watermark.frames = k;
            ckpt
        };
        let mut store = CheckpointStore::new();
        for k in 1..=3 {
            store.append(&sealed(k));
            // One dead entry against two kept ones: too small to move.
            assert_eq!(store.retire_stale(), 0, "after seal {k}");
        }
        store.append(&sealed(4));
        assert_eq!(store.retire_stale(), 2);
        let mut fresh = CheckpointStore::new();
        fresh.append(&sealed(3));
        fresh.append(&sealed(4));
        assert_eq!(store.as_bytes(), fresh.as_bytes());
        assert_eq!(store.entries(), 2);
        assert_eq!(store.newest_entry_start(), fresh.newest_entry_start());
        assert_eq!(
            store.entry_at(&sealed(3).watermark),
            Some(encode_checkpoint(&sealed(3)).as_slice())
        );
        assert_eq!(store.entry_at(&sealed(2).watermark), None);
        // The re-chained tail keeps chaining like a fresh store.
        store.append(&sealed(5));
        fresh.append(&sealed(5));
        assert_eq!(store.as_bytes(), fresh.as_bytes());
    }

    #[test]
    fn corruption_truncates_to_the_valid_prefix() {
        let mut store = CheckpointStore::new();
        store.append(&sample_checkpoint(1));
        store.append(&sample_checkpoint(2));
        let mut bytes = store.as_bytes().to_vec();
        // Flip one payload byte inside the second entry.
        let target = bytes.len() - 3;
        bytes[target] ^= 0x40;
        let got = recover_latest(&bytes).unwrap().unwrap();
        assert_eq!(got.checkpoint, sample_checkpoint(1));
        assert_eq!(got.entries, 1);
    }
}

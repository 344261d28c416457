//! Size/entry-bounded ingest-log segments with checkpoint-driven
//! compaction.
//!
//! A single [`crate::log::IngestLog`] grows forever; a fleet serving
//! long-lived sessions needs the log bounded. [`SegmentedLog`] rotates
//! the append stream into a chain of independent segments — each a
//! self-contained CRC-chained [`IngestLog`] with its own header — and
//! retires whole segments once a durable checkpoint covers them.
//!
//! # Watermark/compaction invariant
//!
//! A [`LogPosition`] records `(segment id, byte offset, chain CRC,
//! frames)` — everything [`crate::log::LogReader::resume`] needs to
//! validate and replay the suffix past it. Compaction
//! ([`SegmentedLog::compact`]) retires only segments whose id is
//! strictly below the watermark's, so replay from any retained
//! watermark always finds its suffix. Callers compact to the *previous*
//! durable checkpoint when sealing a new one: a crash can truncate the
//! checkpoint being written, and recovery then falls back exactly one
//! checkpoint — whose suffix is still on disk.
//!
//! Because each segment restarts the chain from its own header, an
//! arbitrary crash cut in the active (last) segment still yields a
//! clean valid prefix per segment, and earlier segments are untouched.

use std::collections::VecDeque;

use crate::log::{IngestLog, LogError, LogPrefix, LogReader, LOG_MAGIC};

/// Rotation bounds for one segment. A segment rotates when appending
/// one more frame would exceed either bound (a segment always accepts
/// at least one frame, so an oversized frame still lands somewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPolicy {
    /// Rotate when a segment's serialized size would pass this.
    pub max_bytes: usize,
    /// Rotate when a segment holds this many frames.
    pub max_frames: u64,
}

impl SegmentPolicy {
    /// Default bounds: 64 KiB or 256 frames per segment.
    pub const DEFAULT: Self = Self {
        max_bytes: 64 * 1024,
        max_frames: 256,
    };
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A replayable position in a [`SegmentedLog`] — the ingest-log half of
/// a checkpoint watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPosition {
    /// Segment the position points into.
    pub segment: u64,
    /// Byte offset within that segment (end of the last covered entry).
    pub offset: usize,
    /// Chain CRC at `offset`, seeding suffix validation.
    pub chain: u16,
    /// Frames read within that segment up to `offset`.
    pub frames: u64,
}

/// One rotation unit: an id plus a self-contained [`IngestLog`].
#[derive(Debug, Clone)]
pub struct Segment {
    id: u64,
    log: IngestLog,
}

impl Segment {
    /// Monotonic segment identifier (never reused after compaction).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The segment's serialized bytes, header included.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        self.log.as_bytes()
    }

    /// Frames in this segment.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.log.frames()
    }
}

/// Outcome of a suffix replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuffixReplay {
    /// Frames delivered past the watermark.
    pub frames: u64,
    /// `true` when the final segment ended in a crash cut (truncated
    /// mid-entry) — expected after an interrupted append, not an error.
    pub truncated: bool,
}

/// Rotating, compactable chain of ingest-log segments.
#[derive(Debug, Clone)]
pub struct SegmentedLog {
    segments: VecDeque<Segment>,
    policy: SegmentPolicy,
    /// Frames appended over the log's whole lifetime, retired segments
    /// included.
    appended: u64,
    /// Bytes ever appended, retired segments included.
    appended_bytes: u64,
    /// Segments retired by compaction so far.
    retired: u64,
}

impl SegmentedLog {
    /// Creates an empty segmented log whose first segment has id 0.
    #[must_use]
    pub fn new(policy: SegmentPolicy) -> Self {
        Self::with_base(policy, 0)
    }

    /// Creates an empty segmented log whose first segment has id
    /// `base` — recovery continues the id sequence past the segments it
    /// loaded, so old and new segment files never collide.
    #[must_use]
    pub fn with_base(policy: SegmentPolicy, base: u64) -> Self {
        let mut segments = VecDeque::new();
        segments.push_back(Segment {
            id: base,
            log: IngestLog::with_capacity(policy.max_bytes),
        });
        Self {
            segments,
            policy,
            appended: 0,
            appended_bytes: 0,
            retired: 0,
        }
    }

    /// Rebuilds a segmented log from `(id, bytes)` pairs, e.g. segment
    /// files read back after a crash. Ids must be strictly increasing;
    /// every segment but the last must be fully valid, while the last
    /// keeps its longest valid prefix (an interrupted append cuts only
    /// the active segment's tail).
    ///
    /// Each segment restarts its chain from its own header, so the
    /// segments' CRC chains are validated independently, on up to
    /// [`std::thread::available_parallelism`] scoped threads, and the
    /// valid prefixes are then copied on the calling thread. The error
    /// returned is the one a front-to-back walk meets first.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] for an empty input, ids out of order,
    ///   or a segment whose magic is absent;
    /// * the first violation inside a non-final segment.
    pub fn from_segments(
        policy: SegmentPolicy,
        parts: &[(u64, Vec<u8>)],
    ) -> Result<Self, LogError> {
        if parts.is_empty() {
            return Err(LogError::BadHeader);
        }
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(parts.len());
        let per_worker = parts.len().div_ceil(workers);
        let validated: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .chunks(per_worker)
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|(_, bytes)| LogPrefix::scan(bytes))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("segment validation does not panic"))
                .collect()
        });
        let mut segments = VecDeque::with_capacity(parts.len());
        let mut appended = 0u64;
        let mut appended_bytes = 0u64;
        let last = parts.len() - 1;
        let mut prev_id: Option<u64> = None;
        for (i, ((id, bytes), scanned)) in parts.iter().zip(validated).enumerate() {
            if prev_id.is_some_and(|p| *id <= p) {
                return Err(LogError::BadHeader);
            }
            prev_id = Some(*id);
            let prefix = scanned?;
            if let Some(e) = prefix.trimmed {
                // Only the active segment may carry a crash cut.
                if i != last {
                    return Err(e);
                }
            }
            // Copied on this thread: the copies outlive the scoped
            // threads, and memory allocated on them would stay in
            // their allocator arenas after they exit.
            let log = IngestLog::from_scanned(bytes, &prefix);
            appended += log.frames();
            appended_bytes += (log.byte_len() - LOG_MAGIC.len()) as u64;
            segments.push_back(Segment { id: *id, log });
        }
        Ok(Self {
            segments,
            policy,
            appended,
            appended_bytes,
            retired: 0,
        })
    }

    fn active(&self) -> &Segment {
        self.segments
            .back()
            .expect("a segmented log is never empty")
    }

    /// Appends one accepted frame, rotating first when the active
    /// segment is full.
    pub fn append(&mut self, frame: &[u8]) {
        let rotate = {
            let seg = self.active();
            seg.log.frames() > 0
                && (seg.log.frames() >= self.policy.max_frames
                    || seg.log.byte_len() + frame.len() > self.policy.max_bytes)
        };
        if rotate {
            let next = self.active().id + 1;
            self.segments.push_back(Segment {
                id: next,
                log: IngestLog::with_capacity(self.policy.max_bytes),
            });
        }
        let seg = self.segments.back_mut().expect("active segment");
        let before = seg.log.byte_len();
        seg.log.append(frame);
        self.appended += 1;
        self.appended_bytes += (seg.log.byte_len() - before) as u64;
    }

    /// The current end of the log — what a checkpoint records as its
    /// watermark.
    #[must_use]
    pub fn position(&self) -> LogPosition {
        let seg = self.active();
        LogPosition {
            segment: seg.id,
            offset: seg.log.byte_len(),
            chain: seg.log.chain(),
            frames: seg.log.frames(),
        }
    }

    /// The very start of the retained log — replaying from here yields
    /// every retained frame.
    #[must_use]
    pub fn start_position(&self) -> LogPosition {
        let seg = self
            .segments
            .front()
            .expect("a segmented log is never empty");
        LogPosition {
            segment: seg.id,
            offset: LOG_MAGIC.len(),
            chain: crate::frame::crc16(&LOG_MAGIC),
            frames: 0,
        }
    }

    /// Retires every segment strictly below the watermark's segment —
    /// those are fully covered by the checkpoint that recorded it.
    /// Returns the number of segments retired.
    pub fn compact(&mut self, up_to: &LogPosition) -> usize {
        let mut n = 0;
        while self
            .segments
            .front()
            .is_some_and(|s| s.id < up_to.segment && self.segments.len() > 1)
        {
            self.segments.pop_front();
            n += 1;
        }
        self.retired += n as u64;
        n
    }

    /// Checks that `from` points into a retained segment — the
    /// precondition [`SegmentedLog::replay_from`] checks first, cheap
    /// enough for a recovery to check before it starts any other work.
    ///
    /// # Errors
    ///
    /// * [`LogError::MissingSegment`] when `from` points below the
    ///   oldest retained segment (the compaction invariant was broken).
    pub fn check_retained(&self, from: &LogPosition) -> Result<(), LogError> {
        let oldest = self.segments.front().expect("non-empty").id;
        if from.segment < oldest {
            return Err(LogError::MissingSegment {
                segment: from.segment,
            });
        }
        Ok(())
    }

    /// Replays every retained frame past `from`, calling `f` once per
    /// frame. A watermark at or past a crash cut simply has nothing to
    /// replay there; the re-feed path covers the remainder.
    ///
    /// # Errors
    ///
    /// * [`LogError::MissingSegment`] when `from` points below the
    ///   oldest retained segment (the compaction invariant was broken);
    /// * chain/oversize violations inside a non-final segment, or any
    ///   violation other than a final-segment truncation.
    pub fn replay_from<F>(&self, from: &LogPosition, mut f: F) -> Result<SuffixReplay, LogError>
    where
        F: FnMut(&[u8]),
    {
        self.check_retained(from)?;
        let mut frames = 0u64;
        let mut truncated = false;
        let last_idx = self.segments.len() - 1;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.id < from.segment {
                continue;
            }
            let bytes = seg.bytes();
            let mut reader = if seg.id == from.segment {
                if from.offset >= bytes.len() {
                    // The watermark lies at or past this segment's
                    // (possibly crash-cut) end: nothing to replay here.
                    continue;
                }
                LogReader::resume(bytes, from.offset, from.chain, from.frames)?
            } else {
                LogReader::new(bytes)?
            };
            while let Some(frame) = reader.next_frame() {
                f(frame);
                frames += 1;
            }
            match reader.error() {
                None => {}
                Some(LogError::Truncated { .. }) if i == last_idx => truncated = true,
                Some(e) => return Err(e),
            }
        }
        Ok(SuffixReplay { frames, truncated })
    }

    /// Retained segments, oldest first.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }

    /// Retained segments right now.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Serialized bytes currently retained across all segments.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.log.byte_len()).sum()
    }

    /// Frames appended over the log's lifetime (retired included).
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.appended
    }

    /// Entry bytes appended over the log's lifetime (retired included,
    /// headers excluded) — what an unsegmented log would have grown to.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Segments retired by compaction over the log's lifetime.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn sample_frame(seq: u16) -> Vec<u8> {
        let ecg = [f64::from(seq); 8];
        let z = [400.0 + f64::from(seq); 8];
        let mut out = Vec::new();
        encode_frame(3, seq, &ecg, &z, &mut out).unwrap();
        out
    }

    fn tiny_policy() -> SegmentPolicy {
        SegmentPolicy {
            max_bytes: 512,
            max_frames: 3,
        }
    }

    #[test]
    fn rotation_bounds_segments_and_preserves_order() {
        let mut log = SegmentedLog::new(tiny_policy());
        let frames: Vec<Vec<u8>> = (0..10).map(sample_frame).collect();
        for fr in &frames {
            log.append(fr);
        }
        assert!(log.segment_count() >= 4, "3-frame segments must rotate");
        for seg in log.segments() {
            assert!(seg.frames() <= 3);
        }
        let mut got = Vec::new();
        log.replay_from(&log.start_position(), |f| got.push(f.to_vec()))
            .unwrap();
        assert_eq!(got, frames);
    }

    #[test]
    fn replay_from_watermark_yields_exactly_the_suffix() {
        let mut log = SegmentedLog::new(tiny_policy());
        for seq in 0..5 {
            log.append(&sample_frame(seq));
        }
        let mark = log.position();
        for seq in 5..12 {
            log.append(&sample_frame(seq));
        }
        let mut got = Vec::new();
        let replay = log.replay_from(&mark, |f| got.push(f.to_vec())).unwrap();
        assert_eq!(replay.frames, 7);
        assert!(!replay.truncated);
        assert_eq!(got, (5..12).map(sample_frame).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_retires_only_covered_segments() {
        let mut log = SegmentedLog::new(tiny_policy());
        for seq in 0..9 {
            log.append(&sample_frame(seq));
        }
        let mark = log.position();
        for seq in 9..12 {
            log.append(&sample_frame(seq));
        }
        let before = log.segment_count();
        let retired = log.compact(&mark);
        assert!(retired > 0);
        assert_eq!(log.segment_count(), before - retired);
        assert_eq!(log.retired(), retired as u64);
        // The suffix past the watermark is fully intact.
        let mut got = Vec::new();
        log.replay_from(&mark, |f| got.push(f.to_vec())).unwrap();
        assert_eq!(got, (9..12).map(sample_frame).collect::<Vec<_>>());
        // But replaying from below the oldest retained segment fails
        // loudly rather than silently skipping data.
        let before_start = LogPosition {
            segment: 0,
            offset: LOG_MAGIC.len(),
            chain: crate::frame::crc16(&LOG_MAGIC),
            frames: 0,
        };
        if log.start_position().segment > 0 {
            assert!(matches!(
                log.replay_from(&before_start, |_| {}),
                Err(LogError::MissingSegment { segment: 0 })
            ));
        }
    }

    #[test]
    fn crash_cut_active_segment_round_trips_through_from_segments() {
        let mut log = SegmentedLog::new(tiny_policy());
        for seq in 0..8 {
            log.append(&sample_frame(seq));
        }
        let mut parts: Vec<(u64, Vec<u8>)> = log
            .segments()
            .map(|s| (s.id(), s.bytes().to_vec()))
            .collect();
        // Crash-cut the active segment mid-entry.
        let tail = parts.last_mut().unwrap();
        let keep = tail.1.len() - 5;
        tail.1.truncate(keep);
        let rebuilt = SegmentedLog::from_segments(tiny_policy(), &parts).unwrap();
        let mut got = Vec::new();
        let replay = rebuilt
            .replay_from(&rebuilt.start_position(), |f| got.push(f.to_vec()))
            .unwrap();
        assert_eq!(replay.frames, 7, "the cut entry is dropped, prefix kept");
        assert_eq!(got, (0..7).map(sample_frame).collect::<Vec<_>>());
    }

    #[test]
    fn from_segments_rejects_disorder_and_mid_chain_cuts() {
        let mut log = SegmentedLog::new(tiny_policy());
        for seq in 0..8 {
            log.append(&sample_frame(seq));
        }
        let parts: Vec<(u64, Vec<u8>)> = log
            .segments()
            .map(|s| (s.id(), s.bytes().to_vec()))
            .collect();
        let mut swapped = parts.clone();
        swapped.swap(0, 1);
        assert!(SegmentedLog::from_segments(tiny_policy(), &swapped).is_err());
        // A cut in a non-final segment is corruption, not a crash.
        let mut cut_inner = parts;
        let keep = cut_inner[0].1.len() - 3;
        cut_inner[0].1.truncate(keep);
        assert!(SegmentedLog::from_segments(tiny_policy(), &cut_inner).is_err());
    }

    #[test]
    fn from_segments_reports_the_first_bad_segment_in_order() {
        let mut log = SegmentedLog::new(tiny_policy());
        for seq in 0..20 {
            log.append(&sample_frame(seq));
        }
        let parts: Vec<(u64, Vec<u8>)> = log
            .segments()
            .map(|s| (s.id(), s.bytes().to_vec()))
            .collect();
        assert!(parts.len() >= 6);
        // A flipped byte in segment 2, a cut in segment 4 and ids out of
        // order at 5: the walk in segment order meets segment 2 first,
        // whichever thread validated which segment.
        let mut bad = parts.clone();
        let at = bad[2].1.len() - 3;
        bad[2].1[at] ^= 0x40;
        let keep = bad[4].1.len() - 3;
        bad[4].1.truncate(keep);
        bad[5].0 = 0;
        let (_, first) = IngestLog::from_valid_prefix(&bad[2].1).unwrap();
        assert!(matches!(first, Some(LogError::ChainMismatch { .. })));
        assert_eq!(
            SegmentedLog::from_segments(tiny_policy(), &bad).err(),
            first
        );
        // Ids out of order before any corruption win instead.
        let mut disorder_first = bad;
        disorder_first[1].0 = 0;
        assert_eq!(
            SegmentedLog::from_segments(tiny_policy(), &disorder_first).err(),
            Some(LogError::BadHeader)
        );
    }

    #[test]
    fn with_base_continues_the_id_sequence() {
        let log = SegmentedLog::with_base(SegmentPolicy::DEFAULT, 17);
        assert_eq!(log.position().segment, 17);
    }
}

//! Append-only replayable ingest log.
//!
//! # Layout
//!
//! ```text
//! [0..8)          magic  b"CTILOG\x01\n"
//! then per entry:
//!   u32 LE        frame length in bytes
//!   u16 LE        chain CRC: crc16(prev_chain LE bytes || frame bytes)
//!   [u8; length]  the accepted frame, verbatim
//! ```
//!
//! The chain starts at `crc16(magic)`. Because every entry's CRC covers
//! the previous chain value, the log is tamper- and truncation-evident:
//! a reader validates entries front to back and stops at the first
//! violation, yielding the longest valid prefix — which is exactly the
//! crash-recovery contract (an interrupted append leaves a clean prefix).
//!
//! Frames are appended at the **acceptance point**: after the wire
//! decoder validates a frame's CRC but before reassembly. Replaying the
//! log therefore feeds the identical frame sequence through the identical
//! reassembly policy, making replay bitwise-equal to the live run even
//! under loss and reordering.

use crate::frame::{crc16, crc16_update, MAX_FRAME_LEN};

/// Leading magic of an ingest log.
pub const LOG_MAGIC: [u8; 8] = *b"CTILOG\x01\n";

/// Per-entry overhead: u32 length prefix + u16 chain CRC.
pub const ENTRY_OVERHEAD: usize = 6;

/// Ingest-log read failures. Reads stop at the first violation; the
/// entries before it remain trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogError {
    /// The buffer does not start with [`LOG_MAGIC`].
    BadHeader,
    /// The log ends mid-entry (e.g. an interrupted append).
    Truncated {
        /// Byte offset of the incomplete entry.
        offset: usize,
    },
    /// An entry's chain CRC does not match — corruption or tampering.
    ChainMismatch {
        /// Index of the offending entry.
        index: u64,
        /// Byte offset of the offending entry.
        offset: usize,
    },
    /// An entry declares a length above [`MAX_FRAME_LEN`].
    Oversize {
        /// Byte offset of the offending entry.
        offset: usize,
        /// Declared length.
        len: u32,
    },
    /// A replay watermark points into a segment the log no longer
    /// holds — compaction retired something a checkpoint still needs,
    /// which violates the watermark/compaction invariant.
    MissingSegment {
        /// Identifier of the absent segment.
        segment: u64,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadHeader => write!(f, "ingest log header magic mismatch"),
            Self::Truncated { offset } => {
                write!(f, "ingest log truncated mid-entry at byte {offset}")
            }
            Self::ChainMismatch { index, offset } => {
                write!(
                    f,
                    "ingest log chain CRC mismatch at entry {index} (byte {offset})"
                )
            }
            Self::Oversize { offset, len } => {
                write!(
                    f,
                    "ingest log entry at byte {offset} declares oversize length {len}"
                )
            }
            Self::MissingSegment { segment } => {
                write!(f, "ingest log segment {segment} was compacted away")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// In-memory append-only ingest log writer.
#[derive(Debug, Clone)]
pub struct IngestLog {
    buf: Vec<u8>,
    chain: u16,
    frames: u64,
}

impl Default for IngestLog {
    fn default() -> Self {
        Self::new()
    }
}

impl IngestLog {
    /// Creates an empty log (header written).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty log whose buffer is sized for `cap` bytes up
    /// front. Segmented sinks know their rotation bound, so sizing the
    /// buffer once avoids the doubling-realloc copies a fresh segment
    /// would otherwise pay on the per-frame append path.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = Vec::with_capacity(cap.max(LOG_MAGIC.len()));
        buf.extend_from_slice(&LOG_MAGIC);
        Self {
            buf,
            chain: crc16(&LOG_MAGIC),
            frames: 0,
        }
    }

    /// Appends one accepted frame.
    pub fn append(&mut self, frame: &[u8]) {
        let next = crc16_update(crc16_update(0xFFFF, &self.chain.to_le_bytes()), frame);
        self.buf.extend_from_slice(
            &u32::try_from(frame.len())
                .expect("frame length fits u32")
                .to_le_bytes(),
        );
        self.buf.extend_from_slice(&next.to_le_bytes());
        self.buf.extend_from_slice(frame);
        self.chain = next;
        self.frames += 1;
    }

    /// Frames appended so far.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Serialized size so far, header included.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Current chain CRC — together with [`IngestLog::byte_len`] this
    /// is the resume point a checkpoint watermark records.
    #[must_use]
    pub fn chain(&self) -> u16 {
        self.chain
    }

    /// Rebuilds a writer from serialized bytes, keeping only the
    /// longest valid prefix (so a crash-cut segment can keep accepting
    /// appends after recovery). Returns the writer plus the violation
    /// that trimmed the tail, if any.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] when the magic is absent.
    pub fn from_valid_prefix(data: &[u8]) -> Result<(Self, Option<LogError>), LogError> {
        let prefix = LogPrefix::scan(data)?;
        Ok((Self::from_scanned(data, &prefix), prefix.trimmed))
    }

    /// The writer over the valid prefix of `data` that
    /// [`LogPrefix::scan`] found there; copies the prefix once.
    pub(crate) fn from_scanned(data: &[u8], prefix: &LogPrefix) -> Self {
        Self {
            buf: data[..prefix.len].to_vec(),
            chain: prefix.chain,
            frames: prefix.frames,
        }
    }

    /// The serialized log, header included.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the serialized log.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Where a serialized log's longest valid prefix ends, found by one
/// validating walk that copies nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogPrefix {
    len: usize,
    chain: u16,
    frames: u64,
    /// The violation that ends the prefix before the data ends, if any.
    pub(crate) trimmed: Option<LogError>,
}

impl LogPrefix {
    /// Validates `data` front to back, stopping at the first violation.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] when the magic is absent.
    pub(crate) fn scan(data: &[u8]) -> Result<Self, LogError> {
        let mut reader = LogReader::new(data)?;
        while reader.next_frame().is_some() {}
        Ok(Self {
            len: reader.valid_prefix_len(),
            chain: reader.chain,
            frames: reader.frames,
            trimmed: reader.error(),
        })
    }
}

/// Validating front-to-back ingest-log reader. Yields frames until the
/// end of the log or the first violation, whichever comes first.
#[derive(Debug)]
pub struct LogReader<'a> {
    data: &'a [u8],
    pos: usize,
    chain: u16,
    frames: u64,
    error: Option<LogError>,
}

impl<'a> LogReader<'a> {
    /// Opens a serialized log.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] when the magic is absent.
    pub fn new(data: &'a [u8]) -> Result<Self, LogError> {
        if data.len() < LOG_MAGIC.len() || data[..LOG_MAGIC.len()] != LOG_MAGIC {
            return Err(LogError::BadHeader);
        }
        Ok(Self {
            data,
            pos: LOG_MAGIC.len(),
            chain: crc16(&LOG_MAGIC),
            frames: 0,
            error: None,
        })
    }

    /// Opens a serialized log at a previously validated position —
    /// `(offset, chain, frames)` as recorded by a checkpoint watermark
    /// — so a recovery replays only the suffix past the watermark. The
    /// chain CRC discipline still validates every suffix entry.
    ///
    /// # Errors
    ///
    /// * [`LogError::BadHeader`] when the magic is absent or `offset`
    ///   lies before the header or past the end of `data`.
    pub fn resume(
        data: &'a [u8],
        offset: usize,
        chain: u16,
        frames: u64,
    ) -> Result<Self, LogError> {
        if data.len() < LOG_MAGIC.len() || data[..LOG_MAGIC.len()] != LOG_MAGIC {
            return Err(LogError::BadHeader);
        }
        if offset < LOG_MAGIC.len() || offset > data.len() {
            return Err(LogError::BadHeader);
        }
        Ok(Self {
            data,
            pos: offset,
            chain,
            frames,
            error: None,
        })
    }

    /// Returns the next validated frame, or `None` at the end of the
    /// valid prefix (check [`LogReader::error`] to distinguish a clean
    /// end from corruption).
    pub fn next_frame(&mut self) -> Option<&'a [u8]> {
        if self.error.is_some() || self.pos == self.data.len() {
            return None;
        }
        let offset = self.pos;
        let rest = &self.data[offset..];
        if rest.len() < ENTRY_OVERHEAD {
            self.error = Some(LogError::Truncated { offset });
            return None;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if len as usize > MAX_FRAME_LEN {
            self.error = Some(LogError::Oversize { offset, len });
            return None;
        }
        let stored = u16::from_le_bytes(rest[4..6].try_into().expect("2 bytes"));
        let end = ENTRY_OVERHEAD + len as usize;
        if rest.len() < end {
            self.error = Some(LogError::Truncated { offset });
            return None;
        }
        let frame = &rest[ENTRY_OVERHEAD..end];
        let computed = crc16_update(crc16_update(0xFFFF, &self.chain.to_le_bytes()), frame);
        if stored != computed {
            self.error = Some(LogError::ChainMismatch {
                index: self.frames,
                offset,
            });
            return None;
        }
        self.chain = stored;
        self.frames += 1;
        self.pos = offset + end;
        Some(frame)
    }

    /// Frames successfully read so far.
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// Byte length of the valid prefix consumed so far — what crash
    /// recovery would keep.
    #[must_use]
    pub fn valid_prefix_len(&self) -> usize {
        self.pos
    }

    /// The violation that stopped reading, if any.
    #[must_use]
    pub fn error(&self) -> Option<LogError> {
        self.error
    }
}

impl<'a> Iterator for LogReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn sample_frame(seq: u16) -> Vec<u8> {
        let ecg = [f64::from(seq); 3];
        let z = [400.0 + f64::from(seq); 3];
        let mut out = Vec::new();
        encode_frame(5, seq, &ecg, &z, &mut out).unwrap();
        out
    }

    #[test]
    fn log_round_trips_frames_verbatim() {
        let frames: Vec<Vec<u8>> = (0..6).map(sample_frame).collect();
        let mut log = IngestLog::new();
        for fr in &frames {
            log.append(fr);
        }
        assert_eq!(log.frames(), 6);
        let bytes = log.into_bytes();
        let mut reader = LogReader::new(&bytes).unwrap();
        let got: Vec<Vec<u8>> = reader.by_ref().map(<[u8]>::to_vec).collect();
        assert_eq!(got, frames);
        assert_eq!(reader.error(), None);
        assert_eq!(reader.valid_prefix_len(), bytes.len());
    }

    #[test]
    fn truncation_yields_valid_prefix() {
        let mut log = IngestLog::new();
        for seq in 0..4 {
            log.append(&sample_frame(seq));
        }
        let bytes = log.as_bytes();
        // Cut mid-way through the final entry, as a crash would.
        let cut = &bytes[..bytes.len() - 10];
        let mut reader = LogReader::new(cut).unwrap();
        let n = reader.by_ref().count();
        assert_eq!(n, 3);
        assert!(matches!(reader.error(), Some(LogError::Truncated { .. })));
        // The valid prefix re-reads cleanly end to end.
        let prefix = &cut[..reader.valid_prefix_len()];
        let mut again = LogReader::new(prefix).unwrap();
        assert_eq!(again.by_ref().count(), 3);
        assert_eq!(again.error(), None);
    }

    #[test]
    fn corruption_breaks_the_chain() {
        let mut log = IngestLog::new();
        for seq in 0..4 {
            log.append(&sample_frame(seq));
        }
        let mut bytes = log.into_bytes();
        // Flip one payload byte inside the second entry.
        let entry_len = ENTRY_OVERHEAD + sample_frame(0).len();
        let target = LOG_MAGIC.len() + entry_len + ENTRY_OVERHEAD + 14;
        bytes[target] ^= 0x01;
        let mut reader = LogReader::new(&bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        assert!(matches!(
            reader.error(),
            Some(LogError::ChainMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn splice_of_valid_entries_is_detected() {
        // Build two logs and splice an entry of B after A's first entry:
        // every entry is individually well-formed, but the chain breaks.
        let mut a = IngestLog::new();
        a.append(&sample_frame(0));
        let mut b = IngestLog::new();
        b.append(&sample_frame(9));
        let entry_b = &b.as_bytes()[LOG_MAGIC.len()..];
        let mut spliced = a.as_bytes().to_vec();
        spliced.extend_from_slice(entry_b);
        let mut reader = LogReader::new(&spliced).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        assert!(matches!(
            reader.error(),
            Some(LogError::ChainMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn resume_reads_exactly_the_suffix() {
        let mut log = IngestLog::new();
        for seq in 0..3 {
            log.append(&sample_frame(seq));
        }
        // Watermark taken mid-log.
        let (offset, chain, frames) = (log.byte_len(), log.chain(), log.frames());
        for seq in 3..7 {
            log.append(&sample_frame(seq));
        }
        let bytes = log.as_bytes();
        let mut reader = LogReader::resume(bytes, offset, chain, frames).unwrap();
        let got: Vec<Vec<u8>> = reader.by_ref().map(<[u8]>::to_vec).collect();
        assert_eq!(got, (3..7).map(sample_frame).collect::<Vec<_>>());
        assert_eq!(reader.error(), None);
        assert_eq!(reader.frames_read(), 7);
    }

    #[test]
    fn from_valid_prefix_resumes_appends_after_a_cut() {
        let mut log = IngestLog::new();
        for seq in 0..4 {
            log.append(&sample_frame(seq));
        }
        let cut = &log.as_bytes()[..log.byte_len() - 7];
        let (mut rebuilt, trimmed) = IngestLog::from_valid_prefix(cut).unwrap();
        assert!(matches!(trimmed, Some(LogError::Truncated { .. })));
        assert_eq!(rebuilt.frames(), 3);
        // The rebuilt writer keeps the chain alive: further appends
        // read back as one continuous valid log.
        rebuilt.append(&sample_frame(99));
        let bytes = rebuilt.into_bytes();
        let mut reader = LogReader::new(&bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 4);
        assert_eq!(reader.error(), None);
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(matches!(
            LogReader::new(b"nonsense"),
            Err(LogError::BadHeader)
        ));
    }
}

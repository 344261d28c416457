//! Multiplexed sample-frame wire format and the zero-copy streaming
//! decoder.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic          0xC7 0x1C
//! 2       1     version        WIRE_VERSION (1)
//! 3       1     flags          reserved, 0
//! 4       4     session_id     u32
//! 8       2     sequence       u16, per-session, wraps
//! 10      2     n_samples      u16, <= MAX_SAMPLES_PER_FRAME
//! 12      16*n  payload        n x (ecg f64 LE, z f64 LE)
//! 12+16n  2     crc16          CRC-16/CCITT-FALSE over bytes [0, 12+16n)
//! ```
//!
//! Unlike `uplink::ParameterRecord` framing (fixed 20-byte records, no
//! magic, CRC-8, two-consecutive-valid re-lock), sample frames are
//! variable length and lead with a 2-byte magic, so a single CRC-16-valid
//! candidate suffices to re-lock after corruption: a false re-lock needs
//! both a magic collision and a 16-bit CRC collision.

/// Leading magic bytes of every sample frame.
pub const MAGIC: [u8; 2] = [0xC7, 0x1C];

/// Wire format version emitted by the encoder and required by the
/// decoder.
pub const WIRE_VERSION: u8 = 1;

/// Fixed header length in bytes (magic through `n_samples`).
pub const HEADER_LEN: usize = 12;

/// CRC trailer length in bytes.
pub const CRC_LEN: usize = 2;

/// Bytes per paired sample: one `f64` ECG sample plus one `f64`
/// impedance sample.
pub const BYTES_PER_SAMPLE: usize = 16;

/// Upper bound on `n_samples`, bounding decoder buffering and resync
/// work. 4096 samples is 16.4 s at the paper's 250 Hz — far above any
/// sane transport chunking.
pub const MAX_SAMPLES_PER_FRAME: usize = 4096;

/// Largest possible encoded frame, in bytes.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + MAX_SAMPLES_PER_FRAME * BYTES_PER_SAMPLE + CRC_LEN;

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no
/// final xor) over `data`. `crc16(b"123456789") == 0x29B1`.
#[must_use]
pub fn crc16(data: &[u8]) -> u16 {
    crc16_update(0xFFFF, data)
}

/// Slicing-by-16 lookup tables for CRC-16/CCITT-FALSE, built at
/// compile time. `TABLES[0]` is the classic byte-at-a-time table
/// (each entry the CRC of one byte); `TABLES[k]` is `TABLES[0]`
/// advanced by `k` zero bytes, so sixteen bytes fold into the running
/// CRC with sixteen independent table reads and no inter-byte
/// dependency chain. This sits on the hot path of wire decode,
/// durable log append, and checkpoint sealing, where the bitwise
/// form (eight shift/xor iterations per byte) dominated serving cost.
const CRC16_TABLES: [[u16; 256]; 16] = {
    let mut t = [[0u16; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Continues a CRC-16/CCITT-FALSE computation from a running value.
/// `crc16(x)` is `crc16_update(0xFFFF, x)`.
///
/// Sixteen-byte chunks are folded via slicing-by-16 (~an order of
/// magnitude faster than the definitional bit loop); the tail falls
/// back to the byte-at-a-time table. Only the reads of bytes 0 and 1
/// depend on the running CRC, so the other fourteen are XORed in a
/// balanced tree that overlaps the previous chunk's fold, and the two
/// CRC-dependent reads join last: each chunk then waits on two XORs
/// of the loop-carried value instead of fifteen. Bitwise-identical to
/// the definitional form for every input — the unit tests pin the
/// check value and the `oracle_crc16_fold_equals_bit_loop` property
/// cross-checks random lengths and running values against the
/// bit-loop reference.
#[must_use]
pub fn crc16_update(mut crc: u16, data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let c: &[u8; 16] = c.try_into().expect("chunks_exact yields 16 bytes");
        let at = |k: usize, i: usize| t[k][usize::from(c[i])];
        let mid = ((at(13, 2) ^ at(12, 3)) ^ (at(11, 4) ^ at(10, 5)))
            ^ ((at(9, 6) ^ at(8, 7)) ^ (at(7, 8) ^ at(6, 9)));
        let tail = ((at(5, 10) ^ at(4, 11)) ^ (at(3, 12) ^ at(2, 13))) ^ (at(1, 14) ^ at(0, 15));
        let [hi, lo] = crc.to_be_bytes();
        crc = (mid ^ tail) ^ (t[15][usize::from(c[0] ^ hi)] ^ t[14][usize::from(c[1] ^ lo)]);
    }
    for &b in chunks.remainder() {
        crc = (crc << 8) ^ CRC16_TABLES[0][usize::from((crc >> 8) as u8 ^ b)];
    }
    crc
}

/// Frame encode/decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The buffer ends before the frame does; the prefix seen so far is
    /// still consistent with a valid frame. Streaming decoders buffer
    /// and retry with more bytes.
    Incomplete,
    /// The first bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported wire version.
    BadVersion(u8),
    /// `n_samples` exceeds [`MAX_SAMPLES_PER_FRAME`].
    Oversize(usize),
    /// CRC trailer mismatch.
    BadCrc {
        /// CRC stored in the trailer.
        stored: u16,
        /// CRC computed over the received bytes.
        computed: u16,
    },
    /// Encoder input channels differ in length.
    ChannelLengthMismatch {
        /// ECG samples supplied.
        ecg_len: usize,
        /// Impedance samples supplied.
        z_len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Incomplete => write!(f, "frame truncated: more bytes required"),
            Self::BadMagic => write!(f, "bad frame magic"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::Oversize(n) => write!(
                f,
                "frame declares {n} samples, above the {MAX_SAMPLES_PER_FRAME} cap"
            ),
            Self::BadCrc { stored, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: stored {stored:#06x}, computed {computed:#06x}"
                )
            }
            Self::ChannelLengthMismatch { ecg_len, z_len } => {
                write!(
                    f,
                    "channel length mismatch: {ecg_len} ecg vs {z_len} z samples"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one encoded frame to `out` and returns the number of bytes
/// written.
///
/// # Errors
///
/// * [`FrameError::ChannelLengthMismatch`] when `ecg` and `z` differ in
///   length.
/// * [`FrameError::Oversize`] when more than [`MAX_SAMPLES_PER_FRAME`]
///   samples are supplied.
pub fn encode_frame(
    session: u32,
    seq: u16,
    ecg: &[f64],
    z: &[f64],
    out: &mut Vec<u8>,
) -> Result<usize, FrameError> {
    if ecg.len() != z.len() {
        return Err(FrameError::ChannelLengthMismatch {
            ecg_len: ecg.len(),
            z_len: z.len(),
        });
    }
    if ecg.len() > MAX_SAMPLES_PER_FRAME {
        return Err(FrameError::Oversize(ecg.len()));
    }
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(0); // flags
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(
        &u16::try_from(ecg.len())
            .expect("length capped above")
            .to_le_bytes(),
    );
    for (&e, &zv) in ecg.iter().zip(z) {
        out.extend_from_slice(&e.to_le_bytes());
        out.extend_from_slice(&zv.to_le_bytes());
    }
    let crc = crc16(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out.len() - start)
}

/// Per-session encoder that tracks the wrapping sequence counter — the
/// sim-side producer for one multiplexed session.
#[derive(Debug, Clone)]
pub struct SessionEncoder {
    session: u32,
    next_seq: u16,
}

impl SessionEncoder {
    /// Creates an encoder for `session` starting at sequence 0.
    #[must_use]
    pub fn new(session: u32) -> Self {
        Self {
            session,
            next_seq: 0,
        }
    }

    /// Creates an encoder starting at an arbitrary sequence number
    /// (exercises wrap-around in tests).
    #[must_use]
    pub fn with_start_seq(session: u32, seq: u16) -> Self {
        Self {
            session,
            next_seq: seq,
        }
    }

    /// Session this encoder stamps on every frame.
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Encodes the next frame in sequence, appending to `out`; returns
    /// the sequence number used.
    ///
    /// # Errors
    ///
    /// Propagates [`encode_frame`] errors.
    pub fn push_frame(
        &mut self,
        ecg: &[f64],
        z: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<u16, FrameError> {
        let seq = self.next_seq;
        encode_frame(self.session, seq, ecg, z, out)?;
        self.next_seq = self.next_seq.wrapping_add(1);
        Ok(seq)
    }
}

/// A decoded frame **borrowing** from the input buffer — the zero-copy
/// unit the streaming decoder hands to its sink. Holds the full encoded
/// frame (header, payload, CRC), already validated.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    bytes: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses one frame from the head of `buf`, returning the view and
    /// the number of bytes it occupies.
    ///
    /// # Errors
    ///
    /// * [`FrameError::Incomplete`] when `buf` ends before the frame
    ///   does but is still a plausible prefix.
    /// * [`FrameError::BadMagic`] / [`FrameError::BadVersion`] /
    ///   [`FrameError::Oversize`] / [`FrameError::BadCrc`] on framing
    ///   violations — streaming decoders resync past these.
    pub fn parse(buf: &'a [u8]) -> Result<(Self, usize), FrameError> {
        if buf.is_empty() {
            return Err(FrameError::Incomplete);
        }
        if buf[0] != MAGIC[0] {
            return Err(FrameError::BadMagic);
        }
        if buf.len() < 2 {
            return Err(FrameError::Incomplete);
        }
        if buf[1] != MAGIC[1] {
            return Err(FrameError::BadMagic);
        }
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Incomplete);
        }
        if buf[2] != WIRE_VERSION {
            return Err(FrameError::BadVersion(buf[2]));
        }
        let n = usize::from(u16::from_le_bytes([buf[10], buf[11]]));
        if n > MAX_SAMPLES_PER_FRAME {
            return Err(FrameError::Oversize(n));
        }
        let total = HEADER_LEN + n * BYTES_PER_SAMPLE + CRC_LEN;
        if buf.len() < total {
            return Err(FrameError::Incomplete);
        }
        let stored = u16::from_le_bytes([buf[total - 2], buf[total - 1]]);
        let computed = crc16(&buf[..total - CRC_LEN]);
        if stored != computed {
            return Err(FrameError::BadCrc { stored, computed });
        }
        Ok((
            Self {
                bytes: &buf[..total],
            },
            total,
        ))
    }

    /// Session identifier.
    #[must_use]
    pub fn session(&self) -> u32 {
        u32::from_le_bytes([self.bytes[4], self.bytes[5], self.bytes[6], self.bytes[7]])
    }

    /// Per-session sequence number.
    #[must_use]
    pub fn seq(&self) -> u16 {
        u16::from_le_bytes([self.bytes[8], self.bytes[9]])
    }

    /// Reserved flags byte.
    #[must_use]
    pub fn flags(&self) -> u8 {
        self.bytes[3]
    }

    /// Number of paired samples in the payload.
    #[must_use]
    pub fn n_samples(&self) -> usize {
        usize::from(u16::from_le_bytes([self.bytes[10], self.bytes[11]]))
    }

    /// The `(ecg, z)` pair at sample index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= n_samples()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> (f64, f64) {
        let off = HEADER_LEN + i * BYTES_PER_SAMPLE;
        let ecg = f64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"));
        let z = f64::from_le_bytes(self.bytes[off + 8..off + 16].try_into().expect("8 bytes"));
        (ecg, z)
    }

    /// Decodes the payload, **appending** to the two sample buffers.
    pub fn copy_samples(&self, ecg: &mut Vec<f64>, z: &mut Vec<f64>) {
        copy_payload(self.payload(), ecg, z);
    }

    /// Raw payload bytes (`16 * n_samples` long), borrowed from the
    /// input buffer.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[HEADER_LEN..self.bytes.len() - CRC_LEN]
    }

    /// The complete validated frame bytes — what the ingest log appends.
    #[must_use]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// Decodes a raw payload byte run into the two sample buffers,
/// appending.
pub(crate) fn copy_payload(payload: &[u8], ecg: &mut Vec<f64>, z: &mut Vec<f64>) {
    for pair in payload.chunks_exact(BYTES_PER_SAMPLE) {
        ecg.push(f64::from_le_bytes(pair[..8].try_into().expect("8 bytes")));
        z.push(f64::from_le_bytes(pair[8..].try_into().expect("8 bytes")));
    }
}

/// Running totals of a [`WireDecoder`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// CRC-valid frames emitted.
    pub frames: u64,
    /// Bytes consumed by emitted frames.
    pub bytes: u64,
    /// Times the decoder lost framing and had to hunt for the next
    /// valid frame (one per corruption episode, not per skipped byte).
    pub resyncs: u64,
    /// Bytes discarded while out of sync.
    pub bytes_skipped: u64,
}

/// Streaming frame decoder: push arbitrary byte chunks, get validated
/// [`FrameView`]s.
///
/// Steady state is zero-copy and alloc-free: when a pushed chunk starts
/// on a frame boundary, every complete frame in it is emitted as a view
/// borrowing the caller's buffer, and nothing is copied. Only a frame
/// split across chunks lands in the internal carry buffer (bounded by
/// [`MAX_FRAME_LEN`]); its capacity is retained, so even the split path
/// stops allocating once warm. On corruption the decoder skips forward
/// byte-by-byte until magic plus a valid CRC-16 line up again.
#[derive(Debug, Default)]
pub struct WireDecoder {
    buf: Vec<u8>,
    lost_sync: bool,
    stats: DecodeStats,
}

impl WireDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `chunk` to the decoder, invoking `sink` for every complete
    /// CRC-valid frame, in wire order.
    pub fn push<F>(&mut self, chunk: &[u8], mut sink: F)
    where
        F: FnMut(FrameView<'_>),
    {
        if self.buf.is_empty() {
            let consumed = scan(&mut self.stats, &mut self.lost_sync, chunk, &mut sink);
            if consumed < chunk.len() {
                self.buf.extend_from_slice(&chunk[consumed..]);
            }
        } else {
            self.buf.extend_from_slice(chunk);
            let consumed = {
                let Self {
                    buf,
                    lost_sync,
                    stats,
                } = self;
                scan(stats, lost_sync, buf, &mut sink)
            };
            let len = self.buf.len();
            self.buf.copy_within(consumed..len, 0);
            self.buf.truncate(len - consumed);
        }
    }

    /// Decoder totals so far.
    #[must_use]
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Bytes of a split frame currently carried between pushes.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Capacity of the internal carry buffer — stable across pushes in
    /// steady state, which is what the bench's alloc-free assertion
    /// checks.
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Emits every complete frame at the head of `data`, resyncing past
/// corruption; returns the number of bytes consumed (everything except
/// a trailing plausible-prefix, which the caller carries over).
fn scan<F>(stats: &mut DecodeStats, lost_sync: &mut bool, data: &[u8], sink: &mut F) -> usize
where
    F: FnMut(FrameView<'_>),
{
    let mut pos = 0;
    while pos < data.len() {
        match FrameView::parse(&data[pos..]) {
            Ok((frame, used)) => {
                *lost_sync = false;
                stats.frames += 1;
                stats.bytes += used as u64;
                sink(frame);
                pos += used;
            }
            Err(FrameError::Incomplete) => break,
            Err(_) => {
                if !*lost_sync {
                    *lost_sync = true;
                    stats.resyncs += 1;
                }
                stats.bytes_skipped += 1;
                pos += 1;
            }
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize, salt: f64) -> (Vec<f64>, Vec<f64>) {
        let ecg: Vec<f64> = (0..n).map(|i| (i as f64).sin() + salt).collect();
        let z: Vec<f64> = (0..n).map(|i| 400.0 + (i as f64).cos() * salt).collect();
        (ecg, z)
    }

    #[test]
    fn crc16_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    /// The slicing-by-16 fold must be bitwise-identical to the
    /// definitional bit loop for every length (covering the chunked
    /// body, the tail path, and their seam) and every running value.
    #[test]
    fn crc16_sliced_matches_bitwise_reference() {
        fn reference(mut crc: u16, data: &[u8]) -> u16 {
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
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167).wrapping_add(i >> 3) & 0xFF) as u8)
            .collect();
        for len in 0..data.len() {
            for init in [0x0000, 0xFFFF, 0x29B1, 0x8408] {
                assert_eq!(
                    crc16_update(init, &data[..len]),
                    reference(init, &data[..len]),
                    "mismatch at len={len} init={init:#06x}"
                );
            }
        }
    }

    #[test]
    fn frame_round_trips_bitwise() {
        let (ecg, z) = samples(37, 2.5);
        let mut out = Vec::new();
        let written = encode_frame(9, 4321, &ecg, &z, &mut out).unwrap();
        assert_eq!(written, out.len());
        let (frame, used) = FrameView::parse(&out).unwrap();
        assert_eq!(used, out.len());
        assert_eq!(frame.session(), 9);
        assert_eq!(frame.seq(), 4321);
        assert_eq!(frame.n_samples(), 37);
        let (mut de, mut dz) = (Vec::new(), Vec::new());
        frame.copy_samples(&mut de, &mut dz);
        assert_eq!(
            de.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ecg.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            dz.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn encode_rejects_mismatch_and_oversize() {
        let mut out = Vec::new();
        assert!(matches!(
            encode_frame(0, 0, &[1.0], &[], &mut out),
            Err(FrameError::ChannelLengthMismatch { .. })
        ));
        let big = vec![0.0; MAX_SAMPLES_PER_FRAME + 1];
        assert!(matches!(
            encode_frame(0, 0, &big, &big, &mut out),
            Err(FrameError::Oversize(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_handles_split_frames_across_pushes() {
        let (ecg, z) = samples(50, 1.0);
        let mut wire = Vec::new();
        let mut enc = SessionEncoder::new(3);
        for _ in 0..4 {
            enc.push_frame(&ecg, &z, &mut wire).unwrap();
        }
        let mut got = Vec::new();
        let mut dec = WireDecoder::new();
        // Push in awkward 97-byte slivers: every frame is split.
        for piece in wire.chunks(97) {
            dec.push(piece, |f| got.push((f.session(), f.seq(), f.n_samples())));
        }
        assert_eq!(got, vec![(3, 0, 50), (3, 1, 50), (3, 2, 50), (3, 3, 50)]);
        assert_eq!(dec.stats().frames, 4);
        assert_eq!(dec.stats().resyncs, 0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_resyncs_past_corruption_and_garbage() {
        let (ecg, z) = samples(20, 0.5);
        let mut wire = vec![0xAA, 0xC7, 0x55]; // garbage prefix with a fake magic byte
        let mut enc = SessionEncoder::new(7);
        let first_start = wire.len();
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        let second_start = wire.len();
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        // Corrupt a payload byte of the second frame: its CRC fails.
        wire[second_start + HEADER_LEN + 5] ^= 0x80;
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&wire, |f| seqs.push(f.seq()));
        assert_eq!(seqs, vec![0, 2]);
        let s = dec.stats();
        assert_eq!(s.frames, 2);
        assert_eq!(
            s.resyncs, 2,
            "one for the garbage prefix, one for the corrupted frame"
        );
        assert!(s.bytes_skipped >= (first_start as u64) + (HEADER_LEN as u64));
    }

    #[test]
    fn decoder_steady_state_does_not_grow_buffers() {
        let (ecg, z) = samples(125, 3.0);
        let mut wire = Vec::new();
        let mut enc = SessionEncoder::new(1);
        for _ in 0..8 {
            enc.push_frame(&ecg, &z, &mut wire).unwrap();
        }
        let mut dec = WireDecoder::new();
        let mut n = 0usize;
        dec.push(&wire, |_| n += 1);
        let cap = dec.buffer_capacity();
        for _ in 0..16 {
            dec.push(&wire, |_| n += 1);
        }
        assert_eq!(n, 8 * 17);
        assert_eq!(
            dec.buffer_capacity(),
            cap,
            "aligned pushes must not allocate"
        );
        assert_eq!(cap, 0, "no carry buffer is ever needed on aligned pushes");
    }

    #[test]
    fn version_and_oversize_are_rejected_then_resynced() {
        let (ecg, z) = samples(4, 0.1);
        let mut wire = Vec::new();
        let mut enc = SessionEncoder::new(2);
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        let bad_start = wire.len();
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        wire[bad_start + 2] = 99; // bad version on the second frame
        enc.push_frame(&ecg, &z, &mut wire).unwrap();
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&wire, |f| seqs.push(f.seq()));
        assert_eq!(seqs, vec![0, 2]);
    }
}

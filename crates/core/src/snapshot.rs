//! Serializable [`BeatStream`](crate::stream::BeatStream) state.
//!
//! A [`BeatStreamSnapshot`] is the complete mutable state of the
//! incremental engine — every filter delay line, ring buffer, adaptive
//! threshold, ladder counter and holdover flag — captured between two
//! `push` calls, already encoded. Restoring it into a freshly
//! constructed stream (same
//! [`PipelineConfig`](crate::config::PipelineConfig)) resumes the
//! session **bitwise identically** to one that never paused, which is
//! what lets the fleet layer migrate live sessions between shards and
//! recover them after a crash.
//!
//! The state is declared once, in the kernels. After a magic/version
//! header, [`BeatStream::snapshot`](crate::stream::BeatStream::snapshot)
//! writes the stream's own fields and then has each stateful kernel
//! encode itself with [`cardiotouch_dsp::codec`];
//! [`BeatStream::restore`](crate::stream::BeatStream::restore) builds the
//! stream from its configuration and has each kernel decode itself in
//! one pass, checking the bytes against that kernel's design.
//!
//! Two invariants keep snapshots small and exact:
//!
//! * **No coefficients.** Filter designs are pure functions of the
//!   configuration and live behind shared `Arc`s from
//!   [`cardiotouch_dsp::design_cache`]; the restoring side re-derives
//!   them. Only the per-session mutable floats travel.
//! * **Bit-exact floats.** The codec stores every `f64` as its
//!   IEEE-754 bit pattern ([`f64::to_bits`]), so serialization can
//!   never perturb the resumed stream — the conformance migration leg,
//!   the round-trip proptest and the committed v3 byte fixtures
//!   (`tests/snapshot_layout.rs`) all pin this.
//!
//! The format is little-endian and length-prefixed, has no external
//! dependencies and is stable within a snapshot version.

use cardiotouch_dsp::codec::{Reader, Writer};

use crate::CoreError;

/// Wire-format magic: `b"CTSS"` (CardioTouch Stream Snapshot).
const MAGIC: u32 = 0x4354_5353;
/// Wire-format version; bump on any layout or meaning change. v2 added
/// the delineation strategy's adaptive R→B prior to the delineator
/// block. v3 keeps the v2 layout, but its ICG zero-phase states belong
/// to the hop-aligned block grid and the 0.1 s low-pass settle, so a v2
/// state restored into the new chain would resume on the wrong grid.
const VERSION: u16 = 3;
/// Bytes of magic and version in front of the state.
const HEADER_LEN: usize = 6;

/// The encoded state of a [`BeatStream`](crate::stream::BeatStream),
/// captured by
/// [`BeatStream::snapshot`](crate::stream::BeatStream::snapshot)
/// between two `push` calls: a checked header followed by the state
/// bytes, which [`BeatStream::restore`](crate::stream::BeatStream::restore)
/// decodes and validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeatStreamSnapshot {
    bytes: Vec<u8>,
}

impl BeatStreamSnapshot {
    /// A writer holding the header, ready for the state.
    pub(crate) fn writer() -> Writer {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u16(VERSION);
        w
    }

    /// The snapshot a [`Self::writer`] produced.
    pub(crate) fn from_writer(w: Writer) -> Self {
        Self {
            bytes: w.into_bytes(),
        }
    }

    /// A reader over the state, past the header.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader::new(&self.bytes[HEADER_LEN..])
    }

    /// The wire bytes, copied. Floats travel as IEEE-754 bit patterns,
    /// so `from_bytes(&to_bytes())` restores the stream exactly.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// The wire bytes, without a copy.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Accepts bytes produced by [`BeatStreamSnapshot::to_bytes`] when
    /// they carry this version's header. The state itself is decoded
    /// and validated by
    /// [`BeatStream::restore`](crate::stream::BeatStream::restore), so
    /// truncated or trailing bytes are refused there.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the header is truncated,
    /// carries the wrong magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = Reader::new(bytes);
        if r.u32().ok() != Some(MAGIC) {
            return Err(malformed("magic mismatch"));
        }
        if r.u16().ok() != Some(VERSION) {
            return Err(malformed("unsupported snapshot version"));
        }
        Ok(Self {
            bytes: bytes.to_vec(),
        })
    }
}

/// The error for snapshot bytes that do not form a snapshot.
pub(crate) fn malformed(constraint: &'static str) -> CoreError {
    CoreError::InvalidParameter {
        name: "snapshot_bytes",
        value: 0.0,
        constraint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::stream::BeatStream;

    #[test]
    fn bytes_round_trip_is_exact() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        // Push irregular chunks, including a NaN burst so holdover and
        // ladder fields are non-trivial.
        let mut e = vec![0.4; 700];
        let mut z = vec![470.0; 700];
        for i in 300..340 {
            e[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        for i in 0..700 {
            e[i] += (i as f64 * 0.37).sin();
            z[i] += (i as f64 * 0.11).cos();
        }
        stream.push(&e, &z).unwrap();
        let snap = stream.snapshot();
        let bytes = snap.to_bytes();
        let back = BeatStreamSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        let config = PipelineConfig::paper_default(250.0);
        let resumed = BeatStream::restore(config, &back).unwrap();
        assert_eq!(resumed.snapshot().into_bytes(), bytes);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let snap = BeatStream::new(PipelineConfig::paper_default(250.0))
            .unwrap()
            .snapshot();
        let bytes = snap.to_bytes();
        // The header is checked on decode, the state on restore; either
        // way no stream comes out.
        let config = PipelineConfig::paper_default(250.0);
        let restore = |b: &[u8]| {
            BeatStreamSnapshot::from_bytes(b).and_then(|s| BeatStream::restore(config, &s))
        };
        assert!(BeatStreamSnapshot::from_bytes(&[]).is_err());
        assert!(BeatStreamSnapshot::from_bytes(&bytes[..5]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(BeatStreamSnapshot::from_bytes(&wrong_magic).is_err());
        assert!(restore(&bytes[..6]).is_err());
        assert!(restore(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            restore(&trailing),
            Err(CoreError::InvalidParameter {
                name: "snapshot_bytes",
                constraint: "trailing bytes",
                ..
            })
        ));
        assert!(restore(&bytes).is_ok());
    }

    /// A stream one hop in, its snapshot encoded.
    fn one_hop_bytes() -> Vec<u8> {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let e: Vec<f64> = (0..300).map(|i| (f64::from(i) * 0.37).sin()).collect();
        let z: Vec<f64> = (0..300)
            .map(|i| 470.0 + (f64::from(i) * 0.11).cos())
            .collect();
        stream.push(&e, &z).unwrap();
        stream.snapshot().to_bytes()
    }

    #[test]
    fn previous_version_is_refused() {
        let mut bytes = one_hop_bytes();
        for old in [1u16, 2] {
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                BeatStreamSnapshot::from_bytes(&bytes),
                Err(CoreError::InvalidParameter {
                    name: "snapshot_bytes",
                    constraint: "unsupported snapshot version",
                    ..
                })
            ));
        }
        bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        assert!(BeatStreamSnapshot::from_bytes(&bytes).is_ok());
    }
}

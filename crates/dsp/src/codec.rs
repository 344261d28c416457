//! The little-endian byte codec stateful kernels encode their state with.
//!
//! Every streaming kernel in this workspace writes its own mutable fields
//! with a [`Writer`] and reads them back with a [`Reader`], in a fixed
//! order, into a kernel freshly built from its design. The serving layer
//! concatenates those encodings into one stream snapshot, which is how
//! sessions migrate between shards and survive a crash.
//!
//! * **Bit-exact floats.** An `f64` travels as its IEEE-754 bit pattern
//!   ([`f64::to_bits`]), so a round trip can never perturb a resumed
//!   stream, NaN payloads and signed zeros included.
//! * **Bounded reads.** Every read is bounds-checked and fails with
//!   [`DspError::InvalidParameter`] (`name: "state_bytes"`) rather than
//!   panicking. A length-prefixed run of words is checked against the
//!   remaining input as a whole before anything is reserved, and a run
//!   read item by item reserves at most [`Reader::capacity`], so corrupt
//!   bytes cannot trigger an allocation larger than the input.

use crate::error::DspError;

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a presence byte, then the index when present.
    #[inline]
    pub fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.usize(x);
        }
    }

    /// Writes a length, then every sample.
    #[inline]
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Writes a length, then every index.
    #[inline]
    pub fn usizes<'v>(&mut self, v: impl ExactSizeIterator<Item = &'v usize>) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
}

/// Reads the fields a [`Writer`] wrote, bounds-checked.
///
/// # Errors
///
/// Every read returns [`DspError::InvalidParameter`] (`name:
/// "state_bytes"`, `value`: the byte offset) when the input runs out or
/// the field is out of its range, instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn malformed(pos: usize, constraint: &'static str) -> DspError {
    DspError::InvalidParameter {
        name: "state_bytes",
        value: pos as f64,
        constraint,
    }
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// `true` once every byte has been read.
    #[must_use]
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// `n` capped at one more `T` than the unread input has bytes for:
    /// the most a length prefix of `T`s may reserve up front, so the
    /// reservation never exceeds the remaining input by more than one
    /// item.
    #[must_use]
    #[inline]
    pub fn capacity<T>(&self, n: usize) -> usize {
        n.min((self.buf.len() - self.pos) / std::mem::size_of::<T>().max(1) + 1)
    }

    /// The next `len` bytes (`None`: a length that overflowed), refused
    /// when fewer remain.
    #[inline]
    fn bytes(&mut self, len: Option<usize>) -> Result<&'a [u8], DspError> {
        let end = len
            .and_then(|n| self.pos.checked_add(n))
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| malformed(self.pos, "truncated"))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DspError> {
        Ok(self.bytes(Some(N))?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DspError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DspError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DspError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DspError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a `usize` written as a `u64`, refusing one that overflows
    /// `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DspError> {
        let pos = self.pos;
        usize::try_from(self.u64()?).map_err(|_| malformed(pos, "index overflows usize"))
    }

    /// Reads an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DspError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` byte, refusing any but 0 and 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DspError> {
        let pos = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(malformed(pos, "a flag byte is 0 or 1")),
        }
    }

    /// Reads a presence byte and, when present, the index.
    #[inline]
    pub fn opt_usize(&mut self) -> Result<Option<usize>, DspError> {
        if self.bool()? {
            Ok(Some(self.usize()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed run of samples.
    #[inline]
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, DspError> {
        Ok(self.words()?.map(f64::from_bits).collect())
    }

    /// Reads a length-prefixed run of indices.
    #[inline]
    pub fn vec_usize(&mut self) -> Result<Vec<usize>, DspError> {
        let pos = self.pos;
        let words = self.words()?;
        let mut v = Vec::with_capacity(words.len());
        for w in words {
            v.push(usize::try_from(w).map_err(|_| malformed(pos, "index overflows usize"))?);
        }
        Ok(v)
    }

    /// A length, then that many 64-bit words, bounds-checked as one run
    /// before anything is reserved.
    fn words(&mut self) -> Result<impl ExactSizeIterator<Item = u64> + 'a, DspError> {
        let n = self.usize()?;
        let run = self.bytes(n.checked_mul(8))?;
        Ok(run
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_lengths_and_flags_fail_without_panicking() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&huge);
        assert!(r.vec_f64().is_err());
        assert_eq!(Reader::new(&huge[..8]).capacity::<f64>(usize::MAX), 2);
        assert_eq!(Reader::new(&huge).capacity::<(usize, u8)>(99), 2);
        assert_eq!(Reader::new(&[]).capacity::<f64>(usize::MAX), 1);
        assert!(Reader::new(&[2]).bool().is_err());
        assert!(Reader::new(&[0; 7]).u64().is_err());
    }
}

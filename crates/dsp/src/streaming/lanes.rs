//! Structure-of-arrays lane kernels: K interleaved sessions per sample
//! tick.
//!
//! Each kernel in this module is the K-wide twin of a scalar kernel in
//! [`crate::streaming`]: where [`super::StreamingFir`] advances one
//! session's delay line per `push`, [`LaneFir`] holds K delay lines
//! interleaved in flat `[f64; K]`-stride rows and advances all K
//! sessions per pushed sample tick. The lane count `K` is a const
//! generic, so the inner loops run over fixed-width arrays the
//! autovectorizer can turn into SIMD — no target-feature intrinsics,
//! no allocation per sample, portable everywhere.
//!
//! # Bitwise identity
//!
//! Lanes never mix: lane `k`'s output depends only on lane `k`'s
//! inputs, and every kernel performs **the identical sequence of f64
//! operations in the identical order** as its scalar twin — the inner
//! lane loop merely interleaves K independent copies of the scalar
//! recurrence. Per-session output is therefore bitwise identical to
//! the scalar kernel at any lane width, which is what lets the serving
//! layer hop whole groups of sessions through one kernel and still
//! honour the repo's bitwise conformance bar.
//!
//! The win is throughput, not semantics: the scalar FIR is latency
//! bound on one dependent accumulator chain, while the K-wide FIR runs
//! K independent accumulator chains per tap — exactly the shape SIMD
//! multiply-accumulate wants.
//!
//! # Lane join / leave
//!
//! Every kernel exposes `load_lane` / `store_lane` against the same
//! plain-data `*State` structs the scalar kernels snapshot to. Loading
//! muxes one scalar session into a lane column; storing demuxes it
//! back out, byte-identical to a session that was never in a lane.
//! Migration and crash recovery therefore keep flowing through the
//! existing scalar snapshot codec untouched — a lane is an execution
//! strategy, never a serialization format.

use std::sync::Arc;

use crate::error::DspError;
use crate::iir::{Biquad, Butterworth};
use crate::streaming::{BiquadState, CascadeState, DerivativeState, FirState, ZeroPhaseState};

/// K parallel copies of [`super::StatefulBiquad`]: one shared
/// coefficient set, K interleaved direct-form-II-transposed register
/// pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneBiquad<const K: usize> {
    coefficients: Biquad,
    s1: [f64; K],
    s2: [f64; K],
}

impl<const K: usize> LaneBiquad<K> {
    /// Wraps a coefficient set with all K lanes zeroed.
    #[must_use]
    pub fn new(coefficients: Biquad) -> Self {
        Self {
            coefficients,
            s1: [0.0; K],
            s2: [0.0; K],
        }
    }

    /// The lane width.
    #[must_use]
    pub const fn width(&self) -> usize {
        K
    }

    /// Filters one sample per lane in place, advancing every lane's
    /// registers. Per lane this is exactly
    /// [`super::StatefulBiquad::push`].
    #[inline]
    pub fn push(&mut self, x: &mut [f64; K]) {
        let c = &self.coefficients;
        for (k, lane) in x.iter_mut().enumerate() {
            let y = c.b0 * *lane + self.s1[k];
            self.s1[k] = c.b1 * *lane - c.a1 * y + self.s2[k];
            self.s2[k] = c.b2 * *lane - c.a2 * y;
            *lane = y;
        }
    }

    /// Zeroes every lane's registers (coefficients are kept).
    pub fn reset(&mut self) {
        self.s1 = [0.0; K];
        self.s2 = [0.0; K];
    }

    /// Zeroes one lane's registers.
    pub fn reset_lane(&mut self, lane: usize) {
        self.s1[lane] = 0.0;
        self.s2[lane] = 0.0;
    }

    /// Muxes a scalar biquad state into lane `lane`.
    pub fn load_lane(&mut self, lane: usize, state: &BiquadState) {
        self.s1[lane] = state.s1;
        self.s2[lane] = state.s2;
    }

    /// Demuxes lane `lane` back to a scalar biquad state.
    #[must_use]
    pub fn store_lane(&self, lane: usize) -> BiquadState {
        BiquadState {
            s1: self.s1[lane],
            s2: self.s2[lane],
        }
    }
}

/// K parallel copies of [`super::StreamingCascade`]: one shared
/// Butterworth design, `sections × K` interleaved register pairs.
#[derive(Debug, Clone)]
pub struct LaneCascade<const K: usize> {
    filter: Arc<Butterworth>,
    /// First delay register, `[section][lane]`.
    s1: Vec<[f64; K]>,
    /// Second delay register, `[section][lane]`.
    s2: Vec<[f64; K]>,
}

impl<const K: usize> LaneCascade<K> {
    /// Creates a cascade with all lanes zeroed over shared coefficients.
    #[must_use]
    pub fn new(filter: Arc<Butterworth>) -> Self {
        let n = filter.sections().len();
        Self {
            filter,
            s1: vec![[0.0; K]; n],
            s2: vec![[0.0; K]; n],
        }
    }

    /// The underlying design.
    #[must_use]
    pub fn filter(&self) -> &Arc<Butterworth> {
        &self.filter
    }

    /// The lane width.
    #[must_use]
    pub const fn width(&self) -> usize {
        K
    }

    /// Filters one sample per lane in place through every section. Per
    /// lane this is exactly [`super::StreamingCascade::push`]: the
    /// section loop is outer, so each lane sees the identical
    /// section-by-section operation order.
    #[inline]
    pub fn push(&mut self, x: &mut [f64; K]) {
        for (section, (s1, s2)) in self
            .filter
            .sections()
            .iter()
            .zip(self.s1.iter_mut().zip(self.s2.iter_mut()))
        {
            for k in 0..K {
                let y = section.b0 * x[k] + s1[k];
                s1[k] = section.b1 * x[k] - section.a1 * y + s2[k];
                s2[k] = section.b2 * x[k] - section.a2 * y;
                x[k] = y;
            }
        }
    }

    /// Filters a row-chunk in place; each row is one sample tick across
    /// all K lanes.
    pub fn process_in_place(&mut self, chunk: &mut [[f64; K]]) {
        for row in chunk.iter_mut() {
            self.push(row);
        }
    }

    /// Zeroes every lane's per-section registers.
    pub fn reset(&mut self) {
        for s in &mut self.s1 {
            *s = [0.0; K];
        }
        for s in &mut self.s2 {
            *s = [0.0; K];
        }
    }

    /// Zeroes one lane's per-section registers.
    pub fn reset_lane(&mut self, lane: usize) {
        for s in &mut self.s1 {
            s[lane] = 0.0;
        }
        for s in &mut self.s2 {
            s[lane] = 0.0;
        }
    }

    /// Muxes a scalar cascade state into lane `lane`.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the state carries a different
    /// section count than this design.
    pub fn load_lane(&mut self, lane: usize, state: &CascadeState) -> Result<(), DspError> {
        if state.sections.len() != self.s1.len() {
            return Err(DspError::LengthMismatch {
                left: state.sections.len(),
                right: self.s1.len(),
            });
        }
        for (i, &(s1, s2)) in state.sections.iter().enumerate() {
            self.s1[i][lane] = s1;
            self.s2[i][lane] = s2;
        }
        Ok(())
    }

    /// Demuxes lane `lane` back to a scalar cascade state.
    #[must_use]
    pub fn store_lane(&self, lane: usize) -> CascadeState {
        CascadeState {
            sections: self
                .s1
                .iter()
                .zip(&self.s2)
                .map(|(s1, s2)| (s1[lane], s2[lane]))
                .collect(),
        }
    }
}

/// K parallel copies of [`super::StreamingFir`]: one shared tap set,
/// K delay lines interleaved row-major (`ring[slot][lane]`), one
/// shared write cursor, and a per-lane rotation offset mapping lane
/// slots onto each session's scalar ring coordinates.
///
/// Sessions joining mid-stream arrive with arbitrary scalar ring
/// positions; rather than rotating their delay lines into a canonical
/// phase (which would have to move data), `offsets[k]` records where
/// each lane's scalar ring starts relative to the shared cursor. The
/// mapping `scalar_slot = (lane_slot + offset) % len` is a pure
/// permutation, so `load_lane` → `store_lane` round-trips byte
/// identically even mid-ring.
#[derive(Debug, Clone)]
pub struct LaneFir<const K: usize> {
    filter: Arc<crate::fir::Fir>,
    /// Interleaved delay lines: `ring[slot][lane]`.
    ring: Vec<[f64; K]>,
    /// Shared slot the next sample tick will occupy.
    pos: usize,
    /// Per-lane rotation: lane slot `l` holds the session's scalar
    /// slot `(l + offsets[lane]) % len`.
    offsets: [usize; K],
}

impl<const K: usize> LaneFir<K> {
    /// Creates a lane FIR with all delay lines zeroed over shared taps.
    #[must_use]
    pub fn new(filter: Arc<crate::fir::Fir>) -> Self {
        let ring = vec![[0.0; K]; filter.taps().len()];
        Self {
            filter,
            ring,
            pos: 0,
            offsets: [0; K],
        }
    }

    /// The underlying design.
    #[must_use]
    pub fn filter(&self) -> &Arc<crate::fir::Fir> {
        &self.filter
    }

    /// The lane width.
    #[must_use]
    pub const fn width(&self) -> usize {
        K
    }

    /// Pushes one sample per lane and writes each lane's filter output
    /// to `out`. Per lane the tap-by-tap accumulation order is exactly
    /// [`super::StreamingFir::push`] — but the K accumulator chains are
    /// independent, which is what breaks the scalar kernel's dependent
    /// multiply-add latency chain.
    #[inline]
    pub fn push(&mut self, x: &[f64; K], out: &mut [f64; K]) {
        let len = self.ring.len();
        self.ring[self.pos] = *x;
        let taps = self.filter.taps();
        let mut acc = [0.0; K];
        let mut idx = self.pos;
        for &t in taps {
            let row = &self.ring[idx];
            for k in 0..K {
                acc[k] += t * row[k];
            }
            idx = if idx == 0 { len - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % len;
        *out = acc;
    }

    /// Zeroes every delay line and all rotation offsets.
    pub fn reset(&mut self) {
        for row in &mut self.ring {
            *row = [0.0; K];
        }
        self.pos = 0;
        self.offsets = [0; K];
    }

    /// Zeroes one lane's delay line and rotation offset.
    pub fn reset_lane(&mut self, lane: usize) {
        for row in &mut self.ring {
            row[lane] = 0.0;
        }
        self.offsets[lane] = 0;
    }

    /// Muxes a scalar FIR state into lane `lane`, whatever its ring
    /// phase: the session's scalar `pos` becomes a rotation offset
    /// against the shared cursor.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the state's ring length
    /// differs from this design's tap count or its position exceeds
    /// the ring.
    pub fn load_lane(&mut self, lane: usize, state: &FirState) -> Result<(), DspError> {
        let len = self.ring.len();
        if state.ring.len() != len || state.pos >= len {
            return Err(DspError::LengthMismatch {
                left: state.ring.len(),
                right: len,
            });
        }
        let offset = (state.pos + len - self.pos) % len;
        for (l, row) in self.ring.iter_mut().enumerate() {
            row[lane] = state.ring[(l + offset) % len];
        }
        self.offsets[lane] = offset;
        Ok(())
    }

    /// Demuxes lane `lane` back to a scalar FIR state, undoing the
    /// rotation recorded at load time.
    #[must_use]
    pub fn store_lane(&self, lane: usize) -> FirState {
        let len = self.ring.len();
        let offset = self.offsets[lane];
        let mut ring = vec![0.0; len];
        for (l, row) in self.ring.iter().enumerate() {
            ring[(l + offset) % len] = row[lane];
        }
        FirState {
            ring,
            pos: (self.pos + offset) % len,
        }
    }
}

/// K parallel copies of [`super::StreamingDerivative`]: shared `fs`,
/// per-lane two-sample history and stream position.
#[derive(Debug, Clone, Copy)]
pub struct LaneDerivative<const K: usize> {
    fs: f64,
    prev: [f64; K],
    prev2: [f64; K],
    seen: [usize; K],
}

impl<const K: usize> LaneDerivative<K> {
    /// Creates the kernel for sampling rate `fs`, all lanes at
    /// start-of-stream.
    #[must_use]
    pub fn new(fs: f64) -> Self {
        Self {
            fs,
            prev: [0.0; K],
            prev2: [0.0; K],
            seen: [0; K],
        }
    }

    /// The lane width.
    #[must_use]
    pub const fn width(&self) -> usize {
        K
    }

    /// Samples lane `lane` has consumed so far.
    #[must_use]
    pub fn seen_lane(&self, lane: usize) -> usize {
        self.seen[lane]
    }

    /// Pushes `x[n]` per lane and returns each lane's `y[n−1]` once
    /// that lane has seen two samples. Per lane this is exactly
    /// [`super::StreamingDerivative::push`].
    #[inline]
    pub fn push(&mut self, x: &[f64; K]) -> [Option<f64>; K] {
        let mut out = [None; K];
        for k in 0..K {
            self.seen[k] += 1;
            out[k] = match self.seen[k] {
                1 => None,
                2 => Some((x[k] - self.prev[k]) * self.fs),
                _ => Some((x[k] - self.prev2[k]) * self.fs / 2.0),
            };
            self.prev2[k] = self.prev[k];
            self.prev[k] = x[k];
        }
        out
    }

    /// Resets every lane to the start-of-stream state.
    pub fn reset(&mut self) {
        self.prev = [0.0; K];
        self.prev2 = [0.0; K];
        self.seen = [0; K];
    }

    /// Resets one lane to the start-of-stream state.
    pub fn reset_lane(&mut self, lane: usize) {
        self.prev[lane] = 0.0;
        self.prev2[lane] = 0.0;
        self.seen[lane] = 0;
    }

    /// Muxes a scalar derivative state into lane `lane`.
    pub fn load_lane(&mut self, lane: usize, state: &DerivativeState) {
        self.prev[lane] = state.prev;
        self.prev2[lane] = state.prev2;
        self.seen[lane] = state.seen;
    }

    /// Demuxes lane `lane` back to a scalar derivative state.
    #[must_use]
    pub fn store_lane(&self, lane: usize) -> DerivativeState {
        DerivativeState {
            prev: self.prev[lane],
            prev2: self.prev2[lane],
            seen: self.seen[lane],
        }
    }
}

/// K parallel copies of [`super::StreamingZeroPhase`]: shared design
/// and `settle`/`ext`/`block` parameters, SoA pending/tail buffers of
/// `[f64; K]` rows, and one shared priming flag.
///
/// Because `pending`, `tail` and `primed` advance in lockstep for all
/// lanes, a scalar session may only join a lane group when its
/// zero-phase geometry — pending length, tail length, priming flag —
/// matches the group's. All of those are pure functions of samples
/// seen since stream start (or the last warm restart), so same-config
/// sessions of the same age always qualify; `load_lane` rejects
/// anything else.
#[derive(Debug, Clone)]
pub struct LaneZeroPhase<const K: usize> {
    forward: LaneCascade<K>,
    backward: LaneCascade<K>,
    /// Raw input rows awaiting a complete block.
    pending: Vec<[f64; K]>,
    /// Forward-pass output rows not yet settled.
    tail: Vec<[f64; K]>,
    /// Samples of right-context required before a row settles.
    settle: usize,
    /// Edge-extension length, as in the scalar stage.
    ext: usize,
    /// Internal processing quantum in sample ticks.
    block: usize,
    /// Scratch for the reversed, edge-extended tail.
    scratch: Vec<[f64; K]>,
    /// `true` once the stream-start forward priming has run.
    primed: bool,
}

impl<const K: usize> LaneZeroPhase<K> {
    /// Creates the stage with the same parameter semantics as
    /// [`super::StreamingZeroPhase::new`].
    #[must_use]
    pub fn new(filter: Arc<Butterworth>, settle: usize, ext: usize, block: usize) -> Self {
        Self {
            forward: LaneCascade::new(Arc::clone(&filter)),
            backward: LaneCascade::new(filter),
            pending: Vec::new(),
            tail: Vec::new(),
            settle: settle.max(1),
            ext,
            block: block.max(1),
            scratch: Vec::new(),
            primed: false,
        }
    }

    /// The lane width.
    #[must_use]
    pub const fn width(&self) -> usize {
        K
    }

    /// Rows of raw input currently awaiting a complete block.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Rows of forward-pass output not yet settled.
    #[must_use]
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Whether the stream-start forward priming has run.
    #[must_use]
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Returns every lane to the start-of-stream state.
    pub fn reset(&mut self) {
        self.forward.reset();
        self.backward.reset();
        self.pending.clear();
        self.tail.clear();
        self.primed = false;
    }

    /// Pushes a row-chunk (one `[f64; K]` row per sample tick) and
    /// appends every newly settled output row to `out`. Per lane this
    /// emits exactly what [`super::StreamingZeroPhase::push_chunk`]
    /// would.
    pub fn push_chunk(&mut self, chunk: &[[f64; K]], out: &mut Vec<[f64; K]>) {
        self.pending.extend_from_slice(chunk);
        let mut consumed = 0;
        while self.pending.len() - consumed >= self.block {
            let (lo, hi) = (consumed, consumed + self.block);
            self.process_block_range(lo, hi, out);
            consumed = hi;
        }
        self.pending.drain(..consumed);
    }

    /// Row-for-row twin of one block of the scalar stage's
    /// `push_chunk`: the same priming, forward pass and backward window.
    /// The scalar stage runs two blocks' backward passes in lock-step;
    /// here the lanes already run K windows at once, so blocks go one at
    /// a time.
    fn process_block_range(&mut self, lo: usize, hi: usize, out: &mut Vec<[f64; K]>) {
        if !self.primed {
            let ext = self.ext.min(hi - lo - 1);
            for i in (lo + 1..=lo + ext).rev() {
                let mut row = self.pending[i];
                self.forward.push(&mut row);
            }
            self.primed = true;
        }
        let start = self.tail.len();
        self.tail.extend_from_slice(&self.pending[lo..hi]);
        for row in &mut self.tail[start..] {
            self.forward.push(row);
        }

        let settled = self.tail.len().saturating_sub(self.settle);
        if settled == 0 {
            return;
        }
        let ext = self.ext.min(self.tail.len().saturating_sub(1));
        self.scratch.clear();
        self.scratch.reserve(self.tail.len() + ext);
        for i in (self.tail.len() - 1 - ext)..self.tail.len() - 1 {
            self.scratch.push(self.tail[i]);
        }
        self.scratch.extend(self.tail.iter().rev());
        self.backward.reset();
        self.backward.process_in_place(&mut self.scratch);
        let n = self.scratch.len();
        for i in 0..settled {
            out.push(self.scratch[n - 1 - i]);
        }
        self.tail.drain(..settled);
    }

    /// Re-seeds the shared geometry — pending length, tail length,
    /// priming flag — zeroing every lane. Used when the first session
    /// joins an empty group: the group takes on that session's
    /// geometry, then `load_lane` fills the session's column.
    pub fn seed_geometry(&mut self, pending_len: usize, tail_len: usize, primed: bool) {
        self.forward.reset();
        self.backward.reset();
        self.pending.clear();
        self.pending.resize(pending_len, [0.0; K]);
        self.tail.clear();
        self.tail.resize(tail_len, [0.0; K]);
        self.primed = primed;
    }

    /// Muxes a scalar zero-phase state into lane `lane`. The state's
    /// geometry — pending length, tail length, priming flag — must
    /// match the group's current geometry exactly.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the pending or tail length
    /// differs, [`DspError::InvalidParameter`] when the priming flag
    /// differs, and the forward cascade's own shape error when the
    /// section count differs.
    pub fn load_lane(&mut self, lane: usize, state: &ZeroPhaseState) -> Result<(), DspError> {
        if state.pending.len() != self.pending.len() {
            return Err(DspError::LengthMismatch {
                left: state.pending.len(),
                right: self.pending.len(),
            });
        }
        if state.tail.len() != self.tail.len() {
            return Err(DspError::LengthMismatch {
                left: state.tail.len(),
                right: self.tail.len(),
            });
        }
        if state.primed != self.primed {
            return Err(DspError::InvalidParameter {
                name: "primed",
                value: f64::from(u8::from(state.primed)),
                constraint: "must match the lane group's priming flag",
            });
        }
        self.forward.load_lane(lane, &state.forward)?;
        for (row, &v) in self.pending.iter_mut().zip(&state.pending) {
            row[lane] = v;
        }
        for (row, &v) in self.tail.iter_mut().zip(&state.tail) {
            row[lane] = v;
        }
        Ok(())
    }

    /// Demuxes lane `lane` back to a scalar zero-phase state,
    /// byte-identical to the snapshot of a scalar stage that processed
    /// the same samples.
    #[must_use]
    pub fn store_lane(&self, lane: usize) -> ZeroPhaseState {
        ZeroPhaseState {
            forward: self.forward.store_lane(lane),
            pending: self.pending.iter().map(|row| row[lane]).collect(),
            tail: self.tail.iter().map(|row| row[lane]).collect(),
            primed: self.primed,
        }
    }
}

#[cfg(test)]
// The bitwise-equivalence checks index sample `i` of lane `k` on both
// the lane and scalar sides symmetrically; iterator rewrites would
// obscure that symmetry.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::design_cache;
    use crate::streaming::{
        StatefulBiquad, StreamingCascade, StreamingDerivative, StreamingFir, StreamingZeroPhase,
    };
    use crate::window::Window;

    const FS: f64 = 250.0;

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 3.0 * t + phase).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * 17.0 * t + phase).sin()
                    + 0.1 * (i as f64 * 0.7919 + phase).sin()
            })
            .collect()
    }

    fn lanes_of<const K: usize>(n: usize) -> Vec<Vec<f64>> {
        (0..K).map(|k| signal(n, k as f64 * 0.37)).collect()
    }

    fn check_cascade<const K: usize>() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let xs = lanes_of::<K>(600);
        let mut scalars: Vec<_> = (0..K)
            .map(|_| StreamingCascade::new(Arc::clone(&f)))
            .collect();
        let mut lane = LaneCascade::<K>::new(f);
        for i in 0..600 {
            let mut row = [0.0; K];
            for k in 0..K {
                row[k] = xs[k][i];
            }
            lane.push(&mut row);
            for k in 0..K {
                assert_eq!(row[k].to_bits(), scalars[k].push(xs[k][i]).to_bits());
            }
        }
        for (k, scalar) in scalars.iter().enumerate() {
            assert_eq!(lane.store_lane(k), scalar.snapshot());
        }
    }

    #[test]
    fn lane_cascade_bitwise_at_k_1_4_8() {
        check_cascade::<1>();
        check_cascade::<4>();
        check_cascade::<8>();
    }

    fn check_fir<const K: usize>() {
        let f = design_cache::fir_bandpass(32, 0.05, 40.0, FS, Window::Hamming).unwrap();
        let xs = lanes_of::<K>(500);
        let mut scalars: Vec<_> = (0..K).map(|_| StreamingFir::new(Arc::clone(&f))).collect();
        let mut lane = LaneFir::<K>::new(f);
        let mut out = [0.0; K];
        for i in 0..500 {
            let mut row = [0.0; K];
            for k in 0..K {
                row[k] = xs[k][i];
            }
            lane.push(&row, &mut out);
            for k in 0..K {
                assert_eq!(out[k].to_bits(), scalars[k].push(xs[k][i]).to_bits());
            }
        }
        for (k, scalar) in scalars.iter().enumerate() {
            assert_eq!(lane.store_lane(k), scalar.snapshot());
        }
    }

    #[test]
    fn lane_fir_bitwise_at_k_1_4_8() {
        check_fir::<1>();
        check_fir::<4>();
        check_fir::<8>();
    }

    #[test]
    fn lane_biquad_bitwise_and_round_trip() {
        let f = design_cache::butterworth_lowpass(2, 20.0, FS).unwrap();
        let section = f.sections()[0];
        let xs = lanes_of::<4>(400);
        let mut scalars = [StatefulBiquad::new(section); 4];
        let mut lane = LaneBiquad::<4>::new(section);
        for i in 0..400 {
            let mut row = [0.0; 4];
            for k in 0..4 {
                row[k] = xs[k][i];
            }
            lane.push(&mut row);
            for k in 0..4 {
                assert_eq!(row[k].to_bits(), scalars[k].push(xs[k][i]).to_bits());
            }
        }
        for (k, scalar) in scalars.iter().enumerate() {
            assert_eq!(lane.store_lane(k), scalar.snapshot());
        }
    }

    #[test]
    fn lane_derivative_bitwise_and_round_trip() {
        let xs = lanes_of::<8>(300);
        let mut scalars = [StreamingDerivative::new(FS); 8];
        let mut lane = LaneDerivative::<8>::new(FS);
        for i in 0..300 {
            let mut row = [0.0; 8];
            for k in 0..8 {
                row[k] = xs[k][i];
            }
            let outs = lane.push(&row);
            for k in 0..8 {
                let want = scalars[k].push(xs[k][i]);
                assert_eq!(outs[k].map(f64::to_bits), want.map(f64::to_bits));
            }
        }
        for (k, scalar) in scalars.iter().enumerate() {
            assert_eq!(lane.store_lane(k), scalar.snapshot());
        }
    }

    /// Sessions mid-stream have heterogeneous ring positions; loading
    /// them into a shared-cursor lane and continuing must stay bitwise
    /// identical, and storing back must round-trip the exact scalar
    /// state bytes.
    #[test]
    fn lane_fir_adopts_heterogeneous_ring_phases() {
        let f = design_cache::fir_bandpass(32, 0.05, 40.0, FS, Window::Hamming).unwrap();
        let xs = lanes_of::<4>(700);
        // Warm each scalar session a different number of samples so
        // every ring phase differs.
        let warm = [0usize, 7, 19, 32];
        let mut scalars: Vec<_> = (0..4).map(|_| StreamingFir::new(Arc::clone(&f))).collect();
        for (k, scalar) in scalars.iter_mut().enumerate() {
            for i in 0..warm[k] {
                let _ = scalar.push(xs[k][i]);
            }
        }
        let mut lane = LaneFir::<4>::new(Arc::clone(&f));
        // Desynchronize the shared cursor too.
        let mut sink = [0.0; 4];
        for _ in 0..5 {
            lane.push(&[0.0; 4], &mut sink);
        }
        for (k, scalar) in scalars.iter().enumerate() {
            lane.load_lane(k, &scalar.snapshot()).unwrap();
            assert_eq!(lane.store_lane(k), scalar.snapshot(), "lane {k}");
        }
        for i in 0..300 {
            let mut row = [0.0; 4];
            for k in 0..4 {
                row[k] = xs[k][warm[k] + i];
            }
            lane.push(&row, &mut sink);
            for k in 0..4 {
                let want = scalars[k].push(xs[k][warm[k] + i]);
                assert_eq!(sink[k].to_bits(), want.to_bits(), "lane {k} sample {i}");
            }
        }
        for (k, scalar) in scalars.iter().enumerate() {
            assert_eq!(lane.store_lane(k), scalar.snapshot(), "lane {k} after run");
        }
    }

    fn check_zero_phase<const K: usize>() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let settle = (0.5 * FS) as usize;
        let xs = lanes_of::<K>(1100);
        let mut scalars: Vec<_> = (0..K)
            .map(|_| StreamingZeroPhase::new(Arc::clone(&f), settle, 90, 50))
            .collect();
        let mut scalar_outs: Vec<Vec<f64>> = vec![Vec::new(); K];
        let mut lane = LaneZeroPhase::<K>::new(f, settle, 90, 50);
        let mut lane_out = Vec::new();
        for lo in (0..1100).step_by(37) {
            let hi = (lo + 37).min(1100);
            let rows: Vec<[f64; K]> = (lo..hi)
                .map(|i| {
                    let mut row = [0.0; K];
                    for k in 0..K {
                        row[k] = xs[k][i];
                    }
                    row
                })
                .collect();
            lane.push_chunk(&rows, &mut lane_out);
            for k in 0..K {
                scalars[k].push_chunk(&xs[k][lo..hi], &mut scalar_outs[k]);
            }
        }
        for k in 0..K {
            assert_eq!(lane_out.len(), scalar_outs[k].len());
            for (i, row) in lane_out.iter().enumerate() {
                assert_eq!(
                    row[k].to_bits(),
                    scalar_outs[k][i].to_bits(),
                    "lane {k} sample {i}"
                );
            }
            assert_eq!(lane.store_lane(k), scalars[k].snapshot(), "lane {k} state");
        }
    }

    #[test]
    fn lane_zero_phase_bitwise_at_k_1_4_8() {
        check_zero_phase::<1>();
        check_zero_phase::<4>();
        check_zero_phase::<8>();
    }

    /// Join mid-stream: a scalar session that has seen the same number
    /// of samples as the group loads in, continues bitwise, and stores
    /// back out byte-identical to never having joined.
    #[test]
    fn lane_zero_phase_mid_stream_join_round_trips() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let settle = (0.5 * FS) as usize;
        let xs = lanes_of::<4>(900);
        let join = 333;

        // Scalar references, never laned.
        let mut refs: Vec<_> = (0..4)
            .map(|_| StreamingZeroPhase::new(Arc::clone(&f), settle, 90, 50))
            .collect();
        let mut ref_outs: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for k in 0..4 {
            refs[k].push_chunk(&xs[k][..join], &mut ref_outs[k]);
        }

        // Group runs the same samples (lane k fed signal k), then each
        // scalar joins its lane — geometry matches because the ages
        // match.
        let mut lane = LaneZeroPhase::<4>::new(Arc::clone(&f), settle, 90, 50);
        let mut lane_out = Vec::new();
        let rows: Vec<[f64; 4]> = (0..join)
            .map(|i| [xs[0][i], xs[1][i], xs[2][i], xs[3][i]])
            .collect();
        lane.push_chunk(&rows, &mut lane_out);
        for (k, r) in refs.iter().enumerate() {
            lane.load_lane(k, &r.snapshot()).unwrap();
        }
        lane_out.clear();
        let rows: Vec<[f64; 4]> = (join..900)
            .map(|i| [xs[0][i], xs[1][i], xs[2][i], xs[3][i]])
            .collect();
        lane.push_chunk(&rows, &mut lane_out);
        for k in 0..4 {
            let before = ref_outs[k].len();
            refs[k].push_chunk(&xs[k][join..], &mut ref_outs[k]);
            for (i, row) in lane_out.iter().enumerate() {
                assert_eq!(row[k].to_bits(), ref_outs[k][before + i].to_bits());
            }
            assert_eq!(lane.store_lane(k), refs[k].snapshot(), "lane {k}");
        }
    }

    #[test]
    fn lane_zero_phase_rejects_geometry_mismatch() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let settle = (0.5 * FS) as usize;
        let mut lane = LaneZeroPhase::<2>::new(Arc::clone(&f), settle, 90, 50);
        let mut scalar = StreamingZeroPhase::new(f, settle, 90, 50);
        let x = signal(77, 0.0);
        let mut sink = Vec::new();
        scalar.push_chunk(&x, &mut sink);
        // The lane group saw nothing; the scalar's pending/primed
        // geometry differs.
        assert!(lane.load_lane(0, &scalar.snapshot()).is_err());
    }

    #[test]
    fn lane_cascade_rejects_shape_mismatch() {
        let lp4 = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let lp2 = design_cache::butterworth_lowpass(2, 20.0, FS).unwrap();
        let snap = StreamingCascade::new(lp4).snapshot();
        let mut lane = LaneCascade::<4>::new(lp2);
        assert!(lane.load_lane(0, &snap).is_err());
    }
}

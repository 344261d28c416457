//! Stateful streaming filter kernels: O(new samples) per chunk.
//!
//! The batch kernels in [`crate::fir`], [`crate::iir`] and
//! [`crate::zero_phase`] process whole records — right for the paper's
//! retrospective evaluation, wrong for the firmware path (Fig 3), which
//! sees one ADC chunk at a time and must never re-touch old samples. This
//! module provides the incremental counterparts:
//!
//! * [`StreamingCascade`] — causal IIR sections with persistent
//!   direct-form-II-transposed state; a chunk costs `O(len × sections)`
//!   regardless of how much signal came before, and runs the sections
//!   two at a time in one sample loop;
//! * [`StreamingDerivative`] — the central-difference kernel of
//!   [`crate::diff::derivative`] with one sample of latency;
//! * [`StreamingZeroPhase`] — an incremental emulation of
//!   [`crate::zero_phase::filtfilt_iir`]: the forward pass streams with
//!   persistent state, and the anti-causal backward pass is re-run from
//!   zero state over a bounded unsettled tail, emitting samples once
//!   enough right-context has accumulated for the backward transient to
//!   die out. Whole blocks go straight from the caller's chunk onto the
//!   tail, and [`StreamingZeroPhase::push_group`] runs several stages'
//!   forward passes in lock-step, one stage a lane, then the equal-length
//!   backward windows of up to [`crate::iir::LANES`] blocks — both
//!   blocks of each of four sessions' hops — through one lock-step lane
//!   kernel that reads each window straight from its stage's tail and
//!   writes only the settled samples, in a per-thread workspace. A
//!   stage's only state is its forward registers, the sub-block input
//!   and the unsettled tail; `push_chunk` is the group of one.
//!
//! All kernels share coefficient sets behind [`std::sync::Arc`] (obtained
//! from [`crate::design_cache`]), so a thousand concurrent sessions hold
//! a thousand small state blocks but one coefficient allocation.
//!
//! Causal kernels are **bitwise-identical** to their batch counterparts
//! and chunk-size invariant (pinned by the tests below). The zero-phase
//! emulation is chunk-size invariant by construction — it advances in
//! whatever chunks the caller sends but its output for a given sample
//! index depends only on the sample count seen, never on chunk
//! boundaries — and converges to the batch `filtfilt` interior at a rate
//! set by the settle delay.
//!
//! # State encoding
//!
//! Every stateful kernel has one `encode`/`decode` pair over the
//! [`crate::codec`] byte format, writing exactly its mutable state —
//! delay lines, ring positions, pending buffers — and **never** its
//! coefficients, which are shared behind `Arc` and re-derived from
//! [`crate::design_cache`] on the decoding side. Decoding into a kernel
//! freshly built from the same design resumes the stream
//! bitwise-identically to one that never paused. `decode` checks the
//! bytes against that design (section count, block geometry, ring
//! coordinates) and leaves the kernel untouched when they do not fit.
//! This is the substrate for session migration and crash recovery in
//! the serving layer.

use std::cell::RefCell;
use std::sync::Arc;

use crate::codec::{Reader, Writer};
use crate::error::DspError;
use crate::iir::{cascade_lanes, lane_width, Butterworth, LaneIo, LANES};

/// A causal Butterworth cascade with persistent per-section state — the
/// streaming twin of [`Butterworth::filter_in_place`]. Coefficients stay
/// behind the shared [`Arc`]; only the `2 × sections` state floats are
/// per-instance.
#[derive(Debug, Clone)]
pub struct StreamingCascade {
    filter: Arc<Butterworth>,
    /// `(s1, s2)` per section.
    state: Vec<(f64, f64)>,
}

impl StreamingCascade {
    /// Creates a cascade with zeroed state over shared coefficients.
    #[must_use]
    pub fn new(filter: Arc<Butterworth>) -> Self {
        let state = vec![(0.0, 0.0); filter.sections().len()];
        Self { filter, state }
    }

    /// The underlying design.
    #[must_use]
    pub fn filter(&self) -> &Arc<Butterworth> {
        &self.filter
    }

    /// Filters one sample through every section.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let mut v = x;
        for (section, (s1, s2)) in self.filter.sections().iter().zip(self.state.iter_mut()) {
            let y = section.b0 * v + *s1;
            *s1 = section.b1 * v - section.a1 * y + *s2;
            *s2 = section.b2 * v - section.a2 * y;
            v = y;
        }
        v
    }

    /// Filters a chunk in place; each output sample and the end state are
    /// identical to what per-sample [`StreamingCascade::push`] calls would
    /// produce. Runs sections two at a time in one sample loop, as
    /// [`Butterworth::filter_in_place`] does: both sections' `(s1, s2)`
    /// stay in registers across the chunk, and section `k` at sample
    /// `n + 1` overlaps section `k + 1` at sample `n`. An odd last section
    /// runs alone.
    pub fn process_in_place(&mut self, chunk: &mut [f64]) {
        let sections = self.filter.sections();
        let (paired, odd) = sections.split_at(sections.len() & !1);
        let (paired_state, odd_state) = self.state.split_at_mut(paired.len());
        for (c, state) in paired.chunks_exact(2).zip(paired_state.chunks_exact_mut(2)) {
            let (p, q) = (c[0], c[1]);
            let ((mut p1, mut p2), (mut q1, mut q2)) = (state[0], state[1]);
            for v in chunk.iter_mut() {
                let x = *v;
                let yp = p.b0 * x + p1;
                p1 = p.b1 * x - p.a1 * yp + p2;
                p2 = p.b2 * x - p.a2 * yp;
                let yq = q.b0 * yp + q1;
                q1 = q.b1 * yp - q.a1 * yq + q2;
                q2 = q.b2 * yp - q.a2 * yq;
                *v = yq;
            }
            state[0] = (p1, p2);
            state[1] = (q1, q2);
        }
        if let ([c], [state]) = (odd, odd_state) {
            let (mut s1, mut s2) = *state;
            for v in chunk.iter_mut() {
                let x = *v;
                let y = c.b0 * x + s1;
                s1 = c.b1 * x - c.a1 * y + s2;
                s2 = c.b2 * x - c.a2 * y;
                *v = y;
            }
            *state = (s1, s2);
        }
    }

    /// Filters `chunk` into `out` (cleared first), reusing its capacity.
    pub fn process_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(chunk);
        self.process_in_place(out);
    }

    /// Resets every section's state to zero.
    pub fn reset(&mut self) {
        for s in &mut self.state {
            *s = (0.0, 0.0);
        }
    }

    /// Writes the section count and each section's `(s1, s2)` delay
    /// registers (coefficients excluded).
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.state.len());
        for &(s1, s2) in &self.state {
            w.f64(s1);
            w.f64(s2);
        }
    }

    /// Reads the registers [`Self::encode`] wrote.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when they come from a cascade with a
    /// different section count; a codec error when the bytes run out.
    /// The cascade is untouched on error.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), DspError> {
        let n = r.usize()?;
        if n != self.state.len() {
            return Err(DspError::LengthMismatch {
                left: n,
                right: self.state.len(),
            });
        }
        let state = (0..n)
            .map(|_| Ok((r.f64()?, r.f64()?)))
            .collect::<Result<_, DspError>>()?;
        self.state = state;
        Ok(())
    }
}

/// Streaming central-difference first derivative, matching
/// [`crate::diff::derivative`] sample for sample with one sample of
/// latency: pushing `x[n]` yields `y[n−1]`. The very first output uses
/// the forward difference, exactly as the batch kernel's left edge does;
/// the batch kernel's final backward-difference sample is never emitted
/// (a stream has no last sample).
#[derive(Debug, Clone, Copy)]
pub struct StreamingDerivative {
    fs: f64,
    prev: f64,
    prev2: f64,
    seen: usize,
}

impl StreamingDerivative {
    /// Output latency in samples: pushing `x[n]` yields `y[n − LATENCY]`.
    pub const LATENCY: usize = 1;

    /// Creates the kernel for sampling rate `fs`.
    #[must_use]
    pub fn new(fs: f64) -> Self {
        Self {
            fs,
            prev: 0.0,
            prev2: 0.0,
            seen: 0,
        }
    }

    /// Pushes `x[n]` and returns `y[n−1]` once two samples have been seen.
    #[inline]
    pub fn push(&mut self, x: f64) -> Option<f64> {
        self.seen += 1;
        let out = match self.seen {
            1 => None,
            2 => Some((x - self.prev) * self.fs),
            _ => Some((x - self.prev2) * self.fs / 2.0),
        };
        self.prev2 = self.prev;
        self.prev = x;
        out
    }

    /// Resets to the start-of-stream state.
    pub fn reset(&mut self) {
        self.prev = 0.0;
        self.prev2 = 0.0;
        self.seen = 0;
    }

    /// Writes the two-sample history and the count of samples seen.
    pub fn encode(&self, w: &mut Writer) {
        w.f64(self.prev);
        w.f64(self.prev2);
        w.usize(self.seen);
    }

    /// Reads the history [`Self::encode`] wrote (`fs` is kept).
    ///
    /// # Errors
    ///
    /// A codec error when the bytes run out; the kernel is untouched.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), DspError> {
        let (prev, prev2, seen) = (r.f64()?, r.f64()?, r.usize()?);
        (self.prev, self.prev2, self.seen) = (prev, prev2, seen);
        Ok(())
    }
}

/// Incremental zero-phase (forward–backward) IIR filtering with a bounded
/// settle delay.
///
/// The forward pass is strictly causal and streams with persistent state
/// — cost `O(chunk)`. The backward pass is anti-causal: the batch
/// [`crate::zero_phase::filtfilt_iir`] warms it with the entire future.
/// Here the backward recursion is instead re-run from zero state over the
/// unsettled tail once per internal `block`, primed with an even
/// reflection at the rolling head (the same edge-extension device the
/// batch path uses at the true record end). A sample is *settled* —
/// emitted, never revisited — once `settle` newer samples exist, by which
/// point the backward transient has decayed by `exp(−settle / τ)` for a
/// filter time constant of `τ` samples.
///
/// Input is quantized into `block`-sample units internally: arbitrary
/// caller chunking is accumulated and processed in whole blocks, so the
/// emitted stream after `n` pushed samples is a pure function of the
/// samples up to the last block boundary at or before `n` — **bitwise
/// chunk-size invariant** by construction. Per-sample amortized cost is
/// `O(1 + (settle + ext) / block)` — independent of stream length and of
/// any analysis-window notion upstream.
///
/// By default the block boundaries fall on multiples of `block` in the
/// stage's own input. A stage fed by a delaying upstream (a derivative,
/// another zero-phase stage) sees its input `delay` samples behind the
/// caller's clock, so its blocks would complete `delay` samples after the
/// caller's chunk ends and wait a whole chunk. [`Self::aligned_to`]
/// shortens the first block after a start or [`Self::reset`] by
/// `delay mod block` samples instead, so every block ends exactly where
/// a `block`-multiple of the caller's clock lands in the stage's input.
///
/// Whole blocks go straight from the caller's chunk onto the tail; only
/// a partial block is held in `pending`. [`Self::push_group`] runs the
/// forward passes of several stages with equally many new samples in
/// lock-step, one stage a lane, and once the forward outputs exist every
/// block's backward pass is independent, so it runs the equal-length
/// backward windows of several stages — several sessions' blocks —
/// through one lock-step lane kernel ([`crate::iir::LANES`] wide). Each block's backward window is exactly
/// the one a block-by-block pass would see, so the output depends neither
/// on the grouping nor on the chunking. The windows are read straight
/// from each stage's tail and only their settled samples are written, in
/// one per-thread workspace; the only per-stage memory is the forward
/// registers, `pending` (`< block` between calls) and `tail` (`≤ settle`
/// between calls).
#[derive(Debug, Clone)]
pub struct StreamingZeroPhase {
    forward: StreamingCascade,
    /// Raw input short of a whole block.
    pending: Vec<f64>,
    /// Forward-pass outputs not yet settled.
    tail: Vec<f64>,
    /// Samples of right-context required before a sample settles.
    settle: usize,
    /// Edge-extension length priming the backward pass at the rolling
    /// head (and the forward pass at stream start).
    ext: usize,
    /// Internal processing quantum in samples.
    block: usize,
    /// Samples the first block after a start or reset is shortened by
    /// (`< block`), aligning the grid to an upstream delay.
    lead: usize,
    /// `true` once the stream-start forward priming has run.
    primed: bool,
}

/// One stage's push in [`StreamingZeroPhase::push_group`]: the stage, its
/// input chunk, and where its settled outputs are appended.
pub type ZeroPhasePush<'a> = (&'a mut StreamingZeroPhase, &'a [f64], &'a mut Vec<f64>);

/// One block's backward pass in a group: `tail[lo..hi]` of the group's
/// `stage`, newest first, primed by the `ext` samples before the newest
/// in stream order. The oldest `settled` samples of the result are
/// emitted, at `at` in the group's output buffer.
#[derive(Debug, Clone, Copy)]
struct BackwardWindow {
    stage: usize,
    /// Address of the stage's design: only windows under one filter
    /// share a kernel call.
    filter: usize,
    lo: usize,
    hi: usize,
    settled: usize,
    ext: usize,
    at: usize,
}

impl BackwardWindow {
    /// Length of the reflected, reversed sequence.
    fn len(&self) -> usize {
        self.ext + self.hi - self.lo
    }

    /// Windows of one shape run through one lane kernel call.
    fn shape(&self) -> (usize, usize, usize, usize) {
        (self.filter, self.len(), self.ext, self.settled)
    }
}

/// Per-thread workspace of [`StreamingZeroPhase::push_group`]. Pure
/// workspace, never part of a stage's state; `decode` bounds every tail
/// by its `settle`, so its size is bounded by the stages the thread runs.
struct GroupWork {
    /// The group's backward windows.
    windows: Vec<BackwardWindow>,
    /// Settled outputs, window after window: each stage's contiguous and
    /// oldest first.
    settled: Vec<f64>,
    /// Samples of padding lanes, never read.
    spare: Vec<f64>,
    /// Registers of padding forward lanes, never read.
    spare_state: Vec<(f64, f64)>,
    /// Section outputs between the first and the last section of a
    /// cascade, one row of lanes per sample.
    rows: Vec<f64>,
}

thread_local! {
    static GROUP_WORK: RefCell<GroupWork> = const {
        RefCell::new(GroupWork {
            windows: Vec::new(),
            settled: Vec::new(),
            spare: Vec::new(),
            spare_state: Vec::new(),
            rows: Vec::new(),
        })
    };
}

/// A lane kernel's view of its windows: each lane reads its prime in
/// stream order, then its body newest first, and keeps only its settled
/// outputs, oldest first.
struct Gather<'t, 'o, const N: usize> {
    prime: [&'t [f64]; N],
    body: [&'t [f64]; N],
    dst: [&'o mut [f64]; N],
    len: usize,
    ext: usize,
}

impl<const N: usize> LaneIo<N> for Gather<'_, '_, N> {
    #[inline(always)]
    fn load(&self, i: usize) -> [f64; N] {
        if i < self.ext {
            std::array::from_fn(|j| self.prime[j][i])
        } else {
            let k = self.len - 1 - i;
            std::array::from_fn(|j| self.body[j][k])
        }
    }

    #[inline(always)]
    fn store(&mut self, i: usize, y: [f64; N]) {
        let k = self.len - 1 - i;
        for (d, y) in self.dst.iter_mut().zip(y) {
            d[k] = y;
        }
    }
}

/// Runs `lanes` — windows of one shape, at most [`LANES`], in ascending
/// `at` — through one lane kernel call `N` wide, writing each one's
/// settled outputs to its place in `settled`.
fn backward_lanes<const N: usize>(
    lanes: &[BackwardWindow],
    tails: &[&[f64]; LANES],
    filter: &Butterworth,
    settled: &mut [f64],
    spare: &mut Vec<f64>,
    rows: &mut Vec<f64>,
) {
    let w = lanes[0];
    let (len, ext, keep) = (w.len(), w.ext, w.settled);
    // Padding lanes repeat the last window and write to `spare`.
    let lane = |j: usize| lanes[j.min(lanes.len() - 1)];
    let prime = std::array::from_fn(|j| {
        let l = lane(j);
        &tails[l.stage][l.hi - 1 - ext..l.hi - 1]
    });
    let body = std::array::from_fn(|j| {
        let l = lane(j);
        &tails[l.stage][l.lo..l.hi]
    });
    let padding = (N - lanes.len()) * keep;
    if spare.len() < padding {
        spare.resize(padding, 0.0);
    }
    let (mut rest, mut base) = (settled, 0);
    let mut regions = lanes
        .iter()
        .map(|l| {
            let (_, from) = std::mem::take(&mut rest).split_at_mut(l.at - base);
            let (dst, after) = from.split_at_mut(keep);
            (rest, base) = (after, l.at + keep);
            dst
        })
        .chain(spare[..padding].chunks_exact_mut(keep));
    let dst = std::array::from_fn(|_| regions.next().expect("one region per lane"));
    let io = &mut Gather {
        prime,
        body,
        dst,
        len,
        ext,
    };
    cascade_lanes::<N>(filter.sections(), len, len - keep, io, rows);
}

/// A lane kernel's view of forward passes: each lane filters its stage's
/// new blocks in place, from and back to that stage's registers.
struct Forward<'a, const N: usize> {
    lanes: [ForwardLane<'a>; N],
}

/// A forward lane: the new tail samples and the stage's registers.
type ForwardLane<'a> = (&'a mut [f64], &'a mut [(f64, f64)]);

impl<const N: usize> LaneIo<N> for Forward<'_, N> {
    #[inline(always)]
    fn load(&self, i: usize) -> [f64; N] {
        std::array::from_fn(|j| self.lanes[j].0[i])
    }

    #[inline(always)]
    fn store(&mut self, i: usize, y: [f64; N]) {
        for ((d, _), y) in self.lanes.iter_mut().zip(y) {
            d[i] = y;
        }
    }

    fn initial(&self, k: usize) -> [[f64; N]; 2] {
        [
            std::array::from_fn(|j| self.lanes[j].1[k].0),
            std::array::from_fn(|j| self.lanes[j].1[k].1),
        ]
    }

    fn finish(&mut self, k: usize, s: [[f64; N]; 2]) {
        for (j, (_, state)) in self.lanes.iter_mut().enumerate() {
            state[k] = (s[0][j], s[1][j]);
        }
    }
}

/// Forward-filters the `len` new tail samples from `start` on of each of
/// `stages` — at most `N`, all under `filter` — in one lane kernel call.
/// A stage alone takes [`StreamingCascade::process_in_place`], whose
/// paired sections beat a one-lane kernel.
fn forward_lanes<'s, const N: usize>(
    filter: &Butterworth,
    stages: impl Iterator<Item = (&'s mut StreamingZeroPhase, usize)>,
    len: usize,
    work: &mut GroupWork,
) {
    if N == 1 {
        for (stage, start) in stages {
            stage
                .forward
                .process_in_place(&mut stage.tail[start..start + len]);
        }
        return;
    }
    // Padding lanes filter zeros from zero registers.
    let sections = filter.sections().len();
    work.spare.clear();
    work.spare.resize(N * len, 0.0);
    work.spare_state.clear();
    work.spare_state.resize(N * sections, (0.0, 0.0));
    let mut lanes = stages
        .map(|(stage, start)| {
            (
                &mut stage.tail[start..start + len],
                &mut stage.forward.state[..],
            )
        })
        .chain(
            work.spare
                .chunks_exact_mut(len)
                .zip(work.spare_state.chunks_exact_mut(sections)),
        );
    let io = &mut Forward {
        lanes: std::array::from_fn(|_| lanes.next().expect("one span per lane")),
    };
    cascade_lanes::<N>(filter.sections(), len, 0, io, &mut work.rows);
}

impl StreamingZeroPhase {
    /// Creates the stage. `settle` is the right-context requirement in
    /// samples; `ext` the reflection length used to prime the forward
    /// pass at stream start and the backward pass at the rolling head
    /// (clamped to the available signal); `block` the internal processing
    /// quantum (worst-case added latency is `settle + block − 1` input
    /// samples; `settle` exactly at every block boundary).
    #[must_use]
    pub fn new(filter: Arc<Butterworth>, settle: usize, ext: usize, block: usize) -> Self {
        Self {
            forward: StreamingCascade::new(filter),
            pending: Vec::new(),
            tail: Vec::new(),
            settle: settle.max(1),
            ext,
            block: block.max(1),
            lead: 0,
            primed: false,
        }
    }

    /// Aligns the block grid to an upstream `delay`: the first block
    /// after a start or reset is `block − delay mod block` samples long,
    /// so a caller that pushes in multiples of `block` on its own clock
    /// — with this stage's input arriving `delay` samples behind that
    /// clock — completes a block at the end of every such push. The
    /// output is then exactly `settle` samples behind the input at each
    /// push end instead of up to `settle + block − 1`.
    #[must_use]
    pub fn aligned_to(mut self, delay: usize) -> Self {
        self.lead = delay % self.block;
        self
    }

    /// The settle delay in samples: the right-context requirement before
    /// a sample is emitted. Worst-case end-to-end latency adds one block:
    /// `settle + block − 1`; at a block boundary it is `settle`.
    #[must_use]
    pub fn settle_samples(&self) -> usize {
        self.settle
    }

    /// The internal processing quantum in samples.
    #[must_use]
    pub fn block_samples(&self) -> usize {
        self.block
    }

    /// Length of the next block for a stage that has (`primed`) or has
    /// not yet run its first block, which the alignment lead shortens.
    fn next_block(&self, primed: bool) -> usize {
        if primed {
            self.block
        } else {
            self.block - self.lead
        }
    }

    /// Returns the stage to its start-of-stream state: the forward
    /// cascade is zeroed, buffered input and unsettled tail are dropped,
    /// and the next block re-runs the stream-start forward priming. Used
    /// for warm-restarting a pipeline after signal loss — the discarded
    /// tail was conditioned from pre-loss signal and must not leak across
    /// the restart.
    pub fn reset(&mut self) {
        self.forward.reset();
        self.pending.clear();
        self.tail.clear();
        self.primed = false;
    }

    /// Pushes a chunk and appends every newly settled zero-phase output
    /// sample to `out`. Output order across calls is the input order; the
    /// emitted stream lags the input by at most
    /// `settle_samples() + block_samples() − 1`, and by exactly
    /// `settle_samples()` when the chunk ends on a block boundary. This is
    /// [`Self::push_group`] with a group of one.
    pub fn push_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        Self::push_group([(self, chunk, out)]);
    }

    /// Pushes one chunk into each of several stages and appends each
    /// stage's newly settled outputs to its own `out`: for every stage,
    /// bit for bit what [`Self::push_chunk`] would append. The stages may
    /// differ in design and geometry.
    ///
    /// Stages are taken [`LANES`] at a time. Each appends the whole
    /// blocks its chunk completes to its tail, and stages under one
    /// design with equally many new samples forward-filter them in
    /// lock-step, one stage a lane. Then the backward windows of all of
    /// them are sorted by shape (design, length, reflection, settled
    /// count), and windows of one shape run [`LANES`] at a time in
    /// lock-step. Sessions that share a block length and a hop therefore
    /// share kernel calls, while a stage at its stream start or warm
    /// restart simply falls into a narrower group.
    pub fn push_group<'a>(group: impl IntoIterator<Item = ZeroPhasePush<'a>>) {
        let mut group = group.into_iter();
        GROUP_WORK.with(|work| {
            let work = &mut *work.borrow_mut();
            loop {
                let mut members: [Option<ZeroPhasePush<'a>>; LANES] = Default::default();
                let n = members
                    .iter_mut()
                    .zip(&mut group)
                    .map(|(slot, push)| *slot = Some(push))
                    .count();
                if n == 0 {
                    break;
                }
                Self::push_members(&mut members[..n], work);
            }
        });
    }

    /// [`Self::push_group`] for at most [`LANES`] stages.
    fn push_members(members: &mut [Option<ZeroPhasePush<'_>>], work: &mut GroupWork) {
        work.windows.clear();
        let (mut ends, mut drained, mut spans, mut at) =
            ([0; LANES], [0; LANES], [(0, 0); LANES], 0);
        for (i, member) in members.iter_mut().enumerate() {
            let (stage, chunk, _) = member.as_mut().expect("members are filled");
            (drained[i], spans[i]) = stage.take_blocks(chunk, i, &mut work.windows, &mut at);
            ends[i] = at;
        }
        // Forward passes: stages under one design with equally long new
        // blocks step in lock-step, one stage a lane.
        let design = |m: &Option<ZeroPhasePush<'_>>| m.as_ref().map_or(0, |m| m.0.design());
        let mut done = [false; LANES];
        for i in 0..members.len() {
            let key = (design(&members[i]), spans[i].1);
            if done[i] || key.1 == 0 {
                continue;
            }
            let same: [bool; LANES] = std::array::from_fn(|j| {
                j < members.len() && !done[j] && (design(&members[j]), spans[j].1) == key
            });
            for (d, s) in done.iter_mut().zip(same) {
                *d |= s;
            }
            let filter = Arc::clone(
                members[i]
                    .as_ref()
                    .expect("members are filled")
                    .0
                    .forward
                    .filter(),
            );
            let group = members
                .iter_mut()
                .zip(spans)
                .zip(same)
                .filter(|(_, s)| *s)
                .map(|((m, (start, _)), _)| {
                    (&mut *m.as_mut().expect("members are filled").0, start)
                });
            let kernel = match lane_width(same.iter().filter(|&&s| s).count()) {
                1 => forward_lanes::<1>,
                2 => forward_lanes::<2>,
                4 => forward_lanes::<4>,
                _ => forward_lanes::<LANES>,
            };
            kernel(&filter, group, key.1, work);
        }

        let GroupWork {
            windows,
            settled,
            spare,
            rows,
            ..
        } = work;
        if settled.len() < at {
            settled.resize(at, 0.0);
        }
        let stage = |i: usize| members.get(i).and_then(Option::as_ref).map(|m| &*m.0);
        let tails: [&[f64]; LANES] = std::array::from_fn(|i| stage(i).map_or(&[][..], |s| &s.tail));
        windows.sort_unstable_by_key(|w| (w.shape(), w.at));
        let mut rest = &windows[..];
        while let Some(first) = rest.first() {
            let run = rest
                .iter()
                .take_while(|w| w.shape() == first.shape())
                .count();
            let filter = stage(first.stage)
                .expect("windows come from members")
                .forward
                .filter();
            for lanes in rest[..run].chunks(LANES) {
                let kernel = match lane_width(lanes.len()) {
                    1 => backward_lanes::<1>,
                    2 => backward_lanes::<2>,
                    4 => backward_lanes::<4>,
                    _ => backward_lanes::<LANES>,
                };
                kernel(lanes, &tails, filter, settled, spare, rows);
            }
            rest = &rest[run..];
        }
        let mut from = 0;
        for ((member, end), drained) in members.iter_mut().zip(ends).zip(drained) {
            let (stage, _, out) = member.as_mut().expect("members are filled");
            out.extend_from_slice(&settled[from..end]);
            stage.tail.drain(..drained);
            from = end;
        }
    }

    /// Takes every whole block that `pending` and `chunk` complete. At a
    /// stream start the forward state is primed first; the blocks are
    /// appended to the tail straight from the chunk, and only the partial
    /// block after them is kept in `pending`. Each block's backward window
    /// goes to `windows` as the group's `stage`, its settled outputs
    /// placed from `*at` on. Returns how many tail samples the windows
    /// settle, and the tail span the forward pass must filter.
    fn take_blocks(
        &mut self,
        chunk: &[f64],
        stage: usize,
        windows: &mut Vec<BackwardWindow>,
        at: &mut usize,
    ) -> (usize, (usize, usize)) {
        let held = self.pending.len();
        let first = self.next_block(self.primed);
        if held + chunk.len() < first {
            self.pending.extend_from_slice(chunk);
            return (0, (0, 0));
        }
        let end = first + (held + chunk.len() - first) / self.block * self.block;
        let (taken, kept) = chunk.split_at(end - held);
        if !self.primed {
            // Mimic the batch left edge: run the forward state over an
            // even reflection of the first block so the first real sample
            // is approached from plausible history rather than silence.
            let input = |i: usize| {
                if i < held {
                    self.pending[i]
                } else {
                    taken[i - held]
                }
            };
            for i in (1..=self.ext.min(first - 1)).rev() {
                let _ = self.forward.push(input(i));
            }
            self.primed = true;
        }
        let start = self.tail.len();
        self.tail.reserve_exact(end);
        self.tail.extend_from_slice(&self.pending);
        self.tail.extend_from_slice(taken);
        self.pending.clear();
        self.pending.extend_from_slice(kept);

        // Each block's window is what a block-by-block pass sees: the
        // tail up to the block's end, minus what earlier blocks settled.
        let filter = self.design();
        let (mut drained, mut hi, mut len) = (0, start, first);
        while hi < start + end {
            hi += len;
            len = self.block;
            let settled = (hi - drained).saturating_sub(self.settle);
            if settled > 0 {
                windows.push(BackwardWindow {
                    stage,
                    filter,
                    lo: drained,
                    hi,
                    settled,
                    ext: self.ext.min(hi - drained - 1),
                    at: *at,
                });
                drained += settled;
                *at += settled;
            }
        }
        (drained, (start, end))
    }

    /// Address of the stage's design: only stages and windows under one
    /// filter share a kernel call.
    fn design(&self) -> usize {
        Arc::as_ptr(self.forward.filter()) as usize
    }

    /// Writes the mutable zero-phase state: forward-cascade registers,
    /// buffered input, unsettled tail and the priming flag. The backward
    /// pass restarts from zero state every block in a per-thread
    /// workspace, so it carries no state of its own.
    pub fn encode(&self, w: &mut Writer) {
        self.forward.encode(w);
        w.f64s(&self.pending);
        w.f64s(&self.tail);
        w.bool(self.primed);
    }

    /// Reads the state [`Self::encode`] wrote. The stage must have been
    /// built with the same design and `settle`/`ext`/`block`/alignment
    /// for the resumed stream to be bitwise identical.
    ///
    /// State written between two `push_chunk` calls always has `pending`
    /// shorter than the next block (the shortened first block of an
    /// aligned stage before priming), a `tail` of at most `settle`
    /// samples and no tail before priming; anything else is corrupt and
    /// rejected, leaving the stage untouched. Without that bound a forged
    /// tail would make every later block run an arbitrarily long
    /// backward pass.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the forward-cascade section
    /// count differs, `pending` holds a whole next block or `tail`
    /// exceeds the settle delay; [`DspError::InvalidParameter`] when an
    /// unprimed stage carries a tail; a codec error when the bytes run
    /// out.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), DspError> {
        let mut forward = self.forward.clone();
        forward.decode(r)?;
        let (pending, tail, primed) = (r.vec_f64()?, r.vec_f64()?, r.bool()?);
        let next = self.next_block(primed);
        if pending.len() >= next {
            return Err(DspError::LengthMismatch {
                left: pending.len(),
                right: next,
            });
        }
        if tail.len() > self.settle {
            return Err(DspError::LengthMismatch {
                left: tail.len(),
                right: self.settle,
            });
        }
        if !primed && !tail.is_empty() {
            return Err(DspError::InvalidParameter {
                name: "primed",
                value: 0.0,
                constraint: "an unprimed zero-phase stage has no unsettled tail",
            });
        }
        (self.forward, self.pending, self.tail, self.primed) = (forward, pending, tail, primed);
        Ok(())
    }
}

/// A sliding window of raw samples addressed in absolute stream
/// coordinates, with amortized O(1) trimming.
///
/// `Vec::drain(..k)` on every push — the PR-1 [`std::vec::Vec`]
/// sliding-window idiom — is O(remaining) per call, O(n²) over a
/// session. `HistoryRing` instead tracks a logical start offset and
/// compacts with a single `copy_within` only once the dead prefix
/// exceeds the live region, so each sample is moved O(1) times
/// amortized.
#[derive(Debug, Clone, Default)]
pub struct HistoryRing {
    buf: Vec<f64>,
    /// Index into `buf` of the first live sample.
    head: usize,
    /// Absolute stream index of the first live sample.
    base: usize,
}

impl HistoryRing {
    /// Creates an empty ring.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absolute index of the first retained sample.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Absolute index one past the newest sample.
    #[must_use]
    pub fn end(&self) -> usize {
        self.base + self.len()
    }

    /// Number of live samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` when no live samples remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends samples at the head of the stream.
    pub fn extend(&mut self, samples: &[f64]) {
        self.buf.extend_from_slice(samples);
    }

    /// Drops every sample with absolute index below `abs`. Amortized
    /// O(dropped): compaction only runs when the dead prefix outweighs
    /// the live samples.
    pub fn discard_before(&mut self, abs: usize) {
        let abs = abs.clamp(self.base, self.end());
        self.head += abs - self.base;
        self.base = abs;
        if self.head > self.buf.len() - self.head {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
    }

    /// Borrows the samples `[lo, hi)` in absolute coordinates.
    ///
    /// # Panics
    ///
    /// Panics when the range is not fully retained.
    #[must_use]
    pub fn slice(&self, lo: usize, hi: usize) -> &[f64] {
        assert!(lo >= self.base && hi <= self.end() && lo <= hi);
        &self.buf[self.head + (lo - self.base)..self.head + (hi - self.base)]
    }

    /// The live samples as one contiguous slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.head..]
    }

    /// Writes the absolute base index and the live window. Dead prefix
    /// capacity is not carried — a decoded ring is freshly compacted.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.base);
        w.f64s(self.as_slice());
    }

    /// Reads a ring [`Self::encode`] wrote, replacing any current
    /// content.
    ///
    /// # Errors
    ///
    /// [`DspError::InvalidParameter`] when the window would end past the
    /// last addressable index (`base + len` overflows); a codec error
    /// when the bytes run out. The ring is untouched on error.
    pub fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), DspError> {
        let base = r.usize()?;
        let buf = r.vec_f64()?;
        if base.checked_add(buf.len()).is_none() {
            return Err(DspError::InvalidParameter {
                name: "base",
                value: base as f64,
                constraint: "the ring must end within the index range",
            });
        }
        *self = Self { buf, head: 0, base };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_cache;
    use crate::zero_phase::filtfilt_iir;

    const FS: f64 = 250.0;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * 17.0 * t).sin()
                    + 0.1 * (i as f64 * 0.7919).sin()
            })
            .collect()
    }

    #[test]
    fn streaming_cascade_matches_batch_bitwise() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(1000);
        let batch = f.filter(&x);
        let mut s = StreamingCascade::new(f);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for chunk in x.chunks(37) {
            s.process_chunk(chunk, &mut buf);
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, batch);
    }

    #[test]
    fn streaming_cascade_chunk_size_invariant() {
        let f = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let x = signal(700);
        let run = |chunk: usize| {
            let mut s = StreamingCascade::new(Arc::clone(&f));
            let mut out = Vec::new();
            let mut buf = Vec::new();
            for c in x.chunks(chunk) {
                s.process_chunk(c, &mut buf);
                out.extend_from_slice(&buf);
            }
            out
        };
        assert_eq!(run(1), run(613));
    }

    #[test]
    fn streaming_derivative_matches_batch() {
        let x = signal(500);
        let batch = crate::diff::derivative(&x, FS).unwrap();
        let mut s = StreamingDerivative::new(FS);
        let out: Vec<f64> = x.iter().filter_map(|&v| s.push(v)).collect();
        // streaming emits y[0..n-1]; batch's last sample is the
        // backward-difference edge a stream never sees
        assert_eq!(out.len(), x.len() - 1);
        assert_eq!(out[..], batch[..x.len() - 1]);
    }

    #[test]
    fn zero_phase_converges_to_batch_interior() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(3000);
        let batch = filtfilt_iir(&f, &x).unwrap();
        let mut s = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90, 250);
        let mut out = Vec::new();
        for chunk in x.chunks(250) {
            s.push_chunk(chunk, &mut out);
        }
        assert!(out.len() >= x.len() - (0.5 * FS) as usize);
        // Compare the interior (skip the priming-affected first 2 s).
        let scale = x.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        for i in 500..out.len() {
            assert!(
                (out[i] - batch[i]).abs() < 1e-6 * scale,
                "sample {i}: {} vs {}",
                out[i],
                batch[i]
            );
        }
    }

    #[test]
    fn zero_phase_is_chunk_size_invariant() {
        let f = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let x = signal(2000);
        let run = |chunks: &[usize]| {
            let mut s = StreamingZeroPhase::new(Arc::clone(&f), (2.0 * FS) as usize, 250, 50);
            let mut out = Vec::new();
            let mut fed = 0;
            let mut k = 0;
            while fed < x.len() {
                let c = chunks[k % chunks.len()].min(x.len() - fed);
                s.push_chunk(&x[fed..fed + c], &mut out);
                fed += c;
                k += 1;
            }
            out
        };
        let a = run(&[250]);
        let b = run(&[37, 113, 1, 499]);
        let n = a.len().min(b.len());
        assert!(n > 1000);
        assert_eq!(a[..n], b[..n]);
    }

    #[test]
    fn zero_phase_reset_matches_fresh_instance() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(1500);
        let mut reused = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90, 50);
        let mut garbage = Vec::new();
        reused.push_chunk(&x[..700], &mut garbage);
        reused.reset();
        let mut fresh = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90, 50);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for chunk in x.chunks(125) {
            reused.push_chunk(chunk, &mut a);
            fresh.push_chunk(chunk, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn aligned_chain_lags_exactly_its_settles_at_every_hop_end() {
        // The streaming ICG chain: derivative → LP → HP, fed one hop of
        // two blocks at a time. Aligned, each stage completes a block at
        // every hop end, so the output trails the input by exactly the
        // derivative latency plus both settles; unaligned, each stage
        // waits up to a block more.
        let lp = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let hp = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let (hop, block, lp_settle, hp_settle) = (250, 125, 25, 500);
        let delay = StreamingDerivative::LATENCY;
        let x = signal(4000);
        let run = |aligned: bool| {
            let mut d = StreamingDerivative::new(FS);
            let mut l = StreamingZeroPhase::new(Arc::clone(&lp), lp_settle, 90, block);
            let mut h = StreamingZeroPhase::new(Arc::clone(&hp), hp_settle, 625, block);
            if aligned {
                l = l.aligned_to(delay);
                h = h.aligned_to(delay + lp_settle);
            }
            let (mut dv, mut lv, mut hv) = (Vec::new(), Vec::new(), Vec::new());
            let mut lags = Vec::new();
            for (k, chunk) in x.chunks(hop).enumerate() {
                dv.clear();
                dv.extend(chunk.iter().filter_map(|&v| d.push(v)));
                lv.clear();
                l.push_chunk(&dv, &mut lv);
                h.push_chunk(&lv, &mut hv);
                if k >= 3 {
                    lags.push((k + 1) * hop - hv.len());
                }
            }
            lags
        };
        let aligned = run(true);
        assert!(aligned
            .iter()
            .all(|&lag| lag == delay + lp_settle + hp_settle));
        // Unaligned, the LP input stops a block short of the hop end
        // (T − 125 of T − 1) and the HP input two (T − 250 of T − 150).
        assert!(run(false).iter().all(|&lag| lag == 2 * block + hp_settle));
    }

    #[test]
    fn history_ring_tracks_absolute_coordinates() {
        let mut r = HistoryRing::new();
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        r.extend(&x[..60]);
        r.discard_before(25);
        r.extend(&x[60..]);
        assert_eq!(r.base(), 25);
        assert_eq!(r.end(), 100);
        assert_eq!(r.slice(30, 33), &[30.0, 31.0, 32.0]);
        r.discard_before(90);
        assert_eq!(r.len(), 10);
        assert_eq!(r.slice(95, 96), &[95.0]);
        assert_eq!(r.as_slice()[0], 90.0);
    }

    fn bytes(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn kernel_snapshots_resume_bitwise_mid_stream() {
        let lp = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(1200);
        let split = 457;

        // Straight-through references.
        let mut c_ref = StreamingCascade::new(Arc::clone(&lp));
        let mut d_ref = StreamingDerivative::new(FS);
        let mut z_ref = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90, 50);
        let mut z_ref_out = Vec::new();
        let mut refs = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            refs.push((c_ref.push(v), d_ref.push(v)));
            z_ref.push_chunk(&x[i..=i], &mut z_ref_out);
        }

        // Run to `split`, encode, decode into fresh kernels, resume.
        let mut c = StreamingCascade::new(Arc::clone(&lp));
        let mut d = StreamingDerivative::new(FS);
        let mut z = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90, 50);
        let mut z_out = Vec::new();
        for (i, &v) in x[..split].iter().enumerate() {
            let got = (c.push(v), d.push(v));
            assert_eq!(got, refs[i]);
            z.push_chunk(&x[i..=i], &mut z_out);
        }
        let state = bytes(|w| {
            c.encode(w);
            d.encode(w);
            z.encode(w);
        });
        let mut c2 = StreamingCascade::new(Arc::clone(&lp));
        let mut d2 = StreamingDerivative::new(FS);
        let mut z2 = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90, 50);
        let mut r = Reader::new(&state);
        c2.decode(&mut r).unwrap();
        d2.decode(&mut r).unwrap();
        z2.decode(&mut r).unwrap();
        assert!(r.at_end());
        for (i, &v) in x[split..].iter().enumerate() {
            let got = (c2.push(v), d2.push(v));
            assert_eq!(got, refs[split + i], "sample {}", split + i);
            z2.push_chunk(&x[split + i..=split + i], &mut z_out);
        }
        assert_eq!(z_out, z_ref_out);
    }

    #[test]
    fn cascade_restore_rejects_shape_mismatch() {
        let lp4 = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let lp2 = design_cache::butterworth_lowpass(2, 20.0, FS).unwrap();
        let mut live = StreamingCascade::new(lp4);
        live.push(1.0);
        let state = bytes(|w| live.encode(w));
        let mut wrong = StreamingCascade::new(lp2);
        let before = bytes(|w| wrong.encode(w));
        assert!(matches!(
            wrong.decode(&mut Reader::new(&state)),
            Err(DspError::LengthMismatch { left: 2, right: 1 })
        ));
        assert_eq!(bytes(|w| wrong.encode(w)), before);
        // Truncated registers leave the cascade untouched too.
        let mut same = StreamingCascade::new(Arc::clone(live.filter()));
        assert!(same
            .decode(&mut Reader::new(&state[..state.len() - 1]))
            .is_err());
        assert_eq!(same.state, [(0.0, 0.0); 2]);
        same.decode(&mut Reader::new(&state)).unwrap();
        assert_eq!(bytes(|w| same.encode(w)), state);
    }

    /// A zero-phase stage's bytes as `forge` leaves its state.
    fn forged(stage: &StreamingZeroPhase, forge: impl FnOnce(&mut StreamingZeroPhase)) -> Vec<u8> {
        let mut stage = stage.clone();
        forge(&mut stage);
        bytes(|w| stage.encode(w))
    }

    #[test]
    fn zero_phase_restore_rejects_impossible_geometry() {
        let lp = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let (settle, block) = (125, 50);
        let mut live = StreamingZeroPhase::new(Arc::clone(&lp), settle, 90, block);
        let mut out = Vec::new();
        live.push_chunk(&signal(437), &mut out);
        assert_eq!((live.pending.len(), live.tail.len()), (37, settle));
        let good = forged(&live, |_| {});

        let mut z = StreamingZeroPhase::new(Arc::clone(&lp), settle, 90, block);
        let fresh = forged(&z, |_| {});
        let whole_block = forged(&live, |s| s.pending.resize(block, 0.0));
        let long_tail = forged(&live, |s| s.tail.push(0.0));
        let unprimed_tail = forged(&live, |s| s.primed = false);
        for bad in [&whole_block, &long_tail, &unprimed_tail] {
            assert!(z.decode(&mut Reader::new(bad)).is_err());
            // A rejected state leaves the stage untouched.
            assert_eq!(forged(&z, |_| {}), fresh);
        }
        z.decode(&mut Reader::new(&good)).unwrap();
        assert_eq!(forged(&z, |_| {}), good);

        // Aligned by 12, the first block is 38 samples: an unprimed
        // stage can hold 37 pending, never 38.
        let mut aligned =
            StreamingZeroPhase::new(Arc::clone(&lp), settle, 90, block).aligned_to(12);
        let unprimed = forged(&aligned, |s| s.pending = signal(37));
        aligned.decode(&mut Reader::new(&unprimed)).unwrap();
        let first_block = forged(&aligned, |s| s.pending.push(0.0));
        assert!(aligned.decode(&mut Reader::new(&first_block)).is_err());
        assert_eq!(forged(&aligned, |_| {}), unprimed);
        // Once primed, whole blocks apply again.
        let primed = forged(&aligned, |s| {
            s.pending.push(0.0);
            s.primed = true;
        });
        aligned.decode(&mut Reader::new(&primed)).unwrap();
    }

    #[test]
    fn zero_phase_geometry_off_the_aligned_grid_is_refused() {
        // The streaming ICG chain's two stages at 250 Hz: blocks of 125,
        // the LP aligned one sample behind the hop (first block 124) with
        // a 25-sample settle, the HP 26 behind (first block 99).
        let lp = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let hp = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let stages = [
            StreamingZeroPhase::new(lp, 25, 90, 125).aligned_to(1),
            StreamingZeroPhase::new(hp, 500, 625, 125).aligned_to(26),
        ];
        for (stage, first) in stages.iter().zip([124, 99]) {
            // An unprimed stage may hold less than its first block, never
            // a whole one.
            let short = forged(stage, |s| s.pending = vec![0.0; first - 1]);
            let whole = forged(stage, |s| s.pending = vec![0.0; first]);
            let mut fresh = stage.clone();
            fresh.decode(&mut Reader::new(&short)).unwrap();
            let mut out = Vec::new();
            fresh.push_chunk(&[0.5], &mut out);
            assert!(fresh.primed, "first block {first} completed");
            assert!(stage.clone().decode(&mut Reader::new(&whole)).is_err());
        }
        // The LP tail is bounded by its 0.1 s settle.
        let mut lp = stages[0].clone();
        lp.push_chunk(&signal(249), &mut Vec::new());
        assert_eq!(lp.tail.len(), 25);
        let settled = forged(&lp, |_| {});
        let long = forged(&lp, |s| s.tail.push(0.0));
        assert!(stages[0].clone().decode(&mut Reader::new(&long)).is_err());
        stages[0]
            .clone()
            .decode(&mut Reader::new(&settled))
            .unwrap();
    }

    #[test]
    fn history_ring_snapshot_round_trips() {
        let mut r = HistoryRing::new();
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        r.extend(&x);
        r.discard_before(37);
        let state = bytes(|w| r.encode(w));
        let mut r2 = HistoryRing::new();
        r2.extend(&[9.0; 5]);
        r2.decode(&mut Reader::new(&state)).unwrap();
        assert_eq!(r2.base(), 37);
        assert_eq!(r2.end(), 100);
        assert_eq!(r2.as_slice(), r.as_slice());
    }

    #[test]
    fn history_ring_decode_rejects_an_end_past_the_index_range() {
        let mut live = HistoryRing::new();
        live.extend(&[1.0, 2.0, 3.0]);
        let at_base = |base: usize| {
            let mut ring = live.clone();
            ring.base = base;
            bytes(|w| ring.encode(w))
        };
        let mut ring = HistoryRing::new();
        assert!(ring
            .decode(&mut Reader::new(&at_base(usize::MAX - 2)))
            .is_err());
        assert_eq!((ring.base(), ring.len()), (0, 0));
        // The last window that still ends in range decodes and extends.
        ring.decode(&mut Reader::new(&at_base(usize::MAX - 3)))
            .unwrap();
        assert_eq!(ring.end(), usize::MAX);
        ring.discard_before(usize::MAX - 1);
        assert_eq!(ring.as_slice(), [3.0]);
    }

    #[test]
    fn history_ring_discard_is_amortized() {
        // Push/trim many times; the buffer's capacity must stay bounded
        // by ~2× the live window rather than growing with the stream.
        let mut r = HistoryRing::new();
        let chunk = vec![1.0; 100];
        for _ in 0..1000 {
            r.extend(&chunk);
            let end = r.end();
            r.discard_before(end.saturating_sub(500));
        }
        assert_eq!(r.len(), 500);
        assert!(r.buf.capacity() < 5000, "capacity {}", r.buf.capacity());
    }
}

//! Property-based tests over the DSP kernels.

use cardiotouch_dsp::codec::{Reader, Writer};
use cardiotouch_dsp::fir::Fir;
use cardiotouch_dsp::iir::Butterworth;
use cardiotouch_dsp::morph::{self, FlatElement};
use cardiotouch_dsp::peaks;
use cardiotouch_dsp::stats;
use cardiotouch_dsp::streaming::{StreamingCascade, StreamingZeroPhase};
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::{
    filtfilt_fir, filtfilt_fir_into, filtfilt_fir_span_into, filtfilt_iir, filtfilt_iir_ext,
    filtfilt_iir_ext_into, filtfilt_iir_into, odd_reflect, ZeroPhaseScratch,
};
use proptest::prelude::*;
use std::sync::Arc;

fn signal(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, min_len..=max_len)
}

proptest! {
    #[test]
    fn filtfilt_fir_preserves_length(x in signal(2, 400)) {
        let f = Fir::lowpass(16, 20.0, 250.0, Window::Hamming).unwrap();
        let y = filtfilt_fir(&f, &x).unwrap();
        prop_assert_eq!(y.len(), x.len());
    }

    #[test]
    fn filtfilt_iir_preserves_length(x in signal(2, 400)) {
        let f = Butterworth::lowpass(4, 20.0, 250.0).unwrap();
        let y = filtfilt_iir(&f, &x).unwrap();
        prop_assert_eq!(y.len(), x.len());
    }

    #[test]
    fn filtfilt_is_linear(x in signal(16, 128), a in -5.0f64..5.0) {
        let f = Butterworth::lowpass(2, 20.0, 250.0).unwrap();
        let y1 = filtfilt_iir(&f, &x).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| a * v).collect();
        let y2 = filtfilt_iir(&f, &xs).unwrap();
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((a * u - v).abs() < 1e-6 * (1.0 + u.abs() * a.abs()));
        }
    }

    #[test]
    fn filtfilt_time_reversal_symmetry(x in signal(64, 256)) {
        // Zero phase means filtering a reversed signal equals reversing the
        // filtered signal. Exact only on infinite signals — edge transients
        // differ — so compare interior samples with a tolerance scaled to
        // the signal magnitude.
        let f = Butterworth::lowpass(2, 20.0, 250.0).unwrap();
        let y = filtfilt_iir(&f, &x).unwrap();
        let xr: Vec<f64> = x.iter().rev().copied().collect();
        let yr = filtfilt_iir(&f, &xr).unwrap();
        let scale = x.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        let rev: Vec<f64> = yr.iter().rev().copied().collect();
        let margin = 24; // a few filter time-constants
        for i in margin..x.len() - margin {
            prop_assert!((y[i] - rev[i]).abs() < 0.02 * scale, "i={}", i);
        }
    }

    #[test]
    fn odd_reflect_length_and_interior(x in signal(3, 64), ext in 0usize..3) {
        let ext = ext.min(x.len() - 1);
        let p = odd_reflect(&x, ext);
        prop_assert_eq!(p.len(), x.len() + 2 * ext);
        prop_assert_eq!(&p[ext..ext + x.len()], &x[..]);
    }

    #[test]
    fn erosion_le_signal_le_dilation(x in signal(9, 200), hw in 0usize..4) {
        let el = FlatElement::new(hw);
        let e = morph::erode(&x, el).unwrap();
        let d = morph::dilate(&x, el).unwrap();
        for i in 0..x.len() {
            prop_assert!(e[i] <= x[i] && x[i] <= d[i]);
        }
    }

    #[test]
    fn opening_anti_extensive_closing_extensive(x in signal(9, 200), hw in 0usize..4) {
        let el = FlatElement::new(hw);
        let o = morph::open(&x, el).unwrap();
        let c = morph::close(&x, el).unwrap();
        for i in 0..x.len() {
            prop_assert!(o[i] <= x[i] + 1e-12);
            prop_assert!(c[i] >= x[i] - 1e-12);
        }
    }

    #[test]
    fn opening_idempotent(x in signal(9, 150), hw in 1usize..4) {
        let el = FlatElement::new(hw);
        let once = morph::open(&x, el).unwrap();
        let twice = morph::open(&once, el).unwrap();
        for i in 0..x.len() {
            prop_assert!((once[i] - twice[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn morphology_translation_invariant(x in signal(9, 150), hw in 0usize..4, c in -50.0f64..50.0) {
        // eroding (x + c) equals erode(x) + c
        let el = FlatElement::new(hw);
        let e0 = morph::erode(&x, el).unwrap();
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        let e1 = morph::erode(&shifted, el).unwrap();
        for i in 0..x.len() {
            prop_assert!((e0[i] + c - e1[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn pearson_in_unit_interval(
        x in prop::collection::vec(-100.0f64..100.0, 3..64),
        seed in 0u64..1000
    ) {
        // derive a second series deterministically but non-degenerately
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * ((seed % 7) as f64 - 3.0) + ((i as f64) * 0.37 + seed as f64).sin())
            .collect();
        if let (Ok(r),) = (stats::pearson(&x, &y),) {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
        }
    }

    #[test]
    fn pearson_symmetric(x in signal(3, 64)) {
        let y: Vec<f64> = x.iter().enumerate().map(|(i, v)| v + (i as f64 * 0.7).cos()).collect();
        if let (Ok(a), Ok(b)) = (stats::pearson(&x, &y), stats::pearson(&y, &x)) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn local_maxima_are_maxima(x in signal(3, 200)) {
        for i in peaks::local_maxima(&x, f64::NEG_INFINITY, 1) {
            prop_assert!(x[i] > x[i - 1]);
            prop_assert!(x[i] >= x[i + 1]);
        }
    }

    #[test]
    fn local_maxima_respect_distance(x in signal(3, 200), d in 1usize..20) {
        let m = peaks::local_maxima(&x, f64::NEG_INFINITY, d);
        for w in m.windows(2) {
            prop_assert!(w[1] - w[0] >= d);
        }
    }

    #[test]
    fn argmax_is_max(x in signal(1, 100)) {
        let i = peaks::argmax(&x).unwrap();
        for &v in &x {
            prop_assert!(x[i] >= v);
        }
    }

    #[test]
    fn fir_filter_into_bitwise_equals_allocating(x in signal(1, 300), order in 1usize..8) {
        // The allocating path delegates to `filter_into`; this pins that
        // contract as observable behaviour: same bits, every sample, and
        // a dirty reused buffer must not leak through.
        let f = Fir::lowpass(2 * order, 30.0, 250.0, Window::Hamming).unwrap();
        let reference = f.filter(&x);
        let mut reused = vec![f64::NAN; 17]; // dirty, wrong-sized buffer
        f.filter_into(&x, &mut reused);
        prop_assert_eq!(reused.len(), reference.len());
        for (a, b) in reference.iter().zip(&reused) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn filtfilt_fir_scratch_bitwise_equals_allocating(x in signal(2, 300)) {
        let f = Fir::lowpass(16, 20.0, 250.0, Window::Hamming).unwrap();
        let reference = filtfilt_fir(&f, &x).unwrap();
        let mut scratch = ZeroPhaseScratch::new();
        let mut y = Vec::new();
        // run twice through the same scratch: the second pass sees dirty
        // buffers from the first and must still match exactly
        for _ in 0..2 {
            filtfilt_fir_into(&f, &x, &mut scratch, &mut y).unwrap();
            prop_assert_eq!(y.len(), reference.len());
            for (a, b) in reference.iter().zip(&y) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn filtfilt_fir_span_bitwise_equals_full_window_slice(
        x in signal(2, 600),
        taps in prop::collection::vec(-1.0f64..1.0, 1..=64),
        a in 0usize..=600,
        b in 0usize..=600,
    ) {
        let f = Fir::from_taps(taps).unwrap();
        let n = x.len();
        let full = filtfilt_fir(&f, &x).unwrap();
        let (a, b) = (a % (n + 1), b % (n + 1));
        let order = f.order();
        // A random span, the empty span, the full range, and spans whose
        // dependency cone reaches either reflected edge.
        let spans = [
            a.min(b)..a.max(b),
            a..a,
            0..n,
            0..a.max(1).min(n),
            n - a.min(n - 1).min(order + 1)..n,
            a.min(order)..(a.min(order) + 1).min(n),
            n.saturating_sub(order + 1).max(a.min(n - 1))..n,
        ];
        // Dirty, wrongly sized buffers must not leak into the output.
        let (mut work, mut y) = (vec![f64::NAN; 7], vec![f64::NAN; 3]);
        for span in spans {
            filtfilt_fir_span_into(&f, &x, span.clone(), &mut work, &mut y).unwrap();
            prop_assert_eq!(y.len(), span.len());
            for (i, (u, v)) in full[span.clone()].iter().zip(&y).enumerate() {
                prop_assert!(
                    u.to_bits() == v.to_bits(),
                    "n={} order={} span={:?} i={}: {} vs {}", n, order, span, i, u, v
                );
            }
        }
    }

    #[test]
    fn filtfilt_fir_span_rejects_bad_spans_without_panicking(
        x in signal(0, 40),
        taps in prop::collection::vec(-1.0f64..1.0, 1..=64),
        a in 0usize..50,
    ) {
        let f = Fir::from_taps(taps).unwrap();
        let n = x.len();
        let (mut work, mut y) = (Vec::new(), Vec::new());
        if n < 2 {
            let full = filtfilt_fir_into(&f, &x, &mut ZeroPhaseScratch::new(), &mut y);
            for span in [0..0, 0..n, a..a + 1] {
                let got = filtfilt_fir_span_into(&f, &x, span, &mut work, &mut y);
                prop_assert_eq!(got.clone().unwrap_err(), full.clone().unwrap_err());
            }
        } else {
            let end = a % (n + 1);
            let inverted = end + 1..end;
            prop_assert!(filtfilt_fir_span_into(&f, &x, inverted, &mut work, &mut y).is_err());
            prop_assert!(filtfilt_fir_span_into(&f, &x, end..n + 1 + a, &mut work, &mut y).is_err());
            prop_assert!(filtfilt_fir_span_into(&f, &x, n + 1..n + 2, &mut work, &mut y).is_err());
        }
    }

    #[test]
    fn filtfilt_iir_scratch_bitwise_equals_allocating(x in signal(2, 300), n in 1usize..6) {
        let f = Butterworth::lowpass(n, 20.0, 250.0).unwrap();
        let reference = filtfilt_iir(&f, &x).unwrap();
        let mut scratch = ZeroPhaseScratch::new();
        let mut y = Vec::new();
        for _ in 0..2 {
            filtfilt_iir_into(&f, &x, &mut scratch, &mut y).unwrap();
            prop_assert_eq!(y.len(), reference.len());
            for (a, b) in reference.iter().zip(&y) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn filtfilt_iir_ext_scratch_bitwise_equals_allocating(
        x in signal(2, 300),
        ext in 0usize..200,
    ) {
        let f = Butterworth::highpass(2, 0.4, 250.0).unwrap();
        let reference = filtfilt_iir_ext(&f, &x, ext).unwrap();
        let mut scratch = ZeroPhaseScratch::new();
        let mut y = Vec::new();
        filtfilt_iir_ext_into(&f, &x, ext, &mut scratch, &mut y).unwrap();
        prop_assert_eq!(y.len(), reference.len());
        for (a, b) in reference.iter().zip(&y) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn butterworth_filter_in_place_bitwise_equals_allocating(x in signal(1, 300), n in 1usize..6) {
        let f = Butterworth::lowpass(n, 20.0, 250.0).unwrap();
        let reference = f.filter(&x);
        let mut buf = x.clone();
        f.filter_in_place(&mut buf);
        for (a, b) in reference.iter().zip(&buf) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fir_filter_linearity(x in signal(8, 100), a in -3.0f64..3.0) {
        let f = Fir::lowpass(8, 30.0, 250.0, Window::Hamming).unwrap();
        let y1 = f.filter(&x);
        let xs: Vec<f64> = x.iter().map(|v| a * v).collect();
        let y2 = f.filter(&xs);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((a * u - v).abs() < 1e-9 * (1.0 + u.abs() * a.abs()));
        }
    }

    #[test]
    fn butterworth_magnitude_monotone_decreasing_lowpass(fc in 5.0f64..60.0, n in 1usize..6) {
        let f = Butterworth::lowpass(n, fc, 250.0).unwrap();
        let mut prev = f.magnitude_at(0.0, 250.0);
        for k in 1..25 {
            let g = f.magnitude_at(k as f64 * 5.0, 250.0);
            prop_assert!(g <= prev + 1e-9);
            prev = g;
        }
    }

    #[test]
    fn percentile_monotone(x in signal(2, 64), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&x, lo).unwrap();
        let b = stats::percentile(&x, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }
}

/// The block-by-block zero-phase stage as it stood before backward passes
/// ran in lock-step: one backward pass per block, every recursion step
/// through per-sample `StreamingCascade::push`, every sample through
/// `pending`, and a per-stage scratch buffer.
/// The first block after a start or reset is `lead` samples short, the
/// grid alignment of `StreamingZeroPhase::aligned_to`. It is the oracle
/// `StreamingZeroPhase` must match bitwise.
#[derive(Debug, Clone)]
struct BlockByBlockZeroPhase {
    forward: StreamingCascade,
    backward: StreamingCascade,
    pending: Vec<f64>,
    tail: Vec<f64>,
    settle: usize,
    ext: usize,
    block: usize,
    lead: usize,
    scratch: Vec<f64>,
    primed: bool,
}

impl BlockByBlockZeroPhase {
    fn new(filter: Arc<Butterworth>, settle: usize, ext: usize, block: usize, lead: usize) -> Self {
        Self {
            forward: StreamingCascade::new(Arc::clone(&filter)),
            backward: StreamingCascade::new(filter),
            pending: Vec::new(),
            tail: Vec::new(),
            settle: settle.max(1),
            ext,
            block: block.max(1),
            lead,
            scratch: Vec::new(),
            primed: false,
        }
    }

    fn reset(&mut self) {
        self.forward.reset();
        self.backward.reset();
        self.pending.clear();
        self.tail.clear();
        self.primed = false;
    }

    fn push_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        self.pending.extend_from_slice(chunk);
        let mut consumed = 0;
        loop {
            let len = if self.primed {
                self.block
            } else {
                self.block - self.lead
            };
            if self.pending.len() - consumed < len {
                break;
            }
            self.process_block_range(consumed, consumed + len, out);
            consumed += len;
        }
        self.pending.drain(..consumed);
    }

    fn process_block_range(&mut self, lo: usize, hi: usize, out: &mut Vec<f64>) {
        if !self.primed {
            let ext = self.ext.min(hi - lo - 1);
            for i in (lo + 1..=lo + ext).rev() {
                let _ = self.forward.push(self.pending[i]);
            }
            self.primed = true;
        }
        let start = self.tail.len();
        self.tail.extend_from_slice(&self.pending[lo..hi]);
        for v in &mut self.tail[start..] {
            *v = self.forward.push(*v);
        }
        let settled = self.tail.len().saturating_sub(self.settle);
        if settled == 0 {
            return;
        }
        let ext = self.ext.min(self.tail.len().saturating_sub(1));
        self.scratch.clear();
        for i in (self.tail.len() - 1 - ext)..self.tail.len() - 1 {
            self.scratch.push(self.tail[i]);
        }
        self.scratch.extend(self.tail.iter().rev());
        self.backward.reset();
        for v in &mut self.scratch {
            *v = self.backward.push(*v);
        }
        let n = self.scratch.len();
        for i in 0..settled {
            out.push(self.scratch[n - 1 - i]);
        }
        self.tail.drain(..settled);
    }

    /// The stage's state in `StreamingZeroPhase::encode` layout.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.forward.encode(&mut w);
        w.f64s(&self.pending);
        w.f64s(&self.tail);
        w.bool(self.primed);
        w.into_bytes()
    }

    fn decode(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        self.forward.decode(&mut r).unwrap();
        self.backward.reset();
        self.pending = r.vec_f64().unwrap();
        self.tail = r.vec_f64().unwrap();
        self.primed = r.bool().unwrap();
        assert!(r.at_end());
    }
}

fn encoded(stage: &StreamingZeroPhase) -> Vec<u8> {
    let mut w = Writer::new();
    stage.encode(&mut w);
    w.into_bytes()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// A 20 Hz low-pass or 0.4 Hz high-pass of the given order — the two
/// designs the streaming ICG chain runs, over every section count.
fn icg_design(highpass: bool, order: usize) -> Arc<Butterworth> {
    Arc::new(if highpass {
        Butterworth::highpass(order, 0.4, 250.0).unwrap()
    } else {
        Butterworth::lowpass(order, 20.0, 250.0).unwrap()
    })
}

/// `Fir::filter_into` as one dependent add chain per output, from `0.0`
/// in ascending tap order: the scalar reference the blocked kernel must
/// match bit for bit.
fn fir_per_output(taps: &[f64], x: &[f64]) -> Vec<f64> {
    (0..x.len())
        .map(|n| {
            let mut acc = 0.0;
            for k in 0..=n.min(taps.len() - 1) {
                acc += taps[k] * x[n - k];
            }
            acc
        })
        .collect()
}

/// `Butterworth::filter_in_place` as one whole-buffer pass per section,
/// in cascade order: the reference the paired-section kernel must match
/// bit for bit.
fn cascade_section_by_section(f: &Butterworth, x: &mut [f64]) {
    for s in f.sections() {
        let (mut s1, mut s2) = (0.0, 0.0);
        for xn in x.iter_mut() {
            let input = *xn;
            let yn = s.b0 * input + s1;
            s1 = s.b1 * input - s.a1 * yn + s2;
            s2 = s.b2 * input - s.a2 * yn;
            *xn = yn;
        }
    }
}

/// `filtfilt_fir_span_into` as one dependent add chain per output, from
/// `0.0` in ascending tap order, with the odd-reflected edge computed
/// on the fly: the scalar reference the blocked span kernel must match
/// bit for bit.
fn span_per_output(taps: &[f64], x: &[f64], span: std::ops::Range<usize>) -> Vec<f64> {
    let order = taps.len() - 1;
    let n = x.len();
    let ext = (3 * (order + 1)).min(n - 1);
    let np = n + 2 * ext;
    let padded = |j: usize| {
        if j < ext {
            2.0 * x[0] - x[ext - j]
        } else if j < ext + n {
            x[j - ext]
        } else {
            2.0 * x[n - 1] - x[n - 1 - (j + 1 - ext - n)]
        }
    };
    let (start, end) = (ext + span.start, ext + span.end);
    let fwd: Vec<f64> = (start..(end + order).min(np))
        .map(|q| {
            let mut acc = 0.0;
            for (k, t) in taps[..=q.min(order)].iter().enumerate() {
                acc += t * padded(q - k);
            }
            acc
        })
        .collect();
    (start..end)
        .map(|p| {
            let mut acc = 0.0;
            for k in 0..=(np - 1 - p).min(order) {
                acc += taps[k] * fwd[p - start + k];
            }
            acc
        })
        .collect()
}

/// `peaks::has_sign_pattern` as it collects the sign runs into a `Vec`
/// and searches its windows: the reference for the streaming matcher.
fn sign_pattern_by_runs(x: &[f64], pattern: &[bool]) -> bool {
    if pattern.is_empty() {
        return true;
    }
    let mut runs: Vec<bool> = Vec::new();
    for &v in x {
        if v == 0.0 {
            continue;
        }
        let s = v > 0.0;
        if runs.last() != Some(&s) {
            runs.push(s);
        }
    }
    runs.windows(pattern.len()).any(|w| w == pattern)
}

/// Values a finite random signal rarely hits: signed zeros, NaN,
/// infinities and subnormals.
const AWKWARD: [f64; 8] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 3.0,
    -f64::MIN_POSITIVE / 1024.0,
    5e-324,
];

/// [`bits`] with every NaN mapped to one pattern. Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified (which NaN
/// operand of `a + b` propagates depends on the operand order the
/// compiler picks), so kernels are held to the same bits everywhere and
/// NaN exactly where the reference has NaN.
fn nan_blind_bits(x: &[f64]) -> Vec<u64> {
    x.iter()
        .map(|&v| if v.is_nan() { f64::NAN } else { v })
        .map(f64::to_bits)
        .collect()
}

/// Overwrites `x[spots[i] % len]` with `AWKWARD[kinds[i] % 8]`.
fn splice_awkward(x: &mut [f64], spots: &[usize], kinds: &[usize]) {
    let len = x.len();
    if len == 0 {
        return;
    }
    for (&at, &kind) in spots.iter().zip(kinds) {
        x[at % len] = AWKWARD[kind % AWKWARD.len()];
    }
}

// The oracle properties share the `oracle_` prefix so CI can run them
// alone in release with a large `PROPTEST_CASES`.
proptest! {
    #[test]
    fn oracle_blocked_fir_bitwise_equals_per_output_chain(
        taps in signal(1, 65),
        x in signal(0, 600),
        tiny in 0usize..3,
        spots in prop::collection::vec(0usize..600, 0..=4),
        kinds in prop::collection::vec(0usize..8, 4),
        tap_spots in prop::collection::vec(0usize..65, 0..=2),
        tap_kinds in prop::collection::vec(0usize..8, 2),
    ) {
        // A third of the cases are no longer than the order, where no
        // full-tap block runs; the rest mostly end on a partial block.
        let mut x = x;
        if tiny == 0 {
            x.truncate(x.len() % taps.len());
        }
        splice_awkward(&mut x, &spots, &kinds);
        let mut taps = taps;
        splice_awkward(&mut taps, &tap_spots, &tap_kinds);
        let f = Fir::from_taps(taps).unwrap();
        let want = fir_per_output(f.taps(), &x);
        let mut got = vec![f64::NAN; 3]; // dirty, wrong-sized buffer
        f.filter_into(&x, &mut got);
        prop_assert!(
            nan_blind_bits(&got) == nan_blind_bits(&want),
            "taps={} len={}", f.taps().len(), x.len()
        );
    }

    #[test]
    fn oracle_paired_cascade_bitwise_equals_section_by_section(
        x in signal(0, 1500),
        highpass in 0u32..2,
        order in 1usize..17,
        spots in prop::collection::vec(0usize..1500, 0..=3),
        kinds in prop::collection::vec(0usize..8, 3),
    ) {
        // Orders 1..=16 span 1..=8 sections, odd counts included.
        let f = icg_design(highpass == 1, order);
        let mut x = x;
        splice_awkward(&mut x, &spots, &kinds);
        let mut want = x.clone();
        cascade_section_by_section(&f, &mut want);
        f.filter_in_place(&mut x);
        prop_assert!(
            nan_blind_bits(&x) == nan_blind_bits(&want),
            "sections={} len={}", f.sections().len(), x.len()
        );
    }

    #[test]
    fn oracle_grouped_zero_phase_bitwise_equals_block_by_block(
        x in signal(0, 3000),
        stages in 1usize..=10,
        shared in 0u32..3,
        highpass in prop::collection::vec(0u32..2, 10),
        orders in prop::collection::vec(1usize..9, 10),
        settles in prop::collection::vec(1usize..700, 10),
        exts in prop::collection::vec(0usize..1500, 10),
        blocks in prop::collection::vec(1usize..300, 10),
        firsts in prop::collection::vec(1usize..300, 10),
        wraps in prop::collection::vec(0usize..3, 10),
        unit_block in 0u32..4,
        chunks in prop::collection::vec(0usize..700, 1..=12),
        events in prop::collection::vec(0u32..12, 1..=12),
    ) {
        // Stages share one geometry and design (their windows fill whole
        // lane groups), alternate two, or each draw their own; groups
        // past eight stages take the multi-pass path.
        let geometry = |i: usize| match shared {
            0 => 0,
            1 => i % 2,
            _ => i,
        };
        // `block = 1` runs a backward pass per sample, so keep those
        // streams short; `ext` still exceeds the tail in most cases.
        let x = if unit_block == 0 { &x[..x.len().min(400)] } else { &x[..] };
        let designs: Vec<Arc<Butterworth>> =
            (0..10).map(|g| icg_design(highpass[g] == 1, orders[g])).collect();
        let shape = |i: usize| {
            let g = geometry(i);
            let (settle, ext, block) = if unit_block == 0 {
                (settles[g] % 150 + 1, exts[g] % 300, 1)
            } else {
                (settles[g], exts[g], blocks[g])
            };
            // First-block lengths span 1..=block (`block` is the
            // unaligned grid); the upstream delay may exceed a block.
            let lead = block - ((firsts[g] - 1) % block + 1);
            (Arc::clone(&designs[g]), settle, ext, block, lead, lead + wraps[g] * block)
        };
        let fresh = |i: usize| {
            let (f, settle, ext, block, _, delay) = shape(i);
            StreamingZeroPhase::new(f, settle, ext, block).aligned_to(delay)
        };
        let fresh_oracle = |i: usize| {
            let (f, settle, ext, block, lead, _) = shape(i);
            BlockByBlockZeroPhase::new(f, settle, ext, block, lead)
        };
        let mut group: Vec<StreamingZeroPhase> = (0..stages).map(fresh).collect();
        let mut oracles: Vec<BlockByBlockZeroPhase> = (0..stages).map(fresh_oracle).collect();
        // Each stage reads the signal from its own offset, in its own
        // rotation of the chunk sizes (0-length and multi-block chunks
        // included), so stages drift in and out of step: some still
        // unprimed, some just reset or restored.
        let inputs: Vec<&[f64]> = (0..stages).map(|i| &x[(i * 53).min(x.len())..]).collect();
        let mut fed = vec![0; stages];
        let (mut got, mut want) = (vec![Vec::new(); stages], vec![Vec::new(); stages]);
        for k in 0..=64 {
            let take: Vec<usize> = (0..stages)
                .map(|i| {
                    let left = inputs[i].len() - fed[i];
                    if k == 64 { left } else { chunks[(k + i) % chunks.len()].min(left) }
                })
                .collect();
            StreamingZeroPhase::push_group(
                group.iter_mut().zip(got.iter_mut()).enumerate().map(|(i, (stage, out))| {
                    (stage, &inputs[i][fed[i]..fed[i] + take[i]], out)
                }),
            );
            for i in 0..stages {
                oracles[i].push_chunk(&inputs[i][fed[i]..fed[i] + take[i]], &mut want[i]);
                fed[i] += take[i];
                prop_assert!(
                    bits(&got[i]) == bits(&want[i]),
                    "k={} stage {} of {} fed={}: {} vs {} samples",
                    k, i, stages, fed[i], got[i].len(), want[i].len()
                );
                match events[(k + 3 * i) % events.len()] {
                    0 => {
                        oracles[i].reset();
                        group[i].reset();
                    }
                    1 => {
                        // Migrate both sides through each other's
                        // encodings, which carry every float as its bit
                        // pattern.
                        let (o, s) = (oracles[i].encode(), encoded(&group[i]));
                        prop_assert_eq!(&o, &s);
                        group[i] = fresh(i);
                        group[i].decode(&mut Reader::new(&o)).unwrap();
                        oracles[i] = fresh_oracle(i);
                        oracles[i].decode(&s);
                    }
                    _ => {}
                }
            }
        }
        for i in 0..stages {
            prop_assert_eq!(fed[i], inputs[i].len());
            prop_assert_eq!(oracles[i].encode(), encoded(&group[i]));
        }
    }

    #[test]
    fn oracle_filter_lanes_bitwise_equals_section_by_section(
        x in signal(0, 4000),
        lanes in 1usize..=8,
        highpass in 0u32..2,
        order in 1usize..17,
        skew in 1usize..40,
        longer in 0usize..8,
        spots in prop::collection::vec(0usize..4000, 0..=3),
        kinds in prop::collection::vec(0usize..8, 3),
    ) {
        // Orders 1..=16 span 1..=8 sections; each lane is up to 4000 / n
        // samples. The oracle is the plain section-by-section cascade,
        // not the paired-section `filter_in_place` kernel.
        let f = icg_design(highpass == 1, order);
        let mut x = x;
        splice_awkward(&mut x, &spots, &kinds);
        let n = x.len() / lanes;
        let inputs: Vec<&[f64]> = x.chunks_exact(n.max(1)).take(lanes).collect();
        let inputs: Vec<&[f64]> = (0..lanes).map(|j| inputs.get(j).map_or(&[][..], |l| &l[..n])).collect();
        let mut bufs: Vec<Vec<f64>> = inputs.iter().map(|l| l.to_vec()).collect();
        let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
        f.filter_lanes_in_place(&mut refs).unwrap();
        for (j, (got, input)) in bufs.iter().zip(&inputs).enumerate() {
            let mut want = input.to_vec();
            cascade_section_by_section(&f, &mut want);
            prop_assert!(
                nan_blind_bits(got) == nan_blind_bits(&want),
                "lane {} of {}, n={} sections={}", j, lanes, n, f.sections().len()
            );
        }

        // Unequal lengths are an error, never a panic, and touch no
        // buffer.
        if lanes >= 2 {
            let mut bufs: Vec<Vec<f64>> = inputs.iter().map(|l| l.to_vec()).collect();
            bufs[longer % lanes].extend(std::iter::repeat(1.0).take(skew));
            let before: Vec<Vec<u64>> = bufs.iter().map(|b| bits(b)).collect();
            let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
            prop_assert!(f.filter_lanes_in_place(&mut refs).is_err());
            let after: Vec<Vec<u64>> = bufs.iter().map(|b| bits(b)).collect();
            prop_assert_eq!(after, before);
        }
    }

    #[test]
    fn oracle_blocked_span_bitwise_equals_per_output_chain(
        x in signal(2, 600),
        taps in signal(1, 65),
        a in 0usize..=600,
        b in 0usize..=600,
        spots in prop::collection::vec(0usize..600, 0..=3),
        kinds in prop::collection::vec(0usize..8, 3),
    ) {
        let mut x = x;
        splice_awkward(&mut x, &spots, &kinds);
        let f = Fir::from_taps(taps).unwrap();
        let (n, order) = (x.len(), f.order());
        let (a, b) = (a % (n + 1), b % (n + 1));
        // A random span, the full range, and spans whose dependency cone
        // reaches either reflected edge.
        let spans = [
            a.min(b)..a.max(b),
            0..n,
            a.min(order)..(a.min(order) + 9).min(n),
            n.saturating_sub(order + 9).max(a.min(n - 1))..n,
        ];
        let (mut work, mut y) = (vec![f64::NAN; 7], vec![f64::NAN; 3]);
        for span in spans {
            filtfilt_fir_span_into(&f, &x, span.clone(), &mut work, &mut y).unwrap();
            let want = span_per_output(f.taps(), &x, span.clone());
            prop_assert!(
                nan_blind_bits(&y) == nan_blind_bits(&want),
                "n={} order={} span={:?}", n, order, span
            );
        }
    }

    #[test]
    fn oracle_sign_pattern_equals_run_collection(
        x in prop::collection::vec(0u32..5, 0..40),
        pattern in prop::collection::vec(0u32..2, 0..6),
    ) {
        // Small integers make zeros and long runs common; NaN joins the
        // negative runs in both.
        let x: Vec<f64> = x.iter().map(|&v| [-1.0, 0.0, -0.0, 2.0, f64::NAN][v as usize]).collect();
        let pattern: Vec<bool> = pattern.iter().map(|&p| p == 1).collect();
        prop_assert_eq!(
            peaks::has_sign_pattern(&x, &pattern),
            sign_pattern_by_runs(&x, &pattern)
        );
    }

    #[test]
    fn oracle_paired_streaming_cascade_bitwise_equals_per_sample_push(
        x in signal(0, 1500),
        highpass in 0u32..2,
        order in 1usize..17,
        chunks in prop::collection::vec(0usize..400, 1..=8),
        spots in prop::collection::vec(0usize..1500, 0..=3),
        kinds in prop::collection::vec(0usize..8, 3),
    ) {
        // Orders 1..=16 span 1..=8 sections, odd counts included.
        let f = icg_design(highpass == 1, order);
        let mut x = x;
        splice_awkward(&mut x, &spots, &kinds);
        let mut per_sample = StreamingCascade::new(Arc::clone(&f));
        let mut paired = StreamingCascade::new(Arc::clone(&f));
        let mut out = Vec::new();
        let mut fed = 0;
        for k in 0..=32 {
            let c = if k == 32 { x.len() - fed } else { chunks[k % chunks.len()].min(x.len() - fed) };
            let chunk = &x[fed..fed + c];
            fed += c;
            let want: Vec<f64> = chunk.iter().map(|&v| per_sample.push(v)).collect();
            // Alternate the in-place kernel and its allocating wrapper.
            if k % 2 == 0 {
                out.clear();
                out.extend_from_slice(chunk);
                paired.process_in_place(&mut out);
            } else {
                paired.process_chunk(chunk, &mut out);
            }
            prop_assert!(nan_blind_bits(&out) == nan_blind_bits(&want), "k={} len={}", k, c);
            let state_bits = |c: &StreamingCascade| {
                let mut w = Writer::new();
                c.encode(&mut w);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                let registers: Vec<f64> = (0..2 * r.usize().unwrap()).map(|_| r.f64().unwrap()).collect();
                nan_blind_bits(&registers)
            };
            prop_assert!(state_bits(&per_sample) == state_bits(&paired), "k={} state", k);
        }
    }
}

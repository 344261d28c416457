//! Oracle properties for the streaming QRS detector.
//!
//! The oracle is a test-local copy of the per-sample detector loop as it
//! ran before [`OnlinePanTompkins::push_chunk`]: the band-pass sections
//! one after the other, `rotate_left` history shifts and `%` ring
//! indexing, over the public [`PanTompkinsState`]. The chunked kernel
//! must leave the same state bits and confirm the same R peaks at any
//! chunking, across warm restarts and snapshot round trips.

use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::iir::Biquad;
use cardiotouch_ecg::online::{OnlinePanTompkins, PanTompkinsState};
use cardiotouch_physio::ecg::EcgMorphology;
use cardiotouch_physio::heart::HeartModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The detector as plain state plus the constants `new` derives from `fs`.
struct PerSampleOracle {
    fs: f64,
    sections: Vec<Biquad>,
    refractory: usize,
    st: PanTompkinsState,
}

impl PerSampleOracle {
    fn new(fs: f64) -> Self {
        let sections = design_cache::butterworth_bandpass(2, 5.0, 15.0, fs)
            .unwrap()
            .sections()
            .to_vec();
        let st = OnlinePanTompkins::new(fs).unwrap().snapshot();
        Self {
            fs,
            sections,
            refractory: (0.200 * fs) as usize,
            st,
        }
    }

    fn restart(&mut self) {
        let st = &mut self.st;
        for s in &mut st.sections {
            *s = Default::default();
        }
        st.bp_hist = [0.0; 5];
        st.mwi_buf.fill(0.0);
        st.mwi_pos = 0;
        st.mwi_sum = 0.0;
        st.mwi_hist = [0.0; 3];
        st.raw_ring.fill(0.0);
        st.spki = 0.0;
        st.npki = 0.0;
        st.last_r = None;
        st.pending = None;
        st.warmup = st.sample_idx + (2.0 * self.fs) as usize;
    }

    fn threshold(&self) -> f64 {
        self.st.npki + 0.25 * (self.st.spki - self.st.npki)
    }

    fn push(&mut self, sample: f64) -> Option<usize> {
        let fs = self.fs;
        let idx = self.st.sample_idx;
        self.st.sample_idx += 1;
        let ring_len = self.st.raw_ring.len();
        self.st.raw_ring[idx % ring_len] = sample;
        let mut bp = sample;
        for (c, s) in self.sections.iter().zip(self.st.sections.iter_mut()) {
            let y = c.b0 * bp + s.s1;
            s.s1 = c.b1 * bp - c.a1 * y + s.s2;
            s.s2 = c.b2 * bp - c.a2 * y;
            bp = y;
        }
        let h = &mut self.st.bp_hist;
        h.rotate_left(1);
        h[4] = bp;
        let d = (2.0 * h[4] + h[3] - h[1] - 2.0 * h[0]) * fs / 8.0;
        let sq = d * d;
        let st = &mut self.st;
        st.mwi_sum += sq - st.mwi_buf[st.mwi_pos];
        st.mwi_buf[st.mwi_pos] = sq;
        st.mwi_pos = (st.mwi_pos + 1) % st.mwi_buf.len();
        let mwi = st.mwi_sum / st.mwi_buf.len() as f64;
        st.mwi_hist.rotate_left(1);
        st.mwi_hist[2] = mwi;
        if idx < st.warmup {
            if mwi > st.spki {
                st.spki = mwi;
                st.npki = 0.1 * mwi;
            }
            return None;
        }
        let m = self.st.mwi_hist;
        if m[1] > m[0] && m[1] >= m[2] {
            let peak_idx = idx - 1;
            let since_last = self
                .st
                .last_r
                .map_or(usize::MAX, |r| peak_idx.saturating_sub(r));
            if m[1] > self.threshold() && since_last > self.refractory {
                self.st.spki = 0.125 * m[1] + 0.875 * self.st.spki;
                self.st.pending = Some(peak_idx);
            } else {
                self.st.npki = 0.125 * m[1] + 0.875 * self.st.npki;
            }
        }
        if let Some(peak_idx) = self.st.pending {
            if idx >= peak_idx + (0.05 * fs) as usize {
                self.st.pending = None;
                let r = self.localize_apex(peak_idx);
                if self.st.last_r.map_or(true, |p| r > p + self.refractory) {
                    self.st.last_r = Some(r);
                    return Some(r);
                }
            }
        }
        None
    }

    fn localize_apex(&self, mwi_peak_idx: usize) -> usize {
        let st = &self.st;
        let ring_len = st.raw_ring.len();
        let back = st.mwi_buf.len() + (0.10 * self.fs) as usize;
        let lo = mwi_peak_idx.saturating_sub(back);
        let hi = (mwi_peak_idx + (0.05 * self.fs) as usize).min(st.sample_idx - 1);
        let lo = lo.max(st.sample_idx.saturating_sub(ring_len));
        let mut best = (lo, f64::MIN);
        for i in lo..=hi {
            let v = st.raw_ring[i % ring_len];
            if v > best.1 {
                best = (i, v);
            }
        }
        best.0
    }
}

/// Every snapshot field as bits (NaN payloads folded: the compiler may
/// commute an add, which picks which NaN operand propagates).
fn state_bits(s: &PanTompkinsState) -> Vec<u64> {
    let fold = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
    let mut out: Vec<u64> = s
        .sections
        .iter()
        .flat_map(|b| [fold(b.s1), fold(b.s2)])
        .collect();
    out.extend(s.bp_hist.iter().map(|&v| fold(v)));
    out.extend(s.mwi_buf.iter().map(|&v| fold(v)));
    out.extend(s.mwi_hist.iter().map(|&v| fold(v)));
    out.extend(s.raw_ring.iter().map(|&v| fold(v)));
    out.extend([fold(s.mwi_sum), fold(s.spki), fold(s.npki)]);
    let opt = |v: Option<usize>| v.map_or(u64::MAX, |i| i as u64);
    out.extend([
        s.mwi_pos as u64,
        s.sample_idx as u64,
        opt(s.last_r),
        opt(s.pending),
        s.warmup as u64,
    ]);
    out
}

/// A synthetic ECG with noise, baseline steps and, now and then, a rail
/// or non-finite burst.
fn ecg(seed: u64, fs: f64, seconds: f64, noise: f64, bursts: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = HeartModel {
        hr_mean_bpm: 50.0 + 70.0 * rng.gen::<f64>(),
        ..HeartModel::default()
    };
    let beats = model.schedule(seconds, &mut rng).unwrap();
    let n = (seconds * fs) as usize;
    let mut x = EcgMorphology::default().render(&beats, n, fs);
    for v in &mut x {
        *v += noise * (rng.gen::<f64>() - 0.5);
    }
    for _ in 0..bursts {
        let pick = |rng: &mut StdRng, n: usize| (rng.gen::<u64>() % n as u64) as usize;
        let at = pick(&mut rng, n);
        let len = 1 + pick(&mut rng, fs as usize);
        let v = [25.0, -25.0, f64::NAN, f64::INFINITY, 0.0][pick(&mut rng, 5)];
        for s in x.iter_mut().skip(at).take(len) {
            *s = v;
        }
    }
    x
}

proptest! {
    #[test]
    fn oracle_push_chunk_bitwise_equals_per_sample_loop(
        seed in 0u64..1_000_000,
        fs_pick in 0usize..3,
        noise in 0.0f64..0.3,
        bursts in 0usize..3,
        chunks in prop::collection::vec(0usize..700, 1..=10),
        events in prop::collection::vec(0u32..8, 1..=10),
    ) {
        let fs = [250.0, 360.0, 500.0][fs_pick];
        let x = ecg(seed, fs, 14.0, noise, bursts);
        let mut oracle = PerSampleOracle::new(fs);
        let mut chunked = OnlinePanTompkins::new(fs).unwrap();
        let mut single = OnlinePanTompkins::new(fs).unwrap();
        let mut fed = 0;
        for k in 0..=48 {
            // Cycle the chunk sizes (empty chunks included); whatever is
            // left goes in as one final chunk.
            let c = if k == 48 { x.len() - fed } else { chunks[k % chunks.len()].min(x.len() - fed) };
            let chunk = &x[fed..fed + c];
            let want: Vec<usize> = chunk.iter().filter_map(|&v| oracle.push(v)).collect();
            let mut got = Vec::new();
            chunked.push_chunk(chunk, |r| got.push(r));
            let one: Vec<usize> = chunk.iter().filter_map(|&v| single.push(v)).collect();
            prop_assert!(got == want, "chunk {} at {}: {:?} vs {:?}", k, fed, got, want);
            prop_assert!(one == want, "per-sample push, chunk {} at {}", k, fed);
            let want_bits = state_bits(&oracle.st);
            prop_assert!(state_bits(&chunked.snapshot()) == want_bits, "state after chunk {}", k);
            prop_assert!(state_bits(&single.snapshot()) == want_bits);
            fed += c;
            match events[k % events.len()] {
                0 => {
                    oracle.restart();
                    chunked.restart();
                    single.restart();
                }
                1 => {
                    let mut resumed = OnlinePanTompkins::new(fs).unwrap();
                    resumed.restore(&chunked.snapshot()).unwrap();
                    chunked = resumed;
                }
                _ => {}
            }
        }
        prop_assert_eq!(fed, x.len());
    }
}

//! Oracle properties for the streaming QRS detector.
//!
//! The oracle is a test-local copy of the per-sample detector loop as it
//! ran before [`OnlinePanTompkins::push_chunk`]: the band-pass sections
//! one after the other, `rotate_left` history shifts and `%` ring
//! indexing, over a test-local copy of the detector state read through
//! [`OnlinePanTompkins::encode`]. The chunked kernel must leave the same
//! state bits and confirm the same R peaks at any chunking, across warm
//! restarts and state round trips through the oracle's own encoding.

use cardiotouch_dsp::codec::{Reader, Writer};
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::iir::Biquad;
use cardiotouch_ecg::online::OnlinePanTompkins;
use cardiotouch_physio::ecg::EcgMorphology;
use cardiotouch_physio::heart::HeartModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every mutable field of the detector, in [`OnlinePanTompkins::encode`]
/// order.
#[derive(Debug, Clone)]
struct PanTompkinsState {
    /// `(s1, s2)` per band-pass section.
    sections: Vec<(f64, f64)>,
    bp_hist: [f64; 5],
    mwi_buf: Vec<f64>,
    mwi_pos: usize,
    mwi_sum: f64,
    mwi_hist: [f64; 3],
    raw_ring: Vec<f64>,
    spki: f64,
    npki: f64,
    sample_idx: usize,
    last_r: Option<usize>,
    pending: Option<usize>,
    warmup: usize,
}

impl PanTompkinsState {
    fn of(det: &OnlinePanTompkins) -> Self {
        let mut w = Writer::new();
        det.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let sections = (0..r.usize().unwrap())
            .map(|_| (r.f64().unwrap(), r.f64().unwrap()))
            .collect();
        let st = Self {
            sections,
            bp_hist: std::array::from_fn(|_| r.f64().unwrap()),
            mwi_buf: r.vec_f64().unwrap(),
            mwi_pos: r.usize().unwrap(),
            mwi_sum: r.f64().unwrap(),
            mwi_hist: std::array::from_fn(|_| r.f64().unwrap()),
            raw_ring: r.vec_f64().unwrap(),
            spki: r.f64().unwrap(),
            npki: r.f64().unwrap(),
            sample_idx: r.usize().unwrap(),
            last_r: r.opt_usize().unwrap(),
            pending: r.opt_usize().unwrap(),
            warmup: r.usize().unwrap(),
        };
        assert!(r.at_end());
        st
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.sections.len());
        for &(s1, s2) in &self.sections {
            w.f64(s1);
            w.f64(s2);
        }
        self.bp_hist.iter().for_each(|&v| w.f64(v));
        w.f64s(&self.mwi_buf);
        w.usize(self.mwi_pos);
        w.f64(self.mwi_sum);
        self.mwi_hist.iter().for_each(|&v| w.f64(v));
        w.f64s(&self.raw_ring);
        w.f64(self.spki);
        w.f64(self.npki);
        w.usize(self.sample_idx);
        w.opt_usize(self.last_r);
        w.opt_usize(self.pending);
        w.usize(self.warmup);
        w.into_bytes()
    }
}

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
        let st = PanTompkinsState::of(&OnlinePanTompkins::new(fs).unwrap());
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
        for (c, (s1, s2)) in self.sections.iter().zip(self.st.sections.iter_mut()) {
            let y = c.b0 * bp + *s1;
            *s1 = c.b1 * bp - c.a1 * y + *s2;
            *s2 = c.b2 * bp - c.a2 * y;
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
        .flat_map(|&(s1, s2)| [fold(s1), fold(s2)])
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
            prop_assert!(state_bits(&PanTompkinsState::of(&chunked)) == want_bits, "state after chunk {}", k);
            prop_assert!(state_bits(&PanTompkinsState::of(&single)) == want_bits);
            fed += c;
            match events[k % events.len()] {
                0 => {
                    oracle.restart();
                    chunked.restart();
                    single.restart();
                }
                1 => {
                    // Resume the kernel from the oracle's encoding, and
                    // the oracle from the kernel's.
                    let mut resumed = OnlinePanTompkins::new(fs).unwrap();
                    resumed.decode(&mut Reader::new(&oracle.st.encode())).unwrap();
                    oracle.st = PanTompkinsState::of(&chunked);
                    chunked = resumed;
                }
                _ => {}
            }
        }
        prop_assert_eq!(fed, x.len());
    }
}

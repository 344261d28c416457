//! Single-thread replays of each layer's public functions over a
//! workload's own inputs, timed from outside the program.
//!
//! [`stream_run`] is also the reference for the serving gates and the
//! source of the beat-lag figures, so it runs on untraced runs too; the
//! other replays run only on traced runs.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use cardiotouch::config::PipelineConfig;
use cardiotouch::pipeline::Pipeline;
use cardiotouch::snapshot::BeatStreamSnapshot;
use cardiotouch::stream::BeatStream;
use cardiotouch::wire::{FrontDoor, WireSessionResult};
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::diff;
use cardiotouch_dsp::streaming::{HistoryRing, StreamingDerivative, StreamingZeroPhase};
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::{filtfilt_fir_into, ZeroPhaseScratch};
use cardiotouch_ecg::filter::EcgConditioner;
use cardiotouch_ecg::online::OnlinePanTompkins;
use cardiotouch_ecg::pan_tompkins::PanTompkins;
use cardiotouch_icg::beat::segment_beats;
use cardiotouch_icg::filter::{IcgConditioner, IcgScratch};
use cardiotouch_icg::online::BeatDelineator;
use cardiotouch_icg::points::PointDetector;
use cardiotouch_icg::quality::QualityReport;
use cardiotouch_icg::strategy::StrategyState;
use cardiotouch_ingest::{
    recover_latest, Assembler, Checkpoint, CheckpointStore, FrameView, SegmentPolicy, SegmentedLog,
    SessionCheckpoint, WireDecoder,
};

use crate::inputs::{Recording, Wire};
use crate::stats::{quantile, Metrics};

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Single-thread serving of a wire run from public parts: one
/// [`FrontDoor`] and one [`BeatStream`] per session, each reassembled
/// run pushed as it arrives, as `WireHub` and the fleet shards push
/// it. The push is split into `ingest_qualified` and the hop drain so
/// each is timed, and the slot that emitted every beat is recorded.
///
/// Runs are not merged into one push per second: on gap-filled input
/// the stream's output depends on chunking (a ladder transition late in
/// a chunk moves the re-lock suppression for hops earlier in it), so a
/// merged push would not reproduce the deployed path.
pub struct StreamRun {
    /// Per-session outcome in `WireHub::finish` form, by session id.
    pub results: Vec<WireSessionResult>,
    /// Slot that emitted each beat of `results[s]`.
    pub emitted_slot: Vec<Vec<usize>>,
    /// The streams after the last slot (snapshot replays).
    pub streams: Vec<BeatStream>,
    /// The front door after the last slot (checkpoint replays).
    pub door: FrontDoor,
    /// Wall time of every `ingest_qualified` + hop drain, µs.
    pub push_us: Vec<f64>,
    /// Totals: `ingest_qualified` and hop drain time, ns.
    pub ingest_ns: f64,
    pub hop_ns: f64,
    /// Samples pushed into the streams.
    pub samples: u64,
}

/// Serves `wire` through [`StreamRun`]'s single-thread engine. `durable`
/// gives the front door a segmented log, as the durable fleet has.
pub fn stream_run(config: PipelineConfig, wire: &Wire, durable: bool) -> StreamRun {
    let n = wire.sessions;
    let mut door = if durable {
        FrontDoor::with_segmented_log(SegmentPolicy::DEFAULT)
    } else {
        FrontDoor::new()
    };
    let mut streams: Vec<BeatStream> = (0..n)
        .map(|_| BeatStream::new(config).expect("paper config builds"))
        .collect();
    let mut seen = vec![false; n];
    let mut beats: Vec<Vec<_>> = vec![Vec::new(); n];
    let mut emitted_slot: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut out = StreamRun {
        results: Vec::new(),
        emitted_slot: Vec::new(),
        streams: Vec::new(),
        door: FrontDoor::new(),
        push_us: Vec::with_capacity(n * wire.slots.len()),
        ingest_ns: 0.0,
        hop_ns: 0.0,
        samples: 0,
    };
    for (slot, bytes) in wire.slots.iter().enumerate() {
        door.push(bytes, |s, e, z| {
            let s = s as usize;
            seen[s] = true;
            let t0 = Instant::now();
            streams[s]
                .ingest_qualified(e, z)
                .expect("equal-length runs");
            let t1 = Instant::now();
            let emitted = streams[s].push_qualified(&[], &[]).expect("empty push");
            let t2 = Instant::now();
            out.ingest_ns += (t1 - t0).as_nanos() as f64;
            out.hop_ns += (t2 - t1).as_nanos() as f64;
            out.push_us.push((t2 - t0).as_nanos() as f64 / 1e3);
            out.samples += e.len() as u64;
            emitted_slot[s].extend(std::iter::repeat(slot).take(emitted.len()));
            beats[s].extend(emitted);
        });
    }
    out.results = (0..n)
        .filter(|&s| seen[s])
        .map(|s| WireSessionResult {
            session: s as u32,
            beats: std::mem::take(&mut beats[s]),
            snapshot_bytes: streams[s].snapshot().to_bytes(),
            states: streams[s].channel_states(),
        })
        .collect();
    out.emitted_slot = emitted_slot;
    out.streams = streams;
    out.door = door;
    out
}

/// Sessions of `got` that are not bitwise equal to `want` (missing and
/// extra sessions count too).
pub fn mismatches(got: &[WireSessionResult], want: &[WireSessionResult]) -> usize {
    let mut bad = got.len().abs_diff(want.len());
    for w in want {
        if !got
            .iter()
            .find(|g| g.session == w.session)
            .is_some_and(|g| g.bitwise_eq(w))
        {
            bad += 1;
        }
    }
    bad
}

/// Beat-lag and yield figures of a served run.
pub struct BeatFigures {
    /// Every emitted beat's slot and lag in seconds of signal (R sample
    /// to the end of the slot that emitted it).
    pub lags: Vec<(usize, f64)>,
    /// Truth beats matched by a physiological emitted beat.
    pub matched: usize,
    /// Truth beats in the scored span.
    pub truth: usize,
    /// Physiological beats emitted.
    pub physiological: usize,
}

/// Truth R peaks closer than this to the end of a served span are not
/// scored: no engine can report them before the span ends.
pub const REPORT_HORIZON_S: f64 = 8.0;

/// Physiological beats within this many samples of a truth R count as
/// found (`cardiotouch_conformance::accuracy::R_MATCH_TOL_SAMPLES`).
pub use cardiotouch_conformance::accuracy::R_MATCH_TOL_SAMPLES;

/// Truth matches of one session: `emitted` R peaks (physiological
/// beats only, ascending) against `truth` R peaks below `span`.
pub fn match_beats(emitted: &[usize], truth: &[usize], span: usize) -> (usize, usize) {
    let truth: Vec<usize> = truth.iter().copied().filter(|&r| r < span).collect();
    let mut matched = 0;
    let mut j = 0;
    for &t in &truth {
        while j < emitted.len() && emitted[j] + R_MATCH_TOL_SAMPLES < t {
            j += 1;
        }
        if j < emitted.len() && emitted[j].abs_diff(t) <= R_MATCH_TOL_SAMPLES {
            matched += 1;
            j += 1;
        }
    }
    (matched, truth.len())
}

/// Lag and yield of a [`StreamRun`] over `recs` (session `s` plays
/// `recs[s]` from sample 0).
pub fn beat_figures(run: &StreamRun, recs: &[Recording], slots: usize, fs: f64) -> BeatFigures {
    let span = ((slots as f64 - REPORT_HORIZON_S) * fs) as usize;
    let mut f = BeatFigures {
        lags: Vec::new(),
        matched: 0,
        truth: 0,
        physiological: 0,
    };
    for r in &run.results {
        let s = r.session as usize;
        let mut phys = Vec::new();
        for (b, &slot) in r.beats.iter().zip(&run.emitted_slot[s]) {
            f.lags
                .push((slot, (slot + 1) as f64 - b.report.r as f64 / fs));
            if b.report.physiological {
                phys.push(b.report.r);
            }
        }
        f.physiological += phys.len();
        let (m, t) = match_beats(&phys, &recs[s].truth_r, span);
        f.matched += m;
        f.truth += t;
    }
    f
}

/// Decoder, assembler, segment log and front door, each timed alone on
/// the run's wire bytes.
pub fn wire_layers(wire: &Wire, durable: bool, m: &mut Metrics) {
    // Decode only.
    let mut dec = WireDecoder::new();
    let mut frames = 0u64;
    let t = Instant::now();
    for bytes in &wire.slots {
        dec.push(bytes, |f| {
            frames += 1;
            black_box(f.seq());
        });
    }
    let decode_ns = ns(t);
    let resyncs = dec.stats().resyncs;

    // Validated frames, copied out once (untimed).
    let mut flat = Vec::with_capacity(wire.bytes());
    let mut spans = Vec::with_capacity(frames as usize);
    let mut dec = WireDecoder::new();
    for bytes in &wire.slots {
        dec.push(bytes, |f| {
            spans.push((flat.len(), f.as_bytes().len()));
            flat.extend_from_slice(f.as_bytes());
        });
    }
    let frame = |&(o, l): &(usize, usize)| &flat[o..o + l];

    // Assembly: parse + accept, minus parse alone.
    let t = Instant::now();
    for sp in &spans {
        black_box(FrameView::parse(frame(sp)).expect("validated frame").1);
    }
    let parse_ns = ns(t);
    let mut asm = Assembler::new();
    let mut samples = 0usize;
    let t = Instant::now();
    for sp in &spans {
        let (view, _) = FrameView::parse(frame(sp)).expect("validated frame");
        asm.accept(&view, |_, e, _| samples += e.len());
    }
    let accept_ns = (ns(t) - parse_ns).max(0.0);
    black_box(samples);

    // Segment log append and full replay.
    let mut log = SegmentedLog::new(SegmentPolicy::DEFAULT);
    let t = Instant::now();
    for sp in &spans {
        log.append(frame(sp));
    }
    let append_ns = ns(t);
    let mut replayed = 0u64;
    let t = Instant::now();
    log.replay_from(&log.start_position(), |f| {
        replayed += 1;
        black_box(f.len());
    })
    .expect("fresh log replays");
    let replay_ns = ns(t);

    // The whole front door, as the fleet's control thread runs it.
    let mut door = if durable {
        FrontDoor::with_segmented_log(SegmentPolicy::DEFAULT)
    } else {
        FrontDoor::new()
    };
    let mut delivered = 0usize;
    let t = Instant::now();
    for bytes in &wire.slots {
        door.push(bytes, |_, e, _| delivered += e.len());
    }
    let door_ns = ns(t);
    black_box(delivered);

    let per = |v: f64| v / frames.max(1) as f64;
    let covered = decode_ns + accept_ns + if durable { append_ns } else { 0.0 };
    m.put("ingest.frame.decode_ns_per_frame", per(decode_ns), "ns");
    m.put("ingest.frame.resyncs", resyncs as f64, "count");
    m.put("ingest.assembler.accept_ns_per_frame", per(accept_ns), "ns");
    m.put(
        "ingest.assembler.gap_samples",
        asm.stats().filled_samples as f64,
        "count",
    );
    m.put("ingest.segment.append_ns_per_frame", per(append_ns), "ns");
    m.put(
        "ingest.segment.replay_ns_per_frame",
        replay_ns / replayed.max(1) as f64,
        "ns",
    );
    m.put("core.wire.frontdoor_ns_per_frame", per(door_ns), "ns");
    m.put(
        "core.wire.residual_frac",
        (door_ns - covered) / door_ns,
        "fraction",
    );
}

/// Stream snapshot encode/restore and checkpoint seal/recover, on the
/// state a [`StreamRun`] ended with.
pub fn state_layers(config: PipelineConfig, run: &StreamRun, wire: &Wire, m: &mut Metrics) {
    let n = run.streams.len().max(1) as f64;
    let mut snaps = Vec::with_capacity(run.streams.len());
    let t = Instant::now();
    for s in &run.streams {
        snaps.push(s.snapshot().to_bytes());
    }
    let encode_ns = ns(t);
    let t = Instant::now();
    for b in &snaps {
        let snap = BeatStreamSnapshot::from_bytes(b).expect("own snapshot decodes");
        black_box(BeatStream::restore(config, &snap).expect("own snapshot restores"));
    }
    let restore_ns = ns(t);
    let snap_bytes: usize = snaps.iter().map(Vec::len).sum();
    m.put(
        "core.snapshot.encode_us_per_session",
        encode_ns / n / 1e3,
        "us",
    );
    m.put(
        "core.snapshot.bytes_per_session",
        snap_bytes as f64 / n,
        "bytes",
    );
    m.put(
        "core.snapshot.restore_us_per_session",
        restore_ns / n / 1e3,
        "us",
    );

    // One checkpoint of the whole run, sealed as often as a 10 s
    // cadence seals over the run, then recovered from the store bytes.
    let mut log = SegmentedLog::new(SegmentPolicy::DEFAULT);
    let mut dec = WireDecoder::new();
    for bytes in &wire.slots {
        dec.push(bytes, |f| log.append(f.as_bytes()));
    }
    let resumes = run.door.export_sessions();
    let ckpt = Checkpoint {
        watermark: log.position(),
        sessions: resumes
            .into_iter()
            .map(|(session, resume)| SessionCheckpoint {
                session,
                resume,
                snapshot: snaps.get(session as usize).cloned().unwrap_or_default(),
            })
            .collect(),
    };
    let seals = (wire.slots.len() / 10).max(1);
    let mut store = CheckpointStore::new();
    let mut append_ms = Vec::with_capacity(seals);
    for _ in 0..seals {
        let t = Instant::now();
        store.append(&ckpt);
        append_ms.push(ns(t) / 1e6);
    }
    let entry = (store.byte_len() - CheckpointStore::new().byte_len()) / seals;
    let mut recover_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let got = recover_latest(store.as_bytes()).expect("own store recovers");
        recover_ms.push(ns(t) / 1e6);
        black_box(got);
    }
    m.put(
        "ingest.checkpoint.append_ms",
        quantile(&mut append_ms, 0.5),
        "ms",
    );
    m.put(
        "ingest.checkpoint.bytes_per_session",
        entry as f64 / ckpt.sessions.len().max(1) as f64,
        "bytes",
    );
    m.put(
        "ingest.checkpoint.recover_latest_ms",
        quantile(&mut recover_ms, 0.5),
        "ms",
    );
}

/// Per-stage totals of a hop replay, ns.
#[derive(Default)]
pub struct HopStages {
    pub ecg_online: f64,
    pub deriv: f64,
    pub lp: f64,
    pub hp: f64,
    pub refine: f64,
    pub icg_online: f64,
    pub samples: u64,
    pub refined: u64,
    pub delineated: u64,
}

impl HopStages {
    pub fn total(&self) -> f64 {
        self.ecg_online + self.deriv + self.lp + self.hp + self.refine + self.icg_online
    }
}

/// Replays `BeatStream`'s hop stage by stage over the recordings' first
/// `slots` seconds, through the same public kernels and the same
/// `design_cache` designs the stream builds (the degradation ladder
/// and emission arithmetic are left out: they are the residual).
pub fn hop_stages(config: PipelineConfig, recs: &[Recording], slots: usize) -> HopStages {
    let fs = config.fs;
    let hop = fs as usize;
    let order = IcgConditioner::DEFAULT_ORDER;
    let lp_f = design_cache::butterworth_lowpass(order, 20.0, fs).expect("20 Hz design");
    let hp_f = design_cache::butterworth_highpass(2, IcgConditioner::HIGHPASS_HZ, fs)
        .expect("0.4 Hz design");
    let fir = design_cache::fir_bandpass(32, 0.05, 40.0, fs, Window::Hamming).expect("ECG FIR");
    let ctx = (0.4 * fs) as usize;
    let search = (0.04 * fs) as usize;
    let mut st = HopStages::default();
    for rec in recs {
        let mut qrs = OnlinePanTompkins::new(fs).expect("online QRS");
        let mut ring = HistoryRing::new();
        let mut raw_rs: VecDeque<usize> = VecDeque::new();
        let mut last_r: Option<usize> = None;
        let mut deriv = StreamingDerivative::new(fs);
        let mut lp = StreamingZeroPhase::new(lp_f.clone(), hop / 2, 3 * 6 * (order + 1), hop / 2);
        let mut hp = StreamingZeroPhase::new(
            hp_f.clone(),
            2 * hop,
            (fs / IcgConditioner::HIGHPASS_HZ) as usize,
            hop / 2,
        );
        let mut delin = BeatDelineator::with_strategy(
            fs,
            config.x_search,
            config.delineation,
            config.min_rr_s,
            config.max_rr_s,
        )
        .expect("delineator");
        let (mut zp, mut refine_buf) = (ZeroPhaseScratch::new(), Vec::new());
        let (mut neg, mut lpb, mut hpb, mut beats) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for k in 0..slots.min(rec.ecg.len() / hop) {
            let (e, z) = (
                &rec.ecg[k * hop..(k + 1) * hop],
                &rec.z[k * hop..(k + 1) * hop],
            );
            let t = Instant::now();
            ring.extend(e);
            for &x in e {
                if let Some(r) = qrs.push(x) {
                    raw_rs.push_back(r);
                }
            }
            st.ecg_online += ns(t);
            let head = (k + 1) * hop;

            let t = Instant::now();
            neg.clear();
            for &x in z {
                if let Some(d) = deriv.push(x) {
                    neg.push(-d);
                }
            }
            st.deriv += ns(t);
            let t = Instant::now();
            lpb.clear();
            lp.push_chunk(&neg, &mut lpb);
            st.lp += ns(t);
            let t = Instant::now();
            hpb.clear();
            hp.push_chunk(&lpb, &mut hpb);
            st.hp += ns(t);

            let t = Instant::now();
            delin.push_samples(&hpb);
            st.icg_online += ns(t);
            while let Some(&r) = raw_rs.front() {
                if head <= r + ctx {
                    break;
                }
                raw_rs.pop_front();
                let t = Instant::now();
                let lo = r.saturating_sub(ctx).max(ring.base());
                let hi = (r + ctx + 1).min(ring.end());
                let mut best = (r, f64::MIN);
                if hi > lo + 2
                    && filtfilt_fir_into(&fir, ring.slice(lo, hi), &mut zp, &mut refine_buf).is_ok()
                {
                    for i in r.saturating_sub(search).max(lo)..(r + search + 1).min(hi) {
                        if refine_buf[i - lo] > best.1 {
                            best = (i, refine_buf[i - lo]);
                        }
                    }
                }
                st.refine += ns(t);
                st.refined += 1;
                if last_r.map_or(true, |p| best.0 > p) {
                    let t = Instant::now();
                    let _ = delin.push_r(best.0);
                    st.icg_online += ns(t);
                    last_r = Some(best.0);
                }
            }
            let mut keep = head.saturating_sub(3 * hop);
            if let Some(&r) = raw_rs.front() {
                keep = keep.min(r.saturating_sub(ctx));
            }
            ring.discard_before(keep);
            let t = Instant::now();
            beats.clear();
            delin.poll_into(&mut beats);
            st.icg_online += ns(t);
            st.delineated += beats.len() as u64;
            st.samples += hop as u64;
        }
    }
    st
}

/// Batch pipeline stage by stage over whole recordings, plus the timed
/// `Pipeline::analyze` each replay is measured against.
pub fn batch_stages(config: PipelineConfig, recs: &[Recording], m: &mut Metrics) {
    let fs = config.fs;
    let pipeline = Pipeline::new(config).expect("paper pipeline");
    let ecg_c = EcgConditioner::paper_default(fs).expect("ECG conditioner");
    let icg_c = IcgConditioner::paper_default(fs).expect("ICG conditioner");
    let qrs = PanTompkins::new(fs).expect("Pan-Tompkins");
    let det =
        PointDetector::with_strategy(fs, config.x_search, config.delineation).expect("points");
    let (mut zp, mut icg_s) = (ZeroPhaseScratch::new(), IcgScratch::new());
    let (mut ecg, mut dz, mut raw, mut icg) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut analyze_ms = Vec::new();
    let (mut t_ecg, mut t_qrs, mut t_diff, mut t_icg) = (0.0, 0.0, 0.0, 0.0);
    let (mut t_seg, mut t_q, mut t_pts) = (0.0, 0.0, 0.0);
    let (mut samples, mut windows_n, mut recs_n) = (0u64, 0u64, 0u64);
    for rec in recs {
        let t = Instant::now();
        let analysis = pipeline.analyze(&rec.ecg, &rec.z);
        analyze_ms.push(ns(t) / 1e6);
        if analysis.is_err() {
            continue;
        }
        let t = Instant::now();
        ecg_c
            .condition_into(&rec.ecg, &mut zp, &mut ecg)
            .expect("ECG conditions");
        t_ecg += ns(t);
        let t = Instant::now();
        let r_peaks = qrs.detect(&ecg).expect("QRS detects");
        t_qrs += ns(t);
        let t = Instant::now();
        diff::derivative_into(&rec.z, fs, &mut dz).expect("derivative");
        raw.clear();
        raw.extend(dz.iter().map(|v| -v));
        t_diff += ns(t);
        let t = Instant::now();
        icg_c
            .condition_into(&raw, &mut icg_s, &mut icg)
            .expect("ICG conditions");
        t_icg += ns(t);
        let t = Instant::now();
        let windows = segment_beats(&r_peaks, icg.len(), fs, config.min_rr_s, config.max_rr_s)
            .expect("beats segment");
        t_seg += ns(t);
        let t = Instant::now();
        black_box(
            QualityReport::assess(&icg, &windows)
                .map(|q| q.median_sqi())
                .ok(),
        );
        t_q += ns(t);
        let t = Instant::now();
        let mut state = StrategyState::default();
        for w in &windows {
            black_box(det.detect_with(w.slice(&icg), &mut state).ok());
        }
        t_pts += ns(t);
        samples += rec.ecg.len() as u64;
        windows_n += windows.len() as u64;
        recs_n += 1;
    }
    let recs_f = recs_n.max(1) as f64;
    let samples_f = samples.max(1) as f64;
    let analyzed: f64 = analyze_ms.iter().sum::<f64>() * 1e6;
    // The quality gate is off in the paper configuration, so its cost
    // is reported but not part of the analysed path.
    let gated = if config.sqi_threshold.is_some() {
        t_q
    } else {
        0.0
    };
    let covered = t_ecg + t_qrs + t_diff + t_icg + t_seg + gated + t_pts;
    m.put(
        "core.pipeline.analyze_ms_p50",
        quantile(&mut analyze_ms, 0.5),
        "ms",
    );
    m.put(
        "core.pipeline.analyze_ms_p99",
        quantile(&mut analyze_ms, 0.99),
        "ms",
    );
    m.put("ecg.filter.ns_per_sample", t_ecg / samples_f, "ns");
    m.put("ecg.pan_tompkins.ms_per_rec", t_qrs / recs_f / 1e6, "ms");
    m.put("dsp.diff.ns_per_sample", t_diff / samples_f, "ns");
    m.put("icg.filter.ns_per_sample", t_icg / samples_f, "ns");
    m.put("icg.beat.segment_us", t_seg / recs_f / 1e3, "us");
    m.put("icg.quality.assess_us", t_q / recs_f / 1e3, "us");
    m.put(
        "icg.points.us_per_beat",
        t_pts / windows_n.max(1) as f64 / 1e3,
        "us",
    );
    m.put(
        "core.pipeline.residual_frac",
        (analyzed - covered) / analyzed,
        "fraction",
    );
}

//! Machine-readable performance snapshot: `cargo run --release --bin
//! perf_bench` writes `BENCH_<date>.json` with per-kernel throughput
//! (samples/sec over a paper-length 30 s session), end-to-end study
//! throughput (sessions/sec), and the streaming-engine comparison: the
//! incremental O(hop) `BeatStream` vs the windowed re-analysis baseline,
//! with per-hop latency percentiles and the filter-design-cache hit
//! statistics. Perf regressions show up as a diff on a committed file
//! rather than an anecdote.
//!
//! The binary runs in seconds and emits one JSON document. Arguments:
//! an optional output path (`-` writes to stdout), `--smoke`, which
//! shrinks every measurement for CI smoke runs (same schema, noisier
//! numbers), `--metrics`, which additionally prints the embedded
//! observability snapshot to stderr, and `--faults`, which adds a
//! fault-injection leg (schema v4 `faults` section): the degradation
//! ladder timed against the clean path on a pre-corrupted session, plus
//! a fleet carrying a hard front-end fault so the quarantine counters
//! are exercised. The run aborts if the degraded-path overhead exceeds
//! [`DEGRADED_OVERHEAD_BUDGET_PCT`]. `--fleet` adds the sharded-fleet
//! scaling leg (schema v5 `fleet` section): the same session workload
//! through 1 shard and [`FLEET_SHARDS`] shards of `cardiotouch::fleet`,
//! plus a live snapshot-codec migration and a rebalance. The run aborts
//! if scaling efficiency — speedup normalized by
//! `min(shards, available_parallelism)` — falls below
//! [`FLEET_EFFICIENCY_FLOOR`]; normalizing by the host's actual
//! parallelism keeps the gate meaningful on single-core CI runners
//! while still demanding ≥ 2.8× raw speedup wherever 4 cores exist.
//!
//! Since schema v3 the document embeds a compact snapshot of the
//! process-wide `cardiotouch-obs` registry (every counter/gauge/latency
//! histogram the run populated) plus the measured throughput overhead of
//! the instrumentation itself (incremental engine re-timed with the
//! registry's global gate off). Full (non-smoke) runs abort if that
//! overhead exceeds [`OBS_OVERHEAD_BUDGET_PCT`].
//!
//! `--ingest` adds the wire front-door leg (schema v7 `ingest`
//! section): an [`INGEST_SESSIONS`]-session multiplexed wire stream
//! decoded by `cardiotouch::wire::FrontDoor` (frames/sec, decode
//! ns/frame, real-time multiple against the mux's aggregate sample
//! rate, with an alloc-free steady-state assertion on the decoder
//! carry + reassembly scratch capacity), a faulted pass through a
//! seeded lossy link into the logging door (so the `ingest.*` registry
//! counters — resyncs, drops, log appends — are all live) whose ingest
//! log is read back and must replay every accepted frame, and a BLE
//! parameter-uplink pass (`LossyLink` + `decode_stream_resync`) so the
//! `device.uplink.*` counters fire. The run aborts below
//! [`INGEST_REALTIME_FLOOR`]× real time.
//!
//! `--durability` adds the durable-serving leg (schema v8
//! `durability` section): the same multiplexed wire workload through a
//! plain `WireHub` and a durable one (segmented ingest log + periodic
//! checkpoints), interleaved so drift cancels — full runs abort if the
//! durability tax exceeds [`DURABILITY_OVERHEAD_BUDGET_PCT`]. A
//! dedicated durable run then proves the on-disk footprint is bounded
//! (rotation + lag-by-one compaction must retire segments, so retained
//! bytes < appended bytes) and times a cold-start recovery (checkpoint
//! restore + log-suffix replay), aborting past
//! [`RECOVERY_BUDGET_MS`]. Finally a durable 2-shard fleet takes a
//! shard panic mid-run, restarts it from the checkpoint + suffix and
//! keeps checkpointing, so the `core.fleet.{restarts,checkpoints,
//! compactions,checkpoint_us,log_segments}` instrumentation is live in
//! the committed metrics snapshot.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cardiotouch::config::PipelineConfig;
use cardiotouch::experiment::{run_position_study, StudyConfig};
use cardiotouch::fleet::Fleet;
use cardiotouch::pipeline::Pipeline;
use cardiotouch::scheduler::{SessionFeed, SessionScheduler};
use cardiotouch::stream::{BeatStream, ReanalysisBeatStream};
use cardiotouch::wire::{FrontDoor, WireHub};
use cardiotouch_device::uplink::{
    decode_stream_resync, missing_sequences, LossyLink, ParameterRecord,
};
use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::diff;
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::{filtfilt_fir_into, filtfilt_iir_into, ZeroPhaseScratch};
use cardiotouch_ingest::{
    recover_latest, CheckpointStore, LogReader, LossyWire, SegmentPolicy, SegmentedLog,
    SessionEncoder, WireDecoder,
};
use cardiotouch_physio::faults::FaultScenario;
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;

/// Hard ceiling on how much slower the degradation ladder may make a
/// fully faulted session versus the same session clean (`--faults`
/// aborts past this). The ladder re-locks filters and fabricates
/// holdover samples, so some cost is expected; a regression past 150 %
/// means the degraded path stopped being O(hop).
const DEGRADED_OVERHEAD_BUDGET_PCT: f64 = 150.0;

/// Shard count for the `--fleet` scaling leg.
const FLEET_SHARDS: usize = 4;

/// Concurrent wire sessions multiplexed into the `--ingest` leg's
/// encoded byte stream.
const INGEST_SESSIONS: usize = 64;

/// Samples per wire frame on the `--ingest` leg (0.5 s at 250 Hz, the
/// same framing the replay-equivalence conformance leg pins).
const INGEST_FRAME_SAMPLES: usize = 125;

/// Minimum decode throughput of the `--ingest` leg, expressed as a
/// multiple of the mux's aggregate real-time sample rate
/// (`INGEST_SESSIONS` × 250 Hz). The front door exists to stand in
/// front of a fleet, so decoding barely at line rate is a failure.
const INGEST_REALTIME_FLOOR: f64 = 10.0;

/// Concurrent wire sessions in the `--durability` leg's mux.
const DURABILITY_SESSIONS: usize = 16;

/// Hard ceiling on the throughput cost of durable serving — segmented
/// ingest log plus a checkpoint every
/// [`DURABILITY_CHECKPOINT_EVERY_SLOTS`] slots — versus the identical
/// wire workload with durability off, enforced on full (non-smoke)
/// runs. Logging is a chain-CRC plus one memcpy per accepted frame
/// and a checkpoint is a snapshot serialization per session at the
/// deployment cadence, so anything past 5 % means durability crept
/// into a per-sample loop.
const DURABILITY_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Checkpoint cadence of the full-run `--durability` overhead
/// measurement, in 0.5 s wire slots: 120 slots = one checkpoint per
/// 60 simulated seconds, the serve-sim default. The cadence only
/// bounds how much log suffix recovery replays (~60 s of frames per
/// session, milliseconds of DSP) — the log makes the data itself
/// durable between checkpoints, so nothing is lost by not
/// checkpointing aggressively. The smoke run keeps a short 8-slot
/// cadence so the checkpoint path is exercised within its 6 s
/// horizon.
const DURABILITY_CHECKPOINT_EVERY_SLOTS: usize = 120;

/// Hard ceiling on cold-start recovery of the `--durability` workload:
/// decoding the checkpoint store, restoring every session snapshot and
/// replaying the log suffix past the watermark.
const RECOVERY_BUDGET_MS: f64 = 2000.0;

/// Hard ceiling on the throughput cost of the observability wiring on
/// the streaming hot path, enforced on full (non-smoke) runs. The
/// counters are pre-resolved `Arc<AtomicU64>` handles and the hop
/// latency histogram is a cached handle recorded once per hop, so
/// anything past 2 % means a metrics call crept into a per-sample loop.
const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Minimum scaling efficiency for the `--fleet` leg:
/// `speedup / min(FLEET_SHARDS, available_parallelism)`. On a host with
/// ≥ 4 cores this demands ≥ 2.8× raw speedup at 4 shards; on a
/// single-core runner it demands that sharding costs < 30 % (the
/// mailbox/thread overhead stays negligible).
const FLEET_EFFICIENCY_FLOOR: f64 = 0.7;

/// One timed kernel: throughput over a fixed-size input.
struct KernelResult {
    name: &'static str,
    samples_per_iter: usize,
    iters: usize,
    elapsed_s: f64,
}

impl KernelResult {
    fn samples_per_sec(&self) -> f64 {
        (self.samples_per_iter * self.iters) as f64 / self.elapsed_s.max(1e-12)
    }
}

/// Times `f` until at least `min_elapsed_s` of work or `MAX_ITERS`
/// iterations, after a short warm-up (fills caches and the filter-design
/// cache so the steady state is what gets measured).
fn time_kernel(
    name: &'static str,
    samples_per_iter: usize,
    min_elapsed_s: f64,
    mut f: impl FnMut(),
) -> KernelResult {
    const MAX_ITERS: usize = 400;
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < MAX_ITERS {
        f();
        iters += 1;
        if start.elapsed().as_secs_f64() >= min_elapsed_s {
            break;
        }
    }
    KernelResult {
        name,
        samples_per_iter,
        iters,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Percentile (0..=1) of a latency sample set, microseconds.
fn percentile_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// Per-hop latency distribution of a streaming engine fed 1 s chunks
/// from a wrapped template for `total_hops` hops. Returns nanoseconds
/// per hop, in hop order.
fn hop_latencies(
    mut push: impl FnMut(&[f64], &[f64]),
    ecg: &[f64],
    z: &[f64],
    hop: usize,
    total_hops: usize,
) -> Vec<u64> {
    let n = ecg.len();
    let mut out = Vec::with_capacity(total_hops);
    for h in 0..total_hops {
        let at = (h * hop) % n;
        let take = hop.min(n - at);
        let start = Instant::now();
        push(&ecg[at..at + take], &z[at..at + take]);
        if take < hop {
            push(&ecg[..hop - take], &z[..hop - take]);
        }
        out.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    out
}

/// Civil date from days since the Unix epoch (Howard Hinnant's
/// `civil_from_days` algorithm), so the output filename carries the run
/// date without any date-time dependency.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_iso() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut print_metrics = false;
    let mut with_faults = false;
    let mut with_fleet = false;
    let mut with_ingest = false;
    let mut with_durability = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--metrics" {
            print_metrics = true;
        } else if arg == "--faults" {
            with_faults = true;
        } else if arg == "--fleet" {
            with_fleet = true;
        } else if arg == "--ingest" {
            with_ingest = true;
        } else if arg == "--durability" {
            with_durability = true;
        } else {
            out_path = Some(arg);
        }
    }
    let min_elapsed = if smoke { 0.05 } else { 0.25 };

    let fs = 250.0;
    let hop = fs as usize;
    let protocol = Protocol::paper_default();
    let population = Population::reference_five();
    let rec = PairedRecording::generate(
        &population.subjects()[0],
        Position::One,
        50_000.0,
        &protocol,
        StudyConfig::paper_default().seed,
    )?;
    let ecg = rec.device_ecg();
    let z = rec.device_z();
    let n = z.len();
    let session_s = n as f64 / fs;

    // --- DSP kernels over one 30 s session ------------------------------
    let fir = design_cache::fir_bandpass(32, 0.05, 40.0, fs, Window::Hamming)?;
    let butter = design_cache::butterworth_lowpass(4, 20.0, fs)?;
    let mut scratch = ZeroPhaseScratch::new();
    let mut out = Vec::new();

    let mut kernels = Vec::new();
    kernels.push(time_kernel(
        "fir_bandpass_filter_into",
        n,
        min_elapsed,
        || {
            fir.filter_into(z, &mut out);
        },
    ));
    kernels.push(time_kernel("filtfilt_fir_bandpass", n, min_elapsed, || {
        filtfilt_fir_into(&fir, z, &mut scratch, &mut out).expect("filtfilt fir");
    }));
    kernels.push(time_kernel(
        "filtfilt_iir_butterworth4",
        n,
        min_elapsed,
        || {
            filtfilt_iir_into(&butter, z, &mut scratch, &mut out).expect("filtfilt iir");
        },
    ));
    kernels.push(time_kernel("derivative_into", n, min_elapsed, || {
        diff::derivative_into(z, fs, &mut out).expect("derivative");
    }));

    // --- Full pipeline, one session per iteration -----------------------
    let config = PipelineConfig::paper_default(fs);
    let pipeline = Pipeline::new(config)?;
    let analyze = time_kernel("pipeline_analyze", n, min_elapsed, || {
        pipeline.analyze(ecg, z).expect("analyze");
    });
    let pipeline_sessions_per_sec = analyze.iters as f64 / analyze.elapsed_s.max(1e-12);
    kernels.push(analyze);

    // --- Streaming engines: whole-session throughput ---------------------
    // One iteration = one full 30 s session streamed in 1 s chunks.
    let run_incremental = || {
        let mut s = BeatStream::new(config).expect("stream");
        let mut beats = 0usize;
        for (e, zc) in ecg.chunks(hop).zip(z.chunks(hop)) {
            beats += s.push(e, zc).expect("push").len();
        }
        beats
    };
    let inc_beats_per_session = run_incremental();
    let inc = time_kernel("beatstream_incremental_session", n, min_elapsed, || {
        run_incremental();
    });
    let inc_sessions_per_sec = inc.iters as f64 / inc.elapsed_s.max(1e-12);
    kernels.push(inc);

    // Same workload with the global metrics gate alternately on and off:
    // interleaving the iterations makes slow drift (thermal, frequency
    // scaling, cache warmth) hit both sides equally, so the remaining gap
    // is the cost of the observability wiring on the streaming hot path.
    let overhead_pairs = if smoke { 12 } else { 100 };
    let mut obs_on_ns = 0u64;
    let mut obs_off_ns = 0u64;
    for _ in 0..overhead_pairs {
        let t = Instant::now();
        run_incremental();
        obs_on_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        cardiotouch_obs::set_enabled(false);
        let t = Instant::now();
        run_incremental();
        obs_off_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        cardiotouch_obs::set_enabled(true);
    }
    let inc_on_sessions_per_sec = overhead_pairs as f64 / (obs_on_ns as f64 / 1e9).max(1e-12);
    let inc_off_sessions_per_sec = overhead_pairs as f64 / (obs_off_ns as f64 / 1e9).max(1e-12);
    let obs_overhead_pct =
        100.0 * (obs_on_ns as f64 - obs_off_ns as f64) / (obs_off_ns as f64).max(1.0);
    // The smoke run's 12 pairs can't discriminate at the 2 % level, so
    // the budget is enforced on full runs only (smoke still records it,
    // and `metrics_check` re-enforces it on the committed document).
    assert!(
        smoke || obs_overhead_pct < OBS_OVERHEAD_BUDGET_PCT,
        "observability overhead {obs_overhead_pct:.2} % exceeds the \
         {OBS_OVERHEAD_BUDGET_PCT:.0} % budget"
    );

    let run_reanalysis = |window_s: f64| {
        let mut s = ReanalysisBeatStream::with_window(config, window_s).expect("stream");
        for (e, zc) in ecg.chunks(hop).zip(z.chunks(hop)) {
            s.push(e, zc).expect("push");
        }
    };
    let re = time_kernel("beatstream_reanalysis_session_w20", n, min_elapsed, || {
        run_reanalysis(20.0);
    });
    let re_sessions_per_sec = re.iters as f64 / re.elapsed_s.max(1e-12);
    kernels.push(re);
    let speedup = inc_sessions_per_sec / re_sessions_per_sec.max(1e-12);

    // --- Streaming engines: per-hop latency distributions -----------------
    // The incremental engine is measured over a long wrapped feed and
    // split into early vs late halves: equal medians demonstrate per-hop
    // cost independent of how much signal has streamed (no window to
    // re-filter). The windowed baseline is measured at three window
    // lengths after its window has filled: its per-hop cost scales with
    // the window.
    let long_hops = if smoke { 60 } else { 240 };
    let mut inc_stream = BeatStream::new(config)?;
    let inc_ns = hop_latencies(
        |e, zc| {
            inc_stream.push(e, zc).expect("push");
        },
        ecg,
        z,
        hop,
        long_hops,
    );
    let (inc_early, inc_late) = inc_ns.split_at(long_hops / 2);

    let mut re_windows = Vec::new();
    for window_s in [10.0, 20.0, 40.0] {
        let measure_hops = if smoke { 20 } else { 60 };
        let fill_hops = window_s as usize + 1;
        let mut s = ReanalysisBeatStream::with_window(config, window_s)?;
        let ns = hop_latencies(
            |e, zc| {
                s.push(e, zc).expect("push");
            },
            ecg,
            z,
            hop,
            fill_hops + measure_hops,
        );
        let settled = &ns[fill_hops..];
        re_windows.push((
            window_s,
            percentile_us(settled, 0.50),
            percentile_us(settled, 0.99),
        ));
    }

    // --- Multi-session scheduler ------------------------------------------
    let fleet = if smoke { 16 } else { 128 };
    let ticks = if smoke { 5 } else { 15 };
    let ecg_arc = Arc::new(ecg.to_vec());
    let z_arc = Arc::new(z.to_vec());
    let feeds: Vec<SessionFeed> = (0..fleet)
        .map(|i| SessionFeed::clean(Arc::clone(&ecg_arc), Arc::clone(&z_arc), (i * 977) % n))
        .collect();
    let mut scheduler = SessionScheduler::new(config, feeds)?;
    let sched = scheduler.run(ticks)?;

    // --- Sharded fleet scaling (gated behind --fleet) ---------------------
    // The same session workload through 1 worker shard and FLEET_SHARDS
    // shards: each shard is a dedicated thread ticking its own scheduler
    // slab inline, so throughput should scale with whichever is smaller,
    // the shard count or the host's parallelism. A second fleet then
    // performs a live migration (through the serialized snapshot codec)
    // and a rebalance, so the committed document's metrics section
    // carries non-trivial `core.fleet.*` counters.
    let fleet_json = if with_fleet {
        let fleet_sessions = if smoke { 8 } else { 32 };
        let fleet_ticks = if smoke { 4 } else { 12 };
        let measure = |shards: usize| -> Result<f64, Box<dyn std::error::Error>> {
            let mut fleet = Fleet::new(config, shards, 64)?;
            for i in 0..fleet_sessions {
                fleet.admit(SessionFeed::clean(
                    Arc::clone(&ecg_arc),
                    Arc::clone(&z_arc),
                    (i * 977) % n,
                ))?;
            }
            // Warm-up tick: engines constructed, design cache hot, and
            // every admission drained before the timed window opens.
            fleet.run(1)?;
            let report = fleet.run(fleet_ticks)?;
            assert_eq!(report.sessions(), fleet_sessions, "fleet lost sessions");
            // The smoke run's few ticks sit inside the engine's settle
            // latency, so beats may legitimately still be zero there.
            assert!(smoke || report.beats() > 0, "fleet emitted no beats");
            let sustained = report.sustained_sessions();
            fleet.shutdown();
            Ok(sustained)
        };
        let single_sps = measure(1)?;
        let sharded_sps = measure(FLEET_SHARDS)?;
        let fleet_speedup = sharded_sps / single_sps.max(1e-12);
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let efficiency = fleet_speedup / FLEET_SHARDS.min(available) as f64;
        assert!(
            efficiency >= FLEET_EFFICIENCY_FLOOR,
            "fleet scaling efficiency {efficiency:.3} at {FLEET_SHARDS} shards \
             (speedup {fleet_speedup:.2}x, {available} cores) is below the \
             {FLEET_EFFICIENCY_FLOOR} floor"
        );

        let mut fleet = Fleet::new(config, FLEET_SHARDS, 64)?;
        for i in 0..fleet_sessions {
            fleet.admit(SessionFeed::clean(
                Arc::clone(&ecg_arc),
                Arc::clone(&z_arc),
                (i * 977) % n,
            ))?;
        }
        fleet.run(2)?;
        let migrated = fleet.migrate(0, 1, 2)?;
        assert!(migrated >= 1, "no session was migratable");
        let rebalanced = fleet.rebalance()?;
        let report = fleet.run(2)?;
        assert_eq!(
            report.sessions(),
            fleet_sessions,
            "sessions lost across migration/rebalance"
        );
        fleet.shutdown();
        eprintln!(
            "fleet: {single_sps:.0} -> {sharded_sps:.0} sustained sessions at {FLEET_SHARDS} \
             shards ({fleet_speedup:.2}x, efficiency {efficiency:.2} over {available} cores); \
             migrated {migrated}, rebalanced {rebalanced}"
        );

        let mut s = String::from("  \"fleet\": {\n");
        s.push_str(&format!("    \"shards\": {FLEET_SHARDS},\n"));
        s.push_str(&format!("    \"sessions\": {fleet_sessions},\n"));
        s.push_str(&format!("    \"ticks\": {fleet_ticks},\n"));
        s.push_str(&format!(
            "    \"sustained_sessions_1_shard\": {single_sps:.1},\n"
        ));
        s.push_str(&format!(
            "    \"sustained_sessions_sharded\": {sharded_sps:.1},\n"
        ));
        s.push_str(&format!("    \"speedup\": {fleet_speedup:.3},\n"));
        s.push_str(&format!("    \"available_parallelism\": {available},\n"));
        s.push_str(&format!("    \"scaling_efficiency\": {efficiency:.3},\n"));
        s.push_str(&format!(
            "    \"efficiency_floor\": {FLEET_EFFICIENCY_FLOOR},\n"
        ));
        s.push_str(&format!("    \"sessions_migrated\": {migrated},\n"));
        s.push_str(&format!("    \"sessions_rebalanced\": {rebalanced}\n"));
        s.push_str("  },\n");
        Some(s)
    } else {
        None
    };

    // --- Fault injection: degraded path vs clean, faulted fleet ----------
    // Gated behind --faults. A copy of the template is pre-corrupted with
    // the touch-device fault taxonomy (a >cap contact dropout so holdover
    // truncation fires, an ECG flatline, a motion burst, AFE saturation)
    // and the degradation ladder is timed against the clean path with
    // interleaved iterations — the same drift cancellation as the obs
    // overhead pairs above. A second fleet carries one hard front-end
    // fault at t = 2 s (error on tick 3, quarantine on tick 4, clean
    // retry on tick 5) so the quarantine/backoff/recovery counters are
    // exercised even by the 5-tick smoke run.
    const BENCH_SCENARIO: &str = "drop@5s+400ms,loss=0@12s+1s:ecg,motion@18s+2s:z,sat=2.0@22s+1s";
    let faults_json = if with_faults {
        let scenario = FaultScenario::parse(BENCH_SCENARIO, fs)?;
        let mut fe = ecg.to_vec();
        let mut fz = z.to_vec();
        scenario
            .apply_chunk(0, &mut fe, &mut fz)
            .expect("the bench scenario is soft-fault only");
        let run_qualified = |e: &[f64], zc: &[f64]| {
            let mut s = BeatStream::new(config).expect("stream");
            let mut beats = 0usize;
            for (ce, cz) in e.chunks(hop).zip(zc.chunks(hop)) {
                beats += s.push_qualified(ce, cz).expect("push").len();
            }
            beats
        };
        // Warm-up; also guarantees the ladder counters in the final
        // metrics snapshot are populated regardless of pair count.
        let faulted_beats = run_qualified(&fe, &fz);
        assert!(
            faulted_beats > 0,
            "the faulted session must still emit beats"
        );
        let fault_pairs = if smoke { 8 } else { 40 };
        let mut clean_ns = 0u64;
        let mut faulted_ns = 0u64;
        for _ in 0..fault_pairs {
            let t = Instant::now();
            run_qualified(ecg, z);
            clean_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let t = Instant::now();
            run_qualified(&fe, &fz);
            faulted_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        let clean_sessions_per_sec = fault_pairs as f64 / (clean_ns as f64 / 1e9).max(1e-12);
        let faulted_sessions_per_sec = fault_pairs as f64 / (faulted_ns as f64 / 1e9).max(1e-12);
        let degraded_overhead_pct =
            100.0 * (faulted_ns as f64 - clean_ns as f64) / (clean_ns as f64).max(1.0);
        assert!(
            degraded_overhead_pct < DEGRADED_OVERHEAD_BUDGET_PCT,
            "degraded-path overhead {degraded_overhead_pct:.1} % exceeds the \
             {DEGRADED_OVERHEAD_BUDGET_PCT:.0} % budget"
        );

        let fleet_f = if smoke { 8 } else { 32 };
        let hard = Arc::new(FaultScenario::parse("fail@2s+1s", fs)?);
        let feeds: Vec<SessionFeed> = (0..fleet_f)
            .map(|i| {
                let feed =
                    SessionFeed::clean(Arc::clone(&ecg_arc), Arc::clone(&z_arc), (i * 977) % n);
                if i == 0 {
                    feed.with_faults(Arc::clone(&hard))
                } else {
                    feed.with_faults(Arc::new(FaultScenario::random(i as u64, n, fs)))
                }
            })
            .collect();
        let mut fsched = SessionScheduler::new(config, feeds)?;
        let fr = fsched.run(ticks)?;
        assert!(fr.session_errors >= 1, "the hard fault was never hit");
        assert!(
            fr.session_recoveries >= 1,
            "the quarantined session never recovered"
        );
        eprintln!(
            "degraded-path overhead: {degraded_overhead_pct:.2} % (budget {DEGRADED_OVERHEAD_BUDGET_PCT:.0} %); \
             faulted fleet: {} errors, {} retries, {} recoveries",
            fr.session_errors, fr.session_retries, fr.session_recoveries
        );
        let mut s = String::from("  \"faults\": {\n");
        s.push_str(&format!("    \"scenario\": \"{BENCH_SCENARIO}\",\n"));
        s.push_str(&format!(
            "    \"degraded_overhead_pct\": {degraded_overhead_pct:.2},\n"
        ));
        s.push_str(&format!(
            "    \"degraded_overhead_budget_pct\": {DEGRADED_OVERHEAD_BUDGET_PCT:.0},\n"
        ));
        s.push_str(&format!(
            "    \"clean_sessions_per_sec\": {clean_sessions_per_sec:.2},\n"
        ));
        s.push_str(&format!(
            "    \"faulted_sessions_per_sec\": {faulted_sessions_per_sec:.2},\n"
        ));
        s.push_str(&format!(
            "    \"beats_per_faulted_session\": {faulted_beats},\n"
        ));
        s.push_str("    \"fleet\": {\n");
        s.push_str(&format!("      \"sessions\": {},\n", fr.sessions));
        s.push_str(&format!("      \"ticks\": {},\n", fr.ticks));
        s.push_str(&format!("      \"beats\": {},\n", fr.beats));
        s.push_str(&format!(
            "      \"session_errors\": {},\n",
            fr.session_errors
        ));
        s.push_str(&format!(
            "      \"session_retries\": {},\n",
            fr.session_retries
        ));
        s.push_str(&format!(
            "      \"session_recoveries\": {},\n",
            fr.session_recoveries
        ));
        s.push_str(&format!(
            "      \"sessions_quarantined\": {}\n",
            fr.sessions_quarantined
        ));
        s.push_str("    }\n");
        s.push_str("  },\n");
        Some(s)
    } else {
        None
    };

    // --- Wire ingest front door (gated behind --ingest) -------------------
    // An INGEST_SESSIONS-wide multiplexed wire stream: per time slot,
    // one sequence-numbered frame per session, round-robin, each session
    // reading the shared template at its own phase offset. The timed
    // kernel decodes the whole mux through a fresh front door per
    // iteration; a persistent door then proves the steady state is
    // alloc-free (carry + scratch capacity stable across a second,
    // unevenly chunked pass); a lossy logged pass lights up the
    // `ingest.*` counters and replays its own log; and a BLE
    // parameter-uplink pass exercises `device.uplink.*`.
    let ingest_json = if with_ingest {
        let ingest_secs = if smoke { 5 } else { 30 };
        let slots = ingest_secs * hop / INGEST_FRAME_SAMPLES;
        let mut encoders: Vec<SessionEncoder> = (0..INGEST_SESSIONS)
            .map(|s| SessionEncoder::new(u32::try_from(s).expect("session id fits u32")))
            .collect();
        let mux = |encoders: &mut [SessionEncoder],
                   first_slot: usize|
         -> Result<Vec<u8>, Box<dyn std::error::Error>> {
            let mut wire = Vec::new();
            for slot in first_slot..first_slot + slots {
                for (s, enc) in encoders.iter_mut().enumerate() {
                    let off = (s * 977 + slot * INGEST_FRAME_SAMPLES) % (n - INGEST_FRAME_SAMPLES);
                    enc.push_frame(
                        &ecg[off..off + INGEST_FRAME_SAMPLES],
                        &z[off..off + INGEST_FRAME_SAMPLES],
                        &mut wire,
                    )?;
                }
            }
            Ok(wire)
        };
        let wire = mux(&mut encoders, 0)?;
        let mux_frames = (INGEST_SESSIONS * slots) as u64;
        let mux_samples = INGEST_SESSIONS * slots * INGEST_FRAME_SAMPLES;

        let decode = time_kernel(
            "ingest_frontdoor_decode_mux64",
            mux_samples,
            min_elapsed,
            || {
                let mut door = FrontDoor::new();
                let mut acc = 0.0;
                door.push(&wire, |_, e, zc| {
                    acc += e[0] + zc[0];
                });
                black_box(acc);
                assert_eq!(
                    door.decode_stats().frames,
                    mux_frames,
                    "a clean mux must decode losslessly"
                );
            },
        );
        let samples_per_sec = decode.samples_per_sec();
        let frames_per_sec = samples_per_sec / INGEST_FRAME_SAMPLES as f64;
        let decode_ns_per_frame = 1e9 / frames_per_sec.max(1e-12);
        let realtime_multiple = samples_per_sec / (INGEST_SESSIONS as f64 * fs);
        assert!(
            realtime_multiple >= INGEST_REALTIME_FLOOR,
            "ingest decode at {realtime_multiple:.1}x real time is below the \
             {INGEST_REALTIME_FLOOR:.0}x floor for a {INGEST_SESSIONS}-session mux"
        );

        // Alloc-free steady state: same door, two unevenly chunked
        // passes (the encoders keep counting, so sequences stay
        // continuous); any capacity growth on the second pass means a
        // steady-state allocation crept in.
        let mut sink = |_: u32, e: &[f64], zc: &[f64]| {
            black_box(e[0] + zc[0]);
        };
        let mut steady = FrontDoor::new();
        for chunk in wire.chunks(997) {
            steady.push(chunk, &mut sink);
        }
        let warm_capacity = steady.buffer_capacity();
        let wire_b = mux(&mut encoders, slots)?;
        for chunk in wire_b.chunks(997) {
            steady.push(chunk, &mut sink);
        }
        let steady_capacity = steady.buffer_capacity();
        assert_eq!(
            steady_capacity, warm_capacity,
            "front-door steady state allocated: capacity {warm_capacity} -> {steady_capacity}"
        );
        let alloc_free = steady_capacity == warm_capacity;

        // Lossy + logged pass: the clean mux re-framed through a seeded
        // fault link into a logging door, then the log read back.
        let mut link = LossyWire::new(0xC71C, 0.02, 0.02);
        let mut lossy = Vec::new();
        {
            let mut splitter = WireDecoder::new();
            splitter.push(&wire, |f| {
                link.transmit(f.as_bytes(), &mut lossy);
            });
        }
        let mut logged = FrontDoor::with_log();
        for chunk in lossy.chunks(4096) {
            logged.push(chunk, &mut sink);
        }
        let logged_dec = logged.decode_stats();
        let logged_asm = logged.assembly_stats();
        assert!(
            logged_dec.resyncs > 0,
            "the lossy pass corrupted nothing (seed drift?)"
        );
        let log = logged.log_bytes().expect("logging door").to_vec();
        let mut reader = LogReader::new(&log)?;
        let mut replayed = 0u64;
        while reader.next_frame().is_some() {
            replayed += 1;
        }
        assert!(reader.error().is_none(), "ingest log failed to read back");
        assert_eq!(
            replayed, logged_dec.frames,
            "the ingest log must replay every accepted frame"
        );
        let log_bytes_per_frame = log.len() as f64 / logged_dec.frames.max(1) as f64;

        // BLE parameter uplink: records through the lossy notification
        // link, periodic byte corruption, resynchronising decode.
        let records: Vec<ParameterRecord> = (0..2000u16)
            .map(|i| ParameterRecord {
                sequence: i,
                z0_ohm: 431.0,
                lvet_ms: 294.0,
                pep_ms: 104.0,
                hr_bpm: 68.0,
                valid: true,
            })
            .collect();
        let mut ble = LossyLink::new(11, 0.05)?;
        let mut rx = ble.transmit(&records);
        for i in (137..rx.len()).step_by(997) {
            rx[i] ^= 0x5A;
        }
        let (decoded, rstats) = decode_stream_resync(&rx);
        assert!(
            rstats.resyncs > 0 && !decoded.is_empty(),
            "the uplink pass must decode through corruption"
        );
        let missing = missing_sequences(&decoded);

        eprintln!(
            "ingest: {INGEST_SESSIONS}-session mux decoded at {realtime_multiple:.0}x real time \
             ({decode_ns_per_frame:.0} ns/frame), steady capacity {steady_capacity} B; lossy \
             pass {} frames ({} resyncs, {} dropped), log {:.1} B/frame; uplink {} records \
             ({} resyncs, {} missing)",
            logged_dec.frames,
            logged_dec.resyncs,
            logged_asm.dropped,
            log_bytes_per_frame,
            decoded.len(),
            rstats.resyncs,
            missing.len()
        );

        let mut s = String::from("  \"ingest\": {\n");
        s.push_str(&format!("    \"sessions\": {INGEST_SESSIONS},\n"));
        s.push_str(&format!("    \"frame_samples\": {INGEST_FRAME_SAMPLES},\n"));
        s.push_str(&format!("    \"mux_frames\": {mux_frames},\n"));
        s.push_str(&format!("    \"wire_bytes\": {},\n", wire.len()));
        s.push_str(&format!("    \"frames_per_sec\": {frames_per_sec:.0},\n"));
        s.push_str(&format!("    \"samples_per_sec\": {samples_per_sec:.0},\n"));
        s.push_str(&format!(
            "    \"decode_ns_per_frame\": {decode_ns_per_frame:.1},\n"
        ));
        s.push_str(&format!(
            "    \"realtime_multiple\": {realtime_multiple:.1},\n"
        ));
        s.push_str(&format!(
            "    \"realtime_floor\": {INGEST_REALTIME_FLOOR:.1},\n"
        ));
        s.push_str(&format!(
            "    \"steady_buffer_capacity\": {steady_capacity},\n"
        ));
        s.push_str(&format!("    \"alloc_free_steady_state\": {alloc_free},\n"));
        s.push_str(&format!(
            "    \"log_bytes_per_frame\": {log_bytes_per_frame:.1},\n"
        ));
        s.push_str("    \"lossy\": {\n");
        s.push_str(&format!(
            "      \"frames_decoded\": {},\n",
            logged_dec.frames
        ));
        s.push_str(&format!("      \"resyncs\": {},\n", logged_dec.resyncs));
        s.push_str(&format!("      \"reordered\": {},\n", logged_asm.reordered));
        s.push_str(&format!("      \"dropped\": {}\n", logged_asm.dropped));
        s.push_str("    },\n");
        s.push_str("    \"uplink\": {\n");
        s.push_str(&format!("      \"records_sent\": {},\n", records.len()));
        s.push_str(&format!("      \"delivered\": {},\n", ble.delivered()));
        s.push_str(&format!("      \"dropped\": {},\n", ble.dropped()));
        s.push_str(&format!("      \"records_decoded\": {},\n", decoded.len()));
        s.push_str(&format!("      \"resyncs\": {},\n", rstats.resyncs));
        s.push_str(&format!("      \"missing_reported\": {}\n", missing.len()));
        s.push_str("    }\n");
        s.push_str("  },\n");
        kernels.push(decode);
        Some(s)
    } else {
        None
    };

    // --- Durable serving: checkpoint tax, bounded log, recovery ----------
    // Gated behind --durability. The durability tax is measured by
    // *direct attribution*: the wall time of every checkpoint call and
    // of a dedicated segmented-log append+compact pass over the same
    // frames, as a fraction of plain (non-durable) serving time. The
    // end-to-end plain/logged/durable A/B deltas are also recorded
    // (informational) but not gated — at the 5 % level they demand a
    // quieter host than CI runners or shared boxes provide, while the
    // attributed sums are stable because each is a contiguous burst of
    // work orders of magnitude above timer noise. A dedicated durable
    // run then proves rotation + lag-by-one compaction bound the
    // on-disk footprint and times a cold-start recovery, and a durable
    // fleet survives an injected shard panic so the core.fleet.*
    // durability counters land in the metrics snapshot.
    let durability_json = if with_durability {
        let frame_len = INGEST_FRAME_SAMPLES;
        let dur_secs = if smoke { 6 } else { 600 };
        let slots = dur_secs * hop / frame_len;
        let ckpt_stride = if smoke {
            8
        } else {
            DURABILITY_CHECKPOINT_EVERY_SLOTS
        };
        let policy = SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 64,
        };
        let mut encoders: Vec<SessionEncoder> = (0..DURABILITY_SESSIONS)
            .map(|s| SessionEncoder::new(u32::try_from(s).expect("session id fits u32")))
            .collect();
        let mut slot_bufs: Vec<Vec<u8>> = Vec::with_capacity(slots);
        let mut frame_bufs: Vec<Vec<u8>> = Vec::with_capacity(slots * DURABILITY_SESSIONS);
        for slot in 0..slots {
            let mut buf = Vec::new();
            for (s, enc) in encoders.iter_mut().enumerate() {
                let off = (s * 977 + slot * frame_len) % (n - frame_len);
                let mut fbuf = Vec::new();
                enc.push_frame(
                    &ecg[off..off + frame_len],
                    &z[off..off + frame_len],
                    &mut fbuf,
                )?;
                buf.extend_from_slice(&fbuf);
                frame_bufs.push(fbuf);
            }
            slot_bufs.push(buf);
        }

        // Per-variant **minimum** across iterations, not the sum:
        // interference on a busy host (scheduler steals, frequency
        // dips) only ever *adds* time, so the minimum converges on the
        // true cost while a sum lets one stolen timeslice masquerade
        // as durability tax. The variants stay interleaved so slow
        // drift still hits all of them equally.
        let pairs = 4;
        let mut plain_ns = u64::MAX;
        let mut logged_ns = u64::MAX;
        let mut durable_ns = u64::MAX;
        // Directly attributed durability work (minimum across
        // iterations of each run's total): every checkpoint call, and
        // a pure segmented-log append+compact pass over the same
        // frames at the same cadence.
        let mut ckpt_ns = u64::MAX;
        let mut log_ns = u64::MAX;
        let mut checkpoints_per_run = 0u64;
        for _ in 0..pairs {
            let t = Instant::now();
            let mut hub = WireHub::new(config)?;
            for buf in &slot_bufs {
                hub.push(buf)?;
            }
            black_box(hub.finish().len());
            plain_ns = plain_ns.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));

            let t = Instant::now();
            let mut hub = WireHub::with_durable_log(config, policy)?;
            for buf in &slot_bufs {
                hub.push(buf)?;
            }
            black_box(hub.finish().len());
            logged_ns = logged_ns.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));

            let t = Instant::now();
            let mut hub = WireHub::with_durable_log(config, policy)?;
            let mut store = CheckpointStore::new();
            checkpoints_per_run = 0;
            let mut run_ckpt_ns = 0u64;
            for (i, buf) in slot_bufs.iter().enumerate() {
                hub.push(buf)?;
                if i % ckpt_stride == ckpt_stride - 1 {
                    let tc = Instant::now();
                    black_box(hub.checkpoint(&mut store)?);
                    run_ckpt_ns = run_ckpt_ns
                        .saturating_add(u64::try_from(tc.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    checkpoints_per_run += 1;
                }
            }
            black_box((hub.finish().len(), store.entries()));
            durable_ns = durable_ns.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            ckpt_ns = ckpt_ns.min(run_ckpt_ns);

            // What the segmented log itself costs for this workload:
            // every accepted frame appended, watermarks taken and
            // lag-by-one compaction applied at the checkpoint cadence.
            let t = Instant::now();
            let mut dlog = SegmentedLog::new(policy);
            let mut prev_mark = None;
            for (i, chunk) in frame_bufs.chunks(DURABILITY_SESSIONS).enumerate() {
                for f in chunk {
                    dlog.append(f);
                }
                if i % ckpt_stride == ckpt_stride - 1 {
                    let mark = dlog.position();
                    if let Some(prev) = prev_mark {
                        dlog.compact(&prev);
                    }
                    prev_mark = Some(mark);
                }
            }
            black_box(dlog.frames());
            log_ns = log_ns.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let log_overhead_pct = 100.0 * log_ns as f64 / (plain_ns as f64).max(1.0);
        let ckpt_overhead_pct = 100.0 * ckpt_ns as f64 / (plain_ns as f64).max(1.0);
        let durability_overhead_pct = log_overhead_pct + ckpt_overhead_pct;
        let ab_logged_delta_pct =
            100.0 * (logged_ns as f64 - plain_ns as f64) / (plain_ns as f64).max(1.0);
        let ab_durable_delta_pct =
            100.0 * (durable_ns as f64 - plain_ns as f64) / (plain_ns as f64).max(1.0);
        eprintln!(
            "durability: attributed log {log_overhead_pct:.2} % + checkpoints \
             {ckpt_overhead_pct:.2} % = {durability_overhead_pct:.2} % \
             (A/B deltas: logged {ab_logged_delta_pct:+.2} %, durable {ab_durable_delta_pct:+.2} %)"
        );
        // Like the obs budget, the smoke run's short horizon is too
        // noisy to discriminate at this level; `metrics_check`
        // re-enforces the committed full-run document.
        assert!(
            smoke || durability_overhead_pct < DURABILITY_OVERHEAD_BUDGET_PCT,
            "durable-serving overhead {durability_overhead_pct:.2} % exceeds the \
             {DURABILITY_OVERHEAD_BUDGET_PCT:.0} % budget"
        );

        // Bounded on-disk footprint + cold-start recovery, on a
        // dedicated durable run whose cadence is short enough that
        // rotation and lag-by-one compaction fire even in smoke. The
        // run is capped at 120 slots (60 simulated s) — long enough to
        // rotate hundreds of segments, without the store ballooning at
        // this deliberately aggressive cadence.
        let ckpt_every = 4usize;
        let sub_slots = slots.min(120);
        let mut hub = WireHub::with_durable_log(config, policy)?;
        let mut store = CheckpointStore::new();
        let mut checkpoints = 0u64;
        for (i, buf) in slot_bufs.iter().take(sub_slots).enumerate() {
            hub.push(buf)?;
            // Offset cadence: the last checkpoint lands before the
            // final slots, so the recovery below replays a non-empty
            // log suffix past the watermark.
            if i % ckpt_every == 1 {
                hub.checkpoint(&mut store)?;
                checkpoints += 1;
            }
        }
        assert!(
            checkpoints >= 2,
            "lag-by-one compaction needs at least two checkpoints"
        );
        let log = hub.segmented_log().expect("durable hub has a log").clone();
        let appended_bytes = log.appended_bytes();
        let retained_bytes = log.total_bytes() as u64;
        let segments_retired = log.retired();
        assert!(
            segments_retired > 0,
            "the durable run never compacted a segment"
        );
        let bounded_log = retained_bytes < appended_bytes;
        assert!(
            bounded_log,
            "compaction left the log unbounded: {retained_bytes} of {appended_bytes} B retained"
        );
        let recovered = recover_latest(store.as_bytes())
            .expect("checkpoint store parses")
            .expect("a sealed checkpoint recovers");
        let mut suffix_frames = 0u64;
        log.replay_from(&recovered.checkpoint.watermark, |_| suffix_frames += 1)
            .expect("suffix replay");
        let t = Instant::now();
        let recovered_hub = WireHub::recover(config, &recovered.checkpoint, log)?;
        let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
        let recovered_sessions = recovered_hub.session_count();
        assert_eq!(
            recovered_sessions, DURABILITY_SESSIONS,
            "recovery lost sessions"
        );
        assert!(
            recovery_ms <= RECOVERY_BUDGET_MS,
            "cold-start recovery took {recovery_ms:.0} ms (budget {RECOVERY_BUDGET_MS:.0} ms)"
        );
        drop(recovered_hub);

        // Durable fleet with an injected shard panic mid-run: the
        // supervised restart restores the shard's sessions from the
        // checkpoint + log suffix, so restarts/checkpoints/compactions
        // and the checkpoint_us histogram all fire for the metrics
        // gate. The tiny segment policy forces constant rotation.
        let mut dfleet = Fleet::new(config, 2, 64)?;
        dfleet.wire_enable_durable(SegmentPolicy {
            max_bytes: 4 * 1024,
            max_frames: 16,
        });
        for s in 0..DURABILITY_SESSIONS {
            dfleet.wire_admit(u32::try_from(s).expect("session id fits u32"))?;
        }
        let mut fleet_checkpoints = 0u64;
        let mut fleet_restarts = 0u64;
        for (i, buf) in slot_bufs.iter().take(sub_slots).enumerate() {
            dfleet.wire_push(buf);
            if i == sub_slots / 2 {
                dfleet.inject_shard_panic(0);
                assert!(
                    dfleet.checkpoint().is_err(),
                    "a panicked shard must abort the checkpoint exchange"
                );
                dfleet.restart_shard(0)?;
                fleet_restarts += 1;
            }
            if i % 3 == 2 {
                dfleet.checkpoint()?;
                fleet_checkpoints += 1;
            }
        }
        let fleet_results = dfleet.shutdown_graceful()?;
        let fleet_beats: usize = fleet_results.iter().map(|r| r.beats.len()).sum();
        assert_eq!(
            fleet_results.len(),
            DURABILITY_SESSIONS,
            "the durable fleet lost sessions across the restart"
        );
        assert!(
            smoke || fleet_beats > 0,
            "the durable fleet emitted no beats"
        );

        eprintln!(
            "durability: overhead {durability_overhead_pct:.2} % (budget \
             {DURABILITY_OVERHEAD_BUDGET_PCT:.0} %); log {retained_bytes} of {appended_bytes} B \
             retained, {segments_retired} segments retired over {checkpoints} checkpoints; \
             recovery {recovery_ms:.1} ms ({suffix_frames} suffix frames); fleet \
             {fleet_restarts} restart(s), {fleet_checkpoints} checkpoints, {fleet_beats} beats"
        );

        let mut s = String::from("  \"durability\": {\n");
        s.push_str(&format!("    \"sessions\": {DURABILITY_SESSIONS},\n"));
        s.push_str(&format!("    \"slots\": {slots},\n"));
        s.push_str(&format!("    \"checkpoint_every_slots\": {ckpt_stride},\n"));
        s.push_str(&format!(
            "    \"checkpoints_per_timed_run\": {checkpoints_per_run},\n"
        ));
        s.push_str(&format!(
            "    \"log_overhead_pct\": {log_overhead_pct:.2},\n"
        ));
        s.push_str(&format!(
            "    \"checkpoint_overhead_pct\": {ckpt_overhead_pct:.2},\n"
        ));
        s.push_str(&format!(
            "    \"durability_overhead_pct\": {durability_overhead_pct:.2},\n"
        ));
        s.push_str(&format!(
            "    \"durability_overhead_budget_pct\": {DURABILITY_OVERHEAD_BUDGET_PCT:.0},\n"
        ));
        s.push_str(&format!(
            "    \"ab_logged_delta_pct\": {ab_logged_delta_pct:.2},\n"
        ));
        s.push_str(&format!(
            "    \"ab_durable_delta_pct\": {ab_durable_delta_pct:.2},\n"
        ));
        s.push_str(&format!("    \"checkpoints\": {checkpoints},\n"));
        s.push_str(&format!("    \"segments_retired\": {segments_retired},\n"));
        s.push_str(&format!("    \"log_appended_bytes\": {appended_bytes},\n"));
        s.push_str(&format!("    \"log_retained_bytes\": {retained_bytes},\n"));
        s.push_str(&format!("    \"bounded_log\": {bounded_log},\n"));
        s.push_str(&format!("    \"recovery_ms\": {recovery_ms:.2},\n"));
        s.push_str(&format!(
            "    \"recovery_budget_ms\": {RECOVERY_BUDGET_MS:.0},\n"
        ));
        s.push_str(&format!(
            "    \"recovered_sessions\": {recovered_sessions},\n"
        ));
        s.push_str(&format!("    \"suffix_frames\": {suffix_frames},\n"));
        s.push_str("    \"fleet\": {\n");
        s.push_str(&format!("      \"restarts\": {fleet_restarts},\n"));
        s.push_str(&format!("      \"checkpoints\": {fleet_checkpoints},\n"));
        s.push_str(&format!("      \"beats\": {fleet_beats}\n"));
        s.push_str("    }\n");
        s.push_str("  },\n");
        Some(s)
    } else {
        None
    };

    // --- End-to-end study (the parallelized grid) -----------------------
    let study_config = StudyConfig {
        protocol: Protocol {
            duration_s: 12.0,
            ..Protocol::paper_default()
        },
        ..StudyConfig::paper_default()
    };
    let grid_sessions =
        population.subjects().len() * Position::ALL.len() * study_config.frequencies_hz.len();
    let start = Instant::now();
    let outcome = run_position_study(&population, &study_config)?;
    let study_elapsed = start.elapsed().as_secs_f64();
    assert!(outcome.summary.mean_correlation.is_finite());

    // Taken last so it reflects everything the benchmarks streamed. The
    // design-cache statistics are read straight out of the registry
    // snapshot (`dsp.design_cache.*` — the old `design_cache::stats()`
    // shim is gone).
    let metrics_snapshot = cardiotouch_obs::snapshot();
    let cache_hits = metrics_snapshot
        .counter("dsp.design_cache.hits")
        .unwrap_or(0);
    let cache_misses = metrics_snapshot
        .counter("dsp.design_cache.misses")
        .unwrap_or(0);
    let cache_entries = metrics_snapshot
        .gauge("dsp.design_cache.entries")
        .unwrap_or(0);
    let cache_lookups = cache_hits + cache_misses;
    let cache_hit_rate = if cache_lookups > 0 {
        cache_hits as f64 / cache_lookups as f64
    } else {
        0.0
    };

    // --- Emit ------------------------------------------------------------
    let date = today_iso();
    let mut json = String::from("{\n");
    json.push_str("  \"schema_version\": 8,\n");
    json.push_str(&format!("  \"date\": \"{date}\",\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"threads\": {},\n",
        rayon::current_num_threads()
    ));
    json.push_str(&format!("  \"session_samples\": {n},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples_per_sec\": {:.0}, \"iters\": {}, \"elapsed_s\": {:.4}}}{}\n",
            k.name,
            k.samples_per_sec(),
            k.iters,
            k.elapsed_s,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming\": {\n");
    json.push_str("    \"hop_s\": 1.0,\n");
    json.push_str(&format!("    \"session_seconds\": {session_s:.0},\n"));
    json.push_str("    \"incremental\": {\n");
    json.push_str(&format!(
        "      \"sessions_per_sec\": {inc_sessions_per_sec:.2},\n"
    ));
    json.push_str(&format!(
        "      \"beats_per_session\": {inc_beats_per_session},\n"
    ));
    json.push_str(&format!(
        "      \"hop_p50_us\": {:.1},\n",
        percentile_us(&inc_ns, 0.50)
    ));
    json.push_str(&format!(
        "      \"hop_p99_us\": {:.1},\n",
        percentile_us(&inc_ns, 0.99)
    ));
    json.push_str(&format!(
        "      \"hop_p50_us_first_half\": {:.1},\n",
        percentile_us(inc_early, 0.50)
    ));
    json.push_str(&format!(
        "      \"hop_p50_us_second_half\": {:.1}\n",
        percentile_us(inc_late, 0.50)
    ));
    json.push_str("    },\n");
    json.push_str("    \"reanalysis\": [\n");
    for (i, (w, p50, p99)) in re_windows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"window_s\": {w:.0}, \"hop_p50_us\": {p50:.1}, \"hop_p99_us\": {p99:.1}{}}}{}\n",
            if (*w - 20.0).abs() < f64::EPSILON {
                format!(", \"sessions_per_sec\": {re_sessions_per_sec:.2}")
            } else {
                String::new()
            },
            if i + 1 < re_windows.len() { "," } else { "" }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"incremental_speedup_vs_reanalysis_w20\": {speedup:.2},\n"
    ));
    json.push_str("    \"scheduler\": {\n");
    json.push_str(&format!("      \"sessions\": {},\n", sched.sessions));
    json.push_str(&format!("      \"ticks\": {},\n", sched.ticks));
    json.push_str(&format!("      \"beats\": {},\n", sched.beats));
    json.push_str(&format!(
        "      \"sustained_realtime_sessions\": {:.0},\n",
        sched.sustained_sessions()
    ));
    json.push_str(&format!("      \"hop_p50_us\": {:.1},\n", sched.hop_p50_us));
    json.push_str(&format!("      \"hop_p99_us\": {:.1}\n", sched.hop_p99_us));
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"design_cache\": {\n");
    json.push_str(&format!("    \"hits\": {cache_hits},\n"));
    json.push_str(&format!("    \"misses\": {cache_misses},\n"));
    json.push_str(&format!("    \"entries\": {cache_entries},\n"));
    json.push_str(&format!("    \"hit_rate\": {cache_hit_rate:.4}\n"));
    json.push_str("  },\n");
    json.push_str("  \"study\": {\n");
    json.push_str(&format!("    \"grid_sessions\": {grid_sessions},\n"));
    json.push_str(&format!("    \"session_seconds\": {:.0},\n", 12.0));
    json.push_str(&format!("    \"elapsed_s\": {study_elapsed:.4},\n"));
    json.push_str(&format!(
        "    \"sessions_per_sec\": {:.2},\n",
        grid_sessions as f64 / study_elapsed.max(1e-12)
    ));
    json.push_str(&format!(
        "    \"pipeline_sessions_per_sec\": {pipeline_sessions_per_sec:.2}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"obs\": {\n");
    json.push_str(&format!("    \"overhead_pct\": {obs_overhead_pct:.2},\n"));
    json.push_str(&format!(
        "    \"overhead_budget_pct\": {OBS_OVERHEAD_BUDGET_PCT:.0},\n"
    ));
    json.push_str(&format!(
        "    \"sessions_per_sec_obs_on\": {inc_on_sessions_per_sec:.2},\n"
    ));
    json.push_str(&format!(
        "    \"sessions_per_sec_obs_off\": {inc_off_sessions_per_sec:.2}\n"
    ));
    json.push_str("  },\n");
    if let Some(f) = &fleet_json {
        json.push_str(f);
    }
    if let Some(f) = &faults_json {
        json.push_str(f);
    }
    if let Some(f) = &ingest_json {
        json.push_str(f);
    }
    if let Some(f) = &durability_json {
        json.push_str(f);
    }
    json.push_str(&format!(
        "  \"metrics\": {}\n",
        metrics_snapshot.to_json(false)
    ));
    json.push_str("}\n");

    let path = out_path.unwrap_or_else(|| format!("BENCH_{date}.json"));
    if path == "-" {
        print!("{json}");
    } else {
        std::fs::write(&path, &json)?;
        eprintln!("wrote {path}");
    }
    eprintln!(
        "incremental {inc_sessions_per_sec:.0} sessions/s vs reanalysis {re_sessions_per_sec:.0} sessions/s ({speedup:.1}x)"
    );
    eprintln!("obs overhead on the incremental engine: {obs_overhead_pct:.2} %");
    if print_metrics {
        eprintln!("{}", metrics_snapshot.to_json(false));
    }
    Ok(())
}

//! Sharded fleet layer: multi-core session serving on top of
//! [`crate::scheduler::SessionScheduler`].
//!
//! One [`SessionScheduler`] saturates one core when driven inline; a
//! monitoring backend wants to saturate *all* of them. [`Fleet`] spawns
//! N worker **shards**, each owning its own scheduler slab on a
//! dedicated OS thread, fed by a per-shard bounded SPSC ingest mailbox.
//! Shards never share mutable session state — the only cross-shard
//! traffic is whole [`MigratedSession`]s lifted out at hop boundaries,
//! and even those travel through the serialized
//! [`crate::snapshot::BeatStreamSnapshot`] byte codec so the live
//! migration path and the crash-recovery path are literally the same
//! code.
//!
//! # Backpressure
//!
//! Admission is **non-blocking**: [`Fleet::admit`] does a `try_send`
//! into the least-loaded shard's mailbox and returns
//! [`CoreError::FleetBackpressure`] when it is full, incrementing
//! `core.fleet.rejected`. Control commands (tick, extract, report,
//! shutdown) use the blocking send — they must not be dropped, and a
//! full mailbox only delays them until the shard drains its ingest
//! backlog. The mailbox is a `Mutex<VecDeque>` + condvars rather than a
//! lock-free ring. Sample data does travel through it: the control
//! thread appends every run its [`FrontDoor`] reassembles to the owning
//! shard's pending batch (session, length, ECG and Z samples back to
//! back) and sends the batch as one `WireRuns` message once it holds
//! `WIRE_BATCH_RUNS` (16) runs, and at the end of every call that
//! dispatched runs — `wire_push` and the two log replays — so a later
//! barrier covers all of them. The shard pushes each batch in rounds of
//! distinct sessions, in arrival order: each round is one
//! [`BeatStream::push_group`], so up to four sessions' hops share the
//! zero-phase lane kernels, while every run keeps its own bounds and is
//! never coalesced with another. It then hands the emptied buffers back
//! through a per-shard free list, so the transport allocates nothing in
//! the steady state. A 256-session fleet on two shards thus sends
//! about 32 messages per 1 s slot instead of 512. The two halves need
//! each other: recycling alone measured no consistent gain, and the
//! same batches allocated fresh each time kept only about half of the
//! `slot_p50_ms` drop on serve-steady. Batches stay small
//! because the shards should start while the control thread is still
//! decoding: one batch per shard per push measured ×0.88
//! `sustained_sessions` on serve-steady, and 64-run batches gave back
//! most of the 16-run gain.
//!
//! # Supervision
//!
//! Worker loops run under `catch_unwind`: a panicking session cannot
//! take the process down. A panicked worker posts [`ShardEvent::Down`]
//! and exits; its mailbox closes so nothing ever blocks against a dead
//! shard, and the control thread surfaces [`CoreError::ShardDown`]
//! instead of hanging. Idle workers bump a per-shard heartbeat on a
//! short mailbox-poll cadence, so a worker wedged inside a command is
//! distinguishable from an idle one — the control thread's event waits
//! double as a watchdog and declare a shard down once its heartbeat
//! freezes past the stall deadline. [`Fleet::restart_shard`] spawns a
//! replacement worker and restores its wire sessions from the last
//! sealed checkpoint plus an ingest-log suffix replay, bitwise-equal to
//! a shard that never died.
//!
//! # Observability
//!
//! Fleet-level: `core.fleet.shards`, `core.fleet.log_segments` (gauges),
//! `core.fleet.enqueued`, `core.fleet.rejected`,
//! `core.fleet.migrations`, `core.fleet.restarts`,
//! `core.fleet.checkpoints`, `core.fleet.compactions` (counters),
//! `core.fleet.rebalance_us`, `core.fleet.checkpoint_us` (histograms).
//! Per shard `i`, the embedded scheduler publishes
//! `core.fleet.shard<i>.hop_us` and `core.fleet.shard<i>.quarantined`
//! via [`SessionScheduler::with_metric_prefix`].

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::BTreeMap;

use cardiotouch_ingest::checkpoint::decode_checkpoint;
use cardiotouch_ingest::{
    Assembler, Checkpoint, CheckpointStore, FrameView, LogPosition, SegmentPolicy, SegmentedLog,
    SessionCheckpoint, SessionResume,
};

use crate::config::PipelineConfig;
use crate::scheduler::{MigratedSession, ScheduleReport, SessionFeed, SessionScheduler};
use crate::snapshot::BeatStreamSnapshot;
use crate::stream::{BeatStream, GroupPush, QualifiedBeat};
use crate::wire::{suffix_replay_failed, FrontDoor, WireSessionResult};
use crate::CoreError;

/// Default per-shard ingest mailbox capacity (commands, not samples).
pub const DEFAULT_MAILBOX_CAPACITY: usize = 256;

/// Default watchdog stall deadline: a shard whose heartbeat freezes
/// this long is declared down ([`CoreError::ShardDown`]).
pub const DEFAULT_STALL_DEADLINE: Duration = Duration::from_secs(30);

/// Control-thread event-wait poll cadence (watchdog resolution).
const WATCHDOG_TICK: Duration = Duration::from_millis(25);

/// Idle worker mailbox-poll cadence — each timeout bumps the heartbeat,
/// so an idle shard is provably alive.
const WORKER_IDLE_TICK: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------------
// Bounded SPSC mailbox
// ---------------------------------------------------------------------------

struct MailboxInner<T> {
    queue: Mutex<MailboxQueue<T>>,
    /// Signalled when the queue gains an item (or closes).
    not_empty: Condvar,
    /// Signalled when the queue loses an item.
    not_full: Condvar,
    capacity: usize,
}

struct MailboxQueue<T> {
    items: VecDeque<T>,
    /// Set when *either* end drops, so neither side can block forever
    /// on a peer that is gone.
    closed: bool,
}

/// Producer half of a bounded SPSC mailbox. Deliberately not `Clone`:
/// exactly one fleet control thread feeds each shard.
struct MailboxSender<T>(Arc<MailboxInner<T>>);

/// Consumer half, owned by the shard worker thread.
struct MailboxReceiver<T>(Arc<MailboxInner<T>>);

fn mailbox<T>(capacity: usize) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let inner = Arc::new(MailboxInner {
        queue: Mutex::new(MailboxQueue {
            items: VecDeque::new(),
            closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
    });
    (MailboxSender(Arc::clone(&inner)), MailboxReceiver(inner))
}

/// Outcome of a timed dequeue.
enum MailboxRecv<T> {
    /// An item was dequeued.
    Item(T),
    /// The wait elapsed with an empty queue (heartbeat opportunity).
    Timeout,
    /// The sender is gone and the queue is drained.
    Closed,
}

// Every mailbox lock below recovers from poisoning with
// `PoisonError::into_inner`: the queue's invariants are a plain
// VecDeque's (always valid), and a shard that panicked while holding
// the lock must not cascade-poison the control thread or its peers —
// panic isolation is the supervisor's job, not the mutex's.

impl<T> MailboxSender<T> {
    /// Non-blocking enqueue: `Err(item)` when the mailbox is full (or
    /// the receiver is gone).
    fn try_send(&self, item: T) -> Result<(), T> {
        let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.closed || q.items.len() >= self.0.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Blocking enqueue: waits for a slot. Used for control commands
    /// that must not be dropped. Returns without enqueuing if the
    /// receiver is gone — the fleet detects a dead shard via its
    /// events channel, never by hanging here.
    fn send(&self, item: T) {
        let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if q.closed {
                return;
            }
            if q.items.len() < self.0.capacity {
                break;
            }
            q = self
                .0
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
        q.items.push_back(item);
        drop(q);
        self.0.not_empty.notify_one();
    }
}

impl<T> Drop for MailboxSender<T> {
    fn drop(&mut self) {
        self.0
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.0.not_empty.notify_one();
    }
}

impl<T> Drop for MailboxReceiver<T> {
    fn drop(&mut self) {
        self.0
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.0.not_full.notify_one();
    }
}

impl<T> MailboxReceiver<T> {
    /// Blocking dequeue; `None` once the sender is gone and the queue
    /// is drained (so a dropped fleet always unparks its workers).
    #[cfg(test)]
    fn recv(&self) -> Option<T> {
        loop {
            match self.recv_timeout(Duration::from_secs(3600)) {
                MailboxRecv::Item(item) => return Some(item),
                MailboxRecv::Timeout => {}
                MailboxRecv::Closed => return None,
            }
        }
    }

    /// Dequeue with a bounded wait, so an idle worker wakes to bump its
    /// heartbeat instead of parking forever.
    fn recv_timeout(&self, timeout: Duration) -> MailboxRecv<T> {
        let deadline = Instant::now() + timeout;
        let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = q.items.pop_front() {
                drop(q);
                self.0.not_full.notify_one();
                return MailboxRecv::Item(item);
            }
            if q.closed {
                return MailboxRecv::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return MailboxRecv::Timeout;
            }
            let (guard, _) = self
                .0
                .not_empty
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// Shard protocol
// ---------------------------------------------------------------------------

/// Commands a shard worker understands. Every command except the two
/// admissions and `Shutdown` is answered with exactly one
/// [`ShardEvent`], so the control thread's request/reply bookkeeping
/// stays trivial.
enum ShardCmd {
    /// Admit a fresh session (fleet ingest path; feed pre-validated).
    Admit(Box<SessionFeed>),
    /// Admit a session migrated in from another shard, engine state as
    /// serialized snapshot bytes — the crash-recovery wire format.
    AdmitMigrated {
        session: Box<MigratedSession>,
        snapshot_bytes: Vec<u8>,
    },
    /// Advance every session by `ticks` hops, inline on the shard
    /// thread. Answered with [`ShardEvent::RunDone`].
    Run { ticks: usize },
    /// Lift up to `max` migratable sessions out of the slab. Answered
    /// with [`ShardEvent::Extracted`].
    Extract { max: usize },
    /// Answered with [`ShardEvent::Report`] carrying the given elapsed
    /// wall-clock for throughput math.
    Report { elapsed_s: f64 },
    /// Open a frame-driven wire session: the shard owns a dedicated
    /// [`BeatStream`] for it, outside the scheduler slab.
    WireAdmit { session: u32 },
    /// Reassembled sample runs for this shard's wire sessions, decoded
    /// by the fleet control thread's [`FrontDoor`]. The shard returns
    /// the emptied batch through its free list.
    WireRuns(WireBatch),
    /// Drain every wire session's accumulated beats and final state.
    /// Answered with [`ShardEvent::WireCollected`].
    WireCollect,
    /// Snapshot every wire session in place (sessions stay live) and
    /// drain their accumulated beats — the shard half of a fleet
    /// checkpoint. Answered with [`ShardEvent::WireSnapshotted`].
    WireSnapshot,
    /// Reopen a wire session from serialized snapshot bytes (restart
    /// recovery); empty bytes open a fresh stream. Answered only on
    /// failure, with [`ShardEvent::WireRestoreFailed`], which the next
    /// `quiesce` barrier turns into an error.
    WireRestore {
        session: u32,
        snapshot_bytes: Vec<u8>,
    },
    /// Panic inside the worker loop — the chaos harness's shard-crash
    /// switch. Exercises the same unwind path a session bug would.
    InjectPanic,
    /// Protocol barrier: answered with [`ShardEvent::Synced`] echoing
    /// the token. Per-shard FIFO means every reply to an older command
    /// has drained once the echo arrives — how the supervisor
    /// re-synchronizes the solicited protocol after an aborted
    /// exchange.
    Sync { token: u64 },
    /// Terminate the worker loop.
    Shutdown,
}

/// Runs per [`ShardCmd::WireRuns`] message. Small on purpose: a shard
/// starts on the first batch while the control thread is still
/// decoding the rest of the push.
const WIRE_BATCH_RUNS: usize = 16;

/// Reassembled sample runs bound for one shard, in arrival order: each
/// run's session and length, and the runs' samples back to back.
struct WireBatch {
    runs: Vec<(u32, usize)>,
    ecg: Vec<f64>,
    z: Vec<f64>,
}

/// Emptied batches a shard hands back to the control thread, so the
/// steady state allocates none.
type FreeList = Arc<Mutex<Vec<WireBatch>>>;

/// The control thread's half of the wire transport: one batch being
/// filled per shard, and each shard's free list.
struct WireOutbox {
    pending: Vec<Option<WireBatch>>,
    free: Vec<FreeList>,
}

impl WireOutbox {
    fn new(shards: usize) -> Self {
        Self {
            pending: (0..shards).map(|_| None).collect(),
            free: (0..shards).map(|_| FreeList::default()).collect(),
        }
    }

    /// Appends one run to `shard`'s batch and sends the batch once it
    /// is full.
    fn append(
        &mut self,
        senders: &[MailboxSender<ShardCmd>],
        shard: usize,
        session: u32,
        ecg: &[f64],
        z: &[f64],
    ) {
        let batch = match &mut self.pending[shard] {
            Some(batch) => batch,
            slot => {
                let recycled = self.free[shard]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop();
                slot.insert(recycled.unwrap_or_else(|| {
                    let samples = WIRE_BATCH_RUNS * ecg.len();
                    WireBatch {
                        runs: Vec::with_capacity(WIRE_BATCH_RUNS),
                        ecg: Vec::with_capacity(samples),
                        z: Vec::with_capacity(samples),
                    }
                }))
            }
        };
        batch.runs.push((session, ecg.len()));
        batch.ecg.extend_from_slice(ecg);
        batch.z.extend_from_slice(z);
        if batch.runs.len() == WIRE_BATCH_RUNS {
            self.send(senders, shard);
        }
    }

    /// Sends `shard`'s partly filled batch, if any.
    fn send(&mut self, senders: &[MailboxSender<ShardCmd>], shard: usize) {
        if let Some(batch) = self.pending[shard].take() {
            senders[shard].send(ShardCmd::WireRuns(batch));
        }
    }

    /// Sends every partly filled batch: the end of each call that
    /// dispatched runs, so a later barrier covers all of them.
    fn flush(&mut self, senders: &[MailboxSender<ShardCmd>]) {
        for shard in 0..self.pending.len() {
            self.send(senders, shard);
        }
    }
}

/// One wire session's contribution to a fleet checkpoint.
struct WireSessionSnapshot {
    session: u32,
    snapshot_bytes: Vec<u8>,
    drained: Vec<QualifiedBeat>,
}

/// Replies from shard workers, tagged with the shard index.
enum ShardEvent {
    RunDone,
    Extracted {
        shard: usize,
        sessions: Vec<MigratedSession>,
    },
    Report {
        shard: usize,
        report: Box<ScheduleReport>,
    },
    WireCollected {
        results: Vec<WireSessionResult>,
    },
    WireSnapshotted {
        sessions: Vec<WireSessionSnapshot>,
    },
    Synced {
        shard: usize,
        token: u64,
    },
    /// A `WireRestore` whose snapshot failed to decode or restore; the
    /// session was not reopened.
    WireRestoreFailed {
        reason: String,
    },
    /// Posted by the spawn wrapper when the worker panicked; the
    /// supervisor marks the shard down and refuses further traffic to
    /// it until [`Fleet::restart_shard`]. The epoch identifies the
    /// worker incarnation — a Down from a replaced incarnation is
    /// stale and ignored.
    Down {
        shard: usize,
        epoch: u64,
    },
}

/// Liveness state shared between one worker thread and the supervisor.
struct ShardHealth {
    /// Bumped by the worker on every command and idle poll; a frozen
    /// value past the stall deadline means a wedged thread.
    heartbeat: AtomicU64,
    /// Set when the worker panicked or was declared stalled.
    down: AtomicBool,
}

impl ShardHealth {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            heartbeat: AtomicU64::new(0),
            down: AtomicBool::new(false),
        })
    }

    fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }
}

/// A shard's frame-driven wire sessions, beside its scheduler slab:
/// each owns a plain [`BeatStream`] pushed with whatever sample runs the
/// control thread's front door reassembles (no template feed), and the
/// beats it emitted since the last drain.
#[derive(Default)]
struct WireSessions {
    /// Each session's slot, in session order.
    index: BTreeMap<u32, usize>,
    slots: Vec<(BeatStream, Vec<QualifiedBeat>)>,
    /// The runs of the round being gathered: slot, and offset and length
    /// in the batch.
    round: Vec<(usize, usize, usize)>,
}

impl WireSessions {
    /// Opens `session` on `stream`, replacing any earlier state and
    /// beats.
    fn insert(&mut self, session: u32, stream: BeatStream) {
        match self.index.get(&session) {
            Some(&i) => self.slots[i] = (stream, Vec::new()),
            None => {
                self.index.insert(session, self.slots.len());
                self.slots.push((stream, Vec::new()));
            }
        }
    }

    /// Pushes a batch's runs for known sessions in rounds of distinct
    /// sessions, in arrival order: a round closes when a run for a
    /// session already in it arrives. Each round is one
    /// [`BeatStream::push_group`], so its sessions' hops share lane
    /// kernels, while every run is still pushed with its own bounds —
    /// never coalesced, because `push_qualified` is not chunk-size
    /// invariant on gap-filled input. Returns the beats emitted.
    fn push_batch(&mut self, batch: &WireBatch) -> usize {
        let (mut at, mut emitted) = (0, 0);
        for &(session, n) in &batch.runs {
            if let Some(&slot) = self.index.get(&session) {
                if self.round.iter().any(|&(s, _, _)| s == slot) {
                    emitted += self.push_round(batch);
                }
                self.round.push((slot, at, n));
            }
            at += n;
        }
        emitted + self.push_round(batch)
    }

    /// Pushes the gathered round as one group and clears it.
    fn push_round(&mut self, batch: &WireBatch) -> usize {
        self.round.sort_unstable_by_key(|&(slot, _, _)| slot);
        let (mut rest, mut base) = (&mut self.slots[..], 0);
        let mut group = Vec::with_capacity(self.round.len());
        for &(slot, at, n) in &self.round {
            let (_, from) = std::mem::take(&mut rest).split_at_mut(slot - base);
            let ((stream, beats), after) = from.split_first_mut().expect("rounds hold live slots");
            (rest, base) = (after, slot + 1);
            let (ecg, z) = (&batch.ecg[at..at + n], &batch.z[at..at + n]);
            group.push(GroupPush::new(stream, ecg, z, beats));
        }
        self.round.clear();
        // Channels come from the reassembler, equal-length by
        // construction.
        BeatStream::push_group(&mut group).unwrap_or(0)
    }
}

/// Shard worker main loop: owns one scheduler slab, drains its mailbox
/// until `Shutdown` (or the fleet drops the sender).
fn shard_main(
    shard: usize,
    config: PipelineConfig,
    rx: &MailboxReceiver<ShardCmd>,
    events: &mpsc::Sender<ShardEvent>,
    health: &ShardHealth,
    free: &Mutex<Vec<WireBatch>>,
) {
    let mut sched = match SessionScheduler::new(config, Vec::new()) {
        Ok(s) => s.with_metric_prefix(&format!("core.fleet.shard{shard}")),
        // Config was validated when the fleet built its probe scheduler;
        // an unconstructible shard just exits and the control thread
        // reports `FleetWorkerLost` on first contact.
        Err(_) => return,
    };
    let mut wire = WireSessions::default();
    let wire_beats = cardiotouch_obs::counter(&format!("core.fleet.shard{shard}.wire_beats"));
    loop {
        let cmd = match rx.recv_timeout(WORKER_IDLE_TICK) {
            MailboxRecv::Item(cmd) => cmd,
            MailboxRecv::Timeout => {
                // Idle is not stalled: prove liveness to the watchdog.
                health.beat();
                continue;
            }
            MailboxRecv::Closed => return,
        };
        health.beat();
        match cmd {
            ShardCmd::Admit(feed) => {
                // Feeds are validated fleet-side; an engine construction
                // failure here would also have failed shard startup.
                let _ = sched.admit(*feed);
            }
            ShardCmd::AdmitMigrated {
                mut session,
                snapshot_bytes,
            } => {
                // Rehydrate from the wire bytes, proving on every live
                // migration that the serialized form alone is enough to
                // resume a session (the crash-recovery guarantee).
                if let Ok(snapshot) = BeatStreamSnapshot::from_bytes(&snapshot_bytes) {
                    session.snapshot = snapshot;
                    let _ = sched.admit_migrated(&session);
                }
            }
            ShardCmd::Run { ticks } => {
                for _ in 0..ticks {
                    let _ = sched.tick_inline();
                    // A long run is live work, not a stall.
                    health.beat();
                }
                if events.send(ShardEvent::RunDone).is_err() {
                    return;
                }
            }
            ShardCmd::Extract { max } => {
                let mut sessions = Vec::new();
                for _ in 0..max {
                    match sched.extract_migratable() {
                        Some(m) => sessions.push(m),
                        None => break,
                    }
                }
                if events
                    .send(ShardEvent::Extracted { shard, sessions })
                    .is_err()
                {
                    return;
                }
            }
            ShardCmd::Report { elapsed_s } => {
                let report = Box::new(sched.report(elapsed_s));
                if events.send(ShardEvent::Report { shard, report }).is_err() {
                    return;
                }
            }
            ShardCmd::WireAdmit { session } => {
                // Config was probed fleet-side; duplicate admissions
                // keep the existing session state.
                if !wire.index.contains_key(&session) {
                    if let Ok(stream) = BeatStream::new(config) {
                        wire.insert(session, stream);
                    }
                }
            }
            ShardCmd::WireRuns(mut batch) => {
                let emitted = wire.push_batch(&batch);
                if emitted > 0 {
                    wire_beats.add(emitted as u64);
                }
                batch.runs.clear();
                batch.ecg.clear();
                batch.z.clear();
                free.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(batch);
            }
            ShardCmd::WireCollect => {
                let WireSessions { index, slots, .. } = std::mem::take(&mut wire);
                let mut slots: Vec<_> = slots.into_iter().map(Some).collect();
                let results = index
                    .into_iter()
                    .filter_map(|(session, i)| slots[i].take().map(|slot| (session, slot)))
                    .map(|(session, (stream, beats))| WireSessionResult {
                        session,
                        snapshot_bytes: stream.snapshot().into_bytes(),
                        states: stream.channel_states(),
                        beats,
                    })
                    .collect();
                if events.send(ShardEvent::WireCollected { results }).is_err() {
                    return;
                }
            }
            ShardCmd::WireSnapshot => {
                let sessions = wire
                    .index
                    .iter()
                    .map(|(&session, &i)| {
                        let (stream, beats) = &mut wire.slots[i];
                        WireSessionSnapshot {
                            session,
                            snapshot_bytes: stream.snapshot().into_bytes(),
                            drained: std::mem::take(beats),
                        }
                    })
                    .collect();
                if events
                    .send(ShardEvent::WireSnapshotted { sessions })
                    .is_err()
                {
                    return;
                }
            }
            ShardCmd::WireRestore {
                session,
                snapshot_bytes,
            } => {
                let stream = if snapshot_bytes.is_empty() {
                    BeatStream::new(config)
                } else {
                    BeatStreamSnapshot::from_bytes(&snapshot_bytes)
                        .and_then(|snap| BeatStream::restore(config, &snap))
                };
                match stream {
                    Ok(stream) => wire.insert(session, stream),
                    Err(e) => {
                        let reason = format!("session {session} restore: {e}");
                        if events
                            .send(ShardEvent::WireRestoreFailed { reason })
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            }
            ShardCmd::InjectPanic => panic!("injected shard fault (chaos harness)"),
            ShardCmd::Sync { token } => {
                if events.send(ShardEvent::Synced { shard, token }).is_err() {
                    return;
                }
            }
            ShardCmd::Shutdown => return,
        }
    }
}

/// Spawns one supervised shard worker: the loop runs under
/// `catch_unwind`, so a panicking session tears down one shard, not the
/// process. On panic the wrapper marks the shard down and posts
/// [`ShardEvent::Down`]; either way the mailbox receiver drops on exit,
/// closing the mailbox so senders never block against a dead shard.
fn spawn_shard(
    shard: usize,
    epoch: u64,
    config: PipelineConfig,
    rx: MailboxReceiver<ShardCmd>,
    events: mpsc::Sender<ShardEvent>,
    health: Arc<ShardHealth>,
    free: FreeList,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fleet-shard-{shard}"))
        .spawn(move || {
            // AssertUnwindSafe: on unwind the scheduler slab and wire
            // map are dropped wholesale, never observed again — there
            // is no broken invariant to leak.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                shard_main(shard, config, &rx, &events, &health, &free);
            }));
            if result.is_err() {
                health.down.store(true, Ordering::SeqCst);
                let _ = events.send(ShardEvent::Down { shard, epoch });
            }
        })
        .expect("spawn fleet shard thread")
}

/// Routes one reassembled sample run into its owning shard's batch.
/// Unknown sessions auto-admit onto the least-loaded *live* shard; runs
/// bound for a down shard are shed — losslessly, because the frame is
/// already in the ingest log and the shard's restart replays the suffix.
#[allow(clippy::too_many_arguments)]
fn dispatch_wire_run(
    senders: &[MailboxSender<ShardCmd>],
    health: &[Arc<ShardHealth>],
    wire_routing: &mut BTreeMap<u32, usize>,
    wire_counts: &mut [usize],
    outbox: &mut WireOutbox,
    shed: &mut u64,
    session: u32,
    ecg: &[f64],
    z: &[f64],
) {
    let shard = match wire_routing.get(&session) {
        Some(&shard) => shard,
        None => {
            let placed = wire_counts
                .iter()
                .enumerate()
                .filter(|(i, _)| !health[*i].down.load(Ordering::SeqCst))
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i);
            let Some(shard) = placed else {
                *shed += 1;
                return;
            };
            match senders[shard].try_send(ShardCmd::WireAdmit { session }) {
                Ok(()) => {
                    wire_routing.insert(session, shard);
                    wire_counts[shard] += 1;
                    shard
                }
                Err(_) => {
                    *shed += 1;
                    return;
                }
            }
        }
    };
    if health[shard].down.load(Ordering::SeqCst) {
        *shed += 1;
        return;
    }
    outbox.append(senders, shard, session, ecg, z);
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// Aggregate outcome of a fleet run: one [`ScheduleReport`] per shard
/// plus fleet-level wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ScheduleReport>,
    /// Hops advanced per session during this run.
    pub ticks: usize,
    /// Wall-clock time of the whole run, seconds (shared across shards
    /// — they tick concurrently).
    pub elapsed_s: f64,
}

impl FleetReport {
    /// Total sessions across all shards.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(|r| r.sessions).sum()
    }

    /// Total beats emitted across all shards.
    #[must_use]
    pub fn beats(&self) -> usize {
        self.shards.iter().map(|r| r.beats).sum()
    }

    /// Total session-seconds of signal processed across all shards.
    #[must_use]
    pub fn session_seconds(&self) -> f64 {
        self.shards.iter().map(|r| r.session_seconds).sum()
    }

    /// Sustained real-time sessions for the whole fleet:
    /// session-seconds processed per wall-clock second.
    #[must_use]
    pub fn sustained_sessions(&self) -> f64 {
        self.session_seconds() / self.elapsed_s.max(1e-12)
    }

    /// Sessions still quarantined across all shards.
    #[must_use]
    pub fn sessions_quarantined(&self) -> usize {
        self.shards.iter().map(|r| r.sessions_quarantined).sum()
    }
}

/// N scheduler shards on N dedicated threads, with bounded ingest,
/// live migration, occupancy-based rebalancing, and supervised crash
/// recovery on the wire path.
pub struct Fleet {
    senders: Vec<MailboxSender<ShardCmd>>,
    events: mpsc::Receiver<ShardEvent>,
    event_tx: mpsc::Sender<ShardEvent>,
    handles: Vec<JoinHandle<()>>,
    health: Vec<Arc<ShardHealth>>,
    /// Worker incarnation per shard; bumped by restart so stale Down
    /// events from a replaced worker are ignored.
    epochs: Vec<u64>,
    /// Last heartbeat value seen per shard, with when it changed —
    /// the watchdog's stall detector.
    hb_seen: Vec<(u64, Instant)>,
    stall_deadline: Duration,
    sync_token: u64,
    config: PipelineConfig,
    mailbox_capacity: usize,
    /// Control-thread view of per-shard occupancy (admissions minus
    /// migrations out plus migrations in). Used for least-loaded
    /// placement; authoritative counts come from shard reports.
    occupancy: Vec<usize>,
    enqueued: cardiotouch_obs::Counter,
    rejected: cardiotouch_obs::Counter,
    migrations: cardiotouch_obs::Counter,
    restarts: cardiotouch_obs::Counter,
    checkpoints: cardiotouch_obs::Counter,
    compactions: cardiotouch_obs::Counter,
    rebalance_us: cardiotouch_obs::Histogram,
    checkpoint_us: cardiotouch_obs::Histogram,
    log_segments: cardiotouch_obs::Gauge,
    /// Frame-ingest front door (decode + log + reassembly) for the
    /// wire-serving path; runs on the control thread.
    wire_door: FrontDoor,
    /// Wire session → owning shard.
    wire_routing: BTreeMap<u32, usize>,
    /// Wire sessions per shard, for least-loaded placement.
    wire_counts: Vec<usize>,
    /// Per-shard run batches and their free lists.
    wire_outbox: WireOutbox,
    /// Checkpoint store, present once durable mode is enabled. Its
    /// entry at `last_watermark` is what a shard restart restores from.
    ckpt_store: Option<CheckpointStore>,
    /// Watermark of the last sealed (or recovered) checkpoint: the log
    /// compaction target when the next one is sealed.
    last_watermark: Option<LogPosition>,
    /// Beats drained from shards at checkpoints: durably covered, owned
    /// by the control thread until [`Fleet::wire_collect`] merges them.
    collected: BTreeMap<u32, Vec<QualifiedBeat>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.handles.len())
            .field("occupancy", &self.occupancy)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Spawns `shards` worker threads, each with a mailbox of
    /// `mailbox_capacity` pending commands.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] when `shards` is zero;
    /// * engine-construction errors for an invalid `config` (probed
    ///   up front so shard threads can assume a good config).
    pub fn new(
        config: PipelineConfig,
        shards: usize,
        mailbox_capacity: usize,
    ) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidParameter {
                name: "shards",
                value: 0.0,
                constraint: "a fleet needs at least one shard",
            });
        }
        // Probe the config once on the control thread so construction
        // errors surface here, not silently inside a worker.
        drop(SessionScheduler::new(config, Vec::new())?);
        let (event_tx, events) = mpsc::channel();
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut health = Vec::with_capacity(shards);
        let wire_outbox = WireOutbox::new(shards);
        let now = Instant::now();
        for shard in 0..shards {
            let (tx, rx) = mailbox(mailbox_capacity);
            let hp = ShardHealth::new();
            handles.push(spawn_shard(
                shard,
                0,
                config,
                rx,
                event_tx.clone(),
                Arc::clone(&hp),
                Arc::clone(&wire_outbox.free[shard]),
            ));
            senders.push(tx);
            health.push(hp);
        }
        cardiotouch_obs::gauge("core.fleet.shards").set(shards as i64);
        Ok(Self {
            senders,
            events,
            event_tx,
            handles,
            health,
            epochs: vec![0; shards],
            hb_seen: vec![(0, now); shards],
            stall_deadline: DEFAULT_STALL_DEADLINE,
            sync_token: 0,
            config,
            mailbox_capacity,
            occupancy: vec![0; shards],
            enqueued: cardiotouch_obs::counter("core.fleet.enqueued"),
            rejected: cardiotouch_obs::counter("core.fleet.rejected"),
            migrations: cardiotouch_obs::counter("core.fleet.migrations"),
            restarts: cardiotouch_obs::counter("core.fleet.restarts"),
            checkpoints: cardiotouch_obs::counter("core.fleet.checkpoints"),
            compactions: cardiotouch_obs::counter("core.fleet.compactions"),
            rebalance_us: cardiotouch_obs::histogram("core.fleet.rebalance_us"),
            checkpoint_us: cardiotouch_obs::histogram("core.fleet.checkpoint_us"),
            log_segments: cardiotouch_obs::gauge("core.fleet.log_segments"),
            wire_door: FrontDoor::new(),
            wire_routing: BTreeMap::new(),
            wire_counts: vec![0; shards],
            wire_outbox,
            ckpt_store: None,
            last_watermark: None,
            collected: BTreeMap::new(),
        })
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Control-thread view of total admitted sessions.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.occupancy.iter().sum()
    }

    /// Admits a session onto the least-loaded shard, non-blocking.
    /// Returns the shard index it landed on.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] for an invalid feed
    ///   (validated here, before it crosses a thread);
    /// * [`CoreError::FleetBackpressure`] when the target shard's
    ///   mailbox is full — the caller sheds load or retries later.
    pub fn admit(&mut self, feed: SessionFeed) -> Result<usize, CoreError> {
        if feed.ecg.len() != feed.z.len() || feed.ecg.is_empty() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: feed.ecg.len(),
                z_len: feed.z.len(),
            });
        }
        let shard = self
            .occupancy
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .map(|(i, _)| i)
            .unwrap_or(0);
        match self.senders[shard].try_send(ShardCmd::Admit(Box::new(feed))) {
            Ok(()) => {
                self.occupancy[shard] += 1;
                self.enqueued.inc();
                Ok(shard)
            }
            Err(_) => {
                self.rejected.inc();
                Err(CoreError::FleetBackpressure { shard })
            }
        }
    }

    /// Advances every shard by `ticks` hops concurrently and returns
    /// the aggregated report.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShardDown`] when a shard panicked or stalled —
    ///   call [`Fleet::restart_shard`] and retry;
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died without
    ///   the supervisor noticing (events channel gone).
    pub fn run(&mut self, ticks: usize) -> Result<FleetReport, CoreError> {
        self.check_down()?;
        let start = Instant::now();
        for tx in &self.senders {
            tx.send(ShardCmd::Run { ticks });
        }
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::RunDone => {}
                // Solicited protocol: nothing else can be in flight.
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let shards = self.collect_reports(elapsed_s)?;
        Ok(FleetReport {
            shards,
            ticks,
            elapsed_s,
        })
    }

    /// Fetches per-shard reports without ticking (elapsed is the
    /// caller's measurement window).
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn reports(&mut self, elapsed_s: f64) -> Result<Vec<ScheduleReport>, CoreError> {
        self.collect_reports(elapsed_s)
    }

    /// Moves up to `count` sessions from shard `from` to shard `to`,
    /// at a hop boundary, through the serialized snapshot byte codec.
    /// Quarantined sessions are skipped (their engine state would be
    /// rebuilt on retry anyway). Returns the number actually moved.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an out-of-range shard
    ///   index or `from == to`;
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn migrate(&mut self, from: usize, to: usize, count: usize) -> Result<usize, CoreError> {
        if from >= self.shards() || to >= self.shards() || from == to {
            return Err(CoreError::InvalidParameter {
                name: "shard",
                value: from as f64,
                constraint: "migration needs two distinct in-range shards",
            });
        }
        self.check_down()?;
        self.senders[from].send(ShardCmd::Extract { max: count });
        let sessions = match self.recv_event()? {
            ShardEvent::Extracted { shard, sessions } if shard == from => sessions,
            _ => return Err(CoreError::FleetWorkerLost { shard: from }),
        };
        let moved = sessions.len();
        for session in sessions {
            // Serialize on the control thread; the destination shard
            // rehydrates from bytes alone.
            let snapshot_bytes = session.snapshot.to_bytes();
            self.senders[to].send(ShardCmd::AdmitMigrated {
                session: Box::new(session),
                snapshot_bytes,
            });
        }
        self.occupancy[from] -= moved.min(self.occupancy[from]);
        self.occupancy[to] += moved;
        if moved > 0 {
            self.migrations.add(moved as u64);
        }
        Ok(moved)
    }

    /// Evens out healthy (non-quarantined) occupancy across shards:
    /// repeatedly moves sessions from the most- to the least-loaded
    /// shard until the spread is ≤ 1. Returns total sessions moved;
    /// wall-clock cost lands in `core.fleet.rebalance_us`.
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn rebalance(&mut self) -> Result<usize, CoreError> {
        let start = Instant::now();
        // Authoritative healthy occupancy from the shards themselves —
        // the control-thread view cannot see quarantines.
        let reports = self.collect_reports(0.0)?;
        let mut healthy: Vec<usize> = reports
            .iter()
            .map(|r| r.sessions - r.sessions_quarantined)
            .collect();
        let mut moved_total = 0;
        loop {
            let (max_i, &max_n) = healthy
                .iter()
                .enumerate()
                .max_by_key(|(_, n)| **n)
                .expect("fleet has at least one shard");
            let (min_i, &min_n) = healthy
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .expect("fleet has at least one shard");
            if max_n.saturating_sub(min_n) <= 1 {
                break;
            }
            let surplus = (max_n - min_n) / 2;
            let moved = self.migrate(max_i, min_i, surplus)?;
            if moved == 0 {
                break;
            }
            healthy[max_i] -= moved;
            healthy[min_i] += moved;
            moved_total += moved;
        }
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.rebalance_us.record(us.max(1));
        Ok(moved_total)
    }

    /// Switches the wire front door to logging mode: every accepted
    /// frame is appended to an in-memory ingest log before dispatch.
    /// Call before the first [`Fleet::wire_push`] — frames decoded
    /// earlier are not retroactively logged.
    pub fn wire_enable_log(&mut self) {
        self.wire_door = FrontDoor::with_log();
    }

    /// The serialized ingest log, when [`Fleet::wire_enable_log`] was
    /// called.
    #[must_use]
    pub fn wire_log_bytes(&self) -> Option<&[u8]> {
        self.wire_door.log_bytes()
    }

    /// Opens a frame-driven wire session on the least-loaded shard,
    /// non-blocking. Returns the shard it landed on. Sessions may also
    /// auto-admit on their first decoded frame via
    /// [`Fleet::wire_push`]; explicit admission exists so callers can
    /// pre-place sessions and observe backpressure deterministically.
    ///
    /// # Errors
    ///
    /// * [`CoreError::FleetBackpressure`] when the target shard's
    ///   mailbox is full.
    pub fn wire_admit(&mut self, session: u32) -> Result<usize, CoreError> {
        if let Some(&shard) = self.wire_routing.get(&session) {
            return Ok(shard);
        }
        let shard = self
            .wire_counts
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.health[*i].down.load(Ordering::SeqCst))
            .min_by_key(|(_, n)| **n)
            .map(|(i, _)| i)
            .unwrap_or(0);
        match self.senders[shard].try_send(ShardCmd::WireAdmit { session }) {
            Ok(()) => {
                self.wire_routing.insert(session, shard);
                self.wire_counts[shard] += 1;
                self.enqueued.inc();
                Ok(shard)
            }
            Err(_) => {
                self.rejected.inc();
                Err(CoreError::FleetBackpressure { shard })
            }
        }
    }

    /// Feeds a chunk of encoded wire bytes through the front door —
    /// decode, optional ingest-log append, per-session reassembly —
    /// and dispatches each reassembled sample run into its owning
    /// shard's mailbox. Unknown sessions auto-admit; when admission is
    /// refused by backpressure the run is shed and counted in
    /// `ingest.dropped`. Sample dispatch to already-admitted sessions
    /// uses the blocking send: a full mailbox delays, never reorders or
    /// drops, so per-session delivery order (and therefore the beat
    /// stream) stays deterministic. Runs bound for a *down* shard are
    /// shed too — losslessly when a durable log is on, because the
    /// frame is already logged and [`Fleet::restart_shard`] replays the
    /// suffix.
    pub fn wire_push(&mut self, chunk: &[u8]) {
        let mut shed: u64 = 0;
        let Self {
            senders,
            health,
            wire_door,
            wire_routing,
            wire_counts,
            wire_outbox,
            ..
        } = self;
        wire_door.push(chunk, |session, ecg, z| {
            dispatch_wire_run(
                senders,
                health,
                wire_routing,
                wire_counts,
                wire_outbox,
                &mut shed,
                session,
                ecg,
                z,
            );
        });
        wire_outbox.flush(senders);
        if shed > 0 {
            self.rejected.add(shed);
            self.wire_door.count_shed(shed);
        }
    }

    /// Decoder and reassembly totals of the wire front door.
    #[must_use]
    pub fn wire_stats(
        &self,
    ) -> (
        cardiotouch_ingest::DecodeStats,
        cardiotouch_ingest::AssemblyStats,
    ) {
        (
            self.wire_door.decode_stats(),
            self.wire_door.assembly_stats(),
        )
    }

    /// Switches the wire front door to **durable** mode: a segmented
    /// (rotating, compactable) ingest log plus an in-memory checkpoint
    /// store, the preconditions for [`Fleet::checkpoint`] and
    /// [`Fleet::restart_shard`] recovery. Call before the first
    /// [`Fleet::wire_push`].
    pub fn wire_enable_durable(&mut self, policy: SegmentPolicy) {
        self.wire_door = FrontDoor::with_segmented_log(policy);
        self.ckpt_store = Some(CheckpointStore::new());
        self.last_watermark = None;
        self.collected.clear();
    }

    /// Seals one fleet-wide checkpoint: snapshots every wire session in
    /// place (a `WireSnapshot` barrier per shard — mailbox FIFO
    /// guarantees each snapshot covers exactly the runs dispatched
    /// before the current log watermark), appends the checkpoint to the
    /// store, compacts the log to the *previous* checkpoint's watermark
    /// (lag-by-one: a crash mid-append falls back one checkpoint, whose
    /// suffix must still be replayable), retires the store entries
    /// older than that checkpoint, and takes ownership of the
    /// beats drained from the shards — they are durably covered now and
    /// will be merged back by [`Fleet::wire_collect`]. Counted in
    /// `core.fleet.checkpoints`; wall-clock in
    /// `core.fleet.checkpoint_us`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::RecoveryFailed`] when durable mode is off;
    /// * [`CoreError::ShardDown`] when a shard is down (restart first);
    /// * [`CoreError::FleetWorkerLost`] on a protocol violation.
    pub fn checkpoint(&mut self) -> Result<LogPosition, CoreError> {
        self.check_down()?;
        let start = Instant::now();
        let watermark = self
            .wire_door
            .log_position()
            .ok_or_else(|| CoreError::RecoveryFailed {
                reason: "checkpointing requires durable mode (wire_enable_durable)".into(),
            })?;
        for tx in &self.senders {
            tx.send(ShardCmd::WireSnapshot);
        }
        let mut snaps: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::WireSnapshotted { sessions, .. } => {
                    for s in sessions {
                        if !s.drained.is_empty() {
                            self.collected
                                .entry(s.session)
                                .or_default()
                                .extend(s.drained);
                        }
                        snaps.insert(s.session, s.snapshot_bytes);
                    }
                }
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let sessions = self
            .wire_door
            .export_sessions()
            .into_iter()
            .map(|(session, resume)| SessionCheckpoint {
                session,
                resume,
                // A session the reassembler knows but no shard owns
                // (admission was shed) restores as a fresh stream.
                snapshot: snaps.remove(&session).unwrap_or_default(),
            })
            .collect();
        let store = self.ckpt_store.get_or_insert_with(CheckpointStore::new);
        store.append(&Checkpoint {
            watermark,
            sessions,
        });
        if let Some(prev) = self.last_watermark {
            if let Some(log) = self.wire_door.segmented_log_mut() {
                let retired = log.compact(&prev);
                if retired > 0 {
                    self.compactions.add(retired as u64);
                }
            }
            store.retire_stale();
        }
        self.last_watermark = Some(watermark);
        if let Some(log) = self.wire_door.segmented_log() {
            self.log_segments.set(log.segment_count() as i64);
        }
        self.checkpoints.inc();
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.checkpoint_us.record(us.max(1));
        Ok(watermark)
    }

    /// Rebuilds a fleet from a recovered checkpoint and the (possibly
    /// crash-cut) segmented log it watermarks: every checkpointed wire
    /// session is restored onto a least-loaded shard from its snapshot
    /// bytes, the reassembler resumes at the watermark, the fleet takes
    /// ownership of the log and the store, and the log suffix past the
    /// watermark is replayed straight from the log through the normal
    /// dispatch path while the shards restore. Combined with the
    /// checkpoint-drained beats the caller persisted, the collected
    /// output is bitwise-equal to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// * [`Fleet::new`]'s construction surface;
    /// * [`CoreError::RecoveryFailed`] naming the session for an
    ///   unusable snapshot, for a watermark below the oldest retained
    ///   segment or a `store` holding no entry at it (both checked
    ///   before any shard starts), or for a suffix
    ///   that fails validation (a watermark chain CRC that does not
    ///   match the log, corruption).
    pub fn recover(
        config: PipelineConfig,
        shards: usize,
        mailbox_capacity: usize,
        store: CheckpointStore,
        checkpoint: &Checkpoint,
        log: SegmentedLog,
    ) -> Result<Self, CoreError> {
        log.check_retained(&checkpoint.watermark)
            .map_err(suffix_replay_failed)?;
        // Restarts and `wire_collect` decode the checkpoint from the
        // store again, so the store must hold it.
        if store.entry_at(&checkpoint.watermark).is_none() {
            return Err(CoreError::RecoveryFailed {
                reason: "the checkpoint store holds no entry at the checkpoint's watermark".into(),
            });
        }
        let mut fleet = Self::new(config, shards, mailbox_capacity)?;
        fleet.wire_door.install_segmented_log(log);
        fleet.ckpt_store = Some(store);
        for sc in &checkpoint.sessions {
            fleet.wire_door.resume_session(sc.session, &sc.resume);
            let shard = fleet
                .wire_counts
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap_or(0);
            fleet.senders[shard].send(ShardCmd::WireRestore {
                session: sc.session,
                snapshot_bytes: sc.snapshot.clone(),
            });
            fleet.wire_routing.insert(sc.session, shard);
            fleet.wire_counts[shard] += 1;
        }
        fleet.last_watermark = Some(checkpoint.watermark);
        // The shards restore in parallel with the replay.
        let mut shed: u64 = 0;
        let Self {
            senders,
            health,
            wire_door,
            wire_routing,
            wire_counts,
            wire_outbox,
            ..
        } = &mut fleet;
        wire_door
            .replay_log(&checkpoint.watermark, |session, ecg, z| {
                dispatch_wire_run(
                    senders,
                    health,
                    wire_routing,
                    wire_counts,
                    wire_outbox,
                    &mut shed,
                    session,
                    ecg,
                    z,
                );
            })
            .map_err(suffix_replay_failed)?;
        wire_outbox.flush(senders);
        if shed > 0 {
            fleet.rejected.add(shed);
            fleet.wire_door.count_shed(shed);
        }
        // The barrier surfaces any session whose snapshot the shards
        // could not restore.
        fleet.quiesce()?;
        Ok(fleet)
    }

    /// The serialized checkpoint store, when durable mode is on — what
    /// a serving binary persists after each [`Fleet::checkpoint`].
    #[must_use]
    pub fn checkpoint_store_bytes(&self) -> Option<&[u8]> {
        self.ckpt_store.as_ref().map(CheckpointStore::as_bytes)
    }

    /// The segmented ingest log, when durable mode is on.
    #[must_use]
    pub fn wire_segmented_log(&self) -> Option<&SegmentedLog> {
        self.wire_door.segmented_log()
    }

    /// Per-session reassembly resume states as the front door holds
    /// them *now* (after [`Fleet::recover`] they already include the
    /// replayed log suffix). A serving binary uses `next_seq` to resume
    /// its device-side encoders at the right sequence after a restart.
    #[must_use]
    pub fn wire_session_resumes(&self) -> Vec<(u32, SessionResume)> {
        self.wire_door.export_sessions()
    }

    /// Overrides the watchdog stall deadline (tests and chaos runs use
    /// short deadlines; production keeps [`DEFAULT_STALL_DEADLINE`]).
    pub fn set_stall_deadline(&mut self, deadline: Duration) {
        self.stall_deadline = deadline;
    }

    /// `true` when the shard has been declared down and not restarted.
    #[must_use]
    pub fn shard_is_down(&self, shard: usize) -> bool {
        self.health
            .get(shard)
            .is_some_and(|h| h.down.load(Ordering::SeqCst))
    }

    /// Chaos switch: makes the shard's worker panic inside its command
    /// loop, exercising the exact unwind path a session bug would. The
    /// panic is asynchronous — it surfaces as [`CoreError::ShardDown`]
    /// from the next collective call.
    pub fn inject_shard_panic(&mut self, shard: usize) {
        if let Some(tx) = self.senders.get(shard) {
            tx.send(ShardCmd::InjectPanic);
        }
    }

    /// Drains every wire session across all shards: accumulated beats
    /// (checkpoint-drained beats merged back in, in emission order),
    /// final snapshot bytes and ladder states, ordered by session id.
    /// Wire sessions are closed afterwards.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShardDown`] when a shard is down (restart first);
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died;
    /// * [`CoreError::RecoveryFailed`] when a session with durably
    ///   collected beats but no shard slot needs the last checkpoint
    ///   and the store holds no decodable entry at its watermark.
    pub fn wire_collect(&mut self) -> Result<Vec<WireSessionResult>, CoreError> {
        self.check_down()?;
        for tx in &self.senders {
            tx.send(ShardCmd::WireCollect);
        }
        let mut all = Vec::new();
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::WireCollected { results, .. } => all.extend(results),
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        // Beats drained at checkpoints precede everything the shard
        // accumulated since — prepend them.
        let mut collected = std::mem::take(&mut self.collected);
        for r in &mut all {
            if let Some(mut pre) = collected.remove(&r.session) {
                pre.append(&mut r.beats);
                r.beats = pre;
            }
        }
        // Leftovers: sessions with durably collected beats but no live
        // shard slot (salvaged from an exchange a crash aborted).
        // Synthesize their result from the last checkpoint's snapshot.
        let last = if collected.is_empty() {
            None
        } else {
            self.sealed_checkpoint()?
        };
        for (session, beats) in collected {
            let snap = last
                .as_ref()
                .and_then(|c| c.sessions.iter().find(|s| s.session == session))
                .map(|s| s.snapshot.as_slice())
                .unwrap_or_default();
            let stream = if snap.is_empty() {
                BeatStream::new(self.config).ok()
            } else {
                BeatStreamSnapshot::from_bytes(snap)
                    .and_then(|s| BeatStream::restore(self.config, &s))
                    .ok()
            };
            let Some(stream) = stream else { continue };
            all.push(WireSessionResult {
                session,
                beats,
                snapshot_bytes: stream.snapshot().into_bytes(),
                states: stream.channel_states(),
            });
        }
        all.sort_by_key(|r| r.session);
        self.wire_routing.clear();
        self.wire_counts.iter_mut().for_each(|n| *n = 0);
        Ok(all)
    }

    /// Shuts every shard down and joins the worker threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful drain: seals a final checkpoint (when durable mode is
    /// on — every beat emitted so far becomes durably covered), drains
    /// every wire session, then shuts the workers down. The returned
    /// results are what [`Fleet::wire_collect`] would have returned.
    ///
    /// # Errors
    ///
    /// Same surface as [`Fleet::checkpoint`] and
    /// [`Fleet::wire_collect`]; on error the fleet is still torn down
    /// (by drop), but the drain is lost.
    pub fn shutdown_graceful(mut self) -> Result<Vec<WireSessionResult>, CoreError> {
        if self.ckpt_store.is_some() {
            self.checkpoint()?;
        }
        let results = self.wire_collect()?;
        self.shutdown_inner();
        Ok(results)
    }

    fn shutdown_inner(&mut self) {
        for tx in self.senders.drain(..) {
            // Non-blocking: if the mailbox is full the drop below
            // closes it, and the worker exits after draining the
            // backlog — either way it terminates.
            let _ = tx.try_send(ShardCmd::Shutdown);
        }
        for (shard, handle) in self.handles.drain(..).enumerate() {
            // A wedged worker (declared down but never unwound) would
            // hang this join forever; its mailbox is closed, so it
            // exits on its own if it ever wakes. Detach it instead.
            let down = self
                .health
                .get(shard)
                .is_some_and(|h| h.down.load(Ordering::SeqCst));
            if down && !handle.is_finished() {
                continue;
            }
            let _ = handle.join();
        }
    }

    /// Waits for one shard event, doubling as the watchdog: while
    /// waiting it folds in panic notifications ([`ShardEvent::Down`])
    /// and declares a shard down when its heartbeat freezes past the
    /// stall deadline — so a wedged worker surfaces as
    /// [`CoreError::ShardDown`] instead of hanging the control thread.
    fn recv_event(&mut self) -> Result<ShardEvent, CoreError> {
        loop {
            match self.events.recv_timeout(WATCHDOG_TICK) {
                Ok(ShardEvent::Down { shard, epoch }) => {
                    if epoch == self.epochs[shard] {
                        self.health[shard].down.store(true, Ordering::SeqCst);
                        return Err(CoreError::ShardDown { shard });
                    }
                    // Stale: a replaced incarnation's death notice.
                }
                Ok(ev) => return Ok(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(shard) = self.watchdog_sweep() {
                        return Err(CoreError::ShardDown { shard });
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(CoreError::FleetWorkerLost { shard: 0 });
                }
            }
        }
    }

    /// One watchdog pass over per-shard heartbeats; returns a shard
    /// newly declared down — stalled past the deadline, or exited
    /// without posting a Down event.
    fn watchdog_sweep(&mut self) -> Option<usize> {
        let now = Instant::now();
        for shard in 0..self.health.len() {
            if self.health[shard].down.load(Ordering::SeqCst) {
                continue;
            }
            let hb = self.health[shard].heartbeat.load(Ordering::Relaxed);
            if hb != self.hb_seen[shard].0 {
                self.hb_seen[shard] = (hb, now);
                continue;
            }
            let stalled = now.duration_since(self.hb_seen[shard].1) > self.stall_deadline;
            if stalled || self.handles[shard].is_finished() {
                self.health[shard].down.store(true, Ordering::SeqCst);
                return Some(shard);
            }
        }
        None
    }

    /// Refuses a collective exchange while any shard is down: it would
    /// hang on the missing reply. The caller restarts the shard first.
    fn check_down(&self) -> Result<(), CoreError> {
        match self
            .health
            .iter()
            .position(|h| h.down.load(Ordering::SeqCst))
        {
            Some(shard) => Err(CoreError::ShardDown { shard }),
            None => Ok(()),
        }
    }

    /// Re-synchronizes the solicited protocol after an aborted
    /// exchange: a `Sync` barrier to every live shard, discarding
    /// everything queued ahead of each echo (replies to requests the
    /// crash abandoned). A session restore that failed ahead of the
    /// echo fails the barrier with [`CoreError::RecoveryFailed`] once
    /// every echo is in.
    fn quiesce(&mut self) -> Result<(), CoreError> {
        self.sync_token += 1;
        let token = self.sync_token;
        let live: Vec<usize> = (0..self.shards())
            .filter(|&i| !self.health[i].down.load(Ordering::SeqCst))
            .collect();
        for &i in &live {
            self.senders[i].send(ShardCmd::Sync { token });
        }
        let mut pending = vec![false; self.shards()];
        for &i in &live {
            pending[i] = true;
        }
        let mut remaining = live.len();
        let mut failed = None;
        while remaining > 0 {
            match self.recv_event()? {
                ShardEvent::Synced { shard, token: t } if t == token && pending[shard] => {
                    pending[shard] = false;
                    remaining -= 1;
                }
                ShardEvent::WireRestoreFailed { reason } => {
                    failed.get_or_insert(reason);
                }
                // Stale replies to an exchange the crash abandoned.
                // Beats inside them are real emissions — salvage them
                // into `collected` instead of dropping them.
                ShardEvent::WireSnapshotted { sessions, .. } => {
                    for s in sessions {
                        if !s.drained.is_empty() {
                            self.collected
                                .entry(s.session)
                                .or_default()
                                .extend(s.drained);
                        }
                    }
                }
                ShardEvent::WireCollected { results } => {
                    for r in results {
                        if !r.beats.is_empty() {
                            self.collected.entry(r.session).or_default().extend(r.beats);
                        }
                    }
                }
                _ => {}
            }
        }
        match failed {
            Some(reason) => Err(CoreError::RecoveryFailed { reason }),
            None => Ok(()),
        }
    }

    /// Replaces a down shard's worker with a fresh incarnation and
    /// restores its wire sessions from the last sealed checkpoint plus
    /// an ingest-log suffix replay — bitwise-equal to a shard that
    /// never died. Scheduler-slab sessions are not durable and do not
    /// survive the restart (their feeds live on the caller's side).
    /// Counted in `core.fleet.restarts`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an out-of-range shard;
    /// * [`CoreError::ShardDown`] if *another* shard went down while
    ///   re-synchronizing (restart that one too, then retry);
    /// * [`CoreError::RecoveryFailed`] when the log suffix below the
    ///   checkpoint watermark is gone (over-compacted), or naming the
    ///   session whose checkpointed snapshot does not restore.
    pub fn restart_shard(&mut self, shard: usize) -> Result<(), CoreError> {
        if shard >= self.shards() {
            return Err(CoreError::InvalidParameter {
                name: "shard",
                value: shard as f64,
                constraint: "restart needs an in-range shard",
            });
        }
        let (tx, rx) = mailbox(self.mailbox_capacity);
        let hp = ShardHealth::new();
        self.epochs[shard] += 1;
        let handle = spawn_shard(
            shard,
            self.epochs[shard],
            self.config,
            rx,
            self.event_tx.clone(),
            Arc::clone(&hp),
            Arc::clone(&self.wire_outbox.free[shard]),
        );
        // Replacing the sender drops the old one, closing the old
        // mailbox: a merely-wedged (not unwound) old worker exits on
        // its own if it ever wakes up.
        self.senders[shard] = tx;
        let old = std::mem::replace(&mut self.handles[shard], handle);
        if old.is_finished() {
            let _ = old.join();
        }
        // else: detach the wedged thread — joining it would hang the
        // control thread on exactly the stall we are recovering from.
        self.health[shard] = hp;
        self.hb_seen[shard] = (0, Instant::now());
        self.occupancy[shard] = 0;
        self.restarts.inc();
        self.quiesce()?;
        self.restore_wire_sessions(shard)?;
        self.quiesce()
    }

    /// The last sealed (or recovered) checkpoint, decoded from the
    /// store entry at its watermark; `None` before the first checkpoint.
    ///
    /// # Errors
    ///
    /// [`CoreError::RecoveryFailed`] when the store holds no decodable
    /// entry at the last watermark.
    fn sealed_checkpoint(&self) -> Result<Option<Checkpoint>, CoreError> {
        let Some(watermark) = self.last_watermark else {
            return Ok(None);
        };
        self.ckpt_store
            .as_ref()
            .and_then(|store| store.entry_at(&watermark))
            .and_then(decode_checkpoint)
            .map(Some)
            .ok_or_else(|| CoreError::RecoveryFailed {
                reason: "the checkpoint store holds no entry at the last watermark".into(),
            })
    }

    /// Re-creates the restarted shard's wire sessions: engine snapshots
    /// from the last checkpoint (fresh streams for sessions younger than
    /// it), then the sample runs the shard saw after the watermark,
    /// re-derived by replaying the log suffix through a scratch
    /// reassembler resumed at the checkpoint — filtered to the shard's
    /// own sessions so its peers see nothing.
    fn restore_wire_sessions(&mut self, shard: usize) -> Result<(), CoreError> {
        let owned: std::collections::BTreeSet<u32> = self
            .wire_routing
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&id, _)| id)
            .collect();
        self.wire_counts[shard] = owned.len();
        if owned.is_empty() {
            return Ok(());
        }
        let mut last = self.sealed_checkpoint()?;
        let mut asm = Assembler::new();
        for &session in &owned {
            let sc = last
                .as_mut()
                .and_then(|c| c.sessions.iter_mut().find(|s| s.session == session));
            if let Some(sc) = &sc {
                asm.resume_session(session, &sc.resume);
            }
            self.senders[shard].send(ShardCmd::WireRestore {
                session,
                snapshot_bytes: sc
                    .map(|s| std::mem::take(&mut s.snapshot))
                    .unwrap_or_default(),
            });
        }
        let Some(log) = self.wire_door.segmented_log() else {
            return Ok(());
        };
        let from = last.map_or_else(|| log.start_position(), |c| c.watermark);
        // Runs travel in batches, in log order, like the live path.
        let (senders, outbox) = (&self.senders, &mut self.wire_outbox);
        let replayed = log.replay_from(&from, |frame| {
            if let Ok((view, _)) = FrameView::parse(frame) {
                if owned.contains(&view.session()) {
                    asm.accept(&view, |session, ecg, z| {
                        outbox.append(senders, shard, session, ecg, z);
                    });
                }
            }
        });
        outbox.send(senders, shard);
        replayed.map(drop).map_err(suffix_replay_failed)
    }

    fn collect_reports(&mut self, elapsed_s: f64) -> Result<Vec<ScheduleReport>, CoreError> {
        self.check_down()?;
        for tx in &self.senders {
            tx.send(ShardCmd::Report { elapsed_s });
        }
        let mut reports: Vec<Option<ScheduleReport>> = vec![None; self.senders.len()];
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::Report { shard, report } => reports[shard] = Some(*report),
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let reports: Vec<ScheduleReport> = reports.into_iter().flatten().collect();
        // Reconcile the placement heuristic with shard truth.
        for (occ, r) in self.occupancy.iter_mut().zip(&reports) {
            *occ = r.sessions;
        }
        Ok(reports)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    type Channels = (Arc<Vec<f64>>, Arc<Vec<f64>>);

    fn templates() -> Channels {
        static CACHE: std::sync::OnceLock<Channels> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| {
                let population = Population::reference_five();
                let rec = PairedRecording::generate(
                    &population.subjects()[0],
                    Position::One,
                    50_000.0,
                    &Protocol::paper_default(),
                    11,
                )
                .unwrap();
                (
                    Arc::new(rec.device_ecg().to_vec()),
                    Arc::new(rec.device_z().to_vec()),
                )
            })
            .clone()
    }

    fn feed(offset: usize) -> SessionFeed {
        let (ecg, z) = templates();
        SessionFeed::clean(ecg, z, offset)
    }

    #[test]
    fn mailbox_bounds_and_drains() {
        let (tx, rx) = mailbox::<u32>(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert_eq!(tx.try_send(3), Err(3));
        assert_eq!(rx.recv(), Some(1));
        assert!(tx.try_send(3).is_ok());
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn fleet_matches_single_scheduler_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let f = feed(0);

        // Reference: one inline scheduler, 6 ticks.
        let mut single = SessionScheduler::new(config, vec![f.clone()]).unwrap();
        for _ in 0..6 {
            single.tick_inline().unwrap();
        }
        let want = single.report(1.0);

        // Fleet of 2: the session lands on exactly one shard.
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        fleet.admit(f).unwrap();
        let report = fleet.run(6).unwrap();
        assert_eq!(report.sessions(), 1);
        assert_eq!(report.beats(), want.beats);
        assert_eq!(report.ticks, 6);
        fleet.shutdown();
    }

    #[test]
    fn migration_mid_run_is_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let f = feed(0);

        let mut reference = SessionScheduler::new(config, vec![f.clone()]).unwrap();
        for _ in 0..10 {
            reference.tick_inline().unwrap();
        }
        let want = reference.report(1.0);

        // Single shard first so we know where the session lives, then
        // migrate it to shard 1 halfway through.
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        let shard = fleet.admit(f).unwrap();
        let other = 1 - shard;
        fleet.run(5).unwrap();
        assert_eq!(fleet.migrate(shard, other, 1).unwrap(), 1);
        let report = fleet.run(5).unwrap();
        assert_eq!(report.shards[other].sessions, 1);
        assert_eq!(report.shards[shard].sessions, 0);
        assert_eq!(report.beats(), want.beats);
        fleet.shutdown();
    }

    #[test]
    fn admission_backpressure_rejects_when_full() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 1, 1).unwrap();
        fleet.admit(feed(0)).unwrap();
        // Park the worker: a long Run keeps it inside the tick loop for
        // many milliseconds (feeds wrap, so every tick does real DSP
        // work), and until the worker pops it the command itself holds
        // the capacity-1 mailbox's only slot. Either way the burst
        // below cannot be drained, so a rejection is deterministic —
        // the old racy version lost to the drain loop on idle machines.
        fleet.senders[0].send(ShardCmd::Run { ticks: 3000 });
        let mut rejected = false;
        for i in 0..4 {
            match fleet.admit(feed(i * 131)) {
                Ok(_) => {}
                Err(CoreError::FleetBackpressure { shard }) => {
                    assert_eq!(shard, 0);
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected, "capacity-1 mailbox never pushed back");
        // Collect the solicited RunDone so the request/reply protocol
        // stays balanced before shutdown.
        match fleet.recv_event().unwrap() {
            ShardEvent::RunDone => {}
            _ => panic!("expected RunDone from the parked worker"),
        }
        fleet.shutdown();
    }

    #[test]
    fn rebalance_levels_occupancy() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 2, 32).unwrap();
        let shard = fleet.admit(feed(0)).unwrap();
        // Force-skew: put three more sessions on the same shard by
        // migrating everything onto it first.
        for i in 1..4 {
            fleet.admit(feed(i * 977)).unwrap();
        }
        fleet.run(1).unwrap();
        let other = 1 - shard;
        // Pile all sessions onto one shard.
        fleet.migrate(other, shard, 4).unwrap();
        let reports = fleet.reports(1.0).unwrap();
        assert_eq!(reports[shard].sessions, 4);
        assert_eq!(reports[other].sessions, 0);
        // Rebalance splits them 2/2.
        let moved = fleet.rebalance().unwrap();
        assert_eq!(moved, 2);
        let reports = fleet.reports(1.0).unwrap();
        assert_eq!(reports[shard].sessions, 2);
        assert_eq!(reports[other].sessions, 2);
        fleet.shutdown();
    }

    #[test]
    fn fleet_wire_path_matches_wire_hub_bitwise() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 5u32;
        let seconds = 8;

        // One interleaved wire stream per simulated second, like
        // serve-sim --wire produces.
        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        // Reference: the single-threaded hub.
        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // Fleet of 2 shards over the identical byte stream.
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        for s in 0..sessions {
            fleet.wire_admit(s).unwrap();
        }
        for buf in &per_second {
            fleet.wire_push(buf);
        }
        let (dec, asm) = fleet.wire_stats();
        assert_eq!(dec.frames, u64::from(sessions) * (seconds as u64) * 2);
        assert_eq!(asm.dropped, 0);
        let got = fleet.wire_collect().unwrap();
        fleet.shutdown();

        assert_eq!(got.len(), want.len());
        let total: usize = got.iter().map(|r| r.beats.len()).sum();
        assert!(total > 0, "wire sessions should emit beats");
        for (a, b) in got.iter().zip(&want) {
            assert!(
                a.bitwise_eq(b),
                "session {} diverged between fleet and hub",
                a.session
            );
        }
    }

    #[test]
    fn batched_wire_transport_matches_wire_hub_bitwise() {
        use cardiotouch_ingest::{LossyWire, SessionEncoder};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 64u32;
        let seconds = 10;
        // One-slot mailboxes: every full batch meets the blocking send.
        let capacity = 1;
        let policy = SegmentPolicy {
            max_bytes: 256 * 1024,
            max_frames: 256,
        };
        let admit = |fleet: &mut Fleet, session| {
            while fleet.wire_admit(session).is_err() {
                std::thread::yield_now();
            }
        };
        // Recycling, checked after a barrier: every batch is back on its
        // shard's free list, and a shard never holds more batches than
        // can be in flight at once (pending, queued and in its hands),
        // however many runs travelled.
        let recycled = |fleet: &Fleet| {
            for (shard, free) in fleet.wire_outbox.free.iter().enumerate() {
                let n = free.lock().unwrap().len();
                assert!(
                    (1..=capacity + 2).contains(&n),
                    "shard {shard} of {}: {n} batches on its free list",
                    fleet.shards()
                );
            }
        };
        for shards in 1..=4usize {
            let mut rng = StdRng::seed_from_u64(shards as u64);
            // One second of interleaved frames per buffer, through a
            // lossy link so gap-filled runs travel too.
            let mut link = LossyWire::new(shards as u64, 0.02, 0.02);
            let mut encoders: Vec<SessionEncoder> =
                (0..sessions).map(SessionEncoder::new).collect();
            let mut frame = Vec::new();
            let mut per_second: Vec<Vec<u8>> = Vec::new();
            for s in 0..seconds {
                let mut buf = Vec::new();
                for c in 0..(250 / frame_len) {
                    for (i, enc) in encoders.iter_mut().enumerate() {
                        let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                        frame.clear();
                        enc.push_frame(
                            &ecg[off..off + frame_len],
                            &z[off..off + frame_len],
                            &mut frame,
                        )
                        .unwrap();
                        link.transmit(&frame, &mut buf);
                    }
                }
                per_second.push(buf);
            }
            assert!(link.dropped() > 0, "the link should lose frames");
            // Each second reaches the fleet in pieces cut at random
            // points, mid-frame included.
            let pieces: Vec<Vec<&[u8]>> = per_second
                .iter()
                .map(|buf| {
                    let mut cuts: Vec<usize> = (0..rng.gen::<u64>() % 4)
                        .map(|_| (rng.gen::<u64>() % (buf.len() as u64 + 1)) as usize)
                        .collect();
                    cuts.extend([0, buf.len()]);
                    cuts.sort_unstable();
                    cuts.windows(2).map(|w| &buf[w[0]..w[1]]).collect()
                })
                .collect();

            let mut hub = crate::wire::WireHub::new(config).unwrap();
            for buf in &per_second {
                hub.push(buf).unwrap();
            }
            let want = hub.finish();
            assert_eq!(want.len(), sessions as usize);

            // First incarnation: checkpoint, a shard crash and restart
            // after the first piece of a second (mid-second when it was
            // cut), a second checkpoint, one more second, then the
            // process dies.
            let crashed = shards - 1;
            let mut first = Fleet::new(config, shards, capacity).unwrap();
            first.wire_enable_durable(policy);
            for s in 0..sessions {
                admit(&mut first, s);
            }
            let mut covered = BTreeMap::new();
            for (sec, second) in pieces[..7].iter().enumerate() {
                for (k, piece) in second.iter().enumerate() {
                    first.wire_push(piece);
                    if sec == 4 && k == 0 {
                        first.inject_shard_panic(crashed);
                        assert!(matches!(
                            first.checkpoint(),
                            Err(CoreError::ShardDown { shard }) if shard == crashed
                        ));
                        first.restart_shard(crashed).unwrap();
                    }
                }
                if sec == 2 || sec == 5 {
                    first.checkpoint().unwrap();
                    covered = first
                        .collected
                        .iter()
                        .map(|(&s, beats)| (s, beats.len()))
                        .collect();
                }
            }
            assert!(
                covered.values().sum::<usize>() > 0,
                "checkpoints drained no beats"
            );
            let store_bytes = first.checkpoint_store_bytes().unwrap().to_vec();
            let log = first.wire_segmented_log().unwrap().clone();
            for r in first.wire_collect().unwrap() {
                let w = &want[r.session as usize];
                let prefix = WireSessionResult {
                    beats: w.beats[..r.beats.len()].to_vec(),
                    ..r.clone()
                };
                assert!(
                    r.bitwise_eq(&prefix),
                    "session {} before the crash",
                    r.session
                );
            }
            recycled(&first);
            drop(first);

            // Cold start on a different shard count: the replay of the
            // second past the checkpoint travels in batches too.
            let recovered = cardiotouch_ingest::recover_latest(&store_bytes)
                .unwrap()
                .expect("sealed checkpoint must recover");
            let (store, _) = CheckpointStore::from_valid_prefix(&store_bytes).unwrap();
            let mut second = Fleet::recover(
                config,
                5 - shards,
                capacity,
                store,
                &recovered.checkpoint,
                log,
            )
            .unwrap();
            for piece in pieces[7..].iter().flatten() {
                second.wire_push(piece);
            }
            second.reports(0.0).unwrap();
            recycled(&second);
            let tail = second.shutdown_graceful().unwrap();

            assert_eq!(tail.len(), want.len());
            for (t, w) in tail.iter().zip(&want) {
                let n = covered.get(&t.session).copied().unwrap_or(0);
                let mut beats = w.beats[..n].to_vec();
                beats.extend(t.beats.iter().cloned());
                let merged = WireSessionResult { beats, ..t.clone() };
                assert!(
                    merged.bitwise_eq(w),
                    "{shards} shards: session {} diverged from the hub",
                    t.session
                );
            }
        }
    }

    #[test]
    fn panicked_shard_surfaces_shard_down_not_a_hang() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        fleet.admit(feed(0)).unwrap();
        fleet.inject_shard_panic(0);
        // The panic is asynchronous, but FIFO puts it ahead of the Run
        // below: shard 0 never replies, so the collective call must
        // fail with ShardDown — never hang, never unwind into us.
        let err = fleet.run(1).unwrap_err();
        assert!(
            matches!(err, CoreError::ShardDown { shard: 0 }),
            "got {err}"
        );
        assert!(fleet.shard_is_down(0));
        assert!(!fleet.shard_is_down(1));
        // Collective calls keep refusing (not hanging) until restart.
        assert!(matches!(
            fleet.reports(1.0),
            Err(CoreError::ShardDown { shard: 0 })
        ));
        // A restarted shard rejoins the protocol cleanly even though
        // the aborted exchange left stale replies queued.
        fleet.restart_shard(0).unwrap();
        assert!(!fleet.shard_is_down(0));
        let report = fleet.run(1).unwrap();
        assert_eq!(report.shards.len(), 2);
        fleet.shutdown();
    }

    #[test]
    fn durable_fleet_survives_shard_crash_bitwise() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 4u32;
        let seconds = 8;

        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        // Reference: the single-threaded hub over the same bytes.
        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // Durable fleet: checkpoint, crash a shard mid-run, restart it
        // from checkpoint + suffix replay, keep serving.
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        fleet.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        for s in 0..sessions {
            fleet.wire_admit(s).unwrap();
        }
        for (i, buf) in per_second.iter().enumerate() {
            fleet.wire_push(buf);
            if i == 2 {
                fleet.checkpoint().unwrap();
            }
            if i == 4 {
                fleet.inject_shard_panic(0);
                // FIFO puts the panic ahead of the snapshot request, so
                // this checkpoint aborts with ShardDown (no partial
                // append — the store only grows on a complete exchange).
                let err = fleet.checkpoint().unwrap_err();
                assert!(
                    matches!(err, CoreError::ShardDown { shard: 0 }),
                    "got {err}"
                );
                fleet.restart_shard(0).unwrap();
                fleet.checkpoint().unwrap();
            }
        }
        assert!(
            fleet.wire_segmented_log().unwrap().retired() > 0,
            "checkpoints should have compacted the log"
        );
        let got = fleet.shutdown_graceful().unwrap();

        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!(
                a.bitwise_eq(b),
                "session {} diverged after crash recovery",
                a.session
            );
        }
    }

    #[test]
    fn fleet_recover_from_store_and_log_matches_reference() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 3u32;
        let seconds = 8;

        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // First incarnation: durable run, checkpoint midway, then the
        // whole process "dies" — all that survives is the store bytes,
        // the log, and the beats drained at the checkpoint.
        let mut first = Fleet::new(config, 2, 64).unwrap();
        first.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        let split = 5;
        for buf in &per_second[..split] {
            first.wire_push(buf);
        }
        first.checkpoint().unwrap();
        let store_bytes = first.checkpoint_store_bytes().unwrap().to_vec();
        let log = first.wire_segmented_log().unwrap().clone();
        let checkpoint_results = first.wire_collect().unwrap();
        drop(first);

        // Cold start from the persisted state; replay re-emits nothing
        // (the checkpoint watermark is the log end), then serving
        // continues where the dead process stopped.
        let recovered = cardiotouch_ingest::recover_latest(&store_bytes)
            .unwrap()
            .expect("sealed checkpoint must recover");
        let (store, _) = CheckpointStore::from_valid_prefix(&store_bytes).unwrap();
        let mut second = Fleet::recover(config, 2, 64, store, &recovered.checkpoint, log).unwrap();
        for buf in &per_second[split..] {
            second.wire_push(buf);
        }
        let tail_results = second.shutdown_graceful().unwrap();

        // Checkpoint-covered beats + recovered-run beats must equal the
        // uninterrupted reference bitwise.
        assert_eq!(tail_results.len(), want.len());
        for (tail, w) in tail_results.iter().zip(&want) {
            let mut beats = checkpoint_results
                .iter()
                .find(|r| r.session == tail.session)
                .map(|r| r.beats.clone())
                .unwrap_or_default();
            beats.extend(tail.beats.iter().cloned());
            let merged = WireSessionResult {
                session: tail.session,
                beats,
                snapshot_bytes: tail.snapshot_bytes.clone(),
                states: tail.states,
            };
            assert!(
                merged.bitwise_eq(w),
                "session {} diverged across process restart",
                tail.session
            );
        }
    }

    #[test]
    fn restart_refuses_an_unusable_checkpointed_snapshot() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let mut encoders: Vec<SessionEncoder> = (0..4).map(SessionEncoder::new).collect();
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        fleet.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        for s in 0..4 {
            fleet.wire_admit(s).unwrap();
        }
        for s in 0..3 {
            let mut buf = Vec::new();
            for (i, enc) in encoders.iter_mut().enumerate() {
                let off = i * 977 + s * 250;
                enc.push_frame(&ecg[off..off + 250], &z[off..off + 250], &mut buf)
                    .unwrap();
            }
            fleet.wire_push(&buf);
        }
        fleet.checkpoint().unwrap();
        // Only a forged store entry reaches this path: every sealed or
        // recovered checkpoint has restored once already. The forgery
        // is CRC-valid and sits at the last watermark, with the
        // victim's snapshot cut in half.
        let victim = *fleet
            .wire_routing
            .iter()
            .find(|&(_, &shard)| shard == 0)
            .expect("shard 0 owns a session")
            .0;
        let store = fleet.ckpt_store.as_mut().unwrap();
        let mut forged = cardiotouch_ingest::recover_latest(store.as_bytes())
            .unwrap()
            .unwrap()
            .checkpoint;
        let entry = forged
            .sessions
            .iter_mut()
            .find(|s| s.session == victim)
            .unwrap();
        entry.snapshot.truncate(entry.snapshot.len() / 2);
        store.append(&forged);
        fleet.inject_shard_panic(0);
        assert!(matches!(
            fleet.checkpoint(),
            Err(CoreError::ShardDown { shard: 0 })
        ));
        match fleet.restart_shard(0) {
            Err(CoreError::RecoveryFailed { reason }) => {
                assert!(reason.contains(&format!("session {victim} ")), "{reason}");
            }
            other => panic!("expected RecoveryFailed, got {other:?}"),
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let config = PipelineConfig::paper_default(250.0);
        assert!(matches!(
            Fleet::new(config, 0, 8),
            Err(CoreError::InvalidParameter { name: "shards", .. })
        ));
    }

    #[test]
    fn recover_refuses_a_retired_or_mismatched_watermark() {
        use crate::wire::WireHub;
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let policy = SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 4,
        };
        // Segments 5.. are retained; 0..5 were compacted away.
        let mut log = SegmentedLog::with_base(policy, 5);
        let mut enc = SessionEncoder::new(0);
        let mut mark = None;
        for i in 0..12 {
            if i == 6 {
                mark = Some(log.position());
            }
            let mut frame = Vec::new();
            let off = i * 125;
            enc.push_frame(&ecg[off..off + 125], &z[off..off + 125], &mut frame)
                .unwrap();
            log.append(&frame);
        }
        let mark = mark.unwrap();
        let retired = LogPosition {
            segment: 2,
            ..log.start_position()
        };
        let mismatched = LogPosition {
            chain: mark.chain ^ 1,
            ..mark
        };
        for (watermark, want) in [
            (retired, "segment 2 was compacted away"),
            (mismatched, "chain CRC mismatch"),
        ] {
            let checkpoint = Checkpoint {
                watermark,
                sessions: Vec::new(),
            };
            let mut store = CheckpointStore::new();
            store.append(&checkpoint);
            let fleet = Fleet::recover(config, 2, 64, store, &checkpoint, log.clone());
            let hub = WireHub::recover(config, &checkpoint, log.clone());
            for err in [fleet.err(), hub.err()] {
                assert!(
                    matches!(&err, Some(CoreError::RecoveryFailed { reason }) if reason.contains(want)),
                    "{watermark:?}: {err:?}"
                );
            }
        }
        // A store that does not hold the checkpoint is refused as well:
        // a restart would decode the checkpoint from it.
        let checkpoint = Checkpoint {
            watermark: mark,
            sessions: Vec::new(),
        };
        let mut store = CheckpointStore::new();
        store.append(&Checkpoint {
            watermark: log.start_position(),
            sessions: Vec::new(),
        });
        let err = Fleet::recover(config, 2, 64, store, &checkpoint, log).err();
        assert!(
            matches!(&err, Some(CoreError::RecoveryFailed { reason }) if reason.contains("holds no entry")),
            "{err:?}"
        );
    }
}

//! The sharded parallel kernel: K shard event loops under one
//! coordinator.
//!
//! [`ShardedKernel`] partitions [`Topology`] nodes into K shards (see
//! [`ShardMap`]) and runs each shard's event loop either inline (serial,
//! [`ExecMode::Inline`]) or on its own persistent worker thread
//! ([`ExecMode::Threads`]). Shards interact only through mailboxes the
//! coordinator exchanges at *epoch barriers*.
//!
//! ## Barrier protocol
//!
//! Time advances in *windows* `[tq, tq + la)`, where `tq` is the earliest
//! pending event anywhere and the lookahead `la` is the minimum latency
//! over cross-shard links ([`ShardMap::lookahead`]). An event at time
//! `t ≥ tq` that sends across shards produces an arrival no earlier than
//! `t + la ≥ tq + la`, so a window needs no mid-window exchange. Windows
//! are clipped by the next sync point and the run limit.
//!
//! Each shard runs the window over its own queue and leaves cross-shard
//! deliveries in per-destination SoA outbox batches. At the barrier the
//! coordinator, which locks every core anyway for the K-way merge of the
//! fired runs, the metric flush and the clock advance, moves whole
//! outbox batches into the destination core's inbox. The destination
//! drains its inbox into its queue at the start of its next window, so
//! everything a shard sees during a window was fixed at the preceding
//! barrier, independently of thread timing.
//!
//! ## Determinism
//!
//! Every caller command is stamped with a globally unique
//! [`EventKey`] at issue time and derived events inherit it, so
//! `(time, key)` totally orders every occurrence independently of K.
//! Per-shard windows emit occurrences already `(time, key)`-sorted (the
//! shard queue pops in that order), and windows are disjoint in time, so
//! the barrier merge — a K-way merge of the per-shard runs — reconstructs
//! the same global order at any shard count. *Sync points* (faults,
//! block/unblock/close/rebind, which touch shared state) are executed
//! sequentially by the coordinator, interleaved with same-instant shard
//! events in key order, which again is K-independent. The differential
//! harness in `tests/shard_determinism.rs` checks all of this byte for
//! byte against K=1.

use crate::channel::{ChannelId, ChannelStats};
use crate::fault::{FaultKind, FaultSchedule};
use crate::hier::HierStats;
use crate::kernel::{Kernel, KernelCounter};
use crate::link::LinkId;
use crate::network::{RouteCacheStats, Topology};
use crate::node::NodeId;
use crate::shard::{
    CacheAligned, DeliverBatch, DeliverSide, Entry, EventKey, MergedEvent, SendSide, ShardCore,
    ShardEvent, ShardFired, ShardId, ShardMap,
};
use crate::stats::Counters;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How shard windows are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Windows run serially on the caller's thread (still shard-by-shard,
    /// still through the barrier protocol — useful for deterministic
    /// debugging and for modeled-speedup measurements on small hosts).
    Inline,
    /// Each shard runs on its own persistent worker thread; the caller
    /// blocks at barriers.
    Threads,
}

/// Shared state between the coordinator and the workers.
struct Shared<M> {
    /// Topology + shard map; workers take read locks for the duration of
    /// a window, the coordinator takes a write lock for sync steps.
    world: RwLock<World>,
    /// One core per shard. Workers lock only their own; the coordinator
    /// locks them between windows (never while a window runs). Each core
    /// sits on its own cache line: the hot per-shard fields (queue head,
    /// outbox lengths, busy counter) are written at high rate by their
    /// owning worker, and sharing a line with a neighbor would turn every
    /// bump into cross-core traffic.
    shards: Vec<CacheAligned<Mutex<ShardCore<M>>>>,
    barrier: BarrierCtl,
}

struct World {
    topo: Topology,
    map: ShardMap,
}

/// The spin-then-park window handshake: one atomic epoch bump publishes
/// a window, one atomic add per worker reports completion, and everyone
/// spins briefly before parking — the fast path makes no syscall at all.
///
/// Every hot atomic lives on its own cache line (asserted by a unit
/// test): `epoch` is written by the coordinator and spun on by K workers,
/// `done` is contended by workers finishing.
struct BarrierCtl {
    /// Bumped once per window; workers run exactly one window per bump.
    /// The bump `Release`-publishes `end`.
    epoch: CacheAligned<AtomicU64>,
    /// Workers done with the current window.
    done: CacheAligned<AtomicU32>,
    /// Current window end, raw micros; written by the coordinator before
    /// the epoch bump that publishes it.
    end: CacheAligned<AtomicU64>,
    shutdown: AtomicBool,
    /// Per-worker "I am parked" flags (Dekker pairing with the epoch
    /// bump: a worker publishes the flag, then re-checks the epoch; the
    /// coordinator bumps the epoch, then checks the flags).
    parked: Vec<CacheAligned<AtomicBool>>,
    /// The coordinator thread currently blocked in `run_until`, for the
    /// last-done worker to unpark. Registered once per `run_until` call.
    coord: Mutex<Option<std::thread::Thread>>,
}

impl BarrierCtl {
    fn new(shards: u32) -> Self {
        BarrierCtl {
            epoch: CacheAligned(AtomicU64::new(0)),
            done: CacheAligned(AtomicU32::new(0)),
            end: CacheAligned(AtomicU64::new(0)),
            shutdown: AtomicBool::new(false),
            parked: (0..shards)
                .map(|_| CacheAligned(AtomicBool::new(false)))
                .collect(),
            coord: Mutex::new(None),
        }
    }
}

/// A pending synchronization command (executes at the coordinator, in
/// `(time, cmd)` order, sequentially).
#[derive(Debug)]
enum SyncCmd {
    Fault(FaultKind),
    Block(ChannelId),
    Unblock(ChannelId),
    Close(ChannelId),
    Rebind(ChannelId, NodeId, NodeId),
}

#[derive(Debug)]
struct SyncEntry {
    at: SimTime,
    cmd: u64,
    what: SyncCmd,
}

impl PartialEq for SyncEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.cmd == other.cmd
    }
}
impl Eq for SyncEntry {}
impl PartialOrd for SyncEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SyncEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest (at, cmd).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.cmd.cmp(&self.cmd))
    }
}

/// Execution statistics of a [`ShardedKernel`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedStats {
    /// Windows executed — one coordinator barrier (exchange, serial
    /// merge, metric flush) each.
    pub windows: u64,
    /// Sequential sync steps executed.
    pub sync_steps: u64,
    /// Cross-shard entries exchanged at barriers.
    pub exchanged: u64,
    /// Whole-batch exchange operations. The SoA exchange moves buffers,
    /// not entries: `exchanged / exchange_ops` entries ride each O(1)
    /// buffer move.
    pub exchange_ops: u64,
    /// Entries that would have arrived *inside* the window that produced
    /// them — a violation of the lookahead rule. Must stay zero.
    pub early_crossings: u64,
    /// Events a shard popped at or past its window end — a violation of
    /// the safe-time rule. Must stay zero.
    pub overrun_events: u64,
    /// Total events processed across all shards.
    pub events: u64,
    /// Modeled critical-path nanoseconds: per window, the *maximum* shard
    /// busy time (the window's span on an ideal K-core host), summed.
    pub critical_ns: u64,
    /// Coordinator-serial nanoseconds (barriers, merges, sync steps) —
    /// the Amdahl term that bounds scaling.
    pub serial_ns: u64,
    /// The barrier-only part of `serial_ns` (exchange + merge + flush at
    /// windows, excluding sync steps); `barrier_ns / windows` is E15's
    /// ns-per-window figure.
    pub barrier_ns: u64,
}

impl ShardedStats {
    /// Modeled events/second on an ideal K-core host: events over
    /// (critical path + serial coordinator time).
    #[must_use]
    pub fn modeled_events_per_sec(&self) -> f64 {
        let ns = self.critical_ns + self.serial_ns;
        if ns == 0 {
            return 0.0;
        }
        self.events as f64 / (ns as f64 / 1e9)
    }
}

/// The parallel kernel: K shard event loops, deterministic epoch
/// barriers, byte-identical merged output at any K.
///
/// The API mirrors [`Kernel`] where the semantics
/// match, with one structural difference: because shards run whole
/// windows at a time, occurrences are returned in batches from
/// [`ShardedKernel::run_until`] / [`ShardedKernel::drain`] instead of
/// one-by-one from `step()`, and every command is *scheduled* at an
/// explicit virtual time (`send_at`, `fault_at`, …) rather than taking
/// effect "now".
///
/// # Examples
///
/// ```
/// use aas_sim::coordinator::ShardedKernel;
/// use aas_sim::network::Topology;
/// use aas_sim::shard::ShardFired;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// let topo = Topology::clique(4, 100.0, SimDuration::from_millis(1), 1e6);
/// let mut k: ShardedKernel<&'static str> = ShardedKernel::new(topo, 2);
/// let ch = k.open_channel(aas_sim::node::NodeId(0), aas_sim::node::NodeId(1));
/// k.send_at(SimTime::ZERO, ch, "ping", 64);
/// let events = k.drain();
/// assert_eq!(events.len(), 1);
/// assert!(matches!(events[0].what, ShardFired::Delivered { .. }));
/// ```
pub struct ShardedKernel<M: Send + 'static> {
    shared: Arc<Shared<M>>,
    mode: ExecMode,
    workers: Vec<JoinHandle<()>>,
    now: SimTime,
    next_cmd: u64,
    next_timer_tag: u64,
    sync: BinaryHeap<SyncEntry>,
    /// Channel directory: `(src, dst)` per channel id, issue order.
    dir: Vec<(NodeId, NodeId)>,
    /// Counters owned by the coordinator (released, faults applied).
    coord_counters: [u64; KernelCounter::COUNT],
    stats: ShardedStats,
    /// Cached `world.lookahead` (static after construction).
    la: SimDuration,
    /// Outbox batches in transit at a barrier, per destination shard;
    /// reused every window so the exchange allocates nothing once warm.
    transit: Vec<Vec<DeliverBatch<M>>>,
    /// Last flushed busy_ns per shard (to compute per-window deltas).
    prev_busy: Vec<u64>,
    /// Reusable K-way merge buffers (swapped with shard `fired` deques).
    merge_bufs: Vec<VecDeque<MergedEvent<M>>>,
    /// Peak per-window fired count per shard, for capacity handback: the
    /// fired buffer and merge buffer trade roles every window, so the
    /// coordinator re-reserves the handed-back buffer to the peak —
    /// keeping all growth off the worker threads.
    fired_peak: Vec<usize>,
    /// Cached merge of every registry, invalidated when a flush moves any
    /// counter — `merged_metrics` used to re-walk all K registries per
    /// call even when nothing changed.
    merged_cache: aas_obs::MetricsSnapshot,
    metrics_dirty: bool,
    /// Per-shard metric registries; counter deltas flushed at barriers.
    regs: Vec<aas_obs::MetricsRegistry>,
    handles: Vec<[aas_obs::Counter; KernelCounter::COUNT]>,
    prev_flushed: Vec<[u64; KernelCounter::COUNT]>,
    /// Coordinator's own registry (released / faults_applied).
    coord_reg: aas_obs::MetricsRegistry,
    coord_handles: [aas_obs::Counter; KernelCounter::COUNT],
    prev_coord_flushed: [u64; KernelCounter::COUNT],
}

impl<M: Send + std::fmt::Debug + 'static> std::fmt::Debug for ShardedKernel<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("mode", &self.mode)
            .field("now", &self.now)
            .field("next_cmd", &self.next_cmd)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

fn counter_handles(reg: &aas_obs::MetricsRegistry) -> [aas_obs::Counter; KernelCounter::COUNT] {
    std::array::from_fn(|j| reg.counter(&format!("kernel.{}", KernelCounter::ALL[j].name())))
}

impl<M: Send + 'static> ShardedKernel<M> {
    /// Builds an inline-mode sharded kernel over `topo` with `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(topo: Topology, shards: u32) -> Self {
        ShardedKernel::with_mode(topo, shards, ExecMode::Inline)
    }

    /// Builds a threaded sharded kernel (one worker thread per shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn threaded(topo: Topology, shards: u32) -> Self {
        ShardedKernel::with_mode(topo, shards, ExecMode::Threads)
    }

    /// Builds a sharded kernel with an explicit [`ExecMode`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_mode(topo: Topology, shards: u32, mode: ExecMode) -> Self {
        ShardedKernel::with_mode_and_hook(topo, shards, mode, None)
    }

    /// Like [`ShardedKernel::with_mode`], with a hook every worker thread
    /// calls once at startup (before its first window). Test harnesses use
    /// this to enroll worker threads in thread-scoped instrumentation such
    /// as the counting allocator in `tests/alloc_free.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_mode_and_hook(
        topo: Topology,
        shards: u32,
        mode: ExecMode,
        hook: Option<fn()>,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let map = ShardMap::round_robin(topo.node_count(), shards);
        let lookahead = map.lookahead(&topo);
        let cores: Vec<CacheAligned<Mutex<ShardCore<M>>>> = (0..shards)
            .map(|i| CacheAligned(Mutex::new(ShardCore::new(i, shards, &topo))))
            .collect();
        let shared = Arc::new(Shared {
            world: RwLock::new(World { topo, map }),
            shards: cores,
            barrier: BarrierCtl::new(shards),
        });
        let workers = if mode == ExecMode::Threads {
            (0..shards)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("aas-shard-{i}"))
                        .spawn(move || worker_loop(&shared, i as usize, hook))
                        .expect("spawn shard worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        let regs: Vec<aas_obs::MetricsRegistry> = (0..shards)
            .map(|_| aas_obs::MetricsRegistry::new())
            .collect();
        let handles = regs.iter().map(counter_handles).collect();
        let coord_reg = aas_obs::MetricsRegistry::new();
        let coord_handles = counter_handles(&coord_reg);
        ShardedKernel {
            shared,
            mode,
            workers,
            now: SimTime::ZERO,
            next_cmd: 0,
            next_timer_tag: 0,
            sync: BinaryHeap::new(),
            dir: Vec::new(),
            coord_counters: [0; KernelCounter::COUNT],
            stats: ShardedStats::default(),
            la: lookahead,
            transit: (0..shards).map(|_| Vec::new()).collect(),
            prev_busy: vec![0; shards as usize],
            merge_bufs: (0..shards).map(|_| VecDeque::new()).collect(),
            fired_peak: vec![0; shards as usize],
            merged_cache: aas_obs::MetricsSnapshot::default(),
            metrics_dirty: true,
            regs,
            handles,
            prev_flushed: vec![[0; KernelCounter::COUNT]; shards as usize],
            coord_reg,
            coord_handles,
            prev_coord_flushed: [0; KernelCounter::COUNT],
        }
    }

    fn alloc_cmd(&mut self) -> u64 {
        let c = self.next_cmd;
        self.next_cmd += 1;
        c
    }

    // ----- caller commands ---------------------------------------------

    /// Opens a FIFO channel from `src` to `dst`; the send side lives on
    /// `src`'s shard, the delivery side on `dst`'s.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of topology bounds.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        let shared = Arc::clone(&self.shared);
        let world = shared.world.read().expect("world lock");
        let n = world.topo.node_count() as u32;
        assert!(src.0 < n && dst.0 < n, "channel endpoint out of bounds");
        let ch = ChannelId(self.dir.len() as u64);
        self.dir.push((src, dst));
        let ssh = world.map.shard_of(src).0 as usize;
        let dsh = world.map.shard_of(dst).0 as usize;
        {
            let mut core = shared.shards[ssh].0.lock().expect("shard lock");
            core.ensure_channel_slot(ch);
            core.send_sides[ch.0 as usize] = Some(SendSide::new(src, dst));
        }
        let mut core = shared.shards[dsh].0.lock().expect("shard lock");
        core.ensure_channel_slot(ch);
        core.deliver_sides[ch.0 as usize] = Some(DeliverSide::new(dst));
        ch
    }

    /// Schedules a send on `ch` at virtual time `at` (≥ `now`). Routing,
    /// FIFO ordering and accounting happen when the source shard
    /// processes the command at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `ch` was never opened.
    pub fn send_at(&mut self, at: SimTime, ch: ChannelId, msg: M, size: u64) {
        assert!(at >= self.now, "cannot schedule a send in the past");
        let (src, _) = self.dir[ch.0 as usize];
        let cmd = self.alloc_cmd();
        let shared = Arc::clone(&self.shared);
        let world = shared.world.read().expect("world lock");
        let ssh = world.map.shard_of(src).0 as usize;
        let mut core = shared.shards[ssh].0.lock().expect("shard lock");
        core.queue.push(Entry {
            at,
            key: EventKey::new(cmd, 0),
            ev: ShardEvent::SendCmd { ch, msg, size },
        });
    }

    /// Schedules a timer at `at`; returns the tag the eventual
    /// [`ShardFired::Timer`] will carry.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime) -> u64 {
        assert!(at >= self.now, "cannot schedule a timer in the past");
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        let cmd = self.alloc_cmd();
        let shared = Arc::clone(&self.shared);
        // Placement is K-dependent but output order is not: the key rules.
        let shard = (cmd % self.shared.shards.len() as u64) as usize;
        let mut core = shared.shards[shard].0.lock().expect("shard lock");
        core.queue.push(Entry {
            at,
            key: EventKey::new(cmd, 0),
            ev: ShardEvent::Timer { tag },
        });
        tag
    }

    /// Schedules a fault at `at` (a sync point: the topology mutation runs
    /// sequentially at the coordinator).
    pub fn fault_at(&mut self, at: SimTime, kind: FaultKind) {
        let cmd = self.alloc_cmd();
        self.sync.push(SyncEntry {
            at,
            cmd,
            what: SyncCmd::Fault(kind),
        });
    }

    /// Schedules every entry of `sched` as a fault sync point.
    pub fn inject_faults(&mut self, sched: FaultSchedule) {
        for (at, kind) in sched.into_entries() {
            self.fault_at(at, kind);
        }
    }

    /// Schedules a delivery block on `ch` at `at` (reconfiguration
    /// quiesce). Messages arriving while blocked are held, invisible, and
    /// re-released in order on unblock.
    pub fn block_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        let cmd = self.alloc_cmd();
        self.sync.push(SyncEntry {
            at,
            cmd,
            what: SyncCmd::Block(ch),
        });
    }

    /// Schedules an unblock of `ch` at `at`; held messages re-enter the
    /// queue at `at` in arrival order.
    pub fn unblock_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        let cmd = self.alloc_cmd();
        self.sync.push(SyncEntry {
            at,
            cmd,
            what: SyncCmd::Unblock(ch),
        });
    }

    /// Schedules a close of `ch` at `at`; later sends and in-flight
    /// deliveries drop with `ChannelClosed`.
    pub fn close_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        let cmd = self.alloc_cmd();
        self.sync.push(SyncEntry {
            at,
            cmd,
            what: SyncCmd::Close(ch),
        });
    }

    /// Schedules a rebind of `ch` to new endpoints at `at` (component
    /// migration). In-flight messages are delivered against the new
    /// destination, exactly like
    /// [`Kernel::rebind_channel`](crate::kernel::Kernel::rebind_channel).
    pub fn rebind_channel_at(&mut self, at: SimTime, ch: ChannelId, src: NodeId, dst: NodeId) {
        let cmd = self.alloc_cmd();
        self.sync.push(SyncEntry {
            at,
            cmd,
            what: SyncCmd::Rebind(ch, src, dst),
        });
    }

    // ----- the engine --------------------------------------------------

    /// Runs every pending event with virtual time ≤ `limit` and returns
    /// the merged occurrence stream in `(time, key)` order — byte-identical
    /// at any shard count for the same command sequence.
    pub fn run_until(&mut self, limit: SimTime) -> Vec<MergedEvent<M>> {
        let mut out = Vec::new();
        self.run_until_into(limit, &mut out);
        out
    }

    /// Like [`ShardedKernel::run_until`], appending into a caller-owned
    /// buffer — a warmed buffer keeps the whole run allocation-free (see
    /// `tests/alloc_free.rs`).
    pub fn run_until_into(&mut self, limit: SimTime, out: &mut Vec<MergedEvent<M>>) {
        if self.mode == ExecMode::Threads {
            *self.shared.barrier.coord.lock().expect("coord slot") = Some(std::thread::current());
        }
        loop {
            let tq = self
                .shared
                .shards
                .iter()
                .map(|m| m.0.lock().expect("shard lock").next_pending())
                .min()
                .unwrap_or(SimTime::MAX);
            let ts = self.sync.peek().map_or(SimTime::MAX, |e| e.at);
            let t = tq.min(ts);
            if t == SimTime::MAX || t > limit {
                break;
            }
            if ts <= tq {
                self.sync_step(ts, out);
                continue;
            }
            // Window [tq, w_end): one lookahead, clipped by the next sync
            // point and the caller's limit (unbounded when no link crosses
            // shards; the additions saturate).
            let w_end = (tq + self.la)
                .min(ts)
                .min(limit + SimDuration::from_micros(1));
            if w_end <= tq {
                // Degenerate (zero-latency cross-shard link): fall back to
                // sequential processing of this instant.
                self.sync_step(tq, out);
                continue;
            }
            self.dispatch_window(w_end);
            self.barrier_merge(w_end, out);
        }
        if limit < SimTime::MAX {
            self.now = self.now.max(limit);
        }
    }

    /// Runs until every queue is empty; the batch analogue of looping
    /// [`Kernel::step`](crate::kernel::Kernel::step).
    pub fn drain(&mut self) -> Vec<MergedEvent<M>> {
        self.run_until(SimTime::MAX)
    }

    /// Like [`ShardedKernel::drain`], appending into a caller-owned
    /// buffer.
    pub fn drain_into(&mut self, out: &mut Vec<MergedEvent<M>>) {
        self.run_until_into(SimTime::MAX, out);
    }

    /// Executes one window ending at `w_end` on every shard.
    fn dispatch_window(&mut self, w_end: SimTime) {
        match self.mode {
            ExecMode::Inline => {
                let world = self.shared.world.read().expect("world lock");
                for m in &self.shared.shards {
                    let mut core = m.0.lock().expect("shard lock");
                    core.run_window(&world.topo, &world.map, w_end);
                }
            }
            ExecMode::Threads => {
                let bar = &self.shared.barrier;
                bar.end.0.store(w_end.as_micros(), AtomicOrd::Relaxed);
                // The SeqCst bump publishes the window end and pairs with
                // the workers' parked-flag protocol (Dekker): we bump,
                // then check flags; they set the flag, then re-check the
                // epoch.
                bar.epoch.0.fetch_add(1, AtomicOrd::SeqCst);
                for (i, flag) in bar.parked.iter().enumerate() {
                    if flag.0.load(AtomicOrd::SeqCst) {
                        self.workers[i].thread().unpark();
                    }
                }
                let k = self.shared.shards.len() as u32;
                let mut spins = 0u32;
                while bar.done.0.load(AtomicOrd::Acquire) < k {
                    if spins < 512 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else if spins < 576 {
                        spins += 1;
                        std::thread::yield_now();
                    } else {
                        std::thread::park_timeout(Duration::from_micros(200));
                    }
                }
                bar.done.0.store(0, AtomicOrd::Relaxed);
            }
        }
    }

    /// Coordinator barrier at the end of the window ending at `w_end`:
    /// collect the per-shard fired runs, flush metrics, advance the clock,
    /// move every outbox batch into its destination's inbox (checking
    /// that none arrives inside the window that produced it) and K-way
    /// merge the fired runs.
    fn barrier_merge(&mut self, w_end: SimTime, out: &mut Vec<MergedEvent<M>>) {
        let t0 = Instant::now();
        self.stats.windows += 1;
        let shared = Arc::clone(&self.shared);
        let mut max_busy = 0u64;
        for (i, m) in shared.shards.iter().enumerate() {
            let mut core = m.0.lock().expect("shard lock");
            let delta = core.busy_ns - self.prev_busy[i];
            self.prev_busy[i] = core.busy_ns;
            max_busy = max_busy.max(delta);
            self.now = self.now.max(core.last_at);
            std::mem::swap(&mut self.merge_bufs[i], &mut core.fired);
            // Capacity handback: the deque handed back may be the one
            // that missed the widest window so far; reserve it to the
            // observed peak here so it never regrows on a worker thread.
            let peak = self.fired_peak[i].max(self.merge_bufs[i].len());
            self.fired_peak[i] = peak;
            if core.fired.capacity() < peak {
                let additional = peak - core.fired.len();
                core.fired.reserve(additional);
            }
            let counters = core.counters;
            for (j, h) in self.handles[i].iter().enumerate() {
                let d = counters[j] - self.prev_flushed[i][j];
                if d > 0 {
                    h.add(d);
                    self.prev_flushed[i][j] = counters[j];
                    self.metrics_dirty = true;
                }
            }
            // Whole-buffer exchange: each non-empty outbox moves out
            // (O(runs), not O(events)), replaced from the free list.
            for (d, transit) in self.transit.iter_mut().enumerate() {
                if d == i || core.outboxes[d].is_empty() {
                    continue;
                }
                let repl = core.free.pop().unwrap_or_default();
                let batch = std::mem::replace(&mut core.outboxes[d], repl);
                self.stats.exchanged += batch.len() as u64;
                self.stats.exchange_ops += 1;
                if batch.min_at < w_end {
                    self.stats.early_crossings += batch.len() as u64;
                }
                transit.push(batch);
            }
        }
        for (m, transit) in shared.shards.iter().zip(&mut self.transit) {
            if !transit.is_empty() {
                m.0.lock().expect("shard lock").inbox.append(transit);
            }
        }
        self.stats.critical_ns += max_busy;
        // K-way merge of the per-shard runs (each already sorted: a shard
        // pops its queue in (time, key) order). Popping from the front of
        // the persistent deques keeps this allocation-free.
        loop {
            let mut best: Option<(usize, SimTime, EventKey)> = None;
            for (i, buf) in self.merge_bufs.iter().enumerate() {
                if let Some(e) = buf.front() {
                    let better = match best {
                        None => true,
                        Some((_, at, key)) => (e.at, e.key) < (at, key),
                    };
                    if better {
                        best = Some((i, e.at, e.key));
                    }
                }
            }
            let Some((i, _, _)) = best else { break };
            out.push(self.merge_bufs[i].pop_front().expect("peeked"));
        }
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.serial_ns += dt;
        self.stats.barrier_ns += dt;
    }

    /// A sequential step at instant `ts`: executes pending sync commands
    /// and same-instant shard events one at a time in `(time, key)` order,
    /// draining mailboxes after every event. Exactly what a K=1 kernel
    /// would do — which is why sync semantics are K-independent.
    fn sync_step(&mut self, ts: SimTime, out: &mut Vec<MergedEvent<M>>) {
        let t0 = Instant::now();
        self.stats.sync_steps += 1;
        let shared = Arc::clone(&self.shared);
        let mut world = shared.world.write().expect("world lock");
        let world = &mut *world;
        let mut cores: Vec<MutexGuard<'_, ShardCore<M>>> = shared
            .shards
            .iter()
            .map(|m| m.0.lock().expect("shard lock"))
            .collect();
        let k = cores.len();
        // Pull everything the last barrier left in the inboxes into the
        // queues so same-instant cross-shard events are visible to this
        // step's merge.
        for core in &mut cores {
            core.drain_inbox();
        }
        loop {
            let mut best: Option<(usize, EventKey)> = None;
            for (i, core) in cores.iter().enumerate() {
                if let Some((at, key)) = core.queue.peek() {
                    if at == ts && best.is_none_or(|(_, b)| key < b) {
                        best = Some((i, key));
                    }
                }
            }
            let sync_next = self
                .sync
                .peek()
                .filter(|e| e.at == ts)
                .map(|e| EventKey::new(e.cmd, 0));
            let take_sync = match (best, sync_next) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some((_, ek)), Some(sk)) => sk < ek,
            };
            if take_sync {
                let SyncEntry { cmd, what, .. } = self.sync.pop().expect("peeked");
                match what {
                    SyncCmd::Fault(kind) => {
                        match kind {
                            FaultKind::NodeCrash(n) => world.topo.set_node_up(n, false),
                            FaultKind::NodeRecover(n) => world.topo.set_node_up(n, true),
                            FaultKind::LinkDown(l) => world.topo.set_link_up(l, false),
                            FaultKind::LinkUp(l) => world.topo.set_link_up(l, true),
                        }
                        self.coord_counters[KernelCounter::FaultsApplied as usize] += 1;
                        out.push(MergedEvent {
                            at: ts,
                            key: EventKey::new(cmd, 0),
                            what: ShardFired::Fault(kind),
                        });
                    }
                    SyncCmd::Block(ch) => {
                        let dsh = world.map.shard_of(self.dir[ch.0 as usize].1).0 as usize;
                        if let Some(side) = cores[dsh].deliver_sides[ch.0 as usize].as_mut() {
                            side.block();
                        }
                    }
                    SyncCmd::Unblock(ch) => {
                        let dsh = world.map.shard_of(self.dir[ch.0 as usize].1).0 as usize;
                        self.coord_counters[KernelCounter::Released as usize] +=
                            cores[dsh].release(ch, ts, cmd);
                    }
                    SyncCmd::Close(ch) => {
                        let (src, dst) = self.dir[ch.0 as usize];
                        let ssh = world.map.shard_of(src).0 as usize;
                        let dsh = world.map.shard_of(dst).0 as usize;
                        if let Some(side) = cores[ssh].send_sides[ch.0 as usize].as_mut() {
                            side.close();
                        }
                        if let Some(side) = cores[dsh].deliver_sides[ch.0 as usize].as_mut() {
                            side.close();
                        }
                    }
                    SyncCmd::Rebind(ch, ns, nd) => {
                        let n = world.topo.node_count() as u32;
                        assert!(ns.0 < n && nd.0 < n, "rebind endpoint out of bounds");
                        let (os, od) = self.dir[ch.0 as usize];
                        let (ossh, odsh) = (
                            world.map.shard_of(os).0 as usize,
                            world.map.shard_of(od).0 as usize,
                        );
                        let (nssh, ndsh) = (
                            world.map.shard_of(ns).0 as usize,
                            world.map.shard_of(nd).0 as usize,
                        );
                        // Move both channel sides to the new owners and
                        // repoint their endpoints.
                        let mut sside = cores[ossh].send_sides[ch.0 as usize]
                            .take()
                            .expect("send side");
                        sside.rebind(ns, nd);
                        let mut dside = cores[odsh].deliver_sides[ch.0 as usize]
                            .take()
                            .expect("deliver side");
                        dside.rebind(nd);
                        cores[nssh].ensure_channel_slot(ch);
                        cores[nssh].send_sides[ch.0 as usize] = Some(sside);
                        cores[ndsh].ensure_channel_slot(ch);
                        cores[ndsh].deliver_sides[ch.0 as usize] = Some(dside);
                        // Migrate queued entries: pending sends follow the
                        // send side, in-flight deliveries follow the
                        // delivery side (they arrive at the *new*
                        // destination, matching the serial kernel).
                        let mut pending = cores[ossh].queue.extract_channel(ch);
                        if odsh != ossh {
                            pending.extend(cores[odsh].queue.extract_channel(ch));
                        }
                        for e in pending {
                            let dest = match e.ev {
                                ShardEvent::SendCmd { .. } => nssh,
                                ShardEvent::Deliver { .. } => ndsh,
                                ShardEvent::Timer { .. } | ShardEvent::Fault(_) => {
                                    unreachable!("timers and faults are channel-less")
                                }
                            };
                            cores[dest].queue.push(e);
                        }
                        self.dir[ch.0 as usize] = (ns, nd);
                    }
                }
            } else {
                let (i, _) = best.expect("have a shard event");
                let entry = cores[i].queue.pop().expect("peeked");
                // Fired events surface immediately, and cross-shard output
                // is forwarded right away so a same-instant consequence on
                // another shard is visible within this step.
                if let Some(e) = cores[i].process(entry, &world.topo, &world.map) {
                    out.push(e);
                }
                for d in 0..k {
                    if cores[i].outboxes[d].is_empty() {
                        continue;
                    }
                    let repl = cores[i].free.pop().unwrap_or_default();
                    let mut moved = std::mem::replace(&mut cores[i].outboxes[d], repl);
                    self.stats.exchanged += moved.len() as u64;
                    self.stats.exchange_ops += 1;
                    moved.drain_into(&mut cores[d].queue);
                    cores[i].free.push(moved);
                }
            }
        }
        self.now = self.now.max(ts);
        self.stats.serial_ns += t0.elapsed().as_nanos() as u64;
    }

    // ----- introspection -----------------------------------------------

    /// Current virtual time (the latest processed instant, or the limit of
    /// the last bounded run).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.shared.shards.len() as u32
    }

    /// The execution mode this kernel was built with.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The conservative lookahead (min cross-shard link latency). Cached:
    /// the link set and shard map are fixed at construction.
    #[must_use]
    pub fn lookahead(&self) -> SimDuration {
        self.la
    }

    /// Runs `f` against the shared topology (read-only).
    pub fn with_topology<R>(&self, f: impl FnOnce(&Topology) -> R) -> R {
        let world = self.shared.world.read().expect("world lock");
        f(&world.topo)
    }

    /// Global kernel counters, summed across shards and the coordinator —
    /// same names and meanings as
    /// [`Kernel::counters`](crate::kernel::Kernel::counters).
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for k in KernelCounter::ALL {
            c.add(k.name(), self.counter(k));
        }
        c
    }

    /// One global counter, summed across shards and the coordinator.
    #[must_use]
    pub fn counter(&self, c: KernelCounter) -> u64 {
        let mut total = self.coord_counters[c as usize];
        for m in &self.shared.shards {
            total += m.0.lock().expect("shard lock").counters[c as usize];
        }
        total
    }

    /// Per-channel statistics, merged across the owning shards.
    #[must_use]
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        let mut stats = ChannelStats::default();
        for m in &self.shared.shards {
            m.0.lock()
                .expect("shard lock")
                .channel_stats_into(ch, &mut stats);
        }
        stats
    }

    /// Current `(src, dst)` endpoints of `ch`.
    #[must_use]
    pub fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId) {
        self.dir[ch.0 as usize]
    }

    /// Whether `ch`'s delivery side is currently blocked.
    #[must_use]
    pub fn is_blocked(&self, ch: ChannelId) -> bool {
        let world = self.shared.world.read().expect("world lock");
        let dsh = world.map.shard_of(self.dir[ch.0 as usize].1).0 as usize;
        self.shared.shards[dsh]
            .0
            .lock()
            .expect("shard lock")
            .deliver_sides[ch.0 as usize]
            .as_ref()
            .is_some_and(|s| s.blocked)
    }

    /// Route-cache counters summed across every shard's private cache.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        let mut total = RouteCacheStats::default();
        for m in &self.shared.shards {
            let s = m.0.lock().expect("shard lock").route_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.settled += s.settled;
        }
        total
    }

    /// Switches every shard to hierarchical routing (a private
    /// [`HierRouter`](crate::hier::HierRouter) per shard, all enabled
    /// together so routing policy does not depend on the shard count).
    /// Call before driving traffic; calling again resets the routers.
    pub fn enable_hier_routing(&mut self) {
        for m in &self.shared.shards {
            m.0.lock().expect("shard lock").hier = Some(crate::hier::HierRouter::new());
        }
    }

    /// Hierarchical-router counters summed across shards; `None` until
    /// [`ShardedKernel::enable_hier_routing`].
    #[must_use]
    pub fn hier_stats(&self) -> Option<HierStats> {
        let mut total = HierStats::default();
        let mut any = false;
        for m in &self.shared.shards {
            if let Some(s) = m.0.lock().expect("shard lock").hier_stats() {
                any = true;
                total.hits += s.hits;
                total.misses += s.misses;
                total.stale_evictions += s.stale_evictions;
                total.cell_rebuilds += s.cell_rebuilds;
                total.overlay_queries += s.overlay_queries;
                total.full_fallbacks += s.full_fallbacks;
                total.settled += s.settled;
            }
        }
        any.then_some(total)
    }

    /// One shard's private route-cache counters.
    #[must_use]
    pub fn shard_route_cache_stats(&self, shard: ShardId) -> RouteCacheStats {
        self.shared.shards[shard.0 as usize]
            .0
            .lock()
            .expect("shard lock")
            .route_cache_stats()
    }

    /// Total bytes accounted to `lid`, summed across shards (u64 addition
    /// commutes, so the total is shard-count-independent).
    #[must_use]
    pub fn link_bytes(&self, lid: LinkId) -> u64 {
        self.shared
            .shards
            .iter()
            .map(|m| m.0.lock().expect("shard lock").link_bytes(lid))
            .sum()
    }

    /// Execution statistics (windows, exchanges, invariant violations,
    /// modeled critical path).
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        let mut s = self.stats;
        for m in &self.shared.shards {
            let core = m.0.lock().expect("shard lock");
            s.events += core.events_processed;
            s.overrun_events += core.overrun_events;
        }
        s
    }

    /// Flushes per-shard and coordinator counter deltas into the metric
    /// registries (also happens automatically at every barrier).
    pub fn flush_metrics(&mut self) {
        for (i, m) in self.shared.shards.iter().enumerate() {
            let counters = m.0.lock().expect("shard lock").counters;
            for (j, h) in self.handles[i].iter().enumerate() {
                let d = counters[j] - self.prev_flushed[i][j];
                if d > 0 {
                    h.add(d);
                    self.prev_flushed[i][j] = counters[j];
                    self.metrics_dirty = true;
                }
            }
        }
        for (j, h) in self.coord_handles.iter().enumerate() {
            let d = self.coord_counters[j] - self.prev_coord_flushed[j];
            if d > 0 {
                h.add(d);
                self.prev_coord_flushed[j] = self.coord_counters[j];
                self.metrics_dirty = true;
            }
        }
    }

    /// Snapshot of one shard's private metric registry.
    #[must_use]
    pub fn shard_metrics(&self, shard: ShardId) -> aas_obs::MetricsSnapshot {
        self.regs[shard.0 as usize].snapshot()
    }

    /// Flushes and merges every shard's registry (plus the coordinator's)
    /// into one global snapshot; `kernel.*` counters here reconcile
    /// exactly with [`ShardedKernel::counters`].
    ///
    /// The merge is cached per flush epoch: re-walking all K registries
    /// on every call was pure waste when no counter moved between calls,
    /// so the absorb result is kept and invalidated only when a flush
    /// actually transfers a delta.
    pub fn merged_metrics(&mut self) -> aas_obs::MetricsSnapshot {
        self.flush_metrics();
        if self.metrics_dirty {
            let global = aas_obs::MetricsRegistry::new();
            for reg in &self.regs {
                global.absorb(&reg.snapshot());
            }
            global.absorb(&self.coord_reg.snapshot());
            self.merged_cache = global.snapshot();
            self.metrics_dirty = false;
        }
        self.merged_cache.clone()
    }
}

impl<M: Send + Clone + 'static> ShardedKernel<M> {
    /// The RNG seed every serial projection starts from. The sharded
    /// kernel owns no RNG stream (randomness lives with the caller), so
    /// the projected [`Kernel`]'s stream has to begin somewhere fixed and
    /// documented; callers that need a different stream can draw from
    /// their own RNG and discard the projection's.
    pub const FORK_SEED: u64 = 0x5eed_f02c;

    /// Projects the sharded kernel onto a serial [`Kernel`] fork.
    ///
    /// This is the sharded half of the snapshot-and-fork story: at a
    /// barrier, every shard core's pending entries (queued and in its
    /// inbox, each with its key), channel sides, counters and link bytes
    /// are copied into the serial kernel's one core, which shares no state
    /// with the coordinator or its workers. The projection is only
    /// faithful when nothing is "in between" representations, so it
    /// returns `None` when:
    ///
    /// - synchronous commands (faults, blocks, closes, rebinds) are still
    ///   queued coordinator-side — they execute outside shard state and
    ///   cannot be replayed by a serial kernel, or
    /// - any shard still holds an un-routed `ShardEvent::SendCmd` — the
    ///   serial kernel routes at `send` time while shards route at the
    ///   command's scheduled time, so the projection must wait until all
    ///   sends have routed (i.e. fork after a `drain()`/barrier, not
    ///   between `send` and `step`).
    ///
    /// Keys carry over unchanged and the fork's key allocator continues
    /// from the coordinator's, so a drain of the fork fires the same
    /// events at the same times as a drain of the sharded mainline (see
    /// `tests/fork_determinism.rs`).
    pub fn fork_serial(&self) -> Option<Kernel<M>> {
        if !self.sync.is_empty() {
            return None;
        }
        let world = self.shared.world.read().expect("world lock");
        let mut fork = Kernel::new(world.topo.clone(), Self::FORK_SEED);
        for m in &self.shared.shards {
            fork.core.absorb(&m.0.lock().expect("shard lock"))?;
        }
        for (c, n) in fork.core.counters.iter_mut().zip(self.coord_counters) {
            *c += n;
        }
        fork.now = self.now;
        fork.next_cmd = self.next_cmd;
        fork.next_timer_tag = self.next_timer_tag;
        Some(fork)
    }
}

/// Spin-then-park wait for the next window epoch. Returns `false`
/// on shutdown. The parked flag pairs with the coordinator's post-bump
/// flag check (both SeqCst, Dekker-style): either the worker sees the new
/// epoch on its re-check, or the coordinator sees the flag and unparks.
fn wait_for_epoch(bar: &BarrierCtl, idx: usize, seen: &mut u64) -> bool {
    let flag = &bar.parked[idx].0;
    let mut spins = 0u32;
    loop {
        let e = bar.epoch.0.load(AtomicOrd::SeqCst);
        if e != *seen {
            *seen = e;
            // The shutdown flag is stored before the epoch bump that
            // publishes it, so a worker woken by that bump always sees it.
            return !bar.shutdown.load(AtomicOrd::SeqCst);
        }
        if bar.shutdown.load(AtomicOrd::SeqCst) {
            return false;
        }
        if spins < 256 {
            spins += 1;
            std::hint::spin_loop();
        } else if spins < 320 {
            spins += 1;
            std::thread::yield_now();
        } else {
            flag.store(true, AtomicOrd::SeqCst);
            if bar.epoch.0.load(AtomicOrd::SeqCst) == *seen && !bar.shutdown.load(AtomicOrd::SeqCst)
            {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            flag.store(false, AtomicOrd::SeqCst);
        }
    }
}

fn worker_loop<M: Send + 'static>(shared: &Shared<M>, idx: usize, hook: Option<fn()>) {
    if let Some(h) = hook {
        h();
    }
    let bar = &shared.barrier;
    let k = shared.shards.len() as u32;
    let mut seen = 0u64;
    loop {
        if !wait_for_epoch(bar, idx, &mut seen) {
            return;
        }
        let end = SimTime::from_micros(bar.end.0.load(AtomicOrd::Acquire));
        {
            let world = shared.world.read().expect("world lock");
            let mut core = shared.shards[idx].0.lock().expect("shard lock");
            core.run_window(&world.topo, &world.map, end);
        }
        if bar.done.0.fetch_add(1, AtomicOrd::AcqRel) + 1 == k {
            if let Some(t) = bar.coord.lock().expect("coord slot").as_ref() {
                t.unpark();
            }
        }
    }
}

impl<M: Send + 'static> Drop for ShardedKernel<M> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Order matters: publish shutdown, then bump the epoch so spinning
        // workers re-check, then unpark sleepers. No worker is mid-window
        // here (run_until always waits out the done barrier), so every
        // worker is in `wait_for_epoch` and exits from there.
        self.shared.barrier.shutdown.store(true, AtomicOrd::SeqCst);
        self.shared.barrier.epoch.0.fetch_add(1, AtomicOrd::SeqCst);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Topology;

    fn two_node_topo() -> Topology {
        Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6)
    }

    #[test]
    fn send_and_deliver_one_message() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send_at(SimTime::ZERO, ch, 7, 100);
        let events = k.drain();
        // The send fires nothing by itself; delivery is the only record
        // besides... actually SendCmd produces no fired record, only the
        // delivery does.
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].what,
            ShardFired::Delivered { msg: 7, .. }
        ));
        assert_eq!(k.counter(KernelCounter::Sent), 1);
        assert_eq!(k.counter(KernelCounter::Delivered), 1);
        assert_eq!(k.stats().early_crossings, 0);
        assert_eq!(k.stats().overrun_events, 0);
    }

    #[test]
    fn threaded_matches_inline() {
        let build = |mode| {
            let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(two_node_topo(), 2, mode);
            let ch = k.open_channel(NodeId(0), NodeId(1));
            for i in 0..50u64 {
                k.send_at(SimTime::from_micros(i * 10), ch, i, 64 + i);
            }
            let ev: Vec<String> = k
                .drain()
                .iter()
                .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
                .collect();
            (ev, k.counters())
        };
        let (a, ca) = build(ExecMode::Inline);
        let (b, cb) = build(ExecMode::Threads);
        assert_eq!(a, b);
        assert_eq!(ca.iter().collect::<Vec<_>>(), cb.iter().collect::<Vec<_>>());
    }

    #[test]
    fn block_then_unblock_releases_in_order() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.block_channel_at(SimTime::ZERO, ch);
        for i in 0..3 {
            k.send_at(SimTime::from_micros(i), ch, i as u32, 64);
        }
        let before = k.run_until(SimTime::from_millis(5));
        assert!(
            before.is_empty(),
            "blocked deliveries must stay invisible: {before:?}"
        );
        assert!(k.is_blocked(ch));
        assert_eq!(k.counter(KernelCounter::Held), 3);
        k.unblock_channel_at(SimTime::from_millis(6), ch);
        let after = k.drain();
        let msgs: Vec<u32> = after
            .iter()
            .filter_map(|e| match e.what {
                ShardFired::Delivered { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert_eq!(msgs, vec![0, 1, 2]);
        assert_eq!(k.counter(KernelCounter::Released), 3);
    }

    #[test]
    fn fault_drops_delivery_on_down_node() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send_at(SimTime::ZERO, ch, 1, 64);
        // Crash the destination before the ~1ms delivery.
        k.fault_at(SimTime::from_micros(500), FaultKind::NodeCrash(NodeId(1)));
        let events = k.drain();
        assert!(events.iter().any(|e| matches!(
            e.what,
            ShardFired::Dropped {
                reason: crate::channel::DropReason::DestinationDown,
                ..
            }
        )));
        assert_eq!(k.counter(KernelCounter::Dropped), 1);
    }

    #[test]
    fn merged_metrics_reconcile_with_counters() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        for i in 0..10 {
            k.send_at(SimTime::from_micros(i), ch, i as u32, 64);
        }
        let _ = k.drain();
        let snap = k.merged_metrics();
        for c in KernelCounter::ALL {
            let name = format!("kernel.{}", c.name());
            assert_eq!(
                snap.counter(&name).unwrap_or(0),
                k.counter(c),
                "{name} must reconcile"
            );
        }
    }

    #[test]
    fn merged_metrics_cache_invalidates_on_flush() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        for i in 0..5 {
            k.send_at(SimTime::from_micros(i), ch, i as u32, 64);
        }
        let _ = k.drain();
        let first = k.merged_metrics();
        assert!(!k.metrics_dirty, "merge must be cached after a call");
        // A second call with no traffic in between returns the cache.
        let second = k.merged_metrics();
        assert_eq!(
            first.counter("kernel.delivered"),
            second.counter("kernel.delivered")
        );
        assert!(!k.metrics_dirty);
        // New traffic moves counters at the next flush — the cache must
        // be invalidated and the rebuilt merge must see the new deliveries.
        for i in 0..5 {
            k.send_at(SimTime::from_millis(20 + i), ch, i as u32, 64);
        }
        let _ = k.drain();
        let third = k.merged_metrics();
        assert_eq!(third.counter("kernel.delivered"), Some(10));
    }

    /// No two shards' core mutexes and no two barrier atomics may share
    /// a 64-byte line, so false sharing cannot couple the workers.
    #[test]
    fn hot_fields_live_on_distinct_cache_lines() {
        let k: ShardedKernel<u32> = ShardedKernel::with_mode(
            Topology::clique(8, 100.0, SimDuration::from_millis(1), 1e6),
            4,
            ExecMode::Inline,
        );
        let mut lines: Vec<usize> = Vec::new();
        for m in &k.shared.shards {
            lines.push(std::ptr::from_ref(m) as usize);
        }
        let bar = &k.shared.barrier;
        lines.push(std::ptr::from_ref(&bar.epoch) as usize);
        lines.push(std::ptr::from_ref(&bar.done) as usize);
        lines.push(std::ptr::from_ref(&bar.end) as usize);
        for p in &bar.parked {
            lines.push(std::ptr::from_ref(p) as usize);
        }
        for (i, addr) in lines.iter().enumerate() {
            assert_eq!(addr % 64, 0, "field {i} is not cache-line aligned");
        }
        let mut line_ids: Vec<usize> = lines.iter().map(|a| a / 64).collect();
        line_ids.sort_unstable();
        line_ids.dedup();
        assert_eq!(
            line_ids.len(),
            lines.len(),
            "two hot fields share a cache line"
        );
    }
}

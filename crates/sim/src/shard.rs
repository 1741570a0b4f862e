//! The event core: send, route, FIFO, hold/release, drop and deliver,
//! implemented once.
//!
//! The sharded kernel partitions [`Topology`]
//! nodes into K *shards*; each shard runs its own event loop over its own
//! `KeyedQueue`, route cache and channel state, and talks to the other
//! shards only through *mailboxes* that the
//! [`ShardedKernel`](crate::coordinator::ShardedKernel) exchanges at
//! deterministic epoch barriers. The serial
//! [`Kernel`](crate::kernel::Kernel) drives the same core as a single
//! shard that owns every node.
//!
//! Determinism comes from [`EventKey`]: every caller-issued command (a
//! send, a timer, a fault, a release) is stamped with a globally unique,
//! monotonically increasing key at *issue* time, and every derived event
//! inherits the key of the command that caused it. Events are processed in
//! `(time, key)` order, which is independent of how many shards exist —
//! the merged occurrence stream is byte-identical at K=1 and K=N.

use crate::channel::{ChannelId, ChannelStats, DropReason, HeldMessage};
use crate::fault::FaultKind;
use crate::hier::{HierRouter, HierStats};
use crate::kernel::KernelCounter;
use crate::link::LinkId;
use crate::network::{Route, RouteCache, RouteCacheStats, Topology};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Pads (and aligns) a value to a 64-byte cache line so two hot fields
/// owned by different threads never share a line (false sharing turns
/// every barrier counter bump into a cross-core invalidation).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CacheAligned<T>(pub T);

/// Identifier of a shard in a sharded kernel (dense, `0..K`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

/// Deterministic assignment of topology nodes to shards.
///
/// The assignment is round-robin by node id, so it is a pure function of
/// `(node_count, shards)` — two runs of the same program at the same K see
/// the same placement, and a grown topology extends the pattern without
/// moving existing nodes.
///
/// # Examples
///
/// ```
/// use aas_sim::shard::{ShardId, ShardMap};
/// use aas_sim::node::NodeId;
///
/// let map = ShardMap::round_robin(6, 4);
/// assert_eq!(map.shard_of(NodeId(0)), ShardId(0));
/// assert_eq!(map.shard_of(NodeId(5)), ShardId(1));
/// assert_eq!(map.count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    of_node: Vec<u32>,
    shards: u32,
}

impl ShardMap {
    /// Builds a round-robin map of `node_count` nodes over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn round_robin(node_count: usize, shards: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardMap {
            of_node: (0..node_count).map(|i| i as u32 % shards).collect(),
            shards,
        }
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not covered by the map (grow it first with
    /// [`ShardMap::extend_to`]).
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        ShardId(self.of_node[node.0 as usize])
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.shards
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.of_node.len()
    }

    /// Extends the round-robin pattern to cover a grown topology.
    pub fn extend_to(&mut self, node_count: usize) {
        while self.of_node.len() < node_count {
            self.of_node.push(self.of_node.len() as u32 % self.shards);
        }
    }

    /// The conservative lookahead for this partition: the minimum
    /// propagation latency over all links whose endpoints live on
    /// different shards. A message generated by an event at time `t` and
    /// crossing shards arrives no earlier than `t + lookahead`, so a
    /// window of at most this width can run with no mid-window exchange.
    ///
    /// Returns [`SimDuration::MAX`] when no link crosses shards (e.g. a
    /// single-shard map): windows are then bounded only by sync points.
    #[must_use]
    pub fn lookahead(&self, topo: &Topology) -> SimDuration {
        let mut min = SimDuration::MAX;
        for link in topo.links() {
            let spec = link.spec();
            if self.shard_of(spec.a) != self.shard_of(spec.b) {
                min = min.min(spec.latency);
            }
        }
        min
    }
}

/// Total-order key of an occurrence, independent of shard count.
///
/// `cmd` is the globally unique, monotonically increasing id the
/// coordinator stamps on every caller command; `sub` distinguishes the
/// multiple events one command can spawn (e.g. the messages released by a
/// single unblock). Derived events inherit their parent command's key, so
/// `(time, key)` totally orders every occurrence the same way at any K.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Issue-order id of the originating caller command.
    pub cmd: u64,
    /// Index among the events spawned by that command.
    pub sub: u32,
}

impl EventKey {
    /// Key of the `sub`-th event spawned by command `cmd`.
    #[must_use]
    pub fn new(cmd: u64, sub: u32) -> Self {
        EventKey { cmd, sub }
    }
}

impl std::fmt::Display for EventKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.cmd, self.sub)
    }
}

/// Shard-internal event representation.
#[derive(Debug, Clone)]
pub(crate) enum ShardEvent<M> {
    /// A send issued by the caller, processed at the source shard at its
    /// scheduled time (routing, FIFO and accounting all happen then).
    SendCmd { ch: ChannelId, msg: M, size: u64 },
    /// A message in transit, processed at the destination shard at its
    /// arrival time.
    Deliver {
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    },
    /// A caller timer.
    Timer { tag: u64 },
    /// A scheduled fault. Only the serial [`Kernel`](crate::kernel::Kernel)
    /// queues faults, and it applies them to the topology it owns; the
    /// sharded coordinator runs faults as sync points instead.
    Fault(FaultKind),
}

impl<M> ShardEvent<M> {
    /// The channel this event belongs to, if any.
    pub(crate) fn channel(&self) -> Option<ChannelId> {
        match self {
            ShardEvent::SendCmd { ch, .. } | ShardEvent::Deliver { ch, .. } => Some(*ch),
            ShardEvent::Timer { .. } | ShardEvent::Fault(_) => None,
        }
    }
}

/// An occurrence in the merged, deterministic output stream.
#[derive(Debug)]
pub enum ShardFired<M> {
    /// A message arrived on a channel.
    Delivered {
        /// The channel it arrived on.
        channel: ChannelId,
        /// The payload.
        msg: M,
        /// Payload size in bytes.
        size: u64,
        /// When it was sent.
        sent_at: SimTime,
    },
    /// A timer expired.
    Timer {
        /// The tag returned at scheduling time.
        tag: u64,
    },
    /// A scheduled fault was applied to the topology.
    Fault(FaultKind),
    /// A message was dropped, either at send time (`at_send`) or at
    /// delivery time. The payload is handed back for precise accounting.
    Dropped {
        /// The channel involved.
        channel: ChannelId,
        /// The payload that was lost.
        msg: M,
        /// Why it was dropped.
        reason: DropReason,
        /// True when the drop happened while processing the send command
        /// (closed channel or no live route), false at delivery time.
        at_send: bool,
    },
}

/// One record of the merged output stream: an occurrence plus the
/// `(time, key)` coordinates that totally order it across shards.
#[derive(Debug)]
pub struct MergedEvent<M> {
    /// Virtual time of the occurrence.
    pub at: SimTime,
    /// Shard-count-independent total-order key.
    pub key: EventKey,
    /// The occurrence itself.
    pub what: ShardFired<M>,
}

/// A scheduled entry in a shard queue or mailbox.
#[derive(Debug)]
pub(crate) struct Entry<M> {
    pub at: SimTime,
    pub key: EventKey,
    pub ev: ShardEvent<M>,
}

/// A struct-of-arrays run of in-transit deliveries — the unit of
/// cross-shard exchange.
///
/// Only `Deliver` events ever cross shards (sends are processed at the
/// source, timers are shard-local), so the mailbox payload is a fixed
/// five-column layout plus the message column. Batches move between
/// shards as whole buffers: a barrier exchange costs O(runs) pointer
/// swaps instead of O(events) per-entry moves, and spent buffers are
/// recycled through each shard's free list so the steady-state exchange
/// path allocates nothing.
#[derive(Debug)]
pub(crate) struct DeliverBatch<M> {
    pub ats: Vec<SimTime>,
    pub keys: Vec<EventKey>,
    pub chs: Vec<ChannelId>,
    pub sizes: Vec<u64>,
    pub sent_ats: Vec<SimTime>,
    pub msgs: Vec<M>,
    /// Earliest arrival time in the batch; lets the exchange check the
    /// "nothing crosses a barrier early" invariant and lets the
    /// coordinator see the global next-event time without touching
    /// entries.
    pub min_at: SimTime,
}

impl<M> Default for DeliverBatch<M> {
    fn default() -> Self {
        DeliverBatch {
            ats: Vec::new(),
            keys: Vec::new(),
            chs: Vec::new(),
            sizes: Vec::new(),
            sent_ats: Vec::new(),
            msgs: Vec::new(),
            min_at: SimTime::MAX,
        }
    }
}

impl<M> DeliverBatch<M> {
    pub fn push(
        &mut self,
        at: SimTime,
        key: EventKey,
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    ) {
        self.ats.push(at);
        self.keys.push(key);
        self.chs.push(ch);
        self.sizes.push(size);
        self.sent_ats.push(sent_at);
        self.msgs.push(msg);
        self.min_at = self.min_at.min(at);
    }

    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Moves every entry into `queue` and resets the batch (capacity is
    /// kept, so a recycled batch keeps the exchange path allocation-free).
    pub fn drain_into(&mut self, queue: &mut KeyedQueue<M>) {
        let DeliverBatch {
            ats,
            keys,
            chs,
            sizes,
            sent_ats,
            msgs,
            min_at,
        } = self;
        for (i, msg) in msgs.drain(..).enumerate() {
            queue.push(Entry {
                at: ats[i],
                key: keys[i],
                ev: ShardEvent::Deliver {
                    ch: chs[i],
                    msg,
                    size: sizes[i],
                    sent_at: sent_ats[i],
                },
            });
        }
        ats.clear();
        keys.clear();
        chs.clear();
        sizes.clear();
        sent_ats.clear();
        *min_at = SimTime::MAX;
    }

    /// A copy of every entry, in batch order (the batch is untouched).
    pub fn entries(&self) -> impl Iterator<Item = Entry<M>> + '_
    where
        M: Clone,
    {
        (0..self.len()).map(|i| Entry {
            at: self.ats[i],
            key: self.keys[i],
            ev: ShardEvent::Deliver {
                ch: self.chs[i],
                msg: self.msgs[i].clone(),
                size: self.sizes[i],
                sent_at: self.sent_ats[i],
            },
        })
    }
}

/// A `(time, key)`-ordered event queue. Ties are broken by the
/// deterministic [`EventKey`] rather than local insertion order, which is
/// what makes pop order identical regardless of which shard pushed when.
///
/// The heap orders small `(time, key, slot)` records while the events sit
/// in a slab, so a sift moves a few words however large the message is;
/// a slot a pop frees is reused by a later push.
#[derive(Debug)]
pub(crate) struct KeyedQueue<M> {
    heap: BinaryHeap<Slot>,
    events: Vec<Option<ShardEvent<M>>>,
    free: Vec<u32>,
}

/// A queued event's coordinates and its slab index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    at: SimTime,
    key: EventKey,
    idx: u32,
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest (time, key).
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

impl<M> Default for KeyedQueue<M> {
    fn default() -> Self {
        KeyedQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> KeyedQueue<M> {
    #[inline]
    pub fn push(&mut self, entry: Entry<M>) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.events[idx as usize] = Some(entry.ev);
                idx
            }
            None => {
                self.events.push(Some(entry.ev));
                (self.events.len() - 1) as u32
            }
        };
        self.heap.push(Slot {
            at: entry.at,
            key: entry.key,
            idx,
        });
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Entry<M>> {
        let Slot { at, key, idx } = self.heap.pop()?;
        self.free.push(idx);
        let ev = self.events[idx as usize].take().expect("queued slot");
        Some(Entry { at, key, ev })
    }

    /// `(time, key)` of the earliest entry without removing it.
    pub fn peek(&self) -> Option<(SimTime, EventKey)> {
        self.heap.peek().map(|s| (s.at, s.key))
    }

    /// Iterates over every pending `(time, key, event)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, EventKey, &ShardEvent<M>)> {
        self.heap.iter().map(|s| {
            let ev = self.events[s.idx as usize].as_ref().expect("queued slot");
            (s.at, s.key, ev)
        })
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Makes room for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.events
            .reserve(additional.saturating_sub(self.free.len()));
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes and returns every entry belonging to `ch`, in no particular
    /// order (callers re-push into another queue, which re-establishes
    /// `(time, key)` order). Used when a rebind migrates a channel between
    /// shards.
    pub fn extract_channel(&mut self, ch: ChannelId) -> Vec<Entry<M>> {
        let slots = std::mem::take(&mut self.heap).into_vec();
        let mut extracted = Vec::new();
        for slot in slots {
            let ev = &mut self.events[slot.idx as usize];
            if ev.as_ref().and_then(ShardEvent::channel) == Some(ch) {
                self.free.push(slot.idx);
                extracted.push(Entry {
                    at: slot.at,
                    key: slot.key,
                    ev: ev.take().expect("queued slot"),
                });
            } else {
                self.heap.push(slot);
            }
        }
        extracted
    }
}

/// Send-side state of a channel, owned by the shard of its source node.
#[derive(Debug, Clone)]
pub(crate) struct SendSide {
    pub src: NodeId,
    pub dst: NodeId,
    pub open: bool,
    /// Arrival time of the latest message sent; enforces FIFO.
    pub fifo_tail: SimTime,
    pub sent: u64,
    pub dropped: u64,
}

impl SendSide {
    /// The send side of a newly opened channel.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        SendSide {
            src,
            dst,
            open: true,
            fifo_tail: SimTime::ZERO,
            sent: 0,
            dropped: 0,
        }
    }

    /// Later sends drop with [`DropReason::ChannelClosed`].
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Points later sends at new endpoints.
    pub fn rebind(&mut self, src: NodeId, dst: NodeId) {
        self.src = src;
        self.dst = dst;
    }
}

/// Delivery-side state of a channel, owned by the shard of its
/// destination node.
#[derive(Debug, Clone)]
pub(crate) struct DeliverSide<M> {
    pub dst: NodeId,
    pub open: bool,
    pub blocked: bool,
    pub held: VecDeque<HeldMessage<M>>,
    pub delivered: u64,
    pub dropped: u64,
}

impl<M> DeliverSide<M> {
    /// The delivery side of a newly opened channel.
    pub fn new(dst: NodeId) -> Self {
        DeliverSide {
            dst,
            open: true,
            blocked: false,
            held: VecDeque::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    /// Arrivals are held, in order, until [`ShardCore::release`].
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// Arrivals drop with [`DropReason::ChannelClosed`].
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Checks arrivals (including those already in flight) against a new
    /// destination.
    pub fn rebind(&mut self, dst: NodeId) {
        self.dst = dst;
    }
}

/// What an arriving message does, as decided by [`ShardCore::arrive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Hand it to the application.
    Deliver,
    /// Keep it, in order, until the blocked channel is released.
    Hold,
    /// Lose it.
    Drop(DropReason),
}

/// One shard's event loop state: its queue, the channel sides it owns,
/// its private route cache and scratch, its fast counters, and the
/// mailboxes it fills for the other shards.
#[derive(Debug)]
pub(crate) struct ShardCore<M> {
    pub id: u32,
    pub queue: KeyedQueue<M>,
    /// Send sides indexed by `ChannelId`; `None` when not owned here.
    pub send_sides: Vec<Option<SendSide>>,
    /// Delivery sides indexed by `ChannelId`; `None` when not owned here.
    pub deliver_sides: Vec<Option<DeliverSide<M>>>,
    pub route_cache: RouteCache,
    /// Hierarchical router; when set, `process` routes through it instead
    /// of the flat cache. Enabled on every shard together by the
    /// coordinator so routing policy is shard-count-independent.
    pub hier: Option<HierRouter>,
    pub counters: [u64; KernelCounter::COUNT],
    /// Occurrences produced since the last barrier, in processing
    /// (= `(time, key)`) order; swapped out by the coordinator at the
    /// barrier. A deque so the coordinator's K-way merge can pop from the
    /// front without draining into an intermediate iterator.
    pub fired: VecDeque<MergedEvent<M>>,
    /// Cross-shard deliveries generated this window, one SoA batch per
    /// destination shard; the coordinator moves each whole batch to the
    /// destination's `inbox` at the barrier.
    pub outboxes: Vec<DeliverBatch<M>>,
    /// Batches other shards produced in the previous window, deposited by
    /// the coordinator at the barrier and drained into `queue` at the
    /// start of this shard's next window.
    pub inbox: Vec<DeliverBatch<M>>,
    /// Spent batches handed back after their entries drained into the
    /// queue; reused as outbox replacements so exchange never allocates
    /// once warm.
    pub free: Vec<DeliverBatch<M>>,
    /// Time of the last processed event (drives the coordinator's clock).
    pub last_at: SimTime,
    /// Per-link byte accounting deltas (summed across shards on demand;
    /// u64 addition commutes, so totals are shard-count-independent).
    pub link_bytes: Vec<u64>,
    pub events_processed: u64,
    /// Nanoseconds spent inside `run_window` (per-shard busy time; the
    /// coordinator's critical-path accounting takes the max per window).
    pub busy_ns: u64,
    /// Events popped at or past the window end — the "shard advanced past
    /// the coordinator's safe time" invariant violation. Must stay zero.
    pub overrun_events: u64,
}

impl<M> ShardCore<M> {
    pub fn new(id: u32, shards: u32, topo: &Topology) -> Self {
        ShardCore {
            id,
            queue: KeyedQueue::default(),
            send_sides: Vec::new(),
            deliver_sides: Vec::new(),
            route_cache: RouteCache::new(topo),
            hier: None,
            counters: [0; KernelCounter::COUNT],
            fired: VecDeque::new(),
            outboxes: (0..shards).map(|_| DeliverBatch::default()).collect(),
            inbox: Vec::new(),
            free: Vec::new(),
            last_at: SimTime::ZERO,
            link_bytes: vec![0; topo.link_count()],
            events_processed: 0,
            busy_ns: 0,
            overrun_events: 0,
        }
    }

    fn bump(&mut self, c: KernelCounter) {
        self.counters[c as usize] += 1;
    }

    pub fn ensure_channel_slot(&mut self, ch: ChannelId) {
        let idx = ch.0 as usize;
        if self.send_sides.len() <= idx {
            self.send_sides.resize_with(idx + 1, || None);
            self.deliver_sides.resize_with(idx + 1, || None);
        }
    }

    /// Resolves the route a send on `(src, dst, size)` takes right now:
    /// through the hierarchical router when enabled, the flat
    /// epoch-invalidated cache otherwise.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<Arc<Route>> {
        match &mut self.hier {
            Some(h) => h.resolve(topo, src, dst, size),
            None => self.route_cache.resolve(topo, src, dst, size),
        }
    }

    /// Unblocks `ch`, whose delivery side this core owns, and re-queues
    /// its held messages at `at` in arrival order under the keys
    /// `(cmd, 1)`, `(cmd, 2)`, …. Returns how many were released.
    pub fn release(&mut self, ch: ChannelId, at: SimTime, cmd: u64) -> u64 {
        let Some(side) = self.deliver_sides[ch.0 as usize].as_mut() else {
            return 0;
        };
        side.blocked = false;
        let held = std::mem::take(&mut side.held);
        let released = held.len() as u64;
        for (i, h) in held.into_iter().enumerate() {
            self.queue.push(Entry {
                at,
                key: EventKey::new(cmd, i as u32 + 1),
                ev: ShardEvent::Deliver {
                    ch,
                    msg: h.msg,
                    size: h.size,
                    sent_at: h.sent_at,
                },
            });
        }
        released
    }

    /// Copies into this core everything `other` holds: its queued and
    /// inbox entries with their keys, the channel sides it owns, its
    /// counters and link bytes, and whether it routes hierarchically
    /// (the router itself starts cold). Returns `None`, leaving this core
    /// partly filled, when `other` still holds an un-routed send command.
    pub fn absorb(&mut self, other: &ShardCore<M>) -> Option<()>
    where
        M: Clone,
    {
        if other
            .queue
            .iter()
            .any(|(_, _, ev)| matches!(ev, ShardEvent::SendCmd { .. }))
        {
            return None;
        }
        let inbound: usize = other.inbox.iter().map(DeliverBatch::len).sum();
        self.queue.reserve(other.queue.len() + inbound);
        for (at, key, ev) in other.queue.iter() {
            let ev = ev.clone();
            self.queue.push(Entry { at, key, ev });
        }
        for b in &other.inbox {
            for e in b.entries() {
                self.queue.push(e);
            }
        }
        if let Some(last) = other.send_sides.len().checked_sub(1) {
            self.ensure_channel_slot(ChannelId(last as u64));
        }
        for (i, (s, d)) in other
            .send_sides
            .iter()
            .zip(&other.deliver_sides)
            .enumerate()
        {
            if let Some(s) = s {
                self.send_sides[i] = Some(s.clone());
            }
            if let Some(d) = d {
                self.deliver_sides[i] = Some(d.clone());
            }
        }
        for (c, n) in self.counters.iter_mut().zip(other.counters) {
            *c += n;
        }
        if self.link_bytes.len() < other.link_bytes.len() {
            self.link_bytes.resize(other.link_bytes.len(), 0);
        }
        for (b, n) in self.link_bytes.iter_mut().zip(&other.link_bytes) {
            *b += n;
        }
        if other.hier.is_some() && self.hier.is_none() {
            self.hier = Some(HierRouter::new());
        }
        Some(())
    }

    /// Runs this shard's loop over its inbox and every queued event
    /// strictly before `end`. Cross-shard events land in `outboxes`;
    /// occurrences land in `fired`. Safe to run concurrently with the
    /// other shards because it only reads `topo`/`map` and writes
    /// shard-owned state.
    pub fn run_window(&mut self, topo: &Topology, map: &ShardMap, end: SimTime) {
        let t0 = Instant::now();
        self.drain_inbox();
        while let Some((at, _)) = self.queue.peek() {
            if at >= end {
                break;
            }
            let entry = self.queue.pop().expect("peeked");
            if entry.at >= end {
                self.overrun_events += 1;
            }
            if let Some(e) = self.process(entry, topo, map) {
                self.fired.push_back(e);
            }
        }
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Moves every inbox batch into the queue, recycling the spent
    /// buffers into the free list.
    pub fn drain_inbox(&mut self) {
        for mut b in self.inbox.drain(..) {
            b.drain_into(&mut self.queue);
            self.free.push(b);
        }
    }

    /// Time of this shard's earliest pending entry, queued or still in
    /// its inbox.
    pub fn next_pending(&self) -> SimTime {
        let queued = self.queue.peek().map_or(SimTime::MAX, |(at, _)| at);
        self.inbox
            .iter()
            .map(|b| b.min_at)
            .fold(queued, SimTime::min)
    }

    /// Routes a send on `ch` at `at`: charges the route's links and
    /// keeps the channel FIFO. Returns the arrival time and the shard that
    /// owns the destination, or why the message drops (channel closed, no
    /// live route). The caller hands the message to [`ShardCore::enqueue`].
    pub fn route_send(
        &mut self,
        at: SimTime,
        ch: ChannelId,
        size: u64,
        topo: &Topology,
        map: &ShardMap,
    ) -> Result<(SimTime, ShardId), DropReason> {
        let side = self.send_sides[ch.0 as usize]
            .as_mut()
            .expect("send side owned by this shard");
        let (src, dst, open) = (side.src, side.dst, side.open);
        let route = if open {
            self.route(topo, src, dst, size)
        } else {
            None
        };
        let side = self.send_sides[ch.0 as usize].as_mut().expect("owned");
        let Some(route) = route else {
            side.dropped += 1;
            self.bump(KernelCounter::Dropped);
            return Err(if open {
                DropReason::Unreachable
            } else {
                DropReason::ChannelClosed
            });
        };
        let arrival = (at + route.transit).max(side.fifo_tail);
        side.fifo_tail = arrival;
        side.sent += 1;
        if self.link_bytes.len() < topo.link_count() {
            self.link_bytes.resize(topo.link_count(), 0); // the topology grew
        }
        for &lid in &route.links {
            self.link_bytes[lid.0 as usize] += size;
        }
        self.bump(KernelCounter::Sent);
        Ok((arrival, map.shard_of(dst)))
    }

    /// Queues a message [`ShardCore::route_send`] accepted: here when
    /// `dest` is this shard, in the outbox for `dest` otherwise.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn enqueue(
        &mut self,
        dest: ShardId,
        arrival: SimTime,
        key: EventKey,
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    ) {
        if dest.0 == self.id {
            self.queue.push(Entry {
                at: arrival,
                key,
                ev: ShardEvent::Deliver {
                    ch,
                    msg,
                    size,
                    sent_at,
                },
            });
        } else {
            self.outboxes[dest.0 as usize].push(arrival, key, ch, msg, size, sent_at);
        }
    }

    /// Decides what an arrival on `ch`, whose delivery side this core
    /// owns, does now, and counts it on the side and in the core
    /// counters. The caller hands a held message to [`ShardCore::hold`].
    pub fn arrive(&mut self, ch: ChannelId, topo: &Topology) -> Arrival {
        let side = self.deliver_sides[ch.0 as usize]
            .as_mut()
            .expect("deliver side owned by this shard");
        let arrival = if !side.open {
            Arrival::Drop(DropReason::ChannelClosed)
        } else if side.blocked {
            Arrival::Hold
        } else if !topo.node(side.dst).is_up() {
            Arrival::Drop(DropReason::DestinationDown)
        } else {
            Arrival::Deliver
        };
        match arrival {
            Arrival::Deliver => {
                side.delivered += 1;
                self.bump(KernelCounter::Delivered);
            }
            Arrival::Hold => self.bump(KernelCounter::Held),
            Arrival::Drop(_) => {
                side.dropped += 1;
                self.bump(KernelCounter::Dropped);
            }
        }
        arrival
    }

    /// Queues a message that [`ShardCore::arrive`] held on `ch`.
    #[inline]
    pub fn hold(&mut self, ch: ChannelId, held: HeldMessage<M>) {
        self.deliver_sides[ch.0 as usize]
            .as_mut()
            .expect("deliver side owned by this shard")
            .held
            .push_back(held);
    }

    /// Processes one event against shard-owned state and returns the
    /// occurrence it produces, if any (a send that routes and a delivery
    /// that is held produce none). Also used by the coordinator's
    /// sequential sync steps, which drain the outboxes after every call
    /// instead of waiting for a barrier.
    pub fn process(
        &mut self,
        entry: Entry<M>,
        topo: &Topology,
        map: &ShardMap,
    ) -> Option<MergedEvent<M>> {
        self.events_processed += 1;
        let Entry { at, key, ev } = entry;
        self.last_at = at;
        let what = match ev {
            ShardEvent::SendCmd { ch, msg, size } => match self.route_send(at, ch, size, topo, map)
            {
                Ok((arrival, dest)) => {
                    self.enqueue(dest, arrival, key, ch, msg, size, at);
                    return None;
                }
                Err(reason) => ShardFired::Dropped {
                    channel: ch,
                    msg,
                    reason,
                    at_send: true,
                },
            },
            ShardEvent::Deliver {
                ch,
                msg,
                size,
                sent_at,
            } => match self.arrive(ch, topo) {
                Arrival::Deliver => ShardFired::Delivered {
                    channel: ch,
                    msg,
                    size,
                    sent_at,
                },
                Arrival::Hold => {
                    self.hold(ch, HeldMessage { msg, size, sent_at });
                    return None; // invisible to the caller
                }
                Arrival::Drop(reason) => ShardFired::Dropped {
                    channel: ch,
                    msg,
                    reason,
                    at_send: false,
                },
            },
            ShardEvent::Timer { tag } => ShardFired::Timer { tag },
            ShardEvent::Fault(_) => unreachable!("only the serial kernel queues faults"),
        };
        Some(MergedEvent { at, key, what })
    }

    /// Merged per-channel stats contribution from the sides this shard
    /// owns.
    pub fn channel_stats_into(&self, ch: ChannelId, stats: &mut ChannelStats) {
        if let Some(Some(s)) = self.send_sides.get(ch.0 as usize) {
            stats.sent += s.sent;
            stats.dropped += s.dropped;
        }
        if let Some(Some(d)) = self.deliver_sides.get(ch.0 as usize) {
            stats.delivered += d.delivered;
            stats.dropped += d.dropped;
            stats.held += d.held.len() as u64;
        }
    }

    /// This shard's route-cache counters.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.route_cache.stats()
    }

    /// This shard's hierarchical-router counters, if enabled.
    pub fn hier_stats(&self) -> Option<HierStats> {
        self.hier.as_ref().map(HierRouter::stats)
    }

    /// Total bytes this shard accounted to `lid`.
    pub fn link_bytes(&self, lid: LinkId) -> u64 {
        self.link_bytes.get(lid.0 as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::NodeSpec;

    #[test]
    fn round_robin_covers_all_shards() {
        let map = ShardMap::round_robin(16, 4);
        let mut seen = [0u32; 4];
        for i in 0..16 {
            seen[map.shard_of(NodeId(i)).0 as usize] += 1;
        }
        assert_eq!(seen, [4, 4, 4, 4]);
    }

    #[test]
    fn extend_continues_the_pattern() {
        let mut map = ShardMap::round_robin(5, 3);
        map.extend_to(7);
        assert_eq!(map.shard_of(NodeId(5)), ShardId(2));
        assert_eq!(map.shard_of(NodeId(6)), ShardId(0));
        assert_eq!(map.node_count(), 7);
    }

    #[test]
    fn lookahead_is_min_cross_shard_latency() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0));
        let b = t.add_node(NodeSpec::new("b", 1.0));
        let c = t.add_node(NodeSpec::new("c", 1.0));
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(3), 1e6));
        t.add_link(LinkSpec::new(b, c, SimDuration::from_millis(7), 1e6));
        // K=2 round robin: a,c on shard 0; b on shard 1 — both links cross.
        let map = ShardMap::round_robin(3, 2);
        assert_eq!(map.lookahead(&t), SimDuration::from_millis(3));
        // K=1: nothing crosses, lookahead unbounded.
        let map1 = ShardMap::round_robin(3, 1);
        assert_eq!(map1.lookahead(&t), SimDuration::MAX);
    }

    #[test]
    fn keyed_queue_orders_by_time_then_key() {
        let mut q: KeyedQueue<u32> = KeyedQueue::default();
        let t = SimTime::from_millis(1);
        q.push(Entry {
            at: t,
            key: EventKey::new(9, 0),
            ev: ShardEvent::Timer { tag: 9 },
        });
        q.push(Entry {
            at: t,
            key: EventKey::new(2, 1),
            ev: ShardEvent::Timer { tag: 21 },
        });
        q.push(Entry {
            at: t,
            key: EventKey::new(2, 0),
            ev: ShardEvent::Timer { tag: 20 },
        });
        q.push(Entry {
            at: SimTime::ZERO,
            key: EventKey::new(99, 0),
            ev: ShardEvent::Timer { tag: 99 },
        });
        let tags: Vec<u64> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.ev {
                ShardEvent::Timer { tag } => tag,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(tags, vec![99, 20, 21, 9]);
    }

    #[test]
    fn extract_channel_pulls_only_that_channel() {
        let mut q: KeyedQueue<u32> = KeyedQueue::default();
        for i in 0..6u64 {
            q.push(Entry {
                at: SimTime::from_micros(i),
                key: EventKey::new(i, 0),
                ev: ShardEvent::SendCmd {
                    ch: ChannelId(i % 2),
                    msg: i as u32,
                    size: 1,
                },
            });
        }
        let pulled = q.extract_channel(ChannelId(1));
        assert_eq!(pulled.len(), 3);
        assert_eq!(q.len(), 3);
        assert!(pulled.iter().all(|e| e.ev.channel() == Some(ChannelId(1))));
    }
}

//! The discrete-event simulation kernel.
//!
//! A [`Kernel`] owns virtual time, the event queue, the [`Topology`],
//! channels and the fault schedule. Higher layers (the component runtime in
//! `aas-core`) drive it by calling [`Kernel::step`] in a loop and reacting
//! to the [`Fired`] occurrences it yields.

use crate::channel::{Channel, ChannelId, ChannelStats, DropReason, HeldMessage};
use crate::event::EventQueue;
use crate::fault::{FaultKind, FaultSchedule};
use crate::hier::{HierRouter, HierStats};
use crate::network::{Route, RouteCache, RouteCacheStats, Topology};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::stats::Counters;
use crate::time::{SimDuration, SimTime};
use aas_obs::{SpanId, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;

/// The kernel's per-message lifecycle counters, enum-indexed so the hot
/// path bumps a fixed array slot instead of walking a string-keyed map.
/// [`Kernel::counters`] exports them into a [`Counters`] under their
/// historical names (`sent`, `delivered`, …) for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum KernelCounter {
    /// Messages accepted by [`Kernel::send`].
    Sent,
    /// Messages handed to the application.
    Delivered,
    /// Messages dropped at send or delivery time.
    Dropped,
    /// Messages held by blocked channels.
    Held,
    /// Held messages released by [`Kernel::unblock_channel`].
    Released,
    /// Faults applied to the topology.
    FaultsApplied,
}

impl KernelCounter {
    /// Number of counters (the fast array's length).
    pub const COUNT: usize = 6;

    /// The historical string name this counter exports under.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelCounter::Sent => "sent",
            KernelCounter::Delivered => "delivered",
            KernelCounter::Dropped => "dropped",
            KernelCounter::Held => "held",
            KernelCounter::Released => "released",
            KernelCounter::FaultsApplied => "faults_applied",
        }
    }

    /// All counters, in export order.
    pub const ALL: [KernelCounter; KernelCounter::COUNT] = [
        KernelCounter::Sent,
        KernelCounter::Delivered,
        KernelCounter::Dropped,
        KernelCounter::Held,
        KernelCounter::Released,
        KernelCounter::FaultsApplied,
    ];
}

/// Outcome of a [`Kernel::send`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was accepted and will arrive after this transit time
    /// (plus any FIFO queueing behind earlier messages).
    Sent(SimDuration),
    /// The message was dropped immediately.
    Dropped(DropReason),
}

impl SendOutcome {
    /// True if the message was accepted.
    #[must_use]
    pub fn is_sent(&self) -> bool {
        matches!(self, SendOutcome::Sent(_))
    }
}

/// Internal event representation. Crate-visible so the sharded kernel's
/// serial projection ([`crate::coordinator::ShardedKernel::fork_serial`])
/// can rebuild a serial queue from shard state.
#[derive(Debug, Clone)]
pub(crate) enum KernelEvent<M> {
    Deliver {
        channel: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    },
    Timer {
        tag: u64,
    },
    Fault(FaultKind),
}

/// An occurrence handed to the caller by [`Kernel::step`].
#[derive(Debug)]
pub enum Fired<M> {
    /// A message arrived on a channel.
    Delivered {
        /// The channel it arrived on.
        channel: ChannelId,
        /// The payload.
        msg: M,
        /// Payload size in bytes (as given at send time).
        size: u64,
        /// When it was sent; `now - sent_at` is its end-to-end delay.
        sent_at: SimTime,
    },
    /// A timer set with [`Kernel::set_timer`] expired.
    Timer {
        /// The tag given at scheduling time.
        tag: u64,
    },
    /// A scheduled fault was applied to the topology. The topology has
    /// already been updated when this is yielded.
    Fault(FaultKind),
    /// A message was dropped at delivery time (destination down or channel
    /// closed). The payload is handed back so higher layers can account for
    /// the loss precisely — or retry the send under their own policy.
    DroppedAtDelivery {
        /// The channel the message was traveling on.
        channel: ChannelId,
        /// The payload that failed to arrive.
        msg: M,
        /// Why it was dropped.
        reason: DropReason,
    },
}

/// The simulation kernel.
///
/// # Examples
///
/// ```
/// use aas_sim::kernel::{Kernel, Fired};
/// use aas_sim::network::Topology;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
/// let mut k: Kernel<&'static str> = Kernel::new(topo, 42);
/// let ids: Vec<_> = k.topology().node_ids().collect();
/// let ch = k.open_channel(ids[0], ids[1]);
/// k.send(ch, "hello", 100);
/// let (at, fired) = k.step().expect("one event pending");
/// match fired {
///     Fired::Delivered { msg, .. } => assert_eq!(msg, "hello"),
///     other => panic!("unexpected {other:?}"),
/// }
/// assert!(at > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct Kernel<M> {
    now: SimTime,
    queue: EventQueue<KernelEvent<M>>,
    topology: Topology,
    channels: Vec<Channel<M>>,
    rng: SimRng,
    /// Enum-indexed fast counters; exported on demand by
    /// [`Kernel::counters`].
    counters: [u64; KernelCounter::COUNT],
    route_cache: RouteCache,
    /// Hierarchical router; when set, routing goes through it instead of
    /// the flat epoch-flushed cache.
    hier: Option<HierRouter>,
    tracer: Tracer,
    next_timer_tag: u64,
}

impl<M> Kernel<M> {
    /// Creates a kernel over `topology`, seeded with `seed`.
    #[must_use]
    pub fn new(topology: Topology, seed: u64) -> Self {
        let route_cache = RouteCache::new(&topology);
        Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            topology,
            channels: Vec::new(),
            rng: SimRng::seed_from(seed),
            counters: [0; KernelCounter::COUNT],
            route_cache,
            hier: None,
            tracer: Tracer::new(),
            next_timer_tag: 0,
        }
    }

    /// Crate-internal constructor from pre-built parts — the sharded
    /// kernel's serial projection assembles a `Kernel` out of shard-owned
    /// state at a barrier (see
    /// [`crate::coordinator::ShardedKernel::fork_serial`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        now: SimTime,
        queue: EventQueue<KernelEvent<M>>,
        topology: Topology,
        channels: Vec<Channel<M>>,
        seed: u64,
        counters: [u64; KernelCounter::COUNT],
        hier: bool,
        next_timer_tag: u64,
    ) -> Self {
        let route_cache = RouteCache::new(&topology);
        Kernel {
            now,
            queue,
            topology,
            channels,
            rng: SimRng::seed_from(seed),
            counters,
            route_cache,
            hier: hier.then(HierRouter::new),
            tracer: Tracer::new(),
            next_timer_tag,
        }
    }

    #[inline]
    fn bump(&mut self, c: KernelCounter) {
        self.counters[c as usize] += 1;
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology (read access).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The topology (mutable access, e.g. for job execution on nodes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The kernel's RNG stream (deterministic per seed).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Kernel-level counters (`sent`, `delivered`, `dropped`, …), exported
    /// from the enum-indexed fast array into a [`Counters`] snapshot. The
    /// per-message path never touches a string-keyed map; this export only
    /// runs when a report or test asks for it.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for k in KernelCounter::ALL {
            c.add(k.name(), self.counters[k as usize]);
        }
        c
    }

    /// Reads one fast counter directly, no export.
    #[must_use]
    pub fn counter(&self, c: KernelCounter) -> u64 {
        self.counters[c as usize]
    }

    /// Resolves the route a send on `(src, dst, size)` would take right
    /// now, through the kernel's active router — the hierarchical one when
    /// [`Kernel::enable_hier_routing`] has been called, the flat
    /// epoch-invalidated [`RouteCache`] otherwise. Exposed so tests and
    /// benches can audit exactly what the send path uses.
    pub fn route(&mut self, src: NodeId, dst: NodeId, size: u64) -> Option<Arc<Route>> {
        match &mut self.hier {
            Some(h) => h.resolve(&self.topology, src, dst, size),
            None => self.route_cache.resolve(&self.topology, src, dst, size),
        }
    }

    /// Route-cache performance counters (hits, misses, invalidations).
    /// Stays at zero after [`Kernel::enable_hier_routing`] — see
    /// [`Kernel::hier_stats`] then.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.route_cache.stats()
    }

    /// Switches routing to a [`HierRouter`] with region-scoped partial
    /// invalidation. Requires every node to carry a region assignment
    /// (see [`Topology::set_node_region`]) to actually route
    /// hierarchically; unassigned topologies fall back to flat searches
    /// per query. Calling this again resets the router.
    pub fn enable_hier_routing(&mut self) {
        self.hier = Some(HierRouter::new());
    }

    /// Hierarchical-router counters; `None` until
    /// [`Kernel::enable_hier_routing`].
    #[must_use]
    pub fn hier_stats(&self) -> Option<HierStats> {
        self.hier.as_ref().map(HierRouter::stats)
    }

    /// Replaces the kernel's tracer, typically with a shared workspace
    /// [`Tracer`] so kernel hop events interleave with runtime spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The kernel's tracer. Per-message hop recording is off until
    /// [`Tracer::set_hop_sampling`] enables it.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ----- channels --------------------------------------------------

    /// Opens a FIFO channel from `src` to `dst`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist in the topology.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        assert!((src.0 as usize) < self.topology.node_count(), "bad src");
        assert!((dst.0 as usize) < self.topology.node_count(), "bad dst");
        let id = ChannelId(self.channels.len() as u64);
        self.channels.push(Channel::new(id, src, dst));
        id
    }

    /// Closes a channel; messages still in flight will be dropped at
    /// delivery time with [`DropReason::ChannelClosed`].
    pub fn close_channel(&mut self, ch: ChannelId) {
        self.channel_mut(ch).open = false;
    }

    /// Rebinds a channel's endpoints (used when a component migrates).
    /// Messages already in flight are unaffected; new sends use the new
    /// endpoints.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist in the topology — the same
    /// validation [`Kernel::open_channel`] applies, so a bad migration
    /// fails at the rebind instead of at a later routing query.
    pub fn rebind_channel(&mut self, ch: ChannelId, src: NodeId, dst: NodeId) {
        assert!((src.0 as usize) < self.topology.node_count(), "bad src");
        assert!((dst.0 as usize) < self.topology.node_count(), "bad dst");
        let c = self.channel_mut(ch);
        c.src = src;
        c.dst = dst;
    }

    /// The `(src, dst)` endpoints of a channel.
    #[must_use]
    pub fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId) {
        let c = self.channel(ch);
        (c.src, c.dst)
    }

    /// Per-channel statistics.
    #[must_use]
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        self.channel(ch).stats
    }

    /// Whether the channel is currently blocked.
    #[must_use]
    pub fn is_blocked(&self, ch: ChannelId) -> bool {
        self.channel(ch).blocked
    }

    /// Blocks a channel: subsequent deliveries are held, in order, until
    /// [`Kernel::unblock_channel`]. Sending is still allowed (messages
    /// travel and then wait at the destination), exactly the Polylith
    /// "manage messages in transit" behaviour the paper describes.
    pub fn block_channel(&mut self, ch: ChannelId) {
        self.channel_mut(ch).blocked = true;
        self.tracer.event(
            SpanId::NONE,
            "queue",
            &format!("block ch={}", ch.0),
            self.now.as_micros(),
        );
    }

    /// Unblocks a channel, rescheduling all held messages for immediate
    /// delivery in their original order.
    pub fn unblock_channel(&mut self, ch: ChannelId) {
        let now = self.now;
        let c = self.channel_mut(ch);
        c.blocked = false;
        // Take the deque wholesale and push straight into the event queue —
        // no intermediate collection.
        let held: VecDeque<HeldMessage<M>> = std::mem::take(&mut c.held);
        let held_count = held.len() as u64;
        c.stats.held = 0;
        for h in held {
            self.queue.push(
                now,
                KernelEvent::Deliver {
                    channel: ch,
                    msg: h.msg,
                    size: h.size,
                    sent_at: h.sent_at,
                },
            );
        }
        self.counters[KernelCounter::Released as usize] += held_count;
        self.tracer.event(
            SpanId::NONE,
            "queue",
            &format!("release ch={} held={held_count}", ch.0),
            now.as_micros(),
        );
    }

    /// Sends `msg` of `size` bytes on channel `ch`.
    ///
    /// Transit time is the routed path's latency plus serialization delay;
    /// FIFO order per channel is enforced even when later routes would be
    /// faster.
    pub fn send(&mut self, ch: ChannelId, msg: M, size: u64) -> SendOutcome {
        match self.try_send(ch, msg, size) {
            Ok(transit) => SendOutcome::Sent(transit),
            Err((reason, _)) => SendOutcome::Dropped(reason),
        }
    }

    /// Like [`Kernel::send`], but an immediately dropped message is handed
    /// back with the reason, so a caller that may retry it needs no copy
    /// made before the attempt.
    ///
    /// # Errors
    ///
    /// Returns the drop reason and `msg` when the channel is closed or its
    /// destination unreachable; the drop is counted as by `send`.
    pub fn try_send(
        &mut self,
        ch: ChannelId,
        msg: M,
        size: u64,
    ) -> Result<SimDuration, (DropReason, M)> {
        let (src, dst, open) = {
            let c = self.channel(ch);
            (c.src, c.dst, c.open)
        };
        if !open {
            self.channel_mut(ch).stats.dropped += 1;
            self.bump(KernelCounter::Dropped);
            return Err((DropReason::ChannelClosed, msg));
        }
        let Some(route) = self.route(src, dst, size) else {
            self.channel_mut(ch).stats.dropped += 1;
            self.bump(KernelCounter::Dropped);
            return Err((DropReason::Unreachable, msg));
        };
        self.topology.account_route(&route, size);
        let arrival = (self.now + route.transit).max(self.channel(ch).fifo_tail);
        {
            let c = self.channel_mut(ch);
            c.fifo_tail = arrival;
            c.stats.sent += 1;
        }
        self.bump(KernelCounter::Sent);
        if self.tracer.sample_hop() {
            self.tracer.hop(
                "send",
                &format!("ch={} {}->{}", ch.0, src.0, dst.0),
                self.now.as_micros(),
            );
        }
        let sent_at = self.now;
        self.queue.push(
            arrival,
            KernelEvent::Deliver {
                channel: ch,
                msg,
                size,
                sent_at,
            },
        );
        Ok(arrival.saturating_since(self.now))
    }

    fn channel(&self, ch: ChannelId) -> &Channel<M> {
        &self.channels[ch.0 as usize]
    }

    fn channel_mut(&mut self, ch: ChannelId) -> &mut Channel<M> {
        &mut self.channels[ch.0 as usize]
    }

    // ----- timers -----------------------------------------------------

    /// Schedules a timer to fire after `delay`; returns its tag.
    pub fn set_timer(&mut self, delay: SimDuration) -> u64 {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        self.queue
            .push(self.now + delay, KernelEvent::Timer { tag });
        tag
    }

    /// Schedules a timer with a caller-chosen tag. Tags supplied here may
    /// collide with automatic tags if mixed carelessly; prefer one scheme
    /// per runtime.
    pub fn set_timer_with_tag(&mut self, delay: SimDuration, tag: u64) {
        self.queue
            .push(self.now + delay, KernelEvent::Timer { tag });
    }

    // ----- faults -----------------------------------------------------

    /// Injects every fault in `schedule` as future events.
    pub fn inject_faults(&mut self, schedule: FaultSchedule) {
        for (at, kind) in schedule.into_entries() {
            self.queue.push(at, KernelEvent::Fault(kind));
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        // Liveness flips go through the topology-level mutators so the
        // routing epoch bumps and the route cache invalidates.
        match kind {
            FaultKind::NodeCrash(n) => self.topology.set_node_up(n, false),
            FaultKind::NodeRecover(n) => self.topology.set_node_up(n, true),
            FaultKind::LinkDown(l) => self.topology.set_link_up(l, false),
            FaultKind::LinkUp(l) => self.topology.set_link_up(l, true),
        }
        self.bump(KernelCounter::FaultsApplied);
    }

    // ----- the engine loop ---------------------------------------------

    /// Advances to the next event and returns it, or `None` when the queue
    /// is empty. Virtual time never goes backwards.
    pub fn step(&mut self) -> Option<(SimTime, Fired<M>)> {
        loop {
            let (at, ev) = self.queue.pop()?;
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            match ev {
                KernelEvent::Timer { tag } => {
                    return Some((at, Fired::Timer { tag }));
                }
                KernelEvent::Fault(kind) => {
                    self.apply_fault(kind);
                    return Some((at, Fired::Fault(kind)));
                }
                KernelEvent::Deliver {
                    channel,
                    msg,
                    size,
                    sent_at,
                } => {
                    let (open, blocked, dst) = {
                        let c = self.channel(channel);
                        (c.open, c.blocked, c.dst)
                    };
                    if !open {
                        self.channel_mut(channel).stats.dropped += 1;
                        self.bump(KernelCounter::Dropped);
                        return Some((
                            at,
                            Fired::DroppedAtDelivery {
                                channel,
                                msg,
                                reason: DropReason::ChannelClosed,
                            },
                        ));
                    }
                    if blocked {
                        let c = self.channel_mut(channel);
                        c.held.push_back(HeldMessage { msg, size, sent_at });
                        c.stats.held = c.held.len() as u64;
                        self.bump(KernelCounter::Held);
                        if self.tracer.sample_hop() {
                            self.tracer
                                .hop("hold", &format!("ch={}", channel.0), at.as_micros());
                        }
                        continue; // invisible to the application; keep stepping
                    }
                    if !self.topology.node(dst).is_up() {
                        self.channel_mut(channel).stats.dropped += 1;
                        self.bump(KernelCounter::Dropped);
                        return Some((
                            at,
                            Fired::DroppedAtDelivery {
                                channel,
                                msg,
                                reason: DropReason::DestinationDown,
                            },
                        ));
                    }
                    self.channel_mut(channel).stats.delivered += 1;
                    self.bump(KernelCounter::Delivered);
                    if self.tracer.sample_hop() {
                        let delay_us = at.saturating_since(sent_at).as_micros();
                        self.tracer.hop(
                            "deliver",
                            &format!("ch={} delay_us={delay_us}", channel.0),
                            at.as_micros(),
                        );
                    }
                    return Some((
                        at,
                        Fired::Delivered {
                            channel,
                            msg,
                            size,
                            sent_at,
                        },
                    ));
                }
            }
        }
    }

    /// Whether any events are pending.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Time of the next pending event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs a job of `cost` work units on `node`, returning the total delay
    /// (queueing + service) from now until completion, or `None` if the
    /// node is down.
    pub fn run_job(&mut self, node: NodeId, cost: f64) -> Option<SimDuration> {
        let now = self.now;
        let n = self.topology.node_mut(node);
        if !n.is_up() {
            return None;
        }
        Some(n.run_job(now, cost))
    }
}

impl<M: Clone> Kernel<M> {
    /// Forks the kernel: a cheap, O(state) deep copy that shares **no**
    /// mutable state with the original. The fork carries the same virtual
    /// time, pending event queue (tie order included), topology, channel
    /// halves (open/blocked flags, FIFO tails, held messages, stats),
    /// lifecycle counters, RNG stream position and timer-tag allocator —
    /// so a fork fed the same inputs replays **byte-identically** to the
    /// mainline, and dropping a fork never perturbs the mainline (see
    /// `tests/fork_determinism.rs`).
    ///
    /// Two pieces are deliberately rebuilt rather than copied:
    ///
    /// - the route cache (and hierarchical router, when enabled) starts
    ///   cold — route *resolution* is a pure function of the topology, so
    ///   behaviour is identical; only `route_cache_stats` differ;
    /// - the tracer is a fresh, inert [`Tracer`] — a fork never writes
    ///   into the mainline's span/event ring.
    #[must_use]
    pub fn fork(&self) -> Kernel<M> {
        Kernel {
            now: self.now,
            queue: self.queue.clone(),
            topology: self.topology.clone(),
            channels: self.channels.clone(),
            rng: self.rng.clone(),
            counters: self.counters,
            route_cache: RouteCache::new(&self.topology),
            hier: self.hier.is_some().then(HierRouter::new),
            tracer: Tracer::new(),
            next_timer_tag: self.next_timer_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn kernel2() -> (Kernel<u32>, NodeId, NodeId) {
        let topo = Topology::clique(2, 100.0, SimDuration::from_millis(10), 1e6);
        let k: Kernel<u32> = Kernel::new(topo, 1);
        (k, NodeId(0), NodeId(1))
    }

    fn drain(k: &mut Kernel<u32>) -> Vec<(SimTime, Fired<u32>)> {
        std::iter::from_fn(|| k.step()).collect()
    }

    #[test]
    fn message_arrives_after_transit() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let out = k.send(ch, 7, 1000);
        // 10 ms latency + 1000B / 1MB/s = 1 ms  => 11 ms
        assert_eq!(out, SendOutcome::Sent(SimDuration::from_millis(11)));
        let (at, fired) = k.step().unwrap();
        assert_eq!(at, SimTime::from_millis(11));
        assert!(matches!(fired, Fired::Delivered { msg: 7, .. }));
        assert_eq!(k.now(), SimTime::from_millis(11));
    }

    #[test]
    fn fifo_holds_even_for_smaller_later_messages() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 1_000_000); // slow: 10ms + 1s
        k.send(ch, 2, 0); // fast alone, but must queue behind
        let events = drain(&mut k);
        let order: Vec<u32> = events
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Delivered { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn blocked_channel_holds_and_releases_in_order() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.block_channel(ch);
        for i in 0..5 {
            k.send(ch, i, 10);
        }
        // Stepping now yields nothing visible: all messages are held.
        assert!(k.step().is_none());
        assert_eq!(k.channel_stats(ch).held, 5);

        k.unblock_channel(ch);
        let order: Vec<u32> = drain(&mut k)
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Delivered { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        let stats = k.channel_stats(ch);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.held, 0);
    }

    #[test]
    fn closed_channel_drops_at_send_and_delivery() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 10); // in flight
        k.close_channel(ch);
        let out = k.send(ch, 2, 10);
        assert_eq!(out, SendOutcome::Dropped(DropReason::ChannelClosed));
        let events = drain(&mut k);
        assert!(events.iter().any(|(_, f)| matches!(
            f,
            Fired::DroppedAtDelivery {
                reason: DropReason::ChannelClosed,
                ..
            }
        )));
        assert_eq!(k.channel_stats(ch).dropped, 2);
    }

    #[test]
    fn crashing_destination_drops_in_flight_messages() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let mut faults = FaultSchedule::new();
        faults.at(SimTime::from_millis(1), FaultKind::NodeCrash(b));
        k.inject_faults(faults);
        k.send(ch, 1, 10); // arrives at ~10ms, after the crash
        let events = drain(&mut k);
        assert!(events.iter().any(|(_, f)| matches!(f, Fired::Fault(_))));
        assert!(events.iter().any(|(_, f)| matches!(
            f,
            Fired::DroppedAtDelivery {
                reason: DropReason::DestinationDown,
                ..
            }
        )));
    }

    #[test]
    fn dead_source_cannot_send() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.topology_mut().set_node_up(a, false);
        assert_eq!(
            k.send(ch, 1, 10),
            SendOutcome::Dropped(DropReason::Unreachable)
        );
    }

    #[test]
    fn timers_fire_in_order_with_tags() {
        let (mut k, _, _) = kernel2();
        let t1 = k.set_timer(SimDuration::from_millis(20));
        let t2 = k.set_timer(SimDuration::from_millis(10));
        let fired: Vec<u64> = drain(&mut k)
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Timer { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![t2, t1]);
    }

    #[test]
    fn recovery_restores_delivery() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let mut faults = FaultSchedule::new();
        faults.node_outage(b, SimTime::from_millis(0), SimTime::from_millis(50));
        k.inject_faults(faults);
        // Step through both fault events.
        let _ = k.step();
        let _ = k.step();
        assert_eq!(k.now(), SimTime::from_millis(50));
        let out = k.send(ch, 9, 10);
        assert!(out.is_sent());
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|(_, f)| matches!(f, Fired::Delivered { msg: 9, .. })));
    }

    #[test]
    fn rebind_affects_future_sends_only() {
        let topo = Topology::clique(3, 100.0, SimDuration::from_millis(10), 1e6);
        let mut k: Kernel<u32> = Kernel::new(topo, 1);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send(ch, 1, 10);
        k.rebind_channel(ch, NodeId(0), NodeId(2));
        assert_eq!(k.channel_endpoints(ch), (NodeId(0), NodeId(2)));
        k.send(ch, 2, 10);
        let delivered = drain(&mut k)
            .iter()
            .filter(|(_, f)| matches!(f, Fired::Delivered { .. }))
            .count();
        assert_eq!(delivered, 2);
    }

    #[test]
    fn counters_track_lifecycle() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 10);
        let _ = drain(&mut k);
        assert_eq!(k.counters().get("sent"), 1);
        assert_eq!(k.counters().get("delivered"), 1);
        assert_eq!(k.counters().get("dropped"), 0);
    }

    #[test]
    fn hop_tracing_is_off_by_default_and_sampled_when_on() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        for i in 0..10 {
            k.send(ch, i, 10);
        }
        let _ = drain(&mut k);
        assert!(k.tracer().is_empty(), "no hops recorded with sampling off");

        k.tracer().set_hop_sampling(1);
        for i in 0..5 {
            k.send(ch, i, 10);
        }
        let _ = drain(&mut k);
        let events = k.tracer().events();
        let sends = events.iter().filter(|e| e.name == "send").count();
        let delivers = events.iter().filter(|e| e.name == "deliver").count();
        assert_eq!(sends, 5);
        assert_eq!(delivers, 5);
    }

    #[test]
    fn block_and_release_leave_queue_events() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.block_channel(ch);
        k.send(ch, 1, 10);
        assert!(k.step().is_none());
        k.unblock_channel(ch);
        let _ = drain(&mut k);
        let queue_events: Vec<String> = k
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.name == "queue")
            .map(|e| e.detail)
            .collect();
        assert_eq!(queue_events.len(), 2);
        assert!(queue_events[0].starts_with("block"));
        assert!(queue_events[1].starts_with("release"));
        assert!(queue_events[1].contains("held=1"));
    }

    #[test]
    fn run_job_respects_node_state() {
        let (mut k, a, _) = kernel2();
        assert!(k.run_job(a, 10.0).is_some());
        k.topology_mut().set_node_up(a, false);
        assert!(k.run_job(a, 10.0).is_none());
    }
}

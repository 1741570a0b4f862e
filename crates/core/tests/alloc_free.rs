//! Proves the Runtime's warm message path allocates (almost) nothing:
//! inject → kernel → deliver → job done → component → dispatch →
//! connector → kernel → deliver → job done, on a one-hop direct
//! pipeline whose component itself allocates nothing (an `Int` payload,
//! a static op and a static port); and the same for a request answered
//! by a routed reply. It also pins what copying and rewriting a map
//! payload costs.
//!
//! The Runtime counterpart of `crates/sim/tests/alloc_free.rs`. A
//! counting global allocator wraps the system allocator and counts only
//! on the enrolled test thread while measuring, so other tests running
//! in parallel threads are not charged. The allocator state is
//! process-global, so the tests here serialize on a mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value, ValueMap};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Global gate: when false the allocator counts nothing anywhere.
static MEASURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` init keeps TLS access allocation-free and destructor-free,
    // so reading it inside the allocator itself is safe.
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    MEASURING.load(Ordering::Relaxed) && ENROLLED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests in this file: MEASURING/ALLOCS are process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with counting enabled on this thread and returns the
/// allocations it made.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ENROLLED.with(|e| e.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.store(true, Ordering::SeqCst);
    let r = f();
    MEASURING.store(false, Ordering::SeqCst);
    ENROLLED.with(|e| e.set(false));
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Forwards every `frame` out of port `out` with an `Int` payload; a
/// component with nothing bound to `out` (the sink) just counts.
#[derive(Debug, Default)]
struct Relay {
    seen: i64,
}

impl Component for Relay {
    fn type_name(&self) -> &str {
        "Relay"
    }

    fn provided(&self) -> Interface {
        Interface::new(
            "Relay",
            vec![
                Signature::one_way("frame"),
                Signature::one_way("ask"),
                Signature::one_way("ping"),
                Signature::one_way("ping.reply"),
            ],
        )
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: &Message) -> Result<(), ComponentError> {
        self.seen += 1;
        match (ctx.self_name(), msg.op.as_str()) {
            ("src", "frame") => ctx.send("out", Message::event("frame", msg.value.clone())),
            ("src", "ask") => ctx.send("out", Message::request("ping", msg.value.clone())),
            (_, "ping") => ctx.reply(msg.value.clone()),
            _ => {}
        }
        Ok(())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Relay", 1).with_field("seen", Value::Int(self.seen))
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
        self.seen = snap.require("seen")?.as_int().unwrap_or(0);
        Ok(())
    }
}

/// `src → c (direct) → sink`, on two nodes.
fn pipeline() -> Runtime {
    let mut registry = ImplementationRegistry::new();
    registry.register("Relay", 1, |_| Box::new(Relay::default()));
    let topo = Topology::clique(2, 1000.0, SimDuration::from_millis(1), 1e7);
    let mut rt = Runtime::new(topo, 7, registry);
    let mut cfg = Configuration::new();
    cfg.component("src", ComponentDecl::new("Relay", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("Relay", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("c"));
    cfg.bind(BindingDecl::new("src", "out", "c", "sink", "in"));
    rt.deploy(&cfg).expect("pipeline deploys");
    rt
}

/// Injects `n` messages with op `op`, `gap_ms` apart, running the
/// runtime after each, then drains.
fn drive_op(rt: &mut Runtime, op: &'static str, n: i64, gap_ms: u64) {
    for i in 0..n {
        rt.inject("src", Message::event(op, Value::Int(i)))
            .expect("src exists");
        rt.run_for(SimDuration::from_millis(gap_ms));
    }
    rt.run_for(SimDuration::from_millis(50));
}

/// Injects `n` frames: one hop each through the pipeline.
fn drive(rt: &mut Runtime, n: i64) {
    drive_op(rt, "frame", n, 1);
}

#[test]
fn warm_direct_pipeline_allocates_at_most_once_per_message() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rt = pipeline();

    // Warm-up: interns every name, fills the route cache, and grows the
    // event heap, timer table, effect buffer and flow tables to the
    // capacity the measured phase needs.
    drive(&mut rt, 2_000);
    assert_eq!(rt.metrics().delivered, 4_000, "warm-up delivers both hops");

    const MSGS: i64 = 10_000;
    let ((), allocs) = measured(|| drive(&mut rt, MSGS));
    assert_eq!(
        rt.metrics().delivered,
        4_000 + 2 * MSGS as u64,
        "measured phase delivers both hops"
    );
    assert!(
        allocs <= MSGS as u64,
        "warm Runtime message path made {allocs} allocations over {MSGS} messages \
         (budget: 1 per message)"
    );
}

#[test]
fn warm_request_reply_round_trip_allocates_only_in_the_component() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rt = pipeline();

    // Warm-up: also opens the reply channel, caches the `ping.reply` op
    // and grows the pending-request table. Round trips are 3 ms apart:
    // `src` handles both the `ask` and the reply, a millisecond each.
    drive_op(&mut rt, "ask", 2_000, 3);
    assert_eq!(
        rt.metrics().delivered,
        6_000,
        "ask, ping and reply delivered"
    );
    assert_eq!(rt.metrics().rtt.count(), 2_000, "every request answered");

    const TRIPS: i64 = 10_000;
    let ((), allocs) = measured(|| drive_op(&mut rt, "ask", TRIPS, 3));
    assert_eq!(
        rt.metrics().delivered,
        6_000 + 3 * TRIPS as u64,
        "measured phase delivers every request and its reply"
    );
    assert_eq!(rt.metrics().rtt.count(), 2_000 + TRIPS as u64);
    // Delivering the reply asks the requester's `provided()` interface
    // whether it takes `ping.reply`; building that interface is the
    // component's own cost, 10 allocations for `Relay`. Everything else
    // is the runtime's, and it allocates nothing: the reply op comes from
    // a per-op cache and the reply channel from an id-keyed table.
    let (_, per_interface) = measured(|| Relay::default().provided());
    assert_eq!(per_interface, 10, "Relay::provided");
    assert_eq!(
        allocs,
        TRIPS as u64 * per_interface,
        "warm request → reply round trips made {allocs} allocations over {TRIPS} trips"
    );
}

/// What a map payload costs to copy and rewrite: a clone is a reference
/// count, an unchanged or uniquely owned entry is written in place, and a
/// write to a shared map copies the entries in one allocation.
#[test]
fn map_payload_copies_cost_at_most_one_allocation() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let frame = || Value::map([("bytes", Value::Int(400)), ("cost", Value::Float(1.5))]);

    let original = frame();
    let (copy, allocs) = measured(|| original.clone());
    assert_eq!(allocs, 0, "clone");

    let mut shared = copy;
    let ((), allocs) = measured(|| shared.set("bytes", Value::Int(400)));
    assert_eq!(allocs, 0, "set to an equal value");

    let ((), allocs) = measured(|| shared.set("bytes", Value::Int(200)));
    assert_eq!(allocs, 1, "set on a shared map");
    assert_eq!(original.get("bytes"), Some(&Value::Int(400)));

    let ((), allocs) = measured(|| shared.set("bytes", Value::Int(100)));
    assert_eq!(allocs, 0, "overwrite on a uniquely owned map");
    assert_eq!(shared.get("bytes"), Some(&Value::Int(100)));

    // The Transcoder's rewrite: copy the frame, add a key, overwrite one.
    let (rewritten, allocs) = measured(|| {
        let mut v = original.clone();
        v.set("transcoded", Value::Bool(true));
        v.set("bytes", Value::Int(200));
        v
    });
    assert_eq!(allocs, 1, "copy-and-rewrite");
    assert_eq!(
        rewritten.to_string(),
        "{bytes: 200, cost: 1.5, transcoded: true}"
    );
    assert_eq!(original.to_string(), "{bytes: 400, cost: 1.5}");

    let (built, allocs) = measured(|| {
        [("b", Value::Int(2)), ("a", Value::Int(1))]
            .into_iter()
            .collect::<ValueMap>()
    });
    assert_eq!(allocs, 1, "building a map from an array");
    assert_eq!(
        built.keys().map(|k| k.as_str()).collect::<Vec<_>>(),
        ["a", "b"]
    );
}

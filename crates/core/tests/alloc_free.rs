//! Proves the Runtime's warm message path allocates (almost) nothing:
//! inject → kernel → deliver → job done → component → dispatch →
//! connector → kernel → deliver → job done, on a one-hop direct
//! pipeline whose component itself allocates nothing (an `Int` payload,
//! a static op and a static port).
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
use aas_core::message::{Message, Value};
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
        Interface::new("Relay", vec![Signature::one_way("frame")])
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: &Message) -> Result<(), ComponentError> {
        self.seen += 1;
        if ctx.self_name() == "src" {
            ctx.send("out", Message::event("frame", msg.value.clone()));
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

/// Injects `n` frames one millisecond apart, running the runtime after
/// each, then drains.
fn drive(rt: &mut Runtime, n: i64) {
    for i in 0..n {
        rt.inject("src", Message::event("frame", Value::Int(i)))
            .expect("src exists");
        rt.run_for(SimDuration::from_millis(1));
    }
    rt.run_for(SimDuration::from_millis(50));
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

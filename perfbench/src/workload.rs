//! The three workloads: their seeded inputs, how each `Runtime` is built,
//! the batch loop that feeds it, and the output checks every run passes.

use crate::alloc;
use aas_control::negotiate::{ObjectiveVector, ResourceVector, UtilityCurve};
use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec, RetryPolicy, RoutingPolicy};
use aas_core::detector::DetectorConfig;
use aas_core::error::{ComponentError, StateError};
use aas_core::heal::RepairPolicy;
use aas_core::interface::Interface;
use aas_core::lts::Lts;
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{AgentProfile, CoordinationMode, NegotiateConfig, Runtime, TwinConfig};
use aas_scenario::negotiation::{
    build_overload_runtime, overload_storm_spec, overload_topology, DEADLINE_MS, MIGRATE_ABOVE,
};
use aas_scenario::trajectory::{fnv1a, LoadWave, ScenarioSpec, StormWave};
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use std::time::Instant;

/// Host-side batch: arrivals are injected one simulated slice ahead.
pub const SLICE_US: u64 = 100_000;
/// `fork_twin` / `observe` checkpoints in a traced run, every this many
/// slices.
pub const CHECKPOINT_SLICES: u64 = 10;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fault-free four-delivery pipeline, no adaptation loops.
    PipelineSteady,
    /// E20's negotiated 10× overload with a crash storm.
    OverloadNegotiated,
    /// Two pipelines under a crash storm: heal, twin, operator plans.
    RepairChurn,
}

impl Kind {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "pipeline_steady" => Some(Kind::PipelineSteady),
            "overload_negotiated" => Some(Kind::OverloadNegotiated),
            "repair_churn" => Some(Kind::RepairChurn),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PipelineSteady => "pipeline_steady",
            Kind::OverloadNegotiated => "overload_negotiated",
            Kind::RepairChurn => "repair_churn",
        }
    }
}

/// A variation of a workload's configuration (a ladder rung). The
/// default is the workload as defined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rung {
    /// Strip every aspect from every connector.
    pub strip_aspects: bool,
    /// Add a heartbeat failure detector to a workload that has none.
    pub add_detector: bool,
}

/// One pipeline stage: its instance name and the copies each processed
/// message sends downstream (0 for a final sink).
struct Stage {
    name: &'static str,
    fanout: u64,
}

/// A workload with its seeded inputs, generated before any timing.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// `(arrival time, entry index)`, sorted by time.
    pub arrivals: Vec<(SimTime, usize)>,
    pub faults: FaultSchedule,
    /// Last instant an arrival may land.
    pub horizon: SimTime,
    /// Simulated drain after the horizon.
    pub grace: SimDuration,
    entries: &'static [&'static str],
    stages: &'static [Stage],
    /// Final sinks and the deadline a frame must meet there.
    sinks: &'static [&'static str],
    frames_per_arrival: u64,
    deadline_ms: f64,
    /// The frame every arrival carries.
    pub frame: Message,
    /// Node pairs a raw-kernel replay cycles through, entry first.
    pub replay_path: &'static [(u32, u32)],
}

// --- pipeline_steady -----------------------------------------------------

const PIPE_HORIZON: SimTime = SimTime::from_secs(12);
const PIPE_RATE: f64 = 2_500.0;
const PIPE_DEADLINE_MS: f64 = 50.0;

fn pipeline_topology() -> Topology {
    Topology::clique(8, 1000.0, SimDuration::from_millis(1), 1e7)
}

// --- overload_negotiated -------------------------------------------------

const OVER_HORIZON: SimTime = SimTime::from_secs(12);
/// Host of both contending transcoders in E20's runtime.
const OVER_HOST: NodeId = NodeId(1);
/// E20's per-frame work units.
const OVER_FRAME_COST: f64 = 2.0;

// --- repair_churn --------------------------------------------------------

const CHURN_HORIZON: SimTime = SimTime::from_secs(150);
const CHURN_RATE: f64 = 300.0;
const CHURN_MONITOR: NodeId = NodeId(0);
const CHURN_MTBF_S: f64 = 2.0;
const CHURN_MTTR_S: f64 = 0.6;
const CHURN_DEADLINE_MS: f64 = 250.0;
/// Operator `Migrate` plan period, in slices.
const CHURN_MIGRATE_SLICES: u64 = 20;

fn churn_topology() -> Topology {
    Topology::clique(5, 2000.0, SimDuration::from_millis(2), 1e7)
}

fn frame(cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([
            ("bytes", Value::Int(400)),
            ("cost", Value::Float(cost)),
            ("quality", Value::Float(1.0)),
        ]),
    )
}

fn arrivals_of(traffic: &[(SimTime, u32)], entries: usize) -> Vec<(SimTime, usize)> {
    traffic
        .iter()
        .map(|&(at, flow)| (at, flow as usize % entries))
        .collect()
}

/// Independent scenario instances a run cycles through. Each has its own
/// seed derived from the run's, so one run's figures average over the
/// instances' outcomes (where a crash storm happens to strike, how many
/// migrations it triggers) instead of riding on a single draw.
pub const INSTANCES: u64 = 8;

impl Workload {
    /// The run's [`INSTANCES`] scenario instances for `seed`.
    pub fn instances(kind: Kind, seed: u64) -> Vec<Workload> {
        (0..INSTANCES)
            .map(|i| Workload::generate(kind, seed.wrapping_mul(INSTANCES).wrapping_add(i)))
            .collect()
    }

    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::PipelineSteady => {
                let mut spec = ScenarioSpec::new(seed, PIPE_HORIZON, 1);
                spec.load = LoadWave::flat(PIPE_RATE);
                let sched = spec.build(&pipeline_topology());
                Workload {
                    kind,
                    seed,
                    arrivals: arrivals_of(&sched.traffic, 1),
                    faults: sched.faults,
                    horizon: PIPE_HORIZON,
                    grace: SimDuration::from_secs(1),
                    entries: &["coder"],
                    stages: &[
                        Stage {
                            name: "coder",
                            fanout: 1,
                        },
                        Stage {
                            name: "coder2",
                            fanout: 2,
                        },
                        Stage {
                            name: "sinkA",
                            fanout: 0,
                        },
                        Stage {
                            name: "sinkB",
                            fanout: 0,
                        },
                    ],
                    sinks: &["sinkA", "sinkB"],
                    frames_per_arrival: 2,
                    deadline_ms: PIPE_DEADLINE_MS,
                    frame: frame(0.1),
                    replay_path: &[(1, 1), (1, 2), (2, 3), (2, 4)],
                }
            }
            Kind::OverloadNegotiated => {
                let mut spec = overload_storm_spec(seed);
                spec.horizon = OVER_HORIZON;
                let sched = spec.build(&overload_topology());
                Workload {
                    kind,
                    seed,
                    arrivals: arrivals_of(&sched.traffic, 2),
                    faults: sched.faults,
                    horizon: OVER_HORIZON,
                    grace: SimDuration::from_secs(2),
                    entries: &["gold", "silver"],
                    stages: &[
                        Stage {
                            name: "gold",
                            fanout: 1,
                        },
                        Stage {
                            name: "silver",
                            fanout: 1,
                        },
                        Stage {
                            name: "gsink",
                            fanout: 0,
                        },
                        Stage {
                            name: "ssink",
                            fanout: 0,
                        },
                    ],
                    // E20 scores goodput at the saturated stage.
                    sinks: &["gold", "silver"],
                    frames_per_arrival: 1,
                    deadline_ms: DEADLINE_MS,
                    frame: frame(OVER_FRAME_COST),
                    replay_path: &[(1, 1), (1, 2)],
                }
            }
            Kind::RepairChurn => {
                let mut spec = ScenarioSpec::new(seed, CHURN_HORIZON, 2);
                spec.load = LoadWave::flat(CHURN_RATE);
                spec.storms = vec![StormWave::node_crashes(
                    (1..5).map(NodeId).collect(),
                    CHURN_MTBF_S,
                    CHURN_MTTR_S,
                )];
                let sched = spec.build(&churn_topology());
                Workload {
                    kind,
                    seed,
                    arrivals: arrivals_of(&sched.traffic, 2),
                    faults: sched.faults,
                    horizon: CHURN_HORIZON,
                    grace: SimDuration::from_secs(2),
                    entries: &["ra", "rb"],
                    stages: &[
                        Stage {
                            name: "ra",
                            fanout: 1,
                        },
                        Stage {
                            name: "rb",
                            fanout: 1,
                        },
                        Stage {
                            name: "sa",
                            fanout: 0,
                        },
                        Stage {
                            name: "sb",
                            fanout: 0,
                        },
                    ],
                    sinks: &["sa", "sb"],
                    frames_per_arrival: 1,
                    deadline_ms: CHURN_DEADLINE_MS,
                    frame: frame(0.2),
                    replay_path: &[(1, 1), (1, 2)],
                }
            }
        }
    }

    /// Builds the workload's `Runtime`: construct, deploy, enable loops.
    /// `traced` wraps every component in a [`Timed`] delegate.
    pub fn build(&self, traced: bool, rung: Rung) -> Runtime {
        let registry = registry(traced);
        let mut rt = match self.kind {
            Kind::PipelineSteady => {
                let mut rt = Runtime::new(pipeline_topology(), self.seed, registry);
                let mut cfg = Configuration::new();
                cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(1)));
                cfg.component("coder2", ComponentDecl::new("Transcoder", 1, NodeId(2)));
                cfg.component("sinkA", ComponentDecl::new("MediaSink", 1, NodeId(3)));
                cfg.component("sinkB", ComponentDecl::new("MediaSink", 1, NodeId(4)));
                let aspects = if rung.strip_aspects {
                    ConnectorSpec::direct("c1")
                } else {
                    ConnectorSpec::direct("c1")
                        .with_aspect(ConnectorAspect::Logging)
                        .with_aspect(ConnectorAspect::Metering)
                        .with_aspect(ConnectorAspect::SequenceCheck)
                };
                cfg.connector(aspects);
                cfg.connector(ConnectorSpec::direct("c2").with_policy(RoutingPolicy::Broadcast));
                cfg.bind(BindingDecl::new("coder", "out", "c1", "coder2", "in"));
                cfg.bind(
                    BindingDecl::new("coder2", "out", "c2", "sinkA", "in").also_to("sinkB", "in"),
                );
                rt.deploy(&cfg).expect("pipeline configuration deploys");
                rt
            }
            Kind::OverloadNegotiated if !traced => {
                build_overload_runtime(self.seed, CoordinationMode::Negotiated, None, MIGRATE_ABOVE)
            }
            Kind::OverloadNegotiated => overload_mirror(self.seed, registry),
            Kind::RepairChurn => {
                let mut rt = Runtime::new(churn_topology(), self.seed, registry);
                let mut cfg = Configuration::new();
                cfg.component("ra", ComponentDecl::new("Transcoder", 1, NodeId(1)));
                cfg.component("sa", ComponentDecl::new("MediaSink", 1, NodeId(2)));
                cfg.component("rb", ComponentDecl::new("Transcoder", 1, NodeId(3)));
                cfg.component("sb", ComponentDecl::new("MediaSink", 1, NodeId(4)));
                let retry = RetryPolicy::new(3, SimDuration::from_millis(40));
                let a_wire = ConnectorSpec::direct("a_wire").with_retry(retry);
                cfg.connector(if rung.strip_aspects {
                    a_wire
                } else {
                    a_wire.with_aspect(ConnectorAspect::SequenceCheck)
                });
                cfg.connector(ConnectorSpec::direct("b_wire").with_retry(retry));
                cfg.bind(BindingDecl::new("ra", "out", "a_wire", "sa", "in"));
                cfg.bind(BindingDecl::new("rb", "out", "b_wire", "sb", "in"));
                rt.deploy(&cfg).expect("churn configuration deploys");
                rt.set_fail_stop(true);
                rt.set_repair_policy(RepairPolicy::FailoverMigrate);
                rt.enable_failure_detector(DetectorConfig::new(
                    SimDuration::from_millis(50),
                    2.0,
                    CHURN_MONITOR,
                ));
                rt.enable_twin(TwinConfig::default());
                rt
            }
        };
        if rung.add_detector {
            rt.enable_failure_detector(DetectorConfig::new(
                SimDuration::from_millis(50),
                2.0,
                NodeId(0),
            ));
        }
        rt
    }

    /// The same workload with only the arrivals before `horizon`.
    pub fn truncated(mut self, horizon: SimTime) -> Workload {
        self.arrivals.retain(|&(at, _)| at < horizon);
        self.horizon = horizon;
        self
    }

    /// The workload's topology, as built fresh.
    pub fn topology(&self) -> Topology {
        match self.kind {
            Kind::PipelineSteady => pipeline_topology(),
            Kind::OverloadNegotiated => overload_topology(),
            Kind::RepairChurn => churn_topology(),
        }
    }

    /// The workload's entry instance for arrival `i`.
    pub fn entry(&self, i: usize) -> &'static str {
        self.entries[i]
    }

    /// The operator plan submitted at slice boundary `slice`, if any.
    /// Every [`CHURN_MIGRATE_SLICES`] slices `repair_churn` migrates `ra`
    /// to the next live storm node, and moves anything failover parked
    /// on the monitor back onto live storm nodes: the monitor never
    /// crashes, so an instance left there would sit the storm out.
    fn operator_plan(&self, rt: &Runtime, slice: u64) -> Option<ReconfigPlan> {
        if self.kind != Kind::RepairChurn
            || slice == 0
            || !slice.is_multiple_of(CHURN_MIGRATE_SLICES)
        {
            return None;
        }
        let n = rt.topology().node_count() as u32;
        let live = |from: NodeId| {
            (1..n)
                .map(move |d| NodeId((from.0 + d) % n))
                .find(|&id| id != CHURN_MONITOR && rt.topology().node(id).is_up())
        };
        let mut plan = ReconfigPlan::new();
        for (i, name) in self.stages.iter().map(|s| s.name).enumerate() {
            let Some(here) = rt.node_of(name) else {
                continue;
            };
            if name == "ra" || here == CHURN_MONITOR {
                let to = live(NodeId(here.0 + i as u32))?;
                if to != here {
                    plan.push(ReconfigAction::Migrate {
                        name: name.into(),
                        to,
                    });
                }
            }
        }
        (!plan.is_empty()).then_some(plan)
    }
}

/// E20's overload runtime, built exactly as
/// `aas_scenario::negotiation::build_overload_runtime(seed, Negotiated,
/// None, MIGRATE_ABOVE)` does but over the benchmark's (wrapped)
/// registry. The determinism cross-check proves the two identical.
fn overload_mirror(seed: u64, registry: ImplementationRegistry) -> Runtime {
    let mut rt = Runtime::new(overload_topology(), seed, registry);
    let mut cfg = Configuration::new();
    cfg.component("gold", ComponentDecl::new("Transcoder", 1, OVER_HOST));
    cfg.component("silver", ComponentDecl::new("Transcoder", 1, OVER_HOST));
    cfg.component("gsink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.component("ssink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("g_wire"));
    cfg.connector(ConnectorSpec::direct("s_wire"));
    cfg.bind(BindingDecl::new("gold", "out", "g_wire", "gsink", "in"));
    cfg.bind(BindingDecl::new("silver", "out", "s_wire", "ssink", "in"));
    rt.deploy(&cfg).expect("overload configuration deploys");
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    rt.set_agent_profile(
        "gold",
        AgentProfile {
            priority: 3,
            objectives: ObjectiveVector {
                latency: 2.0,
                availability: 2.0,
                cost: 0.5,
            },
            curve: UtilityCurve::Diminishing { knee: 0.5 },
            floor_fraction: 0.10,
            exempt: false,
        },
    );
    rt.set_agent_profile(
        "silver",
        AgentProfile {
            priority: 1,
            floor_fraction: 0.08,
            ..AgentProfile::default()
        },
    );
    for sink in ["gsink", "ssink"] {
        rt.set_agent_profile(
            sink,
            AgentProfile {
                exempt: true,
                ..AgentProfile::default()
            },
        );
    }
    rt.enable_negotiation(NegotiateConfig {
        interval: SimDuration::from_millis(50),
        budget: ResourceVector {
            capacity: 4.0,
            work_rate: 1000.0,
            retry_budget: 64.0,
            twin_horizon: 4.0,
        },
        mode: CoordinationMode::Negotiated,
        nominal_cost: OVER_FRAME_COST,
        floor_fraction: 0.05,
        migrate_above: MIGRATE_ABOVE,
        ..NegotiateConfig::default()
    });
    rt.set_negotiator_mutation(None);
    rt
}

// --- the component wrapper ----------------------------------------------

thread_local! {
    static COMPONENT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static COMPONENT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Host ns spent in, and number of, `on_message` calls on [`Timed`]
/// components of this thread so far.
pub fn component_totals() -> (u64, u64) {
    (
        COMPONENT_NS.with(|c| c.get()),
        COMPONENT_CALLS.with(|c| c.get()),
    )
}

/// A delegating component that times each `on_message` call and marks
/// its allocations as the component's.
struct Timed(Box<dyn Component>);

impl Component for Timed {
    fn type_name(&self) -> &str {
        self.0.type_name()
    }

    fn provided(&self) -> Interface {
        self.0.provided()
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: &Message) -> Result<(), ComponentError> {
        let t = Instant::now();
        let r = alloc::in_component(|| self.0.on_message(ctx, msg));
        let ns = t.elapsed().as_nanos() as u64;
        COMPONENT_NS.with(|c| c.set(c.get() + ns));
        COMPONENT_CALLS.with(|c| c.set(c.get() + 1));
        r
    }

    fn on_timer(&mut self, ctx: &mut CallCtx, tag: u64) {
        self.0.on_timer(ctx, tag);
    }

    fn snapshot(&self) -> StateSnapshot {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        self.0.restore(snapshot)
    }

    fn protocol(&self) -> Option<Lts> {
        self.0.protocol()
    }

    fn work_cost(&self, msg: &Message) -> f64 {
        self.0.work_cost(msg)
    }
}

/// The telecom registry; with `traced`, every implementation is wrapped
/// in [`Timed`]. The wrapper's own box is booked as benchmark
/// allocation, so traced and untraced runs count the same.
fn registry(traced: bool) -> ImplementationRegistry {
    let mut base = ImplementationRegistry::new();
    register_telecom_components(&mut base);
    if !traced {
        return base;
    }
    let keys: Vec<(String, u32)> = base.keys().map(|(t, v)| (t.to_owned(), v)).collect();
    let base = std::sync::Arc::new(base);
    let mut wrapped = ImplementationRegistry::new();
    for (type_name, version) in keys {
        let base = base.clone();
        let t = type_name.clone();
        wrapped.register(type_name, version, move |props| {
            let inner = base
                .instantiate(&t, version, props)
                .expect("registered implementation instantiates");
            // The nested `instantiate` repeats the one allocation the
            // outer call made for its lookup key.
            alloc::book(1);
            alloc::exclude(|| Box::new(Timed(inner)) as Box<dyn Component>)
        });
    }
    wrapped
}

// --- the batch loop ------------------------------------------------------

/// How the batch loop advances the runtime. The untraced probe just steps;
/// the traced probe times every step and the layer calls around it.
pub trait Probe {
    /// Processes one kernel event.
    fn step(&mut self, rt: &mut Runtime) -> Option<SimTime>;
    /// Called at fixed simulated checkpoints.
    fn checkpoint(&mut self, _rt: &Runtime) {}
}

/// The untraced probe.
pub struct Plain;

impl Probe for Plain {
    #[inline]
    fn step(&mut self, rt: &mut Runtime) -> Option<SimTime> {
        rt.step()
    }
}

/// What one run of a workload measured.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub injected: u64,
    /// Arrivals the host injected after their due time.
    pub late: u64,
    pub steps: u64,
    /// Host seconds of the run phase (first inject to end of drain).
    pub run_s: f64,
    /// Allocations of the run phase, bench bookkeeping excluded.
    pub allocs: u64,
    /// The share of `allocs` made inside component calls.
    pub component_allocs: u64,
    /// Frames that met the deadline at their final stage.
    pub goodput: u64,
    /// Frames owed to the final stage (arrivals × frames per arrival).
    pub owed: u64,
    /// p99 of `metrics().e2e_latency` (per-hop simulated latency), ms.
    pub p99_ms: f64,
    /// `dropped + unrouted + handler_errors`.
    pub failures: u64,
    pub kernel_sent: u64,
    pub kernel_dropped: u64,
    pub shed: u64,
    pub rounds: u64,
    pub suspicions: u64,
    pub predictions: u64,
    pub plans: u64,
    pub plans_committed: u64,
    pub mttr_ms: f64,
    /// Hash of `state_fingerprint()` plus goodput, p99 and failures.
    pub fingerprint: u64,
}

fn steps_until(rt: &mut Runtime, probe: &mut impl Probe, end: SimTime, steps: &mut u64) {
    while let Some(t) = probe.step(rt) {
        *steps += 1;
        if t > end {
            break;
        }
    }
}

/// Runs the workload on `rt` as a batch: the arrivals of slice k+1 are
/// injected, then the runtime steps until it passes the end of slice k,
/// and so on to the horizon; then it drains for the grace period. The
/// one-slice lookahead makes the first event past a slice end harmless,
/// so untraced and traced runs process the same events in the same
/// order. Fails with the first output check that does not hold.
pub fn drive(w: &Workload, rt: &mut Runtime, probe: &mut impl Probe) -> Result<RunOut, String> {
    let slices = w.horizon.as_micros().div_ceil(SLICE_US);
    let drain_slices = w.grace.as_micros().div_ceil(SLICE_US);
    let (mut next, mut injected, mut late, mut steps, mut failed) = (0, 0u64, 0u64, 0u64, 0u64);
    let mut inject_slice = |rt: &mut Runtime, k: u64| {
        let end = SimTime::from_micros((k + 1) * SLICE_US);
        while next < w.arrivals.len() && w.arrivals[next].0 <= end {
            let (at, entry) = w.arrivals[next];
            next += 1;
            let msg = alloc::exclude(|| w.frame.clone());
            let now = rt.now();
            if at < now {
                late += 1;
            }
            let delay = SimDuration::from_micros(at.as_micros().saturating_sub(now.as_micros()));
            match rt.inject_after(delay, w.entry(entry), msg) {
                Ok(()) => injected += 1,
                Err(_) => failed += 1,
            }
        }
    };

    let bench0 = alloc::bench();
    let (a0, c0) = (alloc::total(), alloc::component());
    let t0 = Instant::now();
    rt.inject_faults(w.faults.clone());
    inject_slice(rt, 0);
    for k in 0..slices + drain_slices {
        if k + 1 < slices {
            inject_slice(rt, k + 1);
        }
        if let Some(plan) = w.operator_plan(rt, k) {
            rt.request_reconfig(plan);
        }
        if k.is_multiple_of(CHECKPOINT_SLICES) {
            probe.checkpoint(rt);
        }
        steps_until(
            rt,
            probe,
            SimTime::from_micros((k + 1) * SLICE_US),
            &mut steps,
        );
    }
    let run_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::total() - a0 - (alloc::bench() - bench0);
    let component_allocs = alloc::component() - c0;
    if failed > 0 {
        return Err(format!("{failed} injections were refused"));
    }
    alloc::exclude(|| {
        outcome(
            w,
            rt,
            injected,
            late,
            steps,
            run_s,
            allocs,
            component_allocs,
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn outcome(
    w: &Workload,
    rt: &Runtime,
    injected: u64,
    late: u64,
    steps: u64,
    run_s: f64,
    allocs: u64,
    component_allocs: u64,
) -> Result<RunOut, String> {
    use aas_obs::AuditKind;
    let m = rt.metrics();
    let snap = rt.observe();
    let hist = |name: &str| {
        rt.obs()
            .metrics
            .histogram(&format!("comp.{name}.latency_ms"))
            .snapshot()
    };

    // Conservation: every injected frame and every copy a stage sent on
    // was processed, shed or terminally dropped; nothing is in flight.
    let mut expected = injected;
    let mut processed = 0;
    for s in w.stages {
        let done = hist(s.name).count();
        expected += done * s.fanout;
        processed += done;
    }
    let accounted = processed + rt.shed_total() + (m.dropped - m.retries) + m.unrouted;
    if expected != accounted {
        return Err(format!(
            "conservation: {expected} arrivals and copies sent, but {processed} processed + {} \
             shed + {} dropped - {} retried + {} unrouted = {accounted}",
            rt.shed_total(),
            m.dropped,
            m.retries,
            m.unrouted
        ));
    }
    if let Some(c) = snap.components.iter().find(|c| c.inflight > 0) {
        return Err(format!(
            "{} still has {} jobs in flight",
            c.name, c.inflight
        ));
    }
    match w.kind {
        Kind::PipelineSteady => {
            let anomalies: u64 = snap.connectors.iter().map(|c| c.seq_anomalies).sum();
            if anomalies > 0 {
                return Err(format!("sequence check saw {anomalies} anomalies"));
            }
        }
        Kind::OverloadNegotiated => {
            let ok = rt
                .negotiation_outcome()
                .is_some_and(aas_control::negotiate::NegotiationOutcome::within_budget);
            if !ok {
                return Err("negotiation outcome is missing or over budget".into());
            }
        }
        Kind::RepairChurn => {}
    }

    let goodput: u64 = w
        .sinks
        .iter()
        .map(|s| {
            let h = hist(s);
            (h.count() as f64 * h.fraction_below(w.deadline_ms)).round() as u64
        })
        .sum();
    let owed = injected * w.frames_per_arrival;
    let p99_ms = interpolated_quantile(&m.e2e_latency, 0.99);
    let failures = m.dropped + m.unrouted + m.handler_errors;
    let audit = &rt.obs().audit;
    let kc = rt.kernel_counters();
    let reports = rt.reports();
    let fingerprint = fnv1a(
        format!(
            "{}goodput={goodput}/{owed} p99={p99_ms:.17e} failures={failures}",
            rt.state_fingerprint()
        )
        .as_bytes(),
    );
    Ok(RunOut {
        injected,
        late,
        steps,
        run_s,
        allocs,
        component_allocs,
        goodput,
        owed,
        p99_ms,
        failures,
        kernel_sent: kc.get("sent"),
        kernel_dropped: kc.get("dropped"),
        shed: rt.shed_total(),
        rounds: rt.negotiation_rounds(),
        suspicions: audit.of_kind(AuditKind::FailureSuspected).len() as u64,
        predictions: audit.of_kind(AuditKind::TwinPredicted).len() as u64,
        plans: reports.len() as u64,
        plans_committed: reports.iter().filter(|r| r.success).count() as u64,
        mttr_ms: m.mttr_ms.mean(),
        fingerprint,
    })
}

/// The `q`-quantile of `h`, interpolated linearly inside the log-scale
/// bucket that holds it. `Histogram::quantile` answers with the bucket's
/// midpoint, so it moves in steps of one bucket (1/16 of an octave);
/// interpolating by rank within the bucket makes the estimate move with
/// the data.
fn interpolated_quantile(h: &aas_obs::Histogram, q: f64) -> f64 {
    let mid = h.quantile(q);
    if h.count() == 0 || mid <= h.min() || mid >= h.max() {
        return mid;
    }
    let width = mid.log2().floor().exp2() / 16.0;
    let lower = mid - width / 2.0;
    let below = h.fraction_below(lower - width / 4.0);
    let upto = h.fraction_below(mid);
    if upto <= below {
        return mid;
    }
    lower + (q - below) / (upto - below) * width
}

/// Sets up the workload `n` times (construct, deploy, enable loops) and
/// returns each set-up's host seconds; tear-down is not timed.
pub fn time_setups(w: &Workload, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let rt = std::hint::black_box(w.build(false, Rung::default()));
            let s = t.elapsed().as_secs_f64();
            drop(rt);
            s
        })
        .collect()
}

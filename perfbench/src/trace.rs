//! The traced run's probes: per-step timing and classification around
//! `Runtime::step`, checkpoint timing of `fork_twin` and `observe`, a
//! raw-kernel replay, and direct `Connector::mediate` timing.

use crate::alloc;
use crate::workload::{component_totals, Probe, Workload};
use aas_core::connector::{Connector, ConnectorAspect, ConnectorId, ConnectorSpec, RoutingPolicy};
use aas_core::message::Message;
use aas_core::runtime::Runtime;
use aas_obs::AuditKind;
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Audit kinds a reconfiguration plan appends.
const PLAN_KINDS: [AuditKind; 10] = [
    AuditKind::PlanSubmitted,
    AuditKind::PlanValidated,
    AuditKind::PlanRejected,
    AuditKind::PlanRolledBack,
    AuditKind::ActionApplied,
    AuditKind::ActionCompensated,
    AuditKind::RolledBack,
    AuditKind::PlanFinished,
    AuditKind::ChannelBlocked,
    AuditKind::ChannelReleased,
];

/// Times every step and sorts it by what the step did, judged from the
/// runtime's public state before and after it:
/// - a *negotiate* step advanced `negotiation_rounds()`;
/// - a *twin* step appended `TwinPredicted` audit entries;
/// - a *reconfig* step ran while `reconfig_in_progress()` or appended
///   plan audit entries;
/// - every other step is a *message* step (deliveries, job completions,
///   injections, and detector heartbeats and ticks).
#[derive(Debug, Default)]
pub struct Traced {
    pub step_ns: Vec<u64>,
    pub msg_ns: u64,
    pub msg_component_ns: u64,
    pub round_ns: Vec<u64>,
    pub reconfig_ns: u64,
    pub twin_ns: Vec<u64>,
    pub fork_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    audit_len: usize,
    plan_entries: usize,
    twin_entries: usize,
}

impl Traced {
    /// A probe whose step log holds `steps` entries without growing.
    pub fn with_capacity(steps: usize) -> Self {
        Traced {
            step_ns: Vec::with_capacity(steps + 1024),
            ..Traced::default()
        }
    }

    fn book(&mut self, rt: &Runtime, ns: u64, round: bool, reconfig: bool, component_ns: u64) {
        self.step_ns.push(ns);
        let audit = &rt.obs().audit;
        let (mut plan, mut twin) = (false, false);
        let len = audit.len();
        if len != self.audit_len {
            self.audit_len = len;
            let plans: usize = PLAN_KINDS.iter().map(|&k| audit.of_kind(k).len()).sum();
            plan = plans != self.plan_entries;
            self.plan_entries = plans;
            let twins = audit.of_kind(AuditKind::TwinPredicted).len();
            twin = twins != self.twin_entries;
            self.twin_entries = twins;
        }
        let reconfig = reconfig || plan;
        if round {
            self.round_ns.push(ns);
        }
        if twin {
            self.twin_ns.push(ns);
        }
        if reconfig {
            self.reconfig_ns += ns;
        }
        if !(round || twin || reconfig) {
            self.msg_ns += ns;
            self.msg_component_ns += component_ns;
        }
    }
}

impl Probe for Traced {
    fn step(&mut self, rt: &mut Runtime) -> Option<SimTime> {
        let rounds = rt.negotiation_rounds();
        let reconfig = rt.reconfig_in_progress();
        let (c0, _) = component_totals();
        let t = Instant::now();
        let r = rt.step();
        let ns = t.elapsed().as_nanos() as u64;
        let component_ns = component_totals().0 - c0;
        let round = rt.negotiation_rounds() != rounds;
        let reconfig = reconfig || rt.reconfig_in_progress();
        alloc::exclude(|| self.book(rt, ns, round, reconfig, component_ns));
        r
    }

    fn checkpoint(&mut self, rt: &Runtime) {
        alloc::exclude(|| {
            let t = Instant::now();
            let fork = black_box(rt.fork_twin());
            let ns = t.elapsed().as_nanos() as u64;
            // A runtime mid-transaction refuses to fork.
            if fork.is_some() {
                self.fork_ns.push(ns);
            }
            drop(fork);
            let t = Instant::now();
            let snap = black_box(rt.observe());
            self.observe_ns.push(t.elapsed().as_nanos() as u64);
            drop(snap);
        });
    }
}

/// Host ns per hop and allocations per hop of a raw `Kernel<u64>`
/// replaying the workload's arrival schedule over its topology, with
/// `sends` hops spread evenly over the arrivals. The schedule runs
/// twice on one kernel; the second, warm pass is measured.
pub fn kernel_replay(w: &Workload, sends: u64) -> (f64, f64) {
    let mut k: Kernel<u64> = Kernel::new(w.topology(), w.seed);
    let path: Vec<_> = w
        .replay_path
        .iter()
        .map(|&(s, d)| k.open_channel(NodeId(s), NodeId(d)))
        .collect();
    let n = w.arrivals.len() as u64;
    let hops = |i: u64| (i + 1) * sends / n - i * sends / n;
    let pass = |k: &mut Kernel<u64>| {
        let origin = k.now().as_micros();
        let due = |i: usize| SimTime::from_micros(origin + w.arrivals[i].0.as_micros());
        let (mut next, mut sent) = (0usize, 0u64);
        let arm = |k: &mut Kernel<u64>, next: &mut usize| {
            if *next < w.arrivals.len() {
                let delay = due(*next).as_micros().saturating_sub(k.now().as_micros());
                k.set_timer(SimDuration::from_micros(delay));
                *next += 1;
            }
        };
        arm(k, &mut next);
        let hop = |k: &mut Kernel<u64>, h: u64, total: u64, sent: &mut u64| {
            if h < total {
                let ch = path[h as usize % path.len()];
                k.send(ch, h << 32 | total, 400);
                *sent += 1;
            }
        };
        while let Some((_, fired)) = k.step() {
            match fired {
                Fired::Timer { .. } => {
                    let i = next as u64 - 1;
                    hop(k, 0, hops(i), &mut sent);
                    arm(k, &mut next);
                }
                Fired::Delivered { msg, .. } => {
                    hop(k, (msg >> 32) + 1, msg & 0xffff_ffff, &mut sent)
                }
                Fired::Fault(_) | Fired::DroppedAtDelivery { .. } => {}
            }
        }
        sent
    };
    pass(&mut k);
    let a0 = alloc::total();
    let t = Instant::now();
    let sent = pass(&mut k);
    let ns = t.elapsed().as_nanos() as f64;
    let allocs = (alloc::total() - a0) as f64;
    let sent = sent.max(1) as f64;
    (ns / sent, allocs / sent)
}

/// Host ns per `Connector::mediate` call on a direct connector, the
/// same with the pipeline's Logging + Metering + SequenceCheck aspects,
/// and a two-target broadcast, each mediating `frame`.
pub fn mediate_ns(frame: &Message) -> [f64; 3] {
    const CALLS: u64 = 50_000;
    let specs = [
        (ConnectorSpec::direct("direct"), 1),
        (
            ConnectorSpec::direct("aspects")
                .with_aspect(ConnectorAspect::Logging)
                .with_aspect(ConnectorAspect::Metering)
                .with_aspect(ConnectorAspect::SequenceCheck),
            1,
        ),
        (
            ConnectorSpec::direct("broadcast").with_policy(RoutingPolicy::Broadcast),
            2,
        ),
    ];
    specs.map(|(spec, targets)| {
        let mut c = Connector::new(ConnectorId(0), spec);
        let t = Instant::now();
        for i in 0..CALLS {
            black_box(c.mediate(black_box(frame), SimTime::from_micros(i), targets));
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

#[cfg(test)]
mod tests {
    use crate::workload::{Kind, Workload};
    use aas_sim::time::SimTime;

    #[test]
    fn warm_kernel_replay_allocates_nothing() {
        let w = Workload::generate(Kind::PipelineSteady, 7).truncated(SimTime::from_secs(1));
        let sends = 4 * w.arrivals.len() as u64;
        let (ns_per_hop, allocs_per_hop) = super::kernel_replay(&w, sends);
        assert!(ns_per_hop > 0.0);
        assert_eq!(allocs_per_hop, 0.0);
    }
}

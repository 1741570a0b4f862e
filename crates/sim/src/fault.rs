//! Fault injection: scheduled node crashes and link outages.
//!
//! The paper names fault tolerance and "network outages" as adaptation
//! drivers; the fault schedule lets experiments inject them at precise
//! virtual times.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A single fault (or recovery) applied to the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Node stops: jobs no longer run, messages to/from it are dropped.
    NodeCrash(NodeId),
    /// Node comes back (with empty queue).
    NodeRecover(NodeId),
    /// Link goes down: routing avoids it; messages mid-flight still arrive
    /// (they were already serialized onto the wire).
    LinkDown(LinkId),
    /// Link comes back.
    LinkUp(LinkId),
}

/// A time-ordered schedule of faults to inject into a run.
///
/// # Examples
///
/// ```
/// use aas_sim::fault::{FaultKind, FaultSchedule};
/// use aas_sim::node::NodeId;
/// use aas_sim::time::SimTime;
///
/// let mut s = FaultSchedule::new();
/// s.at(SimTime::from_secs(10), FaultKind::NodeCrash(NodeId(2)));
/// s.at(SimTime::from_secs(20), FaultKind::NodeRecover(NodeId(2)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    entries: Vec<(SimTime, FaultKind)>,
}

impl FaultSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Schedules `fault` at time `at`.
    pub fn at(&mut self, at: SimTime, fault: FaultKind) -> &mut Self {
        self.entries.push((at, fault));
        self
    }

    /// Convenience: node down over `[from, to)`.
    pub fn node_outage(&mut self, node: NodeId, from: SimTime, to: SimTime) -> &mut Self {
        self.at(from, FaultKind::NodeCrash(node));
        self.at(to, FaultKind::NodeRecover(node));
        self
    }

    /// Convenience: link down over `[from, to)`.
    pub fn link_outage(&mut self, link: LinkId, from: SimTime, to: SimTime) -> &mut Self {
        self.at(from, FaultKind::LinkDown(link));
        self.at(to, FaultKind::LinkUp(link));
        self
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the schedule, yielding `(time, fault)` pairs in submission
    /// order (the kernel's event queue orders them by time).
    pub fn into_entries(self) -> impl Iterator<Item = (SimTime, FaultKind)> {
        self.entries.into_iter()
    }
}

/// One crash/recover (or flap) process attached to a single target.
#[derive(Debug, Clone)]
struct OutageProcess {
    /// Mean time between failures, in seconds (exponential).
    mtbf_secs: f64,
    /// Mean outage duration, in seconds (exponential).
    mttr_secs: f64,
}

/// A probabilistic fault generator: alternating-renewal crash/recover
/// processes per node and flap processes per link, driven by the
/// deterministic [`SimRng`].
///
/// Where [`FaultSchedule`] pins faults to hand-picked instants, a
/// `FaultProcess` *samples* a schedule — each target alternates between an
/// exponentially distributed up period (mean `mtbf`) and an exponentially
/// distributed outage (mean `mttr`). Sampling is a pure function of the
/// RNG stream, so a fault storm is exactly reproducible from its seed.
///
/// # Examples
///
/// ```
/// use aas_sim::fault::FaultProcess;
/// use aas_sim::node::NodeId;
/// use aas_sim::rng::SimRng;
/// use aas_sim::time::SimTime;
///
/// let storm = FaultProcess::new().crash_node(NodeId(1), 5.0, 2.0);
/// let mut rng = SimRng::seed_from(7);
/// let schedule = storm.generate(SimTime::from_secs(60), &mut rng);
/// assert!(!schedule.is_empty());
/// assert_eq!(schedule.len() % 2, 0); // every crash is paired with a recover
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultProcess {
    nodes: Vec<(NodeId, OutageProcess)>,
    links: Vec<(LinkId, OutageProcess)>,
}

impl FaultProcess {
    /// An empty process set.
    #[must_use]
    pub fn new() -> Self {
        FaultProcess::default()
    }

    /// Adds a crash/recover process for `node`: exponential up periods with
    /// mean `mtbf_secs`, exponential outages with mean `mttr_secs`.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive and finite.
    #[must_use]
    pub fn crash_node(mut self, node: NodeId, mtbf_secs: f64, mttr_secs: f64) -> Self {
        assert!(
            mtbf_secs.is_finite() && mtbf_secs > 0.0 && mttr_secs.is_finite() && mttr_secs > 0.0,
            "outage process means must be positive"
        );
        self.nodes.push((
            node,
            OutageProcess {
                mtbf_secs,
                mttr_secs,
            },
        ));
        self
    }

    /// Adds a flap process for `link`, same semantics as [`Self::crash_node`].
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive and finite.
    #[must_use]
    pub fn flap_link(mut self, link: LinkId, mtbf_secs: f64, mttr_secs: f64) -> Self {
        assert!(
            mtbf_secs.is_finite() && mtbf_secs > 0.0 && mttr_secs.is_finite() && mttr_secs > 0.0,
            "outage process means must be positive"
        );
        self.links.push((
            link,
            OutageProcess {
                mtbf_secs,
                mttr_secs,
            },
        ));
        self
    }

    /// True if no process is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// Samples a concrete [`FaultSchedule`] up to `horizon`.
    ///
    /// Each target draws from an independent child stream of `rng` (split
    /// by target identity), so adding a process for one node never perturbs
    /// another's schedule. Every failure whose onset falls before the
    /// horizon is emitted together with its matching recovery, even when
    /// the recovery lands past the horizon — a run that stops earlier
    /// simply never applies it.
    #[must_use]
    pub fn generate(&self, horizon: SimTime, rng: &mut SimRng) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for (node, p) in &self.nodes {
            let mut stream = rng.split(&format!("fault-node-{}", node.0));
            Self::sample_outages(p, horizon, &mut stream, |from, to| {
                schedule.node_outage(*node, from, to);
            });
        }
        for (link, p) in &self.links {
            let mut stream = rng.split(&format!("fault-link-{}", link.0));
            Self::sample_outages(p, horizon, &mut stream, |from, to| {
                schedule.link_outage(*link, from, to);
            });
        }
        schedule
    }

    fn sample_outages(
        p: &OutageProcess,
        horizon: SimTime,
        rng: &mut SimRng,
        mut emit: impl FnMut(SimTime, SimTime),
    ) {
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(p.mtbf_secs));
            if t >= horizon {
                return;
            }
            let down_for = SimDuration::from_secs_f64(rng.exp(p.mttr_secs));
            emit(t, t + down_for);
            t += down_for;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let mut s = FaultSchedule::new();
        s.node_outage(NodeId(1), SimTime::from_secs(1), SimTime::from_secs(2))
            .link_outage(LinkId(0), SimTime::from_secs(3), SimTime::from_secs(4));
        assert_eq!(s.len(), 4);
        let kinds: Vec<FaultKind> = s.into_entries().map(|(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::NodeCrash(NodeId(1)),
                FaultKind::NodeRecover(NodeId(1)),
                FaultKind::LinkDown(LinkId(0)),
                FaultKind::LinkUp(LinkId(0)),
            ]
        );
    }

    #[test]
    fn empty_schedule_is_empty() {
        assert!(FaultSchedule::new().is_empty());
    }

    #[test]
    fn process_alternates_crash_and_recover_per_target() {
        let storm = FaultProcess::new().crash_node(NodeId(3), 2.0, 1.0);
        let mut rng = SimRng::seed_from(11);
        let schedule = storm.generate(SimTime::from_secs(120), &mut rng);
        assert!(schedule.len() >= 4, "a 120 s storm yields several outages");
        let entries: Vec<(SimTime, FaultKind)> = schedule.into_entries().collect();
        let mut up = true;
        let mut last = SimTime::ZERO;
        for (at, kind) in entries {
            match kind {
                FaultKind::NodeCrash(n) => {
                    assert_eq!(n, NodeId(3));
                    assert!(up, "crash while already down");
                    up = false;
                }
                FaultKind::NodeRecover(n) => {
                    assert_eq!(n, NodeId(3));
                    assert!(!up, "recover while up");
                    up = true;
                }
                other => panic!("unexpected {other:?}"),
            }
            assert!(at >= last, "entries out of order");
            last = at;
        }
        assert!(up, "every crash has its recovery");
    }

    #[test]
    fn process_is_deterministic_per_seed() {
        let storm = FaultProcess::new()
            .crash_node(NodeId(0), 3.0, 1.0)
            .flap_link(LinkId(2), 5.0, 0.5);
        let horizon = SimTime::from_secs(60);
        let a: Vec<_> = storm
            .generate(horizon, &mut SimRng::seed_from(9))
            .into_entries()
            .collect();
        let b: Vec<_> = storm
            .generate(horizon, &mut SimRng::seed_from(9))
            .into_entries()
            .collect();
        let c: Vec<_> = storm
            .generate(horizon, &mut SimRng::seed_from(10))
            .into_entries()
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn targets_draw_independent_streams() {
        // Adding a second process must not perturb the first one's draws.
        let horizon = SimTime::from_secs(60);
        let solo: Vec<_> = FaultProcess::new()
            .crash_node(NodeId(1), 4.0, 1.0)
            .generate(horizon, &mut SimRng::seed_from(5))
            .into_entries()
            .filter(|(_, k)| matches!(k, FaultKind::NodeCrash(NodeId(1))))
            .collect();
        let paired: Vec<_> = FaultProcess::new()
            .crash_node(NodeId(1), 4.0, 1.0)
            .crash_node(NodeId(2), 4.0, 1.0)
            .generate(horizon, &mut SimRng::seed_from(5))
            .into_entries()
            .filter(|(_, k)| matches!(k, FaultKind::NodeCrash(NodeId(1))))
            .collect();
        assert_eq!(solo, paired);
    }
}

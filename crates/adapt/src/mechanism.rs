//! The catalogue of the paper's ten adaptation approaches.
//!
//! [`MechanismKind`] enumerates them; [`MechanismProfile`] records the cost
//! model each mechanism exhibits in this framework (switch latency and
//! per-message overhead), used by experiments E1/E10 to contrast
//! lightweight adaptation against full reconfiguration.

use aas_obs::MetricsRegistry;
use core::fmt;

/// The ten dynamic-adaptability approaches of the paper's §2, in paper
/// order, plus `Reconfiguration` as the heavyweight reference point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// 1 — composition frameworks with pluggable components and aspects.
    CompositionFramework,
    /// 2 — the Strategy pattern with introspective switching.
    Strategy,
    /// 3 — aspect weaving (static weave, dynamic interchange).
    AspectWeaving,
    /// 4 — composition filters.
    CompositionFilters,
    /// 5 — connector interchange.
    ConnectorInterchange,
    /// 6 — composition paths with frozen stages.
    CompositionPath,
    /// 7 — interaction patterns (meta-object chains).
    InteractionPattern,
    /// 8 — adaptive middleware.
    AdaptiveMiddleware,
    /// 9 — injectors.
    Injector,
    /// 10 — adaptive component interfaces (meta protocol).
    AdaptiveInterface,
    /// The heavyweight alternative the paper contrasts with: dynamic
    /// reconfiguration (quiescence + channel blocking + state transfer).
    Reconfiguration,
}

impl MechanismKind {
    /// All ten adaptation mechanisms (excluding `Reconfiguration`).
    #[must_use]
    pub fn adaptation_mechanisms() -> [MechanismKind; 10] {
        [
            MechanismKind::CompositionFramework,
            MechanismKind::Strategy,
            MechanismKind::AspectWeaving,
            MechanismKind::CompositionFilters,
            MechanismKind::ConnectorInterchange,
            MechanismKind::CompositionPath,
            MechanismKind::InteractionPattern,
            MechanismKind::AdaptiveMiddleware,
            MechanismKind::Injector,
            MechanismKind::AdaptiveInterface,
        ]
    }

    /// A short stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::CompositionFramework => "composition-framework",
            MechanismKind::Strategy => "strategy",
            MechanismKind::AspectWeaving => "aspect-weaving",
            MechanismKind::CompositionFilters => "composition-filters",
            MechanismKind::ConnectorInterchange => "connector-interchange",
            MechanismKind::CompositionPath => "composition-path",
            MechanismKind::InteractionPattern => "interaction-pattern",
            MechanismKind::AdaptiveMiddleware => "adaptive-middleware",
            MechanismKind::Injector => "injector",
            MechanismKind::AdaptiveInterface => "adaptive-interface",
            MechanismKind::Reconfiguration => "reconfiguration",
        }
    }

    /// The cost profile this framework's implementation of the mechanism
    /// exhibits. Switch cost is in work units executed on the hosting node
    /// at switch time; per-message overhead is in work units.
    ///
    /// Adaptation mechanisms switch by swapping a pointer/spec (cheap) and
    /// tax every message a little; reconfiguration switches by quiescing
    /// and transferring state (expensive) but leaves the message path
    /// untouched afterwards — exactly the trade-off the paper describes.
    #[must_use]
    pub fn profile(self) -> MechanismProfile {
        let (switch_cost, per_message_overhead, availability_preserving) = match self {
            MechanismKind::CompositionFramework => (0.2, 0.010, true),
            MechanismKind::Strategy => (0.05, 0.002, true),
            MechanismKind::AspectWeaving => (0.1, 0.008, true),
            MechanismKind::CompositionFilters => (0.1, 0.012, true),
            MechanismKind::ConnectorInterchange => (0.15, 0.010, true),
            MechanismKind::CompositionPath => (0.05, 0.005, true),
            MechanismKind::InteractionPattern => (0.2, 0.015, true),
            MechanismKind::AdaptiveMiddleware => (0.3, 0.020, true),
            MechanismKind::Injector => (0.1, 0.010, true),
            MechanismKind::AdaptiveInterface => (0.15, 0.020, true),
            MechanismKind::Reconfiguration => (50.0, 0.0, false),
        };
        MechanismProfile {
            kind: self,
            switch_cost,
            per_message_overhead,
            availability_preserving,
        }
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost model of one mechanism in this framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismProfile {
    /// Which mechanism.
    pub kind: MechanismKind,
    /// Work units spent performing one switch/adaptation.
    pub switch_cost: f64,
    /// Work units added to every message while the mechanism is in place.
    pub per_message_overhead: f64,
    /// Whether the service stays available during the switch (adaptation)
    /// or blacks out (reconfiguration).
    pub availability_preserving: bool,
}

impl MechanismProfile {
    /// Total cost of operating this mechanism over a window that sees
    /// `messages` messages and performs `switches` switches.
    #[must_use]
    pub fn window_cost(&self, messages: u64, switches: u64) -> f64 {
        self.switch_cost * switches as f64 + self.per_message_overhead * messages as f64
    }

    /// The break-even message count: beyond this many messages per switch,
    /// reconfiguration's zero per-message overhead beats this mechanism's
    /// tax. Returns `None` for reconfiguration itself.
    #[must_use]
    pub fn break_even_vs_reconfig(&self) -> Option<f64> {
        if self.kind == MechanismKind::Reconfiguration || self.per_message_overhead == 0.0 {
            return None;
        }
        let reconfig = MechanismKind::Reconfiguration.profile();
        Some((reconfig.switch_cost - self.switch_cost) / self.per_message_overhead)
    }
}

/// Records per-mechanism switch activity into the shared metrics registry.
///
/// Every switch performed by an adaptation mechanism bumps
/// `mech.{name}.switches` and feeds its cost into the
/// `mech.{name}.switch_cost` histogram (work units), so experiments can
/// compare the switching tax of the ten mechanisms side by side from one
/// registry snapshot instead of each keeping private tallies.
///
/// # Examples
///
/// ```
/// use aas_adapt::mechanism::{MechanismKind, SwitchMeter};
/// use aas_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let meter = SwitchMeter::new(reg.clone());
/// meter.record_profiled_switch(MechanismKind::Strategy);
/// assert_eq!(meter.switches(MechanismKind::Strategy), 1);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("mech.strategy.switches"), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct SwitchMeter {
    registry: MetricsRegistry,
}

impl SwitchMeter {
    /// A meter recording into `registry`.
    #[must_use]
    pub fn new(registry: MetricsRegistry) -> Self {
        SwitchMeter { registry }
    }

    /// Records one switch by `kind` costing `cost` work units.
    pub fn record_switch(&self, kind: MechanismKind, cost: f64) {
        let name = kind.name();
        self.registry
            .counter(&format!("mech.{name}.switches"))
            .incr();
        self.registry
            .histogram(&format!("mech.{name}.switch_cost"))
            .observe(cost);
    }

    /// Records one switch priced by the mechanism's own cost profile.
    pub fn record_profiled_switch(&self, kind: MechanismKind) {
        self.record_switch(kind, kind.profile().switch_cost);
    }

    /// Number of switches recorded for `kind`.
    #[must_use]
    pub fn switches(&self, kind: MechanismKind) -> u64 {
        self.registry
            .counter(&format!("mech.{}.switches", kind.name()))
            .get()
    }

    /// Mean switch cost recorded for `kind` (`NaN` before any switch).
    #[must_use]
    pub fn mean_switch_cost(&self, kind: MechanismKind) -> f64 {
        self.registry
            .histogram(&format!("mech.{}.switch_cost", kind.name()))
            .snapshot()
            .mean()
    }

    /// The backing registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_per_mechanism() {
        let meter = SwitchMeter::new(MetricsRegistry::new());
        meter.record_switch(MechanismKind::AspectWeaving, 0.1);
        meter.record_switch(MechanismKind::AspectWeaving, 0.3);
        meter.record_profiled_switch(MechanismKind::Strategy);
        assert_eq!(meter.switches(MechanismKind::AspectWeaving), 2);
        assert_eq!(meter.switches(MechanismKind::Strategy), 1);
        assert_eq!(meter.switches(MechanismKind::Injector), 0);
        assert!((meter.mean_switch_cost(MechanismKind::AspectWeaving) - 0.2).abs() < 0.02);
        let strategy_cost = MechanismKind::Strategy.profile().switch_cost;
        let mean = meter.mean_switch_cost(MechanismKind::Strategy);
        assert!((mean - strategy_cost).abs() / strategy_cost < 0.05);
    }

    #[test]
    fn ten_adaptation_mechanisms_exactly() {
        let all = MechanismKind::adaptation_mechanisms();
        assert_eq!(all.len(), 10);
        let names: std::collections::BTreeSet<&str> = all.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 10, "names are distinct");
        assert!(!names.contains("reconfiguration"));
    }

    #[test]
    fn adaptation_is_cheap_to_switch_reconfig_is_cheap_to_run() {
        let reconfig = MechanismKind::Reconfiguration.profile();
        for m in MechanismKind::adaptation_mechanisms() {
            let p = m.profile();
            assert!(
                p.switch_cost < reconfig.switch_cost,
                "{m}: switching must be cheaper than reconfiguration"
            );
            assert!(
                p.per_message_overhead > reconfig.per_message_overhead,
                "{m}: steady-state must cost more than reconfigured code"
            );
            assert!(p.availability_preserving);
        }
        assert!(!reconfig.availability_preserving);
    }

    #[test]
    fn window_cost_composes() {
        let p = MechanismKind::Strategy.profile();
        let cost = p.window_cost(1000, 3);
        assert!((cost - (0.05 * 3.0 + 0.002 * 1000.0)).abs() < 1e-12);
    }

    #[test]
    fn break_even_exists_and_is_positive() {
        for m in MechanismKind::adaptation_mechanisms() {
            let be = m.profile().break_even_vs_reconfig().unwrap();
            assert!(be > 0.0, "{m}: {be}");
        }
        assert!(MechanismKind::Reconfiguration
            .profile()
            .break_even_vs_reconfig()
            .is_none());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(
            MechanismKind::CompositionFilters.to_string(),
            "composition-filters"
        );
    }
}

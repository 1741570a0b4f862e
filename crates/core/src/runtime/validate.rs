//! Up-front plan validation — the **Validate** phase of the transaction.
//!
//! Before a [`ReconfigPlan`] blocks a single channel, it is simulated
//! against a *shadow* of the current configuration graph: a cheap model of
//! components (placement + implementation source), connectors and
//! bindings that each action updates as if it had been applied. Any
//! action that is structurally impossible against that shadow — unknown
//! names, duplicate additions, interface-incompatible swaps or rebinds,
//! migration to a down or capacity-exhausted node, removals of things
//! still referenced — rejects the whole plan with a `plan_rejected`
//! audit record and zero mutations.
//!
//! Validation is a *pre-filter*, not a proof: dynamic failures (a node
//! dying mid-plan, a state snapshot failing to restore) are still caught
//! at apply time, where they trigger rollback instead of rejection.

use super::*;
use crate::interface::Interface;

/// Where a shadow component's implementation comes from: the live
/// instance (untouched so far by the plan) or a declaration introduced by
/// an earlier plan action (add or swap).
enum ShadowImpl {
    Live,
    Decl {
        type_name: String,
        version: u32,
        props: Props,
    },
}

struct ShadowComp {
    node: NodeId,
    impl_src: ShadowImpl,
}

impl Runtime {
    /// Simulates `plan` against a shadow of the live configuration graph.
    /// Returns the first structural impossibility as
    /// `"{action}: {detail}"`, or `Ok(())` if every action is applicable
    /// in order.
    pub(super) fn validate_plan(&self, plan: &ReconfigPlan) -> Result<(), String> {
        let mut comps: BTreeMap<String, ShadowComp> = self
            .instances
            .iter(&self.names)
            .map(|(name, inst)| {
                (
                    name.to_string(),
                    ShadowComp {
                        node: inst.node,
                        impl_src: ShadowImpl::Live,
                    },
                )
            })
            .collect();
        let mut connectors: BTreeMap<String, ConnectorSpec> = self
            .connectors
            .iter(&self.names)
            .map(|(name, c)| (name.to_string(), c.spec().clone()))
            .collect();
        // Shadow binding: source port -> (connector, target instances).
        let mut bindings: BTreeMap<(String, String), (String, Vec<String>)> = self
            .bindings
            .values(&self.names)
            .map(|b| {
                (
                    b.decl.from.clone(),
                    (
                        b.decl.via.clone(),
                        b.decl.to.iter().map(|(i, _)| i.clone()).collect(),
                    ),
                )
            })
            .collect();

        for action in plan.actions() {
            self.validate_action(action, &mut comps, &mut connectors, &mut bindings)
                .map_err(|detail| format!("{action}: {detail}"))?;
        }
        Ok(())
    }

    fn validate_action(
        &self,
        action: &ReconfigAction,
        comps: &mut BTreeMap<String, ShadowComp>,
        connectors: &mut BTreeMap<String, ConnectorSpec>,
        bindings: &mut BTreeMap<(String, String), (String, Vec<String>)>,
    ) -> Result<(), String> {
        match action {
            ReconfigAction::AddComponent { name, decl } => {
                if comps.contains_key(name) {
                    return Err(format!("component `{name}` already exists"));
                }
                if (decl.node.0 as usize) >= self.kernel.topology().node_count() {
                    return Err(format!("node `{}` unavailable", decl.node));
                }
                if !self.registry.contains(&decl.type_name, decl.version) {
                    return Err(format!(
                        "unknown implementation `{}` v{}",
                        decl.type_name, decl.version
                    ));
                }
                comps.insert(
                    name.clone(),
                    ShadowComp {
                        node: decl.node,
                        impl_src: ShadowImpl::Decl {
                            type_name: decl.type_name.clone(),
                            version: decl.version,
                            props: decl.props.clone(),
                        },
                    },
                );
                Ok(())
            }
            ReconfigAction::RemoveComponent { name } => {
                if !comps.contains_key(name) {
                    return Err(format!("unknown component `{name}`"));
                }
                let referenced = bindings
                    .iter()
                    .any(|(from, (_, to))| from.0 == *name || to.iter().any(|t| t == name));
                if referenced {
                    return Err(format!("component `{name}` still has bindings"));
                }
                comps.remove(name);
                Ok(())
            }
            ReconfigAction::SwapImplementation {
                name,
                type_name,
                version,
                ..
            } => {
                let shadow = comps
                    .get(name)
                    .ok_or_else(|| format!("unknown component `{name}`"))?;
                if !self.registry.contains(type_name, *version) {
                    return Err(format!("unknown implementation `{type_name}` v{version}"));
                }
                // Interface compatibility: the replacement must provide at
                // least what the current implementation provides.
                if let Some(old_iface) = self.shadow_provided(name, shadow) {
                    let props = match &shadow.impl_src {
                        ShadowImpl::Live => &self.live(name).props,
                        ShadowImpl::Decl { props, .. } => props,
                    };
                    if let Ok(replacement) = self.registry.instantiate(type_name, *version, props) {
                        let violations =
                            replacement.provided().check_backward_compatible(&old_iface);
                        if !violations.is_empty() {
                            return Err(format!(
                                "incompatible interface: {}",
                                violations
                                    .iter()
                                    .map(ToString::to_string)
                                    .collect::<Vec<_>>()
                                    .join("; ")
                            ));
                        }
                    }
                }
                if let Some(sc) = comps.get_mut(name) {
                    let props = match &sc.impl_src {
                        ShadowImpl::Live => self.live(name).props.clone(),
                        ShadowImpl::Decl { props, .. } => props.clone(),
                    };
                    sc.impl_src = ShadowImpl::Decl {
                        type_name: type_name.clone(),
                        version: *version,
                        props,
                    };
                }
                Ok(())
            }
            ReconfigAction::Migrate { name, to } => {
                if !comps.contains_key(name) {
                    return Err(format!("unknown component `{name}`"));
                }
                if (to.0 as usize) >= self.kernel.topology().node_count()
                    || !self.kernel.topology().node(*to).is_up()
                {
                    return Err(format!("node `{to}` unavailable"));
                }
                if self
                    .kernel
                    .topology()
                    .node(*to)
                    .effective_capacity(self.kernel.now())
                    <= 0.0
                {
                    return Err(format!("target `{to}` has no effective capacity"));
                }
                if let Some(sc) = comps.get_mut(name) {
                    sc.node = *to;
                }
                Ok(())
            }
            ReconfigAction::AddConnector { name, spec } => {
                if connectors.contains_key(name) {
                    return Err(format!("connector `{name}` already exists"));
                }
                connectors.insert(name.clone(), spec.clone());
                Ok(())
            }
            ReconfigAction::RemoveConnector { name } => {
                if !connectors.contains_key(name) {
                    return Err(format!("unknown connector `{name}`"));
                }
                if bindings.values().any(|(via, _)| via == name) {
                    return Err(format!("connector `{name}` still in use"));
                }
                connectors.remove(name);
                Ok(())
            }
            ReconfigAction::SwapConnector { name, spec } => {
                if !connectors.contains_key(name) {
                    return Err(format!("unknown connector `{name}`"));
                }
                connectors.insert(name.clone(), spec.clone());
                Ok(())
            }
            ReconfigAction::Bind(decl) => {
                if !comps.contains_key(&decl.from.0) {
                    return Err(format!("unknown component `{}`", decl.from.0));
                }
                let conn_spec = connectors
                    .get(&decl.via)
                    .ok_or_else(|| format!("unknown connector `{}`", decl.via))?;
                if bindings.contains_key(&decl.from) {
                    return Err(format!(
                        "port `{}.{}` already bound",
                        decl.from.0, decl.from.1
                    ));
                }
                for (inst, _) in &decl.to {
                    let shadow = comps
                        .get(inst)
                        .ok_or_else(|| format!("unknown component `{inst}`"))?;
                    // Protocol compatibility (interface-incompatible
                    // rebinds): when both sides publish protocols, their
                    // synchronous product must be deadlock-free.
                    if let (Some(conn_proto), Some(comp_proto)) = (
                        conn_spec.protocol.as_ref(),
                        self.shadow_protocol(inst, shadow),
                    ) {
                        let report = crate::lts::check_compatibility(conn_proto, &comp_proto);
                        if !report.is_compatible() {
                            return Err(format!(
                                "incompatible protocols between connector `{}` and `{inst}`",
                                decl.via
                            ));
                        }
                    }
                }
                bindings.insert(
                    decl.from.clone(),
                    (
                        decl.via.clone(),
                        decl.to.iter().map(|(i, _)| i.clone()).collect(),
                    ),
                );
                Ok(())
            }
            ReconfigAction::Unbind { from } => {
                if bindings.remove(from).is_none() {
                    return Err(format!("no binding at `{}.{}`", from.0, from.1));
                }
                Ok(())
            }
        }
    }

    /// The live instance behind a shadow component the plan has not
    /// touched yet.
    fn live(&self, name: &str) -> &Instance {
        self.instances
            .get(&self.names, name)
            .expect("untouched shadow components are live")
    }

    /// The provided interface of a shadow component: read from the live
    /// instance when untouched, otherwise instantiated from the registry
    /// declaration an earlier plan action introduced.
    fn shadow_provided(&self, name: &str, shadow: &ShadowComp) -> Option<Interface> {
        match &shadow.impl_src {
            ShadowImpl::Live => self
                .instances
                .get(&self.names, name)
                .map(|i| i.component.provided()),
            ShadowImpl::Decl {
                type_name,
                version,
                props,
            } => self
                .registry
                .instantiate(type_name, *version, props)
                .ok()
                .map(|c| c.provided()),
        }
    }

    /// The behavioural protocol of a shadow component, if it publishes
    /// one.
    fn shadow_protocol(&self, name: &str, shadow: &ShadowComp) -> Option<crate::lts::Lts> {
        match &shadow.impl_src {
            ShadowImpl::Live => self
                .instances
                .get(&self.names, name)
                .and_then(|i| i.component.protocol()),
            ShadowImpl::Decl {
                type_name,
                version,
                props,
            } => self
                .registry
                .instantiate(type_name, *version, props)
                .ok()
                .and_then(|c| c.protocol()),
        }
    }
}

use super::*;

impl Runtime {
    // ------------------------------------------------------------------
    // RAML
    // ------------------------------------------------------------------

    /// Installs the meta-level and starts its periodic observation tick.
    pub fn install_raml(&mut self, raml: Raml) {
        let interval = raml.interval();
        self.raml = Some(raml);
        let tag = self.kernel.set_timer(interval);
        self.timers.insert(tag, TimerPurpose::RamlTick);
    }

    /// The installed meta-level, if any.
    #[must_use]
    pub fn raml(&self) -> Option<&Raml> {
        self.raml.as_ref()
    }

    /// Takes a full introspection snapshot right now.
    #[must_use]
    pub fn observe(&self) -> SystemSnapshot {
        let now = self.kernel.now();
        let components = self
            .instances
            .iter(&self.names)
            .map(|(name, inst)| {
                let (mean_latency_ms, p99_latency_ms) = inst.latency.mean_and_quantile(0.99);
                ComponentObservation {
                    name: name.to_string(),
                    type_name: inst.type_name.clone(),
                    version: inst.version,
                    node: inst.node,
                    lifecycle: inst.lifecycle,
                    inflight: inst.inflight,
                    processed: inst.processed,
                    errors: inst.errors,
                    mean_latency_ms,
                    p99_latency_ms,
                    seq_anomalies: inst.tracker.gaps() + inst.tracker.duplicates(),
                    custom: inst
                        .custom
                        .iter()
                        .map(|(k, s)| (k.to_string(), s.mean_and_quantile(0.0).0))
                        .collect(),
                }
            })
            .collect();
        let nodes = self
            .kernel
            .topology()
            .nodes()
            .map(|n| NodeObservation {
                id: n.id(),
                up: n.is_up(),
                utilization: n.utilization(now),
                backlog_ms: n.backlog(now).as_micros() as f64 / 1e3,
                effective_capacity: n.effective_capacity(now),
                hosted: self
                    .instances
                    .iter(&self.names)
                    .filter(|(_, i)| i.node == n.id())
                    .map(|(name, _)| name.to_string())
                    .collect(),
            })
            .collect();
        let connectors = self
            .connectors
            .iter(&self.names)
            .map(|(name, c)| ConnectorObservation {
                name: name.to_string(),
                mediated: c.stats().mediated,
                violations: c.stats().violations,
                seq_anomalies: c.stats().seq_anomalies,
                mean_metered_latency_ms: c.stats().metered_latency.mean(),
            })
            .collect();
        SystemSnapshot {
            at: now,
            components,
            nodes,
            connectors,
            delivered: self.kernel.counters().get("delivered"),
            dropped: self.kernel.counters().get("dropped") + self.m.dropped.get(),
        }
    }

    /// Applies (and drains) the effects a handler of instance `from`
    /// buffered; `current` is the message it was handling, if any.
    pub(super) fn apply_effects(
        &mut self,
        from: NameId,
        effects: &mut Vec<Effect>,
        current: Option<&Message>,
        now: SimTime,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { port, message } => {
                    self.dispatch_send(from, &port, message);
                }
                Effect::Reply { value } => {
                    if let Some(cur) = current {
                        if cur.kind == MessageKind::Request {
                            let op = self.reply_op(&cur.op);
                            let reply = Message::reply_named(cur, op, value);
                            self.route_reply(from, &cur.from, reply, now);
                        }
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    let t = self.kernel.set_timer(delay);
                    self.timers.insert(
                        t,
                        TimerPurpose::ComponentTimer {
                            instance: from,
                            tag,
                        },
                    );
                }
                Effect::Metric { name, value } => {
                    let metrics = &self.obs.metrics;
                    if let Some(inst) = self.instances.at_mut(from) {
                        match inst.custom.get(name.as_str()) {
                            Some(h) => h.observe(value),
                            None => {
                                let key = format!("comp.{}.{name}", self.names.name(from));
                                let h = metrics.histogram(&key);
                                h.observe(value);
                                inst.custom.insert(name, h);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The op of a reply to a request for `op`, `"<op>.reply"`, built
    /// once per op.
    fn reply_op(&mut self, op: &Name) -> Name {
        if let Some(reply) = self.reply_ops.get(op.as_str()) {
            return reply.clone();
        }
        let reply = Name::from(format!("{op}.reply"));
        self.reply_ops.insert(op.clone(), reply.clone());
        reply
    }

    /// Event-triggered reconfiguration (the Durra path): faults are fed
    /// to RAML's fault rules immediately, outside the periodic tick.
    pub(super) fn on_fault(&mut self, kind: FaultKind) {
        let Some(mut raml) = self.raml.take() else {
            return;
        };
        let snap = self.observe();
        let intercessions = raml.on_fault(kind, &snap);
        self.raml = Some(raml);
        for cmd in intercessions {
            match cmd {
                Intercession::Reconfigure(plan) => {
                    let _ = self.request_reconfig(plan);
                }
                Intercession::AdaptConnector { name, spec } => {
                    let _ = self.adapt_connector(&name, spec);
                }
                Intercession::Notify(text) => {
                    self.events
                        .push((self.kernel.now(), RuntimeEvent::Notify(text)));
                }
            }
        }
    }

    pub(super) fn on_raml_tick(&mut self, _now: SimTime) {
        let Some(mut raml) = self.raml.take() else {
            return;
        };
        let snap = self.observe();
        let intercessions = raml.evaluate(&snap);
        let interval = raml.interval();
        self.raml = Some(raml);
        for cmd in intercessions {
            match cmd {
                Intercession::Reconfigure(plan) => {
                    let _ = self.request_reconfig(plan);
                }
                Intercession::AdaptConnector { name, spec } => {
                    let _ = self.adapt_connector(&name, spec);
                }
                Intercession::Notify(text) => {
                    self.events
                        .push((self.kernel.now(), RuntimeEvent::Notify(text)));
                }
            }
        }
        let tag = self.kernel.set_timer(interval);
        self.timers.insert(tag, TimerPurpose::RamlTick);
    }
}

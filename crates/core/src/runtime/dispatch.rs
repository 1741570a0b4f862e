use super::*;
use crate::connector::Mediation;
use core::ops::Range;

impl Runtime {
    /// Schedules a backed-off redelivery for a dropped envelope if the
    /// mediating connector carries a retry policy with attempts to spare.
    pub(super) fn maybe_retry(&mut self, env: Envelope, _now: SimTime) {
        let Some(via) = env.via else {
            return;
        };
        let Some(policy) = self.connectors.at(via).and_then(|c| c.spec().retry) else {
            return;
        };
        // The negotiated retry budget caps (never raises) the connector's
        // own policy.
        let max_attempts = match self.negotiate_retry_cap(env.to) {
            Some(cap) => policy.max_attempts.min(cap),
            None => policy.max_attempts,
        };
        if env.attempt + 1 >= max_attempts {
            return;
        }
        let delay = policy.delay_for(env.attempt);
        let mut env = env;
        env.attempt += 1;
        self.m.retries.incr();
        let tag = self.kernel.set_timer(delay);
        self.timers
            .insert(tag, TimerPurpose::Retry { envelope: env });
    }

    /// Re-sends a retried envelope over its binding's current channel.
    pub(super) fn resend(&mut self, env: Envelope, now: SimTime) {
        let Some(via) = env.via else {
            return;
        };
        let mut channel = None;
        for b in self.bindings.values(&self.names) {
            if b.via != via || b.from != env.from {
                continue;
            }
            for (to, ch) in b.targets.iter().zip(&b.channels) {
                if *to == env.to {
                    channel = Some(*ch);
                    break;
                }
            }
        }
        let Some(ch) = channel else {
            return; // binding went away; the retry dies quietly
        };
        let size = env.msg.wire_size();
        if let Err((_, env)) = self.kernel.try_send(ch, env, size) {
            self.m.dropped.incr();
            self.maybe_retry(env, now);
        }
    }

    /// Rebinds every channel touching `name` to its new node.
    pub(super) fn rehome_channels(&mut self, name: &str, node: NodeId) {
        if let Some(inst) = self.instances.get(&self.names, name) {
            self.kernel.rebind_channel(inst.external, node, node);
        }
        let reply_updates: Vec<(ChannelId, NodeId, NodeId)> = self
            .reply_channels_touching(name)
            .into_iter()
            .filter_map(|((from, to), ch)| {
                let node_of = |end: NameId| {
                    if self.names.name(end) == name {
                        Some(node)
                    } else {
                        self.instances.at(end).map(|i| i.node)
                    }
                };
                Some((ch, node_of(from)?, node_of(to)?))
            })
            .collect();
        for (ch, s, d) in reply_updates {
            self.kernel.rebind_channel(ch, s, d);
        }
        let mut binding_updates: Vec<(ChannelId, NodeId, NodeId)> = Vec::new();
        for b in self.bindings.values(&self.names) {
            let src = &b.decl.from.0;
            for ((inst, _), ch) in b.decl.to.iter().zip(&b.channels) {
                if src != name && inst != name {
                    continue;
                }
                let s = if src == name {
                    node
                } else {
                    match self.instances.get(&self.names, src) {
                        Some(i) => i.node,
                        None => continue,
                    }
                };
                let d = if inst == name {
                    node
                } else {
                    match self.instances.get(&self.names, inst) {
                        Some(i) => i.node,
                        None => continue,
                    }
                };
                binding_updates.push((*ch, s, d));
            }
        }
        for (ch, s, d) in binding_updates {
            self.kernel.rebind_channel(ch, s, d);
        }
    }

    /// The reply channels with instance `name` at either end, in
    /// `(sender, receiver)` name order: the order the audit log and the
    /// fingerprints have always seen them in.
    pub(super) fn reply_channels_touching(&self, name: &str) -> Vec<((NameId, NameId), ChannelId)> {
        let Some(id) = self.names.get(name) else {
            return Vec::new();
        };
        let mut out: Vec<_> = self
            .reply_channels
            .iter()
            .filter(|((from, to), _)| *from == id || *to == id)
            .map(|(key, ch)| (*key, *ch))
            .collect();
        let names = |(from, to): (NameId, NameId)| (self.names.name(from), self.names.name(to));
        out.sort_by(|(a, _), (b, _)| names(*a).cmp(&names(*b)));
        out
    }

    pub(super) fn on_delivered(&mut self, env: Envelope, now: SimTime) {
        match self.instances.at(env.to) {
            None => {
                self.m.dropped.incr();
                self.events.push((
                    now,
                    RuntimeEvent::Dropped {
                        reason: format!("no instance `{}`", self.names.name(env.to)),
                    },
                ));
                return;
            }
            Some(inst) if inst.lifecycle == Lifecycle::Failed => {
                self.m.dropped.incr();
                self.events.push((
                    now,
                    RuntimeEvent::Dropped {
                        reason: format!("instance `{}` failed", self.names.name(env.to)),
                    },
                ));
                self.maybe_retry(env, now);
                return;
            }
            Some(_) => {}
        }
        // Negotiation admission gate: a granted-down agent sheds the
        // overflow deterministically and cheapens what it does admit.
        let (cost_scale, admit) = self.negotiate_admit(env.to);
        if !admit {
            self.negotiate.shed_total += 1;
            self.m.shed.incr();
            return;
        }
        let inst = self.instances.at_mut(env.to).expect("checked");
        let cost = (env.extra_cost + inst.component.work_cost(&env.msg)) * cost_scale;
        let node = inst.node;
        let Some(delay) = self.kernel.run_job(node, cost) else {
            self.m.dropped.incr();
            self.events.push((
                now,
                RuntimeEvent::Dropped {
                    reason: format!("node for `{}` down", self.names.name(env.to)),
                },
            ));
            self.maybe_retry(env, now);
            return;
        };
        self.m.delivered.incr();
        let inst = self.instances.at_mut(env.to).expect("checked");
        inst.inflight += 1;
        let tag = self.kernel.set_timer(delay);
        self.timers
            .insert(tag, TimerPurpose::JobDone { envelope: env });
    }

    pub(super) fn on_job_done(&mut self, env: Envelope, now: SimTime) {
        let Some(inst) = self.instances.at_mut(env.to) else {
            return;
        };
        inst.inflight = inst.inflight.saturating_sub(1);

        // Channel-preservation accounting (loss/dup/reorder detection).
        if env.msg.kind != MessageKind::Reply {
            let _ = inst.tracker.observe(&env.from, env.msg.seq);
        }

        // Latency metrics.
        let e2e = now.saturating_since(env.msg.sent_at);
        inst.latency.observe(ms(e2e));
        self.m.e2e_latency.observe(ms(e2e));
        if env.msg.kind == MessageKind::Reply {
            if let Some(corr) = env.msg.correlation {
                if let Some(sent) = self.pending_requests.remove(&corr) {
                    self.m.rtt.observe(ms(now.saturating_since(sent)));
                }
            }
        }

        // Hand to the component (replies only if it declares the op), in
        // the runtime's reused call context.
        let deliver =
            env.msg.kind != MessageKind::Reply || inst.component.provided().provides(&env.msg.op);
        let mut ctx = std::mem::take(&mut self.call);
        if deliver {
            ctx.rearm(now, self.names.name(env.to).clone());
            if let Err(e) = inst.component.on_message(&mut ctx, &env.msg) {
                inst.errors += 1;
                self.m.handler_errors.incr();
                self.events.push((
                    now,
                    RuntimeEvent::HandlerError {
                        instance: self.names.name(env.to).to_string(),
                        details: e.to_string(),
                    },
                ));
            }
        }
        inst.processed += 1;

        let drained = inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0;
        if drained {
            inst.lifecycle = Lifecycle::Quiescent;
        }
        self.apply_effects(env.to, ctx.effects_mut(), Some(&env.msg), now);
        self.call = ctx;
        if drained {
            self.advance_reconfig();
        }
    }

    pub(super) fn dispatch_send(&mut self, from: NameId, port: &str, msg: Message) {
        let Some(binding) = self.bindings.find(from, port) else {
            self.m.unrouted.incr();
            self.events.push((
                self.kernel.now(),
                RuntimeEvent::Dropped {
                    reason: format!("no binding at `{}.{port}`", self.names.name(from)),
                },
            ));
            return;
        };
        let via = binding.via;
        let target_count = binding.targets.len();

        let now = self.kernel.now();
        let connector = self.connectors.at_mut(via).expect("bound connector");
        let mediation = connector.mediate(&msg, now, target_count);
        if let Some(v) = &mediation.violation {
            self.events.push((
                now,
                RuntimeEvent::ProtocolViolation {
                    connector: self.names.name(via).to_string(),
                    details: v.to_string(),
                },
            ));
        }

        // Every target but the last gets a copy; the last takes `msg`.
        let Range { start, end } = mediation.targets.clone();
        for idx in start..end - 1 {
            self.send_to_target(from, port, idx, msg.clone(), &mediation);
        }
        self.send_to_target(from, port, end - 1, msg, &mediation);

        // Deferred connector interchange: apply once the collaboration
        // automaton reaches a final (quiescent) state.
        if !self.pending_connector_swaps.is_empty() {
            let name = self.names.name(via).clone();
            if self.pending_connector_swaps.contains_key(name.as_str()) {
                let quiescent = self
                    .connectors
                    .at(via)
                    .is_some_and(Connector::at_quiescent_point);
                if quiescent {
                    if let Some(spec) = self.pending_connector_swaps.remove(name.as_str()) {
                        let _ = self.adapt_connector(&name, spec);
                    }
                }
            }
        }
    }

    /// Sends `msg` to target `idx` of the binding on `from`'s `port`, as
    /// mediated, and schedules a retry if the send fails.
    fn send_to_target(
        &mut self,
        from: NameId,
        port: &str,
        idx: usize,
        msg: Message,
        mediation: &Mediation,
    ) {
        let binding = self.bindings.find(from, port).expect("routed binding");
        let (via, to, ch) = (binding.via, binding.targets[idx], binding.channels[idx]);
        let mut env = self.finalize(from, to, msg, Some(via));
        env.extra_cost = mediation.extra_cost;
        let size = (env.msg.wire_size() as f64 * mediation.size_factor) as u64;
        if let Err((_, env)) = self.kernel.try_send(ch, env, size) {
            self.m.dropped.incr();
            let now = self.kernel.now();
            self.maybe_retry(env, now);
        }
    }

    /// Assigns id, per-flow sequence number, sender and timestamp to a
    /// message copy headed for `to`, and registers pending requests.
    pub(super) fn finalize(
        &mut self,
        from: NameId,
        to: NameId,
        mut msg: Message,
        via: Option<NameId>,
    ) -> Envelope {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.from = self.names.name(from).clone();
        msg.sent_at = self.kernel.now();
        if msg.kind != MessageKind::Reply {
            let seq = self.flow_seq.entry((from, to)).or_insert(0);
            msg.seq = *seq;
            *seq += 1;
            if let Some(conn) = via.and_then(|via| self.connectors.at_mut(via)) {
                if conn.has_sequence_check() {
                    conn.observe_sequence((from, to), msg.seq);
                }
            }
        }
        if msg.kind == MessageKind::Request {
            self.pending_requests.insert(msg.id, msg.sent_at);
        }
        Envelope {
            msg,
            from,
            to,
            via,
            extra_cost: 0.0,
            attempt: 0,
            kind: EnvKind::Normal,
        }
    }

    pub(super) fn route_reply(&mut self, from: NameId, to: &str, reply: Message, now: SimTime) {
        if to == EXTERNAL {
            let mut reply = reply;
            reply.id = MessageId(self.next_msg_id);
            self.next_msg_id += 1;
            reply.from = self.names.name(from).clone();
            reply.sent_at = now;
            if let Some(corr) = reply.correlation {
                if let Some(sent) = self.pending_requests.remove(&corr) {
                    self.m.rtt.observe(ms(now.saturating_since(sent)));
                }
            }
            self.outbox.push((now, reply));
            return;
        }
        let Some(from_node) = self.instances.at(from).map(|i| i.node) else {
            return;
        };
        let Some(to) = self.instances.id_of(&self.names, to) else {
            self.m.dropped.incr();
            return;
        };
        let to_node = self.instances.at(to).expect("live instance").node;
        let ch = match self.reply_channels.get(&(from, to)) {
            Some(ch) => *ch,
            None => {
                let ch = self.kernel.open_channel(from_node, to_node);
                self.reply_channels.insert((from, to), ch);
                ch
            }
        };
        let env = self.finalize(from, to, reply, None);
        let size = env.msg.wire_size();
        if !self.kernel.send(ch, env, size).is_sent() {
            self.m.dropped.incr();
        }
    }
}

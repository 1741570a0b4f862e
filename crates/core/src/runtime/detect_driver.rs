use super::*;

impl Runtime {
    // ------------------------------------------------------------------
    // Self-healing: failure detection and repair
    // ------------------------------------------------------------------

    /// Installs the heartbeat failure detector and starts its periodic
    /// tick. Every node other than the monitor is watched: each tick it
    /// emits a heartbeat over an ordinary kernel channel to the monitor
    /// node, so crashes and partitions starve the detector naturally.
    pub fn enable_failure_detector(&mut self, config: DetectorConfig) {
        let now = self.kernel.now();
        let monitor = config.monitor;
        let interval = config.interval;
        let mut detector = FailureDetector::new(config);
        let mut hb_channels = BTreeMap::new();
        for i in 0..self.kernel.topology().node_count() {
            let node = NodeId(i as u32);
            if node == monitor {
                continue;
            }
            detector.watch(node, now);
            hb_channels.insert(node, self.kernel.open_channel(node, monitor));
        }
        self.detector = Some(DetectorRt {
            detector,
            hb_channels,
            gauges: None,
        });
        let tag = self.kernel.set_timer(interval);
        self.timers.insert(tag, TimerPurpose::DetectorTick);
    }

    /// The installed failure detector, if any.
    #[must_use]
    pub fn failure_detector(&self) -> Option<&FailureDetector> {
        self.detector.as_ref().map(|d| &d.detector)
    }

    /// One detector period: emit heartbeats, re-evaluate suspicion,
    /// export `phi`, and drive the repair queue.
    pub(super) fn on_detector_tick(&mut self, now: SimTime) {
        let Some(mut drt) = self.detector.take() else {
            return;
        };
        // Each watched node emits a heartbeat towards the monitor. A send
        // from a down node (or across a dead route) fails in the kernel —
        // that silence is exactly what accrues suspicion.
        for (node, ch) in &drt.hb_channels {
            // Heartbeats are intercepted at delivery: `from`/`to` are unused.
            let env = Envelope {
                msg: Message::event("heartbeat", Value::Null),
                from: EXTERNAL_ID,
                to: EXTERNAL_ID,
                via: None,
                extra_cost: 0.0,
                attempt: 0,
                kind: EnvKind::Heartbeat(*node),
            };
            let _ = self.kernel.send(*ch, env, 16);
        }
        let events = drt.detector.evaluate(now);
        let detector = &drt.detector;
        let gauges = drt
            .gauges
            .get_or_insert_with(|| DetectorGauges::resolve(&self.obs, detector));
        let mut max_phi: f64 = 0.0;
        let mut suspected = 0_u32;
        for (node, gauge) in &gauges.phi {
            let phi = detector.phi(*node, now);
            max_phi = max_phi.max(phi);
            gauge.set(phi);
            suspected += u32::from(detector.is_suspected(*node));
        }
        self.m.phi.observe(max_phi);
        gauges.suspected.set(f64::from(suspected));
        let interval = drt.detector.config().interval;
        self.detector = Some(drt);
        if events.is_empty() {
            // A quiet tick: the detect→plan→repair loop idled under the
            // policy in force — itself a coverage-worthy state.
            self.coverage.record(
                DetectPhase::Steady,
                self.heal.policy.label(),
                PlanOutcome::Observed,
            );
        }
        for ev in events {
            match ev {
                DetectorEvent::Suspected(node, phi) => {
                    self.obs.audit.failure_suspected(
                        &node.to_string(),
                        &format!("phi={phi:.2}"),
                        now.as_micros(),
                    );
                    if let Some(crash_at) = self.heal.crash_times.get(&node) {
                        self.m.mttd.observe(ms(now.saturating_since(*crash_at)));
                    }
                    self.heal.repair_queue.insert(node);
                }
                DetectorEvent::Restored(node) => {
                    self.coverage.record(
                        DetectPhase::Restored,
                        self.heal.policy.label(),
                        PlanOutcome::Observed,
                    );
                    self.obs
                        .audit
                        .failure_cleared(&node.to_string(), now.as_micros());
                }
            }
        }
        self.try_repairs(now);
        let tag = self.kernel.set_timer(interval);
        self.timers.insert(tag, TimerPurpose::DetectorTick);
    }
}

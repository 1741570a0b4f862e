//! Simulated plants (controlled processes) for closed-loop evaluation.
//!
//! Two plants matter for the paper's argument:
//!
//! - [`FirstOrderLag`] — the linear, well-behaved process differential-
//!   equation control was built for; PID excels here.
//! - [`SoftwareQueue`] — a saturating, load-dependent queueing system, the
//!   shape of a software QoS process: nonlinear service curve, hard
//!   saturation, dead time. This is where the paper claims classical
//!   formalisms stop fitting (experiment E8).

use std::collections::VecDeque;

/// A process controlled by a scalar input, observed as a scalar output.
pub trait Plant {
    /// Advances the plant by `dt` seconds under control input `u` and
    /// returns the measured output.
    fn step(&mut self, u: f64, dt: f64) -> f64;

    /// The current output without advancing time.
    fn output(&self) -> f64;
}

/// First-order lag: `tau * dy/dt = gain * u - y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstOrderLag {
    gain: f64,
    tau: f64,
    y: f64,
}

impl FirstOrderLag {
    /// A lag with the given static gain and time constant (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    #[must_use]
    pub fn new(gain: f64, tau: f64) -> Self {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be positive");
        FirstOrderLag { gain, tau, y: 0.0 }
    }
}

impl Plant for FirstOrderLag {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        // Exact discretization of the first-order ODE.
        let a = (-dt / self.tau).exp();
        self.y = self.y * a + self.gain * u * (1.0 - a);
        self.y
    }

    fn output(&self) -> f64 {
        self.y
    }
}

/// A software-queue plant: requests arrive at `arrival_rate`, are served at
/// a rate that *saturates* in the control input, and the measured output is
/// the queue latency — observed only after a dead time.
///
/// Nonlinearities: service rate `capacity * u / (u + knee)` (diminishing
/// returns), queue length clamped at zero (one-sided saturation), and a
/// measurement delay.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareQueue {
    capacity: f64,
    knee: f64,
    arrival_rate: f64,
    queue: f64,
    dead_steps: usize,
    delayed: VecDeque<f64>,
}

impl SoftwareQueue {
    /// Creates a queue plant.
    ///
    /// - `capacity`: asymptotic max service rate (req/s);
    /// - `knee`: control input at which half of capacity is reached;
    /// - `dead_steps`: measurement delay, in control periods.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `knee` is not positive.
    #[must_use]
    pub fn new(capacity: f64, knee: f64, dead_steps: usize) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(knee > 0.0, "knee must be positive");
        SoftwareQueue {
            capacity,
            knee,
            arrival_rate: 0.0,
            queue: 0.0,
            dead_steps,
            delayed: VecDeque::new(),
        }
    }

    /// Sets the offered load (requests per second).
    pub fn set_arrival_rate(&mut self, rate: f64) {
        self.arrival_rate = rate.max(0.0);
    }

    /// Current true queue length (requests), before measurement delay.
    #[must_use]
    pub fn queue_len(&self) -> f64 {
        self.queue
    }

    /// Service rate for control input `u` (saturating).
    #[must_use]
    pub fn service_rate(&self, u: f64) -> f64 {
        let u = u.max(0.0);
        self.capacity * u / (u + self.knee)
    }
}

impl Plant for SoftwareQueue {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        let served = self.service_rate(u) * dt;
        let arrived = self.arrival_rate * dt;
        self.queue = (self.queue + arrived - served).max(0.0);
        // Latency estimate: queue length / current service rate (bounded).
        let rate = self.service_rate(u).max(1e-6);
        let latency = self.queue / rate;
        self.delayed.push_back(latency);
        if self.delayed.len() > self.dead_steps {
            self.delayed.pop_front().unwrap_or(latency)
        } else {
            0.0
        }
    }

    fn output(&self) -> f64 {
        self.delayed.front().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_settles_to_gain_times_input() {
        let mut p = FirstOrderLag::new(2.0, 0.5);
        let mut y = 0.0;
        for _ in 0..200 {
            y = p.step(3.0, 0.05);
        }
        assert!((y - 6.0).abs() < 1e-3, "settled at {y}");
    }

    #[test]
    fn lag_step_response_is_monotone() {
        let mut p = FirstOrderLag::new(1.0, 1.0);
        let mut prev = 0.0;
        for _ in 0..100 {
            let y = p.step(1.0, 0.1);
            assert!(y >= prev - 1e-12);
            prev = y;
        }
        assert!(prev < 1.0, "never overshoots");
    }

    #[test]
    fn queue_grows_when_underserved() {
        let mut q = SoftwareQueue::new(100.0, 1.0, 0);
        q.set_arrival_rate(50.0);
        // u = 0: no service at all.
        let lat1 = q.step(0.0, 1.0);
        let lat2 = q.step(0.0, 1.0);
        assert!(q.queue_len() > 99.0);
        assert!(lat2 > lat1);
    }

    #[test]
    fn queue_drains_when_overserved() {
        let mut q = SoftwareQueue::new(100.0, 1.0, 0);
        q.set_arrival_rate(10.0);
        for _ in 0..10 {
            q.step(0.1, 1.0); // underserve: build up
        }
        let built = q.queue_len();
        for _ in 0..50 {
            q.step(100.0, 1.0); // ~99 req/s service
        }
        assert!(q.queue_len() < built);
    }

    #[test]
    fn service_rate_saturates() {
        let q = SoftwareQueue::new(100.0, 1.0, 0);
        assert!(q.service_rate(1.0) < q.service_rate(10.0));
        assert!(q.service_rate(1000.0) < 100.0);
        assert!((q.service_rate(1.0) - 50.0).abs() < 1e-9, "half at knee");
        assert_eq!(q.service_rate(-5.0), 0.0);
    }

    #[test]
    fn dead_time_delays_measurement() {
        let mut q = SoftwareQueue::new(100.0, 1.0, 3);
        q.set_arrival_rate(200.0); // overload immediately
        assert_eq!(q.step(1.0, 1.0), 0.0, "not yet visible");
        assert_eq!(q.step(1.0, 1.0), 0.0);
        assert_eq!(q.step(1.0, 1.0), 0.0);
        assert!(q.step(1.0, 1.0) > 0.0, "finally visible");
    }

    #[test]
    fn queue_never_negative() {
        let mut q = SoftwareQueue::new(100.0, 1.0, 0);
        q.set_arrival_rate(0.0);
        q.step(100.0, 10.0);
        assert_eq!(q.queue_len(), 0.0);
    }
}

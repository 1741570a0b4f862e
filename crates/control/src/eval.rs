//! Closed-loop evaluation: step responses and tracking metrics.
//!
//! The benchmark harness (experiment E8) uses this module to compare
//! controllers on identical plants: it runs a closed loop for a fixed
//! horizon and summarizes the trajectory as overshoot, settling time,
//! ITAE and steady-state error.

use crate::control_loop::ControlLoop;
use crate::plant::Plant;

/// One sample of a closed-loop trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time in seconds.
    pub t: f64,
    /// Measured plant output.
    pub y: f64,
    /// Actuator value applied.
    pub u: f64,
}

/// Summary of a step response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseMetrics {
    /// Peak overshoot as a percentage of the step size (0 if none).
    pub overshoot_pct: f64,
    /// Time until the output stays within ±5% of the step size around the
    /// setpoint; equals the horizon if it never settles.
    pub settling_time: f64,
    /// Integral of time-weighted absolute error.
    pub itae: f64,
    /// Mean absolute error over the last 10% of the horizon.
    pub steady_state_error: f64,
}

/// Runs `loop_` against `plant` for `duration` seconds with control period
/// `dt`, returning the trajectory. The plant is measured, the loop ticks,
/// and the actuator is applied for the next period.
pub fn run_closed_loop(
    loop_: &mut ControlLoop,
    plant: &mut dyn Plant,
    duration: f64,
    dt: f64,
) -> Vec<TracePoint> {
    assert!(dt > 0.0 && duration > 0.0, "positive horizon required");
    let steps = (duration / dt).ceil() as usize;
    let mut trace = Vec::with_capacity(steps);
    let mut u = loop_.actuator();
    for i in 0..steps {
        let t = i as f64 * dt;
        let y = plant.step(u, dt);
        u = loop_.tick(y, dt);
        trace.push(TracePoint { t, y, u });
    }
    trace
}

/// Computes step-response metrics for a trajectory toward `setpoint`,
/// assuming the response started from `y0`.
#[must_use]
pub fn analyze(trace: &[TracePoint], setpoint: f64, y0: f64) -> ResponseMetrics {
    if trace.is_empty() {
        return ResponseMetrics {
            overshoot_pct: 0.0,
            settling_time: 0.0,
            itae: 0.0,
            steady_state_error: 0.0,
        };
    }
    let step = setpoint - y0;
    let step_mag = step.abs().max(1e-12);
    let horizon = trace.last().expect("non-empty").t;

    // Overshoot: worst excursion beyond the setpoint, in the step
    // direction, as a % of the step size.
    let mut overshoot = 0.0_f64;
    for p in trace {
        let beyond = if step >= 0.0 {
            p.y - setpoint
        } else {
            setpoint - p.y
        };
        overshoot = overshoot.max(beyond / step_mag * 100.0);
    }

    // Settling: last time the output was OUTSIDE the ±5% band.
    let band = 0.05 * step_mag;
    let settling_time = trace
        .iter()
        .rev()
        .find(|p| (p.y - setpoint).abs() > band)
        .map_or(0.0, |p| p.t);

    // ITAE.
    let mut itae = 0.0;
    let mut prev_t = 0.0;
    for p in trace {
        let dt = p.t - prev_t;
        itae += p.t * (p.y - setpoint).abs() * dt.max(0.0);
        prev_t = p.t;
    }

    // Steady-state error: mean |e| over the last 10% of the horizon.
    let tail_start = horizon * 0.9;
    let tail: Vec<f64> = trace
        .iter()
        .filter(|p| p.t >= tail_start)
        .map(|p| (p.y - setpoint).abs())
        .collect();
    let steady_state_error = if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    };

    ResponseMetrics {
        overshoot_pct: overshoot,
        settling_time,
        itae,
        steady_state_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control_loop::{Actuation, Direction};
    use crate::pid::PidController;
    use crate::plant::FirstOrderLag;

    fn pid_loop(kp: f64, ki: f64, kd: f64, sp: f64) -> ControlLoop {
        ControlLoop::new(
            Box::new(PidController::new(kp, ki, kd)),
            sp,
            Direction::Direct,
            Actuation::Positional,
        )
    }

    #[test]
    fn pid_tracks_first_order_lag() {
        let mut cl = pid_loop(2.0, 1.0, 0.0, 10.0);
        let mut plant = FirstOrderLag::new(1.0, 0.5);
        let trace = run_closed_loop(&mut cl, &mut plant, 20.0, 0.05);
        let m = analyze(&trace, 10.0, 0.0);
        assert!(m.steady_state_error < 0.2, "sse {}", m.steady_state_error);
        assert!(m.settling_time < 15.0, "settling {}", m.settling_time);
    }

    #[test]
    fn aggressive_gains_overshoot_more() {
        let run = |kp: f64, ki: f64| {
            let mut cl = pid_loop(kp, ki, 0.0, 10.0);
            let mut plant = FirstOrderLag::new(1.0, 1.0);
            let trace = run_closed_loop(&mut cl, &mut plant, 30.0, 0.05);
            analyze(&trace, 10.0, 0.0).overshoot_pct
        };
        let gentle = run(0.5, 0.2);
        let hot = run(20.0, 15.0);
        assert!(hot > gentle, "hot {hot} !> gentle {gentle}");
    }

    #[test]
    fn analyze_handles_perfect_trace() {
        let trace: Vec<TracePoint> = (0..100)
            .map(|i| TracePoint {
                t: f64::from(i) * 0.1,
                y: 5.0,
                u: 1.0,
            })
            .collect();
        let m = analyze(&trace, 5.0, 0.0);
        assert_eq!(m.overshoot_pct, 0.0);
        assert_eq!(m.settling_time, 0.0);
        assert!(m.itae < 1e-9);
        assert_eq!(m.steady_state_error, 0.0);
    }

    #[test]
    fn analyze_detects_overshoot() {
        let trace = vec![
            TracePoint {
                t: 0.0,
                y: 0.0,
                u: 0.0,
            },
            TracePoint {
                t: 1.0,
                y: 13.0,
                u: 0.0,
            }, // 30% past a 10-step
            TracePoint {
                t: 2.0,
                y: 10.0,
                u: 0.0,
            },
        ];
        let m = analyze(&trace, 10.0, 0.0);
        assert!((m.overshoot_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn analyze_downward_step() {
        // From 100 toward 10; undershoot below 10 counts as overshoot.
        let trace = vec![
            TracePoint {
                t: 0.0,
                y: 100.0,
                u: 0.0,
            },
            TracePoint {
                t: 1.0,
                y: 1.0,
                u: 0.0,
            }, // 9 below on a 90-step: 10%
            TracePoint {
                t: 2.0,
                y: 10.0,
                u: 0.0,
            },
        ];
        let m = analyze(&trace, 10.0, 100.0);
        assert!((m.overshoot_pct - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let m = analyze(&[], 10.0, 0.0);
        assert_eq!(m.settling_time, 0.0);
    }
}

//! A classical PID controller with output clamping and anti-windup.
//!
//! The paper notes that "formalisms adopted in traditional control systems,
//! such as differential equations, are generally not suitable for
//! controlling software products"; the PID controller is therefore the
//! *baseline* that experiment E8 pits against the fuzzy controller on a
//! nonlinear software plant.

use crate::Controller;

/// Proportional–integral–derivative controller.
///
/// # Examples
///
/// ```
/// use aas_control::pid::PidController;
/// use aas_control::Controller;
///
/// let mut pid = PidController::new(0.8, 0.2, 0.1).with_output_limits(-10.0, 10.0);
/// let u = pid.update(5.0, 0.1); // error = 5, dt = 0.1 s
/// assert!(u > 0.0 && u <= 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct PidController {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    last_error: Option<f64>,
    out_min: f64,
    out_max: f64,
}

impl PidController {
    /// Creates a PID controller with the given gains.
    ///
    /// # Panics
    ///
    /// Panics if any gain is negative or non-finite.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        for (name, g) in [("kp", kp), ("ki", ki), ("kd", kd)] {
            assert!(g.is_finite() && g >= 0.0, "{name} must be non-negative");
        }
        PidController {
            kp,
            ki,
            kd,
            integral: 0.0,
            last_error: None,
            out_min: f64::NEG_INFINITY,
            out_max: f64::INFINITY,
        }
    }

    /// Clamps controller output to `[min, max]`; integral windup stops at
    /// the clamp (conditional integration).
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`.
    #[must_use]
    pub fn with_output_limits(mut self, min: f64, max: f64) -> Self {
        assert!(min < max, "limits must satisfy min < max");
        self.out_min = min;
        self.out_max = max;
        self
    }

    /// The proportional gain.
    #[must_use]
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// Current integral accumulator (for inspection/tests).
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

impl Controller for PidController {
    fn update(&mut self, error: f64, dt: f64) -> f64 {
        if dt <= 0.0 || !dt.is_finite() || !error.is_finite() {
            return 0.0;
        }
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);

        // Tentative integral; kept only if output is not saturated
        // (conditional-integration anti-windup).
        let tentative_integral = self.integral + error * dt;
        let unclamped = self.kp * error + self.ki * tentative_integral + self.kd * derivative;
        let output = unclamped.clamp(self.out_min, self.out_max);
        if (output - unclamped).abs() < f64::EPSILON {
            self.integral = tentative_integral;
        }
        output
    }

    fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    fn name(&self) -> &str {
        "pid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_scales_error() {
        let mut pid = PidController::new(2.0, 0.0, 0.0);
        assert!((pid.update(3.0, 0.1) - 6.0).abs() < 1e-12);
        assert!((pid.update(-1.5, 0.1) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn integral_accumulates_persistent_error() {
        let mut pid = PidController::new(0.0, 1.0, 0.0);
        let mut out = 0.0;
        for _ in 0..10 {
            out = pid.update(1.0, 0.5);
        }
        assert!((out - 5.0).abs() < 1e-9, "10 steps * 1.0 * 0.5 = 5");
    }

    #[test]
    fn derivative_reacts_to_error_change() {
        let mut pid = PidController::new(0.0, 0.0, 1.0);
        assert_eq!(pid.update(1.0, 0.1), 0.0, "no derivative on first sample");
        let u = pid.update(2.0, 0.1);
        assert!((u - 10.0).abs() < 1e-9, "(2-1)/0.1 = 10");
    }

    #[test]
    fn output_clamps_and_integral_stops_winding() {
        let mut pid = PidController::new(0.0, 1.0, 0.0).with_output_limits(-1.0, 1.0);
        for _ in 0..100 {
            let u = pid.update(10.0, 1.0);
            assert!(u <= 1.0);
        }
        // Anti-windup: integral did not grow to 1000.
        assert!(pid.integral() < 15.0, "integral was {}", pid.integral());
        // Recovery is quick once error flips.
        let mut steps = 0;
        loop {
            let u = pid.update(-10.0, 1.0);
            steps += 1;
            if u <= -1.0 + 1e-9 {
                break;
            }
            assert!(steps < 20, "took too long to unwind");
        }
    }

    #[test]
    fn reset_clears_history() {
        let mut pid = PidController::new(1.0, 1.0, 1.0);
        pid.update(5.0, 0.1);
        pid.update(6.0, 0.1);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // Derivative term is zero again right after reset.
        let mut p2 = PidController::new(0.0, 0.0, 1.0);
        p2.update(1.0, 0.1);
        p2.reset();
        assert_eq!(p2.update(5.0, 0.1), 0.0);
    }

    #[test]
    fn garbage_inputs_yield_zero() {
        let mut pid = PidController::new(1.0, 1.0, 1.0);
        assert_eq!(pid.update(f64::NAN, 0.1), 0.0);
        assert_eq!(pid.update(1.0, 0.0), 0.0);
        assert_eq!(pid.update(1.0, -1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "kp")]
    fn negative_gain_rejected() {
        let _ = PidController::new(-1.0, 0.0, 0.0);
    }
}

//! Resource-fluctuation traces.
//!
//! The paper's central premise is that "the execution context of modern
//! distributed systems is not static but fluctuates dynamically". Traces
//! model that fluctuation: each is a pure function of virtual time, so a
//! trace can be sampled anywhere without mutable state and runs stay
//! reproducible.
//!
//! Traces are unitless multipliers or levels; how a value is interpreted
//! (available CPU fraction, offered load in sessions, bandwidth share) is up
//! to the consumer.

use crate::time::{SimDuration, SimTime};

/// A deterministic, time-indexed resource signal.
///
/// # Examples
///
/// ```
/// use aas_sim::trace::ResourceTrace;
/// use aas_sim::time::{SimTime, SimDuration};
///
/// let t = ResourceTrace::step(1.0, 0.3, SimTime::from_secs(10));
/// assert_eq!(t.sample(SimTime::from_secs(5)), 1.0);
/// assert_eq!(t.sample(SimTime::from_secs(15)), 0.3);
/// ```
#[derive(Debug, Clone)]
pub enum ResourceTrace {
    /// Always `level`.
    Constant {
        /// The constant value.
        level: f64,
    },
    /// `before` until `at`, then `after`.
    Step {
        /// Level before the step instant.
        before: f64,
        /// Level from the step instant on.
        after: f64,
        /// The step instant.
        at: SimTime,
    },
    /// `base + amplitude * sin(2π t / period)`.
    Sine {
        /// Center of oscillation.
        base: f64,
        /// Peak deviation from `base`.
        amplitude: f64,
        /// Oscillation period.
        period: SimDuration,
    },
    /// The paper's wireless rush-hour: a baseline with a smooth surge
    /// between `peak_start` and `peak_end`, ramping over `ramp` on both
    /// sides. Repeats every `day` if `day` is non-zero.
    RushHour {
        /// Off-peak level.
        base: f64,
        /// Peak level during the surge.
        peak: f64,
        /// When the plateau begins.
        peak_start: SimTime,
        /// When the plateau ends.
        peak_end: SimTime,
        /// Ramp-up/ramp-down width.
        ramp: SimDuration,
        /// Repetition period; zero means a one-shot surge.
        day: SimDuration,
    },
    /// Piecewise-linear interpolation of hash-derived noise: a bounded
    /// pseudo-random walk that is still a pure function of time.
    Noise {
        /// Center of the band.
        base: f64,
        /// Half-width of the band.
        amplitude: f64,
        /// Distance between interpolation knots.
        step: SimDuration,
        /// Noise seed.
        seed: u64,
    },
    /// The pointwise sum of two traces.
    Sum(Box<ResourceTrace>, Box<ResourceTrace>),
    /// The pointwise product of two traces.
    Product(Box<ResourceTrace>, Box<ResourceTrace>),
    /// An inner trace clamped to `[lo, hi]`.
    Clamped {
        /// The trace being clamped.
        inner: Box<ResourceTrace>,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

fn hash_noise(seed: u64, k: u64) -> f64 {
    // SplitMix64-style scramble; maps (seed, k) to [0, 1).
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl ResourceTrace {
    /// A constant trace.
    #[must_use]
    pub fn constant(level: f64) -> Self {
        ResourceTrace::Constant { level }
    }

    /// A step trace: `before` until `at`, `after` from then on.
    #[must_use]
    pub fn step(before: f64, after: f64, at: SimTime) -> Self {
        ResourceTrace::Step { before, after, at }
    }

    /// A sinusoidal trace around `base`.
    #[must_use]
    pub fn sine(base: f64, amplitude: f64, period: SimDuration) -> Self {
        ResourceTrace::Sine {
            base,
            amplitude,
            period,
        }
    }

    /// A single (non-repeating) rush-hour surge.
    #[must_use]
    pub fn rush_hour(
        base: f64,
        peak: f64,
        peak_start: SimTime,
        peak_end: SimTime,
        ramp: SimDuration,
    ) -> Self {
        ResourceTrace::RushHour {
            base,
            peak,
            peak_start,
            peak_end,
            ramp,
            day: SimDuration::ZERO,
        }
    }

    /// Bounded noise around `base` with the given amplitude and step.
    #[must_use]
    pub fn noise(base: f64, amplitude: f64, step: SimDuration, seed: u64) -> Self {
        ResourceTrace::Noise {
            base,
            amplitude,
            step,
            seed,
        }
    }

    /// Clamps this trace to `[lo, hi]`.
    #[must_use]
    pub fn clamped(self, lo: f64, hi: f64) -> Self {
        ResourceTrace::Clamped {
            inner: Box::new(self),
            lo,
            hi,
        }
    }

    /// Adds another trace pointwise.
    #[must_use]
    pub fn plus(self, other: ResourceTrace) -> Self {
        ResourceTrace::Sum(Box::new(self), Box::new(other))
    }

    /// Multiplies by another trace pointwise.
    #[must_use]
    pub fn times(self, other: ResourceTrace) -> Self {
        ResourceTrace::Product(Box::new(self), Box::new(other))
    }

    /// Samples the trace at instant `t`.
    #[must_use]
    pub fn sample(&self, t: SimTime) -> f64 {
        match self {
            ResourceTrace::Constant { level } => *level,
            ResourceTrace::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            ResourceTrace::Sine {
                base,
                amplitude,
                period,
            } => {
                if period.is_zero() {
                    return *base;
                }
                let phase = (t.as_micros() % period.as_micros()) as f64 / period.as_micros() as f64;
                base + amplitude * (phase * std::f64::consts::TAU).sin()
            }
            ResourceTrace::RushHour {
                base,
                peak,
                peak_start,
                peak_end,
                ramp,
                day,
            } => {
                let micros = if day.is_zero() {
                    t.as_micros()
                } else {
                    t.as_micros() % day.as_micros()
                };
                let t_us = micros as f64;
                let s = peak_start.as_micros() as f64;
                let e = peak_end.as_micros() as f64;
                let r = (ramp.as_micros().max(1)) as f64;
                // Smoothstep up across [s - r, s] and down across [e, e + r].
                let rise = ((t_us - (s - r)) / r).clamp(0.0, 1.0);
                let fall = 1.0 - ((t_us - e) / r).clamp(0.0, 1.0);
                let shape = (rise.min(fall)).clamp(0.0, 1.0);
                let smooth = shape * shape * (3.0 - 2.0 * shape);
                base + (peak - base) * smooth
            }
            ResourceTrace::Noise {
                base,
                amplitude,
                step,
                seed,
            } => {
                if step.is_zero() {
                    return *base;
                }
                let k = t.as_micros() / step.as_micros();
                let frac = (t.as_micros() % step.as_micros()) as f64 / step.as_micros() as f64;
                let a = hash_noise(*seed, k) * 2.0 - 1.0;
                let b = hash_noise(*seed, k + 1) * 2.0 - 1.0;
                base + amplitude * (a + (b - a) * frac)
            }
            ResourceTrace::Sum(a, b) => a.sample(t) + b.sample(t),
            ResourceTrace::Product(a, b) => a.sample(t) * b.sample(t),
            ResourceTrace::Clamped { inner, lo, hi } => inner.sample(t).clamp(*lo, *hi),
        }
    }

    /// Samples the trace every `interval` over `[start, end]`, inclusive of
    /// `start`.
    pub fn sample_series(
        &self,
        start: SimTime,
        end: SimTime,
        interval: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!interval.is_zero(), "interval must be non-zero");
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            out.push((t, self.sample(t)));
            t += interval;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let tr = ResourceTrace::constant(0.7);
        assert_eq!(tr.sample(SimTime::ZERO), 0.7);
        assert_eq!(tr.sample(SimTime::from_secs(100)), 0.7);
    }

    #[test]
    fn step_switches_exactly_at_boundary() {
        let tr = ResourceTrace::step(1.0, 0.2, SimTime::from_secs(5));
        assert_eq!(tr.sample(SimTime::from_micros(4_999_999)), 1.0);
        assert_eq!(tr.sample(SimTime::from_secs(5)), 0.2);
    }

    #[test]
    fn sine_oscillates_around_base() {
        let tr = ResourceTrace::sine(0.5, 0.3, SimDuration::from_secs(4));
        assert!((tr.sample(SimTime::ZERO) - 0.5).abs() < 1e-9);
        assert!((tr.sample(SimTime::from_secs(1)) - 0.8).abs() < 1e-9);
        assert!((tr.sample(SimTime::from_secs(3)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rush_hour_surges_and_returns() {
        let tr = ResourceTrace::rush_hour(
            10.0,
            100.0,
            SimTime::from_secs(100),
            SimTime::from_secs(200),
            SimDuration::from_secs(20),
        );
        assert!((tr.sample(SimTime::ZERO) - 10.0).abs() < 1e-9);
        assert!((tr.sample(SimTime::from_secs(150)) - 100.0).abs() < 1e-9);
        assert!((tr.sample(SimTime::from_secs(400)) - 10.0).abs() < 1e-9);
        // Mid-ramp is strictly between base and peak.
        let mid = tr.sample(SimTime::from_secs(90));
        assert!(mid > 10.0 && mid < 100.0, "mid-ramp {mid}");
    }

    #[test]
    fn rush_hour_repeats_daily() {
        let tr = ResourceTrace::RushHour {
            base: 1.0,
            peak: 5.0,
            peak_start: SimTime::from_secs(10),
            peak_end: SimTime::from_secs(20),
            ramp: SimDuration::from_secs(2),
            day: SimDuration::from_secs(100),
        };
        let a = tr.sample(SimTime::from_secs(15));
        let b = tr.sample(SimTime::from_secs(115));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let tr = ResourceTrace::noise(0.5, 0.2, SimDuration::from_millis(100), 99);
        for i in 0..1_000 {
            let t = SimTime::from_millis(i * 13);
            let v = tr.sample(t);
            assert!((0.3 - 1e-9..=0.7 + 1e-9).contains(&v), "{v} out of bounds");
            assert_eq!(v, tr.sample(t), "non-deterministic");
        }
    }

    #[test]
    fn noise_actually_varies() {
        let tr = ResourceTrace::noise(0.0, 1.0, SimDuration::from_millis(10), 1);
        let vals: Vec<f64> = (0..20)
            .map(|i| tr.sample(SimTime::from_millis(i * 10)))
            .collect();
        let distinct = vals
            .iter()
            .filter(|v| (**v - vals[0]).abs() > 1e-12)
            .count();
        assert!(distinct > 10);
    }

    #[test]
    fn combinators_compose() {
        let tr = ResourceTrace::constant(2.0)
            .plus(ResourceTrace::constant(3.0))
            .times(ResourceTrace::constant(10.0))
            .clamped(0.0, 40.0);
        assert_eq!(tr.sample(SimTime::ZERO), 40.0);
    }

    #[test]
    fn sample_series_covers_range() {
        let tr = ResourceTrace::constant(1.0);
        let s = tr.sample_series(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(250),
        );
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, SimTime::ZERO);
        assert_eq!(s[4].0, SimTime::from_secs(1));
    }
}

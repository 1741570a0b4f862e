//! Adaptive middleware (approach 8 of the paper's ten).
//!
//! "Adaptive middleware is based on underlying components and network
//! services and used to implement adaptive behavior, for example, to deal
//! with performance fluctuations, security needs, hardware failures,
//! network outages, fault tolerance, etc. In this approach, reflection is
//! used to gather contextual information so that the middleware services
//! can be adapted according to the context of execution."
//!
//! [`AdaptiveMiddleware`] holds a stack of [`MiddlewareService`]s and a
//! reflection-driven policy: feed it a [`ContextInfo`] (gathered by
//! whatever introspection you have — RAML snapshots fit naturally) and the
//! stack reshapes itself.

use core::fmt;

/// A middleware service on the message path.
#[derive(Debug, Clone, PartialEq)]
pub enum MiddlewareService {
    /// Compresses payloads: scales size by `ratio`, costs `cost` per
    /// message.
    Compression {
        /// Size multiplier (< 1 shrinks).
        ratio: f64,
        /// Work units per message.
        cost: f64,
    },
    /// Encrypts payloads: costs `cost` per message.
    Encryption {
        /// Work units per message.
        cost: f64,
    },
    /// Retries lost sends up to `max_attempts`; effective loss falls
    /// exponentially, latency rises with expected attempts.
    Retry {
        /// Maximum attempts (≥ 1).
        max_attempts: u32,
    },
    /// Batches `size` messages per envelope, amortizing header overhead.
    Batching {
        /// Messages per batch (≥ 1).
        size: u32,
    },
}

impl MiddlewareService {
    /// The service's short name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MiddlewareService::Compression { .. } => "compression",
            MiddlewareService::Encryption { .. } => "encryption",
            MiddlewareService::Retry { .. } => "retry",
            MiddlewareService::Batching { .. } => "batching",
        }
    }
}

/// Reflection-gathered execution context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextInfo {
    /// Available bandwidth fraction, `[0, 1]` of nominal.
    pub bandwidth: f64,
    /// Observed message-loss rate, `[0, 1]`.
    pub loss_rate: f64,
    /// CPU headroom fraction, `[0, 1]`.
    pub cpu_headroom: f64,
    /// Whether the current flows demand confidentiality.
    pub security_required: bool,
}

impl ContextInfo {
    /// A benign context: full bandwidth, no loss, full headroom, no
    /// security demand.
    #[must_use]
    pub fn nominal() -> Self {
        ContextInfo {
            bandwidth: 1.0,
            loss_rate: 0.0,
            cpu_headroom: 1.0,
            security_required: false,
        }
    }
}

/// Effect of the current stack on one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackEffect {
    /// Wire-size multiplier.
    pub size_factor: f64,
    /// Extra work units per message.
    pub extra_cost: f64,
    /// Residual loss probability after retries, given raw loss `p`.
    pub effective_loss: f64,
    /// Mean send attempts per message.
    pub mean_attempts: f64,
}

/// The policy deciding which services a context warrants.
pub type MiddlewarePolicy = Box<dyn Fn(&ContextInfo) -> Vec<MiddlewareService> + Send>;

/// A reflective, self-reshaping middleware stack.
///
/// # Examples
///
/// ```
/// use aas_adapt::middleware::{AdaptiveMiddleware, ContextInfo};
///
/// let mut mw = AdaptiveMiddleware::with_default_policy();
/// // Nominal conditions: empty stack.
/// mw.adapt(&ContextInfo::nominal());
/// assert!(mw.stack().is_empty());
/// // Starved bandwidth: compression appears.
/// mw.adapt(&ContextInfo { bandwidth: 0.2, ..ContextInfo::nominal() });
/// assert!(mw.stack().iter().any(|s| s.name() == "compression"));
/// ```
pub struct AdaptiveMiddleware {
    stack: Vec<MiddlewareService>,
    policy: MiddlewarePolicy,
    adaptations: u64,
}

impl fmt::Debug for AdaptiveMiddleware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveMiddleware")
            .field("stack", &self.stack)
            .field("adaptations", &self.adaptations)
            .finish_non_exhaustive()
    }
}

impl AdaptiveMiddleware {
    /// A middleware with a custom policy.
    #[must_use]
    pub fn new(policy: MiddlewarePolicy) -> Self {
        AdaptiveMiddleware {
            stack: Vec::new(),
            policy,
            adaptations: 0,
        }
    }

    /// The built-in policy:
    ///
    /// - bandwidth < 0.5 → compression (stronger when < 0.2);
    /// - loss rate > 1% → retry (more attempts when > 10%);
    /// - security required → encryption;
    /// - CPU headroom < 0.2 → drop compression/encryption that cost CPU,
    ///   unless security demands encryption.
    #[must_use]
    pub fn with_default_policy() -> Self {
        AdaptiveMiddleware::new(Box::new(|ctx: &ContextInfo| {
            let mut stack = Vec::new();
            let cpu_starved = ctx.cpu_headroom < 0.2;
            if ctx.bandwidth < 0.5 && !cpu_starved {
                let ratio = if ctx.bandwidth < 0.2 { 0.3 } else { 0.6 };
                stack.push(MiddlewareService::Compression { ratio, cost: 0.3 });
            }
            if ctx.security_required {
                stack.push(MiddlewareService::Encryption { cost: 0.4 });
            }
            if ctx.loss_rate > 0.01 {
                let max_attempts = if ctx.loss_rate > 0.1 { 5 } else { 3 };
                stack.push(MiddlewareService::Retry { max_attempts });
            }
            if ctx.bandwidth < 0.3 && !cpu_starved {
                stack.push(MiddlewareService::Batching { size: 8 });
            }
            stack
        }))
    }

    /// Reshapes the stack for `ctx`; returns `true` if the stack changed.
    pub fn adapt(&mut self, ctx: &ContextInfo) -> bool {
        let new_stack = (self.policy)(ctx);
        if new_stack != self.stack {
            self.stack = new_stack;
            self.adaptations += 1;
            true
        } else {
            false
        }
    }

    /// The current service stack, in order.
    #[must_use]
    pub fn stack(&self) -> &[MiddlewareService] {
        &self.stack
    }

    /// Number of stack reshapes performed.
    #[must_use]
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Computes the current stack's effect on a message facing raw loss
    /// probability `raw_loss`.
    #[must_use]
    pub fn effect(&self, raw_loss: f64) -> StackEffect {
        let p = raw_loss.clamp(0.0, 1.0);
        let mut size_factor = 1.0;
        let mut extra_cost = 0.0;
        let mut effective_loss = p;
        let mut mean_attempts = 1.0;
        for s in &self.stack {
            match s {
                MiddlewareService::Compression { ratio, cost } => {
                    size_factor *= ratio;
                    extra_cost += cost;
                }
                MiddlewareService::Encryption { cost } => {
                    extra_cost += cost;
                }
                MiddlewareService::Retry { max_attempts } => {
                    let k = f64::from(*max_attempts);
                    effective_loss = p.powf(k);
                    // Mean attempts of a truncated geometric distribution.
                    mean_attempts = if p == 0.0 {
                        1.0
                    } else {
                        (1.0 - p.powf(k)) / (1.0 - p)
                    };
                }
                MiddlewareService::Batching { size } => {
                    // Headers amortized across the batch.
                    size_factor *= 1.0 - 0.1 * (1.0 - 1.0 / f64::from(*size));
                }
            }
        }
        StackEffect {
            size_factor,
            extra_cost,
            effective_loss,
            mean_attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_context_keeps_stack_empty() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        assert!(!mw.adapt(&ContextInfo::nominal()), "no change from empty");
        assert!(mw.stack().is_empty());
        let e = mw.effect(0.0);
        assert_eq!(e.size_factor, 1.0);
        assert_eq!(e.extra_cost, 0.0);
    }

    #[test]
    fn low_bandwidth_brings_compression_and_batching() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        assert!(mw.adapt(&ContextInfo {
            bandwidth: 0.1,
            ..ContextInfo::nominal()
        }));
        let names: Vec<&str> = mw.stack().iter().map(MiddlewareService::name).collect();
        assert!(names.contains(&"compression"));
        assert!(names.contains(&"batching"));
        let e = mw.effect(0.0);
        assert!(e.size_factor < 0.3);
        assert!(e.extra_cost > 0.0);
    }

    #[test]
    fn loss_brings_retry_which_cuts_effective_loss() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        mw.adapt(&ContextInfo {
            loss_rate: 0.2,
            ..ContextInfo::nominal()
        });
        let e = mw.effect(0.2);
        assert!(e.effective_loss < 0.001, "0.2^5 = 0.00032");
        assert!(e.mean_attempts > 1.0 && e.mean_attempts < 2.0);
    }

    #[test]
    fn security_brings_encryption_even_when_cpu_starved() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        mw.adapt(&ContextInfo {
            security_required: true,
            cpu_headroom: 0.05,
            bandwidth: 0.1,
            ..ContextInfo::nominal()
        });
        let names: Vec<&str> = mw.stack().iter().map(MiddlewareService::name).collect();
        assert!(names.contains(&"encryption"));
        assert!(
            !names.contains(&"compression"),
            "cpu-starved: no compression"
        );
    }

    #[test]
    fn redundant_adapt_is_not_counted() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        let ctx = ContextInfo {
            bandwidth: 0.1,
            ..ContextInfo::nominal()
        };
        assert!(mw.adapt(&ctx));
        assert!(!mw.adapt(&ctx), "same context, same stack");
        assert_eq!(mw.adaptations(), 1);
    }

    #[test]
    fn context_recovery_unwinds_the_stack() {
        let mut mw = AdaptiveMiddleware::with_default_policy();
        mw.adapt(&ContextInfo {
            bandwidth: 0.1,
            loss_rate: 0.5,
            ..ContextInfo::nominal()
        });
        assert!(!mw.stack().is_empty());
        mw.adapt(&ContextInfo::nominal());
        assert!(mw.stack().is_empty());
        assert_eq!(mw.adaptations(), 2);
    }

    #[test]
    fn custom_policy_is_honoured() {
        let mut mw = AdaptiveMiddleware::new(Box::new(|_| {
            vec![MiddlewareService::Encryption { cost: 9.0 }]
        }));
        mw.adapt(&ContextInfo::nominal());
        assert_eq!(mw.effect(0.0).extra_cost, 9.0);
    }

    #[test]
    fn effect_clamps_garbage_loss() {
        let mw = AdaptiveMiddleware::with_default_policy();
        let e = mw.effect(7.5);
        assert!(e.effective_loss <= 1.0);
    }
}

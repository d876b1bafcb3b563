//! Fault injection and resilience policy for the serving layer.
//!
//! The declarative fault model ([`FaultPlan`], [`FaultSpec`]), the
//! resilience policy ([`ResilienceConfig`], [`RetryPolicy`],
//! [`BreakerConfig`], [`CircuitBreaker`], [`RejectReason`]) and the
//! per-request rules both serving clocks apply ([`CacheStep`],
//! [`ResilienceConfig::cache_step`], [`ResilienceConfig::retry_after_ms`],
//! [`ResilienceSummary`]) live in [`gsuite_scenarios::resilience`], where
//! the live server, the sim clock and the registry's `chaos` scenario can
//! all reach them; this module re-exports them and adds the serve-side
//! glue:
//!
//! * [`plan_for`] — resolves the per-request `fault_seed` override
//!   against the server's configured plan, so a chaos client can replay
//!   one request's fault draws deterministically;
//! * fault draws are keyed on `(seed, request index, attempt)` only, and
//!   every submission takes the next request index, shed or not. A
//!   `(seed, mix)` pair therefore replays **byte-identically** under
//!   `--clock sim`, and under `--clock wall` whenever submission order is
//!   fixed (one closed-loop client); with more clients, queueing order
//!   decides which request draws which index.

pub use gsuite_scenarios::resilience::{
    BreakerConfig, BreakerState, CacheStep, CircuitBreaker, FaultDraw, FaultPlan, FaultRng,
    FaultSpec, RejectReason, ResilienceConfig, ResilienceSummary, RetryPolicy,
};

/// Resolves the effective fault plan for one request: the server's plan
/// with the request's `fault_seed` override applied (`None` stays
/// fault-free — a seed override cannot conjure faults the server was not
/// configured to inject).
pub fn plan_for(server_plan: Option<FaultPlan>, request_seed: Option<u64>) -> Option<FaultPlan> {
    server_plan.map(|plan| match request_seed {
        Some(seed) => FaultPlan { seed, ..plan },
        None => plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seed_overrides_the_plan_seed_only() {
        let plan = FaultPlan::mixed(7, 0.25);
        let resolved = plan_for(Some(plan), Some(99)).unwrap();
        assert_eq!(resolved.seed, 99);
        assert_eq!(resolved.spec, plan.spec);
        assert_eq!(plan_for(Some(plan), None), Some(plan));
        assert_eq!(plan_for(None, Some(99)), None, "no plan, no faults");
    }
}

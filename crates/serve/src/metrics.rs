//! The `serve.*` metric bundle: one counter per front-door decision,
//! one sketch per latency axis.
//!
//! Registered once at startup (like the guard's `guard.<fn>.*`
//! handles), recorded lock-free on every decision point. Metric names follow the `serve.<fn>.<event>` convention so
//! [`nitro_pulse::PulseAlert::function`] parses them and SLOs can
//! target them (`serve.<fn>.e2e_latency_ns` p99, shed-rate windows, …).

use std::sync::Arc;

use nitro_trace::{Counter, Gauge, MetricsRegistry, Sketch};

/// Lock-free handles to every `serve.<fn>.*` metric.
#[derive(Debug)]
pub struct ServePulse {
    /// Requests admitted past both admission gates.
    pub admitted: Counter,
    /// Rejected: tenant token bucket empty.
    pub rejected_tenant: Counter,
    /// Rejected: shard queue over the priority's watermark.
    pub rejected_queue: Counter,
    /// Rejected: deadline already expired at submission.
    pub rejected_expired: Counter,
    /// Shed at dequeue: deadline expired while queued (before dispatch).
    pub shed_expired: Counter,
    /// Shed at dequeue: remaining budget below the service-time estimate.
    pub shed_hopeless: Counter,
    /// Served from the cached-regime tier.
    pub degrade_cached: Counter,
    /// Served from the default-only tier.
    pub degrade_default: Counter,
    /// Admitted requests that finished after their deadline (the bench
    /// gate requires this to stay 0).
    pub deadline_violations: Counter,
    /// Panics that escaped a shard's dispatch (must stay 0; the guard
    /// catches variant panics).
    pub panics: Counter,
    /// Model hot-swap installs performed by workers.
    pub hotswap_installs: Counter,
    /// Worker deaths observed by the supervisor (panic escaped and the
    /// shard went down).
    pub shard_deaths: Counter,
    /// Supervisor restarts (dead-shard revivals plus wedged-worker
    /// replacements).
    pub shard_restarts: Counter,
    /// Shards retired after exhausting their restart budget.
    pub shard_retired: Counter,
    /// Requests quarantined as poison pills.
    pub poison_quarantined: Counter,
    /// Requests shed during failover (drained off a dead shard with no
    /// live shard to take them).
    pub shed_failover: Counter,
    /// Jobs drained off dead or wedged shards for re-placement.
    pub drained: Counter,
    /// Current admission tighten level (0 = wide open).
    pub tightened: Gauge,
    /// Dispatch latency (dequeue → completion), ns.
    pub dispatch_latency_ns: Sketch,
    /// Queue wait (admission → dequeue), ns.
    pub queue_wait_ns: Sketch,
    /// End-to-end latency (admission → completion), ns.
    pub e2e_latency_ns: Sketch,
}

impl ServePulse {
    /// Register every `serve.<function>.*` metric.
    pub fn register(registry: &MetricsRegistry, function: &str) -> Arc<Self> {
        let c = |event: &str| registry.counter(&format!("serve.{function}.{event}"));
        Arc::new(Self {
            admitted: c("admitted"),
            rejected_tenant: c("rejected_tenant"),
            rejected_queue: c("rejected_queue"),
            rejected_expired: c("rejected_expired"),
            shed_expired: c("shed_expired"),
            shed_hopeless: c("shed_hopeless"),
            degrade_cached: c("degrade_cached"),
            degrade_default: c("degrade_default"),
            deadline_violations: c("deadline_violations"),
            panics: c("panics"),
            hotswap_installs: c("hotswap_installs"),
            shard_deaths: c("shard_deaths"),
            shard_restarts: c("shard_restarts"),
            shard_retired: c("shard_retired"),
            poison_quarantined: c("poison_quarantined"),
            shed_failover: c("shed_failover"),
            drained: c("drained"),
            tightened: registry.gauge(&format!("serve.{function}.tightened")),
            dispatch_latency_ns: registry.sketch(&format!("serve.{function}.dispatch_latency_ns")),
            queue_wait_ns: registry.sketch(&format!("serve.{function}.queue_wait_ns")),
            e2e_latency_ns: registry.sketch(&format!("serve.{function}.e2e_latency_ns")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_parse_for_slo_targeting() {
        let registry = MetricsRegistry::with_stripes(2);
        let pulse = ServePulse::register(&registry, "spmv");
        pulse.admitted.inc();
        pulse.dispatch_latency_ns.record(1234.0);
        pulse.tightened.set(2.0);
        assert_eq!(registry.counter_value("serve.spmv.admitted"), Some(1));
        assert_eq!(registry.gauge_value("serve.spmv.tightened"), Some(2.0));
        let sketch = registry.fused_sketch("serve.spmv.dispatch_latency_ns");
        assert_eq!(sketch.expect("registered").count(), 1);
        // The alert helper can parse the function back out.
        let alert = nitro_pulse::PulseAlert {
            slo: "serve-p99".into(),
            kind: nitro_pulse::AlertKind::LatencyRegression,
            severity: nitro_pulse::AlertSeverity::Page,
            metric: "serve.spmv.e2e_latency_ns".into(),
            observed: 2.0,
            threshold: 1.0,
            window_ticks: 1,
        };
        assert_eq!(alert.function(), Some("spmv"));
        assert!(alert.is_page_latency_for("spmv"));
    }
}

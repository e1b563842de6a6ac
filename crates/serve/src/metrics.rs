//! The `serve.*` metric bundle: one counter per front-door event, one
//! sketch per latency axis. It is the one place a front counts
//! anything; the lineage accounting and the shutdown summary read it.
//!
//! Registered when a front starts, recorded lock-free at every decision
//! point. Metric names follow the `serve.<fn>.<event>` convention so
//! [`nitro_pulse::PulseAlert::function`] parses them and SLOs can
//! target them (`serve.<fn>.e2e_latency_ns` p99, shed-rate windows, …).
//! A [`FrontCounter`] reads relative to its value at registration, so a
//! front counts only its own events on a registry an earlier front of
//! the same function counted into; two fronts of one function running
//! at once on one registry merge, as guards of one function do.

use std::sync::Arc;

use nitro_trace::{Counter, Gauge, MetricsRegistry, Sketch};

/// One `serve.<fn>.*` counter, read as the events counted since this
/// front registered it.
#[derive(Debug)]
pub struct FrontCounter {
    counter: Counter,
    base: u64,
}

impl FrontCounter {
    /// Add 1 (lock-free).
    pub fn inc(&self) {
        self.counter.inc();
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.counter.add(delta);
    }

    /// Events counted since registration.
    pub fn value(&self) -> u64 {
        self.counter.value().saturating_sub(self.base)
    }
}

/// Lock-free handles to every `serve.<fn>.*` metric.
#[derive(Debug)]
pub struct ServePulse {
    /// Requests admitted past both admission gates.
    pub admitted: FrontCounter,
    /// Rejected: tenant token bucket empty.
    pub rejected_tenant: FrontCounter,
    /// Rejected: shard queue over the priority's watermark, or closing.
    pub rejected_queue: FrontCounter,
    /// Rejected: every shard dead or retired.
    pub rejected_no_shard: FrontCounter,
    /// Rejected: deadline already expired at submission.
    pub rejected_expired: FrontCounter,
    /// Resolved: dispatched and completed.
    pub served: FrontCounter,
    /// Resolved: dispatch failed (cascade exhausted).
    pub failed: FrontCounter,
    /// Reply slots dropped without resolving — always a bug (`NITRO114`).
    pub lost: FrontCounter,
    /// Shed (at dequeue or on re-placement): deadline expired while
    /// queued, before dispatch.
    pub shed_expired: FrontCounter,
    /// Shed at dequeue: remaining budget below the service-time estimate.
    pub shed_hopeless: FrontCounter,
    /// Served from the cached-regime tier.
    pub degrade_cached: FrontCounter,
    /// Served from the default-only tier.
    pub degrade_default: FrontCounter,
    /// Admitted requests that finished after their deadline (the bench
    /// gate requires this to stay 0).
    pub deadline_violations: FrontCounter,
    /// Panics that escaped a shard's dispatch into the worker's backstop
    /// (the guard absorbs variant panics; each escape kills its shard).
    pub panics: FrontCounter,
    /// Model hot-swap installs performed by workers.
    pub hotswap_installs: FrontCounter,
    /// Worker deaths observed by the supervisor (panic escaped and the
    /// shard went down).
    pub shard_deaths: FrontCounter,
    /// Supervisor restarts (dead-shard revivals plus wedged-worker
    /// replacements).
    pub shard_restarts: FrontCounter,
    /// Shards retired after exhausting their restart budget.
    pub shard_retired: FrontCounter,
    /// Requests quarantined as poison pills.
    pub poison_quarantined: FrontCounter,
    /// Requests shed during failover (drained off a dead shard with no
    /// live shard to take them).
    pub shed_failover: FrontCounter,
    /// Jobs drained off dead or wedged shards for re-placement.
    pub drained: FrontCounter,
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
        let c = |event: &str| {
            let counter = registry.counter(&format!("serve.{function}.{event}"));
            FrontCounter {
                base: counter.value(),
                counter,
            }
        };
        Arc::new(Self {
            admitted: c("admitted"),
            rejected_tenant: c("rejected_tenant"),
            rejected_queue: c("rejected_queue"),
            rejected_no_shard: c("rejected_no_shard"),
            rejected_expired: c("rejected_expired"),
            served: c("served"),
            failed: c("failed"),
            lost: c("lost"),
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

//! Static analysis of pulse configurations: codes `NITRO090`–`NITRO093`.
//!
//! Like the guard and store analyzers, these live with the subsystem
//! they understand and emit codes registered centrally in
//! `nitro_core::diag::registry`. Two entry points: [`audit_slos`]
//! checks a watchdog's objectives against the registry they will watch
//! (unknown metrics, windows too short to ever hold more than one
//! observation), and [`audit_registry`] checks the registry's own
//! health (saturated sketches, under-striped recording).

use nitro_core::diag::registry::codes;
use nitro_core::Diagnostic;

use nitro_trace::MetricsRegistry;

use crate::slo::SloSpec;

/// How often a metric is expected to receive observations, for the
/// `NITRO092` window check.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCadence {
    /// The metric name as referenced by SLO specs.
    pub metric: String,
    /// Expected nanoseconds between observations.
    pub update_period_ns: u64,
}

/// Audit a set of SLO specs against the registry the watchdog will
/// read.
///
/// * `NITRO090` (error): a spec references a metric name the registry
///   has never registered — the objective would silently never
///   evaluate.
/// * `NITRO092` (error): a window spans less wall time than the
///   metric's update period (`window ticks × tick interval <
///   update period`), so it can hold at most one observation and its
///   quantiles/rates are statistically meaningless.
pub fn audit_slos(
    specs: &[SloSpec],
    registry: &MetricsRegistry,
    tick_interval_ns: u64,
    cadences: &[MetricCadence],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for spec in specs {
        for metric in spec.referenced_metrics() {
            if !registry.has_metric(metric) {
                out.push(Diagnostic::error(
                    codes::NITRO090,
                    &spec.name,
                    format!(
                        "SLO '{}' references metric '{metric}', which is not registered \
                         in the metrics registry; the objective will never evaluate",
                        spec.name
                    ),
                ));
            }
            if let Some(c) = cadences.iter().find(|c| c.metric == metric) {
                for w in &spec.windows {
                    let window_ns = (w.ticks as u64).saturating_mul(tick_interval_ns);
                    if window_ns < c.update_period_ns {
                        out.push(Diagnostic::error(
                            codes::NITRO092,
                            &spec.name,
                            format!(
                                "SLO '{}' window of {} tick(s) spans {window_ns} ns but \
                                 metric '{metric}' updates every {} ns; the window can \
                                 hold at most one observation",
                                spec.name, w.ticks, c.update_period_ns
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Audit a metrics registry's own health.
///
/// * `NITRO091` (warning): a sketch has saturated observations — its
///   upper quantiles degrade to the observed max; widen `max_buckets`
///   or raise `min_value`.
/// * `NITRO093` (warning): the registry stripes metrics across fewer
///   cells than the machine has hardware threads, so concurrent
///   recorders will share stripes and contend.
pub fn audit_registry(registry: &MetricsRegistry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, saturated) in registry.saturation() {
        if saturated > 0 {
            out.push(Diagnostic::warning(
                codes::NITRO091,
                &name,
                format!(
                    "sketch '{name}' saturated {saturated} observation(s) above its top \
                     bucket; upper quantiles degrade to the observed max — widen \
                     max_buckets or raise min_value"
                ),
            ));
        }
    }
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if registry.stripes() < parallelism {
        out.push(Diagnostic::warning(
            codes::NITRO093,
            "metrics registry",
            format!(
                "registry stripes metrics across {} cell(s) but the machine exposes {} \
                 hardware thread(s); concurrent recorders will share stripes and contend",
                registry.stripes(),
                parallelism
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloSpec, WindowSpec};
    use nitro_trace::SketchConfig;

    #[test]
    fn unknown_metric_fires_nitro090() {
        let r = MetricsRegistry::with_stripes(2);
        r.sketch("dispatch.spmv.latency_ns");
        let specs = vec![
            SloSpec::p99_below("good", "dispatch.spmv.latency_ns", 1e6),
            SloSpec::p99_below("bad", "dispatch.spmv.latency", 1e6), // typo'd name
        ];
        let diags = audit_slos(&specs, &r, 1_000_000, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "NITRO090");
        assert_eq!(diags[0].subject, "bad");
    }

    #[test]
    fn rate_slo_checks_both_counters() {
        let r = MetricsRegistry::with_stripes(2);
        r.counter("guard.spmv.fallback");
        let specs = vec![SloSpec::rate_below(
            "fb",
            "guard.spmv.fallback",
            "dispatch.spmv.calls", // never registered
            0.05,
        )];
        let diags = audit_slos(&specs, &r, 1_000_000, &[]);
        assert!(diags.iter().any(|d| d.code == "NITRO090"));
    }

    #[test]
    fn undersized_window_fires_nitro092() {
        let r = MetricsRegistry::with_stripes(2);
        r.sketch("store.spmv.promotion_ns");
        let specs = vec![
            SloSpec::p99_below("promo", "store.spmv.promotion_ns", 1e6).with_windows(vec![
                WindowSpec {
                    ticks: 1,
                    burn_factor: 1.0,
                },
            ]),
        ];
        // Promotions land every 10 s; the watchdog ticks every 1 ms.
        let cadences = vec![MetricCadence {
            metric: "store.spmv.promotion_ns".into(),
            update_period_ns: 10_000_000_000,
        }];
        let diags = audit_slos(&specs, &r, 1_000_000, &cadences);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "NITRO092");
    }

    #[test]
    fn saturated_sketch_fires_nitro091() {
        let r = MetricsRegistry::with_stripes(2);
        let s = r.sketch_with(
            "tiny",
            SketchConfig {
                alpha: 0.05,
                min_value: 1.0,
                max_buckets: 8,
            },
        );
        s.record(1e12);
        let diags = audit_registry(&r);
        assert!(diags.iter().any(|d| d.code == "NITRO091"), "{diags:?}");
    }

    #[test]
    fn healthy_registry_is_clean_except_possible_striping() {
        let r = MetricsRegistry::new(); // default stripes >= parallelism
        r.sketch("ok").record(100.0);
        let diags = audit_registry(&r);
        assert!(diags.iter().all(|d| d.code != "NITRO091"));
        assert!(diags.iter().all(|d| d.code != "NITRO093"));
    }

    #[test]
    fn understriped_registry_fires_nitro093_when_parallel() {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if parallelism < 2 {
            return; // single-core machine: 1 stripe genuinely suffices
        }
        let r = MetricsRegistry::with_stripes(1);
        let diags = audit_registry(&r);
        assert!(diags.iter().any(|d| d.code == "NITRO093"));
    }
}

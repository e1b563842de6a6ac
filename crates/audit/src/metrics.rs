//! Runtime-metrics analysis: suspicious signals in an exported
//! `nitro-trace` metrics snapshot.
//!
//! Codes `NITRO040`–`NITRO049`. Where the other analyzers inspect
//! configuration *before* it runs, this one inspects what a traced run
//! actually did: a dispatcher that falls back to its default on most
//! calls is paying feature-extraction cost for nothing, and a registered
//! variant that never wins a single call is either dead weight or a sign
//! the model never learned its class.
//!
//! The analyzer reads the counters a dispatcher records once
//! `CodeVariant::bind_metrics` has registered them
//! (`dispatch.<fn>.calls`, `dispatch.<fn>.fallback`,
//! `dispatch.<fn>.win.<variant>`, `dispatch.<fn>.veto.<variant>`).
//! Binding registers every counter at zero, so never-won variants
//! appear as explicit zero counters.

use nitro_core::diag::registry::codes;
use nitro_core::Diagnostic;
use nitro_trace::MetricsSnapshot;

/// Thresholds for the runtime-metrics analyzer.
#[derive(Debug, Clone, Copy)]
pub struct MetricsAuditConfig {
    /// Fallback share of calls above which `NITRO041` fires.
    pub max_fallback_rate: f64,
    /// Minimum calls before rate-based findings are trusted (tiny runs
    /// produce meaningless rates).
    pub min_calls: u64,
}

impl Default for MetricsAuditConfig {
    fn default() -> Self {
        Self {
            max_fallback_rate: 0.5,
            min_calls: 10,
        }
    }
}

/// Per-function counters reassembled from the flat metric names.
struct FunctionMetrics {
    function: String,
    calls: u64,
    fallbacks: u64,
    /// `(variant, wins)` in name order.
    wins: Vec<(String, u64)>,
    /// `(variant, vetoes)` in name order.
    vetoes: Vec<(String, u64)>,
}

fn entry<'a>(out: &'a mut Vec<FunctionMetrics>, function: &str) -> &'a mut FunctionMetrics {
    if let Some(i) = out.iter().position(|f| f.function == function) {
        &mut out[i]
    } else {
        out.push(FunctionMetrics {
            function: function.to_string(),
            calls: 0,
            fallbacks: 0,
            wins: Vec::new(),
            vetoes: Vec::new(),
        });
        out.last_mut().expect("just pushed")
    }
}

fn collect_functions(snapshot: &MetricsSnapshot) -> Vec<FunctionMetrics> {
    let mut out: Vec<FunctionMetrics> = Vec::new();
    for (name, value) in &snapshot.counters {
        let Some(rest) = name.strip_prefix("dispatch.") else {
            continue;
        };
        // `dispatch.<fn>.calls` | `.fallback` | `.win.<variant>` |
        // `.veto.<variant>`. Function names may not contain dots
        // (variant names may): split on the *first* dot after the prefix.
        let Some((function, field)) = rest.split_once('.') else {
            continue;
        };
        match field {
            "calls" => entry(&mut out, function).calls = *value,
            "fallback" => entry(&mut out, function).fallbacks = *value,
            _ => {
                if let Some(variant) = field.strip_prefix("win.") {
                    entry(&mut out, function)
                        .wins
                        .push((variant.to_string(), *value));
                } else if let Some(variant) = field.strip_prefix("veto.") {
                    entry(&mut out, function)
                        .vetoes
                        .push((variant.to_string(), *value));
                }
            }
        }
    }
    out
}

/// Analyze an exported metrics snapshot for suspicious runtime behavior.
pub fn analyze_metrics(snapshot: &MetricsSnapshot, config: &MetricsAuditConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in collect_functions(snapshot) {
        if f.calls < config.min_calls {
            continue;
        }
        let fallback_rate = f.fallbacks as f64 / f.calls as f64;
        if fallback_rate > config.max_fallback_rate {
            out.push(Diagnostic::warning(
                codes::NITRO041,
                &f.function,
                format!(
                    "constraints vetoed the model's choice on {:.0}% of {} calls \
                     (threshold {:.0}%); the model is effectively bypassed — \
                     consider training with constraints enabled or revisiting them",
                    fallback_rate * 100.0,
                    f.calls,
                    config.max_fallback_rate * 100.0
                ),
            ));
        }
        for (variant, wins) in &f.wins {
            if *wins == 0 {
                out.push(Diagnostic::warning(
                    codes::NITRO042,
                    &f.function,
                    format!(
                        "variant '{variant}' never won a call in {} dispatches; \
                         it is dead weight at runtime or a class the model never predicts",
                        f.calls
                    ),
                ));
            }
        }
        let total_vetoes: u64 = f.vetoes.iter().map(|(_, v)| v).sum();
        let total_wins: u64 = f.wins.iter().map(|(_, v)| v).sum();
        if total_vetoes > total_wins && total_wins > 0 {
            out.push(Diagnostic::info(
                codes::NITRO043,
                &f.function,
                format!(
                    "vetoes ({total_vetoes}) outnumber recorded wins ({total_wins}); \
                     constraint pressure dominates this function's dispatch"
                ),
            ));
        }
    }
    out
}

/// Analyze a metrics snapshot serialized as JSON (the file
/// `trace_report` exports). An unparseable document is itself a finding
/// (`NITRO040`, error severity) rather than a hard failure, so one
/// corrupt export doesn't abort a multi-file audit sweep.
pub fn analyze_metrics_json(
    json: &str,
    subject: &str,
    config: &MetricsAuditConfig,
) -> Vec<Diagnostic> {
    match MetricsSnapshot::from_json(json) {
        Ok(snapshot) => analyze_metrics(&snapshot, config),
        Err(e) => vec![Diagnostic::error(
            codes::NITRO040,
            subject,
            format!("metrics JSON does not parse as a MetricsSnapshot: {e}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::Severity;
    use nitro_trace::MetricsRegistry;

    fn snapshot(counters: &[(&str, u64)]) -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        for (name, v) in counters {
            m.counter(name).add(*v);
        }
        m.snapshot()
    }

    #[test]
    fn healthy_metrics_produce_no_findings() {
        let s = snapshot(&[
            ("dispatch.spmv.calls", 100),
            ("dispatch.spmv.fallback", 3),
            ("dispatch.spmv.win.csr", 60),
            ("dispatch.spmv.win.ell", 40),
        ]);
        assert!(analyze_metrics(&s, &MetricsAuditConfig::default()).is_empty());
    }

    #[test]
    fn high_fallback_rate_fires_nitro041() {
        let s = snapshot(&[
            ("dispatch.spmv.calls", 100),
            ("dispatch.spmv.fallback", 80),
            ("dispatch.spmv.win.csr", 100),
        ]);
        let diags = analyze_metrics(&s, &MetricsAuditConfig::default());
        assert!(diags.iter().any(|d| d.code == "NITRO041"), "{diags:?}");
    }

    #[test]
    fn zero_win_variant_fires_nitro042() {
        let s = snapshot(&[
            ("dispatch.sort.calls", 50),
            ("dispatch.sort.win.radix", 50),
            ("dispatch.sort.win.merge", 0),
        ]);
        let diags = analyze_metrics(&s, &MetricsAuditConfig::default());
        let d = diags.iter().find(|d| d.code == "NITRO042").expect("fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("merge"), "{}", d.message);
    }

    #[test]
    fn veto_dominance_fires_nitro043_as_info() {
        let s = snapshot(&[
            ("dispatch.bfs.calls", 100),
            ("dispatch.bfs.fallback", 15),
            ("dispatch.bfs.win.fused", 40),
            ("dispatch.bfs.veto.iter", 55),
            ("dispatch.bfs.win.iter", 5),
        ]);
        let diags = analyze_metrics(&s, &MetricsAuditConfig::default());
        let d = diags.iter().find(|d| d.code == "NITRO043").expect("fires");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn tiny_runs_are_not_judged() {
        let s = snapshot(&[
            ("dispatch.spmv.calls", 3),
            ("dispatch.spmv.fallback", 3),
            ("dispatch.spmv.win.csr", 0),
        ]);
        assert!(analyze_metrics(&s, &MetricsAuditConfig::default()).is_empty());
    }

    #[test]
    fn unrelated_counters_are_ignored() {
        let s = snapshot(&[("simt.launches", 500), ("profile.spmv.inputs", 40)]);
        assert!(analyze_metrics(&s, &MetricsAuditConfig::default()).is_empty());
    }

    #[test]
    fn corrupt_json_is_a_nitro040_error() {
        let diags = analyze_metrics_json("not json", "run", &MetricsAuditConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "NITRO040");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn valid_json_round_trips_into_findings() {
        let s = snapshot(&[
            ("dispatch.spmv.calls", 100),
            ("dispatch.spmv.fallback", 90),
            ("dispatch.spmv.win.csr", 100),
        ]);
        let diags = analyze_metrics_json(&s.to_json(), "run", &MetricsAuditConfig::default());
        assert!(diags.iter().any(|d| d.code == "NITRO041"));
    }
}

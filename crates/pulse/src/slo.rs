//! Declarative SLOs over pulse metrics, evaluated on sliding windows
//! with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] names an objective — `p99(dispatch.latency) < X` or
//! `rate(guard.fallback) < 5%` — and a set of [`WindowSpec`]s. On every
//! [`SloWatchdog::tick`] the watchdog snapshots the referenced metrics
//! (cumulative sketches and counters), diffs them against the frame
//! from each window's start (sketch counts are monotone, so the
//! elementwise difference *is* the window's sketch), and fires a typed
//! [`PulseAlert`] only when **every** window breaches its burn-scaled
//! threshold. The classic pairing is a long window at burn 1.0 (the
//! objective is really violated) plus a short window at a higher burn
//! factor (it is violating *right now*) — slow burns page late, fast
//! burns page fast, and a transient spike that ended does not page at
//! all.
//!
//! Alerts are plain data so downstream machinery can act on them:
//! `nitro_store::StagedPromotion::ingest_alert` consumes a
//! [`AlertKind::LatencyRegression`] as a rollback signal, closing the
//! observe→act loop.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use nitro_trace::{MetricsRegistry, QuantileSketch};

/// What an SLO constrains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SloExpr {
    /// `quantile(metric, q) < max_value` over the window (a latency
    /// objective; `metric` names a pulse sketch).
    QuantileBelow {
        /// Sketch metric name (e.g. `dispatch.spmv.latency_ns`).
        metric: String,
        /// Quantile in `[0, 1]` (0.99 for a p99 objective).
        q: f64,
        /// Breach threshold at burn factor 1.0.
        max_value: f64,
    },
    /// `event / per < max_rate` over the window (an error-budget
    /// objective; both names are pulse counters).
    RateBelow {
        /// Numerator counter (e.g. `guard.spmv.fallback`).
        event: String,
        /// Denominator counter (e.g. `dispatch.spmv.calls`).
        per: String,
        /// Breach threshold at burn factor 1.0.
        max_rate: f64,
    },
}

/// One evaluation window: how far back to diff, and how much faster
/// than the objective the budget must be burning before this window
/// counts as breached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Window length in watchdog ticks (must be ≥ 1).
    pub ticks: usize,
    /// Threshold multiplier for this window (1.0 = the objective
    /// itself; 2.0 = burning budget at twice the sustainable rate).
    pub burn_factor: f64,
}

/// Alert urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertSeverity {
    /// Wake someone up (and trip automated rollback).
    Page,
    /// Surface in reports.
    Warn,
}

/// What kind of objective an alert came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// A latency quantile objective breached.
    LatencyRegression,
    /// A rate objective breached.
    RateBreach,
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Human-readable objective name (appears in alerts).
    pub name: String,
    /// The constrained quantity.
    pub expr: SloExpr,
    /// Evaluation windows; the alert fires only when all of them
    /// breach. Empty windows never fire.
    pub windows: Vec<WindowSpec>,
    /// Urgency of the resulting alert.
    pub severity: AlertSeverity,
}

impl SloSpec {
    /// A p99 latency objective with the default window pair: 4 ticks at
    /// burn 1.0 (sustained) and 1 tick at burn 1.0 (still happening).
    pub fn p99_below(name: impl Into<String>, metric: impl Into<String>, max_value: f64) -> Self {
        Self {
            name: name.into(),
            expr: SloExpr::QuantileBelow {
                metric: metric.into(),
                q: 0.99,
                max_value,
            },
            windows: vec![
                WindowSpec {
                    ticks: 4,
                    burn_factor: 1.0,
                },
                WindowSpec {
                    ticks: 1,
                    burn_factor: 1.0,
                },
            ],
            severity: AlertSeverity::Page,
        }
    }

    /// A rate objective (`event / per < max_rate`) with the default
    /// window pair.
    pub fn rate_below(
        name: impl Into<String>,
        event: impl Into<String>,
        per: impl Into<String>,
        max_rate: f64,
    ) -> Self {
        Self {
            name: name.into(),
            expr: SloExpr::RateBelow {
                event: event.into(),
                per: per.into(),
                max_rate,
            },
            windows: vec![
                WindowSpec {
                    ticks: 4,
                    burn_factor: 1.0,
                },
                WindowSpec {
                    ticks: 1,
                    burn_factor: 1.0,
                },
            ],
            severity: AlertSeverity::Page,
        }
    }

    /// Replace the evaluation windows.
    pub fn with_windows(mut self, windows: Vec<WindowSpec>) -> Self {
        self.windows = windows;
        self
    }

    /// Downgrade to a warn-only objective.
    pub fn warn_only(mut self) -> Self {
        self.severity = AlertSeverity::Warn;
        self
    }

    /// Every metric name the objective reads.
    pub fn referenced_metrics(&self) -> Vec<&str> {
        match &self.expr {
            SloExpr::QuantileBelow { metric, .. } => vec![metric],
            SloExpr::RateBelow { event, per, .. } => vec![event, per],
        }
    }

    /// The longest configured window.
    pub fn max_window_ticks(&self) -> usize {
        self.windows.iter().map(|w| w.ticks).max().unwrap_or(0)
    }
}

/// A typed, serializable alert: which objective breached, by how much,
/// and on which window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseAlert {
    /// The breached objective's name.
    pub slo: String,
    /// Latency or rate breach.
    pub kind: AlertKind,
    /// Urgency.
    pub severity: AlertSeverity,
    /// The primary metric (sketch name for latency, event counter for
    /// rates).
    pub metric: String,
    /// The windowed value that breached.
    pub observed: f64,
    /// The objective's base threshold (burn factor 1.0).
    pub threshold: f64,
    /// Length of the shortest breaching window, in ticks.
    pub window_ticks: usize,
}

impl PulseAlert {
    /// The tuned-function segment of a conventionally named metric
    /// (`dispatch.<fn>.latency_ns`, `guard.<fn>.fallback`, …): the
    /// second dot-segment when at least three are present.
    pub fn function(&self) -> Option<&str> {
        let mut parts = self.metric.splitn(3, '.');
        let _prefix = parts.next()?;
        let function = parts.next()?;
        parts.next()?; // require a trailing segment
        Some(function)
    }

    /// True when this alert is a Page-severity latency regression on
    /// the named tuned function — the condition that makes
    /// `nitro-store` roll a promotion back and `nitro-serve` tighten
    /// admission. Centralized here so every consumer reacts to exactly
    /// the same alerts.
    pub fn is_page_latency_for(&self, function: &str) -> bool {
        self.kind == AlertKind::LatencyRegression
            && self.severity == AlertSeverity::Page
            && self.function() == Some(function)
    }
}

/// One tick's cumulative capture of the metrics the specs reference.
#[derive(Debug)]
struct Frame {
    sketches: Vec<(String, QuantileSketch)>,
    counters: Vec<(String, u64)>,
}

impl Frame {
    fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Evaluates a set of [`SloSpec`]s against a [`MetricsRegistry`], one
/// sliding-window frame per [`tick`](SloWatchdog::tick).
#[derive(Debug)]
pub struct SloWatchdog {
    specs: Vec<SloSpec>,
    frames: VecDeque<Frame>,
    capacity: usize,
    min_window_count: u64,
}

impl SloWatchdog {
    /// A watchdog for the given objectives. Frame retention is sized to
    /// the longest window.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let capacity = specs
            .iter()
            .map(SloSpec::max_window_ticks)
            .max()
            .unwrap_or(0)
            + 1;
        Self {
            specs,
            frames: VecDeque::with_capacity(capacity),
            capacity,
            min_window_count: 1,
        }
    }

    /// Require at least `n` observations in a window before judging a
    /// quantile objective (tiny windows produce meaningless quantiles).
    pub fn with_min_window_count(mut self, n: u64) -> Self {
        self.min_window_count = n.max(1);
        self
    }

    /// The configured objectives.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Frames captured so far (windows of `w` ticks evaluate once more
    /// than `w` frames exist).
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Capture one frame and evaluate every objective. Returns the
    /// alerts that fired this tick.
    pub fn tick(&mut self, registry: &MetricsRegistry) -> Vec<PulseAlert> {
        let mut sketches = Vec::new();
        let mut counters = Vec::new();
        for spec in &self.specs {
            for metric in spec.referenced_metrics() {
                if sketches.iter().any(|(k, _): &(String, _)| k == metric)
                    || counters.iter().any(|(k, _): &(String, u64)| k == metric)
                {
                    continue;
                }
                if let Some(s) = registry.fused_sketch(metric) {
                    sketches.push((metric.to_string(), s));
                } else if let Some(c) = registry.counter_value(metric) {
                    counters.push((metric.to_string(), c));
                }
            }
        }
        self.frames.push_back(Frame { sketches, counters });
        while self.frames.len() > self.capacity {
            self.frames.pop_front();
        }

        let mut alerts = Vec::new();
        let now = self.frames.back().expect("just pushed");
        for spec in &self.specs {
            if spec.windows.is_empty() {
                continue;
            }
            let mut breaching: Option<(f64, usize)> = None; // (observed, ticks)
            let mut all_breach = true;
            for w in &spec.windows {
                let Some(observed) = self.window_value(now, spec, w) else {
                    all_breach = false;
                    break;
                };
                let threshold = self.base_threshold(spec) * w.burn_factor;
                if observed > threshold {
                    breaching = match breaching {
                        Some((obs, ticks)) if ticks <= w.ticks => Some((obs, ticks)),
                        _ => Some((observed, w.ticks)),
                    };
                } else {
                    all_breach = false;
                    break;
                }
            }
            if all_breach {
                if let Some((observed, window_ticks)) = breaching {
                    let (kind, metric) = match &spec.expr {
                        SloExpr::QuantileBelow { metric, .. } => {
                            (AlertKind::LatencyRegression, metric.clone())
                        }
                        SloExpr::RateBelow { event, .. } => (AlertKind::RateBreach, event.clone()),
                    };
                    alerts.push(PulseAlert {
                        slo: spec.name.clone(),
                        kind,
                        severity: spec.severity,
                        metric,
                        observed,
                        threshold: self.base_threshold(spec),
                        window_ticks,
                    });
                }
            }
        }
        alerts
    }

    fn base_threshold(&self, spec: &SloSpec) -> f64 {
        match &spec.expr {
            SloExpr::QuantileBelow { max_value, .. } => *max_value,
            SloExpr::RateBelow { max_rate, .. } => *max_rate,
        }
    }

    /// The windowed value for one window of one spec, or `None` when
    /// the window cannot be evaluated yet (not enough frames, missing
    /// metric, empty window).
    fn window_value(&self, now: &Frame, spec: &SloSpec, w: &WindowSpec) -> Option<f64> {
        if w.ticks == 0 || self.frames.len() <= w.ticks {
            return None;
        }
        let start = &self.frames[self.frames.len() - 1 - w.ticks];
        match &spec.expr {
            SloExpr::QuantileBelow { metric, q, .. } => {
                let cur = now.sketch(metric)?;
                let delta = match start.sketch(metric) {
                    Some(old) => cur.delta_since(old),
                    None => cur.clone(),
                };
                if delta.count() < self.min_window_count {
                    return None;
                }
                Some(delta.quantile(*q))
            }
            SloExpr::RateBelow { event, per, .. } => {
                let ev = now
                    .counter(event)?
                    .saturating_sub(start.counter(event).unwrap_or(0));
                let denom = now
                    .counter(per)?
                    .saturating_sub(start.counter(per).unwrap_or(0));
                if denom == 0 {
                    return None;
                }
                Some(ev as f64 / denom as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_spec(max_ns: f64) -> SloSpec {
        SloSpec::p99_below("spmv p99", "dispatch.spmv.latency_ns", max_ns).with_windows(vec![
            WindowSpec {
                ticks: 2,
                burn_factor: 1.0,
            },
            WindowSpec {
                ticks: 1,
                burn_factor: 1.0,
            },
        ])
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let r = MetricsRegistry::with_stripes(2);
        let s = r.sketch("dispatch.spmv.latency_ns");
        let mut dog = SloWatchdog::new(vec![latency_spec(10_000.0)]);
        for _ in 0..6 {
            for i in 0..100 {
                s.record(1000.0 + i as f64);
            }
            assert!(dog.tick(&r).is_empty());
        }
    }

    #[test]
    fn sustained_regression_trips_the_latency_slo() {
        let r = MetricsRegistry::with_stripes(2);
        let s = r.sketch("dispatch.spmv.latency_ns");
        let mut dog = SloWatchdog::new(vec![latency_spec(10_000.0)]);
        // Healthy warm-up fills the windows.
        for _ in 0..3 {
            for _ in 0..100 {
                s.record(1000.0);
            }
            assert!(dog.tick(&r).is_empty());
        }
        // Regress: every call now takes 50 µs.
        let mut fired = Vec::new();
        for _ in 0..3 {
            for _ in 0..100 {
                s.record(50_000.0);
            }
            fired.extend(dog.tick(&r));
        }
        assert!(!fired.is_empty(), "regression must alert");
        let a = &fired[0];
        assert_eq!(a.kind, AlertKind::LatencyRegression);
        assert_eq!(a.function(), Some("spmv"));
        assert!(a.observed > a.threshold, "{a:?}");
    }

    #[test]
    fn transient_spike_outside_all_windows_does_not_page() {
        let r = MetricsRegistry::with_stripes(2);
        let s = r.sketch("dispatch.spmv.latency_ns");
        let mut dog = SloWatchdog::new(vec![latency_spec(10_000.0)]);
        // One bad tick...
        for _ in 0..100 {
            s.record(50_000.0);
        }
        assert!(dog.tick(&r).is_empty(), "windows not filled yet");
        // ...then healthy traffic long enough that the short window is
        // clean even though the long window still contains the spike.
        for _ in 0..400 {
            s.record(1000.0);
        }
        assert!(dog.tick(&r).is_empty());
        for _ in 0..400 {
            s.record(1000.0);
        }
        assert!(
            dog.tick(&r).is_empty(),
            "short window is healthy, must not page"
        );
    }

    #[test]
    fn fallback_rate_slo_fires_on_budget_burn() {
        let r = MetricsRegistry::with_stripes(2);
        let calls = r.counter("dispatch.spmv.calls");
        let fb = r.counter("guard.spmv.fallback");
        let spec = SloSpec::rate_below(
            "spmv fallback budget",
            "guard.spmv.fallback",
            "dispatch.spmv.calls",
            0.05,
        )
        .with_windows(vec![
            WindowSpec {
                ticks: 2,
                burn_factor: 1.0,
            },
            WindowSpec {
                ticks: 1,
                burn_factor: 2.0,
            },
        ]);
        let mut dog = SloWatchdog::new(vec![spec]);
        for _ in 0..3 {
            calls.add(100);
            fb.add(1); // 1% — healthy
            assert!(dog.tick(&r).is_empty());
        }
        let mut fired = Vec::new();
        for _ in 0..3 {
            calls.add(100);
            fb.add(30); // 30% — burning 6× budget
            fired.extend(dog.tick(&r));
        }
        assert!(!fired.is_empty());
        assert_eq!(fired[0].kind, AlertKind::RateBreach);
        assert!(fired[0].observed > 0.05 * 2.0);
    }

    #[test]
    fn alert_serde_round_trips() {
        let a = PulseAlert {
            slo: "spmv p99".into(),
            kind: AlertKind::LatencyRegression,
            severity: AlertSeverity::Page,
            metric: "dispatch.spmv.latency_ns".into(),
            observed: 50_000.0,
            threshold: 10_000.0,
            window_ticks: 1,
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: PulseAlert = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}

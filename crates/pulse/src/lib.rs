//! # nitro-pulse — dispatch telemetry built on the `nitro-trace` registry
//!
//! Metrics live in one store, `nitro-trace`'s [`MetricsRegistry`]:
//! striped lock-free counters, gauges and quantile sketches whose
//! snapshots export as a [`MetricsSnapshot`]. A tuned function records
//! its own `dispatch.<fn>.*` metrics there once
//! `CodeVariant::bind_metrics` has registered them. This crate builds
//! the serving-side telemetry on top of that store:
//!
//! * **Continuous dispatch profiling** ([`PulseProfiler`]): installed as
//!   a function's `nitro-core` [`DispatchObserver`], it samples every Kth
//!   dispatch into per-(function, variant, feature-regime) latency
//!   sketches, exported as collapsed-stack (flamegraph-compatible) text
//!   and a JSON profile.
//! * **SLO watchdogs** ([`SloSpec`], [`SloWatchdog`], [`PulseAlert`]):
//!   declarative objectives (`p99(dispatch.latency) < X`,
//!   `rate(guard.fallback) < 5%`) evaluated over sliding windows with
//!   multi-window burn-rate alerting. Alerts are typed data;
//!   `nitro_store::StagedPromotion` consumes a latency regression as a
//!   rollback signal, closing the observe→act loop.
//!
//! Misconfigurations are audited as `NITRO090`–`NITRO093`
//! ([`audit_slos`], [`audit_registry`]).
//!
//! [`DispatchObserver`]: nitro_core::DispatchObserver
//! [`MetricsRegistry`]: nitro_trace::MetricsRegistry
//! [`MetricsSnapshot`]: nitro_trace::MetricsSnapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod profiler;
pub mod slo;

pub use audit::{audit_registry, audit_slos, MetricCadence};
pub use profiler::{feature_regime, ProfileEntry, ProfileReport, PulseProfiler};
pub use slo::{AlertKind, AlertSeverity, PulseAlert, SloExpr, SloSpec, SloWatchdog, WindowSpec};

//! # Nitro — adaptive code variant tuning
//!
//! Facade crate re-exporting the full workspace. See the individual crates
//! for details:
//!
//! * [`nitro_core`] — the library interface (variants, features, constraints).
//! * [`nitro_ml`] — SVM/SMO, scaling, cross-validation, active learning.
//! * [`nitro_audit`] — static analysis of registrations, artifacts and
//!   profile tables (`NITRO0xx` diagnostics).
//! * [`nitro_guard`] — resilient dispatch: retry with backoff, variant
//!   quarantine, fallback cascades and graceful degradation.
//! * [`nitro_store`] — durability and model lifecycle: resumable tuning
//!   journals, the versioned artifact store, staged promotion/rollback.
//! * [`nitro_tuner`] — the offline autotuner.
//! * [`nitro_trace`] — structured tracing, the metrics store (striped
//!   lock-free counters, gauges and mergeable quantile sketches) and
//!   regret accounting.
//! * [`nitro_pulse`] — dispatch telemetry on that store: a dispatch
//!   observer, continuous dispatch profiling and SLO watchdogs.
//! * [`nitro_simt`] — the simulated GPU substrate.
//! * Benchmarks: [`nitro_sparse`], [`nitro_solvers`], [`nitro_graph`],
//!   [`nitro_histogram`], [`nitro_sort`].

#![forbid(unsafe_code)]

pub use nitro_audit as audit;
pub use nitro_core as core;
pub use nitro_graph as graph;
pub use nitro_guard as guard;
pub use nitro_histogram as histogram;
pub use nitro_ml as ml;
pub use nitro_pulse as pulse;
pub use nitro_serve as serve;
pub use nitro_simt as simt;
pub use nitro_solvers as solvers;
pub use nitro_sort as sort;
pub use nitro_sparse as sparse;
pub use nitro_store as store;
pub use nitro_trace as trace;
pub use nitro_tuner as tuner;

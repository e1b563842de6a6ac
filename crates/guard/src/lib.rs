//! # nitro-guard — resilient dispatch for Nitro code variants
//!
//! The paper's dispatcher assumes every variant that passes its
//! constraints will run to completion. On real accelerators (and under
//! the simulator's fault injection) that assumption breaks: launches
//! fail transiently, kernels hit driver bugs and panic, results come
//! back corrupted. This crate wraps a
//! [`CodeVariant`](nitro_core::CodeVariant) in a recovery pipeline so a
//! single bad variant degrades performance instead of crashing the
//! service:
//!
//! * **Failure isolation** — attempts run under `catch_unwind` and
//!   non-finite objectives are treated as failures
//!   ([`CodeVariant::try_run_variant`](nitro_core::CodeVariant::try_run_variant)),
//!   surfacing as typed
//!   [`NitroError::VariantFailed`](nitro_core::NitroError) values.
//! * **Retry with backoff** — each candidate gets a bounded retry
//!   budget with exponentially-doubling simulated backoff.
//! * **Quarantine** — a per-variant [`CircuitBreaker`]
//!   (Closed → Open → HalfOpen) takes repeat offenders out of rotation
//!   for a call-counted cooldown, then probes them back in.
//! * **Fallback cascade** — candidates are tried in the model's
//!   posterior order, ending at the default variant, so a quarantined
//!   winner falls back to the next-best prediction rather than failing
//!   the call.
//! * **Graceful degradation** — a missing, mismatched or audit-failing
//!   model artifact downgrades the guard to default-variant dispatch
//!   ([`HealthStatus::Degraded`]) instead of erroring. With a
//!   `nitro-store` [`ArtifactStore`](nitro_store::ArtifactStore),
//!   [`GuardedVariant::load_latest_or_degrade`] walks back past corrupt
//!   versions to the newest intact one — torn or bit-rotted artifacts
//!   are reported (`NITRO071`/`NITRO072`), never installed.
//!
//! Guard activity is observable through `nitro-trace` counters
//! (`guard.<fn>.quarantine`, `guard.<fn>.retry`, `guard.<fn>.degraded`,
//! …) and configuration is auditable through the `NITRO05x` diagnostics
//! in [`audit_guard_policy`] and [`audit_fault_plan`]. The [`chaos`]
//! module supplies the [`ChaosVariant`] decorator used by the chaos
//! test (the root `tests/guard_chaos.rs`) and the resilience example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod breaker;
pub mod chaos;
pub mod dispatch;

pub use audit::{audit_fault_plan, audit_guard_policy};
pub use breaker::{BreakerState, CircuitBreaker, GuardPolicy, Transition};
pub use chaos::{inject_failures, ChaosPlan, ChaosVariant};
pub use dispatch::{GuardShared, GuardStats, GuardedInvocation, GuardedVariant, HealthStatus};

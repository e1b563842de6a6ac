//! # nitro-serve — an overload-safe serving front door for tuned functions
//!
//! The rest of the workspace makes one dispatch fast and safe;
//! this crate makes *concurrent traffic* safe. N worker shards — each
//! owning a [`CodeVariant`](nitro_core::CodeVariant) wrapped in a
//! shard-shareable [`GuardedVariant`](nitro_guard::GuardedVariant) —
//! sit behind a bounded-queue front door with real overload semantics:
//!
//! * **Admission control** — per-tenant token buckets plus
//!   priority-scaled queue watermarks reject early (two atomic reads)
//!   instead of queueing forever.
//! * **Deadline budgets** — every request carries a
//!   [`Deadline`](nitro_core::Deadline); expired requests are shed
//!   *before* dispatch, never after work is done, and an EWMA service
//!   estimate sheds requests that can no longer make it.
//! * **Graceful degradation** — a three-tier ladder (full predict →
//!   cached per-regime decision → default variant) engages as shard
//!   pressure rises, so overload costs prediction quality before it
//!   costs availability.
//! * **Model hot-swap** — model updates (e.g. from a
//!   [`StagedPromotion`](nitro_store::StagedPromotion)) publish into one
//!   locked [`ModelSlot`] under a publication sequence; a worker reads
//!   the sequence (one atomic load) per request and takes the lock only
//!   when it has moved.
//! * **SLO feedback** — a burning latency SLO
//!   ([`PulseAlert`](nitro_pulse::PulseAlert) pages) tightens admission
//!   *before* the watchdog has to roll a promotion back.
//!
//! Every event is counted once, in a `serve.<fn>.*` pulse metric
//! ([`ServePulse`]); the request-lineage conservation check
//! ([`LineageAccounting`]) and the shutdown summary are reads of those
//! counters. The configuration is audited at startup
//! (`NITRO100`–`NITRO104`, [`audit_serve_config`]). See the repository
//! README's "Serving & overload" section for the architecture diagram
//! and the bench harness (`serve_report`) that load-tests all of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod audit;
pub mod clock;
pub mod degrade;
pub mod front;
pub mod lineage;
pub mod metrics;
pub mod queue;
pub mod supervise;

pub use admission::{TenantBuckets, TokenBucket};
pub use audit::{
    audit_serve_config, diag_conservation, diag_poison_quarantine, diag_restart_budget,
    diag_shard_restart,
};
pub use clock::ServeClock;
pub use degrade::{admission_watermark, regime_fingerprint, tier_for, DegradeTier, RegimeCache};
pub use front::{
    ModelSlot, Rejection, ServeConfig, ServeFront, ServeOutcome, ServeSummary, ServeTicket,
};
pub use lineage::LineageAccounting;
pub use metrics::{FrontCounter, ServePulse};
pub use queue::ShardQueue;
pub use supervise::{PanicRecord, ShardSlot, ShardState, SupervisorConfig};

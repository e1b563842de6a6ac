//! # nitro-store — durability and model lifecycle for Nitro
//!
//! The paper's workflow is offline: tune once, emit a model, use it
//! forever. This crate adds the operational layer a production tuner
//! needs, in three parts:
//!
//! * **[`TuningJournal`]** — an append-only, CRC-checksummed JSONL
//!   write-ahead log of profiling work. `Autotuner::tune_durable` (in
//!   `nitro-tuner`) appends every per-`(input × variant)` cell as it is
//!   measured; after a crash it replays the journal, re-profiles only
//!   the missing cells and produces an artifact **bit-identical** to an
//!   uninterrupted run. Torn tails are truncated (`NITRO070`), bit rot
//!   is caught by checksum (`NITRO071`).
//!
//! * **[`ArtifactStore`]** — monotonic, checksummed model versions with
//!   atomic installs. Every load verifies the manifest's CRC-32; a
//!   corrupt or truncated version is reported (`NITRO071`/`NITRO072`)
//!   and never installed, and [`ArtifactStore::load_latest_intact`]
//!   serves the newest surviving version instead. `latest` moves back
//!   only through an explicit [`ArtifactStore::rollback`]; retention GC
//!   never collects the serving version.
//!
//! * **[`StagedPromotion`]** — retrained models shadow-predict against
//!   the incumbent over a configurable window and are promoted only
//!   when no worse ([`RegretLedger`](nitro_trace::RegretLedger)-scored);
//!   a post-promotion probation window auto-rolls back regressions
//!   (`NITRO074`) and repeated rollbacks trip a storm breaker
//!   (`NITRO075`).
//!
//! Diagnostics `NITRO070`–`NITRO075` are defined in [`mod@audit`]; the
//! code ranges are documented centrally in `nitro_core::diag`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod journal;
pub mod promote;
pub mod store;

pub use journal::{
    CellValue, JournalHeader, JournalRecord, JournalReplay, TuningJournal, JOURNAL_FORMAT_VERSION,
};
pub use promote::{LifecycleEvent, PromotionPolicy, PromotionStage, StagedPromotion};
pub use store::{ArtifactStore, Manifest, StoreEvent, StoredVersion};

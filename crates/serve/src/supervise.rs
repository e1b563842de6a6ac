//! Shard supervision: the state machine behind self-healing serving.
//!
//! ```text
//!          panic escapes dispatch                restart budget left,
//!            (worker exits)                      backoff elapsed
//!   ┌────┐ ───────────────────────► ┌──────┐ ─────────────────────► Up
//!   │ Up │                          │ Dead │
//!   └────┘ ◄─────────────────────── └──────┘ ─────────────────────► ┌─────────┐
//!      │      replacement spawned       │       budget exhausted    │ Retired │
//!      │                                │       (NITRO111)          └─────────┘
//!      │ heartbeat stale while busy     │
//!      └── (wedged: fence generation, ◄─┘
//!           replace on the same queue, NITRO110)
//! ```
//!
//! Each shard owns one [`ShardSlot`]: a tiny bank of atomics the worker
//! updates (heartbeat, busy flag) and the supervisor reads and
//! transitions (state, generation, restart bookkeeping). The
//! *generation* is the fencing token — a replaced worker notices its
//! generation is stale and exits instead of double-serving its queue.
//! Every restart consumes budget and doubles the backoff; an exhausted
//! budget retires the shard permanently (`NITRO111`), permanently
//! reducing capacity rather than crash-looping.
//!
//! Requests that *cause* deaths are tracked per-job: a job whose
//! dispatch has now killed [`SupervisorConfig::poison_kill_threshold`]
//! shards is quarantined (`NITRO112`) instead of being re-placed to
//! kill again.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use serde::Serialize;

/// Supervisor knobs; `ServeConfig::default()` uses these defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Restarts (death or wedge replacements) each shard may consume
    /// before it is retired.
    pub restart_budget: u32,
    /// Base restart backoff, ns — doubles with every restart already
    /// consumed.
    pub restart_backoff_base_ns: u64,
    /// A busy worker whose heartbeat is older than this is wedged:
    /// fenced out and replaced.
    pub heartbeat_stale_ns: u64,
    /// Shard kills after which a request is quarantined instead of
    /// re-placed (`NITRO112`).
    pub poison_kill_threshold: u32,
    /// Supervisor poll interval (wall time; decisions read the serve
    /// clock).
    pub tick: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            restart_budget: 4,
            restart_backoff_base_ns: 1_000_000,
            heartbeat_stale_ns: 2_000_000_000,
            poison_kill_threshold: 2,
            tick: Duration::from_millis(1),
        }
    }
}

/// A shard's lifecycle state, as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ShardState {
    /// A live worker owns the queue.
    Up,
    /// The worker exited after a panic; queued work is being drained
    /// and a restart (or retirement) is pending.
    Dead,
    /// Restart budget exhausted — permanently out of rotation
    /// (`NITRO111`).
    Retired,
}

const STATE_UP: u32 = 0;
const STATE_DEAD: u32 = 1;
const STATE_RETIRED: u32 = 2;

/// Per-shard supervision cell: written by the shard's worker
/// (heartbeat, busy) and by the supervisor (state, generation, restart
/// bookkeeping), read by admission (state) lock-free.
#[derive(Debug)]
pub struct ShardSlot {
    state: AtomicU32,
    /// Fencing token: a worker whose spawn-time generation no longer
    /// matches has been replaced and must exit.
    pub generation: AtomicU64,
    /// Serve-clock timestamp of the worker's last sign of life.
    pub heartbeat_ns: AtomicU64,
    /// 1 while the worker is inside a dispatch (wedge detection only
    /// applies to busy workers — a worker blocked on an empty queue is
    /// idle, not wedged).
    pub busy: AtomicU32,
    /// Restarts consumed so far.
    pub restarts: AtomicU32,
    /// Serve-clock instant before which a dead shard must not be
    /// restarted (exponential backoff).
    pub next_restart_at_ns: AtomicU64,
}

impl Default for ShardSlot {
    fn default() -> Self {
        Self {
            state: AtomicU32::new(STATE_UP),
            generation: AtomicU64::new(0),
            heartbeat_ns: AtomicU64::new(0),
            busy: AtomicU32::new(0),
            restarts: AtomicU32::new(0),
            next_restart_at_ns: AtomicU64::new(0),
        }
    }
}

impl ShardSlot {
    /// Current lifecycle state.
    pub fn state(&self) -> ShardState {
        match self.state.load(Ordering::SeqCst) {
            STATE_UP => ShardState::Up,
            STATE_DEAD => ShardState::Dead,
            _ => ShardState::Retired,
        }
    }

    /// Transition the lifecycle state.
    pub fn set_state(&self, state: ShardState) {
        let raw = match state {
            ShardState::Up => STATE_UP,
            ShardState::Dead => STATE_DEAD,
            ShardState::Retired => STATE_RETIRED,
        };
        self.state.store(raw, Ordering::SeqCst);
    }
}

/// One escaped panic, attributed to the request that caused it: the
/// `serve.<fn>.panics` counter says *that* a shard panicked, the record
/// says *which request* did it.
#[derive(Debug, Clone, Serialize)]
pub struct PanicRecord {
    /// The shard whose dispatch panicked.
    pub shard: usize,
    /// That worker's generation (distinguishes repeat kills of a
    /// restarted shard).
    pub generation: u64,
    /// The admitted request's lineage id.
    pub lineage: u64,
    /// Its tenant.
    pub tenant: u32,
    /// Its priority (debug-formatted).
    pub priority: String,
    /// The panic payload, stringified.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_round_trips_and_starts_up() {
        let slot = ShardSlot::default();
        assert_eq!(slot.state(), ShardState::Up);
        slot.set_state(ShardState::Dead);
        assert_eq!(slot.state(), ShardState::Dead);
        slot.set_state(ShardState::Retired);
        assert_eq!(slot.state(), ShardState::Retired);
        slot.set_state(ShardState::Up);
        assert_eq!(slot.state(), ShardState::Up);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.restart_budget >= 1);
        assert!(cfg.restart_backoff_base_ns > 0);
        assert!(
            cfg.poison_kill_threshold >= 2,
            "one kill must not quarantine"
        );
        assert!(cfg.heartbeat_stale_ns > cfg.restart_backoff_base_ns);
    }
}

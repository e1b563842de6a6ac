//! Request-lineage conservation: every admitted request terminates in
//! exactly one accounted outcome.
//!
//! The front door promises that admission is the only place a request
//! can silently not-happen — once `submit` returns a ticket, the
//! request *will* resolve, even if the shard holding it panics, is
//! fenced out as wedged, or is retired. The [`ConservationLedger`]
//! makes that promise checkable: `submit` counts an admission, every
//! resolution path counts exactly one terminal, and a reply slot that
//! is dropped without resolving counts a **loss** (which is a bug, and
//! surfaces as `NITRO114` at shutdown). The chaos harness
//! (`chaos_serve_report`) gates on [`LineageAccounting::is_conserved`]
//! after every campaign.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Lock-free terminal-outcome counters for one front door. Updated on
/// the admission and resolution paths; snapshot once the workers have
/// drained (a mid-flight snapshot legitimately shows
/// `admitted > terminals` for requests still in queues).
#[derive(Debug, Default)]
pub struct ConservationLedger {
    /// Requests admitted past both admission gates.
    pub admitted: AtomicU64,
    /// Resolved: dispatched and completed.
    pub served: AtomicU64,
    /// Resolved: shed because the deadline expired while queued.
    pub shed_expired: AtomicU64,
    /// Resolved: shed because the remaining budget could not beat the
    /// service estimate.
    pub shed_hopeless: AtomicU64,
    /// Resolved: drained off a dead shard with nowhere live to go.
    pub shed_failover: AtomicU64,
    /// Resolved: dispatch failed (cascade exhausted).
    pub failed: AtomicU64,
    /// Resolved: quarantined as a poison pill after killing shards.
    pub quarantined: AtomicU64,
    /// Reply slots dropped without resolving — always a bug
    /// (`NITRO114`).
    pub lost: AtomicU64,
}

impl ConservationLedger {
    /// A fresh ledger with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the counters. Meaningful as a conservation check only
    /// once no request is in flight (after shutdown's final sweep).
    pub fn snapshot(&self) -> LineageAccounting {
        LineageAccounting {
            admitted: self.admitted.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            shed_expired: self.shed_expired.load(Ordering::SeqCst),
            shed_hopeless: self.shed_hopeless.load(Ordering::SeqCst),
            shed_failover: self.shed_failover.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            lost: self.lost.load(Ordering::SeqCst),
        }
    }
}

/// A point-in-time copy of a [`ConservationLedger`], carried in the
/// [`ServeSummary`](crate::ServeSummary) and serialized by the chaos
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LineageAccounting {
    /// Requests admitted past both admission gates.
    pub admitted: u64,
    /// Dispatched and completed.
    pub served: u64,
    /// Shed at dequeue: deadline expired while queued.
    pub shed_expired: u64,
    /// Shed at dequeue: remaining budget below the service estimate.
    pub shed_hopeless: u64,
    /// Shed during failover off a dead shard.
    pub shed_failover: u64,
    /// Dispatch failed.
    pub failed: u64,
    /// Quarantined as a poison pill.
    pub quarantined: u64,
    /// Dropped without an accounted outcome (must be 0).
    pub lost: u64,
}

impl LineageAccounting {
    /// Sum of every terminal outcome.
    pub fn terminals(&self) -> u64 {
        self.served
            + self.shed_expired
            + self.shed_hopeless
            + self.shed_failover
            + self.failed
            + self.quarantined
    }

    /// The conservation invariant: nothing lost, and every admitted
    /// request resolved in exactly one terminal.
    pub fn is_conserved(&self) -> bool {
        self.lost == 0 && self.admitted == self.terminals()
    }

    /// Human-readable violations (empty when conserved).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.lost > 0 {
            v.push(format!(
                "{} request(s) dropped without an accounted outcome",
                self.lost
            ));
        }
        let terminals = self.terminals();
        if self.admitted != terminals {
            v.push(format!(
                "admitted {} != terminal outcomes {} (served {} + shed_expired {} + \
                 shed_hopeless {} + shed_failover {} + failed {} + quarantined {})",
                self.admitted,
                terminals,
                self.served,
                self.shed_expired,
                self.shed_hopeless,
                self.shed_failover,
                self.failed,
                self.quarantined
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_requires_exactly_one_terminal_per_admission() {
        let ledger = ConservationLedger::new();
        ledger.admitted.fetch_add(3, Ordering::SeqCst);
        ledger.served.fetch_add(2, Ordering::SeqCst);
        let mid = ledger.snapshot();
        assert!(!mid.is_conserved(), "one request still unresolved");
        assert_eq!(mid.violations().len(), 1);

        ledger.shed_failover.fetch_add(1, Ordering::SeqCst);
        let done = ledger.snapshot();
        assert!(done.is_conserved(), "{:?}", done.violations());
        assert!(done.violations().is_empty());
    }

    #[test]
    fn a_lost_request_is_a_violation_even_when_counts_balance() {
        let ledger = ConservationLedger::new();
        ledger.admitted.fetch_add(1, Ordering::SeqCst);
        ledger.served.fetch_add(1, Ordering::SeqCst);
        ledger.lost.fetch_add(1, Ordering::SeqCst);
        let snap = ledger.snapshot();
        assert!(!snap.is_conserved());
        assert!(snap.violations()[0].contains("dropped without"));
    }
}

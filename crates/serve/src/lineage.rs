//! Request-lineage conservation: every admitted request terminates in
//! exactly one accounted outcome.
//!
//! The front door promises that admission is the only place a request
//! can silently not-happen — once `submit` returns a ticket, the
//! request *will* resolve, even if the shard holding it panics, is
//! fenced out as wedged, or is retired. [`LineageAccounting`] makes that
//! promise checkable. It is a read of the front's `serve.<fn>.*`
//! counters ([`ServePulse`]): `submit` counts an admission, the reply
//! slot's `resolve` counts each terminal outcome (and is the only place
//! one is counted), and a reply slot dropped without resolving counts a
//! **loss** (a bug, which surfaces as `NITRO114` at shutdown). The chaos
//! campaigns (`tests/lineage.rs` and `serve_report`'s storm) gate on
//! [`LineageAccounting::is_conserved`] after every run.

use serde::Serialize;

use crate::metrics::ServePulse;

/// A read of one front's terminal-outcome counters, carried in the
/// [`ServeSummary`](crate::ServeSummary) and serialized by the chaos
/// harness.
///
/// A conservation check only once no request is in flight (after
/// shutdown's final sweep). Mid-flight, requests still queued make
/// `admitted` exceed the terminal sum, and since admission is counted
/// after the push, a request can resolve before its admission is
/// counted: the read can be off in either direction.
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
    /// Read a front's counters.
    pub fn read(pulse: &ServePulse) -> Self {
        Self {
            admitted: pulse.admitted.value(),
            served: pulse.served.value(),
            shed_expired: pulse.shed_expired.value(),
            shed_hopeless: pulse.shed_hopeless.value(),
            shed_failover: pulse.shed_failover.value(),
            failed: pulse.failed.value(),
            quarantined: pulse.poison_quarantined.value(),
            lost: pulse.lost.value(),
        }
    }

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
    use nitro_trace::MetricsRegistry;

    #[test]
    fn conservation_requires_exactly_one_terminal_per_admission() {
        let pulse = ServePulse::register(&MetricsRegistry::with_stripes(2), "fn");
        pulse.admitted.add(3);
        pulse.served.add(2);
        let mid = LineageAccounting::read(&pulse);
        assert!(!mid.is_conserved(), "one request still unresolved");
        assert_eq!(mid.violations().len(), 1);

        pulse.shed_failover.inc();
        let done = LineageAccounting::read(&pulse);
        assert!(done.is_conserved(), "{:?}", done.violations());
        assert!(done.violations().is_empty());
    }

    #[test]
    fn a_lost_request_is_a_violation_even_when_counts_balance() {
        let pulse = ServePulse::register(&MetricsRegistry::with_stripes(2), "fn");
        pulse.admitted.inc();
        pulse.served.inc();
        pulse.lost.inc();
        let snap = LineageAccounting::read(&pulse);
        assert!(!snap.is_conserved());
        assert!(snap.violations()[0].contains("dropped without"));
    }
}

//! The per-variant circuit breaker: Closed → Open → HalfOpen.
//!
//! Each variant of a guarded `code_variant` owns one [`CircuitBreaker`].
//! Consecutive execution failures trip it **Open** (the variant is
//! quarantined and skipped by the fallback cascade); after a cooldown
//! measured in guarded calls it moves to **HalfOpen**, where the variant
//! is dispatchable again as a probe — one more failure re-opens it, enough
//! successes close it. All thresholds come from [`GuardPolicy`].
//!
//! The clock is *guarded calls*, not wall time: the simulator's time is
//! virtual, and call-counted cooldowns keep chaos tests deterministic.
//!
//! The breaker is **shard-shareable**: its state lives in one packed
//! `AtomicU64` and every transition is a CAS loop, so
//! [`tick`](CircuitBreaker::tick), [`on_success`](CircuitBreaker::on_success)
//! and [`on_failure`](CircuitBreaker::on_failure) all take `&self` and
//! are safe to call from any number of worker threads without a mutex.
//! Under concurrent updates each transition is applied atomically
//! against the state the CAS observed — two racing failures on a breaker
//! one step from its threshold produce exactly one `Opened` transition.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Tunable knobs of the resilience layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardPolicy {
    /// Retries after the first failed attempt of a candidate variant
    /// (so a candidate gets `1 + retry_budget` attempts per call).
    pub retry_budget: u32,
    /// Simulated backoff charged before the first retry, in nanoseconds;
    /// doubles on each further retry.
    pub backoff_base_ns: f64,
    /// Deterministic jitter fraction in `[0, 1]` applied to each backoff
    /// pause: the pause is scaled by a seeded factor in
    /// `[1 − jitter, 1 + jitter)` so N shards retrying the same fault
    /// decorrelate instead of thundering in lockstep. `0.0` (the
    /// default) reproduces the bare exponential schedule.
    #[serde(default)]
    pub backoff_jitter: f64,
    /// Seed of the jitter stream. Combined with the guard's per-shard
    /// salt ([`crate::GuardedVariant::set_backoff_salt`]) so the
    /// schedule is a pure, replayable function of
    /// `(seed, salt, candidate, attempt, retry sequence)`.
    #[serde(default = "default_jitter_seed")]
    pub jitter_seed: u64,
    /// Consecutive failures that trip a variant's breaker Open.
    pub quarantine_threshold: u32,
    /// Guarded calls an Open breaker waits before probing (HalfOpen).
    pub cooldown_calls: u64,
    /// Successful HalfOpen probes required to close the breaker.
    pub half_open_probes: u32,
}

fn default_jitter_seed() -> u64 {
    0x6A17_7E55_EED5_EED1
}

impl Default for GuardPolicy {
    fn default() -> Self {
        Self {
            retry_budget: 2,
            backoff_base_ns: 1_000.0,
            backoff_jitter: 0.0,
            jitter_seed: default_jitter_seed(),
            quarantine_threshold: 3,
            cooldown_calls: 16,
            half_open_probes: 1,
        }
    }
}

/// Where a breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: the variant is dispatchable.
    Closed {
        /// Failures seen since the last success.
        consecutive_failures: u32,
    },
    /// Quarantined: the variant is skipped by dispatch.
    Open {
        /// Guarded calls left before the breaker half-opens.
        remaining_cooldown: u64,
    },
    /// Probing: dispatchable again, one failure away from re-opening.
    HalfOpen {
        /// Successful probes so far.
        successes: u32,
    },
}

/// A state transition worth counting (and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Closed → Open: the variant entered quarantine.
    Opened,
    /// HalfOpen → Open: the probe failed, back to quarantine.
    Reopened,
    /// HalfOpen → Closed: the variant recovered.
    Recovered,
}

// Packed state word: tag in the top two bits, payload (failure streak,
// remaining cooldown or probe successes) in the low 62.
const TAG_SHIFT: u32 = 62;
const TAG_CLOSED: u64 = 0;
const TAG_OPEN: u64 = 1;
const TAG_HALF_OPEN: u64 = 2;
const VALUE_MASK: u64 = (1 << TAG_SHIFT) - 1;

fn encode(state: BreakerState) -> u64 {
    match state {
        BreakerState::Closed {
            consecutive_failures,
        } => (TAG_CLOSED << TAG_SHIFT) | u64::from(consecutive_failures),
        BreakerState::Open { remaining_cooldown } => {
            (TAG_OPEN << TAG_SHIFT) | (remaining_cooldown & VALUE_MASK)
        }
        BreakerState::HalfOpen { successes } => (TAG_HALF_OPEN << TAG_SHIFT) | u64::from(successes),
    }
}

fn decode(word: u64) -> BreakerState {
    let value = word & VALUE_MASK;
    match word >> TAG_SHIFT {
        TAG_OPEN => BreakerState::Open {
            remaining_cooldown: value,
        },
        TAG_HALF_OPEN => BreakerState::HalfOpen {
            successes: value as u32,
        },
        _ => BreakerState::Closed {
            consecutive_failures: value as u32,
        },
    }
}

/// One variant's breaker. `Send + Sync`: state transitions are lock-free
/// CAS loops on a single packed word.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u64,
    probes_to_close: u32,
    state: AtomicU64,
}

impl Clone for CircuitBreaker {
    fn clone(&self) -> Self {
        Self {
            threshold: self.threshold,
            cooldown: self.cooldown,
            probes_to_close: self.probes_to_close,
            state: AtomicU64::new(self.state.load(Ordering::SeqCst)),
        }
    }
}

impl PartialEq for CircuitBreaker {
    fn eq(&self, other: &Self) -> bool {
        self.threshold == other.threshold
            && self.cooldown == other.cooldown
            && self.probes_to_close == other.probes_to_close
            && self.state() == other.state()
    }
}

impl CircuitBreaker {
    /// A Closed breaker configured from the policy.
    pub fn new(policy: &GuardPolicy) -> Self {
        Self {
            // A zero threshold would quarantine on sight; the policy
            // audit (NITRO050) refuses it, but the breaker itself stays
            // total by clamping. The cooldown clamp keeps the packed
            // representation total (62 bits of call-counted cooldown).
            threshold: policy.quarantine_threshold.max(1),
            cooldown: policy.cooldown_calls.min(VALUE_MASK),
            probes_to_close: policy.half_open_probes.max(1),
            state: AtomicU64::new(encode(BreakerState::Closed {
                consecutive_failures: 0,
            })),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        decode(self.state.load(Ordering::SeqCst))
    }

    /// Whether dispatch may run this variant (Closed or HalfOpen).
    pub fn is_available(&self) -> bool {
        !matches!(self.state(), BreakerState::Open { .. })
    }

    /// Whether the variant is quarantined (Open).
    pub fn is_quarantined(&self) -> bool {
        !self.is_available()
    }

    /// Apply `step` atomically to the current state: CAS-loop until the
    /// transition lands against an unchanged snapshot.
    fn transition<R>(&self, step: impl Fn(BreakerState) -> (BreakerState, R)) -> R {
        let mut current = self.state.load(Ordering::SeqCst);
        loop {
            let (next, out) = step(decode(current));
            match self.state.compare_exchange_weak(
                current,
                encode(next),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return out,
                Err(observed) => current = observed,
            }
        }
    }

    /// Advance the cooldown clock by one guarded call. Returns `true`
    /// when this tick moved the breaker from Open to HalfOpen.
    pub fn tick(&self) -> bool {
        // Only an Open breaker has a clock to advance. Skipping the CAS
        // for any other state is the same as this tick landing before a
        // concurrent trip, so one load suffices on the common path.
        if self.state.load(Ordering::SeqCst) >> TAG_SHIFT != TAG_OPEN {
            return false;
        }
        self.transition(|state| match state {
            BreakerState::Open { remaining_cooldown } if remaining_cooldown <= 1 => {
                (BreakerState::HalfOpen { successes: 0 }, true)
            }
            BreakerState::Open { remaining_cooldown } => (
                BreakerState::Open {
                    remaining_cooldown: remaining_cooldown - 1,
                },
                false,
            ),
            other => (other, false),
        })
    }

    /// Record a successful execution of this variant.
    pub fn on_success(&self) -> Option<Transition> {
        self.transition(|state| match state {
            BreakerState::Closed { .. } => (
                BreakerState::Closed {
                    consecutive_failures: 0,
                },
                None,
            ),
            BreakerState::HalfOpen { successes } => {
                if successes + 1 >= self.probes_to_close {
                    (
                        BreakerState::Closed {
                            consecutive_failures: 0,
                        },
                        Some(Transition::Recovered),
                    )
                } else {
                    (
                        BreakerState::HalfOpen {
                            successes: successes + 1,
                        },
                        None,
                    )
                }
            }
            // Dispatch never runs an Open variant, but stay total.
            open @ BreakerState::Open { .. } => (open, None),
        })
    }

    /// Record a failed execution of this variant.
    pub fn on_failure(&self) -> Option<Transition> {
        self.transition(|state| match state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= self.threshold {
                    (
                        BreakerState::Open {
                            remaining_cooldown: self.cooldown,
                        },
                        Some(Transition::Opened),
                    )
                } else {
                    (
                        BreakerState::Closed {
                            consecutive_failures: failures,
                        },
                        None,
                    )
                }
            }
            BreakerState::HalfOpen { .. } => (
                BreakerState::Open {
                    remaining_cooldown: self.cooldown,
                },
                Some(Transition::Reopened),
            ),
            open @ BreakerState::Open { .. } => (open, None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GuardPolicy {
        GuardPolicy {
            quarantine_threshold: 3,
            cooldown_calls: 2,
            half_open_probes: 2,
            ..GuardPolicy::default()
        }
    }

    #[test]
    fn trips_open_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(&policy());
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_failure(), None);
        assert!(b.is_available());
        assert_eq!(b.on_failure(), Some(Transition::Opened));
        assert!(b.is_quarantined());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(&policy());
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert!(b.is_available(), "streak was reset by the success");
    }

    #[test]
    fn cooldown_ticks_to_half_open_then_probes_close() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.on_failure();
        }
        assert!(b.is_quarantined());
        assert!(!b.tick(), "cooldown 2 → 1");
        assert!(b.tick(), "cooldown 1 → HalfOpen");
        assert!(b.is_available());
        assert_eq!(b.on_success(), None, "first of two probes");
        assert_eq!(b.on_success(), Some(Transition::Recovered));
        assert_eq!(
            b.state(),
            BreakerState::Closed {
                consecutive_failures: 0
            }
        );
    }

    #[test]
    fn half_open_failure_reopens_with_full_cooldown() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.on_failure();
        }
        b.tick();
        b.tick();
        assert_eq!(b.on_failure(), Some(Transition::Reopened));
        assert_eq!(
            b.state(),
            BreakerState::Open {
                remaining_cooldown: 2
            }
        );
    }

    #[test]
    fn ticking_a_closed_breaker_is_a_no_op() {
        let b = CircuitBreaker::new(&policy());
        assert!(!b.tick());
        assert!(b.is_available());
    }

    #[test]
    fn concurrent_failures_produce_exactly_one_opened_transition() {
        let b = std::sync::Arc::new(CircuitBreaker::new(&GuardPolicy {
            quarantine_threshold: 64,
            cooldown_calls: 1_000_000,
            ..GuardPolicy::default()
        }));
        let opened = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                let opened = opened.clone();
                s.spawn(move || {
                    for _ in 0..64 {
                        if b.on_failure() == Some(Transition::Opened) {
                            opened.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 512 failures against threshold 64: the breaker opened exactly
        // once (further failures hit the Open arm, a no-op).
        assert_eq!(opened.load(Ordering::Relaxed), 1);
        assert!(b.is_quarantined());
    }
}

//! Seeded fault injection for the simulated device.
//!
//! A [`FaultPlan`] makes the simulator misbehave *reproducibly*: every
//! launch draws its fate from a [`SplitMix64`] stream
//! keyed on `(plan seed, device seed, kernel name, launch index)`, so a
//! given plan produces the same failures, slowdowns and corruptions on
//! every run — chaos tests such as the root `tests/guard_chaos.rs` assert
//! on exact outcomes. The fault stream is independent of the measurement
//! noise stream: installing a plan whose probabilities are all zero
//! leaves launch timings bit-identical to an uninstalled plan.
//!
//! Three fault classes model what a production tuning service sees:
//!
//! * **Launch failure** — the launch panics (a lost kernel / driver
//!   error). The panic payload starts with [`INJECTED_PANIC_PREFIX`] so
//!   resilient dispatch layers (`nitro-guard`) can recognise it, and
//!   [`silence_injected_panics`] can keep it out of test output.
//! * **Transient slowdown** — the launch completes but its elapsed time
//!   is multiplied by `slowdown_factor` (an interfering tenant, thermal
//!   throttling).
//! * **Result corruption** — the launch reports NaN elapsed time and
//!   energy (a silently-bad measurement); downstream layers treat a
//!   non-finite objective as a failed variant execution.
//!
//! Plans install either per-device
//! ([`Gpu::with_fault_plan`](crate::Gpu::with_fault_plan)) or process-globally
//! ([`install_fault_plan`]), mirroring `nitro_trace::install_global` —
//! the benchmark substrates construct their `Gpu`s internally, so a
//! global slot is the only hook a harness has.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};

use serde::{Deserialize, Serialize};

use crate::noise::SplitMix64;

/// Prefix shared by every injected panic payload (launch failures here,
/// variant-level chaos decorators elsewhere). [`silence_injected_panics`]
/// filters panics whose message starts with this.
pub const INJECTED_PANIC_PREFIX: &str = "injected ";

/// What a fault plan decided for one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOutcome {
    /// The launch proceeds normally.
    None,
    /// The launch panics with an `injected launch failure` payload.
    Fail,
    /// The launch completes, its busy time multiplied by the factor.
    Slow(f64),
    /// The launch completes but reports NaN elapsed time and energy.
    Corrupt,
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every per-launch fault draw.
    pub seed: u64,
    /// Probability a launch fails (panics) outright.
    pub launch_failure_prob: f64,
    /// Probability a surviving launch is transiently slowed.
    pub slowdown_prob: f64,
    /// Busy-time multiplier applied to slowed launches (≥ 1).
    pub slowdown_factor: f64,
    /// Probability a surviving launch reports corrupted (NaN) results.
    pub corruption_prob: f64,
    /// Kernels (by exact name) whose every launch fails, regardless of
    /// probability — models a variant that is broken outright.
    pub fail_kernels: Vec<String>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            launch_failure_prob: 0.0,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
            corruption_prob: 0.0,
            fail_kernels: Vec::new(),
        }
    }
}

/// FNV-1a over the kernel name: a stable, dependency-free string hash so
/// fault draws decorrelate across kernels.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultPlan {
    /// A plan with only a launch-failure probability set.
    pub fn with_failure_prob(seed: u64, p: f64) -> Self {
        Self {
            seed,
            launch_failure_prob: p,
            ..Self::default()
        }
    }

    /// Validate the plan's numeric fields. Returns one human-readable
    /// finding per violation; an empty vector means the plan is sound.
    /// (`nitro-guard` maps these to `NITRO052` diagnostics.)
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut check_prob = |name: &str, p: f64| {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                problems.push(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        };
        check_prob("launch_failure_prob", self.launch_failure_prob);
        check_prob("slowdown_prob", self.slowdown_prob);
        check_prob("corruption_prob", self.corruption_prob);
        if !self.slowdown_factor.is_finite() || self.slowdown_factor <= 0.0 {
            problems.push(format!(
                "slowdown_factor must be a positive finite multiplier, got {}",
                self.slowdown_factor
            ));
        }
        problems
    }

    /// Decide the fate of one launch. Deterministic in
    /// `(self.seed, gpu_seed, kernel, launch_index)`; independent draws
    /// per fault class so enabling one class never shifts another.
    pub fn decide(&self, gpu_seed: u64, kernel: &str, launch_index: u64) -> FaultOutcome {
        if self.fail_kernels.iter().any(|k| k == kernel) {
            return FaultOutcome::Fail;
        }
        if self.launch_failure_prob <= 0.0
            && self.slowdown_prob <= 0.0
            && self.corruption_prob <= 0.0
        {
            return FaultOutcome::None;
        }
        let mut rng = SplitMix64::new(
            self.seed
                ^ gpu_seed.rotate_left(17)
                ^ fnv1a(kernel)
                ^ launch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let (fail, corrupt, slow) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
        if fail < self.launch_failure_prob {
            FaultOutcome::Fail
        } else if corrupt < self.corruption_prob {
            FaultOutcome::Corrupt
        } else if slow < self.slowdown_prob {
            FaultOutcome::Slow(self.slowdown_factor)
        } else {
            FaultOutcome::None
        }
    }
}

// --------------------------------------------------------------------
// Process-global plan slot (mirrors nitro_trace's global tracer slot).
// --------------------------------------------------------------------

static PLAN_INSTALLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Install a process-global fault plan: every `Gpu` without a per-device
/// plan consults it. Replaces any previous plan.
pub fn install_fault_plan(plan: FaultPlan) {
    *GLOBAL_PLAN.lock().expect("global fault plan lock") = Some(Arc::new(plan));
    PLAN_INSTALLED.store(true, Ordering::Release);
}

/// Remove the global fault plan, returning it if one was installed.
pub fn uninstall_fault_plan() -> Option<Arc<FaultPlan>> {
    PLAN_INSTALLED.store(false, Ordering::Release);
    GLOBAL_PLAN.lock().expect("global fault plan lock").take()
}

/// The installed global fault plan, if any. One atomic load on the
/// (common) uninstalled path, so fault-free launches pay ~nothing.
pub fn fault_plan() -> Option<Arc<FaultPlan>> {
    if !PLAN_INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL_PLAN.lock().expect("global fault plan lock").clone()
}

/// Install a panic hook that swallows injected-fault panics (payloads
/// starting with [`INJECTED_PANIC_PREFIX`]) and forwards everything else
/// to the previous hook. Idempotent; chaos harnesses call it once so a
/// 5%-failure plan doesn't spray hundreds of backtraces into CI logs.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for i in 0..1000 {
            assert_eq!(plan.decide(7, "k", i), FaultOutcome::None);
        }
        assert!(plan.validate().is_empty());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            launch_failure_prob: 0.05,
            slowdown_prob: 0.1,
            slowdown_factor: 3.0,
            corruption_prob: 0.02,
            ..FaultPlan::default()
        };
        for i in 0..500 {
            assert_eq!(plan.decide(9, "spmv", i), plan.decide(9, "spmv", i));
        }
    }

    #[test]
    fn failure_rate_tracks_probability() {
        let plan = FaultPlan::with_failure_prob(1, 0.05);
        let fails = (0..10_000)
            .filter(|&i| plan.decide(3, "k", i) == FaultOutcome::Fail)
            .count();
        // 5% ± generous slack on 10k draws.
        assert!((300..=700).contains(&fails), "fails {fails}");
    }

    #[test]
    fn kernels_and_devices_decorrelate() {
        let plan = FaultPlan::with_failure_prob(1, 0.5);
        let pattern = |gpu: u64, kernel: &str| -> Vec<bool> {
            (0..64)
                .map(|i| plan.decide(gpu, kernel, i) == FaultOutcome::Fail)
                .collect()
        };
        assert_ne!(pattern(1, "a"), pattern(1, "b"));
        assert_ne!(pattern(1, "a"), pattern(2, "a"));
    }

    #[test]
    fn fail_kernels_always_fail() {
        let plan = FaultPlan {
            fail_kernels: vec!["victim".into()],
            ..FaultPlan::default()
        };
        for i in 0..100 {
            assert_eq!(plan.decide(0, "victim", i), FaultOutcome::Fail);
            assert_eq!(plan.decide(0, "victim_tx", i), FaultOutcome::None);
        }
    }

    #[test]
    fn validate_flags_bad_probabilities_and_factor() {
        let plan = FaultPlan {
            launch_failure_prob: 1.5,
            slowdown_prob: -0.1,
            corruption_prob: f64::NAN,
            slowdown_factor: 0.0,
            ..FaultPlan::default()
        };
        let problems = plan.validate();
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    #[test]
    fn global_slot_installs_and_uninstalls() {
        // Other tests share the process-global slot, so keep this one
        // self-contained: install, observe, uninstall.
        install_fault_plan(FaultPlan::with_failure_prob(5, 0.25));
        let seen = fault_plan().expect("installed");
        assert_eq!(seen.launch_failure_prob, 0.25);
        let taken = uninstall_fault_plan().expect("taken");
        assert_eq!(taken.seed, 5);
    }
}

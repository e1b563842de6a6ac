//! Chaos decorators and whole-stack fault campaigns.
//!
//! [`ChaosVariant`] wraps an existing [`Variant`] and panics with an
//! `"injected variant failure"` payload while its shared flag is set,
//! delegating to the inner variant otherwise. Combined with
//! [`CodeVariant::replace_variant`](nitro_core::CodeVariant::replace_variant)
//! this sabotages a variant *in place* — same index, same name — so
//! chaos harnesses exercise the guard layer without touching the suite's
//! kernels or models. The payload carries
//! [`nitro_simt::INJECTED_PANIC_PREFIX`], so
//! [`nitro_simt::silence_injected_panics`] suppresses the hook spam.
//!
//! [`ChaosPlan`] composes every fault layer the stack knows into one
//! declarative, one-seed campaign: simulator launch faults
//! ([`nitro_simt::FaultPlan`]), filesystem faults
//! ([`nitro_core::ChaosFs`]), shard kills, poison-pill requests, clock
//! skew jumps and alert storms. Everything the plan schedules is a pure
//! function of its seed, so a campaign replays exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nitro_core::{mix64, ChaosFs, CodeVariant, Result, Variant};
use serde::{Deserialize, Serialize};

/// A variant that fails (panics) while its flag is raised.
pub struct ChaosVariant<I: ?Sized> {
    inner: Arc<dyn Variant<I>>,
    failing: Arc<AtomicBool>,
}

impl<I: ?Sized> ChaosVariant<I> {
    /// Wrap `inner`, failing whenever `failing` is `true`.
    pub fn new(inner: Arc<dyn Variant<I>>, failing: Arc<AtomicBool>) -> Self {
        Self { inner, failing }
    }

    /// Wrap `inner` with the flag permanently raised.
    pub fn always_failing(inner: Arc<dyn Variant<I>>) -> Self {
        Self::new(inner, Arc::new(AtomicBool::new(true)))
    }

    /// The shared outage flag (store `false` to end the outage).
    pub fn flag(&self) -> Arc<AtomicBool> {
        self.failing.clone()
    }
}

impl<I: ?Sized> Variant<I> for ChaosVariant<I> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invoke(&self, input: &I) -> f64 {
        if self.failing.load(Ordering::Relaxed) {
            panic!("injected variant failure: '{}'", self.inner.name());
        }
        self.inner.invoke(input)
    }
}

/// Sabotage one variant of a code variant in place: the slot at `index`
/// is replaced with a [`ChaosVariant`] wrapping the original. Returns
/// the shared outage flag, initially set to `failing`.
pub fn inject_failures<I: ?Sized + 'static>(
    cv: &mut CodeVariant<I>,
    index: usize,
    failing: bool,
) -> Result<Arc<AtomicBool>> {
    let flag = Arc::new(AtomicBool::new(failing));
    let original = cv
        .variant(index)
        .ok_or(nitro_core::NitroError::InvalidIndex {
            what: "variant",
            index,
            len: cv.n_variants(),
        })?;
    cv.replace_variant(index, Arc::new(ChaosVariant::new(original, flag.clone())))?;
    Ok(flag)
}

/// A declarative whole-stack chaos campaign: per-layer fault schedules
/// composed from one seed.
///
/// The plan is plain data (serde-serializable — a campaign *is* its
/// JSON) and every derived schedule is a pure function of
/// [`seed`](ChaosPlan::seed), so the same plan driven over the same request
/// sequence replays the same faults:
///
/// * **launch faults** — [`ChaosPlan::fault_plan`] yields the
///   [`nitro_simt::FaultPlan`] for the simulator seam;
/// * **fs faults** — [`ChaosPlan::fs_policy`] yields the seeded
///   [`ChaosFs`] for the store/WAL seam;
/// * **shard kills / poison pills** — request indices at which the
///   driver submits a shard-killing (once) or poison-pill (repeatedly
///   killing) request;
/// * **clock skew** — `(request index, jump ns)` pairs where the
///   serving clock lurches forward;
/// * **alert storms** — `(request index, pages)` pairs where a burst of
///   operator pages hits the admission tightener.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Master seed every sub-schedule derives from.
    pub seed: u64,
    /// Requests the campaign spans (event indices fall in `0..requests`).
    pub requests: u64,
    /// Probability a simulator launch fails outright.
    pub launch_failure_prob: f64,
    /// Probability a surviving launch is transiently slowed.
    pub slowdown_prob: f64,
    /// Per-op probability of a torn (crash mid-write) filesystem write.
    pub fs_torn_write: f64,
    /// Per-op probability of an `ENOSPC`-shaped write failure.
    pub fs_no_space: f64,
    /// Per-op probability of an `EIO`-shaped read failure.
    pub fs_read_error: f64,
    /// Per-op probability of a failed visibility rename.
    pub fs_rename_failed: f64,
    /// Request indices at which a shard-killing request is submitted.
    pub shard_kills: Vec<u64>,
    /// Request indices at which a poison-pill request is submitted.
    pub poison_pills: Vec<u64>,
    /// `(request index, jump ns)`: the serving clock skews forward.
    pub clock_skew: Vec<(u64, u64)>,
    /// `(request index, pages)`: a burst of operator pages arrives.
    pub alert_storms: Vec<(u64, u32)>,
}

impl ChaosPlan {
    /// A quiet plan (no faults anywhere) spanning `requests` requests.
    pub fn quiet(seed: u64, requests: u64) -> Self {
        Self {
            seed,
            requests,
            launch_failure_prob: 0.0,
            slowdown_prob: 0.0,
            fs_torn_write: 0.0,
            fs_no_space: 0.0,
            fs_read_error: 0.0,
            fs_rename_failed: 0.0,
            shard_kills: Vec::new(),
            poison_pills: Vec::new(),
            clock_skew: Vec::new(),
            alert_storms: Vec::new(),
        }
    }

    /// Derive a full multi-layer campaign from one seed: moderate fault
    /// probabilities on every layer plus seeded kill/poison/skew/storm
    /// events spread over the middle of the request sequence (the edges
    /// are left quiet so warmup and drain stay observable). Pure: the
    /// same `(seed, requests)` always builds the same plan.
    pub fn from_seed(seed: u64, requests: u64) -> Self {
        let sub = |lane: u64| mix64(seed ^ mix64(lane));
        let frac = |lane: u64| (sub(lane) >> 11) as f64 / (1u64 << 53) as f64;
        // Event indices land in the middle 60 % of the sequence.
        let span = requests.max(10);
        let lo = span / 5;
        let window = span - 2 * lo;
        let at = |lane: u64, i: u64| lo + sub(lane ^ (i << 32)) % window.max(1);
        let mut shard_kills: Vec<u64> = (0..2 + sub(1) % 2).map(|i| at(2, i)).collect();
        shard_kills.sort_unstable();
        shard_kills.dedup();
        Self {
            seed,
            requests,
            launch_failure_prob: 0.02 + 0.06 * frac(3),
            slowdown_prob: 0.05 * frac(4),
            fs_torn_write: 0.05 + 0.15 * frac(5),
            fs_no_space: 0.05 + 0.15 * frac(6),
            fs_read_error: 0.05 + 0.10 * frac(7),
            fs_rename_failed: 0.05 + 0.15 * frac(8),
            shard_kills,
            poison_pills: vec![at(9, 0)],
            clock_skew: vec![(at(10, 0), 1_000_000 + sub(11) % 50_000_000)],
            alert_storms: vec![(at(12, 0), 3 + (sub(13) % 5) as u32)],
        }
    }

    /// The simulator fault plan this campaign injects at the launch
    /// boundary (seeded from a dedicated lane of the master seed).
    pub fn fault_plan(&self) -> nitro_simt::FaultPlan {
        nitro_simt::FaultPlan {
            seed: mix64(self.seed ^ mix64(0x1A0C)),
            launch_failure_prob: self.launch_failure_prob,
            slowdown_prob: self.slowdown_prob,
            slowdown_factor: 3.0,
            ..nitro_simt::FaultPlan::default()
        }
    }

    /// The seeded filesystem fault policy this campaign injects under
    /// the store and WAL (a fresh instance each call: op indices start
    /// at zero, so one campaign = one policy instance).
    pub fn fs_policy(&self) -> ChaosFs {
        ChaosFs::with_probs(
            mix64(self.seed ^ mix64(0xF5F5)),
            self.fs_torn_write,
            self.fs_no_space,
            self.fs_read_error,
            self.fs_rename_failed,
        )
    }

    /// True when request `index` is scheduled to kill its shard once.
    pub fn kills_at(&self, index: u64) -> bool {
        self.shard_kills.contains(&index)
    }

    /// True when request `index` is a scheduled poison pill.
    pub fn poison_at(&self, index: u64) -> bool {
        self.poison_pills.contains(&index)
    }

    /// The clock-skew jump scheduled at request `index`, if any.
    pub fn skew_at(&self, index: u64) -> Option<u64> {
        self.clock_skew
            .iter()
            .find(|(i, _)| *i == index)
            .map(|&(_, ns)| ns)
    }

    /// The alert-storm page count scheduled at request `index`, if any.
    pub fn storm_at(&self, index: u64) -> Option<u32> {
        self.alert_storms
            .iter()
            .find(|(i, _)| *i == index)
            .map(|&(_, pages)| pages)
    }

    /// The fault classes this plan actually exercises (for reports).
    pub fn fault_classes(&self) -> Vec<&'static str> {
        let mut classes = Vec::new();
        if self.launch_failure_prob > 0.0 || self.slowdown_prob > 0.0 {
            classes.push("launch");
        }
        if self.fs_torn_write > 0.0
            || self.fs_no_space > 0.0
            || self.fs_read_error > 0.0
            || self.fs_rename_failed > 0.0
        {
            classes.push("fs");
        }
        if !self.shard_kills.is_empty() {
            classes.push("shard-kill");
        }
        if !self.poison_pills.is_empty() {
            classes.push("poison-pill");
        }
        if !self.clock_skew.is_empty() {
            classes.push("clock-skew");
        }
        if !self.alert_storms.is_empty() {
            classes.push("alert-storm");
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnVariant};

    #[test]
    fn chaos_variant_keeps_the_inner_name_and_toggles() {
        nitro_simt::silence_injected_panics();
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("toy", &ctx);
        cv.add_variant(FnVariant::new("steady", |&x: &f64| x * 2.0));
        let flag = inject_failures(&mut cv, 0, true).unwrap();
        assert_eq!(cv.variant(0).unwrap().name(), "steady");
        assert!(cv.try_run_variant(0, &3.0).is_err());
        flag.store(false, Ordering::Relaxed);
        assert_eq!(cv.try_run_variant(0, &3.0).unwrap(), 6.0);
    }

    #[test]
    fn injecting_out_of_range_is_a_typed_error() {
        let ctx = Context::new();
        let mut cv = CodeVariant::<f64>::new("toy", &ctx);
        assert!(inject_failures(&mut cv, 0, true).is_err());
    }

    #[test]
    fn chaos_plan_is_a_pure_function_of_its_seed() {
        let a = ChaosPlan::from_seed(42, 1_000);
        let b = ChaosPlan::from_seed(42, 1_000);
        assert_eq!(a, b);
        let c = ChaosPlan::from_seed(43, 1_000);
        assert_ne!(a, c, "a different seed must build a different plan");
        // Every scheduled event lands inside the request sequence.
        for &i in a.shard_kills.iter().chain(&a.poison_pills) {
            assert!(i < 1_000, "event index {i} out of range");
        }
        for &(i, _) in a.clock_skew.iter() {
            assert!(i < 1_000);
        }
        for &(i, _) in a.alert_storms.iter() {
            assert!(i < 1_000);
        }
        // A full from_seed campaign exercises every fault class.
        let classes = a.fault_classes();
        for expected in [
            "launch",
            "fs",
            "shard-kill",
            "poison-pill",
            "clock-skew",
            "alert-storm",
        ] {
            assert!(classes.contains(&expected), "missing {expected}");
        }
        assert!(ChaosPlan::quiet(42, 10).fault_classes().is_empty());
    }

    #[test]
    fn chaos_plan_sub_policies_replay_under_the_same_seed() {
        use nitro_core::{FsOp, FsPolicy};
        let plan = ChaosPlan::from_seed(7, 500);
        assert_eq!(plan.fault_plan(), ChaosPlan::from_seed(7, 500).fault_plan());
        let (fs_a, fs_b) = (plan.fs_policy(), plan.fs_policy());
        let path = std::path::Path::new("store/manifest.json");
        for i in 0..128 {
            let op = match i % 3 {
                0 => FsOp::Read,
                1 => FsOp::Write,
                _ => FsOp::Rename,
            };
            assert_eq!(fs_a.fault(op, path), fs_b.fault(op, path), "op {i}");
        }
        // The event accessors agree with the schedule vectors.
        let kill = plan.shard_kills[0];
        assert!(plan.kills_at(kill));
        assert!(!plan.kills_at(plan.requests + 1));
        let (skew_at, skew_ns) = plan.clock_skew[0];
        assert_eq!(plan.skew_at(skew_at), Some(skew_ns));
        let (storm_at, pages) = plan.alert_storms[0];
        assert_eq!(plan.storm_at(storm_at), Some(pages));
        // A plan round-trips through its JSON form (a campaign is data).
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<ChaosPlan>(&json).unwrap(), plan);
    }
}

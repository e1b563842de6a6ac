//! The simulated device: kernel launches, block scheduling and timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::block::BlockCtx;
use crate::cache::TexCache;
use crate::config::DeviceConfig;
use crate::fault::{FaultOutcome, FaultPlan};
use crate::noise::SplitMix64;
use crate::stats::{KernelTally, LaunchStats};

/// How thread blocks are placed onto SMs.
///
/// The paper's CUB histogram variants come in "Even-Share" and "Dynamic"
/// grid-mapping flavours; this enum models exactly that distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Blocks are pre-assigned round-robin: block `i` runs on SM
    /// `i % num_sms`. Cheap, but skewed per-block work produces imbalance.
    EvenShare,
    /// Work-queue scheduling: each block goes to the currently
    /// least-loaded SM, absorbing skew at a small per-block dispatch cost.
    Dynamic,
}

/// Extra dispatch cycles per block under [`Schedule::Dynamic`] (queue pop).
const DYNAMIC_DISPATCH_CYCLES: f64 = 40.0;

/// A simulated GPU. Cheap to construct; `launch` is `&self`, so one device
/// can be shared across a profiling sweep (an internal counter decorrelates
/// the per-launch noise).
#[derive(Debug)]
pub struct Gpu {
    cfg: DeviceConfig,
    seed: u64,
    launch_counter: AtomicU64,
    fault_plan: Option<Arc<FaultPlan>>,
    fault_exempt: bool,
}

impl Gpu {
    /// Create a device with the given configuration and a fixed noise seed.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self::with_seed(cfg, 0x5EED_CAFE)
    }

    /// Create a device with an explicit noise seed, for reproducible
    /// experiment sweeps.
    pub fn with_seed(cfg: DeviceConfig, seed: u64) -> Self {
        Self {
            cfg,
            seed,
            launch_counter: AtomicU64::new(0),
            fault_plan: None,
            fault_exempt: false,
        }
    }

    /// Attach a per-device fault plan, overriding any process-global plan
    /// installed via [`crate::fault::install_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Opt this device out of fault injection entirely (per-device and
    /// process-global plans alike).
    ///
    /// Meant for *cost probes*: launches a substrate issues purely to
    /// price sub-kernel work that is not a real launch boundary — e.g.
    /// the per-level segments of a fused BFS, which on hardware run
    /// inside one kernel separated by global barriers. Fault plans model
    /// events at launch boundaries, so such probes must not roll the
    /// fault dice; the caller accounts real launches separately.
    pub fn fault_exempt(mut self) -> Self {
        self.fault_exempt = true;
        self
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Simulate one kernel launch of `blocks` thread blocks.
    ///
    /// `body` is invoked once per block with that block's index and a fresh
    /// cost-accounting [`BlockCtx`]; it performs the kernel's *functional*
    /// work on the CPU while charging simulated costs. The launch time is
    ///
    /// ```text
    /// overhead + noise * max( busiest-SM time, total DRAM bytes / bandwidth )
    /// ```
    ///
    /// where blocks are placed on SMs according to `schedule`.
    pub fn launch<F>(
        &self,
        kernel: &str,
        blocks: usize,
        schedule: Schedule,
        mut body: F,
    ) -> LaunchStats
    where
        F: FnMut(usize, &mut BlockCtx),
    {
        // One index drives both the noise stream and the fault stream, so
        // fault decisions never perturb timings (and vice versa).
        let idx = self.launch_counter.fetch_add(1, Ordering::Relaxed);
        let fault = if self.fault_exempt {
            FaultOutcome::None
        } else {
            match self.fault_plan.clone().or_else(crate::fault::fault_plan) {
                Some(plan) => plan.decide(self.seed, kernel, idx),
                None => FaultOutcome::None,
            }
        };
        if fault == FaultOutcome::Fail {
            if let Some(tracer) = nitro_trace::global() {
                let m = tracer.metrics();
                m.counter("simt.fault.failures").inc();
                m.counter(&format!("simt.fault.kernel.{kernel}.failures"))
                    .inc();
            }
            // The body never runs: a failed launch leaves the caller's
            // data untouched, like a lost kernel on real hardware.
            panic!("injected launch failure: kernel '{kernel}' (launch {idx})");
        }

        let mut tex = TexCache::new(
            self.cfg.tex_cache_bytes,
            self.cfg.tex_line_bytes,
            self.cfg.tex_assoc,
        );
        let mut block_ns = Vec::with_capacity(blocks);
        let mut tally = KernelTally::default();
        let cycle_ns = self.cfg.cycle_ns();

        let mut ctx = BlockCtx::new(&self.cfg, &mut tex);
        for b in 0..blocks {
            body(b, &mut ctx);
            let t = ctx.take_tally();
            let mut cycles = t.work_cycles();
            if schedule == Schedule::Dynamic {
                cycles += DYNAMIC_DISPATCH_CYCLES;
            }
            block_ns.push(cycles * cycle_ns);
            tally.merge(&t);
        }

        let (sm_time, imbalance) = self.schedule_blocks(&block_ns, schedule);
        let mem_time = self.cfg.dram_ns(tally.dram_bytes);
        let bandwidth_bound = mem_time > sm_time;
        let busy = sm_time.max(mem_time);

        let noise = SplitMix64::new(self.seed ^ idx.wrapping_mul(0x9E37_79B9))
            .noise_factor(self.cfg.noise_rel_sigma);

        // A transient slowdown stretches the busy time; overhead is fixed.
        let slow = match fault {
            FaultOutcome::Slow(factor) => factor,
            _ => 1.0,
        };
        let mut elapsed_ns = self.cfg.launch_overhead_ns + busy * noise * slow;
        // Energy: DRAM pin energy + dynamic SM energy + static power over
        // the launch duration (1 W × 1 ns = 1 nJ). Dynamic energy charges
        // work cycles only; overhead time is covered by the static floor.
        let mut energy_nj = tally.dram_bytes * self.cfg.pj_per_dram_byte / 1000.0
            + tally.work_cycles() * self.cfg.pj_per_cycle / 1000.0
            + elapsed_ns * self.cfg.static_watts;

        match fault {
            FaultOutcome::Slow(_) => {
                if let Some(tracer) = nitro_trace::global() {
                    tracer.metrics().counter("simt.fault.slowdowns").inc();
                }
            }
            FaultOutcome::Corrupt => {
                // A corrupted measurement: the work happened but the
                // reported numbers are garbage. NaN propagates into any
                // objective built on them, which resilient dispatch
                // layers treat as a failed execution.
                elapsed_ns = f64::NAN;
                energy_nj = f64::NAN;
                if let Some(tracer) = nitro_trace::global() {
                    tracer.metrics().counter("simt.fault.corruptions").inc();
                }
            }
            _ => {}
        }

        // Attribute the fixed launch overhead to the tally so cumulative
        // (merged) tallies account for the same cycles the elapsed-time
        // model charged.
        if cycle_ns > 0.0 {
            tally.launch_cycles = self.cfg.launch_overhead_ns / cycle_ns;
        }

        let stats = LaunchStats {
            kernel: kernel.to_string(),
            blocks,
            elapsed_ns,
            imbalance,
            bandwidth_bound,
            energy_nj,
            tally,
        };

        if let Some(tracer) = nitro_trace::global() {
            self.emit_launch_trace(&tracer, &stats);
        }

        stats
    }

    /// Emit one instant event + metrics for a completed launch into the
    /// process-global tracer (substrates construct their `Gpu`s
    /// internally, so the simulator layer cannot be handed a `Context`).
    fn emit_launch_trace(&self, tracer: &nitro_trace::Tracer, stats: &LaunchStats) {
        use nitro_trace::arg;
        let t = &stats.tally;
        tracer.instant(
            &format!("launch:{}", stats.kernel),
            "simt",
            vec![
                arg("blocks", &stats.blocks),
                arg("elapsed_ns", &stats.elapsed_ns),
                arg("energy_nj", &stats.energy_nj),
                arg("imbalance", &stats.imbalance),
                arg("bandwidth_bound", &stats.bandwidth_bound),
                arg("transactions", &t.transactions),
                arg("dram_bytes", &t.dram_bytes),
                arg("tex_hits", &t.tex_hits),
                arg("tex_misses", &t.tex_misses),
                arg("atomic_cycles", &t.atomic_cycles),
                arg("compute_cycles", &t.compute_cycles),
                arg("memory_cycles", &t.memory_cycles),
                arg("launch_cycles", &t.launch_cycles),
            ],
        );
        let m = tracer.metrics();
        m.counter("simt.launches").inc();
        m.counter(&format!("simt.kernel.{}.launches", stats.kernel))
            .inc();
        m.sketch("simt.launch.elapsed_ns").record(stats.elapsed_ns);
        m.sketch("simt.launch.dram_bytes").record(t.dram_bytes);
    }

    /// Place per-block times onto SMs; returns (busiest SM time, imbalance).
    fn schedule_blocks(&self, block_ns: &[f64], schedule: Schedule) -> (f64, f64) {
        let sms = self.cfg.num_sms.max(1);
        let mut load = vec![0.0f64; sms];
        match schedule {
            Schedule::EvenShare => {
                for (i, &t) in block_ns.iter().enumerate() {
                    load[i % sms] += t;
                }
            }
            Schedule::Dynamic => {
                for &t in block_ns {
                    // Greedy: next block to the least-loaded SM.
                    let (min_idx, _) = load
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .expect("at least one SM");
                    load[min_idx] += t;
                }
            }
        }
        let max = load.iter().cloned().fold(0.0, f64::max);
        let mean = load.iter().sum::<f64>() / sms as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        (max, imbalance)
    }
}

/// Accumulates the launches making up one *variant execution* — e.g. an
/// iterative BFS that launches one kernel per frontier level, or a radix
/// sort that launches one kernel per digit pass.
#[derive(Debug)]
pub struct Session<'a> {
    gpu: &'a Gpu,
    elapsed_ns: f64,
    energy_nj: f64,
    launches: usize,
    tally: KernelTally,
}

impl<'a> Session<'a> {
    /// Start a session on the given device.
    pub fn new(gpu: &'a Gpu) -> Self {
        Self {
            gpu,
            elapsed_ns: 0.0,
            energy_nj: 0.0,
            launches: 0,
            tally: KernelTally::default(),
        }
    }

    /// Launch a kernel and fold its time into the session.
    pub fn launch<F>(
        &mut self,
        kernel: &str,
        blocks: usize,
        schedule: Schedule,
        body: F,
    ) -> LaunchStats
    where
        F: FnMut(usize, &mut BlockCtx),
    {
        let stats = self.gpu.launch(kernel, blocks, schedule, body);
        self.elapsed_ns += stats.elapsed_ns;
        self.energy_nj += stats.energy_nj;
        self.launches += 1;
        self.tally.merge(&stats.tally);
        stats
    }

    /// Charge host-side time between launches (e.g. a host-device sync or a
    /// frontier-size readback), in nanoseconds.
    pub fn host_ns(&mut self, ns: f64) {
        self.elapsed_ns += ns;
    }

    /// Total simulated nanoseconds across all launches so far.
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Total estimated nanojoules across all launches so far.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// Number of kernel launches folded into this session.
    pub fn launches(&self) -> usize {
        self.launches
    }

    /// Merged activity counters across the session.
    pub fn tally(&self) -> &KernelTally {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_gpu() -> Gpu {
        Gpu::new(DeviceConfig::fermi_c2050().noiseless())
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let gpu = quiet_gpu();
        let s = gpu.launch("nop", 0, Schedule::EvenShare, |_, _| {});
        assert_eq!(s.elapsed_ns, gpu.config().launch_overhead_ns);
        assert_eq!(s.blocks, 0);
    }

    #[test]
    fn more_work_takes_longer() {
        let gpu = quiet_gpu();
        let small = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1_000.0)
        });
        let big = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(100_000.0)
        });
        assert!(big.elapsed_ns > small.elapsed_ns);
    }

    #[test]
    fn perfectly_parallel_blocks_scale_across_sms() {
        let gpu = quiet_gpu();
        let sms = gpu.config().num_sms;
        // One block per SM: elapsed ≈ overhead + one block's time.
        let one_wave = gpu.launch("k", sms, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(10_000.0)
        });
        // Two blocks per SM: twice the busy time.
        let two_waves = gpu.launch("k", 2 * sms, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(10_000.0)
        });
        let busy1 = one_wave.elapsed_ns - gpu.config().launch_overhead_ns;
        let busy2 = two_waves.elapsed_ns - gpu.config().launch_overhead_ns;
        assert!((busy2 / busy1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_scheduling_absorbs_skew() {
        let gpu = quiet_gpu();
        let sms = gpu.config().num_sms;
        // Heavily skewed block costs landing on the same SM under round-robin:
        // every block with index % sms == 0 is 50x heavier.
        let cost = move |b: usize| {
            if b.is_multiple_of(sms) {
                500_000.0
            } else {
                10_000.0
            }
        };
        let es = gpu.launch("k", 8 * sms, Schedule::EvenShare, |b, ctx| {
            ctx.charge_cycles(cost(b))
        });
        let dy = gpu.launch("k", 8 * sms, Schedule::Dynamic, |b, ctx| {
            ctx.charge_cycles(cost(b))
        });
        assert!(
            dy.elapsed_ns < es.elapsed_ns * 0.6,
            "dynamic {} vs even-share {}",
            dy.elapsed_ns,
            es.elapsed_ns
        );
        assert!(es.imbalance > dy.imbalance);
    }

    #[test]
    fn even_share_is_cheaper_on_uniform_work() {
        let gpu = quiet_gpu();
        let es = gpu.launch("k", 112, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(10_000.0)
        });
        let dy = gpu.launch("k", 112, Schedule::Dynamic, |_, ctx| {
            ctx.charge_cycles(10_000.0)
        });
        // Dynamic pays the dispatch cost and gains nothing on uniform work.
        assert!(dy.elapsed_ns >= es.elapsed_ns);
    }

    #[test]
    fn bandwidth_roofline_floors_streaming_kernels() {
        let gpu = quiet_gpu();
        // Move 1 GB with trivial compute: must be bandwidth bound, and the
        // elapsed time must be at least bytes / bandwidth.
        let bytes_per_block = 1e9 / 140.0;
        let s = gpu.launch("stream", 140, Schedule::EvenShare, |_, ctx| {
            ctx.bulk_mem(bytes_per_block, 1.0);
        });
        let floor = gpu.config().dram_ns(1e9);
        assert!(s.elapsed_ns >= floor);
    }

    #[test]
    fn noise_is_reproducible_per_device_seed() {
        let cfg = DeviceConfig::fermi_c2050(); // 2% noise
        let run = |seed| {
            let gpu = Gpu::with_seed(cfg.clone(), seed);
            let s = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(1e6)
            });
            s.elapsed_ns
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn launch_counter_decorrelates_repeat_launches() {
        let gpu = Gpu::new(DeviceConfig::fermi_c2050());
        let a = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e6)
        });
        let b = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e6)
        });
        assert_ne!(a.elapsed_ns, b.elapsed_ns);
    }

    #[test]
    fn energy_grows_with_traffic_and_time() {
        let gpu = quiet_gpu();
        let small = gpu.launch("e", 14, Schedule::EvenShare, |_, ctx| {
            ctx.bulk_mem(1e4, 1.0)
        });
        let big = gpu.launch("e", 14, Schedule::EvenShare, |_, ctx| {
            ctx.bulk_mem(1e6, 1.0)
        });
        assert!(big.energy_nj > small.energy_nj);
        // An empty launch still pays the static floor over its duration.
        let idle = gpu.launch("idle", 0, Schedule::EvenShare, |_, _| {});
        assert!(idle.energy_nj > 0.0);
        assert!(
            (idle.energy_nj - idle.elapsed_ns * gpu.config().static_watts).abs() < 1e-9,
            "an empty launch should cost exactly the static floor"
        );
    }

    #[test]
    fn wasted_traffic_costs_energy_even_when_time_hides_it() {
        // Compute-bound launches whose elapsed times are nearly equal but
        // whose DRAM traffic differs 100x: energy must still rank them.
        let gpu = quiet_gpu();
        let lean = gpu.launch("lean", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1_000_000.0);
            ctx.bulk_mem(1e3, 1.0);
        });
        let wasteful = gpu.launch("waste", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1_000_000.0);
            ctx.bulk_mem(1e3, 0.01); // 100x over-fetch
        });
        let time_gap = (wasteful.elapsed_ns - lean.elapsed_ns) / lean.elapsed_ns;
        assert!(time_gap < 0.05, "times should stay close (gap {time_gap})");
        assert!(
            wasteful.energy_nj > lean.energy_nj,
            "energy must expose the waste"
        );
    }

    #[test]
    fn session_accumulates_launches() {
        let gpu = quiet_gpu();
        let mut sess = Session::new(&gpu);
        sess.launch("a", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e4)
        });
        sess.launch("b", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e4)
        });
        sess.host_ns(123.0);
        assert_eq!(sess.launches(), 2);
        let expected_overheads = 2.0 * gpu.config().launch_overhead_ns;
        assert!(sess.elapsed_ns() > expected_overheads + 123.0);
    }

    #[test]
    fn launch_tally_carries_overhead_and_session_merge_agrees() {
        let gpu = quiet_gpu();
        let overhead_cycles = gpu.config().launch_overhead_ns / gpu.config().cycle_ns();
        let mut sess = Session::new(&gpu);
        let a = sess.launch("a", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e4)
        });
        let b = sess.launch("b", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(2e4)
        });
        assert!((a.tally.launch_cycles - overhead_cycles).abs() < 1e-9);
        // Satellite invariant: cumulative total equals sum of per-launch
        // totals — launch overhead is no longer dropped by merging.
        assert!(
            (sess.tally().total_cycles() - (a.tally.total_cycles() + b.tally.total_cycles())).abs()
                < 1e-9
        );
        assert!((sess.tally().launch_cycles - 2.0 * overhead_cycles).abs() < 1e-9);
    }

    #[test]
    fn global_tracer_sees_launch_events_and_metrics() {
        let sink = std::sync::Arc::new(nitro_trace::RingSink::new(256));
        let tracer = nitro_trace::Tracer::new(sink.clone());
        nitro_trace::install_global(tracer.clone());
        let gpu = quiet_gpu();
        gpu.launch("traced_kernel_xyz", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e4);
            ctx.bulk_mem(1e5, 1.0);
        });
        nitro_trace::uninstall_global();

        // The global slot is process-wide and other tests launch kernels
        // concurrently, so filter by our unique kernel name.
        let events = sink.snapshot();
        let ev = events
            .iter()
            .find(|e| e.name == "launch:traced_kernel_xyz")
            .expect("launch instant emitted");
        assert_eq!(ev.cat, "simt");
        let get = |k: &str| {
            ev.args
                .iter()
                .find(|(n, _)| n == k)
                .unwrap_or_else(|| panic!("arg {k}"))
                .1
                .clone()
        };
        assert!(get("elapsed_ns").as_f64().unwrap() > 0.0);
        assert!(get("dram_bytes").as_f64().unwrap() >= 1e5);
        assert!(get("launch_cycles").as_f64().unwrap() > 0.0);
        assert_eq!(
            tracer
                .metrics()
                .counter_value("simt.kernel.traced_kernel_xyz.launches"),
            Some(1)
        );
    }

    #[test]
    fn untraced_launch_matches_traced_launch_numbers() {
        // Tracing must observe, not perturb: identical seeds give
        // identical stats with and without a tracer installed.
        let run = || {
            let gpu = Gpu::with_seed(DeviceConfig::fermi_c2050(), 42);
            let s = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(1e6);
                ctx.bulk_mem(1e4, 0.5);
            });
            (s.elapsed_ns, s.energy_nj, s.tally)
        };
        let untraced = run();
        let sink = std::sync::Arc::new(nitro_trace::RingSink::new(16));
        nitro_trace::install_global(nitro_trace::Tracer::new(sink));
        let traced = run();
        nitro_trace::uninstall_global();
        assert_eq!(untraced, traced);
    }

    #[test]
    fn fault_plan_with_zero_probabilities_changes_nothing() {
        // Like tracing, fault injection must observe, not perturb: an
        // installed all-zero plan leaves timings bit-identical.
        let run = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::with_seed(DeviceConfig::fermi_c2050(), 42);
            if let Some(p) = plan {
                gpu = gpu.with_fault_plan(p);
            }
            let s = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(1e6);
                ctx.bulk_mem(1e4, 0.5);
            });
            (s.elapsed_ns, s.energy_nj)
        };
        assert_eq!(run(None), run(Some(FaultPlan::default())));
    }

    #[test]
    fn failing_kernel_panics_with_injected_payload() {
        crate::fault::silence_injected_panics();
        let gpu =
            Gpu::with_seed(DeviceConfig::fermi_c2050().noiseless(), 1).with_fault_plan(FaultPlan {
                fail_kernels: vec!["victim".into()],
                ..FaultPlan::default()
            });
        // Non-victim kernels are untouched.
        gpu.launch("fine", 1, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(10.0)
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch("victim", 1, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(10.0)
            })
        }))
        .expect_err("victim launch must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(
            msg.starts_with(crate::fault::INJECTED_PANIC_PREFIX),
            "{msg}"
        );
        assert!(msg.contains("victim"), "{msg}");
    }

    #[test]
    fn fault_exempt_devices_never_roll_the_dice() {
        // A cost-probe device ignores even a certain-failure plan.
        let gpu = Gpu::with_seed(DeviceConfig::fermi_c2050().noiseless(), 1)
            .with_fault_plan(FaultPlan::with_failure_prob(7, 1.0))
            .fault_exempt();
        for _ in 0..20 {
            gpu.launch("probe", 1, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(10.0)
            });
        }
    }

    #[test]
    fn slowdown_multiplies_busy_time_only() {
        let slow_plan = FaultPlan {
            slowdown_prob: 1.0,
            slowdown_factor: 4.0,
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| {
            let gpu =
                Gpu::with_seed(DeviceConfig::fermi_c2050().noiseless(), 3).with_fault_plan(plan);
            gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(1e6)
            })
            .elapsed_ns
        };
        let clean = run(FaultPlan::default());
        let slowed = run(slow_plan);
        let overhead = DeviceConfig::fermi_c2050().launch_overhead_ns;
        assert!(((slowed - overhead) / (clean - overhead) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn corruption_reports_nan_measurements() {
        let gpu =
            Gpu::with_seed(DeviceConfig::fermi_c2050().noiseless(), 3).with_fault_plan(FaultPlan {
                corruption_prob: 1.0,
                ..FaultPlan::default()
            });
        let s = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(1e6)
        });
        assert!(s.elapsed_ns.is_nan());
        assert!(s.energy_nj.is_nan());
    }

    #[test]
    fn injected_failures_are_deterministic_across_devices() {
        crate::fault::silence_injected_panics();
        let plan = FaultPlan::with_failure_prob(0xFA_17, 0.2);
        let pattern = || -> Vec<bool> {
            let gpu = Gpu::with_seed(DeviceConfig::fermi_c2050().noiseless(), 77)
                .with_fault_plan(plan.clone());
            (0..50)
                .map(|_| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        gpu.launch("k", 1, Schedule::EvenShare, |_, ctx| {
                            ctx.charge_cycles(10.0)
                        })
                    }))
                    .is_err()
                })
                .collect()
        };
        let a = pattern();
        assert_eq!(a, pattern());
        assert!(a.iter().any(|&f| f), "some launches fail");
        assert!(a.iter().any(|&f| !f), "some launches survive");
    }

    #[test]
    fn fused_beats_iterative_on_tiny_work() {
        // The launch-overhead effect behind Fused vs Iter BFS variants: many
        // tiny launches lose to one fused launch doing the same work.
        let gpu = quiet_gpu();
        let mut fused = Session::new(&gpu);
        fused.launch("fused", 14, Schedule::EvenShare, |_, ctx| {
            ctx.charge_cycles(10_000.0)
        });
        let mut iter = Session::new(&gpu);
        for _ in 0..20 {
            iter.launch("step", 14, Schedule::EvenShare, |_, ctx| {
                ctx.charge_cycles(500.0)
            });
        }
        assert!(fused.elapsed_ns() < iter.elapsed_ns());
    }
}

//! # nitro-simt — a warp-level SIMT GPU cost simulator
//!
//! The Nitro paper (IPDPS 2014) evaluates its autotuning framework on five
//! CUDA benchmarks running on an NVIDIA Tesla C2050. This crate substitutes
//! for that hardware: code variants execute *functionally* on the CPU (so
//! their results are real and testable) while charging their memory traffic,
//! divergence, atomics and launch behaviour to a simulated device. The
//! simulator then reports an elapsed time with the performance *structure*
//! of a Fermi-class GPU:
//!
//! * **Coalescing** — a warp-wide gather costs as many 128-byte transactions
//!   as distinct segments it touches ([`BlockCtx::warp_gather`]).
//! * **Divergence** — a warp-wide loop runs for the *longest* lane
//!   ([`BlockCtx::warp_loop`]).
//! * **Texture cache** — gathers routed through [`BlockCtx::tex_gather`] hit
//!   a small set-associative LRU cache, rewarding access locality.
//! * **Atomics** — same-address atomics within a warp serialize; global
//!   atomics additionally pay a device-wide contention penalty
//!   ([`BlockCtx::warp_atomic`]).
//! * **Scheduling** — thread blocks are placed on SMs either round-robin
//!   ("even share") or greedily ("dynamic"/work-queue), so skewed per-block
//!   work produces real load imbalance ([`Schedule`]).
//! * **Bandwidth roofline** — kernel time is floored by total DRAM bytes
//!   over device bandwidth.
//! * **Launch overhead** — every kernel launch pays a fixed cost, which is
//!   what distinguishes the paper's "Fused" from "Iterative" BFS variants.
//! * **Fault injection** — a seeded [`FaultPlan`] makes launches fail,
//!   slow down or corrupt their measurements *reproducibly* ([`fault`]),
//!   the substrate for the `nitro-guard` resilience layer's chaos tests.
//!
//! The model is deliberately analytic, not cycle-accurate: Nitro's
//! experiments only require that variant costs vary with input
//! *microstructure* in ways that are partially — but not fully — captured
//! by the features an expert registers with the tuner.
//!
//! ## Example
//!
//! ```
//! use nitro_simt::{DeviceConfig, Gpu, Schedule};
//!
//! let gpu = Gpu::new(DeviceConfig::fermi_c2050());
//! let data: Vec<u64> = (0..4096).collect();
//! let stats = gpu.launch("stream", data.len() / 256, Schedule::EvenShare, |block, ctx| {
//!     let base = block * 256;
//!     for warp in 0..8 {
//!         // A perfectly coalesced read: 32 consecutive u32 addresses.
//!         let addrs: Vec<u64> = (0..32).map(|l| ((base + warp * 32 + l) * 4) as u64).collect();
//!         ctx.warp_gather(&addrs, 4);
//!         ctx.charge_cycles(32.0);
//!     }
//! });
//! assert!(stats.elapsed_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod calibrate;
pub mod config;
pub mod fault;
pub mod gpu;
pub mod noise;
pub mod stats;

pub use block::BlockCtx;
pub use cache::TexCache;
pub use calibrate::{calibrate, Calibration};
pub use config::DeviceConfig;
pub use fault::{
    fault_plan, install_fault_plan, silence_injected_panics, uninstall_fault_plan, FaultOutcome,
    FaultPlan, INJECTED_PANIC_PREFIX,
};
pub use gpu::{Gpu, Schedule};
pub use noise::SplitMix64;
pub use stats::{KernelTally, LaunchStats};

/// Size in bytes of one global-memory transaction segment.
///
/// Fermi-class devices fetch global memory in 128-byte cache lines; a
/// warp-wide access costs one transaction per distinct segment touched.
pub const SEGMENT_BYTES: u64 = 128;

/// Number of threads in a warp. Fixed at 32 across every NVIDIA
/// architecture the paper considers.
pub const WARP_SIZE: usize = 32;

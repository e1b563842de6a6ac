//! # nitro-bench — experiment harnesses for every table and figure
//!
//! Each binary regenerates one piece of the paper's evaluation or checks
//! one guarantee of the framework. Those that cover all five benchmarks
//! take them from one roster, [`for_each_suite`]:
//!
//! | Binary | Paper artifact or guarantee |
//! |---|---|
//! | `fig4_inventory` | Figure 4 — benchmark/variant/feature inventory |
//! | `fig5_variants` | Figure 5 — per-variant average % of best + Nitro |
//! | `fig6_nitro` | Figure 6 — Nitro vs exhaustive search (+ solver convergence stats, §V-A) |
//! | `fig7_incremental` | Figure 7 — incremental-tuning performance vs iterations |
//! | `fig8_features` | Figure 8 — feature subsets: performance and evaluation overhead |
//! | `bfs_hybrid` | §V-A — Nitro-tuned BFS vs the dynamic Hybrid variant |
//! | `report` | Figures 5–6, §V-A solver convergence and per-suite macro-F1 as one markdown report |
//! | `device_characterization` | the simulated devices' effective rates (the testbed table) |
//! | `ablation_classifiers` | extension — SVM vs kNN vs decision tree vs forest across benchmarks |
//! | `ablation_devices` | extension — retuning SpMV for a different simulated device |
//! | `ablation_energy` | extension (§II-B) — tuning SpMV for energy instead of time |
//! | `ablation_unified_model` | extension (§VII) — one SpMV model across devices via device features |
//! | `ablation_block_size` | extension (§VII) — a block-size parameter as a variant family |
//! | `audit` | registration lint, artifact audit and profile analysis per suite (JSON + SARIF) |
//! | `trace_report` | traced tuning and dispatch per suite; validates the trace and metrics exports |
//! | `chaos_report` | guarded dispatch under injected faults: no panic escapes, quarantine, recovery |
//! | `lifecycle_report` | durable tuning, resume, versioned store, promotion and rollback |
//! | `pulse_report` | striped telemetry throughput, per-suite latency sketches, an SLO drill |
//! | `serve_report` | the serving front door under an overload ramp: shedding, deadlines, hot swap |
//! | `chaos_serve_report` | whole-stack fault campaign: request conservation and deterministic replay |
//!
//! Run them with, e.g.:
//!
//! ```text
//! cargo run -p nitro-bench --release --bin fig6_nitro
//! NITRO_SCALE=small cargo run -p nitro-bench --bin fig6_nitro   # quick pass
//! ```
//!
//! `NITRO_SCALE` is `small` or `full` (the default); any other value is
//! refused.

pub mod error;
pub mod harness;
pub mod load;

pub use error::{BenchError, BenchResult};
pub use harness::*;
pub use load::{LoadPhase, ZipfSampler};

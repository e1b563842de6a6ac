//! # nitro-graph — the Breadth-First Search benchmark
//!
//! The paper's third benchmark (Figure 4): six Back40-style BFS variants
//! — {expand-contract, contract-expand, 2-phase} × {fused, iterative} —
//! plus the dynamic Hybrid baseline Nitro is shown to beat by ~11%
//! (§V-A). Traversals are real (depths verified against a CPU
//! reference); costs come from the per-level frontier composition charged
//! to the simulated GPU. The objective is traversed edges per second
//! (TEPS), maximized.
//!
//! * [`graph`] — CSR digraphs and a reference BFS.
//! * [`gen`] — grid / road / RMAT / regular / small-world generators
//!   (the DIMACS10 regimes).
//! * [`bfs`] — the variants, the Hybrid baseline, and
//!   [`bfs::build_code_variant`].
//! * [`collection`] — 20 training + 148 test graphs (paper counts).
//! * [`io`] — edge-list and DIMACS/METIS readers (DIMACS10 is the
//!   paper's test corpus), so external graphs drop straight in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod collection;
pub mod gen;
pub mod graph;
pub mod io;

pub use bfs::{build_code_variant, run_bfs, run_hybrid, BfsInput, BfsRun, Strategy};
pub use graph::CsrGraph;

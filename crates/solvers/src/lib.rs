//! # nitro-solvers — the Linear Solvers & Preconditioners benchmark
//!
//! The paper's second benchmark (Figure 4, "Solvers") selects among six
//! (solver, preconditioner) combinations from CULA Sparse. This crate
//! builds the whole substrate from scratch:
//!
//! * [`krylov`] — real Conjugate Gradients and BiCGStab in f64, with
//!   honest breakdown/divergence detection.
//! * [`precond`] — Jacobi, Blocked Jacobi and a factorized
//!   approximate-inverse preconditioner.
//! * [`variants`] — the six code variants with a simulated-GPU cost
//!   model (`iterations × per-iteration kernel time`), returning ∞ when
//!   a combination fails to converge — which is what lets Nitro learn to
//!   "select a converging variant with high accuracy" (§V-A).
//! * [`collection`] — 26 training + 100 test systems whose groups span
//!   the paper's behaviours, including ~6 systems nothing solves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod krylov;
pub mod precond;
pub mod variants;

pub use krylov::{bicgstab, cg, SolveOutcome};
pub use precond::{ApproxInverse, BlockJacobi, Jacobi, Preconditioner};
pub use variants::{
    build_code_variant, run_variant, run_with_preconditioner, Method, Precond, SolverInput,
};

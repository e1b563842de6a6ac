//! # nitro-sort — the Sort benchmark
//!
//! The paper's fifth benchmark (Figure 4): three sorting variants —
//! ModernGPU's Merge and Locality sorts and CUB's Radix sort — on 32- and
//! 64-bit floating-point keys. The paper's findings this crate
//! reproduces: Radix dominates 32-bit keys, Merge/Locality overtake it on
//! 64-bit keys, and Locality wins on almost-sorted sequences (§V-A).
//!
//! * [`keys`] — key containers, the `N` / `Nbits` / `NAscSeq` features and
//!   the uniform / reverse / almost-sorted / normal / exponential
//!   workload generators (120 training, 600 test instances — paper
//!   counts).
//! * [`variants`] — the three variants, which share one keys-only radix
//!   sort for their (real, tested) output and each charge their own
//!   simulated cost, and [`variants::build_code_variant`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keys;
pub mod variants;

pub use keys::{Keys, SortInput};
pub use variants::{build_code_variant, run_variant, Method};

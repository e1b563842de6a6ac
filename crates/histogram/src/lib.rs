//! # nitro-histogram — the Histogram benchmark
//!
//! The paper's fourth benchmark (Figure 4): six CUB-style histogram
//! variants — {sort-based, shared-memory atomic, global-memory atomic} ×
//! {even-share, dynamic} grid mapping — counting observations into bins.
//!
//! The decisive input property is distribution skew: atomic variants are
//! fast on uniform data but collapse when many concurrent updates hit the
//! same few bins ("the high latency of atomic-add operations … coupled
//! with the high number of concurrent threads trying to update a small
//! number of bins", §V-A), while the sort-based variants are
//! skew-oblivious. The `SubSampleSD` feature is what lets the model see
//! skew cheaply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod variants;

pub use data::{HistInput, N_BINS};
pub use variants::{build_code_variant, run_variant, Mapping, Method, VARIANTS};

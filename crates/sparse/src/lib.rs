//! # nitro-sparse — sparse matrix substrate and the SpMV benchmark
//!
//! Everything the paper's SpMV experiment needs, built from scratch:
//!
//! * Formats: [`coo::CooMatrix`], [`csr::CsrMatrix`], [`dia::DiaMatrix`],
//!   [`ell::EllMatrix`] with verified conversions (the CUSP formats the
//!   paper tunes across). An [`SpmvInput`] holds only CSR: DIA and ELL
//!   are built per call, and their verdicts come from counts.
//! * Kernels: [`spmv::spmv_csr_vector`], [`spmv::spmv_dia`],
//!   [`spmv::spmv_ell`] — each functionally correct on the CPU while
//!   charging a simulated Fermi-class GPU, in plain and texture-cached
//!   flavours (6 variants total, Figure 4).
//! * Features: the paper's five SpMV features and the eight solver
//!   features ([`features`]).
//! * Data: deterministic generators ([`gen`]), paper-sized train/test
//!   collections ([`collection`]) standing in for the UFL Sparse Matrix
//!   collection, and Matrix Market `.mtx` I/O ([`io`]) so external
//!   matrices can be tuned exactly as the paper's Figure-3 script does.
//! * The assembled tuned function: [`spmv::build_code_variant`] — the
//!   Rust analog of the paper's Figure 2 `MySparse` example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod coo;
pub mod csr;
pub mod dia;
pub mod ell;
pub mod features;
pub mod gen;
pub mod io;
pub mod spmv;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use spmv::{build_code_variant, SpmvInput};

//! The paper's Figure 2, end to end: a `MySparse` library whose
//! `sparse_mat_vec` entry point is Nitro-tuned internally, and an
//! end-user `main` that never sees a Nitro construct.
//!
//! ```text
//! cargo run --release --example spmv_library
//! ```

use nitro::core::{CodeVariant, Context};
use nitro::simt::DeviceConfig;
use nitro::sparse::collection::spmv_small_sets;
use nitro::sparse::spmv::build_code_variant;
use nitro::sparse::SpmvInput;
use nitro::tuner::Autotuner;

/// The expert-facing library (paper §II-B: "the details of the tuning
/// process are thus abstracted away from the end user, who can use the
/// MySparse library without ever needing to know about Nitro").
mod my_sparse {
    use super::*;

    pub struct MySparse {
        spmv: CodeVariant<SpmvInput>,
    }

    impl MySparse {
        /// Build the library: variants, features and constraints are
        /// registered here (Figure 2's `SparseMatVec` body), then a model
        /// is trained on representative matrices.
        pub fn new() -> Self {
            let ctx = Context::new();
            let mut spmv = build_code_variant(&ctx, &DeviceConfig::fermi_c2050());

            let (training, _) = spmv_small_sets(0x5EED);
            let report = Autotuner::new()
                .tune(&mut spmv, &training)
                .expect("tuning succeeds");
            eprintln!(
                "[my_sparse] tuned 'spmv' on {} matrices; class counts {:?}",
                report.training_inputs, report.class_counts
            );
            Self { spmv }
        }

        /// The public entry point: computes `y = A x` with the
        /// automatically selected variant, returning the chosen variant
        /// name for demonstration purposes.
        pub fn sparse_mat_vec(&self, matrix: &SpmvInput) -> (Vec<f64>, String) {
            let outcome = self.spmv.call(matrix).expect("dispatch succeeds");
            // Nitro variants return the objective; the product itself is
            // recomputed here through the reference kernel for clarity.
            (matrix.csr.spmv_reference(&matrix.x), outcome.variant_name)
        }
    }
}

fn main() {
    // --- End-user code: no Nitro constructs below this line. ---
    let lib = my_sparse::MySparse::new();

    let (_, test_matrices) = spmv_small_sets(0x5EED);
    println!("\nmatrix                          selected variant");
    for m in test_matrices.iter().take(12) {
        let (y, variant) = lib.sparse_mat_vec(m);
        println!(
            "{:<30}  {:<12} (‖y‖₁ = {:.1})",
            m.name,
            variant,
            y.iter().map(|v| v.abs()).sum::<f64>()
        );
    }
    println!("\nBanded matrices route to DIA, uniform rows to ELL, scattered to CSR-Vec —");
    println!("all selected by the trained model, none hard-coded.");
}

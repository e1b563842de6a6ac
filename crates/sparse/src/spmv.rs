//! SpMV code variants on the simulated GPU.
//!
//! Six variants, mirroring the paper's CUSP set (Figure 4): CSR-Vector,
//! DIA and ELL kernels, each in a plain and a texture-cached ("Tx")
//! flavour that routes the `x`-vector gathers through the simulated
//! texture cache. Every kernel computes the *real* product `y = A x` on
//! the CPU while charging its memory traffic and divergence to the
//! [`nitro_simt`] device, so functional tests and cost behaviour come
//! from the same code.
//!
//! An [`SpmvInput`] holds only its CSR matrix: the DIA and ELL variants
//! build their format inside the call and drop it when the call returns.
//! The fill features and the representability verdicts come from two
//! counts taken once per input, so no verdict builds a format.

use nitro_core::{CodeVariant, Context, FnConstraint, FnFeature, FnVariant, Predicate};
use nitro_simt::{DeviceConfig, Gpu, Schedule};

use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::ell::{self, EllMatrix, ELL_PAD};
use crate::features;

/// DIA is vetoed when its storage would exceed this multiple of nnz
/// (the paper's `__dia_cutoff` constraint).
pub const DIA_FILL_CUTOFF: f64 = 12.0;
/// Hard cap on stored diagonals, independent of fill.
pub const MAX_DIAGS: usize = 512;
/// ELL is vetoed when padding exceeds this multiple of nnz.
pub const ELL_FILL_CUTOFF: f64 = 8.0;

/// One SpMV problem instance: a matrix, a dense vector, and the two
/// counts that size the DIA and ELL forms (distinct diagonals, longest
/// row). The forms themselves are not kept: a variant that runs on one
/// builds it for its call.
#[derive(Debug)]
pub struct SpmvInput {
    /// Instance name (deterministic, used to seed simulation noise).
    pub name: String,
    /// Collection group the instance belongs to (mirrors UFL groups).
    pub group: String,
    /// The matrix in CSR form (the canonical representation).
    pub csr: CsrMatrix,
    /// The dense input vector.
    pub x: Vec<f64>,
    /// Seed for the simulated device's measurement noise.
    pub gpu_seed: u64,
    n_diags: usize,
    max_row_len: usize,
}

impl SpmvInput {
    /// Wrap a matrix as a named instance; `x` is derived deterministically
    /// from the name.
    pub fn new(name: impl Into<String>, group: impl Into<String>, csr: CsrMatrix) -> Self {
        let name = name.into();
        let gpu_seed = fnv1a(name.as_bytes());
        let mut state = gpu_seed | 1;
        let x = (0..csr.n_cols)
            .map(|_| {
                // xorshift64* — cheap deterministic fill.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                0.1 + (state % 1000) as f64 / 1000.0
            })
            .collect();
        Self {
            name,
            group: group.into(),
            n_diags: crate::dia::diagonal_slots(&csr).1,
            max_row_len: features::max_row_len(&csr),
            csr,
            x,
            gpu_seed,
        }
    }

    /// DIA fill-in feature, from the diagonal count.
    pub fn dia_fill(&self) -> f64 {
        features::fill(self.n_diags, &self.csr)
    }

    /// ELL fill-in feature, from the longest row.
    pub fn ell_fill(&self) -> f64 {
        features::fill(self.max_row_len, &self.csr)
    }

    /// Whether [`DiaMatrix::from_csr`] converts the matrix under
    /// [`MAX_DIAGS`], read from the diagonal count.
    pub fn dia_representable(&self) -> bool {
        self.n_diags <= MAX_DIAGS
    }

    /// Whether [`EllMatrix::from_csr`] converts the matrix under
    /// [`ELL_FILL_CUTOFF`], read from the longest row.
    pub fn ell_representable(&self) -> bool {
        ell::fits(&self.csr, self.max_row_len, ELL_FILL_CUTOFF)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// CSR-Vector SpMV: one warp per row (CUSP's `csr_vector`). Returns the
/// product and the full launch statistics (time, energy, traffic).
pub fn spmv_csr_vector(
    m: &CsrMatrix,
    x: &[f64],
    gpu: &Gpu,
    textured: bool,
) -> (Vec<f64>, nitro_simt::LaunchStats) {
    let mut y = vec![0.0; m.n_rows];
    let mut addrs: Vec<u64> = Vec::new();
    let name = if textured {
        "spmv_csr_vector_tx"
    } else {
        "spmv_csr_vector"
    };
    let stats = gpu.launch(name, m.n_rows, Schedule::EvenShare, |r, ctx| {
        let (cols, vals) = m.row(r);
        let len = cols.len() as u64;
        // Streaming reads of the row's values and column indices.
        ctx.coalesced(len, 8);
        ctx.coalesced(len, 4);
        // Gather x[col] — the access whose locality the Tx variant exploits.
        addrs.clear();
        addrs.extend(cols.iter().map(|&c| c as u64 * 8));
        if textured {
            ctx.tex_gather(&addrs);
        } else {
            ctx.warp_gather(&addrs, 8);
        }
        // Multiply-accumulate, intra-warp reduction and loop overhead.
        let iters = len.div_ceil(32).max(1);
        ctx.charge_ops(2 * len + 5 + 4 * iters);
        // Write y[r].
        ctx.coalesced(1, 8);
        // Functional result.
        y[r] = cols
            .iter()
            .zip(vals)
            .map(|(&c, &v)| v * x[c as usize])
            .sum();
    });
    (y, stats)
}

/// Thread blocks use 256 threads for the thread-per-row kernels.
const ROWS_PER_BLOCK: usize = 256;

/// DIA SpMV: one thread per row marching across stored diagonals.
pub fn spmv_dia(
    m: &DiaMatrix,
    x: &[f64],
    gpu: &Gpu,
    textured: bool,
) -> (Vec<f64>, nitro_simt::LaunchStats) {
    let mut y = vec![0.0; m.n_rows];
    let blocks = m.n_rows.div_ceil(ROWS_PER_BLOCK);
    let name = if textured { "spmv_dia_tx" } else { "spmv_dia" };
    let mut addrs: Vec<u64> = Vec::new();
    let stats = gpu.launch(name, blocks, Schedule::EvenShare, |b, ctx| {
        let r0 = b * ROWS_PER_BLOCK;
        let r1 = (r0 + ROWS_PER_BLOCK).min(m.n_rows);
        let rows = (r1 - r0) as u64;
        for (d, &off) in m.offsets.iter().enumerate() {
            // Diagonal data is stored column-major: perfectly coalesced.
            ctx.coalesced(rows, 8);
            // x[r + off] is consecutive across threads: also coalesced —
            // DIA needs no gather at all, its defining advantage.
            if textured {
                addrs.clear();
                for r in r0..r1 {
                    let c = r as i64 + off;
                    if c >= 0 && (c as usize) < m.n_cols {
                        addrs.push(c as u64 * 8);
                    }
                }
                ctx.tex_gather(&addrs);
            } else {
                ctx.coalesced(rows, 8);
            }
            ctx.charge_ops(2 * rows);
            // Functional result for this block's slice of the diagonal.
            let base = d * m.n_rows;
            #[allow(clippy::needless_range_loop)] // r drives c = r + off too
            for r in r0..r1 {
                let c = r as i64 + off;
                if c >= 0 && (c as usize) < m.n_cols {
                    y[r] += m.data[base + r] * x[c as usize];
                }
            }
        }
        // Write y for the block.
        ctx.coalesced(rows, 8);
    });
    (y, stats)
}

/// ELL SpMV: one thread per row, column-major padded storage.
pub fn spmv_ell(
    m: &EllMatrix,
    x: &[f64],
    gpu: &Gpu,
    textured: bool,
) -> (Vec<f64>, nitro_simt::LaunchStats) {
    let mut y = vec![0.0; m.n_rows];
    let blocks = m.n_rows.div_ceil(ROWS_PER_BLOCK);
    let name = if textured { "spmv_ell_tx" } else { "spmv_ell" };
    let mut addrs: Vec<u64> = Vec::new();
    let stats = gpu.launch(name, blocks, Schedule::EvenShare, |b, ctx| {
        let r0 = b * ROWS_PER_BLOCK;
        let r1 = (r0 + ROWS_PER_BLOCK).min(m.n_rows);
        let rows = (r1 - r0) as u64;
        for k in 0..m.width {
            let base = k * m.n_rows;
            // Column indices and values, column-major: coalesced streams
            // (padding slots are read too — ELL's fill-in cost).
            ctx.coalesced(rows, 4);
            ctx.coalesced(rows, 8);
            // Gather x for the non-padding lanes, one warp at a time.
            for w0 in (r0..r1).step_by(32) {
                let w1 = (w0 + 32).min(r1);
                addrs.clear();
                for r in w0..w1 {
                    let c = m.cols[base + r];
                    if c != ELL_PAD {
                        addrs.push(c as u64 * 8);
                    }
                }
                if addrs.is_empty() {
                    continue;
                }
                if textured {
                    ctx.tex_gather(&addrs);
                } else {
                    ctx.warp_gather(&addrs, 8);
                }
            }
            ctx.charge_ops(2 * rows);
            // Functional result.
            #[allow(clippy::needless_range_loop)] // r indexes two parallel arrays
            for r in r0..r1 {
                let c = m.cols[base + r];
                if c != ELL_PAD {
                    y[r] += m.vals[base + r] * x[c as usize];
                }
            }
        }
        ctx.coalesced(rows, 8);
    });
    (y, stats)
}

/// Names of the six SpMV variants, in registration order.
pub const VARIANT_NAMES: [&str; 6] = ["CSR-Vec", "DIA", "ELL", "CSR-Vec-Tx", "DIA-Tx", "ELL-Tx"];

/// Which scalar a variant reports as its objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvMetric {
    /// Simulated elapsed nanoseconds (the default, as in the paper).
    Time,
    /// Estimated nanojoules — the paper's "other optimization criteria,
    /// for example, energy usage" (§II-B).
    Energy,
}

impl SpmvMetric {
    fn of(self, stats: &nitro_simt::LaunchStats) -> f64 {
        match self {
            SpmvMetric::Time => stats.elapsed_ns,
            SpmvMetric::Energy => stats.energy_nj,
        }
    }
}

/// Assemble the paper's SpMV `code_variant`: 6 variants, 5 features and
/// the DIA/ELL cutoff constraints, with CSR-Vector as the default.
///
/// This is the Rust analog of the `MySparse::SparseMatVec` setup code in
/// the paper's Figure 2.
pub fn build_code_variant(ctx: &Context, cfg: &DeviceConfig) -> CodeVariant<SpmvInput> {
    build_code_variant_metric(ctx, cfg, SpmvMetric::Time)
}

/// Like [`build_code_variant`], selecting which metric the variants
/// report. Energy-objective tuning uses `SpmvMetric::Energy`.
pub fn build_code_variant_metric(
    ctx: &Context,
    cfg: &DeviceConfig,
    metric: SpmvMetric,
) -> CodeVariant<SpmvInput> {
    let mut cv = CodeVariant::new("spmv", ctx);

    // Variant `k` seeds its device with salt `k + 1`.
    let gpu = |cfg: &DeviceConfig, inp: &SpmvInput, k: usize| {
        Gpu::with_seed(cfg.clone(), inp.gpu_seed ^ (k as u64 + 1))
    };

    // The plain flavour, then the texture-cached one. DIA and ELL build
    // their format for the call and drop it when the call returns.
    let (mut dia, mut ell) = ([0; 2], [0; 2]);
    for (f, tx) in [false, true].into_iter().enumerate() {
        let (c, k) = (cfg.clone(), 3 * f);
        cv.add_variant(FnVariant::new(VARIANT_NAMES[k], move |inp: &SpmvInput| {
            metric.of(&spmv_csr_vector(&inp.csr, &inp.x, &gpu(&c, inp, k), tx).1)
        }));
        let (c, k) = (cfg.clone(), k + 1);
        dia[f] = cv.add_variant(FnVariant::new(VARIANT_NAMES[k], move |inp: &SpmvInput| {
            DiaMatrix::from_csr(&inp.csr, MAX_DIAGS).map_or(f64::INFINITY, |d| {
                metric.of(&spmv_dia(&d, &inp.x, &gpu(&c, inp, k), tx).1)
            })
        }));
        let (c, k) = (cfg.clone(), k + 1);
        ell[f] = cv.add_variant(FnVariant::new(VARIANT_NAMES[k], move |inp: &SpmvInput| {
            EllMatrix::from_csr(&inp.csr, ELL_FILL_CUTOFF).map_or(f64::INFINITY, |e| {
                metric.of(&spmv_ell(&e, &inp.x, &gpu(&c, inp, k), tx).1)
            })
        }));
    }

    cv.set_default(0); // CSR-Vec handles anything

    // The 5 features of Figure 4, with simulated evaluation costs.
    cv.add_input_feature(FnFeature::with_cost(
        "AvgNZPerRow",
        |i: &SpmvInput| features::avg_nz_per_row(&i.csr),
        |i: &SpmvInput| features::cost::constant(&i.csr),
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "RL-SD",
        |i: &SpmvInput| features::row_length_sd(&i.csr),
        |i: &SpmvInput| features::cost::per_row(&i.csr),
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "MaxDeviation",
        |i: &SpmvInput| features::max_row_deviation(&i.csr),
        |i: &SpmvInput| features::cost::per_row(&i.csr),
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "DIA-Fill",
        |i: &SpmvInput| i.dia_fill().min(1e6),
        |i: &SpmvInput| features::cost::per_nnz(&i.csr),
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "ELL-Fill",
        |i: &SpmvInput| i.ell_fill().min(1e6),
        |i: &SpmvInput| features::cost::per_row(&i.csr),
    ));

    // The paper's `__dia_cutoff`-style constraints, declared over the
    // registered features (DIA-Fill = 3, ELL-Fill = 4) so the
    // whole-configuration analyses can reason about them. The fill
    // cutoffs sit far below the feature's 1e6 clamp, so the predicate
    // over the clamped feature is equivalent to the raw bound.
    // Representability (a matrix can exceed MAX_DIAGS or the ELL width
    // cap with an in-cutoff fill estimate) depends on input shape, not
    // on any registered feature, and stays an opaque escape-hatch
    // constraint.
    let formats = [
        ("dia", dia, 3, DIA_FILL_CUTOFF),
        ("ell", ell, 4, ELL_FILL_CUTOFF),
    ];
    for (format, variants, feature, cutoff) in formats {
        for (v, suffix) in variants.into_iter().zip(["", "_tx"]) {
            let predicate = Predicate::le(feature, cutoff);
            cv.add_predicate_constraint(v, format!("{format}_cutoff{suffix}"), predicate)
                .expect("fill cutoff registers");
        }
    }
    let dia_ok: fn(&SpmvInput) -> bool = SpmvInput::dia_representable;
    let verdicts = [
        ("dia", dia, dia_ok),
        ("ell", ell, SpmvInput::ell_representable),
    ];
    for (format, variants, ok) in verdicts {
        for (v, suffix) in variants.into_iter().zip(["", "_tx"]) {
            let name = format!("{format}_representable{suffix}");
            cv.add_constraint(v, FnConstraint::new(name, ok))
                .expect("representability registers");
        }
    }

    cv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn quiet() -> Gpu {
        Gpu::new(DeviceConfig::fermi_c2050().noiseless())
    }

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn all_kernels_compute_the_same_product() {
        let csr = gen::banded(300, 3, 1.0, 5);
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        let reference = csr.spmv_reference(&x);
        let gpu = quiet();

        for textured in [false, true] {
            let (y, _) = spmv_csr_vector(&csr, &x, &gpu, textured);
            close(&reference, &y);
            let dia = DiaMatrix::from_csr(&csr, MAX_DIAGS).unwrap();
            let (y, _) = spmv_dia(&dia, &x, &gpu, textured);
            close(&reference, &y);
            let ell = EllMatrix::from_csr(&csr, ELL_FILL_CUTOFF).unwrap();
            let (y, _) = spmv_ell(&ell, &x, &gpu, textured);
            close(&reference, &y);
        }
    }

    #[test]
    fn dia_wins_on_banded_matrices() {
        let inp = SpmvInput::new("banded", "banded", gen::banded(6000, 4, 1.0, 7));
        let gpu = quiet();
        let (_, t_csr) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, false);
        let (_, t_dia) = spmv_dia(
            &DiaMatrix::from_csr(&inp.csr, MAX_DIAGS).unwrap(),
            &inp.x,
            &gpu,
            false,
        );
        assert!(t_dia.elapsed_ns < t_csr.elapsed_ns, "DIA vs CSR");
    }

    #[test]
    fn ell_beats_csr_on_uniform_rows() {
        let inp = SpmvInput::new("uni", "uniform", gen::uniform_rows(6000, 8, 6000, 9));
        let gpu = quiet();
        let (_, t_csr) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, false);
        let (_, t_ell) = spmv_ell(
            &EllMatrix::from_csr(&inp.csr, ELL_FILL_CUTOFF).unwrap(),
            &inp.x,
            &gpu,
            false,
        );
        assert!(t_ell.elapsed_ns < t_csr.elapsed_ns, "ELL vs CSR");
    }

    #[test]
    fn texture_helps_clustered_gathers() {
        let inp = SpmvInput::new("clu", "clustered", gen::clustered(8000, 16, 48, 11));
        let gpu = quiet();
        let (_, plain) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, false);
        let (_, tx) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, true);
        assert!(tx.elapsed_ns < plain.elapsed_ns, "Tx vs plain");
    }

    #[test]
    fn texture_hurts_random_gathers() {
        let inp = SpmvInput::new("rnd", "random", gen::power_law(8000, 10.0, 1.6, 13));
        let gpu = quiet();
        let (_, plain) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, false);
        let (_, tx) = spmv_csr_vector(&inp.csr, &inp.x, &gpu, true);
        assert!(
            tx.elapsed_ns > plain.elapsed_ns,
            "Tx should lose to plain on random columns"
        );
    }

    #[test]
    fn code_variant_registers_paper_inventory() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &DeviceConfig::fermi_c2050());
        assert_eq!(cv.n_variants(), 6);
        assert_eq!(cv.n_features(), 5);
        assert_eq!(cv.variant_names(), VARIANT_NAMES.map(String::from).to_vec());
        assert_eq!(cv.default_variant(), Some(0));
    }

    #[test]
    fn constraints_veto_dia_on_scattered_matrices() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &DeviceConfig::fermi_c2050().noiseless());
        let scattered = SpmvInput::new("pl", "power_law", gen::power_law(2000, 8.0, 1.5, 3));
        assert!(
            !cv.constraints_satisfied(1, &scattered),
            "DIA should be vetoed"
        );
        let banded = SpmvInput::new("band", "banded", gen::banded(2000, 3, 1.0, 3));
        assert!(cv.constraints_satisfied(1, &banded));
    }

    #[test]
    fn variant_objective_is_positive_and_deterministic() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &DeviceConfig::fermi_c2050());
        let inp = SpmvInput::new("det", "banded", gen::banded(1000, 2, 1.0, 1));
        let a = cv.run_variant(0, &inp);
        let b = cv.run_variant(0, &inp);
        assert!(a > 0.0);
        assert_eq!(a, b, "same input + seed must reproduce exactly");
    }
}

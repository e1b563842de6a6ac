//! Property tests: format conversions and kernels agree with the COO
//! reference on arbitrary matrices, the direct-indexed DIA conversion
//! agrees with an ordered-set reference, and the count-derived DIA and
//! ELL verdicts agree with the conversions.

use std::collections::BTreeSet;

use nitro_simt::{DeviceConfig, Gpu};
use nitro_sparse::collection::spmv_small_sets;
use nitro_sparse::dia::DiaMatrix;
use nitro_sparse::ell::EllMatrix;
use nitro_sparse::spmv::{
    spmv_csr_vector, spmv_dia, spmv_ell, SpmvInput, ELL_FILL_CUTOFF, MAX_DIAGS,
};
use nitro_sparse::{features, CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Arbitrary small matrix as a set of triplets.
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..40).prop_flat_map(|n| {
        let entries = prop::collection::vec(((0..n), (0..n), -10.0f64..10.0), 1..120);
        (Just(n), entries)
    })
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// Arbitrary small rectangular matrix: rows, columns and triplets.
fn arb_rect() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        let entries = prop::collection::vec(((0..rows), (0..cols), -10.0f64..10.0), 0..150);
        (Just(rows), Just(cols), entries)
    })
}

fn build_rect(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// The DIA conversion over an ordered set of offsets: `None` once more
/// than `max_diags` distinct diagonals are seen, else the ascending
/// offsets and the diagonal-major data.
fn reference_dia(csr: &CsrMatrix, max_diags: usize) -> Option<(Vec<i64>, Vec<f64>)> {
    let mut seen = BTreeSet::new();
    for r in 0..csr.n_rows {
        for &c in csr.row(r).0 {
            seen.insert(c as i64 - r as i64);
            if seen.len() > max_diags {
                return None;
            }
        }
    }
    let offsets: Vec<i64> = seen.into_iter().collect();
    let mut data = vec![0.0; offsets.len() * csr.n_rows];
    for r in 0..csr.n_rows {
        let (cols, vals) = csr.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            let d = offsets.binary_search(&(c as i64 - r as i64)).unwrap();
            data[d * csr.n_rows + r] = v;
        }
    }
    Some((offsets, data))
}

fn dia_parts(csr: &CsrMatrix, max_diags: usize) -> Option<(Vec<i64>, Vec<f64>)> {
    DiaMatrix::from_csr(csr, max_diags).map(|d| (d.offsets, d.data))
}

/// Distinct diagonals, counted on the ordered-set reference.
fn reference_n_diags(csr: &CsrMatrix) -> usize {
    reference_dia(csr, usize::MAX).map_or(0, |(offsets, _)| offsets.len())
}

/// The count-derived verdicts and fill features of `csr` as an input,
/// against the conversions and the reference count.
fn check_verdicts(csr: CsrMatrix) -> Result<(), TestCaseError> {
    let n_diags = reference_n_diags(&csr);
    let want_dia = DiaMatrix::from_csr(&csr, MAX_DIAGS).is_some();
    let want_ell = EllMatrix::from_csr(&csr, ELL_FILL_CUTOFF).is_some();
    let want_fills = (features::dia_fill(&csr), features::ell_fill(&csr));
    let inp = SpmvInput::new("m", "g", csr);
    prop_assert_eq!(inp.dia_representable(), want_dia);
    prop_assert_eq!(inp.ell_representable(), want_ell);
    prop_assert_eq!(
        inp.dia_fill().to_bits(),
        features::fill(n_diags, &inp.csr).to_bits()
    );
    prop_assert_eq!(inp.dia_fill().to_bits(), want_fills.0.to_bits());
    prop_assert_eq!(inp.ell_fill().to_bits(), want_fills.1.to_bits());
    Ok(())
}

/// `n` rows, row 0 padded to `width` entries and every other row one
/// entry at `cols[r]`: the ELL fill is `width × n / (width + n − 1)`.
fn one_long_row(n: usize, width: usize, cols: &[usize]) -> CsrMatrix {
    let n_cols = n.max(width);
    let mut coo = CooMatrix::new(n, n_cols);
    for c in 0..width {
        coo.push(0, c, 1.0);
    }
    for (r, &c) in cols.iter().enumerate().take(n).skip(1) {
        coo.push(r, c % n_cols, 2.0);
    }
    CsrMatrix::from_coo(&coo)
}

#[test]
fn small_set_verdicts_come_from_counts() {
    // The benchmark harness's collection seed.
    let (train, test) = spmv_small_sets(0x0417_2014);
    let (mut dia, mut ell) = (0, 0);
    for inp in train.iter().chain(&test) {
        let want_dia = DiaMatrix::from_csr(&inp.csr, MAX_DIAGS).is_some();
        let want_ell = EllMatrix::from_csr(&inp.csr, ELL_FILL_CUTOFF).is_some();
        assert_eq!(inp.dia_representable(), want_dia, "{}: DIA", inp.name);
        assert_eq!(inp.ell_representable(), want_ell, "{}: ELL", inp.name);
        assert_eq!(
            inp.dia_fill().to_bits(),
            features::dia_fill(&inp.csr).to_bits()
        );
        assert_eq!(
            inp.ell_fill().to_bits(),
            features::ell_fill(&inp.csr).to_bits()
        );
        dia += usize::from(want_dia);
        ell += usize::from(want_ell);
    }
    let n = train.len() + test.len();
    assert!(0 < dia && dia < n, "{dia} of {n} DIA verdicts hold");
    assert!(0 < ell && ell < n, "{ell} of {n} ELL verdicts hold");
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(1.0))
}

proptest! {
    /// COO → CSR preserves the SpMV result.
    #[test]
    fn coo_csr_agree((n, entries) in arb_matrix()) {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
        }
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        prop_assert!(close(&coo.spmv_reference(&x), &csr.spmv_reference(&x)));
    }

    /// CSR row pointers are monotone and bound nnz.
    #[test]
    fn csr_invariants((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        prop_assert_eq!(csr.row_ptr.len(), n + 1);
        prop_assert!(csr.row_ptr.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*csr.row_ptr.last().unwrap(), csr.nnz());
        for r in 0..n {
            let (cols, _) = csr.row(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {} unsorted/dup", r);
        }
    }

    /// All format conversions preserve the product, and all simulated
    /// kernels match the reference.
    #[test]
    fn kernels_match_reference((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.3).collect();
        let reference = csr.spmv_reference(&x);
        let gpu = Gpu::new(DeviceConfig::fermi_c2050().noiseless());

        let (y, t) = spmv_csr_vector(&csr, &x, &gpu, false);
        prop_assert!(close(&reference, &y));
        prop_assert!(t.elapsed_ns > 0.0);
        let (y, _) = spmv_csr_vector(&csr, &x, &gpu, true);
        prop_assert!(close(&reference, &y));

        if let Some(dia) = DiaMatrix::from_csr(&csr, 4096) {
            prop_assert!(close(&reference, &dia.spmv_reference(&x)));
            let (y, _) = spmv_dia(&dia, &x, &gpu, false);
            prop_assert!(close(&reference, &y));
            let (y, _) = spmv_dia(&dia, &x, &gpu, true);
            prop_assert!(close(&reference, &y));
        }
        if let Some(ell) = EllMatrix::from_csr(&csr, 1e9) {
            prop_assert!(close(&reference, &ell.spmv_reference(&x)));
            let (y, _) = spmv_ell(&ell, &x, &gpu, false);
            prop_assert!(close(&reference, &y));
            let (y, _) = spmv_ell(&ell, &x, &gpu, true);
            prop_assert!(close(&reference, &y));
        }
    }

    /// The direct-indexed DIA conversion equals the ordered-set reference
    /// in offsets and data, for any diagonal cap.
    #[test]
    fn dia_conversion_matches_ordered_set_reference(
        (rows, cols, entries) in arb_rect(),
        max_diags in 0usize..80,
    ) {
        let csr = build_rect(rows, cols, &entries);
        prop_assert_eq!(dia_parts(&csr, max_diags), reference_dia(&csr, max_diags));
        prop_assert_eq!(dia_parts(&csr, usize::MAX), reference_dia(&csr, usize::MAX));
    }

    /// At exactly `max_diags` distinct diagonals the conversion succeeds,
    /// at `max_diags + 1` it returns `None`, as the reference does.
    #[test]
    fn dia_conversion_cap_is_exact((rows, cols, entries) in arb_rect()) {
        let csr = build_rect(rows, cols, &entries);
        let n_diags = reference_n_diags(&csr);
        let at_cap = dia_parts(&csr, n_diags);
        prop_assert!(at_cap.is_some(), "{} diagonals under a cap of {}", n_diags, n_diags);
        prop_assert_eq!(at_cap, reference_dia(&csr, n_diags));
        if n_diags > 0 {
            prop_assert_eq!(dia_parts(&csr, n_diags - 1), None);
            prop_assert_eq!(reference_dia(&csr, n_diags - 1), None);
        }
    }

    /// The input's count-derived verdicts and fill features equal the
    /// conversions' and the feature functions' on arbitrary matrices.
    #[test]
    fn count_verdicts_match_conversions((rows, cols, entries) in arb_rect()) {
        check_verdicts(build_rect(rows, cols, &entries))?;
    }

    /// The same at the ELL fill cutoff: one long row whose width puts the
    /// padded storage one cell-row below, at, or above `ELL_FILL_CUTOFF`
    /// times the nonzeros.
    #[test]
    fn count_verdicts_match_conversions_at_the_ell_cutoff(
        n in 9usize..70,
        step in -1i64..=1,
        cols in prop::collection::vec(0usize..1000, 70),
    ) {
        // width × n = c (width + n − 1) at width = c (n − 1) / (n − c).
        let c = ELL_FILL_CUTOFF as usize;
        let at = (c * (n - 1)).div_ceil(n - c) as i64;
        let width = (at + step).max(1) as usize;
        check_verdicts(one_long_row(n, width, &cols))?;
    }

    /// Transpose twice is the identity for arbitrary matrices.
    #[test]
    fn transpose_involution((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }
}

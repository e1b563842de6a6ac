//! Matrix features: the meta-information SpMV and the solvers tune on.
//!
//! SpMV uses 5 features (paper Figure 4): average nonzeros per row, the
//! row-length standard deviation, the deviation of the longest row from
//! the average, and the DIA / ELL fill-in estimates. The Solvers
//! benchmark uses 8 numerical features after Bhowmick et al.: NNZ, NRows,
//! Trace, DiagAvg, DiagVar, DiagDominance, LBw (left bandwidth) and
//! Norm1.

use crate::csr::CsrMatrix;

/// Average nonzeros per row (`AvgNZPerRow`).
pub fn avg_nz_per_row(m: &CsrMatrix) -> f64 {
    if m.n_rows == 0 {
        return 0.0;
    }
    m.nnz() as f64 / m.n_rows as f64
}

/// Standard deviation of row lengths (`RL-SD`).
pub fn row_length_sd(m: &CsrMatrix) -> f64 {
    if m.n_rows == 0 {
        return 0.0;
    }
    let avg = avg_nz_per_row(m);
    let var = (0..m.n_rows)
        .map(|r| {
            let d = m.row_len(r) as f64 - avg;
            d * d
        })
        .sum::<f64>()
        / m.n_rows as f64;
    var.sqrt()
}

/// Length of the longest row: the ELL width.
pub fn max_row_len(m: &CsrMatrix) -> usize {
    (0..m.n_rows).map(|r| m.row_len(r)).max().unwrap_or(0)
}

/// Deviation of the longest row from the average row length
/// (`MaxDeviation`).
pub fn max_row_deviation(m: &CsrMatrix) -> f64 {
    (max_row_len(m) as f64 - avg_nz_per_row(m)).max(0.0)
}

/// Storage fill-in of a format that keeps `per_row` cells in every row:
/// `per_row × n_rows / nnz`, infinite for an empty matrix. With the
/// number of distinct diagonals it is `DIA-Fill`, with the longest row
/// `ELL-Fillin`.
pub fn fill(per_row: usize, m: &CsrMatrix) -> f64 {
    if m.nnz() == 0 {
        return f64::INFINITY;
    }
    (per_row * m.n_rows) as f64 / m.nnz() as f64
}

/// DIA storage fill-in estimate (`DIA-Fill`): `n_diags × n_rows / nnz`.
pub fn dia_fill(m: &CsrMatrix) -> f64 {
    fill(crate::dia::diagonal_slots(m).1, m)
}

/// ELL storage fill-in estimate (`ELL-Fillin`): `max_row_len × n_rows / nnz`.
pub fn ell_fill(m: &CsrMatrix) -> f64 {
    fill(max_row_len(m), m)
}

/// Matrix trace (`Trace`).
pub fn trace(m: &CsrMatrix) -> f64 {
    (0..m.n_rows.min(m.n_cols)).map(|r| m.diag(r)).sum()
}

/// Mean absolute diagonal entry (`DiagAvg`).
pub fn diag_avg(m: &CsrMatrix) -> f64 {
    let n = m.n_rows.min(m.n_cols);
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|r| m.diag(r).abs()).sum::<f64>() / n as f64
}

/// Variance of the diagonal entries (`DiagVar`).
pub fn diag_var(m: &CsrMatrix) -> f64 {
    let n = m.n_rows.min(m.n_cols);
    if n == 0 {
        return 0.0;
    }
    let mean = (0..n).map(|r| m.diag(r)).sum::<f64>() / n as f64;
    (0..n)
        .map(|r| {
            let d = m.diag(r) - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64
}

/// Fraction of rows that are diagonally dominant (`DiagDominance`):
/// `|a_rr| ≥ Σ_{c≠r} |a_rc|`.
pub fn diag_dominance(m: &CsrMatrix) -> f64 {
    if m.n_rows == 0 {
        return 0.0;
    }
    let dominant = (0..m.n_rows)
        .filter(|&r| {
            let (cols, vals) = m.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            diag >= off
        })
        .count();
    dominant as f64 / m.n_rows as f64
}

/// Left bandwidth (`LBw`): the largest `row − col` over stored entries.
pub fn left_bandwidth(m: &CsrMatrix) -> f64 {
    let mut bw = 0i64;
    for r in 0..m.n_rows {
        let (cols, _) = m.row(r);
        if let Some(&c) = cols.first() {
            bw = bw.max(r as i64 - c as i64);
        }
    }
    bw.max(0) as f64
}

/// Matrix 1-norm (`Norm1`): maximum absolute column sum.
pub fn norm1(m: &CsrMatrix) -> f64 {
    let mut col_sums = vec![0.0f64; m.n_cols];
    for r in 0..m.n_rows {
        let (cols, vals) = m.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            col_sums[c as usize] += v.abs();
        }
    }
    col_sums.into_iter().fold(0.0, f64::max)
}

/// Simulated feature-evaluation cost models (nanoseconds on the variant
/// clock), used by the Figure-8 overhead analysis. Cheap O(1) features
/// read metadata; expensive ones scan rows or every nonzero.
pub mod cost {
    use crate::csr::CsrMatrix;

    /// Per-element scan cost in ns (a CPU-side pass over the data).
    const SCAN_NS_PER_ELEM: f64 = 0.8;

    /// O(1): reads stored sizes only.
    pub fn constant(_m: &CsrMatrix) -> f64 {
        8.0
    }

    /// O(n_rows): row-pointer scan.
    pub fn per_row(m: &CsrMatrix) -> f64 {
        8.0 + m.n_rows as f64 * SCAN_NS_PER_ELEM
    }

    /// O(nnz): full nonzero scan.
    pub fn per_nnz(m: &CsrMatrix) -> f64 {
        8.0 + m.nnz() as f64 * SCAN_NS_PER_ELEM
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn matrix() -> CsrMatrix {
        // [ 2 -1  0  0]
        // [-1  2 -1  0]
        // [ 0 -1  2 -1]
        // [ 9  0 -1  2]   (entry (3,0) breaks the band)
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < 4 {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.push(3, 0, 9.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn row_statistics() {
        let m = matrix();
        assert!((avg_nz_per_row(&m) - 11.0 / 4.0).abs() < 1e-12);
        assert!(row_length_sd(&m) > 0.0);
        // Longest row has 3 entries.
        assert!((max_row_deviation(&m) - (3.0 - 2.75)).abs() < 1e-12);
    }

    #[test]
    fn fills_detect_band_break() {
        let m = matrix();
        // Offsets: -3 (the stray), -1, 0, +1 → 4 diags.
        assert!((dia_fill(&m) - 16.0 / 11.0).abs() < 1e-12);
        assert!((ell_fill(&m) - 12.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn numerical_features() {
        let m = matrix();
        assert_eq!(trace(&m), 8.0);
        assert_eq!(diag_avg(&m), 2.0);
        assert_eq!(diag_var(&m), 0.0);
        // Row 3: diag 2 < 9 + 1 = 10 → not dominant; others are.
        assert_eq!(diag_dominance(&m), 0.75);
        assert_eq!(left_bandwidth(&m), 3.0);
        // Column 0 sums |2| + |-1| + |9| = 12.
        assert_eq!(norm1(&m), 12.0);
    }

    #[test]
    fn empty_matrix_features_are_finite_or_flagged() {
        let m = CsrMatrix::from_coo(&CooMatrix::new(0, 0));
        assert_eq!(avg_nz_per_row(&m), 0.0);
        assert_eq!(row_length_sd(&m), 0.0);
        assert_eq!(diag_dominance(&m), 0.0);
        assert!(dia_fill(&m).is_infinite());
    }

    #[test]
    fn cost_models_scale_with_size() {
        let m = matrix();
        assert!(cost::constant(&m) < cost::per_row(&m));
        assert!(cost::per_row(&m) < cost::per_nnz(&m));
    }
}

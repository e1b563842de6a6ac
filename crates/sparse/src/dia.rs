//! Diagonal (DIA) format: stores whole diagonals, padding included.
//!
//! DIA is extremely fast for banded/stencil matrices (perfectly coalesced,
//! no column indices to read) but its storage is `n_diags × n_rows`, so a
//! matrix with scattered nonzeros "fills in" catastrophically — exactly the
//! trade-off the paper's `DIA-Fill` feature and `__dia_cutoff` constraint
//! exist to manage.

use crate::csr::CsrMatrix;

/// A sparse matrix in DIA form.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Diagonal offsets (col − row), ascending.
    pub offsets: Vec<i64>,
    /// `data[d * n_rows + r]` is the entry of diagonal `d` at row `r`
    /// (zero where the diagonal leaves the matrix or the entry is absent).
    pub data: Vec<f64>,
}

impl DiaMatrix {
    /// Convert from CSR. Returns `None` when the matrix has more than
    /// `max_diags` distinct diagonals — the storage would explode, which
    /// is what the paper's DIA cutoff constraint guards against.
    pub fn from_csr(csr: &CsrMatrix, max_diags: usize) -> Option<Self> {
        let (slots, n_diags) = diagonal_slots(csr);
        if n_diags > max_diags {
            return None;
        }
        let offsets = slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != u32::MAX)
            .map(|(i, _)| i as i64 + 1 - csr.n_rows as i64)
            .collect();
        let mut data = vec![0.0; n_diags * csr.n_rows];
        for r in 0..csr.n_rows {
            let (cols, vals) = csr.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let d = slots[c as usize + csr.n_rows - 1 - r] as usize;
                data[d * csr.n_rows + r] = v;
            }
        }
        Some(Self {
            n_rows: csr.n_rows,
            n_cols: csr.n_cols,
            offsets,
            data,
        })
    }

    /// Number of stored diagonals.
    pub fn n_diags(&self) -> usize {
        self.offsets.len()
    }

    /// Fill ratio: stored cells (including padding) over true nonzeros.
    pub fn fill_ratio(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            return f64::INFINITY;
        }
        (self.n_diags() * self.n_rows) as f64 / nnz as f64
    }

    /// Reference CPU SpMV: `y = A x`.
    pub fn spmv_reference(&self, x: &[f64]) -> Vec<f64> {
        assert!(x.len() >= self.n_cols, "x too short");
        let mut y = vec![0.0; self.n_rows];
        for (d, &off) in self.offsets.iter().enumerate() {
            let base = d * self.n_rows;
            #[allow(clippy::needless_range_loop)] // r also offsets the diagonal arithmetic
            for r in 0..self.n_rows {
                let c = r as i64 + off;
                if c >= 0 && (c as usize) < self.n_cols {
                    y[r] += self.data[base + r] * x[c as usize];
                }
            }
        }
        y
    }
}

/// One direct-indexed pass over the nonzeros. Entry `c − r + n_rows − 1`
/// of the returned table is the rank of diagonal `c − r` among the
/// matrix's distinct diagonals in ascending order, or `u32::MAX` if no
/// entry lies on it; the second value is the number of distinct diagonals.
pub(crate) fn diagonal_slots(csr: &CsrMatrix) -> (Vec<u32>, usize) {
    let mut slots = vec![u32::MAX; (csr.n_rows + csr.n_cols).saturating_sub(1)];
    for r in 0..csr.n_rows {
        for &c in csr.row(r).0 {
            slots[c as usize + csr.n_rows - 1 - r] = 0;
        }
    }
    let mut n_diags = 0;
    for s in slots.iter_mut().filter(|s| **s == 0) {
        *s = n_diags;
        n_diags += 1;
    }
    (slots, n_diags as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn tridiagonal_has_three_offsets() {
        let d = DiaMatrix::from_csr(&tridiag(6), 16).unwrap();
        assert_eq!(d.offsets, vec![-1, 0, 1]);
        assert!((d.fill_ratio(tridiag(6).nnz()) - 18.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = tridiag(8);
        let dia = DiaMatrix::from_csr(&csr, 16).unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i as f64).sin() + 1.0).collect();
        let expect = csr.spmv_reference(&x);
        let got = dia.spmv_reference(&x);
        for (a, b) in expect.iter().zip(&got) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn too_many_diagonals_rejected() {
        // An anti-diagonal matrix touches n distinct offsets.
        let n = 32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, n - 1 - i, 1.0);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert!(DiaMatrix::from_csr(&csr, 8).is_none());
        assert!(DiaMatrix::from_csr(&csr, n).is_some());
    }

    #[test]
    fn empty_matrix_fill_is_infinite() {
        let coo = CooMatrix::new(4, 4);
        let csr = CsrMatrix::from_coo(&coo);
        let dia = DiaMatrix::from_csr(&csr, 4).unwrap();
        assert_eq!(dia.fill_ratio(0), f64::INFINITY);
    }
}

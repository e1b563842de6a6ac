//! ELLPACK (ELL) format: fixed-width rows, column-major storage.
//!
//! ELL pads every row to the longest row's length; reads are perfectly
//! coalesced (thread-per-row marches down columns of the padded array) but
//! a single long row wastes storage and bandwidth for everyone — the
//! paper's `ELL-Fillin` feature quantifies that risk.

use crate::csr::CsrMatrix;

/// Sentinel column index for padding slots.
pub const ELL_PAD: u32 = u32::MAX;

/// A sparse matrix in ELL form.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Entries stored per row (the maximum CSR row length).
    pub width: usize,
    /// `cols[k * n_rows + r]`: column of row `r`'s `k`-th entry, or
    /// [`ELL_PAD`].
    pub cols: Vec<u32>,
    /// Values, same layout as `cols` (0 in padding slots).
    pub vals: Vec<f64>,
}

impl EllMatrix {
    /// Convert from CSR. Returns `None` when the padded storage would
    /// exceed `max_fill` times the true nonzero count.
    pub fn from_csr(csr: &CsrMatrix, max_fill: f64) -> Option<Self> {
        let width = crate::features::max_row_len(csr);
        if !fits(csr, width, max_fill) {
            return None;
        }
        let cells = width * csr.n_rows;
        let mut cols = vec![ELL_PAD; cells];
        let mut vals = vec![0.0; cells];
        for r in 0..csr.n_rows {
            let (rc, rv) = csr.row(r);
            for (k, (&c, &v)) in rc.iter().zip(rv).enumerate() {
                cols[k * csr.n_rows + r] = c;
                vals[k * csr.n_rows + r] = v;
            }
        }
        Some(Self {
            n_rows: csr.n_rows,
            n_cols: csr.n_cols,
            width,
            cols,
            vals,
        })
    }

    /// Fill ratio: padded cells over true nonzeros.
    pub fn fill_ratio(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            return f64::INFINITY;
        }
        (self.width * self.n_rows) as f64 / nnz as f64
    }

    /// Reference CPU SpMV: `y = A x`.
    pub fn spmv_reference(&self, x: &[f64]) -> Vec<f64> {
        assert!(x.len() >= self.n_cols, "x too short");
        let mut y = vec![0.0; self.n_rows];
        for k in 0..self.width {
            let base = k * self.n_rows;
            #[allow(clippy::needless_range_loop)] // r also offsets the diagonal arithmetic
            for r in 0..self.n_rows {
                let c = self.cols[base + r];
                if c != ELL_PAD {
                    y[r] += self.vals[base + r] * x[c as usize];
                }
            }
        }
        y
    }
}

/// Whether rows padded to `width` stay within `max_fill` times the
/// matrix's nonzeros: the condition [`EllMatrix::from_csr`] converts under.
pub(crate) fn fits(csr: &CsrMatrix, width: usize, max_fill: f64) -> bool {
    csr.nnz() == 0 || (width * csr.n_rows) as f64 <= max_fill * csr.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn irregular() -> CsrMatrix {
        // Row lengths 1, 3, 2.
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(1, 3, 4.0);
        coo.push(2, 0, 5.0);
        coo.push(2, 3, 6.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn width_is_longest_row() {
        let e = EllMatrix::from_csr(&irregular(), 10.0).unwrap();
        assert_eq!(e.width, 3);
        assert!((e.fill_ratio(6) - 9.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = irregular();
        let ell = EllMatrix::from_csr(&csr, 10.0).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(csr.spmv_reference(&x), ell.spmv_reference(&x));
    }

    #[test]
    fn excessive_fill_rejected() {
        // One long row among many short ones.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for c in 0..n {
            coo.push(0, c, 1.0);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert!(EllMatrix::from_csr(&csr, 2.0).is_none());
        assert!(EllMatrix::from_csr(&csr, 100.0).is_some());
    }

    #[test]
    fn column_major_layout() {
        let e = EllMatrix::from_csr(&irregular(), 10.0).unwrap();
        // k = 0 entries of each row occupy the first n_rows slots.
        assert_eq!(&e.cols[0..3], &[1, 0, 0]);
        assert_eq!(e.cols[3], ELL_PAD); // row 0 has no 2nd entry
    }
}

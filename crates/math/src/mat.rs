//! Small dense row-major matrices and vectors.
//!
//! The matrices that flow through ORIANNA's factor-computation and
//! factor-graph-inference blocks are small (a handful of rows/columns — see
//! Fig. 17 of the paper), so a simple contiguous row-major layout with
//! straightforward loops is both adequate and easy to audit. Every routine
//! that performs multiply–accumulates reports them to [`crate::macs`] so
//! that arithmetic-cost experiments (Sec. 4.3, baseline models) can observe
//! the exact operation counts.

use crate::macs;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major `f64` matrix.
///
/// # Example
/// ```
/// use orianna_math::Mat;
/// let i = Mat::identity(3);
/// assert_eq!(i[(1, 1)], 1.0);
/// assert_eq!(i[(0, 1)], 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>12.6} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Mat {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_mat(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        crate::panel::matmul_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        macs::record(self.rows * self.cols * rhs.cols);
        out
    }

    /// Allocation-free matrix product: writes `self * rhs` into `out`,
    /// which must already have the result shape. Used by the parallel hot
    /// paths together with [`crate::scratch`] so steady-state workers
    /// perform no per-operation allocation.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_mat_into(&self, rhs: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        crate::panel::matmul_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        macs::record(self.rows * self.cols * rhs.cols);
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, v: &Vec64) -> Vec64 {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = Vec64::zeros(self.rows);
        for r in 0..self.rows {
            let mut acc = 0.0;
            for c in 0..self.cols {
                acc += self[(r, c)] * v[c];
            }
            out[r] = acc;
        }
        macs::record(self.rows * self.cols);
        out
    }

    /// Returns `self * s` for a scalar `s`.
    pub fn scale(&self, s: f64) -> Mat {
        macs::record(self.data.len());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        macs::record(self.data.len());
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry; zero for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Copies `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Mat) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block out of range"
        );
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(r0 + r, c0 + c)] = block[(r, c)];
            }
        }
    }

    /// Extracts the sub-matrix of shape `(nr, nc)` whose top-left corner is
    /// at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the requested block is out of range.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Mat {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of range"
        );
        let mut out = Mat::zeros(nr, nc);
        for r in 0..nr {
            for c in 0..nc {
                out[(r, c)] = self[(r0 + r, c0 + c)];
            }
        }
        out
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Mat {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Number of entries with magnitude above `tol`.
    pub fn nnz(&self, tol: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > tol).count()
    }

    /// Fraction of entries with magnitude above `tol`; 0 for empty matrices.
    pub fn density(&self, tol: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.nnz(tol) as f64 / self.data.len() as f64
    }

    /// True when every sub-diagonal entry is (almost) zero.
    pub fn is_upper_triangular(&self, tol: f64) -> bool {
        for r in 1..self.rows {
            for c in 0..r.min(self.cols) {
                if self[(r, c)].abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is (numerically) singular. Used as a
    /// ground-truth oracle in tests and by the dense normal-equations path.
    ///
    /// # Panics
    /// Panics if `self` is not square or `b` has the wrong length.
    pub fn solve_dense(&self, b: &Vec64) -> Option<Vec64> {
        assert_eq!(self.rows, self.cols, "solve_dense requires a square matrix");
        assert_eq!(self.rows, b.len(), "rhs length mismatch");
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..n {
                if a[(r, col)].abs() > a[(piv, col)].abs() {
                    piv = r;
                }
            }
            if a[(piv, col)].abs() < 1e-13 {
                return None;
            }
            if piv != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(piv, c)];
                    a[(piv, c)] = tmp;
                }
                let tmp = x[col];
                x[col] = x[piv];
                x[piv] = tmp;
            }
            for r in col + 1..n {
                let f = a[(r, col)] / a[(col, col)];
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[(r, c)] -= f * a[(col, c)];
                }
                x[r] -= f * x[col];
                macs::record(n - col + 1);
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in col + 1..n {
                acc -= a[(col, c)] * x[c];
            }
            x[col] = acc / a[(col, col)];
            macs::record(n - col);
        }
        Some(x)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        macs::record(self.data.len());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        macs::record(self.data.len());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        self.mul_mat(rhs)
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| -x).collect(),
        }
    }
}

/// A dense `f64` vector.
///
/// # Example
/// ```
/// use orianna_math::Vec64;
/// let v = Vec64::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Vec64 {
    data: Vec<f64>,
}

impl fmt::Debug for Vec64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vec64 {:?}", self.data)
    }
}

impl Vec64 {
    /// Creates a vector of zeros of the given length.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Builds a vector by copying the slice.
    pub fn from_slice(s: &[f64]) -> Self {
        Self { data: s.to_vec() }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the contents.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Euclidean (2-) norm.
    pub fn norm(&self) -> f64 {
        macs::record(self.data.len());
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, rhs: &Vec64) -> f64 {
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        macs::record(self.data.len());
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f64) -> Vec64 {
        macs::record(self.data.len());
        Vec64 {
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// [`Vec64::scale`] into a caller-owned buffer (resized to this
    /// length, reusing its capacity): identical values and MAC record.
    pub fn scale_into(&self, s: f64, out: &mut Vec64) {
        macs::record(self.data.len());
        out.data.clear();
        out.data.extend(self.data.iter().map(|x| x * s));
    }

    /// Copies `seg` into `self` starting at index `at`.
    ///
    /// # Panics
    /// Panics if the segment does not fit.
    pub fn set_segment(&mut self, at: usize, seg: &Vec64) {
        assert!(at + seg.len() <= self.len(), "segment out of range");
        self.data[at..at + seg.len()].copy_from_slice(&seg.data);
    }

    /// Extracts `n` entries starting at `at`.
    ///
    /// # Panics
    /// Panics if the segment is out of range.
    pub fn segment(&self, at: usize, n: usize) -> Vec64 {
        assert!(at + n <= self.len(), "segment out of range");
        Vec64::from_slice(&self.data[at..at + n])
    }

    /// Appends all entries of `other`.
    pub fn extend(&mut self, other: &Vec64) {
        self.data.extend_from_slice(&other.data);
    }

    /// Interprets the vector as an `n×1` matrix.
    pub fn to_col_mat(&self) -> Mat {
        Mat::from_row_major(self.len(), 1, &self.data)
    }
}

impl Index<usize> for Vec64 {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vec64 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vec64 {
    type Output = Vec64;
    fn add(self, rhs: &Vec64) -> Vec64 {
        assert_eq!(self.len(), rhs.len(), "add length mismatch");
        macs::record(self.data.len());
        Vec64 {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vec64 {
    type Output = Vec64;
    fn sub(self, rhs: &Vec64) -> Vec64 {
        assert_eq!(self.len(), rhs.len(), "sub length mismatch");
        macs::record(self.data.len());
        Vec64 {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Vec64 {
    type Output = Vec64;
    fn neg(self) -> Vec64 {
        Vec64 {
            data: self.data.iter().map(|x| -x).collect(),
        }
    }
}

impl FromIterator<f64> for Vec64 {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vec64 {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(i.mul_mat(&a), a);
        assert_eq!(a.mul_mat(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 5);
        assert_eq!(a.mul_mat(&b).shape(), (2, 5));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.mul_mat(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn mul_vec_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Vec64::from_slice(&[1.0, -1.0]);
        assert_eq!(a.mul_vec(&v).as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn block_roundtrip() {
        let mut a = Mat::zeros(4, 4);
        let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.set_block(1, 2, &b);
        assert_eq!(a.block(1, 2, 2, 2), b);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(1, 2)], 1.0);
    }

    #[test]
    fn vstack_shapes_and_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s[(2, 1)], 6.0);
    }

    #[test]
    fn density_and_nnz() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        assert_eq!(a.nnz(1e-12), 1);
        assert!((a.density(1e-12) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn upper_triangular_detection() {
        let u = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]);
        let l = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 3.0]]);
        assert!(u.is_upper_triangular(1e-12));
        assert!(!l.is_upper_triangular(1e-12));
    }

    #[test]
    fn solve_dense_recovers_solution() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = Vec64::from_slice(&[1.0, 2.0]);
        let b = a.mul_vec(&x_true);
        let x = a.solve_dense(&b).unwrap();
        for i in 0..2 {
            assert!((x[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_dense_singular_returns_none() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let b = Vec64::from_slice(&[1.0, 2.0]);
        assert!(a.solve_dense(&b).is_none());
    }

    #[test]
    fn solve_dense_requires_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Vec64::from_slice(&[2.0, 3.0]);
        let x = a.solve_dense(&b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vector_ops() {
        let a = Vec64::from_slice(&[1.0, 2.0]);
        let b = Vec64::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn vector_segments() {
        let mut v = Vec64::zeros(5);
        v.set_segment(2, &Vec64::from_slice(&[7.0, 8.0]));
        assert_eq!(v.segment(2, 2).as_slice(), &[7.0, 8.0]);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.shape(), (3, 3));
    }
}

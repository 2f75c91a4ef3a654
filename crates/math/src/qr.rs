//! QR decompositions.
//!
//! Factor-graph inference (Fig. 5 of the paper) eliminates one variable at a
//! time by running a *partial* QR decomposition on a small dense matrix
//! gathered from the factors adjacent to that variable. This module provides
//! [`householder_qr`], the full QR via Householder reflections that the
//! reference elimination, the incremental solver and the test oracles use.
//! The in-place panel form of the same reflection schedule is
//! [`panel::triangularize`].

use crate::mat::Mat;
use crate::panel;
use crate::scratch;

/// The result of a full QR decomposition `A = Q · R`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Orthogonal factor, `m×m`.
    pub q: Mat,
    /// Upper-triangular (trapezoidal) factor, `m×n`.
    pub r: Mat,
}

/// Full Householder QR of `a` (`m×n`, any shape).
///
/// # Example
/// ```
/// use orianna_math::{householder_qr, Mat};
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let f = householder_qr(&a);
/// let back = f.q.mul_mat(&f.r);
/// assert!((&back - &a).norm() < 1e-12);
/// assert!(f.r.is_upper_triangular(1e-12));
/// ```
pub fn householder_qr(a: &Mat) -> QrFactors {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut q = Mat::identity(m);
    scratch::with_buf(m, |vbuf| {
        for k in 0..n.min(m.saturating_sub(1)) {
            let v = &mut vbuf[..m - k];
            if panel::householder_vector(r.as_slice(), m, n, k, v) {
                panel::reflect_left(r.as_mut_slice(), m, n, v, k);
                panel::reflect_left(q.as_mut_slice(), m, m, v, k);
            }
        }
    });
    // q currently accumulates Hk ... H1; Q = (Hk ... H1)^T.
    QrFactors {
        q: q.transpose(),
        r: zero_below_diag(r),
    }
}

fn zero_below_diag(mut r: Mat) -> Mat {
    let (m, n) = r.shape();
    for row in 1..m {
        for col in 0..row.min(n) {
            r[(row, col)] = 0.0;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like(rows: usize, cols: usize, seed: u64) -> Mat {
        // Simple deterministic pseudo-random fill (xorshift).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Mat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = next();
            }
        }
        m
    }

    #[test]
    fn householder_reconstructs() {
        for (rows, cols, seed) in [(4, 4, 1), (6, 3, 2), (3, 5, 3), (8, 8, 4)] {
            let a = random_like(rows, cols, seed);
            let f = householder_qr(&a);
            assert!((&f.q.mul_mat(&f.r) - &a).norm() < 1e-10, "{rows}x{cols}");
            assert!(f.r.is_upper_triangular(1e-10));
            // Q orthogonal.
            let qtq = f.q.transpose().mul_mat(&f.q);
            assert!((&qtq - &Mat::identity(rows)).norm() < 1e-10);
        }
    }

    #[test]
    fn householder_preserves_column_norms() {
        let a = random_like(5, 3, 7);
        let f = householder_qr(&a);
        // |A e_j| == |R e_j| since Q is orthogonal.
        for c in 0..3 {
            let an: f64 = (0..5).map(|r| a[(r, c)] * a[(r, c)]).sum::<f64>().sqrt();
            let rn: f64 = (0..5)
                .map(|r| f.r[(r, c)] * f.r[(r, c)])
                .sum::<f64>()
                .sqrt();
            assert!((an - rn).abs() < 1e-10);
        }
    }

    #[test]
    fn qr_of_already_triangular_is_noop() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let f = householder_qr(&a);
        assert!((&f.r - &a).norm() < 1e-12);
    }
}

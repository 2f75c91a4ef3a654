//! Property-based tests for the Householder QR reference: orthogonality of
//! the accumulated `Q`, reconstruction of `A` and triangularity of `R` —
//! including on rank-deficient tall matrices, which show up whenever a
//! variable is unconstrained in one of its tangent directions.

use orianna_math::{householder_qr, Mat};
use proptest::prelude::*;

fn entry() -> impl Strategy<Value = f64> {
    -2.0f64..2.0
}

/// ‖QᵀQ − I‖ for an `m×m` candidate orthogonal matrix.
fn orthogonality_defect(q: &Mat) -> f64 {
    let m = q.rows();
    (&q.transpose().mul_mat(q) - &Mat::identity(m)).norm()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_deficient_tall_matrix_still_factors(vals in prop::collection::vec(entry(), 12)) {
        // Build a 6×3 matrix whose third column is a linear combination of
        // the first two — rank ≤ 2 by construction.
        let base = Mat::from_row_major(6, 2, &vals);
        let mut a = Mat::zeros(6, 3);
        for r in 0..6 {
            a[(r, 0)] = base[(r, 0)];
            a[(r, 1)] = base[(r, 1)];
            a[(r, 2)] = 0.5 * base[(r, 0)] - 1.5 * base[(r, 1)];
        }
        let f = householder_qr(&a);
        prop_assert!(orthogonality_defect(&f.q) < 1e-10, "defect {}", orthogonality_defect(&f.q));
        prop_assert!((&f.q.mul_mat(&f.r) - &a).norm() < 1e-10);
        prop_assert!(f.r.is_upper_triangular(1e-10));
        // Rank deficiency must surface as a (near-)zero trailing diagonal.
        prop_assert!(f.r[(2, 2)].abs() < 1e-9, "r22 = {}", f.r[(2, 2)]);
    }
}

#[test]
fn zero_matrix_needs_no_reflections() {
    let a = Mat::zeros(5, 3);
    let f = householder_qr(&a);
    // Every column is already zero below the diagonal, so no reflection
    // is applied: Q stays exactly the identity and R exactly zero.
    assert_eq!(f.q.as_slice(), Mat::identity(5).as_slice());
    assert_eq!(f.r.as_slice(), a.as_slice());
}

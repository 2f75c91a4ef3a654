//! The 3D rotation group SO(3) and its Lie algebra so(3).
//!
//! Implements the primitive operations of the paper's Tbl. 3 that involve
//! rotations: `Exp`, `Log`, hat (skew-symmetric, `(·)^`), the right Jacobian
//! `Jr(·)` and its inverse `Jr⁻¹(·)`, rotation transpose (`RT`), rotation
//! composition (`RR`), and rotation–vector products (`RV`). Formulas follow
//! Solà et al., *A micro Lie theory for state estimation in robotics*
//! (paper reference \[55\]).

use crate::SMALL_ANGLE;
use orianna_math::{macs, Mat};

/// A rotation in SO(3), stored as an orthonormal 3×3 matrix.
///
/// # Example
/// ```
/// use orianna_lie::Rot3;
/// let r = Rot3::exp([0.0, 0.0, std::f64::consts::FRAC_PI_2]);
/// let v = r.rotate([1.0, 0.0, 0.0]);
/// assert!((v[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rot3 {
    m: [[f64; 3]; 3],
}

impl Default for Rot3 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Rot3 {
    /// The identity rotation.
    pub fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Builds a rotation from a row-major 3×3 array.
    ///
    /// The caller is responsible for orthonormality; see
    /// [`Rot3::is_orthonormal`] to verify.
    pub fn from_matrix(m: [[f64; 3]; 3]) -> Self {
        Self { m }
    }

    /// Exponential map so(3) → SO(3) (Rodrigues' formula).
    ///
    /// `Exp(φ) = I + sinθ/θ · φ^ + (1−cosθ)/θ² · (φ^)²` with `θ = |φ|`.
    pub fn exp(phi: [f64; 3]) -> Self {
        let theta2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2];
        let theta = theta2.sqrt();
        let (a, b) = if theta < SMALL_ANGLE {
            // sinθ/θ ≈ 1 − θ²/6, (1−cosθ)/θ² ≈ 1/2 − θ²/24
            (1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0)
        } else {
            (theta.sin() / theta, (1.0 - theta.cos()) / theta2)
        };
        let k = hat(phi);
        let k2 = mat3_mul(&k, &k);
        let mut m = [[0.0; 3]; 3];
        for r in 0..3 {
            for c in 0..3 {
                m[r][c] = if r == c { 1.0 } else { 0.0 } + a * k[r][c] + b * k2[r][c];
            }
        }
        macs::record(3 * 3 * 3 + 2 * 9 + 4); // k², blend, trig-class ops
        Self { m }
    }

    /// Logarithmic map SO(3) → so(3).
    ///
    /// Robust across the full angle range including θ near 0 and π.
    pub fn log(&self) -> [f64; 3] {
        let m = &self.m;
        let trace = m[0][0] + m[1][1] + m[2][2];
        let cos_theta = ((trace - 1.0) * 0.5).clamp(-1.0, 1.0);
        let theta = cos_theta.acos();
        macs::record(12);
        if theta < SMALL_ANGLE {
            // ω ≈ ½ vee(R − Rᵀ) for small angles.
            return [
                0.5 * (m[2][1] - m[1][2]),
                0.5 * (m[0][2] - m[2][0]),
                0.5 * (m[1][0] - m[0][1]),
            ];
        }
        if (std::f64::consts::PI - theta) < 1e-6 {
            // Near π: extract axis from the symmetric part
            // R ≈ I·cosθ + (1−cosθ) a aᵀ ⇒ a aᵀ = (R + I) / (1 + trace/... )
            // Use diagonal-dominant extraction.
            let xx = (m[0][0] - cos_theta) / (1.0 - cos_theta);
            let yy = (m[1][1] - cos_theta) / (1.0 - cos_theta);
            let zz = (m[2][2] - cos_theta) / (1.0 - cos_theta);
            let mut axis = [xx.max(0.0).sqrt(), yy.max(0.0).sqrt(), zz.max(0.0).sqrt()];
            // Pick the largest component as the sign anchor and fix the
            // other signs from off-diagonal sums.
            let k = if axis[0] >= axis[1] && axis[0] >= axis[2] {
                0
            } else if axis[1] >= axis[2] {
                1
            } else {
                2
            };
            match k {
                0 => {
                    axis[1] = axis[1].copysign(m[0][1] + m[1][0]);
                    axis[2] = axis[2].copysign(m[0][2] + m[2][0]);
                }
                1 => {
                    axis[0] = axis[0].copysign(m[0][1] + m[1][0]);
                    axis[2] = axis[2].copysign(m[1][2] + m[2][1]);
                }
                _ => {
                    axis[0] = axis[0].copysign(m[0][2] + m[2][0]);
                    axis[1] = axis[1].copysign(m[1][2] + m[2][1]);
                }
            }
            let n = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
            // Disambiguate the overall sign with the skew part (may vanish
            // exactly at π, where both signs are equivalent).
            let skew = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1]];
            let dot = axis[0] * skew[0] + axis[1] * skew[1] + axis[2] * skew[2];
            let sign = if dot < 0.0 { -1.0 } else { 1.0 };
            return [
                sign * theta * axis[0] / n,
                sign * theta * axis[1] / n,
                sign * theta * axis[2] / n,
            ];
        }
        let f = theta / (2.0 * theta.sin());
        [
            f * (m[2][1] - m[1][2]),
            f * (m[0][2] - m[2][0]),
            f * (m[1][0] - m[0][1]),
        ]
    }

    /// Rotation composition `self · rhs` (the paper's `RR` primitive).
    pub fn compose(&self, rhs: &Rot3) -> Rot3 {
        macs::record(27);
        Rot3 {
            m: mat3_mul(&self.m, &rhs.m),
        }
    }

    /// Transpose / inverse rotation (the paper's `RT` primitive).
    pub fn transpose(&self) -> Rot3 {
        let m = &self.m;
        Rot3 {
            m: [
                [m[0][0], m[1][0], m[2][0]],
                [m[0][1], m[1][1], m[2][1]],
                [m[0][2], m[1][2], m[2][2]],
            ],
        }
    }

    /// Rotates a vector (the paper's `RV` primitive).
    pub fn rotate(&self, v: [f64; 3]) -> [f64; 3] {
        macs::record(9);
        let m = &self.m;
        [
            m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
        ]
    }

    /// Row-major matrix view.
    pub fn matrix(&self) -> [[f64; 3]; 3] {
        self.m
    }

    /// Conversion to a dense [`Mat`].
    pub fn to_mat(&self) -> Mat {
        Mat::from_rows(&[&self.m[0], &self.m[1], &self.m[2]])
    }

    /// True when `RᵀR = I` and `det R = 1` within `tol`.
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        let t = self.transpose().compose(self);
        let mut ok = true;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                ok &= (t.m[r][c] - expect).abs() < tol;
            }
        }
        ok && (det3(&self.m) - 1.0).abs() < tol
    }
}

/// Skew-symmetric (hat) operator `(·)^` of Tbl. 3: `hat(v) w = v × w`.
pub fn hat(v: [f64; 3]) -> [[f64; 3]; 3] {
    [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
}

/// Inverse of [`hat`]: extracts the vector from a skew-symmetric matrix.
pub fn vee(m: &[[f64; 3]; 3]) -> [f64; 3] {
    [m[2][1], m[0][2], m[1][0]]
}

/// Right Jacobian of SO(3) (`Jr(·)` of Tbl. 3):
/// `Exp(φ + δ) ≈ Exp(φ) · Exp(Jr(φ) δ)`.
pub fn right_jacobian(phi: [f64; 3]) -> Mat {
    let m = right_jacobian_array(phi);
    Mat::from_rows(&[&m[0], &m[1], &m[2]])
}

/// [`right_jacobian`] as a row-major array: identical arithmetic and MAC
/// record, no allocation.
pub fn right_jacobian_array(phi: [f64; 3]) -> [[f64; 3]; 3] {
    let theta2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2];
    let theta = theta2.sqrt();
    let k = hat(phi);
    let k2 = mat3_mul(&k, &k);
    let (a, b) = if theta < SMALL_ANGLE {
        (0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0)
    } else {
        (
            (1.0 - theta.cos()) / theta2,
            (theta - theta.sin()) / (theta2 * theta),
        )
    };
    macs::record(27 + 2 * 9 + 6);
    let mut out = IDENTITY3;
    for r in 0..3 {
        for c in 0..3 {
            out[r][c] += -a * k[r][c] + b * k2[r][c];
        }
    }
    out
}

/// Inverse right Jacobian of SO(3) (`Jr⁻¹(·)` of Tbl. 3).
pub fn right_jacobian_inv(phi: [f64; 3]) -> Mat {
    let m = right_jacobian_inv_array(phi);
    Mat::from_rows(&[&m[0], &m[1], &m[2]])
}

/// [`right_jacobian_inv`] as a row-major array: identical arithmetic and
/// MAC record, no allocation.
pub fn right_jacobian_inv_array(phi: [f64; 3]) -> [[f64; 3]; 3] {
    let theta2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2];
    let theta = theta2.sqrt();
    let k = hat(phi);
    let k2 = mat3_mul(&k, &k);
    let b = if theta < SMALL_ANGLE {
        1.0 / 12.0 + theta2 / 720.0
    } else {
        1.0 / theta2 - (1.0 + theta.cos()) / (2.0 * theta * theta.sin())
    };
    macs::record(27 + 2 * 9 + 6);
    let mut out = IDENTITY3;
    for r in 0..3 {
        for c in 0..3 {
            out[r][c] += 0.5 * k[r][c] + b * k2[r][c];
        }
    }
    out
}

const IDENTITY3: [[f64; 3]; 3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];

pub(crate) fn mat3_mul(a: &[[f64; 3]; 3], b: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let mut out = [[0.0; 3]; 3];
    for r in 0..3 {
        for c in 0..3 {
            out[r][c] = a[r][0] * b[0][c] + a[r][1] * b[1][c] + a[r][2] * b[2][c];
        }
    }
    out
}

fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm3(v: [f64; 3]) -> f64 {
        (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
    }

    fn sub3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    #[test]
    fn exp_of_zero_is_identity() {
        assert_eq!(Rot3::exp([0.0; 3]), Rot3::identity());
    }

    #[test]
    fn exp_is_orthonormal() {
        for phi in [
            [0.1, 0.2, 0.3],
            [1.0, -2.0, 0.5],
            [3.0, 0.0, 0.0],
            [1e-10, 0.0, 1e-10],
        ] {
            assert!(Rot3::exp(phi).is_orthonormal(1e-12), "{phi:?}");
        }
    }

    #[test]
    fn log_exp_roundtrip() {
        for phi in [
            [0.1, 0.2, 0.3],
            [-0.5, 0.4, 0.9],
            [1.5, -1.0, 0.7],
            [1e-10, 2e-10, -1e-10],
            [0.0, 0.0, 3.0],
        ] {
            let back = Rot3::exp(phi).log();
            assert!(norm3(sub3(back, phi)) < 1e-9, "{phi:?} -> {back:?}");
        }
    }

    #[test]
    fn log_near_pi_is_robust() {
        // Angle π−ε about various axes.
        for axis in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.577, 0.577, 0.577]] {
            let n = norm3(axis);
            let theta = std::f64::consts::PI - 1e-9;
            let phi = [
                axis[0] / n * theta,
                axis[1] / n * theta,
                axis[2] / n * theta,
            ];
            let back = Rot3::exp(phi).log();
            // Recovered rotation must equal the original rotation.
            let diff = Rot3::exp(phi).transpose().compose(&Rot3::exp(back));
            assert!(norm3(diff.log()) < 1e-6, "{phi:?} -> {back:?}");
        }
    }

    #[test]
    fn compose_matches_angle_addition_same_axis() {
        let a = Rot3::exp([0.0, 0.0, 0.3]);
        let b = Rot3::exp([0.0, 0.0, 0.4]);
        let c = a.compose(&b).log();
        assert!((c[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn transpose_is_inverse() {
        let r = Rot3::exp([0.4, -0.2, 0.9]);
        let i = r.compose(&r.transpose());
        assert!(norm3(i.log()) < 1e-12);
    }

    #[test]
    fn rotate_preserves_norm() {
        let r = Rot3::exp([0.3, 0.1, -0.7]);
        let v = [1.0, 2.0, 3.0];
        assert!((norm3(r.rotate(v)) - norm3(v)).abs() < 1e-12);
    }

    #[test]
    fn hat_vee_roundtrip_and_cross_product() {
        let v = [1.0, -2.0, 0.5];
        let h = hat(v);
        assert_eq!(vee(&h), v);
        // hat(v) w == v × w
        let w = [0.3, 0.7, -1.1];
        let hw = [
            h[0][0] * w[0] + h[0][1] * w[1] + h[0][2] * w[2],
            h[1][0] * w[0] + h[1][1] * w[1] + h[1][2] * w[2],
            h[2][0] * w[0] + h[2][1] * w[1] + h[2][2] * w[2],
        ];
        let cross = [
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        ];
        assert!(norm3(sub3(hw, cross)) < 1e-12);
    }

    #[test]
    fn right_jacobian_first_order_property() {
        // Exp(φ + δ) ≈ Exp(φ) Exp(Jr(φ) δ) to first order.
        let phi = [0.4, -0.3, 0.8];
        let delta = [1e-6, -2e-6, 1.5e-6];
        let lhs = Rot3::exp([phi[0] + delta[0], phi[1] + delta[1], phi[2] + delta[2]]);
        let jr = right_jacobian(phi);
        let jd = jr.mul_vec(&orianna_math::Vec64::from_slice(&delta));
        let rhs = Rot3::exp(phi).compose(&Rot3::exp([jd[0], jd[1], jd[2]]));
        let err = lhs.transpose().compose(&rhs).log();
        assert!(norm3(err) < 1e-11, "{err:?}");
    }

    #[test]
    fn right_jacobian_inverse_is_inverse() {
        for phi in [[0.1, 0.2, 0.3], [1.2, -0.4, 0.9], [1e-10, 0.0, 0.0]] {
            let jr = right_jacobian(phi);
            let jri = right_jacobian_inv(phi);
            let prod = jr.mul_mat(&jri);
            assert!((&prod - &Mat::identity(3)).norm() < 1e-9, "{phi:?}");
        }
    }

    #[test]
    fn right_jacobian_at_zero_is_identity() {
        assert!((&right_jacobian([0.0; 3]) - &Mat::identity(3)).norm() < 1e-12);
        assert!((&right_jacobian_inv([0.0; 3]) - &Mat::identity(3)).norm() < 1e-12);
    }

    #[test]
    fn to_mat_matches_matrix() {
        let r = Rot3::exp([0.2, 0.3, -0.1]);
        let m = r.to_mat();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], r.matrix()[i][j]);
            }
        }
    }
}

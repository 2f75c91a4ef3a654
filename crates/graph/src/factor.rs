//! The factor-node abstraction.
//!
//! Each factor constrains a set of variables with a vector-valued error
//! function `f(x)` (paper Equ. 1). During Gauss-Newton, a factor is
//! *linearized*: it contributes one block row to the coefficient matrix `A`
//! and the RHS vector `b` of the linear system `A Δ = b` (paper Fig. 4) —
//! `J_i` blocks in the columns of its connected variables and `−e` on the
//! right-hand side, both whitened by the measurement noise.

use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_lie::{Pose2, Pose3};
use orianna_math::{macs, panel, Mat, Vec64};

/// A factor node: a residual over one or more variables.
///
/// Implementations must keep [`Factor::error`], [`Factor::jacobians`] and
/// [`Factor::linearize_into`] consistent: the Jacobians are verified
/// against finite differences of `error` throughout the test-suite.
pub trait Factor: Send + Sync {
    /// The variables this factor connects, in Jacobian-block order.
    fn keys(&self) -> &[VarId];

    /// Dimension of the error vector.
    fn dim(&self) -> usize;

    /// Unwhitened error `f(x)` at the given estimates.
    fn error(&self, values: &Values) -> Vec64;

    /// Unwhitened Jacobian blocks `∂f/∂δxᵢ` (tangent-space, right
    /// perturbation), one per key, in key order.
    fn jacobians(&self, values: &Values) -> Vec<Mat>;

    /// Isotropic measurement noise σ; whitening multiplies the error and
    /// Jacobians by `1/σ`.
    fn sigma(&self) -> f64 {
        1.0
    }

    /// Human-readable factor-type name (for traces and diagnostics).
    fn name(&self) -> &'static str;

    /// Structural description used by the ORIANNA compiler to build this
    /// factor's MO-DFG (paper Sec. 5.2). [`FactorKind::Opaque`] factors are
    /// handled numerically (custom user factors without an expression).
    fn kind(&self) -> FactorKind {
        FactorKind::Opaque
    }

    /// Whitened linearization written into `out`: block `i` becomes
    /// `Jᵢ/σ` and the right-hand side `−e/σ` (the solver builds
    /// `A Δ = b` from these rows). `out` may hold the row of an earlier
    /// linearization; its buffers are reused when their shapes match.
    ///
    /// The default builds the row from [`Factor::jacobians`] and
    /// [`Factor::error`], so custom factors only implement those two. The
    /// built-in factors override it to write straight into `out` from
    /// fixed-size temporaries, allocation-free once `out` is shaped and
    /// bitwise identical (MAC counts included) to the default.
    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma();
        let jacs = self.jacobians(values);
        out.keys.clear();
        out.keys.extend_from_slice(self.keys());
        out.blocks.clear();
        out.blocks.extend(jacs.iter().map(|j| j.scale(w)));
        out.rhs = -&self.error(values).scale(w);
    }

    /// Whitened squared error `|f(x)/σ|²` — the quantity Gauss-Newton
    /// minimizes.
    fn weighted_squared_error(&self, values: &Values) -> f64 {
        let e = self.error(values);
        let w = 1.0 / self.sigma();
        let we = e.scale(w);
        we.dot(&we)
    }
}

/// `|w·e|²` with the arithmetic and MAC record of the default
/// [`Factor::weighted_squared_error`] (`e.scale(w)` then a dot product),
/// for factors that evaluate `e` into a stack array.
pub(crate) fn whitened_sq(e: &[f64], w: f64) -> f64 {
    macs::record(2 * e.len());
    e.iter().map(|x| x * w).map(|a| a * a).sum()
}

/// Fixed-size matrix product on row-major arrays through the same kernel
/// as [`Mat::mul_mat`], so the result and the MAC record are identical.
pub(crate) fn mat_mul<const M: usize, const K: usize, const N: usize>(
    a: &[[f64; K]; M],
    b: &[[f64; N]; K],
) -> [[f64; N]; M] {
    let mut out = [[0.0; N]; M];
    panel::matmul_into(
        out.as_flattened_mut(),
        a.as_flattened(),
        b.as_flattened(),
        M,
        K,
        N,
    );
    macs::record(M * K * N);
    out
}

/// `s·m` on a row-major array with the MAC record of [`Mat::scale`].
pub(crate) fn scaled<const R: usize, const C: usize>(m: [[f64; C]; R], s: f64) -> [[f64; C]; R] {
    macs::record(R * C);
    m.map(|row| row.map(|x| x * s))
}

/// Copies `src` into `dst` with its top-left corner at `(r0, c0)`, like
/// [`Mat::set_block`].
pub(crate) fn set_block<const R: usize, const C: usize, const BR: usize, const BC: usize>(
    dst: &mut [[f64; C]; R],
    r0: usize,
    c0: usize,
    src: &[[f64; BC]; BR],
) {
    for (drow, srow) in dst[r0..r0 + BR].iter_mut().zip(src) {
        drow[c0..c0 + BC].copy_from_slice(srow);
    }
}

/// Fixed-size matrix–vector product with the arithmetic and MAC record of
/// [`Mat::mul_vec`].
pub(crate) fn mat_vec<const M: usize, const K: usize>(a: &[[f64; K]; M], v: &[f64; K]) -> [f64; M] {
    macs::record(M * K);
    let mut out = [0.0; M];
    for (o, row) in out.iter_mut().zip(a) {
        let mut acc = 0.0;
        for (x, y) in row.iter().zip(v) {
            acc += x * y;
        }
        *o = acc;
    }
    out
}

/// Structural description of a factor, consumed by `orianna-compiler` to
/// generate the matrix-operation data-flow graph that computes the factor's
/// error and derivatives on the accelerator.
#[derive(Debug, Clone)]
pub enum FactorKind {
    /// Prior on a planar pose: `e = x ⊖ z`.
    PriorPose2 { z: Pose2 },
    /// Prior on a spatial pose: `e = x ⊖ z`.
    PriorPose3 { z: Pose3 },
    /// Relative-pose constraint `e = (x_j ⊖ x_i) ⊖ z` (planar). Covers
    /// odometry, LiDAR scan-matching, and IMU preintegration factors.
    BetweenPose2 { z: Pose2 },
    /// Relative-pose constraint `e = (x_j ⊖ x_i) ⊖ z` (spatial).
    BetweenPose3 { z: Pose3 },
    /// Position observation `e = t(x) − z` (GPS-class), `n`-dimensional.
    Gps { z: Vec64 },
    /// Pinhole camera observation of a 3D landmark from a spatial pose.
    Camera {
        pixel: [f64; 2],
        fx: f64,
        fy: f64,
        cx: f64,
        cy: f64,
    },
    /// Linear factor `e = Σᵢ Aᵢ xᵢ − b` over vector variables (smoothness,
    /// kinematic transition, dynamics, vector priors).
    LinearVector { blocks: Vec<Mat>, rhs: Vec64 },
    /// Hinge obstacle-distance factor (collision avoidance).
    Collision {
        obstacles: Vec<([f64; 2], f64)>,
        safety: f64,
    },
    /// No structural description available; the compiler falls back to a
    /// numeric lowering for such factors.
    Opaque,
}

impl FactorKind {
    /// Short tag for statistics and traces.
    pub fn tag(&self) -> &'static str {
        match self {
            FactorKind::PriorPose2 { .. } => "prior2",
            FactorKind::PriorPose3 { .. } => "prior3",
            FactorKind::BetweenPose2 { .. } => "between2",
            FactorKind::BetweenPose3 { .. } => "between3",
            FactorKind::Gps { .. } => "gps",
            FactorKind::Camera { .. } => "camera",
            FactorKind::LinearVector { .. } => "linear",
            FactorKind::Collision { .. } => "collision",
            FactorKind::Opaque => "opaque",
        }
    }
}

/// Verifies `jacobians()` against central finite differences of `error()`.
///
/// Returns the maximum absolute deviation across all blocks. Used widely in
/// tests; exposed publicly so downstream crates (and users writing custom
/// factors) can validate their derivatives.
pub fn check_jacobians(factor: &dyn Factor, values: &Values, h: f64) -> f64 {
    let jacs = factor.jacobians(values);
    let mut worst: f64 = 0.0;
    for (k, &key) in factor.keys().iter().enumerate() {
        let var = values.get(key);
        let dim = var.dim();
        let mut numeric = Mat::zeros(factor.dim(), dim);
        for d in 0..dim {
            let mut dplus = vec![0.0; dim];
            dplus[d] = h;
            let mut dminus = vec![0.0; dim];
            dminus[d] = -h;
            let mut vplus = values.clone();
            vplus.set(key, var.retract(&dplus));
            let mut vminus = values.clone();
            vminus.set(key, var.retract(&dminus));
            let ep = factor.error(&vplus);
            let em = factor.error(&vminus);
            for r in 0..factor.dim() {
                numeric[(r, d)] = (ep[r] - em[r]) / (2.0 * h);
            }
        }
        worst = worst.max((&jacs[k] - &numeric).max_abs());
    }
    worst
}

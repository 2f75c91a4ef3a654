//! Constraint factors over flat vector variables (planning & control).
//!
//! Planning graphs (paper Fig. 7a) connect trajectory states with *smooth*
//! factors; control graphs (Fig. 7b) connect states and control inputs with
//! *dynamics* factors and pull them toward references with *cost* factors.
//! All of these are (affine-)linear in the variables, so their Jacobian
//! blocks are configuration-independent — which is exactly why the ORIANNA
//! compiler emits constant-matrix loads for them rather than derivative
//! chains.

use crate::factor::{whitened_sq, Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_math::{macs, Mat, Vec64};

/// Shared implementation of affine factors `e = Σᵢ Aᵢ xᵢ − b` over vector
/// variables.
#[derive(Debug, Clone)]
struct AffineCore {
    keys: Vec<VarId>,
    blocks: Vec<Mat>,
    rhs: Vec64,
    sigma: f64,
    name: &'static str,
}

impl AffineCore {
    fn dim(&self) -> usize {
        self.rhs.len()
    }

    fn error(&self, values: &Values) -> Vec64 {
        self.record_error_macs();
        (0..self.dim()).map(|r| self.error_row(values, r)).collect()
    }

    /// Row `r` of the error: `−b_r` plus, key by key, the row's ascending
    /// dot product. The MACs are recorded once per evaluation by
    /// [`AffineCore::record_error_macs`].
    fn error_row(&self, values: &Values, r: usize) -> f64 {
        let mut e = -self.rhs[r];
        for (key, a) in self.keys.iter().zip(&self.blocks) {
            let x = values.get(*key).as_vector();
            assert_eq!(a.cols(), x.len(), "matvec dimension mismatch");
            let mut acc = 0.0;
            for (aij, xj) in a.row(r).iter().zip(x.as_slice()) {
                acc += aij * xj;
            }
            e += acc;
        }
        e
    }

    /// The MACs of one error evaluation: one mat-vec and one vector add
    /// per key.
    fn record_error_macs(&self) {
        for a in &self.blocks {
            macs::record(a.rows() * a.cols() + a.rows());
        }
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        let rows = self.dim();
        out.reshape(&self.keys, rows, self.blocks.iter().map(Mat::cols));
        for (k, a) in self.blocks.iter().enumerate() {
            out.put_block(k, a.as_slice(), w);
        }
        self.record_error_macs();
        macs::record(rows);
        for r in 0..rows {
            out.rhs[r] = -(self.error_row(values, r) * w);
        }
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        let w = 1.0 / self.sigma;
        self.record_error_macs();
        macs::record(2 * self.dim());
        (0..self.dim())
            .map(|r| self.error_row(values, r) * w)
            .map(|a| a * a)
            .sum()
    }
}

/// Gaussian-process–style smoothness factor between consecutive trajectory
/// states `x_k = [position | velocity]`:
/// `e = x_{k+1} − Φ x_k`, `Φ = [[I, dt·I], [0, I]]` (constant-velocity
/// transition).
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, SmoothFactor};
/// use orianna_math::Vec64;
/// let mut g = FactorGraph::new();
/// let a = g.add_vector(Vec64::zeros(4));
/// let b = g.add_vector(Vec64::zeros(4));
/// g.add_factor(SmoothFactor::new(a, b, 2, 0.1, 0.5));
/// ```
#[derive(Debug, Clone)]
pub struct SmoothFactor(AffineCore);

impl SmoothFactor {
    /// Creates a smoothness factor between states of `2 * pos_dim`
    /// dimensions with time step `dt`.
    pub fn new(xk: VarId, xk1: VarId, pos_dim: usize, dt: f64, sigma: f64) -> Self {
        let n = 2 * pos_dim;
        let mut phi = Mat::identity(n);
        for i in 0..pos_dim {
            phi[(i, pos_dim + i)] = dt;
        }
        Self(AffineCore {
            keys: vec![xk, xk1],
            blocks: vec![phi.scale(-1.0), Mat::identity(n)],
            rhs: Vec64::zeros(n),
            sigma,
            name: "SmoothFactor",
        })
    }
}

impl Factor for SmoothFactor {
    fn keys(&self) -> &[VarId] {
        &self.0.keys
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn error(&self, values: &Values) -> Vec64 {
        self.0.error(values)
    }
    fn jacobians(&self, _values: &Values) -> Vec<Mat> {
        self.0.blocks.clone()
    }
    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        self.0.linearize_into(values, out);
    }
    fn weighted_squared_error(&self, values: &Values) -> f64 {
        self.0.weighted_squared_error(values)
    }
    fn sigma(&self) -> f64 {
        self.0.sigma
    }
    fn name(&self) -> &'static str {
        self.0.name
    }
    fn kind(&self) -> FactorKind {
        FactorKind::LinearVector {
            blocks: self.0.blocks.clone(),
            rhs: self.0.rhs.clone(),
        }
    }
}

/// Kinematics constraint factor. Two flavors (Tbl. 2 lists kinematics in
/// both planning and control):
///
/// * [`KinematicsFactor::transition`] — hard state-transition consistency
///   `e = x_{k+1} − F x_k` for a user-supplied kinematic model `F`,
/// * [`KinematicsFactor::speed_limit`] — soft velocity bound
///   `e = max(0, |v| − v_max)` on the velocity slice of a state.
#[derive(Debug, Clone)]
pub struct KinematicsFactor {
    inner: KinematicsInner,
}

#[derive(Debug, Clone)]
enum KinematicsInner {
    Transition(AffineCore),
    SpeedLimit(SpeedLimit),
}

/// `e = max(0, |x[vel_start .. vel_start + vel_len]| − vmax)`.
#[derive(Debug, Clone)]
struct SpeedLimit {
    keys: [VarId; 1],
    vel_start: usize,
    vel_len: usize,
    vmax: f64,
    sigma: f64,
}

impl SpeedLimit {
    fn state<'v>(&self, values: &'v Values) -> &'v Vec64 {
        values.get(self.keys[0]).as_vector()
    }

    /// Norm of the velocity slice, with the arithmetic and MAC record of
    /// `x.segment(vel_start, vel_len).norm()`.
    fn speed(&self, x: &Vec64) -> f64 {
        let (start, len) = (self.vel_start, self.vel_len);
        assert!(start + len <= x.len(), "segment out of range");
        macs::record(len);
        x.as_slice()[start..start + len]
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
    }

    fn error(&self, x: &Vec64) -> f64 {
        (self.speed(x) - self.vmax).max(0.0)
    }

    /// Writes `w · ∂e/∂x` into `row`: `x_i / |v|` on the velocity slice
    /// while the limit is active, zero elsewhere.
    fn jacobian_row(&self, x: &Vec64, w: f64, row: &mut [f64]) {
        let speed = self.speed(x);
        row.fill(0.0 * w);
        if speed > self.vmax && speed > 1e-12 {
            for i in self.vel_start..self.vel_start + self.vel_len {
                row[i] = (x[i] / speed) * w;
            }
        }
    }
}

impl KinematicsFactor {
    /// State-transition consistency `e = x_{k+1} − F x_k`.
    ///
    /// # Panics
    /// Panics if `f_mat` is not square.
    pub fn transition(xk: VarId, xk1: VarId, f_mat: Mat, sigma: f64) -> Self {
        assert_eq!(f_mat.rows(), f_mat.cols(), "kinematic model must be square");
        let n = f_mat.rows();
        Self {
            inner: KinematicsInner::Transition(AffineCore {
                keys: vec![xk, xk1],
                blocks: vec![f_mat.scale(-1.0), Mat::identity(n)],
                rhs: Vec64::zeros(n),
                sigma,
                name: "KinematicsFactor",
            }),
        }
    }

    /// Soft speed limit on `state[vel_start .. vel_start + vel_len]`.
    pub fn speed_limit(
        key: VarId,
        vel_start: usize,
        vel_len: usize,
        vmax: f64,
        sigma: f64,
    ) -> Self {
        Self {
            inner: KinematicsInner::SpeedLimit(SpeedLimit {
                keys: [key],
                vel_start,
                vel_len,
                vmax,
                sigma,
            }),
        }
    }
}

impl Factor for KinematicsFactor {
    fn keys(&self) -> &[VarId] {
        match &self.inner {
            KinematicsInner::Transition(c) => &c.keys,
            KinematicsInner::SpeedLimit(s) => &s.keys,
        }
    }

    fn dim(&self) -> usize {
        match &self.inner {
            KinematicsInner::Transition(c) => c.dim(),
            KinematicsInner::SpeedLimit(_) => 1,
        }
    }

    fn error(&self, values: &Values) -> Vec64 {
        match &self.inner {
            KinematicsInner::Transition(c) => c.error(values),
            KinematicsInner::SpeedLimit(s) => Vec64::from_slice(&[s.error(s.state(values))]),
        }
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        match &self.inner {
            KinematicsInner::Transition(c) => c.blocks.clone(),
            KinematicsInner::SpeedLimit(s) => {
                let x = s.state(values);
                let mut j = Mat::zeros(1, x.len());
                s.jacobian_row(x, 1.0, j.as_mut_slice());
                vec![j]
            }
        }
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        match &self.inner {
            KinematicsInner::Transition(c) => c.linearize_into(values, out),
            KinematicsInner::SpeedLimit(s) => {
                let w = 1.0 / s.sigma;
                let x = s.state(values);
                let n = x.len();
                out.reshape(&s.keys, 1, [n]);
                // The Jacobian and the error each take the speed's norm;
                // scaling the row by `w` is `n` MACs.
                s.jacobian_row(x, w, out.blocks[0].as_mut_slice());
                macs::record(n);
                out.put_rhs(&[s.error(x)], w);
            }
        }
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        match &self.inner {
            KinematicsInner::Transition(c) => c.weighted_squared_error(values),
            KinematicsInner::SpeedLimit(s) => {
                whitened_sq(&[s.error(s.state(values))], 1.0 / s.sigma)
            }
        }
    }

    fn sigma(&self) -> f64 {
        match &self.inner {
            KinematicsInner::Transition(c) => c.sigma,
            KinematicsInner::SpeedLimit(s) => s.sigma,
        }
    }

    fn name(&self) -> &'static str {
        "KinematicsFactor"
    }

    fn kind(&self) -> FactorKind {
        match &self.inner {
            KinematicsInner::Transition(c) => FactorKind::LinearVector {
                blocks: c.blocks.clone(),
                rhs: c.rhs.clone(),
            },
            KinematicsInner::SpeedLimit(_) => FactorKind::Opaque,
        }
    }
}

/// Dynamics factor for control graphs (Fig. 7b):
/// `e = x_{k+1} − A x_k − B u_k`, keys `[x_k, u_k, x_{k+1}]`.
#[derive(Debug, Clone)]
pub struct DynamicsFactor(AffineCore);

impl DynamicsFactor {
    /// Creates a discrete-time dynamics constraint.
    ///
    /// # Panics
    /// Panics on inconsistent `A`/`B` shapes.
    pub fn new(xk: VarId, uk: VarId, xk1: VarId, a: Mat, b: Mat, sigma: f64) -> Self {
        assert_eq!(a.rows(), a.cols(), "A must be square");
        assert_eq!(b.rows(), a.rows(), "B row count must match state dim");
        let n = a.rows();
        Self(AffineCore {
            keys: vec![xk, uk, xk1],
            blocks: vec![a.scale(-1.0), b.scale(-1.0), Mat::identity(n)],
            rhs: Vec64::zeros(n),
            sigma,
            name: "DynamicsFactor",
        })
    }
}

impl Factor for DynamicsFactor {
    fn keys(&self) -> &[VarId] {
        &self.0.keys
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn error(&self, values: &Values) -> Vec64 {
        self.0.error(values)
    }
    fn jacobians(&self, _values: &Values) -> Vec<Mat> {
        self.0.blocks.clone()
    }
    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        self.0.linearize_into(values, out);
    }
    fn weighted_squared_error(&self, values: &Values) -> f64 {
        self.0.weighted_squared_error(values)
    }
    fn sigma(&self) -> f64 {
        self.0.sigma
    }
    fn name(&self) -> &'static str {
        self.0.name
    }
    fn kind(&self) -> FactorKind {
        FactorKind::LinearVector {
            blocks: self.0.blocks.clone(),
            rhs: self.0.rhs.clone(),
        }
    }
}

/// Weighted prior on a vector variable: `e = W (x − z)`.
///
/// With `W = Q^{1/2}` this is the LQR state-cost factor; with
/// `W = R^{1/2}` on a control variable it is the input-cost factor
/// (paper Fig. 7b, "cost factor").
#[derive(Debug, Clone)]
pub struct VectorPriorFactor(AffineCore);

impl VectorPriorFactor {
    /// Creates an identity-weighted prior `e = x − z`.
    pub fn new(key: VarId, z: Vec64, sigma: f64) -> Self {
        let n = z.len();
        Self(AffineCore {
            keys: vec![key],
            blocks: vec![Mat::identity(n)],
            rhs: z,
            sigma,
            name: "VectorPriorFactor",
        })
    }

    /// Creates a matrix-weighted prior `e = W (x − z)`.
    ///
    /// # Panics
    /// Panics if `w` is not square of dimension `z.len()`.
    pub fn weighted(key: VarId, z: Vec64, w: Mat, sigma: f64) -> Self {
        assert_eq!(w.rows(), z.len(), "weight shape mismatch");
        assert_eq!(w.cols(), z.len(), "weight shape mismatch");
        let rhs = w.mul_vec(&z);
        Self(AffineCore {
            keys: vec![key],
            blocks: vec![w],
            rhs,
            sigma,
            name: "VectorPriorFactor",
        })
    }
}

impl Factor for VectorPriorFactor {
    fn keys(&self) -> &[VarId] {
        &self.0.keys
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn error(&self, values: &Values) -> Vec64 {
        self.0.error(values)
    }
    fn jacobians(&self, _values: &Values) -> Vec<Mat> {
        self.0.blocks.clone()
    }
    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        self.0.linearize_into(values, out);
    }
    fn weighted_squared_error(&self, values: &Values) -> f64 {
        self.0.weighted_squared_error(values)
    }
    fn sigma(&self) -> f64 {
        self.0.sigma
    }
    fn name(&self) -> &'static str {
        self.0.name
    }
    fn kind(&self) -> FactorKind {
        FactorKind::LinearVector {
            blocks: self.0.blocks.clone(),
            rhs: self.0.rhs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;
    use crate::variable::Variable;

    fn values_with_vectors(vs: &[&[f64]]) -> (Values, Vec<VarId>) {
        let mut vals = Values::new();
        let ids = vs
            .iter()
            .map(|v| vals.insert(Variable::Vector(Vec64::from_slice(v))))
            .collect();
        (vals, ids)
    }

    #[test]
    fn smooth_zero_for_constant_velocity() {
        // x = [p, v], p1 = p0 + dt*v0, v1 = v0.
        let (vals, ids) = values_with_vectors(&[&[0.0, 1.0], &[0.5, 1.0]]);
        let f = SmoothFactor::new(ids[0], ids[1], 1, 0.5, 1.0);
        assert!(f.error(&vals).norm() < 1e-12);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-9);
    }

    #[test]
    fn smooth_penalizes_velocity_change() {
        let (vals, ids) = values_with_vectors(&[&[0.0, 1.0], &[0.5, 2.0]]);
        let f = SmoothFactor::new(ids[0], ids[1], 1, 0.5, 1.0);
        let e = f.error(&vals);
        assert!((e[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kinematics_transition() {
        let f_mat = Mat::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]);
        let (vals, ids) = values_with_vectors(&[&[1.0, 2.0], &[1.2, 2.0]]);
        let f = KinematicsFactor::transition(ids[0], ids[1], f_mat, 1.0);
        let e = f.error(&vals);
        assert!(e.norm() < 1e-12); // x1 == F x0
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-9);
    }

    #[test]
    fn speed_limit_inactive_below_vmax() {
        let (vals, ids) = values_with_vectors(&[&[0.0, 0.0, 0.3, 0.4]]);
        let f = KinematicsFactor::speed_limit(ids[0], 2, 2, 1.0, 1.0);
        assert_eq!(f.error(&vals)[0], 0.0);
        assert!(f.jacobians(&vals)[0].max_abs() == 0.0);
    }

    #[test]
    fn speed_limit_active_above_vmax() {
        let (vals, ids) = values_with_vectors(&[&[0.0, 0.0, 3.0, 4.0]]);
        let f = KinematicsFactor::speed_limit(ids[0], 2, 2, 1.0, 1.0);
        assert!((f.error(&vals)[0] - 4.0).abs() < 1e-12);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-6);
    }

    #[test]
    fn dynamics_consistency() {
        let a = Mat::from_rows(&[&[1.0, 0.1], &[0.0, 0.9]]);
        let b = Mat::from_rows(&[&[0.0], &[0.2]]);
        let x0 = Vec64::from_slice(&[1.0, -1.0]);
        let u0 = Vec64::from_slice(&[0.5]);
        let x1 = &a.mul_vec(&x0) + &b.mul_vec(&u0);
        let (vals, ids) = values_with_vectors(&[x0.as_slice(), u0.as_slice(), x1.as_slice()]);
        let f = DynamicsFactor::new(ids[0], ids[1], ids[2], a, b, 1.0);
        assert!(f.error(&vals).norm() < 1e-12);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-9);
    }

    #[test]
    fn vector_prior_weighted() {
        let (vals, ids) = values_with_vectors(&[&[2.0, 0.0]]);
        let w = Mat::from_diag(&[2.0, 1.0]);
        let f = VectorPriorFactor::weighted(ids[0], Vec64::from_slice(&[1.0, 0.0]), w, 1.0);
        let e = f.error(&vals);
        assert!((e[0] - 2.0).abs() < 1e-12); // 2*(2−1)
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-9);
    }
}

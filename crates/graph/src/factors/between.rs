//! Relative-pose factors (odometry, LiDAR scan matching, IMU
//! preintegration).
//!
//! The error follows the paper's customized-factor example (Equ. 3/4):
//!
//! ```text
//! f(x_i, x_j) = (x_j ⊖ x_i) ⊖ z_ij
//! e_o = Log(ΔR_ijᵀ · R_iᵀ · R_j)
//! e_p = ΔR_ijᵀ · (R_iᵀ (t_j − t_i) − Δt_ij)
//! ```
//!
//! where `z_ij = <ΔR_ij, Δt_ij>` is the measured pose of `x_j` expressed in
//! `x_i`'s frame. The analytic Jacobians below are the ones the ORIANNA
//! compiler re-derives symbolically by backward propagation on the MO-DFG
//! (Fig. 11); equality of the two paths is asserted in integration tests.

use crate::factor::{mat_mul, mat_vec, scaled, set_block, whitened_sq, Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_lie::{so3, Pose2, Pose3};
use orianna_math::{Mat, Vec64};

/// Relative-pose ("between") factor over two pose variables.
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, BetweenFactor};
/// use orianna_lie::Pose2;
/// let mut g = FactorGraph::new();
/// let a = g.add_pose2(Pose2::identity());
/// let b = g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
/// g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.05));
/// ```
#[derive(Debug, Clone)]
pub struct BetweenFactor {
    keys: [VarId; 2],
    z: BetweenTarget,
    sigma: f64,
    name: &'static str,
}

#[derive(Debug, Clone)]
enum BetweenTarget {
    Pose2(Pose2),
    Pose3(Pose3),
}

impl BetweenFactor {
    /// Planar relative-pose factor: `z` is the measured pose of `j` in
    /// `i`'s frame.
    pub fn pose2(i: VarId, j: VarId, z: Pose2, sigma: f64) -> Self {
        Self {
            keys: [i, j],
            z: BetweenTarget::Pose2(z),
            sigma,
            name: "BetweenFactor",
        }
    }

    /// Spatial relative-pose factor.
    pub fn pose3(i: VarId, j: VarId, z: Pose3, sigma: f64) -> Self {
        Self {
            keys: [i, j],
            z: BetweenTarget::Pose3(z),
            sigma,
            name: "BetweenFactor",
        }
    }

    fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    fn poses2<'v>(&self, values: &'v Values) -> (&'v Pose2, &'v Pose2) {
        (
            values.get(self.keys[0]).as_pose2(),
            values.get(self.keys[1]).as_pose2(),
        )
    }

    fn poses3<'v>(&self, values: &'v Values) -> (&'v Pose3, &'v Pose3) {
        (
            values.get(self.keys[0]).as_pose3(),
            values.get(self.keys[1]).as_pose3(),
        )
    }
}

/// Planar error `(x_j ⊖ x_i) ⊖ z` as `[θ, x, y]`.
fn error2(xi: &Pose2, xj: &Pose2, z: &Pose2) -> [f64; 3] {
    let e = xj.between(xi).between(z);
    [e.theta(), e.x(), e.y()]
}

/// Spatial error `(x_j ⊖ x_i) ⊖ z` as `[φ, t]`.
fn error3(xi: &Pose3, xj: &Pose3, z: &Pose3) -> [f64; 6] {
    let e = xj.between(xi).between(z);
    let phi = e.phi();
    let t = e.translation();
    [phi[0], phi[1], phi[2], t[0], t[1], t[2]]
}

/// Planar Jacobian blocks `[∂e/∂δx_i, ∂e/∂δx_j]`.
fn jacobians2(xi: &Pose2, xj: &Pose2, z: &Pose2) -> [[[f64; 3]; 3]; 2] {
    let ri = xi.rotation();
    let rzt = z.rotation().transpose();
    // D = x_j ⊖ x_i.
    let d = xj.between(xi);
    let td = d.translation();
    // The so(2) generator (`so2::generator`).
    let gen = [[0.0, -1.0], [1.0, 0.0]];
    // Jacobian w.r.t. x_i = [δθ_i, δt_i]:
    //   e_o: −1
    //   e_p: dδθ_i = −Rz^T J t_D; dδt_i = −Rz^T R_i^T R_i = −Rz^T
    let mut ji = [[0.0; 3]; 3];
    ji[0][0] = -1.0;
    let jt = mat_vec(&gen, &td);
    let rzjt = rzt.rotate(jt);
    ji[1][0] = -rzjt[0];
    ji[2][0] = -rzjt[1];
    let rzm = rzt.matrix();
    for r in 0..2 {
        for c in 0..2 {
            ji[1 + r][1 + c] = -rzm[r][c];
        }
    }
    // Jacobian w.r.t. x_j:
    //   e_o: +1
    //   e_p: dδt_j = Rz^T R_i^T R_j
    let mut jj = [[0.0; 3]; 3];
    jj[0][0] = 1.0;
    let rr = rzt
        .compose(&ri.transpose())
        .compose(&xj.rotation())
        .matrix();
    for r in 0..2 {
        for c in 0..2 {
            jj[1 + r][1 + c] = rr[r][c];
        }
    }
    [ji, jj]
}

/// Spatial Jacobian blocks `[∂e/∂δx_i, ∂e/∂δx_j]`.
fn jacobians3(xi: &Pose3, xj: &Pose3, z: &Pose3) -> [[[f64; 6]; 6]; 2] {
    let ri = xi.rotation();
    let rj = xj.rotation();
    let rzt = z.rotation().transpose();
    let e = xj.between(xi).between(z);
    let eo = e.phi();
    let jri = so3::right_jacobian_inv_array(eo);
    let d = xj.between(xi);
    let td = d.translation();
    // w.r.t. x_i:
    //   e_o: −Jr⁻¹(e_o) · R_jᵀ R_i
    //   e_p: dδφ_i = Rzᵀ · hat(t_D);  dδt_i = −Rzᵀ
    let rjt_ri = rj.transpose().compose(&ri).matrix();
    let deo_dphii = scaled(mat_mul(&jri, &rjt_ri), -1.0);
    let rzt_m = rzt.matrix();
    let dep_dphii = mat_mul(&rzt_m, &so3::hat(td));
    let dep_dti = scaled(rzt_m, -1.0);
    let mut ji = [[0.0; 6]; 6];
    set_block(&mut ji, 0, 0, &deo_dphii);
    set_block(&mut ji, 3, 0, &dep_dphii);
    set_block(&mut ji, 3, 3, &dep_dti);
    // w.r.t. x_j:
    //   e_o: Jr⁻¹(e_o)
    //   e_p: dδt_j = Rzᵀ R_iᵀ R_j
    let mut jj = [[0.0; 6]; 6];
    set_block(&mut jj, 0, 0, &jri);
    let dep_dtj = rzt.compose(&ri.transpose()).compose(&rj).matrix();
    set_block(&mut jj, 3, 3, &dep_dtj);
    [ji, jj]
}

impl Factor for BetweenFactor {
    fn keys(&self) -> &[VarId] {
        &self.keys
    }

    fn dim(&self) -> usize {
        match self.z {
            BetweenTarget::Pose2(_) => 3,
            BetweenTarget::Pose3(_) => 6,
        }
    }

    fn error(&self, values: &Values) -> Vec64 {
        match &self.z {
            BetweenTarget::Pose2(z) => {
                let (xi, xj) = self.poses2(values);
                Vec64::from_slice(&error2(xi, xj, z))
            }
            BetweenTarget::Pose3(z) => {
                let (xi, xj) = self.poses3(values);
                Vec64::from_slice(&error3(xi, xj, z))
            }
        }
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        match &self.z {
            BetweenTarget::Pose2(z) => {
                let (xi, xj) = self.poses2(values);
                jacobians2(xi, xj, z)
                    .iter()
                    .map(|j| Mat::from_row_major(3, 3, j.as_flattened()))
                    .collect()
            }
            BetweenTarget::Pose3(z) => {
                let (xi, xj) = self.poses3(values);
                jacobians3(xi, xj, z)
                    .iter()
                    .map(|j| Mat::from_row_major(6, 6, j.as_flattened()))
                    .collect()
            }
        }
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        match &self.z {
            BetweenTarget::Pose2(z) => {
                let (xi, xj) = self.poses2(values);
                let [ji, jj] = jacobians2(xi, xj, z);
                out.reshape(&self.keys, 3, [3, 3]);
                out.put_block(0, ji.as_flattened(), w);
                out.put_block(1, jj.as_flattened(), w);
                out.put_rhs(&error2(xi, xj, z), w);
            }
            BetweenTarget::Pose3(z) => {
                let (xi, xj) = self.poses3(values);
                let [ji, jj] = jacobians3(xi, xj, z);
                out.reshape(&self.keys, 6, [6, 6]);
                out.put_block(0, ji.as_flattened(), w);
                out.put_block(1, jj.as_flattened(), w);
                out.put_rhs(&error3(xi, xj, z), w);
            }
        }
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        let w = 1.0 / self.sigma;
        match &self.z {
            BetweenTarget::Pose2(z) => {
                let (xi, xj) = self.poses2(values);
                whitened_sq(&error2(xi, xj, z), w)
            }
            BetweenTarget::Pose3(z) => {
                let (xi, xj) = self.poses3(values);
                whitened_sq(&error3(xi, xj, z), w)
            }
        }
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> FactorKind {
        match &self.z {
            BetweenTarget::Pose2(z) => FactorKind::BetweenPose2 { z: *z },
            BetweenTarget::Pose3(z) => FactorKind::BetweenPose3 { z: z.clone() },
        }
    }
}

/// LiDAR scan-matching factor: a [`BetweenFactor`] whose measurement comes
/// from LiDAR odometry (Tbl. 2, measurement class).
#[derive(Debug, Clone)]
pub struct LidarFactor;

impl LidarFactor {
    /// Planar LiDAR odometry measurement.
    pub fn pose2(i: VarId, j: VarId, z: Pose2, sigma: f64) -> BetweenFactor {
        BetweenFactor::pose2(i, j, z, sigma).with_name("LidarFactor")
    }

    /// Spatial LiDAR odometry measurement.
    pub fn pose3(i: VarId, j: VarId, z: Pose3, sigma: f64) -> BetweenFactor {
        BetweenFactor::pose3(i, j, z, sigma).with_name("LidarFactor")
    }
}

/// IMU preintegration factor between consecutive keyframes: a
/// [`BetweenFactor`] whose measurement is the preintegrated relative motion
/// (Tbl. 2, measurement class; factors `f₄`, `f₅` in Fig. 4).
#[derive(Debug, Clone)]
pub struct ImuFactor;

impl ImuFactor {
    /// Planar preintegrated IMU measurement.
    pub fn pose2(i: VarId, j: VarId, z: Pose2, sigma: f64) -> BetweenFactor {
        BetweenFactor::pose2(i, j, z, sigma).with_name("ImuFactor")
    }

    /// Spatial preintegrated IMU measurement.
    pub fn pose3(i: VarId, j: VarId, z: Pose3, sigma: f64) -> BetweenFactor {
        BetweenFactor::pose3(i, j, z, sigma).with_name("ImuFactor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;
    use crate::variable::Variable;

    #[test]
    fn pose2_between_zero_when_consistent() {
        let mut vals = Values::new();
        let a = Pose2::new(0.3, 1.0, 2.0);
        let z = Pose2::new(0.2, 0.5, -0.1);
        let b = a.compose(&z);
        let i = vals.insert(Variable::Pose2(a));
        let j = vals.insert(Variable::Pose2(b));
        let f = BetweenFactor::pose2(i, j, z, 0.1);
        assert!(f.error(&vals).norm() < 1e-12);
    }

    #[test]
    fn pose2_between_jacobian_matches_fd() {
        let mut vals = Values::new();
        let i = vals.insert(Variable::Pose2(Pose2::new(0.3, 1.0, 2.0)));
        let j = vals.insert(Variable::Pose2(Pose2::new(-0.5, 0.2, 0.8)));
        let f = BetweenFactor::pose2(i, j, Pose2::new(0.1, 1.0, 0.0), 1.0);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-6);
    }

    #[test]
    fn pose3_between_zero_when_consistent() {
        let mut vals = Values::new();
        let a = Pose3::from_parts([0.3, -0.1, 0.2], [1.0, 2.0, 3.0]);
        let z = Pose3::from_parts([0.1, 0.05, -0.2], [0.5, -0.1, 0.2]);
        let b = a.compose(&z);
        let i = vals.insert(Variable::Pose3(a));
        let j = vals.insert(Variable::Pose3(b));
        let f = BetweenFactor::pose3(i, j, z, 0.1);
        assert!(f.error(&vals).norm() < 1e-10);
    }

    #[test]
    fn pose3_between_jacobian_matches_fd() {
        let mut vals = Values::new();
        let i = vals.insert(Variable::Pose3(Pose3::from_parts(
            [0.3, -0.1, 0.2],
            [1.0, 2.0, 3.0],
        )));
        let j = vals.insert(Variable::Pose3(Pose3::from_parts(
            [-0.2, 0.4, 0.1],
            [0.0, 1.0, 2.5],
        )));
        let f = BetweenFactor::pose3(
            i,
            j,
            Pose3::from_parts([0.1, 0.0, -0.1], [0.4, 0.2, 0.0]),
            1.0,
        );
        assert!(check_jacobians(&f, &vals, 1e-6) < 5e-6);
    }

    #[test]
    fn lidar_and_imu_are_named_betweens() {
        let mut vals = Values::new();
        let i = vals.insert(Variable::Pose2(Pose2::identity()));
        let j = vals.insert(Variable::Pose2(Pose2::new(0.0, 1.0, 0.0)));
        let l = LidarFactor::pose2(i, j, Pose2::new(0.0, 1.0, 0.0), 0.1);
        let m = ImuFactor::pose2(i, j, Pose2::new(0.0, 1.0, 0.0), 0.1);
        assert_eq!(l.name(), "LidarFactor");
        assert_eq!(m.name(), "ImuFactor");
        assert!(l.error(&vals).norm() < 1e-12);
    }

    #[test]
    fn error_direction_is_consistent() {
        // Moving x_j further forward than measured must show up in the
        // translation error component.
        let mut vals = Values::new();
        let i = vals.insert(Variable::Pose2(Pose2::identity()));
        let j = vals.insert(Variable::Pose2(Pose2::new(0.0, 1.5, 0.0)));
        let f = BetweenFactor::pose2(i, j, Pose2::new(0.0, 1.0, 0.0), 1.0);
        let e = f.error(&vals);
        assert!((e[1] - 0.5).abs() < 1e-12, "{e:?}");
    }
}

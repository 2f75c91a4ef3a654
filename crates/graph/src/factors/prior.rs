//! Prior factors: anchor a variable to a known value.
//!
//! In the paper's localization example a `PriorFactor` fixes the absolute
//! pose of the first keyframe (factor `f₆` in Fig. 4); in control graphs the
//! same machinery anchors the initial state.

use crate::factor::{set_block, whitened_sq, Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_lie::{so3, Pose2, Pose3};
use orianna_math::{Mat, Vec64};

/// Anchors a pose or point variable at a measured value `z`:
/// `e = x ⊖ z` for poses, `e = x − z` for points.
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, PriorFactor};
/// use orianna_lie::Pose2;
/// let mut g = FactorGraph::new();
/// let x = g.add_pose2(Pose2::new(0.1, 0.0, 0.0));
/// g.add_factor(PriorFactor::pose2(x, Pose2::identity(), 0.01));
/// ```
#[derive(Debug, Clone)]
pub struct PriorFactor {
    keys: [VarId; 1],
    target: PriorTarget,
    sigma: f64,
}

#[derive(Debug, Clone)]
enum PriorTarget {
    Pose2(Pose2),
    Pose3(Pose3),
    Point2([f64; 2]),
    Point3([f64; 3]),
}

impl PriorFactor {
    /// Prior on a planar pose.
    pub fn pose2(key: VarId, z: Pose2, sigma: f64) -> Self {
        Self {
            keys: [key],
            target: PriorTarget::Pose2(z),
            sigma,
        }
    }

    /// Prior on a spatial pose.
    pub fn pose3(key: VarId, z: Pose3, sigma: f64) -> Self {
        Self {
            keys: [key],
            target: PriorTarget::Pose3(z),
            sigma,
        }
    }

    /// Prior on a 2D point.
    pub fn point2(key: VarId, z: [f64; 2], sigma: f64) -> Self {
        Self {
            keys: [key],
            target: PriorTarget::Point2(z),
            sigma,
        }
    }

    /// Prior on a 3D point.
    pub fn point3(key: VarId, z: [f64; 3], sigma: f64) -> Self {
        Self {
            keys: [key],
            target: PriorTarget::Point3(z),
            sigma,
        }
    }
}

impl PriorFactor {
    /// The error `x ⊖ z` (or `x − z`) in the first `n` entries.
    fn eval_error(&self, values: &Values) -> ([f64; 6], usize) {
        let x = values.get(self.keys[0]);
        match &self.target {
            PriorTarget::Pose2(z) => {
                let d = x.as_pose2().between(z); // x ⊖ z
                ([d.theta(), d.x(), d.y(), 0.0, 0.0, 0.0], 3)
            }
            PriorTarget::Pose3(z) => {
                let d = x.as_pose3().between(z);
                let phi = d.phi();
                let t = d.translation();
                ([phi[0], phi[1], phi[2], t[0], t[1], t[2]], 6)
            }
            PriorTarget::Point2(z) => {
                let p = x.as_point2();
                ([p[0] - z[0], p[1] - z[1], 0.0, 0.0, 0.0, 0.0], 2)
            }
            PriorTarget::Point3(z) => {
                let p = x.as_point3();
                ([p[0] - z[0], p[1] - z[1], p[2] - z[2], 0.0, 0.0, 0.0], 3)
            }
        }
    }

    /// The row-major `n × n` Jacobian in the first `n²` entries.
    fn eval_jacobian(&self, values: &Values) -> ([f64; 36], usize) {
        let mut j = [0.0; 36];
        match &self.target {
            PriorTarget::Pose2(z) => {
                // e_o = θx − θz (wrapped); e_p = Rz^T (tx − tz).
                // δθ: de_o = 1. δt: tx ← tx + Rx δt ⇒ de_p = Rz^T Rx.
                let x = values.get(self.keys[0]).as_pose2();
                let rzt = z.rotation().transpose();
                let rr = rzt.compose(&x.rotation()).matrix();
                j[0] = 1.0;
                for r in 0..2 {
                    for c in 0..2 {
                        j[(1 + r) * 3 + 1 + c] = rr[r][c];
                    }
                }
                (j, 3)
            }
            PriorTarget::Pose3(z) => {
                // e_o = Log(Rz^T Rx): de_o/dδφ = Jr⁻¹(e_o).
                // e_p = Rz^T (tx − tz): de_p/dδt = Rz^T Rx.
                let x = values.get(self.keys[0]).as_pose3();
                let d = x.between(z);
                let jri = so3::right_jacobian_inv_array(d.phi());
                let rr = z.rotation().transpose().compose(&x.rotation()).matrix();
                let mut b = [[0.0; 6]; 6];
                set_block(&mut b, 0, 0, &jri);
                set_block(&mut b, 3, 3, &rr);
                j.copy_from_slice(b.as_flattened());
                (j, 6)
            }
            PriorTarget::Point2(_) => {
                j[0] = 1.0;
                j[3] = 1.0;
                (j, 2)
            }
            PriorTarget::Point3(_) => {
                j[0] = 1.0;
                j[4] = 1.0;
                j[8] = 1.0;
                (j, 3)
            }
        }
    }
}

impl Factor for PriorFactor {
    fn keys(&self) -> &[VarId] {
        &self.keys
    }

    fn dim(&self) -> usize {
        match &self.target {
            PriorTarget::Pose2(_) => 3,
            PriorTarget::Pose3(_) => 6,
            PriorTarget::Point2(_) => 2,
            PriorTarget::Point3(_) => 3,
        }
    }

    fn error(&self, values: &Values) -> Vec64 {
        let (e, n) = self.eval_error(values);
        Vec64::from_slice(&e[..n])
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        let (j, n) = self.eval_jacobian(values);
        vec![Mat::from_row_major(n, n, &j[..n * n])]
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        let (j, n) = self.eval_jacobian(values);
        let (e, _) = self.eval_error(values);
        out.reshape(&self.keys, n, [n]);
        out.put_block(0, &j[..n * n], w);
        out.put_rhs(&e[..n], w);
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        let (e, n) = self.eval_error(values);
        whitened_sq(&e[..n], 1.0 / self.sigma)
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn name(&self) -> &'static str {
        "PriorFactor"
    }

    fn kind(&self) -> FactorKind {
        match &self.target {
            PriorTarget::Pose2(z) => FactorKind::PriorPose2 { z: *z },
            PriorTarget::Pose3(z) => FactorKind::PriorPose3 { z: z.clone() },
            PriorTarget::Point2(z) => FactorKind::Gps {
                z: Vec64::from_slice(z),
            },
            PriorTarget::Point3(z) => FactorKind::Gps {
                z: Vec64::from_slice(z),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;
    use crate::variable::Variable;

    #[test]
    fn pose2_prior_zero_at_target() {
        let mut vals = Values::new();
        let z = Pose2::new(0.4, 1.0, -2.0);
        let x = vals.insert(Variable::Pose2(z));
        let f = PriorFactor::pose2(x, z, 0.1);
        assert!(f.error(&vals).norm() < 1e-12);
    }

    #[test]
    fn pose2_prior_jacobian_matches_fd() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose2(Pose2::new(0.3, 1.0, 2.0)));
        let f = PriorFactor::pose2(x, Pose2::new(-0.2, 0.5, 0.1), 1.0);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-6);
    }

    #[test]
    fn pose3_prior_zero_at_target() {
        let mut vals = Values::new();
        let z = Pose3::from_parts([0.1, -0.2, 0.3], [1.0, 2.0, 3.0]);
        let x = vals.insert(Variable::Pose3(z.clone()));
        let f = PriorFactor::pose3(x, z, 0.1);
        assert!(f.error(&vals).norm() < 1e-12);
    }

    #[test]
    fn pose3_prior_jacobian_matches_fd() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose3(Pose3::from_parts(
            [0.3, 0.1, -0.4],
            [1.0, 0.0, 2.0],
        )));
        let f = PriorFactor::pose3(
            x,
            Pose3::from_parts([-0.1, 0.2, 0.1], [0.5, 1.0, -0.5]),
            1.0,
        );
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-6);
    }

    #[test]
    fn point_priors() {
        let mut vals = Values::new();
        let p2 = vals.insert(Variable::Point2([1.0, 2.0]));
        let p3 = vals.insert(Variable::Point3([1.0, 2.0, 3.0]));
        let f2 = PriorFactor::point2(p2, [0.0, 0.0], 1.0);
        let f3 = PriorFactor::point3(p3, [1.0, 2.0, 3.0], 1.0);
        assert!((f2.error(&vals).norm() - 5.0f64.sqrt()).abs() < 1e-12);
        assert!(f3.error(&vals).norm() < 1e-12);
        assert!(check_jacobians(&f2, &vals, 1e-6) < 1e-9);
        assert!(check_jacobians(&f3, &vals, 1e-6) < 1e-9);
    }

    #[test]
    fn whitening_scales_error() {
        let mut vals = Values::new();
        let p = vals.insert(Variable::Point2([3.0, 4.0]));
        let f = PriorFactor::point2(p, [0.0, 0.0], 0.5);
        assert!((f.weighted_squared_error(&vals) - 100.0).abs() < 1e-12);
    }
}

//! GPS / absolute-position factors.

use crate::factor::{whitened_sq, Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::{VarId, Variable};
use orianna_math::{Mat, Vec64};

/// Observes the absolute position of a pose variable:
/// `e = t(x) − z`, where `t(x)` is the translation component.
///
/// Works for both [`Variable::Pose2`] (2D fix) and [`Variable::Pose3`]
/// (3D fix).
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, GpsFactor};
/// use orianna_lie::Pose2;
/// let mut g = FactorGraph::new();
/// let x = g.add_pose2(Pose2::new(0.0, 0.9, 2.1));
/// g.add_factor(GpsFactor::new(x, &[1.0, 2.0], 0.5));
/// ```
#[derive(Debug, Clone)]
pub struct GpsFactor {
    keys: [VarId; 1],
    z: Vec64,
    sigma: f64,
}

impl GpsFactor {
    /// Creates a position observation; `z.len()` must be 2 for planar poses
    /// and 3 for spatial poses (validated at linearization).
    pub fn new(key: VarId, z: &[f64], sigma: f64) -> Self {
        Self {
            keys: [key],
            z: Vec64::from_slice(z),
            sigma,
        }
    }
}

impl GpsFactor {
    /// The error `t(x) − z` in the first `n` entries.
    fn eval_error(&self, values: &Values) -> ([f64; 3], usize) {
        match values.get(self.keys[0]) {
            Variable::Pose2(p) => {
                assert_eq!(self.z.len(), 2, "planar GPS fix must be 2D");
                let t = p.translation();
                ([t[0] - self.z[0], t[1] - self.z[1], 0.0], 2)
            }
            Variable::Pose3(p) => {
                assert_eq!(self.z.len(), 3, "spatial GPS fix must be 3D");
                let t = p.translation();
                ([t[0] - self.z[0], t[1] - self.z[1], t[2] - self.z[2]], 3)
            }
            other => panic!("GpsFactor expects a pose variable, found {other:?}"),
        }
    }

    /// The row-major `n × cols` Jacobian in the first `n·cols` entries.
    fn eval_jacobian(&self, values: &Values) -> ([f64; 18], usize, usize) {
        // t ← t + R δt  ⇒  de/dδt = R; orientation does not move t.
        let mut j = [0.0; 18];
        match values.get(self.keys[0]) {
            Variable::Pose2(p) => {
                let rm = p.rotation().matrix();
                for r in 0..2 {
                    for c in 0..2 {
                        j[r * 3 + 1 + c] = rm[r][c];
                    }
                }
                (j, 2, 3)
            }
            Variable::Pose3(p) => {
                let rm = p.rotation().matrix();
                for r in 0..3 {
                    for c in 0..3 {
                        j[r * 6 + 3 + c] = rm[r][c];
                    }
                }
                (j, 3, 6)
            }
            other => panic!("GpsFactor expects a pose variable, found {other:?}"),
        }
    }
}

impl Factor for GpsFactor {
    fn keys(&self) -> &[VarId] {
        &self.keys
    }

    fn dim(&self) -> usize {
        self.z.len()
    }

    fn error(&self, values: &Values) -> Vec64 {
        let (e, n) = self.eval_error(values);
        Vec64::from_slice(&e[..n])
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        let (j, n, cols) = self.eval_jacobian(values);
        vec![Mat::from_row_major(n, cols, &j[..n * cols])]
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        let (j, n, cols) = self.eval_jacobian(values);
        let (e, _) = self.eval_error(values);
        out.reshape(&self.keys, n, [cols]);
        out.put_block(0, &j[..n * cols], w);
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
        "GpsFactor"
    }

    fn kind(&self) -> FactorKind {
        FactorKind::Gps { z: self.z.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;
    use orianna_lie::{Pose2, Pose3};

    #[test]
    fn zero_error_at_fix() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose2(Pose2::new(0.7, 1.0, 2.0)));
        let f = GpsFactor::new(x, &[1.0, 2.0], 0.5);
        assert!(f.error(&vals).norm() < 1e-12);
    }

    #[test]
    fn pose2_jacobian_matches_fd() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose2(Pose2::new(0.7, 1.0, 2.0)));
        let f = GpsFactor::new(x, &[0.0, 0.0], 1.0);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-7);
    }

    #[test]
    fn pose3_jacobian_matches_fd() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose3(Pose3::from_parts(
            [0.2, -0.1, 0.4],
            [1.0, 2.0, 3.0],
        )));
        let f = GpsFactor::new(x, &[0.5, 1.5, 2.5], 1.0);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "planar GPS fix must be 2D")]
    fn dimension_mismatch_panics() {
        let mut vals = Values::new();
        let x = vals.insert(Variable::Pose2(Pose2::identity()));
        let f = GpsFactor::new(x, &[0.0, 0.0, 0.0], 1.0);
        f.error(&vals);
    }
}

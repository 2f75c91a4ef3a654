//! Pinhole-camera landmark observation factors.
//!
//! The paper's localization example (Fig. 4) connects camera factors
//! between pose variables and landmark variables; each contributes "two
//! matrix blocks with dimensions of two rows and six columns and two rows
//! and three columns, along with one vector of length two" (Sec. 5.1) —
//! exactly the shapes produced here.

use crate::factor::{mat_mul, scaled, set_block, whitened_sq, Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_lie::so3;
use orianna_math::{Mat, Vec64};

/// Intrinsics of a pinhole camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Focal length in x (pixels).
    pub fx: f64,
    /// Focal length in y (pixels).
    pub fy: f64,
    /// Principal point x (pixels).
    pub cx: f64,
    /// Principal point y (pixels).
    pub cy: f64,
}

impl Default for CameraModel {
    fn default() -> Self {
        Self {
            fx: 500.0,
            fy: 500.0,
            cx: 320.0,
            cy: 240.0,
        }
    }
}

impl CameraModel {
    /// Projects a point in the camera frame to pixel coordinates.
    ///
    /// Returns `None` when the point is at or behind the image plane.
    pub fn project(&self, p: [f64; 3]) -> Option<[f64; 2]> {
        if p[2] <= 1e-6 {
            return None;
        }
        Some([
            self.fx * p[0] / p[2] + self.cx,
            self.fy * p[1] / p[2] + self.cy,
        ])
    }
}

/// Observes a 3D landmark from a spatial pose through a pinhole camera:
/// `e = π(Rᵀ(l − t)) − uv`, a 2-dimensional reprojection error.
///
/// Keys: `[pose (Pose3), landmark (Point3)]`.
#[derive(Debug, Clone)]
pub struct CameraFactor {
    keys: [VarId; 2],
    pixel: [f64; 2],
    model: CameraModel,
    sigma: f64,
}

impl CameraFactor {
    /// Creates a reprojection factor for pixel measurement `pixel`.
    pub fn new(
        pose: VarId,
        landmark: VarId,
        pixel: [f64; 2],
        model: CameraModel,
        sigma: f64,
    ) -> Self {
        Self {
            keys: [pose, landmark],
            pixel,
            model,
            sigma,
        }
    }

    /// Landmark position in the camera (body) frame.
    fn point_in_camera(&self, values: &Values) -> [f64; 3] {
        let x = values.get(self.keys[0]).as_pose3();
        let l = values.get(self.keys[1]).as_point3();
        let t = x.translation();
        x.rotation()
            .transpose()
            .rotate([l[0] - t[0], l[1] - t[1], l[2] - t[2]])
    }
}

impl CameraFactor {
    /// Reprojection error `π(p_c) − uv`.
    fn eval_error(&self, values: &Values) -> [f64; 2] {
        let pc = self.point_in_camera(values);
        // Clamp depth away from the image plane so the error stays finite
        // during aggressive Gauss-Newton steps; the Jacobian uses the same
        // clamped depth for consistency.
        let z = pc[2].max(1e-3);
        let u = self.model.fx * pc[0] / z + self.model.cx;
        let v = self.model.fy * pc[1] / z + self.model.cy;
        [u - self.pixel[0], v - self.pixel[1]]
    }

    /// Jacobian blocks w.r.t. the pose (2×6) and the landmark (2×3).
    fn eval_jacobians(&self, values: &Values) -> ([[f64; 6]; 2], [[f64; 3]; 2]) {
        let x = values.get(self.keys[0]).as_pose3();
        let pc = self.point_in_camera(values);
        let z = pc[2].max(1e-3);
        // Projection Jacobian ∂π/∂p_c (2×3).
        let jproj = [
            [self.model.fx / z, 0.0, -self.model.fx * pc[0] / (z * z)],
            [0.0, self.model.fy / z, -self.model.fy * pc[1] / (z * z)],
        ];
        // p_c = Rᵀ(l − t):
        //   δφ (R ← R·Exp(δ)): p_c ← Exp(−δ)·p_c ⇒ ∂p_c/∂δφ = hat(p_c)
        //   δt (t ← t + R δt): p_c ← p_c − δt   ⇒ ∂p_c/∂δt = −I
        //   landmark:                              ∂p_c/∂l  = Rᵀ
        let mut jpose = [[0.0; 6]; 2];
        set_block(&mut jpose, 0, 0, &mat_mul(&jproj, &so3::hat(pc)));
        set_block(&mut jpose, 0, 3, &scaled(jproj, -1.0));
        let jlm = mat_mul(&jproj, &x.rotation().transpose().matrix());
        (jpose, jlm)
    }
}

impl Factor for CameraFactor {
    fn keys(&self) -> &[VarId] {
        &self.keys
    }

    fn dim(&self) -> usize {
        2
    }

    fn error(&self, values: &Values) -> Vec64 {
        Vec64::from_slice(&self.eval_error(values))
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        let (jpose, jlm) = self.eval_jacobians(values);
        vec![
            Mat::from_row_major(2, 6, jpose.as_flattened()),
            Mat::from_row_major(2, 3, jlm.as_flattened()),
        ]
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        let (jpose, jlm) = self.eval_jacobians(values);
        out.reshape(&self.keys, 2, [6, 3]);
        out.put_block(0, jpose.as_flattened(), w);
        out.put_block(1, jlm.as_flattened(), w);
        out.put_rhs(&self.eval_error(values), w);
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        whitened_sq(&self.eval_error(values), 1.0 / self.sigma)
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn name(&self) -> &'static str {
        "CameraFactor"
    }

    fn kind(&self) -> FactorKind {
        FactorKind::Camera {
            pixel: self.pixel,
            fx: self.model.fx,
            fy: self.model.fy,
            cx: self.model.cx,
            cy: self.model.cy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;
    use crate::variable::Variable;
    use orianna_lie::Pose3;

    fn setup() -> (Values, CameraFactor) {
        let mut vals = Values::new();
        // Camera at origin looking down +z (body frame == camera frame).
        let pose = Pose3::from_parts([0.05, -0.02, 0.1], [0.2, -0.1, 0.0]);
        let x = vals.insert(Variable::Pose3(pose.clone()));
        let lm = [0.5, 0.3, 4.0];
        let l = vals.insert(Variable::Point3(lm));
        let model = CameraModel::default();
        // Perfect measurement.
        let t = pose.translation();
        let pc = pose
            .rotation()
            .transpose()
            .rotate([lm[0] - t[0], lm[1] - t[1], lm[2] - t[2]]);
        let pixel = model.project(pc).unwrap();
        (vals, CameraFactor::new(x, l, pixel, model, 1.0))
    }

    #[test]
    fn zero_error_at_true_configuration() {
        let (vals, f) = setup();
        assert!(f.error(&vals).norm() < 1e-9);
    }

    #[test]
    fn jacobians_match_fd() {
        let (vals, f) = setup();
        assert!(
            check_jacobians(&f, &vals, 1e-6) < 1e-4,
            "{}",
            check_jacobians(&f, &vals, 1e-6)
        );
    }

    #[test]
    fn block_shapes_match_paper() {
        // "two rows and six columns" + "two rows and three columns".
        let (vals, f) = setup();
        let jacs = f.jacobians(&vals);
        assert_eq!(jacs[0].shape(), (2, 6));
        assert_eq!(jacs[1].shape(), (2, 3));
        assert_eq!(f.error(&vals).len(), 2);
    }

    #[test]
    fn project_behind_camera_is_none() {
        let model = CameraModel::default();
        assert!(model.project([0.0, 0.0, -1.0]).is_none());
        assert!(model.project([0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn projection_center_maps_to_principal_point() {
        let model = CameraModel::default();
        let uv = model.project([0.0, 0.0, 2.0]).unwrap();
        assert_eq!(uv, [model.cx, model.cy]);
    }
}

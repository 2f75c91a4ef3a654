//! Collision-free constraint factors for motion planning.
//!
//! GPMP2-style hinge obstacle costs (paper Fig. 7a, "collision-free
//! factors ensure safe distances with lower probabilities near obstacles"):
//! the error grows linearly as the robot's position enters the safety
//! margin of a circular obstacle and is zero outside it.

use crate::factor::{Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::{VarId, Variable};
use orianna_math::{macs, Mat, Vec64};

/// Hinge-loss obstacle factor over the position slice of a trajectory
/// state (a vector variable whose first `pos_dim` entries are position).
///
/// For each circular obstacle `(center, radius)` the per-obstacle error is
/// `max(0, (radius + safety) − |p − center|)`.
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, CollisionFactor};
/// use orianna_math::Vec64;
/// let mut g = FactorGraph::new();
/// let x = g.add_vector(Vec64::from_slice(&[0.0, 0.0, 1.0, 0.0]));
/// g.add_factor(CollisionFactor::new(x, 2, vec![([2.0, 0.0], 0.5)], 0.3, 0.1));
/// ```
#[derive(Debug, Clone)]
pub struct CollisionFactor {
    keys: [VarId; 1],
    pos_dim: usize,
    obstacles: Vec<([f64; 2], f64)>,
    safety: f64,
    sigma: f64,
}

impl CollisionFactor {
    /// Creates a collision factor with circular `obstacles`
    /// (`(center_xy, radius)`) and safety margin `safety`. Only the first
    /// two position coordinates are checked (planar obstacle map, as in
    /// GPMP2 workspace costs).
    ///
    /// # Panics
    /// Panics if `pos_dim < 2` or no obstacle is given.
    pub fn new(
        key: VarId,
        pos_dim: usize,
        obstacles: Vec<([f64; 2], f64)>,
        safety: f64,
        sigma: f64,
    ) -> Self {
        assert!(pos_dim >= 2, "need at least a 2D position slice");
        assert!(!obstacles.is_empty(), "at least one obstacle required");
        Self {
            keys: [key],
            pos_dim,
            obstacles,
            safety,
            sigma,
        }
    }

    fn position(&self, values: &Values) -> [f64; 2] {
        match values.get(self.keys[0]) {
            Variable::Vector(v) => {
                assert!(v.len() >= self.pos_dim, "state shorter than pos_dim");
                [v[0], v[1]]
            }
            other => panic!("CollisionFactor expects a vector state, found {other:?}"),
        }
    }

    /// Hinge error `max(0, (radius + safety) − |p − center|)`.
    fn hinge(&self, p: [f64; 2], c: [f64; 2], r: f64) -> f64 {
        let d = ((p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2)).sqrt();
        ((r + self.safety) - d).max(0.0)
    }

    /// `∂e/∂p` of one obstacle's hinge while it is active, `None` (a zero
    /// row) outside the margin or at the centre.
    fn gradient(&self, p: [f64; 2], c: [f64; 2], r: f64) -> Option<[f64; 2]> {
        let dx = p[0] - c[0];
        let dy = p[1] - c[1];
        let d = (dx * dx + dy * dy).sqrt();
        // e = (r+s) − d ⇒ ∂e/∂p = −(p − c)/d.
        (d < r + self.safety && d > 1e-9).then(|| [-dx / d, -dy / d])
    }

    /// Writes `w · ∂e/∂x` into the row-major `m × n` `block`: each active
    /// hinge's gradient in the position columns, zero elsewhere.
    fn jacobian_into(&self, p: [f64; 2], n: usize, w: f64, block: &mut [f64]) {
        block.fill(0.0 * w);
        for (row, &(c, r)) in self.obstacles.iter().enumerate() {
            if let Some(g) = self.gradient(p, c, r) {
                block[row * n] = g[0] * w;
                block[row * n + 1] = g[1] * w;
            }
        }
    }
}

impl Factor for CollisionFactor {
    fn keys(&self) -> &[VarId] {
        &self.keys
    }

    fn dim(&self) -> usize {
        self.obstacles.len()
    }

    fn error(&self, values: &Values) -> Vec64 {
        let p = self.position(values);
        self.obstacles
            .iter()
            .map(|&(c, r)| self.hinge(p, c, r))
            .collect()
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        let p = self.position(values);
        let n = values.get(self.keys[0]).as_vector().len();
        let mut j = Mat::zeros(self.obstacles.len(), n);
        self.jacobian_into(p, n, 1.0, j.as_mut_slice());
        vec![j]
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        let w = 1.0 / self.sigma;
        let p = self.position(values);
        let n = values.get(self.keys[0]).as_vector().len();
        let m = self.obstacles.len();
        out.reshape(&self.keys, m, [n]);
        // Whitening scales the whole m×n block, structural zeros included.
        macs::record(m * n);
        self.jacobian_into(p, n, w, out.blocks[0].as_mut_slice());
        macs::record(m);
        for (dst, &(c, r)) in out.rhs.as_mut_slice().iter_mut().zip(&self.obstacles) {
            *dst = -(self.hinge(p, c, r) * w);
        }
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        let w = 1.0 / self.sigma;
        let p = self.position(values);
        macs::record(2 * self.obstacles.len());
        self.obstacles
            .iter()
            .map(|&(c, r)| self.hinge(p, c, r) * w)
            .map(|a| a * a)
            .sum()
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn name(&self) -> &'static str {
        "CollisionFactor"
    }

    fn kind(&self) -> FactorKind {
        FactorKind::Collision {
            obstacles: self.obstacles.clone(),
            safety: self.safety,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::check_jacobians;

    fn state(xy: [f64; 2]) -> (Values, VarId) {
        let mut vals = Values::new();
        let id = vals.insert(Variable::Vector(Vec64::from_slice(&[
            xy[0], xy[1], 0.0, 0.0,
        ])));
        (vals, id)
    }

    #[test]
    fn zero_error_far_from_obstacle() {
        let (vals, id) = state([10.0, 10.0]);
        let f = CollisionFactor::new(id, 2, vec![([0.0, 0.0], 1.0)], 0.5, 1.0);
        assert_eq!(f.error(&vals)[0], 0.0);
    }

    #[test]
    fn positive_error_inside_margin() {
        let (vals, id) = state([1.2, 0.0]);
        let f = CollisionFactor::new(id, 2, vec![([0.0, 0.0], 1.0)], 0.5, 1.0);
        assert!((f.error(&vals)[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn jacobian_matches_fd_when_active() {
        let (vals, id) = state([1.2, 0.4]);
        let f = CollisionFactor::new(id, 2, vec![([0.0, 0.0], 1.0)], 0.5, 1.0);
        assert!(check_jacobians(&f, &vals, 1e-6) < 1e-6);
    }

    #[test]
    fn multiple_obstacles_stack_rows() {
        let (vals, id) = state([0.0, 0.0]);
        let f = CollisionFactor::new(id, 2, vec![([0.5, 0.0], 1.0), ([5.0, 5.0], 1.0)], 0.2, 1.0);
        let e = f.error(&vals);
        assert_eq!(e.len(), 2);
        assert!(e[0] > 0.0 && e[1] == 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one obstacle required")]
    fn empty_obstacles_rejected() {
        let (_, id) = state([0.0, 0.0]);
        CollisionFactor::new(id, 2, vec![], 0.2, 1.0);
    }
}

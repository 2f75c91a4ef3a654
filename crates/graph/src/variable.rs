//! Variable nodes of the factor graph.
//!
//! The paper's benchmark applications (Tbl. 4) use variables of several
//! kinds: planar and spatial robot poses in the unified `<so(n), T(n)>`
//! representation, landmark points, and flat real vectors (trajectory
//! states, velocities, control inputs). All expose a common *manifold*
//! interface: a tangent dimension, a retraction, and local coordinates.

use orianna_lie::{Pose2, Pose3};
use orianna_math::Vec64;

/// Identifier of a variable node within one [`crate::FactorGraph`].
///
/// Stable for the lifetime of the graph (variables are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A variable node's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Variable {
    /// A planar pose `<so(2), T(2)>` (tangent dimension 3).
    Pose2(Pose2),
    /// A spatial pose `<so(3), T(3)>` (tangent dimension 6).
    Pose3(Pose3),
    /// A 2D landmark / point (tangent dimension 2).
    Point2([f64; 2]),
    /// A 3D landmark / point (tangent dimension 3).
    Point3([f64; 3]),
    /// A flat real vector (trajectory state, velocity, control input…).
    Vector(Vec64),
}

impl Variable {
    /// Tangent-space dimension of this variable.
    pub fn dim(&self) -> usize {
        match self {
            Variable::Pose2(_) => Pose2::DIM,
            Variable::Pose3(_) => Pose3::DIM,
            Variable::Point2(_) => 2,
            Variable::Point3(_) => 3,
            Variable::Vector(v) => v.len(),
        }
    }

    /// Applies a tangent-space increment (retraction). Poses retract
    /// multiplicatively (`x ⊕ δ`), points and vectors additively.
    ///
    /// # Panics
    /// Panics if `delta.len() != self.dim()`.
    pub fn retract(&self, delta: &[f64]) -> Variable {
        assert_eq!(delta.len(), self.dim(), "retract dimension mismatch");
        match self {
            Variable::Pose2(p) => Variable::Pose2(p.retract(delta)),
            Variable::Pose3(p) => Variable::Pose3(p.retract(delta)),
            Variable::Point2(p) => Variable::Point2([p[0] + delta[0], p[1] + delta[1]]),
            Variable::Point3(p) => {
                Variable::Point3([p[0] + delta[0], p[1] + delta[1], p[2] + delta[2]])
            }
            Variable::Vector(v) => {
                Variable::Vector(v.as_slice().iter().zip(delta).map(|(a, d)| a + d).collect())
            }
        }
    }

    /// [`Variable::retract`] written into `out`: a vector of the same
    /// length is overwritten in place, any other slot is replaced.
    ///
    /// # Panics
    /// Panics if `delta.len() != self.dim()`.
    pub(crate) fn retract_into(&self, delta: &[f64], out: &mut Variable) {
        match (self, &mut *out) {
            (Variable::Vector(v), Variable::Vector(o)) if o.len() == v.len() => {
                assert_eq!(delta.len(), v.len(), "retract dimension mismatch");
                for ((o, a), d) in o.as_mut_slice().iter_mut().zip(v.as_slice()).zip(delta) {
                    *o = a + d;
                }
            }
            _ => *out = self.retract(delta),
        }
    }

    /// Overwrites `self` with a copy of `other`; a vector of the same
    /// length is copied into its existing buffer.
    pub(crate) fn copy_from(&mut self, other: &Variable) {
        match (&mut *self, other) {
            (Variable::Vector(a), Variable::Vector(b)) if a.len() == b.len() => {
                a.as_mut_slice().copy_from_slice(b.as_slice());
            }
            _ => *self = other.clone(),
        }
    }

    /// Local (tangent) coordinates of `other` relative to `self`; the
    /// inverse of [`Variable::retract`].
    ///
    /// # Panics
    /// Panics if the two variables have different kinds or dimensions.
    pub fn local(&self, other: &Variable) -> Vec64 {
        match (self, other) {
            (Variable::Pose2(a), Variable::Pose2(b)) => Vec64::from_slice(&a.local(b)),
            (Variable::Pose3(a), Variable::Pose3(b)) => Vec64::from_slice(&a.local(b)),
            (Variable::Point2(a), Variable::Point2(b)) => {
                Vec64::from_slice(&[b[0] - a[0], b[1] - a[1]])
            }
            (Variable::Point3(a), Variable::Point3(b)) => {
                Vec64::from_slice(&[b[0] - a[0], b[1] - a[1], b[2] - a[2]])
            }
            (Variable::Vector(a), Variable::Vector(b)) => {
                assert_eq!(a.len(), b.len(), "vector dimension mismatch");
                b.as_slice()
                    .iter()
                    .zip(a.as_slice())
                    .map(|(x, y)| x - y)
                    .collect()
            }
            _ => panic!("local() between mismatched variable kinds"),
        }
    }

    /// Borrow as a planar pose.
    ///
    /// # Panics
    /// Panics if the variable is not a [`Variable::Pose2`].
    pub fn as_pose2(&self) -> &Pose2 {
        match self {
            Variable::Pose2(p) => p,
            other => panic!("expected Pose2, found {other:?}"),
        }
    }

    /// Borrow as a spatial pose.
    ///
    /// # Panics
    /// Panics if the variable is not a [`Variable::Pose3`].
    pub fn as_pose3(&self) -> &Pose3 {
        match self {
            Variable::Pose3(p) => p,
            other => panic!("expected Pose3, found {other:?}"),
        }
    }

    /// Borrow as a 3D point.
    ///
    /// # Panics
    /// Panics if the variable is not a [`Variable::Point3`].
    pub fn as_point3(&self) -> [f64; 3] {
        match self {
            Variable::Point3(p) => *p,
            other => panic!("expected Point3, found {other:?}"),
        }
    }

    /// Borrow as a 2D point.
    ///
    /// # Panics
    /// Panics if the variable is not a [`Variable::Point2`].
    pub fn as_point2(&self) -> [f64; 2] {
        match self {
            Variable::Point2(p) => *p,
            other => panic!("expected Point2, found {other:?}"),
        }
    }

    /// Borrow as a flat vector.
    ///
    /// # Panics
    /// Panics if the variable is not a [`Variable::Vector`].
    pub fn as_vector(&self) -> &Vec64 {
        match self {
            Variable::Vector(v) => v,
            other => panic!("expected Vector, found {other:?}"),
        }
    }
}

impl From<Pose2> for Variable {
    fn from(p: Pose2) -> Self {
        Variable::Pose2(p)
    }
}

impl From<Pose3> for Variable {
    fn from(p: Pose3) -> Self {
        Variable::Pose3(p)
    }
}

impl From<Vec64> for Variable {
    fn from(v: Vec64) -> Self {
        Variable::Vector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims() {
        assert_eq!(Variable::Pose2(Pose2::identity()).dim(), 3);
        assert_eq!(Variable::Pose3(Pose3::identity()).dim(), 6);
        assert_eq!(Variable::Point2([0.0; 2]).dim(), 2);
        assert_eq!(Variable::Point3([0.0; 3]).dim(), 3);
        assert_eq!(Variable::Vector(Vec64::zeros(5)).dim(), 5);
    }

    #[test]
    fn retract_local_roundtrip_all_kinds() {
        let cases = vec![
            (
                Variable::Pose2(Pose2::new(0.2, 1.0, 2.0)),
                vec![0.01, 0.02, -0.03],
            ),
            (
                Variable::Pose3(Pose3::from_parts([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])),
                vec![0.01, -0.01, 0.02, 0.1, 0.2, -0.3],
            ),
            (Variable::Point2([1.0, -1.0]), vec![0.5, 0.5]),
            (Variable::Point3([1.0, -1.0, 2.0]), vec![0.5, 0.5, -0.5]),
            (
                Variable::Vector(Vec64::from_slice(&[1.0, 2.0])),
                vec![-0.5, 0.25],
            ),
        ];
        for (var, delta) in cases {
            let moved = var.retract(&delta);
            let back = var.local(&moved);
            for (a, b) in back.as_slice().iter().zip(&delta) {
                assert!((a - b).abs() < 1e-10, "{var:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "retract dimension mismatch")]
    fn retract_wrong_dim_panics() {
        Variable::Point2([0.0; 2]).retract(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched variable kinds")]
    fn local_kind_mismatch_panics() {
        let a = Variable::Point2([0.0; 2]);
        let b = Variable::Point3([0.0; 3]);
        a.local(&b);
    }
}

//! Lowering factor descriptions to error expressions.
//!
//! Each supported [`FactorKind`] maps to one or more [`Expr`] roots over
//! the Tbl. 3 primitives — e.g. the paper's Equ. 3 between-factor becomes
//! the Equ. 4 pair `(e_o, e_p)` whose MO-DFG is Fig. 11. The rotations of
//! pose variables enter as `Exp(φ)` nodes because the accelerator stores
//! state in the unified `<so(n), T(n)>` representation and materializes
//! rotation matrices on its special-function unit.

use crate::modfg::Expr;
use orianna_graph::{FactorKind, Values, VarId, Variable};
use orianna_math::Mat;

/// A factor lowered to expression form.
#[derive(Debug, Clone)]
pub struct LoweredFactor {
    /// Error-component roots (concatenated vertically to form the factor
    /// error).
    pub roots: Vec<Expr>,
    /// Spatial dimension (2 or 3) of pose variables in the expressions.
    pub space_dim: usize,
}

/// Errors raised during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The factor kind carries no structural description
    /// ([`FactorKind::Opaque`]); the compiler cannot emit instructions
    /// for it.
    Opaque,
    /// The factor key count does not match the kind's arity.
    Arity {
        /// Expected key count.
        expected: usize,
        /// Actual key count.
        actual: usize,
    },
    /// The factor describes no measurement at all (e.g. a linear factor
    /// with zero coefficient blocks).
    Empty,
    /// A GPS fix whose coordinate count differs from the translation
    /// dimension of its pose variable (a planar fix on a spatial pose).
    GpsDimension {
        /// Coordinates in the fix.
        fix: usize,
        /// Translation dimension of the pose variable.
        pose: usize,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::Opaque => write!(f, "factor has no structural description (opaque)"),
            LowerError::Arity { expected, actual } => {
                write!(
                    f,
                    "factor arity mismatch: expected {expected} keys, got {actual}"
                )
            }
            LowerError::Empty => write!(f, "factor has no measurement blocks"),
            LowerError::GpsDimension { fix, pose } => write!(
                f,
                "GPS fix has {fix} coordinates but its pose variable translates in {pose}"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

fn rot(v: VarId) -> Expr {
    Expr::Exp(Box::new(Expr::VarPhi(v)))
}

fn col(values: &[f64]) -> Mat {
    Mat::from_row_major(values.len(), 1, values)
}

/// Lowers a factor kind (with its keys) to error expressions.
///
/// # Errors
/// Returns [`LowerError::Opaque`] for factors without a structural
/// description and [`LowerError::Arity`] when `keys` has the wrong length.
pub fn lower_factor(kind: &FactorKind, keys: &[VarId]) -> Result<LoweredFactor, LowerError> {
    FactorNumbers::of(kind.clone())?.lower(keys)
}

/// Which error expression a factor lowers to, apart from its numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Form {
    /// `PriorPose2`/`PriorPose3` in `space_dim` dimensions.
    Prior(usize),
    /// `BetweenPose2`/`BetweenPose3` in `space_dim` dimensions.
    Between(usize),
    Gps,
    Camera,
    /// A linear factor; a zero `rhs` drops the subtraction.
    Linear {
        /// Every `rhs` entry compares equal to zero.
        zero_rhs: bool,
    },
    Collision,
}

/// A factor's numbers, in the order its lowering reads them, beside the
/// [`Form`] of the expression that reads them. Lowering takes every
/// `Const` leaf and `MatVec` matrix from `mats` and every `Proj`
/// intrinsic and `Hinge` threshold from `scalars`, so two factors of one
/// form whose numbers match in shape and bit-equality pattern lower to
/// MO-DFGs of one shape.
#[derive(Debug, Clone)]
pub(crate) struct FactorNumbers {
    pub(crate) form: Form,
    /// Matrix payloads: pose measurements `[Rz, tz]`, a GPS fix, a pixel,
    /// linear blocks then `rhs`, or one centre per obstacle.
    pub(crate) mats: Vec<Mat>,
    /// Scalars: camera `[fx, fy, cx, cy]` or one threshold per obstacle.
    pub(crate) scalars: Vec<f64>,
}

impl FactorNumbers {
    /// Splits a factor description into its form and numbers.
    ///
    /// # Errors
    /// Returns [`LowerError::Opaque`] for [`FactorKind::Opaque`].
    pub(crate) fn of(kind: FactorKind) -> Result<Self, LowerError> {
        let pose = |form, rz: Mat, tz: &[f64]| Self {
            form,
            mats: vec![rz, col(tz)],
            scalars: Vec::new(),
        };
        Ok(match kind {
            FactorKind::PriorPose2 { z } => {
                pose(Form::Prior(2), z.rotation().to_mat(), &z.translation())
            }
            FactorKind::PriorPose3 { z } => {
                pose(Form::Prior(3), z.rotation().to_mat(), &z.translation())
            }
            FactorKind::BetweenPose2 { z } => {
                pose(Form::Between(2), z.rotation().to_mat(), &z.translation())
            }
            FactorKind::BetweenPose3 { z } => {
                pose(Form::Between(3), z.rotation().to_mat(), &z.translation())
            }
            FactorKind::Gps { z } => Self {
                form: Form::Gps,
                mats: vec![col(z.as_slice())],
                scalars: Vec::new(),
            },
            FactorKind::Camera {
                pixel,
                fx,
                fy,
                cx,
                cy,
            } => Self {
                form: Form::Camera,
                mats: vec![col(&pixel)],
                scalars: vec![fx, fy, cx, cy],
            },
            FactorKind::LinearVector { mut blocks, rhs } => {
                let zero_rhs = rhs.as_slice().iter().all(|x| *x == 0.0);
                blocks.push(col(rhs.as_slice()));
                Self {
                    form: Form::Linear { zero_rhs },
                    mats: blocks,
                    scalars: Vec::new(),
                }
            }
            FactorKind::Collision { obstacles, safety } => Self {
                form: Form::Collision,
                mats: obstacles.iter().map(|(c, _)| col(c)).collect(),
                scalars: obstacles.iter().map(|(_, r)| r + safety).collect(),
            },
            FactorKind::Opaque => return Err(LowerError::Opaque),
        })
    }

    /// Checks what lowering cannot see from the keys alone: a GPS fix on a
    /// pose must have one coordinate per translation axis of that pose.
    /// (A fix on a non-pose variable fails later, at its `Input`, as a
    /// variable without a translation component.)
    ///
    /// # Errors
    /// [`LowerError::GpsDimension`] naming both dimensions.
    pub(crate) fn check_variables(
        &self,
        keys: &[VarId],
        values: &Values,
    ) -> Result<(), LowerError> {
        if self.form != Form::Gps {
            return Ok(());
        }
        let pose = match keys.first().map(|&k| values.get(k)) {
            Some(Variable::Pose2(_)) => 2,
            Some(Variable::Pose3(_)) => 3,
            _ => return Ok(()),
        };
        let fix = self.mats[0].rows();
        if fix == pose {
            Ok(())
        } else {
            Err(LowerError::GpsDimension { fix, pose })
        }
    }

    /// Lowers the factor over `keys` to error expressions.
    ///
    /// # Errors
    /// Returns [`LowerError::Arity`] when `keys` has the wrong length and
    /// [`LowerError::Empty`] for a linear factor without blocks.
    pub(crate) fn lower(&self, keys: &[VarId]) -> Result<LoweredFactor, LowerError> {
        let need = |n: usize| {
            if keys.len() == n {
                Ok(())
            } else {
                Err(LowerError::Arity {
                    expected: n,
                    actual: keys.len(),
                })
            }
        };
        let konst = |i: usize| Expr::Const(self.mats[i].clone());
        let (roots, space_dim) = match self.form {
            Form::Prior(space_dim) => {
                need(1)?;
                (prior_pose_exprs(keys[0], konst(0), konst(1)), space_dim)
            }
            Form::Between(space_dim) => {
                need(2)?;
                let roots = between_pose_exprs(keys[0], keys[1], konst(0), konst(1));
                (roots, space_dim)
            }
            Form::Gps => {
                need(1)?;
                let e = Expr::Sub(Box::new(Expr::VarTrans(keys[0])), Box::new(konst(0)));
                (vec![e], self.mats[0].rows())
            }
            Form::Camera => {
                need(2)?;
                let x = keys[0];
                let l = keys[1];
                // p_c = Rᵀ (l − t); e = π(p_c) − uv.
                let pc = Expr::Rv(
                    Box::new(Expr::Rt(Box::new(rot(x)))),
                    Box::new(Expr::Sub(
                        Box::new(Expr::VarVec(l)),
                        Box::new(Expr::VarTrans(x)),
                    )),
                );
                let [fx, fy, cx, cy] = [0, 1, 2, 3].map(|i| self.scalars[i]);
                let proj = Expr::Proj {
                    fx,
                    fy,
                    cx,
                    cy,
                    src: Box::new(pc),
                };
                (vec![Expr::Sub(Box::new(proj), Box::new(konst(0)))], 3)
            }
            Form::Linear { zero_rhs } => {
                let (rhs, blocks) = self.mats.split_last().expect("a linear factor has an rhs");
                need(blocks.len())?;
                let mut acc: Option<Expr> = None;
                for (k, a) in keys.iter().zip(blocks) {
                    let term = Expr::MatVec(a.clone(), Box::new(Expr::VarVec(*k)));
                    acc = Some(match acc {
                        None => term,
                        Some(prev) => Expr::Add(Box::new(prev), Box::new(term)),
                    });
                }
                let sum = acc.ok_or(LowerError::Empty)?;
                let e = if zero_rhs {
                    sum
                } else {
                    Expr::Sub(Box::new(sum), Box::new(Expr::Const(rhs.clone())))
                };
                (vec![e], 2)
            }
            Form::Collision => {
                need(1)?;
                let x = keys[0];
                let roots = self.scalars.iter().enumerate().map(|(i, threshold)| {
                    let p = Expr::Slice {
                        start: 0,
                        len: 2,
                        src: Box::new(Expr::VarVec(x)),
                    };
                    let d = Expr::Norm(Box::new(Expr::Sub(Box::new(p), Box::new(konst(i)))));
                    Expr::Hinge(*threshold, Box::new(d))
                });
                (roots.collect(), 2)
            }
        };
        Ok(LoweredFactor { roots, space_dim })
    }
}

fn prior_pose_exprs(x: VarId, rz: Expr, tz: Expr) -> Vec<Expr> {
    // e_o = Log(Rzᵀ Rx);  e_p = Rzᵀ (t − tz).
    let rzt = Expr::Rt(Box::new(rz));
    let e_o = Expr::Log(Box::new(Expr::Rr(Box::new(rzt.clone()), Box::new(rot(x)))));
    let e_p = Expr::Rv(
        Box::new(rzt),
        Box::new(Expr::Sub(Box::new(Expr::VarTrans(x)), Box::new(tz))),
    );
    vec![e_o, e_p]
}

fn between_pose_exprs(i: VarId, j: VarId, rz: Expr, tz: Expr) -> Vec<Expr> {
    // Equ. 4: e_o = Log(ΔRᵀ Rᵢᵀ Rⱼ); e_p = ΔRᵀ (Rᵢᵀ(tⱼ − tᵢ) − Δt).
    let rit = Expr::Rt(Box::new(rot(i)));
    let dzt = Expr::Rt(Box::new(rz));
    let e_o = Expr::Log(Box::new(Expr::Rr(
        Box::new(dzt.clone()),
        Box::new(Expr::Rr(Box::new(rit.clone()), Box::new(rot(j)))),
    )));
    let diff = Expr::Sub(Box::new(Expr::VarTrans(j)), Box::new(Expr::VarTrans(i)));
    let e_p = Expr::Rv(
        Box::new(dzt),
        Box::new(Expr::Sub(
            Box::new(Expr::Rv(Box::new(rit), Box::new(diff))),
            Box::new(tz),
        )),
    );
    vec![e_o, e_p]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modfg::ModFg;
    use orianna_lie::{Pose2, Pose3};
    use orianna_math::Vec64;

    #[test]
    fn lowers_prior_pose3() {
        let kind = FactorKind::PriorPose3 {
            z: Pose3::from_parts([0.1, 0.0, 0.0], [1.0, 2.0, 3.0]),
        };
        let lf = lower_factor(&kind, &[VarId(0)]).unwrap();
        assert_eq!(lf.roots.len(), 2);
        let g = ModFg::from_exprs(&lf.roots, lf.space_dim).unwrap();
        assert!(g.len() > 4);
    }

    #[test]
    fn lowers_between_pose2() {
        let kind = FactorKind::BetweenPose2 {
            z: Pose2::new(0.1, 1.0, 0.0),
        };
        let lf = lower_factor(&kind, &[VarId(0), VarId(1)]).unwrap();
        let g = ModFg::from_exprs(&lf.roots, 2).unwrap();
        // Both orientation inputs present.
        assert_eq!(
            g.variable_leaves().iter().filter(|(v, _)| v.0 == 0).count(),
            2
        );
    }

    #[test]
    fn lowers_linear_vector() {
        let kind = FactorKind::LinearVector {
            blocks: vec![Mat::identity(2), Mat::identity(2).scale(-1.0)],
            rhs: Vec64::zeros(2),
        };
        let lf = lower_factor(&kind, &[VarId(0), VarId(1)]).unwrap();
        assert_eq!(lf.roots.len(), 1);
    }

    #[test]
    fn arity_checked() {
        let kind = FactorKind::Gps { z: Vec64::zeros(2) };
        let err = lower_factor(&kind, &[VarId(0), VarId(1)]).unwrap_err();
        assert_eq!(
            err,
            LowerError::Arity {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn opaque_is_rejected() {
        assert_eq!(
            lower_factor(&FactorKind::Opaque, &[]).unwrap_err(),
            LowerError::Opaque
        );
    }

    #[test]
    fn collision_emits_one_root_per_obstacle() {
        let kind = FactorKind::Collision {
            obstacles: vec![([0.0, 0.0], 1.0), ([5.0, 5.0], 2.0)],
            safety: 0.5,
        };
        let lf = lower_factor(&kind, &[VarId(0)]).unwrap();
        assert_eq!(lf.roots.len(), 2);
    }
}

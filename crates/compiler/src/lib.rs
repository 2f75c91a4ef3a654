//! # orianna-compiler
//!
//! The ORIANNA compiler (paper Sec. 5.2): translates high-level factor
//! graph programs into low-level matrix instructions.
//!
//! Pipeline:
//! 1. each factor's structural description ([`orianna_graph::FactorKind`])
//!    is lowered to an error expression over the Tbl. 3 primitives
//!    ([`lower`]),
//! 2. the expressions are converted to postfix and stack-parsed into a
//!    **matrix-operation data-flow graph** with common-subexpression
//!    elimination ([`modfg`]),
//! 3. a **forward traversal** of each MO-DFG emits instructions computing
//!    the error (RHS `b`); **backward propagation** emits instructions for
//!    the derivative blocks of `A` via tangent-space chain rule
//!    ([`codegen`], the blue arrows of Fig. 10/11),
//! 4. a final graph traversal in elimination order emits the `QRD` /
//!    `BSUB` solving-phase instructions (Fig. 5/6).
//!
//! The resulting [`Program`] is a register machine over small matrices —
//! the contract between the compiler and the generated hardware. An
//! ISA-level functional simulator ([`exec`]) pins down the semantics; the
//! compiled path is verified to reproduce the analytic solver's Jacobians
//! and solution exactly.
//!
//! ## Example
//!
//! ```
//! use orianna_compiler::{compile, execute};
//! use orianna_graph::{natural_ordering, FactorGraph, PriorFactor, BetweenFactor};
//! use orianna_lie::Pose2;
//!
//! let mut g = FactorGraph::new();
//! let a = g.add_pose2(Pose2::identity());
//! let b = g.add_pose2(Pose2::new(0.1, 0.8, 0.0));
//! g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
//! g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.1));
//!
//! let prog = compile(&g, &natural_ordering(&g)).expect("compiles");
//! let result = execute(&prog, g.values()).expect("executes");
//! assert_eq!(result.delta.len(), 6);
//! ```

pub mod codegen;
pub mod exec;
pub mod lower;
pub mod modfg;
pub mod passes;
pub mod program;

pub use codegen::{compile, CompileError};
pub use exec::{execute, ExecError, ExecResult};
pub use lower::{lower_factor, LowerError, LoweredFactor};
pub use modfg::{Expr, ModFg, NodeOp, ValKind};
pub use passes::{disassemble, optimize, PassStats};
pub use program::{Instruction, Op, Phase, Program, ProgramError, Reg, UnitClass, VarComp};

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{
        natural_ordering, BetweenFactor, CameraFactor, CameraModel, CollisionFactor, FactorGraph,
        GpsFactor, PriorFactor, SmoothFactor, VectorPriorFactor,
    };
    use orianna_lie::{Pose2, Pose3};
    use orianna_math::Vec64;
    use orianna_solver::eliminate;

    /// Asserts that the compiled path reproduces the analytic
    /// linearization and the analytic solution exactly.
    fn assert_compiler_matches_solver(g: &FactorGraph, tol: f64) {
        let ordering = natural_ordering(g);
        let prog = compile(g, &ordering).expect("compiles");
        let result = execute(&prog, g.values()).expect("executes");

        // 1. Per-factor whitened RHS and Jacobians match.
        let sys = g.linearize();
        for (fi, lf) in sys.factors.iter().enumerate() {
            let rhs = result.reg(prog.factor_rhs[fi]);
            for r in 0..lf.rhs.len() {
                assert!(
                    (rhs[(r, 0)] - lf.rhs[r]).abs() < tol,
                    "factor {fi} rhs row {r}: {} vs {}",
                    rhs[(r, 0)],
                    lf.rhs[r]
                );
            }
            for ((key, jreg), (key2, jblk)) in prog.factor_jacobians[fi]
                .iter()
                .zip(lf.keys.iter().zip(&lf.blocks))
            {
                assert_eq!(key, key2);
                let jm = result.reg(*jreg);
                assert_eq!(jm.shape(), jblk.shape(), "factor {fi} key {key}");
                let diff = (&jm - jblk).max_abs();
                assert!(diff < tol, "factor {fi} key {key} jacobian diff {diff}");
            }
        }

        // 2. Solution matches elimination-based solve.
        let (bn, _) = eliminate(&sys, &ordering).expect("solver eliminates");
        let delta_ref = bn.back_substitute().expect("solver back-substitutes");
        assert!(
            (&result.delta - &delta_ref).norm() < tol,
            "delta diff {}",
            (&result.delta - &delta_ref).norm()
        );
    }

    #[test]
    fn pose2_chain_matches() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_pose2(Pose2::new(0.1 * i as f64, i as f64 * 0.9, 0.2)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.05, 1.0, 0.0),
                0.2,
            ));
        }
        g.add_factor(GpsFactor::new(ids[2], &[2.0, 0.1], 0.5));
        assert_compiler_matches_solver(&g, 1e-9);
    }

    #[test]
    fn pose3_chain_matches() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..3)
            .map(|i| {
                g.add_pose3(Pose3::from_parts(
                    [0.1 * i as f64, -0.05, 0.2],
                    [i as f64, 0.3, -0.1],
                ))
            })
            .collect();
        g.add_factor(PriorFactor::pose3(ids[0], Pose3::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose3(
                w[0],
                w[1],
                Pose3::from_parts([0.05, 0.0, -0.1], [1.0, 0.0, 0.0]),
                0.2,
            ));
        }
        g.add_factor(GpsFactor::new(ids[1], &[1.0, 0.2, 0.0], 0.5));
        assert_compiler_matches_solver(&g, 1e-9);
    }

    #[test]
    fn camera_landmark_matches() {
        let mut g = FactorGraph::new();
        let x = g.add_pose3(Pose3::from_parts([0.05, -0.02, 0.1], [0.2, -0.1, 0.0]));
        let l = g.add_point3([0.5, 0.3, 4.0]);
        let model = CameraModel::default();
        g.add_factor(PriorFactor::pose3(x, Pose3::identity(), 0.05));
        g.add_factor(CameraFactor::new(x, l, [350.0, 270.0], model, 1.0));
        // A second camera observation from another pose so the landmark is
        // fully constrained.
        let x2 = g.add_pose3(Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]));
        g.add_factor(PriorFactor::pose3(
            x2,
            Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]),
            0.05,
        ));
        g.add_factor(CameraFactor::new(x2, l, [300.0, 255.0], model, 1.0));
        assert_compiler_matches_solver(&g, 1e-8);
    }

    #[test]
    fn planning_vectors_match() {
        let mut g = FactorGraph::new();
        let states: Vec<_> = (0..4)
            .map(|i| g.add_vector(Vec64::from_slice(&[i as f64, 0.0, 1.0, 0.1])))
            .collect();
        g.add_factor(VectorPriorFactor::new(
            states[0],
            Vec64::from_slice(&[0.0, 0.0, 1.0, 0.0]),
            0.1,
        ));
        for w in states.windows(2) {
            g.add_factor(SmoothFactor::new(w[0], w[1], 2, 1.0, 0.3));
        }
        g.add_factor(VectorPriorFactor::new(
            states[3],
            Vec64::from_slice(&[3.0, 0.5, 1.0, 0.0]),
            0.1,
        ));
        g.add_factor(CollisionFactor::new(
            states[1],
            2,
            vec![([1.0, 0.1], 0.5)],
            0.3,
            0.5,
        ));
        assert_compiler_matches_solver(&g, 1e-9);
    }

    #[test]
    fn opaque_factor_rejected() {
        let mut g = FactorGraph::new();
        let x = g.add_vector(Vec64::from_slice(&[1.0]));
        g.add_factor(orianna_graph::CustomFactor::new(
            vec![x],
            1,
            1.0,
            |vals, keys| {
                let v = vals.get(keys[0]).as_vector();
                Vec64::from_slice(&[v[0] * v[0]])
            },
        ));
        let err = compile(&g, &natural_ordering(&g)).unwrap_err();
        assert!(matches!(err, CompileError::Lower { .. }));
    }

    #[test]
    fn instruction_mix_uses_paper_primitives() {
        let mut g = FactorGraph::new();
        let a = g.add_pose3(Pose3::identity());
        let b = g.add_pose3(Pose3::from_parts([0.1, 0.0, 0.0], [1.0, 0.0, 0.0]));
        g.add_factor(PriorFactor::pose3(a, Pose3::identity(), 0.1));
        g.add_factor(BetweenFactor::pose3(
            a,
            b,
            Pose3::from_parts([0.1, 0.0, 0.0], [1.0, 0.0, 0.0]),
            0.1,
        ));
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let names: Vec<&str> = prog.instrs.iter().map(|i| i.op.mnemonic()).collect();
        for expect in [
            "EXP", "LOG", "RT", "RR", "RV", "VP-", "JRI", "SKEW", "QRD", "BSUB",
        ] {
            assert!(names.contains(&expect), "missing {expect}: {names:?}");
        }
        // Exactly one QRD per variable, one BSUB per variable.
        assert_eq!(prog.elimination.len(), 2);
        assert_eq!(prog.back_subs.len(), 2);
    }

    #[test]
    fn shared_rotations_are_materialized_once() {
        // Two factors touching the same pose reuse its Exp(φ).
        let mut g = FactorGraph::new();
        let a = g.add_pose3(Pose3::from_parts([0.2, 0.1, 0.0], [0.0, 0.0, 0.0]));
        g.add_factor(PriorFactor::pose3(a, Pose3::identity(), 0.1));
        g.add_factor(GpsFactor::new(a, &[0.0, 0.0, 0.0], 0.5));
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let exp_count = prog
            .instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Exp))
            .count();
        assert_eq!(exp_count, 1, "rotation of the pose must be shared");
    }
}

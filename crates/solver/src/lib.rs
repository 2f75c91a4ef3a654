//! # orianna-solver
//!
//! Reference software implementation of factor-graph inference — the role
//! GTSAM plays in the paper's evaluation (Sec. 7.1, "Software setup").
//!
//! Solving the nonlinear problem follows the Gauss-Newton loop of Fig. 3:
//! linearize all factors (`orianna-graph`), then solve `A Δ = b` by
//! *incremental variable elimination* (Fig. 5) — for each variable in an
//! elimination order, gather the adjacent block rows into a small dense
//! matrix, partially QR-decompose it, keep the triangular conditional, and
//! push the remainder back as a new factor on the separator variables —
//! followed by back-substitution on the resulting Bayes net (Fig. 6).
//!
//! The elimination path is verified against the dense least-squares oracle
//! on every system in the test-suite: both compute the same Δ because
//! elimination *is* a QR factorization of the full Jacobian.
//!
//! This crate also records [`EliminationStats`] — the sizes and densities
//! of every dense sub-problem — which regenerate Fig. 17/18 of the paper
//! and drive the hardware latency models.
//!
//! ## Example
//!
//! ```
//! use orianna_graph::{FactorGraph, PriorFactor, BetweenFactor};
//! use orianna_lie::Pose2;
//! use orianna_solver::{GaussNewton, GaussNewtonSettings};
//!
//! let mut g = FactorGraph::new();
//! let a = g.add_pose2(Pose2::identity());
//! let b = g.add_pose2(Pose2::identity()); // bad initial guess
//! g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
//! g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.1));
//! let report = GaussNewton::new(GaussNewtonSettings::default())
//!     .optimize(&mut g)
//!     .expect("solvable");
//! assert!(report.converged);
//! assert!((g.values().get(b).as_pose2().x() - 1.0).abs() < 1e-9);
//! ```

pub mod bayes_tree;
pub mod elimination;
pub mod gauss_newton;
pub mod incremental;
pub mod levenberg;
pub mod plan;
pub mod workspace;

pub use elimination::{eliminate, BayesNet, Conditional, EliminationStats, SolveError, StepShape};
pub use gauss_newton::{GaussNewton, GaussNewtonReport, GaussNewtonSettings};
pub use incremental::IncrementalSolver;
pub use levenberg::{LevenbergMarquardt, LevenbergMarquardtReport, LevenbergMarquardtSettings};
pub use plan::{PlanCache, SolvePlan};
pub use workspace::Workspace;

//! Levenberg-Marquardt: damped Gauss-Newton for poorly-initialized or
//! strongly nonlinear problems.
//!
//! An extension beyond the paper's Gauss-Newton pipeline (Fig. 3), useful
//! when hinge collision costs or camera projections make plain GN steps
//! unreliable. Damping is implemented *inside the factor-graph
//! formulation*: each iteration appends per-variable damping rows
//! `√λ · I · Δᵥ = 0` to the linearized system, so the same incremental
//! elimination path solves the damped normal equations — and the same
//! generated accelerator could execute it (the damping rows are constant
//! diagonal blocks).

use crate::elimination::SolveError;
use crate::gauss_newton::PlanSource;
use crate::plan::{PlanCache, SolvePlan};
use crate::workspace::Workspace;
use orianna_graph::{min_degree_ordering, FactorGraph, LinearFactor, LinearSystem, VarId};
use orianna_math::macs;

/// Settings of the Levenberg-Marquardt driver.
#[derive(Debug, Clone, Copy)]
pub struct LevenbergMarquardtSettings {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Initial damping λ.
    pub initial_lambda: f64,
    /// Multiplicative λ decrease on accepted steps.
    pub lambda_down: f64,
    /// Multiplicative λ increase on rejected steps.
    pub lambda_up: f64,
    /// Upper bound on λ; exceeding it terminates the run.
    pub max_lambda: f64,
    /// Converged when the error falls below this.
    pub abs_tol: f64,
    /// Converged when the relative improvement falls below this.
    pub rel_tol: f64,
}

impl Default for LevenbergMarquardtSettings {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            initial_lambda: 1e-4,
            lambda_down: 0.3,
            lambda_up: 10.0,
            max_lambda: 1e10,
            abs_tol: 1e-12,
            rel_tol: 1e-10,
        }
    }
}

/// Outcome of a Levenberg-Marquardt run.
#[derive(Debug, Clone)]
pub struct LevenbergMarquardtReport {
    /// Outer iterations executed (accepted + rejected).
    pub iterations: usize,
    /// Objective before optimization.
    pub initial_error: f64,
    /// Objective after the last accepted step.
    pub final_error: f64,
    /// Whether a convergence criterion fired.
    pub converged: bool,
    /// Final damping value.
    pub final_lambda: f64,
}

/// The Levenberg-Marquardt optimizer.
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, PriorFactor};
/// use orianna_lie::Pose2;
/// use orianna_solver::{LevenbergMarquardt, LevenbergMarquardtSettings};
///
/// let mut g = FactorGraph::new();
/// let x = g.add_pose2(Pose2::new(0.4, 3.0, -2.0));
/// g.add_factor(PriorFactor::pose2(x, Pose2::identity(), 0.1));
/// let report = LevenbergMarquardt::new(LevenbergMarquardtSettings::default())
///     .optimize(&mut g)
///     .expect("solvable");
/// assert!(report.converged);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LevenbergMarquardt {
    settings: LevenbergMarquardtSettings,
}

impl LevenbergMarquardt {
    /// Creates an optimizer with the given settings.
    pub fn new(settings: LevenbergMarquardtSettings) -> Self {
        Self { settings }
    }

    /// Optimizes the graph in place.
    ///
    /// # Errors
    /// Propagates [`SolveError`] when even the damped system cannot be
    /// eliminated (unconstrained variables stay unconstrained only when
    /// λ = 0; damping regularizes them, so this normally only fires for
    /// structurally empty graphs).
    pub fn optimize(
        &self,
        graph: &mut FactorGraph,
    ) -> Result<LevenbergMarquardtReport, SolveError> {
        // A one-shot cache: the plan is built lazily on the first
        // linearization, exactly as Gauss-Newton's.
        let cache = &mut PlanCache::new();
        self.run(
            graph,
            PlanSource::Cache {
                cache,
                checkout: None,
            },
        )
    }

    /// Builds the [`SolvePlan`] for the *damped* system of `graph` at the
    /// current linearization point, in the greedy minimum-degree order
    /// that [`optimize`](LevenbergMarquardt::optimize) eliminates in.
    ///
    /// λ only scales the values of the appended `√λ·I` rows, never their
    /// sparsity, so one plan serves every iteration of every
    /// [`optimize_with_plan`](LevenbergMarquardt::optimize_with_plan) call
    /// over the same topology — the same reuse contract as
    /// [`GaussNewton`](crate::GaussNewton) plans, which lets a serving
    /// cache share LM plans across requests.
    ///
    /// # Errors
    /// Propagates [`SolveError`] from the symbolic analysis.
    pub fn plan(&self, graph: &FactorGraph) -> Result<SolvePlan, SolveError> {
        let s = &self.settings;
        let mut sys = LinearSystem::default();
        graph.linearize_into(&mut sys);
        append_damping(&mut sys, &mut Vec::new(), s.initial_lambda);
        SolvePlan::for_system(&sys, min_degree_ordering(graph).as_slice())
    }

    /// [`optimize`](LevenbergMarquardt::optimize) against an externally
    /// checked-out plan and workspace — parity with
    /// [`GaussNewton::optimize_with_plan`](crate::GaussNewton::optimize_with_plan),
    /// so LM serving sessions can share a cached plan instead of paying
    /// the symbolic phase per request. The plan must come from
    /// [`plan`](LevenbergMarquardt::plan) (or any structurally identical
    /// damped system). Bitwise identical to plain `optimize` over the
    /// same graph.
    ///
    /// # Errors
    /// Propagates [`SolveError`]; `PlanMismatch` when the plan or
    /// workspace does not belong to this graph's damped structure.
    pub fn optimize_with_plan(
        &self,
        graph: &mut FactorGraph,
        plan: &SolvePlan,
        ws: &mut Workspace,
    ) -> Result<LevenbergMarquardtReport, SolveError> {
        self.run(graph, PlanSource::Held(plan, ws))
    }

    /// Runs [`Self::iterate`] and parks the plan source's workspace
    /// whether the loop succeeded or failed.
    fn run(
        &self,
        graph: &mut FactorGraph,
        mut source: PlanSource<'_>,
    ) -> Result<LevenbergMarquardtReport, SolveError> {
        let report = self.iterate(graph, &mut source);
        source.park();
        report
    }

    /// The Levenberg-Marquardt iteration loop behind every entry point.
    ///
    /// A non-finite starting objective is [`SolveError::NonFinite`]: no
    /// step can compare below NaN, so damping would only climb to
    /// `max_lambda`. Accepted steps are always finite (`new_error <
    /// error` fails for NaN), so the check is needed only here.
    fn iterate(
        &self,
        graph: &mut FactorGraph,
        source: &mut PlanSource<'_>,
    ) -> Result<LevenbergMarquardtReport, SolveError> {
        let s = &self.settings;
        let initial_error = graph.total_error();
        if !initial_error.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let mut error = initial_error;
        let mut lambda = s.initial_lambda;
        let mut converged = error <= s.abs_tol;
        let mut iterations = 0;
        // The linearization buffer, the plan and its workspace all persist
        // across iterations: λ changes only the *values* of the damping
        // rows, never the damped system's structure. The candidate lives
        // in the workspace too; an accepted one is copied into the graph.
        while iterations < s.max_iterations && !converged && lambda <= s.max_lambda {
            iterations += 1;
            let ws = source.solve(graph, Some(lambda))?;
            let trial = &mut ws.warm.trial;
            graph.values().retract_all_into(&ws.delta, trial);
            let new_error = graph.total_error_with(trial);
            if new_error < error {
                graph.values_mut().copy_from(trial);
                let improvement = (error - new_error) / error.max(1e-300);
                error = new_error;
                lambda = (lambda * s.lambda_down).max(1e-12);
                if error <= s.abs_tol || improvement <= s.rel_tol {
                    converged = true;
                }
            } else {
                lambda *= s.lambda_up;
            }
        }

        Ok(LevenbergMarquardtReport {
            iterations,
            initial_error,
            final_error: error,
            converged,
            final_lambda: lambda,
        })
    }
}

/// Appends `√λ·I` damping rows for every variable. Rows are taken from
/// `spare` (rows parked from an earlier damped system) and overwritten in
/// place when their shape still matches; the rest are built fresh.
pub(crate) fn append_damping(sys: &mut LinearSystem, spare: &mut Vec<LinearFactor>, lambda: f64) {
    let sqrt_l = lambda.sqrt();
    let first = sys.factors.len();
    sys.factors.append(spare);
    sys.factors.truncate(first + sys.var_dims.len());
    for v in 0..sys.var_dims.len() {
        let d = sys.var_dims[v];
        if sys.factors.len() == first + v {
            sys.factors.push(LinearFactor::default());
        }
        let row = &mut sys.factors[first + v];
        row.reshape(&[VarId(v)], d, [d]);
        // `Mat::identity(d).scale(√λ)`, zeros included.
        macs::record(d * d);
        let block = row.blocks[0].as_mut_slice();
        for (i, x) in block.iter_mut().enumerate() {
            let identity = if i % (d + 1) == 0 { 1.0 } else { 0.0 };
            *x = identity * sqrt_l;
        }
        row.rhs.as_mut_slice().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{
        natural_ordering, BetweenFactor, CollisionFactor, PriorFactor, VectorPriorFactor,
    };
    use orianna_lie::Pose2;

    #[test]
    fn matches_gauss_newton_on_easy_problem() {
        let build = || {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..4)
                .map(|i| g.add_pose2(Pose2::new(0.1, i as f64 * 0.9, 0.2)))
                .collect();
            g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.01));
            for w in ids.windows(2) {
                g.add_factor(BetweenFactor::pose2(
                    w[0],
                    w[1],
                    Pose2::new(0.0, 1.0, 0.0),
                    0.1,
                ));
            }
            (g, ids)
        };
        let (mut g_lm, ids) = build();
        let (mut g_gn, _) = build();
        LevenbergMarquardt::new(LevenbergMarquardtSettings::default())
            .optimize(&mut g_lm)
            .unwrap();
        crate::GaussNewton::default().optimize(&mut g_gn).unwrap();
        for id in ids {
            let a = g_lm.values().get(id).as_pose2();
            let b = g_gn.values().get(id).as_pose2();
            assert!(a.translation_distance(b) < 1e-6);
        }
    }

    #[test]
    fn survives_hinge_nonlinearity() {
        // A trajectory state initialized *inside* an obstacle: the hinge
        // gradient is locally misleading, where damping helps.
        let mut g = FactorGraph::new();
        let x = g.add_vector(orianna_math::Vec64::from_slice(&[0.05, 0.0, 0.0, 0.0]));
        g.add_factor(VectorPriorFactor::new(
            x,
            orianna_math::Vec64::from_slice(&[2.0, 0.0, 0.0, 0.0]),
            1.0,
        ));
        g.add_factor(CollisionFactor::new(
            x,
            2,
            vec![([0.0, 0.0], 0.5)],
            0.2,
            0.2,
        ));
        let report = LevenbergMarquardt::new(LevenbergMarquardtSettings::default())
            .optimize(&mut g)
            .unwrap();
        assert!(report.final_error < report.initial_error);
        // The state must have left the obstacle margin.
        let v = g.values().get(x).as_vector();
        assert!((v[0] * v[0] + v[1] * v[1]).sqrt() > 0.7, "{v:?}");
    }

    #[test]
    fn min_degree_ordering_matches_gauss_newton() {
        // `optimize` eliminates in min-degree order. On a loopy graph where
        // that differs from natural order, it must reach the optimum of a
        // natural-order damped plan and of Gauss-Newton.
        let build = || {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..6)
                .map(|i| g.add_pose2(Pose2::new(0.15, i as f64 * 0.85, -0.1)))
                .collect();
            g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.01));
            for w in ids.windows(2) {
                g.add_factor(BetweenFactor::pose2(
                    w[0],
                    w[1],
                    Pose2::new(0.0, 1.0, 0.0),
                    0.1,
                ));
            }
            g.add_factor(BetweenFactor::pose2(
                ids[1],
                ids[4],
                Pose2::new(0.0, 3.0, 0.0),
                0.3,
            ));
            (g, ids)
        };
        let lm = LevenbergMarquardt::default();
        let (mut g_lm, ids) = build();
        let (mut g_natural, _) = build();
        let (mut g_gn, _) = build();
        assert_ne!(
            min_degree_ordering(&g_lm).as_slice(),
            natural_ordering(&g_lm).as_slice()
        );
        let report = lm.optimize(&mut g_lm).unwrap();
        assert!(report.converged);

        let mut sys = g_natural.linearize();
        append_damping(&mut sys, &mut Vec::new(), lm.settings.initial_lambda);
        let plan = SolvePlan::for_system(&sys, natural_ordering(&g_natural).as_slice()).unwrap();
        let mut ws = plan.workspace();
        lm.optimize_with_plan(&mut g_natural, &plan, &mut ws)
            .unwrap();
        crate::GaussNewton::default().optimize(&mut g_gn).unwrap();
        for id in ids {
            let a = g_lm.values().get(id).as_pose2();
            for other in [&g_natural, &g_gn] {
                let b = other.values().get(id).as_pose2();
                assert!(a.translation_distance(b) < 1e-6);
            }
        }
    }

    #[test]
    fn optimize_with_plan_is_bitwise_identical_to_optimize() {
        // The serving path (cached plan + workspace) must be a pure
        // restructuring of plain optimize: identical iterate sequence,
        // identical floats, not merely "close".
        let build = || {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..6)
                .map(|i| g.add_pose2(Pose2::new(0.2, i as f64 * 0.8, 0.15)))
                .collect();
            g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.01));
            for w in ids.windows(2) {
                g.add_factor(BetweenFactor::pose2(
                    w[0],
                    w[1],
                    Pose2::new(0.0, 1.0, 0.0),
                    0.1,
                ));
            }
            g.add_factor(BetweenFactor::pose2(
                ids[1],
                ids[4],
                Pose2::new(0.0, 3.0, 0.0),
                0.3,
            ));
            (g, ids)
        };
        let lm = LevenbergMarquardt::default();

        let (mut plain, ids) = build();
        let r1 = lm.optimize(&mut plain).unwrap();

        let (mut via_plan, _) = build();
        let plan = lm.plan(&via_plan).unwrap();
        let mut ws = plan.workspace();
        let r2 = lm
            .optimize_with_plan(&mut via_plan, &plan, &mut ws)
            .unwrap();

        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.final_error.to_bits(), r2.final_error.to_bits());
        assert_eq!(r1.final_lambda.to_bits(), r2.final_lambda.to_bits());
        for id in ids {
            let a = plain.values().get(id).as_pose2();
            let b = via_plan.values().get(id).as_pose2();
            assert_eq!(a.x().to_bits(), b.x().to_bits());
            assert_eq!(a.y().to_bits(), b.y().to_bits());
            assert_eq!(a.theta().to_bits(), b.theta().to_bits());
        }
    }

    #[test]
    fn zero_iterations_when_already_converged() {
        // Same lazy-plan contract as Gauss-Newton: a converged graph never
        // builds a plan, even with a variable no factor touches.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let _free = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 1.0));
        let mut cache = PlanCache::new();
        let report = LevenbergMarquardt::default()
            .run(
                &mut g,
                PlanSource::Cache {
                    cache: &mut cache,
                    checkout: None,
                },
            )
            .unwrap();
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn rejected_steps_raise_lambda() {
        // A converged problem: the first step is tiny, improvements stall,
        // and the run terminates with converged = true.
        let mut g = FactorGraph::new();
        let x = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(x, Pose2::identity(), 0.1));
        let report = LevenbergMarquardt::new(LevenbergMarquardtSettings::default())
            .optimize(&mut g)
            .unwrap();
        assert!(report.converged);
    }

    #[test]
    fn non_finite_objective_is_an_error_and_leaves_values_unchanged() {
        // A NaN measurement makes the objective NaN from the start: no
        // step can compare below it, so LM must report the error instead
        // of damping up to `max_lambda` and returning `Ok` with NaN.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.1, 0.5, -0.25));
        g.add_factor(PriorFactor::pose2(a, Pose2::new(0.0, f64::NAN, 0.0), 0.1));
        let before = *g.values().get(a).as_pose2();
        let err = LevenbergMarquardt::default().optimize(&mut g).unwrap_err();
        assert_eq!(err, SolveError::NonFinite);
        let after = g.values().get(a).as_pose2();
        assert_eq!(after.x().to_bits(), before.x().to_bits());
        assert_eq!(after.y().to_bits(), before.y().to_bits());
        assert_eq!(after.theta().to_bits(), before.theta().to_bits());
    }
}

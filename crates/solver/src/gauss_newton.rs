//! The Gauss-Newton driver (paper Fig. 3).
//!
//! Iteratively: linearize → eliminate → back-substitute → retract, until
//! the error drops below a threshold, the relative improvement stalls, or
//! the iteration budget is exhausted. A simple step-halving line search
//! guards against overshooting on strongly nonlinear factors (hinge
//! collision costs, camera projections).

use crate::elimination::SolveError;
use crate::levenberg::append_damping;
use crate::plan::{PlanCache, SolvePlan};
use crate::workspace::Workspace;
use orianna_graph::{min_degree_ordering, FactorGraph, LinearSystem};
use std::sync::Arc;

/// Settings of the Gauss-Newton driver.
#[derive(Debug, Clone, Copy)]
pub struct GaussNewtonSettings {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Converged when the total weighted squared error falls below this.
    pub abs_tol: f64,
    /// Converged when the relative error improvement falls below this.
    pub rel_tol: f64,
    /// Maximum step-halvings per iteration before accepting the step
    /// anyway (0 disables the line search).
    pub max_step_halvings: usize,
}

impl Default for GaussNewtonSettings {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            abs_tol: 1e-12,
            rel_tol: 1e-10,
            max_step_halvings: 8,
        }
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct GaussNewtonReport {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Objective before the first iteration.
    pub initial_error: f64,
    /// Objective after the last accepted step.
    pub final_error: f64,
    /// Whether a convergence criterion fired (vs. budget exhaustion).
    pub converged: bool,
}

/// The Gauss-Newton optimizer.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone, Default)]
pub struct GaussNewton {
    settings: GaussNewtonSettings,
}

impl GaussNewton {
    /// Creates an optimizer with the given settings.
    pub fn new(settings: GaussNewtonSettings) -> Self {
        Self { settings }
    }

    /// Optimizes the graph in place.
    ///
    /// The symbolic phase of elimination (ordering adjacency, separator
    /// layouts, arena layout) is computed once on the first iteration as a
    /// [`SolvePlan`] and reused by every later iteration — topology is
    /// fixed during optimization, only values change. The plan eliminates
    /// in greedy minimum-degree order ([`min_degree_ordering`]); a caller
    /// that needs another order passes its own plan to
    /// [`optimize_with_plan`](GaussNewton::optimize_with_plan).
    ///
    /// # Errors
    /// Propagates [`SolveError`] from elimination (unconstrained or
    /// singular variables). [`SolveError::NonFinite`] when the accepted
    /// step's objective is NaN or infinite; the graph then keeps its last
    /// finite iterate.
    pub fn optimize(&self, graph: &mut FactorGraph) -> Result<GaussNewtonReport, SolveError> {
        self.optimize_with_cache(graph, &mut PlanCache::new())
    }

    /// [`optimize`](GaussNewton::optimize) against an externally
    /// checked-out plan and workspace — the multi-tenant serving path,
    /// where a sharded cache owns both and hands them to whichever worker
    /// thread executes the request. Runs the same serial arena solve
    /// ([`SolvePlan::solve_in`]), so the result is bitwise identical to
    /// [`optimize`](GaussNewton::optimize) over the same graph whenever
    /// the plan eliminates in the same order.
    ///
    /// # Errors
    /// Propagates [`SolveError`] from elimination; `PlanMismatch` when
    /// the plan or workspace does not belong to this graph's structure.
    pub fn optimize_with_plan(
        &self,
        graph: &mut FactorGraph,
        plan: &SolvePlan,
        ws: &mut Workspace,
    ) -> Result<GaussNewtonReport, SolveError> {
        self.run(graph, PlanSource::Held(plan, ws))
    }

    /// [`optimize`](GaussNewton::optimize) with a caller-owned
    /// [`PlanCache`], letting repeated solves over the same topology
    /// (e.g. the mission harness's randomized trials — same structure,
    /// different noise) skip the symbolic phase entirely.
    ///
    /// # Errors
    /// Propagates [`SolveError`] from elimination.
    pub fn optimize_with_cache(
        &self,
        graph: &mut FactorGraph,
        cache: &mut PlanCache,
    ) -> Result<GaussNewtonReport, SolveError> {
        self.run(
            graph,
            PlanSource::Cache {
                cache,
                checkout: None,
            },
        )
    }

    /// Runs [`Self::iterate`] and parks the plan source's workspace
    /// whether the loop succeeded or failed.
    fn run(
        &self,
        graph: &mut FactorGraph,
        mut source: PlanSource<'_>,
    ) -> Result<GaussNewtonReport, SolveError> {
        let report = self.iterate(graph, &mut source);
        source.park();
        report
    }

    /// The Gauss-Newton iteration loop behind every entry point.
    ///
    /// Construction, objective and retraction run in the checked-out
    /// workspace's warm buffers, so a steady-state iteration allocates
    /// nothing outside the arena solve (which allocates nothing either).
    fn iterate(
        &self,
        graph: &mut FactorGraph,
        source: &mut PlanSource<'_>,
    ) -> Result<GaussNewtonReport, SolveError> {
        let s = &self.settings;
        let initial_error = graph.total_error();
        let mut error = initial_error;
        let mut converged = error <= s.abs_tol;
        let mut iterations = 0;

        while iterations < s.max_iterations && !converged {
            iterations += 1;
            let ws = source.solve(graph, None)?;
            let (delta, warm) = (&ws.delta, &mut *ws.warm);

            // Step-halving line search. Trial steps only move the
            // estimates, so each candidate is scored by re-evaluating the
            // objective at retracted values in `warm.trial` — the factor
            // storage is never cloned. A candidate that is not accepted
            // outright but scores best so far moves to `warm.best`. The
            // accepted estimates are copied into the graph's own buffers,
            // so the workspace's buffers never change hands.
            let mut scale = 1.0;
            let mut best: Option<f64> = None;
            let mut accepted = None;
            for _ in 0..=s.max_step_halvings {
                delta.scale_into(scale, &mut warm.step);
                graph.values().retract_all_into(&warm.step, &mut warm.trial);
                let e = graph.total_error_with(&warm.trial);
                if e < error || s.max_step_halvings == 0 {
                    accepted = Some(e);
                    break;
                }
                // A NaN candidate never displaces a finite one, and any
                // non-NaN candidate displaces a NaN.
                if best.is_none_or(|be| e < be || (be.is_nan() && !e.is_nan())) {
                    best = Some(e);
                    std::mem::swap(&mut warm.trial, &mut warm.best);
                }
                scale *= 0.5;
            }
            let (new_error, chosen) = match accepted {
                Some(e) => (e, &warm.trial),
                None => (best.expect("at least one candidate evaluated"), &warm.best),
            };
            if !new_error.is_finite() {
                return Err(SolveError::NonFinite);
            }
            graph.values_mut().copy_from(chosen);

            let improvement = (error - new_error).abs() / error.max(1e-300);
            error = new_error;
            if error <= s.abs_tol || improvement <= s.rel_tol {
                converged = true;
            }
        }

        Ok(GaussNewtonReport {
            iterations,
            initial_error,
            final_error: error,
            converged,
        })
    }
}

/// Where an optimizer loop gets its plan and workspace.
pub(crate) enum PlanSource<'a> {
    /// A plan and workspace the caller already holds.
    Held(&'a SolvePlan, &'a mut Workspace),
    /// Checked out of `cache` on the first linearization — lazily, so an
    /// already-converged graph never pays the symbolic phase (and keeps
    /// returning `Ok` even when structurally unsolvable) — and parked
    /// back by [`PlanSource::park`].
    Cache {
        cache: &'a mut PlanCache,
        checkout: Option<(Arc<SolvePlan>, Workspace)>,
    },
}

impl PlanSource<'_> {
    /// Linearizes `graph` into the workspace's warm system — appending
    /// LM's `√λ·I` rows when `damping` is `Some(λ)` — and solves it in
    /// the arena, checking the plan out on first use. Returns the
    /// workspace, whose `delta` holds the solved step.
    ///
    /// An undamped first checkout is keyed by
    /// [`FactorGraph::structure_fingerprint`] (equal to the system's), so
    /// a workspace parked by an earlier solve of this topology is taken
    /// *before* linearizing and even the first iteration refills its warm
    /// buffers. Otherwise the first system is built fresh and moved into
    /// the checked-out workspace.
    pub(crate) fn solve(
        &mut self,
        graph: &FactorGraph,
        damping: Option<f64>,
    ) -> Result<&mut Workspace, SolveError> {
        let (plan, ws) = match self {
            Self::Held(plan, ws) => {
                fill_system(ws, graph, damping);
                (&**plan, &mut **ws)
            }
            Self::Cache { cache, checkout } => {
                if checkout.is_none() {
                    let parked = match damping {
                        None => cache.take_workspace(graph.structure_fingerprint()),
                        Some(_) => None,
                    };
                    let (plan, ws) = match parked {
                        Some(mut ws) => {
                            fill_system(&mut ws, graph, damping);
                            (plan_for(cache, &ws.warm.sys, graph)?, ws)
                        }
                        None => {
                            let mut sys = LinearSystem::default();
                            graph.linearize_into(&mut sys);
                            if let Some(lambda) = damping {
                                append_damping(&mut sys, &mut Vec::new(), lambda);
                            }
                            let plan = plan_for(cache, &sys, graph)?;
                            let mut ws = cache.checkout_workspace(&plan);
                            ws.warm.sys = sys;
                            (plan, ws)
                        }
                    };
                    *checkout = Some((plan, ws));
                } else {
                    let (_, ws) = checkout.as_mut().expect("checked out");
                    fill_system(ws, graph, damping);
                }
                let (plan, ws) = checkout.as_mut().expect("checked out above");
                (&**plan, ws)
            }
        };
        // The system lives in the workspace it is solved in; lend it out
        // for the solve (moving a `Vec` header, not its contents).
        let sys = std::mem::take(&mut ws.warm.sys);
        let solved = plan.solve_in(&sys, ws).map(|_| ());
        ws.warm.sys = sys;
        solved.map(|()| ws)
    }

    /// Ends a run, successful or not: parks a checked-out workspace, warm
    /// buffers included, for the next solve over this topology.
    pub(crate) fn park(self) {
        if let Self::Cache {
            cache,
            checkout: Some((plan, ws)),
        } = self
        {
            cache.store_workspace(plan.fingerprint(), ws);
        }
    }
}

/// The cached plan for `sys`, built in min-degree order on a miss.
fn plan_for(
    cache: &mut PlanCache,
    sys: &LinearSystem,
    graph: &FactorGraph,
) -> Result<Arc<SolvePlan>, SolveError> {
    cache.get_or_build(sys.structure_fingerprint(), || {
        SolvePlan::for_system(sys, min_degree_ordering(graph).as_slice())
    })
}

/// Refills the workspace's system in place from `graph`, with LM damping
/// rows when `damping` is `Some(λ)`. The damping rows are parked while
/// the graph rows are refilled, so no row is dropped and rebuilt.
fn fill_system(ws: &mut Workspace, graph: &FactorGraph, damping: Option<f64>) {
    let warm = &mut *ws.warm;
    let graph_rows = graph.num_factors().min(warm.sys.factors.len());
    warm.damping.extend(warm.sys.factors.drain(graph_rows..));
    graph.linearize_into(&mut warm.sys);
    match damping {
        Some(lambda) => append_damping(&mut warm.sys, &mut warm.damping, lambda),
        None => warm.damping.clear(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{
        natural_ordering, BetweenFactor, CameraFactor, CameraModel, FactorGraph, GpsFactor,
        PriorFactor,
    };
    use orianna_lie::{Pose2, Pose3};
    use orianna_math::Vec64;

    #[test]
    fn converges_on_noisy_pose_chain() {
        let mut g = FactorGraph::new();
        // Ground truth: poses at x = 0, 1, 2, 3 — initialized with error.
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_pose2(Pose2::new(0.2, i as f64 + 0.4, -0.3)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.01));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.05,
            ));
        }
        let report = GaussNewton::default().optimize(&mut g).unwrap();
        assert!(report.converged, "{report:?}");
        assert!(report.final_error < 1e-10);
        for (i, id) in ids.iter().enumerate() {
            let p = g.values().get(*id).as_pose2();
            assert!((p.x() - i as f64).abs() < 1e-6, "pose {i}: {p:?}");
            assert!(p.theta().abs() < 1e-6);
        }
    }

    #[test]
    fn converges_with_gps_and_odometry() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..3)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64 * 1.2, 0.2)))
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
        for (i, id) in ids.iter().enumerate() {
            g.add_factor(GpsFactor::new(*id, &[i as f64, 0.0], 0.2));
        }
        let report = GaussNewton::default().optimize(&mut g).unwrap();
        assert!(report.converged);
        assert!(
            g.values()
                .get(ids[2])
                .as_pose2()
                .translation_distance(&Pose2::new(0.0, 2.0, 0.0))
                < 1e-4
        );
    }

    #[test]
    fn bundle_adjustment_style_problem_converges() {
        // One camera pose + two landmarks observed twice each.
        let mut g = FactorGraph::new();
        let true_pose = Pose3::from_parts([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        let x = g.add_pose3(Pose3::from_parts([0.02, -0.01, 0.03], [0.1, -0.1, 0.05]));
        let model = CameraModel::default();
        let lms = [[0.5, 0.3, 4.0], [-0.4, 0.2, 5.0]];
        let mut lm_ids = Vec::new();
        for lm in lms {
            // Perturbed landmark initialization.
            lm_ids.push(g.add_point3([lm[0] + 0.1, lm[1] - 0.1, lm[2] + 0.3]));
        }
        g.add_factor(PriorFactor::pose3(x, true_pose.clone(), 0.001));
        for (lm, id) in lms.iter().zip(&lm_ids) {
            let t = true_pose.translation();
            let pc =
                true_pose
                    .rotation()
                    .transpose()
                    .rotate([lm[0] - t[0], lm[1] - t[1], lm[2] - t[2]]);
            let uv = model.project(pc).unwrap();
            g.add_factor(CameraFactor::new(x, *id, uv, model, 1.0));
            // A second, slightly offset observation to constrain depth.
            g.add_factor(GpsFactorLike::depth_prior(*id, lm[2]));
        }
        let report = GaussNewton::default().optimize(&mut g).unwrap();
        assert!(report.final_error < 1e-8, "{report:?}");
        for (lm, id) in lms.iter().zip(&lm_ids) {
            let p = g.values().get(*id).as_point3();
            for k in 0..3 {
                assert!((p[k] - lm[k]).abs() < 1e-3, "landmark {p:?} vs {lm:?}");
            }
        }
    }

    /// Tiny helper factor for the BA test: a prior on the z coordinate of
    /// a landmark (models a depth sensor).
    struct GpsFactorLike;
    impl GpsFactorLike {
        fn depth_prior(id: orianna_graph::VarId, z: f64) -> orianna_graph::CustomFactor {
            orianna_graph::CustomFactor::new(vec![id], 1, 0.05, move |vals, keys| {
                let p = vals.get(keys[0]).as_point3();
                orianna_math::Vec64::from_slice(&[p[2] - z])
            })
        }
    }

    #[test]
    fn reports_initial_and_final_error() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.0, 5.0, 5.0));
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 1.0));
        let report = GaussNewton::default().optimize(&mut g).unwrap();
        assert!(report.initial_error > 1.0);
        assert!(report.final_error < 1e-12);
        assert!(report.iterations >= 1);
    }

    #[test]
    fn zero_iterations_when_already_converged() {
        // The plan is built lazily: a converged graph never builds one, so
        // it returns Ok even though no factor touches `_free`.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let _free = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 1.0));
        let mut cache = PlanCache::new();
        let report = GaussNewton::default()
            .optimize_with_cache(&mut g, &mut cache)
            .unwrap();
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.parked_workspaces(), 0);
    }

    #[test]
    fn warm_buffers_are_parked_with_the_workspace() {
        let chain = |offset: f64| {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..4)
                .map(|i| g.add_pose2(Pose2::new(0.1, i as f64 + offset, -0.2)))
                .collect();
            g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.01));
            for w in ids.windows(2) {
                g.add_factor(BetweenFactor::pose2(
                    w[0],
                    w[1],
                    Pose2::new(0.0, 1.0, 0.0),
                    0.05,
                ));
            }
            g
        };
        let fp = chain(0.0).structure_fingerprint();
        let mut cache = PlanCache::new();
        let gn = GaussNewton::default();
        gn.optimize_with_cache(&mut chain(0.3), &mut cache).unwrap();
        // The workspace parks with its linearized system.
        let ws = cache.take_workspace(fp).expect("parked");
        assert_eq!(ws.warm.sys.factors.len(), 4);
        cache.store_workspace(fp, ws);
        // Warm or cold, the results are bitwise those of a fresh cache.
        let mut warm = chain(0.4);
        let mut cold = chain(0.4);
        gn.optimize_with_cache(&mut warm, &mut cache).unwrap();
        gn.optimize(&mut cold).unwrap();
        assert_eq!(warm.values(), cold.values());
    }

    #[test]
    fn optimize_with_plan_is_bitwise_identical_to_optimize() {
        let build = || {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..6)
                .map(|i| g.add_pose2(Pose2::new(0.15, i as f64 * 0.9, -0.2)))
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
            g.add_factor(GpsFactor::new(ids[4], &[0.0, 4.0], 0.3));
            (g, ids)
        };
        let gn = GaussNewton::default();

        let (mut direct, ids) = build();
        let r1 = gn.optimize(&mut direct).unwrap();

        let (mut via_plan, _) = build();
        let sys = via_plan.linearize();
        let plan = SolvePlan::for_system(&sys, min_degree_ordering(&via_plan).as_slice()).unwrap();
        let mut ws = plan.workspace();
        let r2 = gn
            .optimize_with_plan(&mut via_plan, &plan, &mut ws)
            .unwrap();

        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.final_error.to_bits(), r2.final_error.to_bits());
        for id in ids {
            let a = direct.values().get(id).as_pose2();
            let b = via_plan.values().get(id).as_pose2();
            assert_eq!(a.x().to_bits(), b.x().to_bits());
            assert_eq!(a.y().to_bits(), b.y().to_bits());
            assert_eq!(a.theta().to_bits(), b.theta().to_bits());
        }
    }

    #[test]
    fn min_degree_reaches_same_solution() {
        // `optimize` eliminates in min-degree order; a natural-order plan
        // through `optimize_with_plan` must reach the same optimum. The
        // loop closure makes the two orders differ.
        let build = || {
            let mut g = FactorGraph::new();
            let ids: Vec<_> = (0..5)
                .map(|i| g.add_pose2(Pose2::new(0.1, i as f64 * 0.8, 0.2)))
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
                ids[3],
                Pose2::new(0.0, 2.0, 0.0),
                0.3,
            ));
            (g, ids)
        };
        let (mut g1, ids1) = build();
        let (mut g2, _) = build();
        assert_ne!(
            min_degree_ordering(&g2).as_slice(),
            natural_ordering(&g2).as_slice()
        );
        GaussNewton::default().optimize(&mut g1).unwrap();
        let plan = SolvePlan::for_graph(&g2, natural_ordering(&g2).as_slice()).unwrap();
        let mut ws = plan.workspace();
        GaussNewton::default()
            .optimize_with_plan(&mut g2, &plan, &mut ws)
            .unwrap();
        for id in ids1 {
            let p1 = g1.values().get(id).as_pose2();
            let p2 = g2.values().get(id).as_pose2();
            assert!(p1.translation_distance(p2) < 1e-8);
        }
    }

    #[test]
    fn nan_full_step_never_beats_a_finite_halving() {
        // Downhill at the start (r = 1 + x), finite but uphill on the half
        // step, NaN on the full step: every candidate fails to improve, and
        // the finite one must be kept.
        let mut g = FactorGraph::new();
        let x = g.add_vector(Vec64::from_slice(&[0.0]));
        g.add_factor(orianna_graph::CustomFactor::new(
            vec![x],
            1,
            1.0,
            |vals, keys| {
                let v = vals.get(keys[0]).as_vector()[0];
                let r = if v > -0.25 {
                    1.0 + v
                } else if v > -0.75 {
                    -4.0 * v
                } else {
                    f64::NAN
                };
                Vec64::from_slice(&[r])
            },
        ));
        let report = GaussNewton::new(GaussNewtonSettings {
            max_iterations: 1,
            max_step_halvings: 1,
            ..Default::default()
        })
        .optimize(&mut g)
        .unwrap();
        assert!(report.final_error.is_finite(), "{report:?}");
        assert!(report.final_error > report.initial_error, "{report:?}");
        assert!(g.values().get(x).as_vector()[0].is_finite());
    }

    #[test]
    fn non_finite_objective_is_an_error_and_leaves_values_unchanged() {
        // A NaN measurement makes every candidate's objective NaN; with
        // the line search off the first candidate is accepted, so GN must
        // refuse it instead of writing NaN estimates and returning `Ok`.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.1, 0.5, -0.25));
        g.add_factor(PriorFactor::pose2(a, Pose2::new(0.0, f64::NAN, 0.0), 0.1));
        let before = *g.values().get(a).as_pose2();
        let err = GaussNewton::new(GaussNewtonSettings {
            max_step_halvings: 0,
            ..Default::default()
        })
        .optimize(&mut g)
        .unwrap_err();
        assert_eq!(err, SolveError::NonFinite);
        let after = g.values().get(a).as_pose2();
        assert_eq!(after.x().to_bits(), before.x().to_bits());
        assert_eq!(after.y().to_bits(), before.y().to_bits());
        assert_eq!(after.theta().to_bits(), before.theta().to_bits());
    }

    #[test]
    fn failed_cached_solve_parks_its_workspace() {
        // A solve that ends in an error must still park the workspace it
        // checked out, so the next solve over the same topology reuses it
        // instead of building a second arena.
        let pose_with_prior = |y: f64| {
            let mut g = FactorGraph::new();
            let a = g.add_pose2(Pose2::new(0.1, 0.5, -0.25));
            g.add_factor(PriorFactor::pose2(a, Pose2::new(0.0, y, 0.0), 0.1));
            g
        };
        let gn = GaussNewton::new(GaussNewtonSettings {
            max_step_halvings: 0,
            ..Default::default()
        });
        let mut cache = PlanCache::new();
        let err = gn
            .optimize_with_cache(&mut pose_with_prior(f64::NAN), &mut cache)
            .unwrap_err();
        assert_eq!(err, SolveError::NonFinite);
        assert_eq!(cache.workspace_builds(), 1);
        assert_eq!(cache.parked_workspaces(), 1);

        let report = gn
            .optimize_with_cache(&mut pose_with_prior(0.0), &mut cache)
            .unwrap();
        assert!(report.converged);
        assert_eq!(cache.workspace_builds(), 1, "the parked arena was reused");
        assert_eq!(cache.parked_workspaces(), 1);
    }
}

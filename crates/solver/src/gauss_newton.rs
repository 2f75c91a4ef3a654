//! The Gauss-Newton driver (paper Fig. 3).
//!
//! Iteratively: linearize → eliminate → back-substitute → retract, until
//! the error drops below a threshold, the relative improvement stalls, or
//! the iteration budget is exhausted. A simple step-halving line search
//! guards against overshooting on strongly nonlinear factors (hinge
//! collision costs, camera projections).

use crate::elimination::{EliminationStats, SolveError};
use crate::plan::{PlanCache, SolvePlan};
use crate::workspace::Workspace;
use orianna_graph::{min_degree_ordering, natural_ordering, FactorGraph, LinearSystem, Ordering};
use orianna_math::{Parallelism, Vec64};
use std::sync::Arc;

/// Which elimination ordering the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingChoice {
    /// Insertion (id) order.
    #[default]
    Natural,
    /// Greedy minimum-degree (fill-reducing).
    MinDegree,
}

impl OrderingChoice {
    /// Stable tag used to key [`PlanCache`] entries per ordering.
    pub fn cache_tag(self) -> u8 {
        match self {
            OrderingChoice::Natural => 0,
            OrderingChoice::MinDegree => 1,
        }
    }

    /// Resolves the ordering for a graph.
    pub fn resolve(self, graph: &FactorGraph) -> Ordering {
        match self {
            OrderingChoice::Natural => natural_ordering(graph),
            OrderingChoice::MinDegree => min_degree_ordering(graph),
        }
    }
}

/// Settings of the Gauss-Newton driver.
#[derive(Debug, Clone, Copy)]
pub struct GaussNewtonSettings {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Converged when the total weighted squared error falls below this.
    pub abs_tol: f64,
    /// Converged when the relative error improvement falls below this.
    pub rel_tol: f64,
    /// Elimination ordering.
    pub ordering: OrderingChoice,
    /// Maximum step-halvings per iteration before accepting the step
    /// anyway (0 disables the line search).
    pub max_step_halvings: usize,
    /// Worker threads for linearization and elimination. Defaults to the
    /// available cores; `Parallelism::serial()` runs both serially.
    /// Results are bitwise identical at every setting.
    pub parallelism: Parallelism,
}

impl Default for GaussNewtonSettings {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            abs_tol: 1e-12,
            rel_tol: 1e-10,
            ordering: OrderingChoice::Natural,
            max_step_halvings: 8,
            parallelism: Parallelism::default(),
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
    /// Elimination statistics of the final iteration (sizes/densities for
    /// the Fig. 17/18 analyses).
    pub last_stats: EliminationStats,
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
    /// fixed during optimization, only values change.
    ///
    /// # Errors
    /// Propagates [`SolveError`] from elimination (unconstrained or
    /// singular variables).
    pub fn optimize(&self, graph: &mut FactorGraph) -> Result<GaussNewtonReport, SolveError> {
        self.optimize_with_cache(graph, &mut PlanCache::new())
    }

    /// [`optimize`](GaussNewton::optimize) against an externally
    /// checked-out plan and workspace — the multi-tenant serving path,
    /// where a sharded cache owns both and hands them to whichever worker
    /// thread executes the request. Runs the arena path with the
    /// settings' within-solve parallelism
    /// ([`SolvePlan::solve_in_with`], bitwise identical to the serial
    /// arena at any thread count), so the result is bitwise identical to
    /// [`optimize`](GaussNewton::optimize) with serial settings over the
    /// same graph no matter how `parallelism` is configured.
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

    /// The Gauss-Newton iteration loop behind every entry point.
    fn run(
        &self,
        graph: &mut FactorGraph,
        mut source: PlanSource<'_>,
    ) -> Result<GaussNewtonReport, SolveError> {
        let s = &self.settings;
        let initial_error = graph.total_error();
        let mut error = initial_error;
        let mut converged = error <= s.abs_tol;
        let mut iterations = 0;
        let mut sys = LinearSystem {
            factors: Vec::new(),
            var_dims: Vec::new(),
        };

        while iterations < s.max_iterations && !converged {
            iterations += 1;
            graph.linearize_into(&s.parallelism, &mut sys);
            let delta = source.solve(&sys, graph, s.ordering, &s.parallelism)?;

            // Step-halving line search. Trial steps only move the
            // estimates, so each candidate is scored by re-evaluating the
            // objective at retracted values — the factor storage is never
            // cloned.
            let mut scale = 1.0;
            let mut best: Option<(f64, Vec64)> = None;
            for _ in 0..=s.max_step_halvings {
                let step = delta.scale(scale);
                let candidate = graph.values().retract_all(&step);
                let e = graph.total_error_with(&candidate);
                if e < error || s.max_step_halvings == 0 {
                    best = Some((e, step));
                    break;
                }
                if best.as_ref().is_none_or(|(be, _)| e < *be) {
                    best = Some((e, step));
                }
                scale *= 0.5;
            }
            let (new_error, step) = best.expect("at least one candidate evaluated");
            graph.retract_all(&step);

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
            last_stats: source.finish(s.ordering),
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
    /// back by [`PlanSource::finish`].
    Cache {
        cache: &'a mut PlanCache,
        checkout: Option<(Arc<SolvePlan>, Workspace)>,
    },
}

impl PlanSource<'_> {
    /// Solves `sys` in the arena, checking the plan out on first use.
    pub(crate) fn solve(
        &mut self,
        sys: &LinearSystem,
        graph: &FactorGraph,
        ordering: OrderingChoice,
        par: &Parallelism,
    ) -> Result<&Vec64, SolveError> {
        let (plan, ws) = match self {
            Self::Held(plan, ws) => (&**plan, &mut **ws),
            Self::Cache { cache, checkout } => {
                if checkout.is_none() {
                    let tag = ordering.cache_tag();
                    let plan = cache.get_or_build(sys.structure_fingerprint(), tag, || {
                        SolvePlan::for_system(sys, ordering.resolve(graph).as_slice())
                    })?;
                    let ws = cache.checkout_workspace(&plan, tag);
                    *checkout = Some((plan, ws));
                }
                let (plan, ws) = checkout.as_mut().expect("checked out above");
                (&**plan, ws)
            }
        };
        plan.solve_in_with(sys, ws, par)
    }

    /// Ends a successful run: returns the stats of the workspace's last
    /// solve and parks a checked-out workspace for the next solve over
    /// this topology.
    pub(crate) fn finish(self, ordering: OrderingChoice) -> EliminationStats {
        let steps = match self {
            Self::Held(_, ws) => ws.stats().to_vec(),
            Self::Cache {
                cache,
                checkout: Some((plan, ws)),
            } => {
                let steps = ws.stats().to_vec();
                cache.store_workspace(plan.fingerprint(), ordering.cache_tag(), ws);
                steps
            }
            Self::Cache { checkout: None, .. } => Vec::new(),
        };
        EliminationStats { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{
        BetweenFactor, CameraFactor, CameraModel, FactorGraph, GpsFactor, PriorFactor,
    };
    use orianna_lie::{Pose2, Pose3};

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
        let serial = GaussNewton::new(GaussNewtonSettings {
            parallelism: crate::Parallelism::serial(),
            ..Default::default()
        });

        let (mut direct, ids) = build();
        let r1 = serial.optimize(&mut direct).unwrap();

        let (mut via_plan, _) = build();
        let sys = via_plan.linearize();
        let plan = SolvePlan::for_system(&sys, natural_ordering(&via_plan).as_slice()).unwrap();
        let mut ws = plan.workspace();
        let r2 = serial
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
            (g, ids)
        };
        let (mut g1, ids1) = build();
        let (mut g2, _) = build();
        GaussNewton::default().optimize(&mut g1).unwrap();
        GaussNewton::new(GaussNewtonSettings {
            ordering: OrderingChoice::MinDegree,
            ..Default::default()
        })
        .optimize(&mut g2)
        .unwrap();
        for id in ids1 {
            let p1 = g1.values().get(id).as_pose2();
            let p2 = g2.values().get(id).as_pose2();
            assert!(p1.translation_distance(p2) < 1e-8);
        }
    }
}

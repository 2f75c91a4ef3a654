//! Long-lived per-robot/per-user solver sessions.
//!
//! A session owns the mutable solver state for one tenant: either a
//! batch nonlinear problem (Gauss-Newton or Levenberg-Marquardt over a
//! fixed-topology [`FactorGraph`]) or an incremental Bayes-tree solver
//! whose structure grows over time. Sessions are `Sync` — a mutex guards
//! the mutable state — and every solve entry point here is
//! **deterministic**: batched results are bitwise-identical to
//! sequential ones at any worker count, shard count, or batch size.
//! The server's only parallelism is fanning out *across* sessions in a
//! batch; every solve itself is one serial arena sweep, so results never
//! depend on how many threads the fan-out used.
//!
//! The sequential oracle ([`crate::oracle`]) replays traffic through
//! these same methods with a single-threaded cache, so server and
//! reference execute byte-for-byte identical per-request code.

use crate::error::ServerError;
use orianna_graph::{
    min_degree_ordering, BetweenFactor, Factor, FactorGraph, PriorFactor, Values, VarId, Variable,
};
use orianna_lie::Pose2;
use orianna_math::Vec64;
use orianna_solver::{
    GaussNewton, GaussNewtonSettings, IncrementalSolver, LevenbergMarquardt,
    LevenbergMarquardtSettings, SolveError, SolvePlan, Workspace,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identifier of a session on one server (its creation index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// A deterministic value perturbation applied before a batch solve:
/// the session's estimates are reset to its initial values retracted by
/// a seeded uniform tangent step. This is how fleet traffic reuses one
/// topology with fresh measurements per request — and why request
/// outcomes are order-independent: each solve is a pure function of
/// `(session initial state, perturb)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturb {
    /// Seed of the tangent draw.
    pub seed: u64,
    /// Uniform half-width of each tangent coordinate, in millionths
    /// (fixed-point so the request type stays `Eq`/hashable). 50_000
    /// means ±0.05.
    pub scale_millionths: u32,
}

impl Perturb {
    /// A perturbation of ±`scale` per tangent coordinate.
    pub fn new(seed: u64, scale: f64) -> Self {
        Self {
            seed,
            scale_millionths: (scale * 1e6).round().clamp(0.0, u32::MAX as f64) as u32,
        }
    }

    fn scale(&self) -> f64 {
        self.scale_millionths as f64 * 1e-6
    }
}

/// SplitMix64 — the tiny, seedable, jump-free generator used for all
/// deterministic perturbation/traffic draws. Stable across platforms.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[-scale, scale]` from the k-th stream position.
fn uniform(seed: u64, k: u64, scale: f64) -> f64 {
    let bits = splitmix64(seed ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d));
    // 53-bit mantissa → [0, 1) → [-scale, scale].
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
    (2.0 * unit - 1.0) * scale
}

/// The seeded tangent step a [`Perturb`] applies to `dim` coordinates.
pub fn perturb_delta(dim: usize, perturb: &Perturb) -> Vec64 {
    let scale = perturb.scale();
    let mut d = Vec64::zeros(dim);
    for (k, slot) in d.as_mut_slice().iter_mut().enumerate() {
        *slot = uniform(perturb.seed, k as u64, scale);
    }
    d
}

/// FNV-1a over the exact bit patterns of every state coordinate, in
/// variable-id order. Two estimates digest equal iff they are bitwise
/// identical — the currency of the determinism guarantees.
pub fn values_digest(values: &Values) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: f64| {
        for byte in x.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (_, var) in values.iter() {
        match var {
            Variable::Pose2(p) => {
                mix(p.theta());
                mix(p.x());
                mix(p.y());
            }
            Variable::Pose3(p) => {
                for c in p.phi() {
                    mix(c);
                }
                for c in p.translation() {
                    mix(c);
                }
            }
            Variable::Point2(p) => {
                for &c in p.iter() {
                    mix(c);
                }
            }
            Variable::Point3(p) => {
                for &c in p.iter() {
                    mix(c);
                }
            }
            Variable::Vector(v) => {
                for &c in v.as_slice() {
                    mix(c);
                }
            }
        }
    }
    h
}

/// The result of one served request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Session that served the request.
    pub session: SessionId,
    /// Optimizer iterations (or incremental steps applied).
    pub iterations: usize,
    /// Objective before the solve (0 for incremental extensions).
    pub initial_error: f64,
    /// Objective after the solve (Δ norm for incremental extensions).
    pub final_error: f64,
    /// Whether the optimizer converged.
    pub converged: bool,
    /// Bit-exact digest of the post-solve estimates.
    pub digest: u64,
    /// Size of the coalesced batch this request rode in (1 = unbatched).
    pub batch_size: usize,
}

/// Batch-session optimizer flavor.
#[derive(Debug, Clone)]
pub enum BatchFlavor {
    /// Gauss-Newton — the batchable flavor: fixed topology keys a shared
    /// plan, so same-topology requests coalesce through one symbolic
    /// factorization.
    GaussNewton(GaussNewtonSettings),
    /// Levenberg-Marquardt — served unbatched, through a **session-local**
    /// cached plan: λ scales only the *values* of the appended damping
    /// rows, never their sparsity, so one symbolic factorization of the
    /// damped system serves every iteration of every request. (LM still
    /// does not batch across sessions — requests at different
    /// linearization trajectories have nothing symbolic to share beyond
    /// the session.)
    Levenberg(LevenbergMarquardtSettings),
}

enum Inner {
    Gn {
        graph: FactorGraph,
        initial: Values,
        settings: GaussNewtonSettings,
    },
    Lm {
        graph: FactorGraph,
        initial: Values,
        settings: LevenbergMarquardtSettings,
        /// Session-local plan over the damped structure and its arena,
        /// built lazily on the first served request (topology is fixed
        /// for the session's lifetime, so they never invalidate). Boxed
        /// to keep the variant near the others' size.
        plan: Option<Box<(SolvePlan, Workspace)>>,
    },
    Incremental {
        solver: Box<IncrementalSolver>,
        tail: VarId,
        seed: u64,
        steps: u64,
    },
}

/// One tenant's long-lived solver state.
pub struct Session {
    id: SessionId,
    /// Topology fingerprint for plan sharing; `None` for flavors served
    /// without a shared plan (LM, incremental).
    fingerprint: Option<u64>,
    inner: Mutex<Inner>,
    solves: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("fingerprint", &self.fingerprint)
            .field("solves", &self.solves.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a batch session over a fixed-topology graph and **warms it
    /// up**: the estimate is converged once at creation, so the session's
    /// initial values sit at the optimizer's fixed point and every
    /// subsequent request is a warm tracking solve around it. This
    /// one-time cost is exactly what a stateless per-request service pays
    /// *on every request* — the heart of the serving speedup — and the
    /// warm-up is serial and deterministic, so sessions built from the
    /// same graph are bitwise interchangeable.
    ///
    /// # Errors
    /// Propagates the warm-up's [`SolveError`] (e.g. an unconstrained
    /// variable); nothing is registered on failure.
    pub fn batch(
        id: SessionId,
        mut graph: FactorGraph,
        flavor: BatchFlavor,
    ) -> Result<Self, ServerError> {
        match flavor {
            BatchFlavor::GaussNewton(settings) => {
                GaussNewton::new(settings).optimize(&mut graph)?;
                let initial = graph.values().clone();
                Ok(Self {
                    id,
                    fingerprint: Some(graph.structure_fingerprint()),
                    inner: Mutex::new(Inner::Gn {
                        graph,
                        initial,
                        settings,
                    }),
                    solves: AtomicU64::new(0),
                })
            }
            BatchFlavor::Levenberg(settings) => {
                LevenbergMarquardt::new(settings).optimize(&mut graph)?;
                let initial = graph.values().clone();
                Ok(Self {
                    id,
                    fingerprint: None,
                    inner: Mutex::new(Inner::Lm {
                        graph,
                        initial,
                        settings,
                        plan: None,
                    }),
                    solves: AtomicU64::new(0),
                })
            }
        }
    }

    /// Creates an incremental (Bayes-tree) session: a seeded anchor pose
    /// with a prior, extended by [`Session::extend`] requests.
    ///
    /// # Errors
    /// Propagates the anchor update's [`SolveError`].
    pub fn incremental(id: SessionId, seed: u64) -> Result<Self, ServerError> {
        let mut solver = IncrementalSolver::new();
        let anchor = Pose2::new(
            uniform(seed, 0, 0.05),
            uniform(seed, 1, 0.2),
            uniform(seed, 2, 0.2),
        );
        let tail = solver.add_variable(Variable::Pose2(anchor));
        solver.update(vec![
            Arc::new(PriorFactor::pose2(tail, anchor, 0.1)) as Arc<dyn Factor>
        ])?;
        Ok(Self {
            id,
            fingerprint: None,
            inner: Mutex::new(Inner::Incremental {
                solver: Box::new(solver),
                tail,
                seed,
                steps: 0,
            }),
            solves: AtomicU64::new(0),
        })
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Topology fingerprint, when this session solves through a shared
    /// plan (the batching key).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Requests served so far.
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// True when this session accepts [`Session::extend`] requests.
    pub fn is_incremental(&self) -> bool {
        matches!(
            &*self.inner.lock().expect("session lock"),
            Inner::Incremental { .. }
        )
    }

    /// Builds this GN session's solve plan (cache-miss path).
    ///
    /// # Errors
    /// [`ServerError::WrongFlavor`] off the GN flavor; otherwise plan
    /// construction errors.
    pub fn build_plan(&self) -> Result<SolvePlan, SolveError> {
        let inner = self.inner.lock().expect("session lock");
        match &*inner {
            Inner::Gn { graph, .. } => {
                SolvePlan::for_graph(graph, min_degree_ordering(graph).as_slice())
            }
            _ => Err(SolveError::PlanMismatch),
        }
    }

    /// Serves one solve on a GN session through a shared plan and an
    /// exclusively-owned workspace. Serial and deterministic: the result
    /// is a pure function of the session's initial state and `perturb`.
    ///
    /// # Errors
    /// [`ServerError::WrongFlavor`] on non-GN sessions; solve errors
    /// otherwise.
    pub fn solve_with_plan(
        &self,
        plan: &SolvePlan,
        ws: &mut Workspace,
        perturb: Option<Perturb>,
    ) -> Result<SolveOutcome, ServerError> {
        let mut inner = self.inner.lock().expect("session lock");
        let Inner::Gn {
            graph,
            initial,
            settings,
        } = &mut *inner
        else {
            return Err(ServerError::WrongFlavor {
                session: self.id,
                requested: "planned Gauss-Newton solve",
            });
        };
        if let Some(p) = &perturb {
            *graph.values_mut() = initial.retract_all(&perturb_delta(initial.total_dim(), p));
        }
        let report = GaussNewton::new(*settings).optimize_with_plan(graph, plan, ws)?;
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(SolveOutcome {
            session: self.id,
            iterations: report.iterations,
            initial_error: report.initial_error,
            final_error: report.final_error,
            converged: report.converged,
            digest: values_digest(graph.values()),
            batch_size: 1,
        })
    }

    /// Serves one solve on an LM session (unbatched path). The first
    /// request builds the session's damped-system plan and workspace;
    /// later requests skip the symbolic phase entirely
    /// ([`LevenbergMarquardt::optimize_with_plan`], bitwise identical to
    /// the planless `optimize`).
    ///
    /// # Errors
    /// [`ServerError::WrongFlavor`] on non-LM sessions; solve errors
    /// otherwise.
    pub fn solve_direct(&self, perturb: Option<Perturb>) -> Result<SolveOutcome, ServerError> {
        let mut inner = self.inner.lock().expect("session lock");
        let Inner::Lm {
            graph,
            initial,
            settings,
            plan,
        } = &mut *inner
        else {
            return Err(ServerError::WrongFlavor {
                session: self.id,
                requested: "direct Levenberg-Marquardt solve",
            });
        };
        if let Some(p) = &perturb {
            *graph.values_mut() = initial.retract_all(&perturb_delta(initial.total_dim(), p));
        }
        let lm = LevenbergMarquardt::new(*settings);
        if plan.is_none() {
            let p = lm.plan(graph)?;
            let ws = p.workspace();
            *plan = Some(Box::new((p, ws)));
        }
        let (p, ws) = &mut **plan.as_mut().expect("plan just built");
        let report = lm.optimize_with_plan(graph, p, ws)?;
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(SolveOutcome {
            session: self.id,
            iterations: report.iterations,
            initial_error: report.initial_error,
            final_error: report.final_error,
            converged: report.converged,
            digest: values_digest(graph.values()),
            batch_size: 1,
        })
    }

    /// Extends an incremental session by `steps` seeded odometry poses
    /// (one Bayes-tree update each) and reports the new estimate digest.
    /// Deterministic: step k of this session always generates the same
    /// pose and measurement, independent of server scheduling — callers
    /// keep per-session requests closed-loop so steps apply in order.
    ///
    /// # Errors
    /// [`ServerError::WrongFlavor`] on batch sessions; update errors
    /// otherwise.
    pub fn extend(&self, steps: usize) -> Result<SolveOutcome, ServerError> {
        let mut inner = self.inner.lock().expect("session lock");
        let Inner::Incremental {
            solver,
            tail,
            seed,
            steps: done,
        } = &mut *inner
        else {
            return Err(ServerError::WrongFlavor {
                session: self.id,
                requested: "incremental extension",
            });
        };
        for _ in 0..steps {
            *done += 1;
            let k = *done;
            // Odometry with mild seeded noise; the measurement stream is
            // a pure function of (seed, k).
            let motion = Pose2::new(
                uniform(*seed, 3 * k, 0.02),
                1.0 + uniform(*seed, 3 * k + 1, 0.1),
                uniform(*seed, 3 * k + 2, 0.1),
            );
            let guess = Pose2::new(0.0, k as f64, 0.0);
            let v = solver.add_variable(Variable::Pose2(guess));
            solver.update(vec![
                Arc::new(BetweenFactor::pose2(*tail, v, motion, 0.2)) as Arc<dyn Factor>
            ])?;
            *tail = v;
        }
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(SolveOutcome {
            session: self.id,
            iterations: steps,
            initial_error: 0.0,
            final_error: solver.delta().norm(),
            converged: true,
            digest: values_digest(&solver.estimate()),
            batch_size: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::GpsFactor;

    fn chain_graph(n: usize, off: f64) -> FactorGraph {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_pose2(Pose2::new(0.1, i as f64 + off, -0.1)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.05));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.1,
            ));
        }
        g.add_factor(GpsFactor::new(ids[n - 1], &[0.0, (n - 1) as f64], 0.3));
        g
    }

    #[test]
    fn perturbed_solves_are_pure_functions_of_the_perturb() {
        let s = Session::batch(
            SessionId(0),
            chain_graph(6, 0.3),
            BatchFlavor::GaussNewton(GaussNewtonSettings::default()),
        )
        .unwrap();
        let plan = s.build_plan().unwrap();
        let mut ws = plan.workspace();
        let p = Perturb::new(42, 0.05);
        let a = s.solve_with_plan(&plan, &mut ws, Some(p)).unwrap();
        // Different perturb in between — outcome of p must not change.
        let other = s
            .solve_with_plan(&plan, &mut ws, Some(Perturb::new(7, 0.05)))
            .unwrap();
        let b = s.solve_with_plan(&plan, &mut ws, Some(p)).unwrap();
        assert_eq!(a.digest, b.digest, "order-independent outcomes");
        assert_eq!(a.final_error.to_bits(), b.final_error.to_bits());
        assert_ne!(a.digest, other.digest, "perturbs actually differ");
        assert_eq!(s.solves(), 3);
    }

    #[test]
    fn digest_tracks_bit_level_changes() {
        let g = chain_graph(4, 0.0);
        let d1 = values_digest(g.values());
        let mut g2 = g.clone();
        let dim = g2.values().total_dim();
        let mut delta = Vec64::zeros(dim);
        delta.as_mut_slice()[0] = 1e-14;
        g2.retract_all(&delta);
        assert_ne!(d1, values_digest(g2.values()));
        assert_eq!(d1, values_digest(g.values()), "digest is stable");
    }

    #[test]
    fn wrong_flavor_is_structured() {
        let s = Session::incremental(SessionId(3), 9).unwrap();
        let err = s.solve_direct(None).unwrap_err();
        assert!(matches!(err, ServerError::WrongFlavor { .. }));
        let gn = Session::batch(
            SessionId(4),
            chain_graph(3, 0.1),
            BatchFlavor::GaussNewton(GaussNewtonSettings::default()),
        )
        .unwrap();
        assert!(matches!(gn.extend(1), Err(ServerError::WrongFlavor { .. })));
    }

    #[test]
    fn incremental_extension_is_deterministic() {
        let run = || {
            let s = Session::incremental(SessionId(1), 77).unwrap();
            let mut digests = Vec::new();
            for _ in 0..3 {
                digests.push(s.extend(2).unwrap().digest);
            }
            digests
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lm_sessions_solve_unbatched() {
        let s = Session::batch(
            SessionId(2),
            chain_graph(5, 0.4),
            BatchFlavor::Levenberg(LevenbergMarquardtSettings::default()),
        )
        .unwrap();
        assert_eq!(s.fingerprint(), None, "LM does not share plans");
        let out = s.solve_direct(Some(Perturb::new(5, 0.02))).unwrap();
        assert!(out.final_error < out.initial_error);
    }

    #[test]
    fn perturb_fixed_point_roundtrip() {
        let p = Perturb::new(1, 0.05);
        assert!((p.scale() - 0.05).abs() < 1e-9);
        let d = perturb_delta(8, &p);
        assert!(d.as_slice().iter().all(|x| x.abs() <= 0.05));
        assert_eq!(
            d.as_slice(),
            perturb_delta(8, &p).as_slice(),
            "deterministic"
        );
    }
}

//! The symbolic/numeric split: a cached [`SolvePlan`].
//!
//! ORIANNA's premise is "analyze the factor-graph structure once, execute
//! it fast many times" (paper Sec. 5–6): topology is stable across solver
//! iterations while values change. The software solver exploits the same
//! insight here. A [`SolvePlan`] is the *symbolic* phase of variable
//! elimination — everything that depends only on the graph's structure:
//!
//! * the resolved elimination order,
//! * the [`EliminationSchedule`] of `orianna-graph` — per-step gather
//!   lists, sorted separators and structural `(rows × cols)` shapes, the
//!   same steps the compiler emits its `QRD`/`BSUB` stream from,
//! * the arena layout of the numeric phase ([`crate::workspace`]).
//!
//! The *numeric* phase runs only the dense arithmetic — gather, stack,
//! QR, split — inside a reusable [`Workspace`] ([`SolvePlan::solve_in`]).
//! It is **bitwise identical** to the reference
//! [`eliminate`](crate::elimination::eliminate): it stacks the same rows
//! in the same order and replays the same Householder schedule (asserted
//! in `tests/plan.rs` for every benchmark application). When a planned
//! separator factor sheds every row numerically the arena layout no
//! longer applies, and `solve_in` runs the reference sweep itself.
//!
//! ## Validity and invalidation
//!
//! A plan is keyed by the graph's [structure
//! fingerprint](orianna_graph::FactorGraph::structure_fingerprint):
//! variable dimensions plus each factor's keys and residual dimension.
//! Changing estimates, measurements, noise, or damping values keeps the
//! fingerprint (and the plan) valid; adding/removing variables or factors
//! invalidates it. [`SolvePlan::solve_in`] cheaply checks the shape of the
//! system it is handed and returns [`SolveError::PlanMismatch`] on a stale
//! plan rather than computing garbage.
//!
//! ## Determinism guarantee
//!
//! Plan construction is a pure function of structure, and every solve is
//! one serial sweep, so a plan executed against the same system always
//! produces the same bits (`tests/parallel.rs`, `tests/plan.rs`).

use crate::elimination::{sweep, BayesNet, EliminationStep, SolveError};
use crate::workspace::{ArenaError, Workspace, WorkspaceLayout};
use orianna_graph::{EliminationSchedule, FactorGraph, LinearSystem, VarId};
use orianna_math::Vec64;
use std::collections::HashMap;
use std::sync::Arc;

/// The cached symbolic artifact of variable elimination (module docs).
///
/// Build one per topology with [`SolvePlan::for_graph`] or
/// [`SolvePlan::for_system`]; solve with it every iteration through
/// [`SolvePlan::solve_in`].
#[derive(Debug, Clone)]
pub struct SolvePlan {
    fingerprint: u64,
    order: Vec<VarId>,
    schedule: EliminationSchedule,
    /// Arena layout of the schedule (see [`crate::workspace`]).
    layout: WorkspaceLayout,
    /// Estimated numeric-phase flops (from the structural panel shapes),
    /// feeding the server's fan-out cost gate.
    flops: u64,
}

impl SolvePlan {
    /// Builds a plan from a graph's structure (no linearization needed:
    /// only keys, residual dimensions, and variable dimensions are read).
    ///
    /// `order` is the elimination sequence — a permutation of all
    /// variables for batch solving, or a subset for partial elimination
    /// (e.g. the incremental solver's active window).
    ///
    /// # Errors
    /// [`SolveError::UnconstrainedVariable`] /
    /// [`SolveError::SingularVariable`] when the structure alone shows a
    /// variable cannot be eliminated.
    pub fn for_graph(graph: &FactorGraph, order: &[VarId]) -> Result<Self, SolveError> {
        Self::build(
            graph.structure_fingerprint(),
            EliminationSchedule::for_graph(graph),
            order,
        )
    }

    /// Builds a plan from an already-linearized system's structure.
    ///
    /// # Errors
    /// Same as [`SolvePlan::for_graph`].
    pub fn for_system(sys: &LinearSystem, order: &[VarId]) -> Result<Self, SolveError> {
        let factors = sys.factors.iter().map(|f| (f.keys.clone(), f.rows()));
        Self::build(
            sys.structure_fingerprint(),
            EliminationSchedule::new(sys.var_dims.clone(), factors),
            order,
        )
    }

    fn build(
        fingerprint: u64,
        mut schedule: EliminationSchedule,
        order: &[VarId],
    ) -> Result<Self, SolveError> {
        let n = schedule.var_dims().len();
        if let Some(v) = order.iter().find(|v| v.0 >= n) {
            return Err(SolveError::UnknownVariable(*v));
        }
        for &v in order {
            let step = schedule
                .eliminate(v)
                .map_err(|e| SolveError::UnconstrainedVariable(e.0))?;
            if step.rows < schedule.var_dims()[v.0] {
                // Structurally rank-deficient: the numeric path would fail
                // the same way, so surface it at plan time.
                return Err(SolveError::SingularVariable(v));
            }
        }
        let layout = WorkspaceLayout::build(&schedule);
        // Structural flops estimate of the numeric phase: a Householder
        // triangularization of a rows × (cols + 1) panel costs about
        // 2 · rows · width · min(width, rows) multiply–adds, plus one
        // panel's worth of gather traffic. Shapes are symbolic (row
        // bounds), so this is an upper estimate — exactly what the
        // fan-out cost gate wants (DESIGN §3.2.4).
        let flops = schedule
            .steps()
            .iter()
            .map(|s| {
                let rows = s.rows as u64;
                let width = s.cols as u64 + 1;
                2 * rows * width * width.min(rows) + rows * width
            })
            .sum();
        Ok(Self {
            fingerprint,
            order: order.to_vec(),
            schedule,
            layout,
            flops,
        })
    }

    /// The structure fingerprint this plan was built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The elimination sequence.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Tangent dimension per variable id.
    pub fn var_dims(&self) -> &[usize] {
        self.schedule.var_dims()
    }

    /// Structural `(frontal, rows, cols)` of every elimination
    /// sub-problem, in elimination order — the plan-time preview of the
    /// Fig. 17 samples, and the shapes of the compiler's `QRD` stream.
    pub fn step_shapes(&self) -> Vec<(VarId, usize, usize)> {
        self.schedule
            .steps()
            .iter()
            .map(|s| (s.var, s.rows, s.cols))
            .collect()
    }

    /// Estimated numeric-phase flops, derived from the structural panel
    /// shapes at build time. The server scales it by the batch size to
    /// gate its request fan-out
    /// ([`Parallelism::effective_threads`](orianna_math::Parallelism::effective_threads));
    /// it is an upper estimate because the shapes are structural row
    /// bounds.
    pub fn estimated_flops(&self) -> u64 {
        self.flops
    }

    /// Cheap shape check: does `sys` have the layout this plan was built
    /// for?
    pub fn matches(&self, sys: &LinearSystem) -> bool {
        sys.factors.len() == self.schedule.num_base_factors()
            && sys.var_dims == self.schedule.var_dims()
    }

    /// Allocates a reusable [`Workspace`] sized for this plan's arena
    /// layout: one flat buffer holding every elimination panel at a
    /// precomputed offset, plus the scratch vectors and Δ. Create it once
    /// and pass it to [`SolvePlan::solve_in`] every iteration.
    pub fn workspace(&self) -> Workspace {
        self.layout.workspace(self.fingerprint)
    }

    /// Arena-backed serial solve: eliminate **and** back-substitute
    /// entirely inside `ws`, returning a borrow of the solved Δ; the
    /// per-step shape records are left in [`Workspace::stats`]. Bitwise
    /// identical to [`eliminate`](crate::elimination::eliminate) followed
    /// by back-substitution, and steady-state **allocation-free**
    /// (asserted by a counting-allocator test): gather is slice copies
    /// into pre-laid-out panels, QR runs in place, and back-substitution
    /// reads the conditionals straight out of the arena.
    ///
    /// The one exception is the rare run where a planned separator factor
    /// sheds every row numerically: the arena layout no longer applies and
    /// the solve runs the allocating reference sweep instead.
    ///
    /// # Errors
    /// [`SolveError::PlanMismatch`] when `sys` or `ws` do not belong to
    /// this plan; otherwise the usual elimination errors.
    pub fn solve_in<'w>(
        &self,
        sys: &LinearSystem,
        ws: &'w mut Workspace,
    ) -> Result<&'w Vec64, SolveError> {
        if !self.matches(sys) || ws.fingerprint != self.fingerprint {
            return Err(SolveError::PlanMismatch);
        }
        match self.layout.eliminate_in(sys, ws) {
            Ok(()) => self.layout.back_substitute_in(ws)?,
            Err(ArenaError::Fallback) => {
                let factors = sys.factors.iter().cloned().map(Arc::new).collect();
                let out = sweep(factors, &self.order, self.var_dims())?;
                ws.stats.clear();
                ws.stats
                    .extend(out.stats.iter().map(EliminationStep::shape));
                let bn = BayesNet {
                    conditionals: out.conditionals,
                    var_dims: self.var_dims().to_vec(),
                };
                ws.delta = bn.back_substitute()?;
            }
            Err(ArenaError::Solve(e)) => return Err(e),
        }
        Ok(&ws.delta)
    }
}

/// A fingerprint-keyed store of shared [`SolvePlan`]s.
///
/// Repeated-solve harnesses (the mission evaluation runs 30 randomized
/// trials per application — same topology, different noise) build the plan
/// on the first solve and reuse it for every later one. Keys are structure
/// fingerprints, so graphs whose topology changes simply miss and build
/// fresh plans. A cache holds one plan per topology, so callers sharing a
/// cache must build with the same ordering; the optimizers all use
/// min-degree.
#[derive(Debug, Clone)]
pub struct PlanCache {
    plans: HashMap<u64, Arc<SolvePlan>>,
    /// Parked workspace pools, keyed like the plans they belong to.
    /// Solvers take one before iterating and store it back afterwards, so
    /// repeated solves over the same topology reuse the arena allocation;
    /// concurrent same-topology solves (a server batch) check out several
    /// at once, one per in-flight request.
    workspaces: HashMap<u64, Vec<Workspace>>,
    /// Parked workspaces kept per key; parking beyond the cap drops the
    /// arena (counted in `workspace_evictions`).
    workspace_cap: usize,
    hits: usize,
    misses: usize,
    workspace_reuses: usize,
    workspace_builds: usize,
    workspace_evictions: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            plans: HashMap::new(),
            workspaces: HashMap::new(),
            workspace_cap: usize::MAX,
            hits: 0,
            misses: 0,
            workspace_reuses: 0,
            workspace_builds: 0,
            workspace_evictions: 0,
        }
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for `fingerprint` or builds, stores, and
    /// returns a new one.
    ///
    /// # Errors
    /// Propagates plan-construction errors; nothing is cached on failure.
    pub fn get_or_build(
        &mut self,
        fingerprint: u64,
        build: impl FnOnce() -> Result<SolvePlan, SolveError>,
    ) -> Result<Arc<SolvePlan>, SolveError> {
        if let Some(plan) = self.plans.get(&fingerprint) {
            self.hits += 1;
            return Ok(Arc::clone(plan));
        }
        self.misses += 1;
        let plan = Arc::new(build()?);
        debug_assert_eq!(plan.fingerprint(), fingerprint);
        self.plans.insert(fingerprint, Arc::clone(&plan));
        Ok(plan)
    }

    /// Bounds how many workspaces may sit parked per fingerprint; parking beyond the cap drops the arena instead (counted by
    /// [`PlanCache::workspace_evictions`]). Defaults to unbounded — the
    /// single-caller solvers park at most one — while pooled multi-tenant
    /// callers set a small cap so one hot topology cannot hoard memory.
    pub fn set_workspace_cap(&mut self, cap: usize) {
        self.workspace_cap = cap.max(1);
        // An existing oversized pool shrinks on the next park, not here:
        // outstanding checkouts may still come home first.
    }

    /// Takes a parked workspace for `fingerprint`, if any. The
    /// caller owns it for the duration of a solve and should park it back
    /// with [`PlanCache::store_workspace`].
    pub fn take_workspace(&mut self, fingerprint: u64) -> Option<Workspace> {
        let ws = self.workspaces.get_mut(&fingerprint).and_then(Vec::pop);
        if ws.is_some() {
            self.workspace_reuses += 1;
        }
        ws
    }

    /// Checks out a workspace for `plan`: a parked one when available,
    /// a freshly allocated arena otherwise (counted by
    /// [`PlanCache::workspace_builds`]). The exclusive return value is the
    /// double-checkout guarantee — a parked arena is *moved* to exactly
    /// one caller and cannot be handed out again until parked back.
    pub fn checkout_workspace(&mut self, plan: &SolvePlan) -> Workspace {
        self.take_workspace(plan.fingerprint()).unwrap_or_else(|| {
            self.workspace_builds += 1;
            plan.workspace()
        })
    }

    /// Parks a workspace for reuse by the next solve over the same
    /// structure. A pool already at the workspace cap drops the arena
    /// instead and counts an eviction.
    pub fn store_workspace(&mut self, fingerprint: u64, ws: Workspace) {
        debug_assert_eq!(ws.fingerprint(), fingerprint);
        let pool = self.workspaces.entry(fingerprint).or_default();
        if pool.len() < self.workspace_cap {
            pool.push(ws);
        } else {
            self.workspace_evictions += 1;
        }
    }

    /// Drops the plan and every parked workspace of `fingerprint`.
    /// Returns whether a plan was actually cached. Outstanding
    /// checkouts are unaffected — parking them back later simply
    /// repopulates the pool for a rebuilt plan of the same structure.
    pub fn invalidate(&mut self, fingerprint: u64) -> bool {
        let dropped = self.workspaces.remove(&fingerprint);
        self.workspace_evictions += dropped.map_or(0, |pool| pool.len());
        self.plans.remove(&fingerprint).is_some()
    }

    /// Plans served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Plans built fresh.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Workspace checkouts served by a parked arena.
    pub fn workspace_reuses(&self) -> usize {
        self.workspace_reuses
    }

    /// Workspace checkouts that had to allocate a fresh arena.
    pub fn workspace_builds(&self) -> usize {
        self.workspace_builds
    }

    /// Workspaces dropped by cap overflow or invalidation.
    pub fn workspace_evictions(&self) -> usize {
        self.workspace_evictions
    }

    /// Workspaces currently parked across all keys.
    pub fn parked_workspaces(&self) -> usize {
        self.workspaces.values().map(Vec::len).sum()
    }

    /// Plans currently stored.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan is stored.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::eliminate;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, GpsFactor, PriorFactor};
    use orianna_lie::Pose2;

    fn looped_chain(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_pose2(Pose2::new(0.05 * i as f64, i as f64, 0.1)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            ));
        }
        if n > 3 {
            g.add_factor(BetweenFactor::pose2(
                ids[0],
                ids[n - 1],
                Pose2::new(0.1, (n - 1) as f64, 0.1),
                0.4,
            ));
        }
        g.add_factor(GpsFactor::new(ids[n / 2], &[0.0, (n / 2) as f64], 0.3));
        g
    }

    #[test]
    fn stale_plan_is_rejected() {
        let g = looped_chain(5);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let mut bigger = g.clone();
        let ids: Vec<_> = (0..5).map(orianna_graph::VarId).collect();
        bigger.add_factor(GpsFactor::new(ids[1], &[0.0, 1.0], 0.5));
        let mut ws = plan.workspace();
        let err = plan.solve_in(&bigger.linearize(), &mut ws).unwrap_err();
        assert_eq!(err, SolveError::PlanMismatch);
    }

    #[test]
    fn plan_cache_hits_on_same_topology() {
        let g1 = looped_chain(6);
        // Same topology, different estimates (values don't change the
        // fingerprint).
        let mut g2 = looped_chain(6);
        g2.retract_all(&orianna_math::Vec64::from_slice(&[0.01; 18]));
        assert_eq!(g1.structure_fingerprint(), g2.structure_fingerprint());
        let mut cache = PlanCache::new();
        for g in [&g1, &g2] {
            let ordering = natural_ordering(g);
            cache
                .get_or_build(g.structure_fingerprint(), || {
                    SolvePlan::for_graph(g, ordering.as_slice())
                })
                .unwrap();
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn arena_solve_is_bitwise_identical_to_eliminate() {
        let g = looped_chain(9);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let mut ws = plan.workspace();
        let sys = g.linearize();
        let (bn_ref, st_ref) = eliminate(&sys, &ordering).unwrap();
        let delta_ref = bn_ref.back_substitute().unwrap();
        let delta = plan.solve_in(&sys, &mut ws).unwrap();
        assert_eq!(delta.as_slice(), delta_ref.as_slice());
        assert_eq!(ws.stats(), st_ref.shapes());
    }

    #[test]
    fn arena_solve_is_reusable_across_relinearizations() -> Result<(), SolveError> {
        let mut g = looped_chain(7);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice())?;
        let mut ws = plan.workspace();
        for _ in 0..3 {
            let sys = g.linearize();
            let (bn, _) = eliminate(&sys, &ordering)?;
            let fresh = bn.back_substitute()?;
            let delta = plan.solve_in(&sys, &mut ws)?.clone();
            assert_eq!(delta.as_slice(), fresh.as_slice());
            g.retract_all(&delta);
        }
        Ok(())
    }

    #[test]
    fn arena_solve_supports_subset_orders() {
        let g = looped_chain(6);
        let sys = g.linearize();
        let order: Vec<VarId> = (0..3).map(VarId).collect();
        let plan = SolvePlan::for_system(&sys, &order).unwrap();
        let mut ws = plan.workspace();
        let factors = sys.factors.iter().cloned().map(Arc::new).collect();
        let out = sweep(factors, &order, &sys.var_dims).unwrap();
        let reference = BayesNet {
            conditionals: out.conditionals,
            var_dims: sys.var_dims.clone(),
        }
        .back_substitute()
        .unwrap();
        let delta = plan.solve_in(&sys, &mut ws).unwrap();
        assert_eq!(delta.as_slice(), reference.as_slice());
        assert_eq!(
            ws.stats(),
            out.stats
                .iter()
                .map(EliminationStep::shape)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stale_workspace_is_rejected() {
        let g = looped_chain(5);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let other = looped_chain(6);
        let other_plan = SolvePlan::for_graph(&other, natural_ordering(&other).as_slice()).unwrap();
        let mut wrong_ws = other_plan.workspace();
        let err = plan.solve_in(&g.linearize(), &mut wrong_ws).unwrap_err();
        assert_eq!(err, SolveError::PlanMismatch);
    }

    #[test]
    fn plan_cache_parks_and_returns_workspaces() {
        let g = looped_chain(6);
        let fp = g.structure_fingerprint();
        let ordering = natural_ordering(&g);
        let mut cache = PlanCache::new();
        let plan = cache
            .get_or_build(fp, || SolvePlan::for_graph(&g, ordering.as_slice()))
            .unwrap();
        assert!(cache.take_workspace(fp).is_none());
        let ws = plan.workspace();
        cache.store_workspace(fp, ws);
        let ws = cache.take_workspace(fp).expect("parked workspace");
        assert_eq!(ws.fingerprint(), fp);
        assert!(cache.take_workspace(fp).is_none());
    }

    #[test]
    fn workspace_pool_checkout_park_and_counters() {
        let g = looped_chain(6);
        let fp = g.structure_fingerprint();
        let ordering = natural_ordering(&g);
        let mut cache = PlanCache::new();
        let plan = cache
            .get_or_build(fp, || SolvePlan::for_graph(&g, ordering.as_slice()))
            .unwrap();

        // First two checkouts allocate; distinct allocations get distinct ids.
        let a = cache.checkout_workspace(&plan);
        let b = cache.checkout_workspace(&plan);
        assert_ne!(a.id(), b.id());
        assert_eq!(cache.workspace_builds(), 2);
        assert_eq!(cache.workspace_reuses(), 0);

        // Parked arenas come back (LIFO), counted as reuses.
        cache.store_workspace(fp, a);
        cache.store_workspace(fp, b);
        assert_eq!(cache.parked_workspaces(), 2);
        let b2 = cache.checkout_workspace(&plan);
        let a2 = cache.checkout_workspace(&plan);
        assert_eq!(cache.workspace_reuses(), 2);
        assert_eq!(cache.workspace_builds(), 2, "no fresh allocations");

        // A cap of one evicts the second park.
        cache.set_workspace_cap(1);
        cache.store_workspace(fp, a2);
        cache.store_workspace(fp, b2);
        assert_eq!(cache.parked_workspaces(), 1);
        assert_eq!(cache.workspace_evictions(), 1);

        // Invalidation drops the plan and the parked pool.
        assert!(cache.invalidate(fp));
        assert!(!cache.invalidate(fp), "second invalidate is a no-op");
        assert_eq!(cache.parked_workspaces(), 0);
        assert_eq!(cache.workspace_evictions(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn workspace_clone_gets_fresh_id() {
        let g = looped_chain(4);
        let plan = SolvePlan::for_graph(&g, natural_ordering(&g).as_slice()).unwrap();
        let ws = plan.workspace();
        let cloned = ws.clone();
        assert_ne!(ws.id(), cloned.id());
        assert_eq!(ws.fingerprint(), cloned.fingerprint());
    }

    #[test]
    fn step_shapes_match_recorded_stats() {
        let g = looped_chain(7);
        let ordering = natural_ordering(&g);
        let sys = g.linearize();
        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
        let (_, stats) = eliminate(&sys, &ordering).unwrap();
        for (&(var, rows, cols), actual) in plan.step_shapes().iter().zip(&stats.steps) {
            assert_eq!(var, actual.var);
            assert_eq!(cols, actual.cols, "cols are exact");
            assert!(rows >= actual.rows, "rows are an upper bound");
        }
    }
}

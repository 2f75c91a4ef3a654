//! The symbolic/numeric split: a cached [`SolvePlan`].
//!
//! ORIANNA's premise is "analyze the factor-graph structure once, execute
//! it fast many times" (paper Sec. 5–6): topology is stable across solver
//! iterations while values change. The software solver exploits the same
//! insight here. A [`SolvePlan`] is the *symbolic* phase of variable
//! elimination — everything that depends only on the graph's structure:
//!
//! * the resolved elimination order,
//! * per-step **gather lists** (which live factors each elimination step
//!   stacks, in the exact order the plan-less path would visit them),
//! * per-step **separator layouts** (the sorted separator variables and
//!   therefore the column layout of the stacked matrix),
//! * the structural `(rows × cols)` dimensions of every dense sub-problem,
//! * the arena layout of the numeric phase ([`crate::workspace`]).
//!
//! The *numeric* phase runs only the dense arithmetic: gather, stack, QR,
//! split — no adjacency rebuilds, no separator scans. Production callers
//! run it inside a reusable [`Workspace`] ([`SolvePlan::solve_in_with`],
//! [`SolvePlan::execute_in`]); [`SolvePlan::execute`] is the allocating
//! serial sweep the arena falls back to. Every path is **bitwise
//! identical** to the plan-less [`eliminate`](crate::elimination::eliminate)
//! because it follows the same gather order and runs the same
//! [`eliminate_step`](crate::elimination) arithmetic (asserted in
//! `tests/plan.rs` for every benchmark application).
//!
//! ## Validity and invalidation
//!
//! A plan is keyed by the graph's [structure
//! fingerprint](orianna_graph::FactorGraph::structure_fingerprint):
//! variable dimensions plus each factor's keys and residual dimension.
//! Changing estimates, measurements, noise, or damping values keeps the
//! fingerprint (and the plan) valid; adding/removing variables or factors
//! invalidates it. [`SolvePlan::execute`] cheaply checks the shape of the
//! system it is handed and returns [`SolveError::PlanMismatch`] on a stale
//! plan rather than computing garbage.
//!
//! ## Determinism guarantee
//!
//! Plan construction is a pure function of structure. The arena's
//! parallel levels write disjoint panels with arithmetic identical to the
//! serial sweep, so a solve is bitwise identical at every thread count
//! (`tests/parallel.rs`).

use crate::elimination::{
    eliminate_step, eliminate_step_with_seps, BayesNet, EliminationStats, SolveError,
};
use crate::workspace::{ArenaError, Workspace, WorkspaceLayout};
use orianna_graph::{FactorGraph, LinearFactor, LinearSystem, VarId};
use orianna_math::par::Parallelism;
use orianna_math::Vec64;
use std::collections::HashMap;
use std::sync::Arc;

/// One symbolic elimination step: everything the numeric executor needs to
/// gather, stack, and split the dense sub-problem of one variable.
#[derive(Debug, Clone)]
struct PlanStep {
    /// The frontal variable this step eliminates.
    var: VarId,
    /// Work-list slots to gather, in plan-less gather order.
    gather: Vec<usize>,
    /// Sorted separator variables — the symbolic column layout.
    seps: Vec<VarId>,
    /// Structural stacked row count (an upper bound: separator factors may
    /// shed numerically-zero rows at run time).
    rows: usize,
    /// Frontal + separator columns (excluding the RHS).
    cols: usize,
    /// Reserved slot for this step's separator factor, when one is
    /// structurally possible.
    new_slot: Option<usize>,
}

/// Symbolic work-list used while building a schedule.
struct SymbolicWorklist {
    /// Keys of each slot (base factors, then reserved separator slots).
    keys: Vec<Vec<VarId>>,
    /// Structural row count of each slot.
    rows: Vec<usize>,
    /// Live = not yet consumed by an earlier step.
    live: Vec<bool>,
    /// Per-variable adjacency over slots, in slot-creation order.
    adj: Vec<Vec<usize>>,
}

impl SymbolicWorklist {
    fn new(var_dims: &[usize], factor_keys: &[Vec<VarId>], factor_rows: &[usize]) -> Self {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); var_dims.len()];
        for (fi, keys) in factor_keys.iter().enumerate() {
            for k in keys {
                adj[k.0].push(fi);
            }
        }
        Self {
            keys: factor_keys.to_vec(),
            rows: factor_rows.to_vec(),
            live: vec![true; factor_keys.len()],
            adj,
        }
    }

    fn live_slots(&self, v: VarId) -> Vec<usize> {
        self.adj[v.0]
            .iter()
            .copied()
            .filter(|&s| self.live[s])
            .collect()
    }

    /// Consumes `gather`, derives the step's layout, and reserves a slot
    /// for the separator factor when one is structurally possible.
    fn make_step(
        &mut self,
        v: VarId,
        gather: Vec<usize>,
        var_dims: &[usize],
    ) -> Result<PlanStep, SolveError> {
        // Separators: first-seen over gathered keys, then sorted — the
        // exact layout `eliminate_step` derives numerically.
        let mut seps: Vec<VarId> = Vec::new();
        let mut rows = 0usize;
        for &s in &gather {
            self.live[s] = false;
            rows += self.rows[s];
            for k in &self.keys[s] {
                if *k != v && !seps.contains(k) {
                    seps.push(*k);
                }
            }
        }
        seps.sort();
        let dv = var_dims[v.0];
        let sep_cols: usize = seps.iter().map(|s| var_dims[s.0]).sum();
        let cols = dv + sep_cols;
        if rows < dv {
            // Structurally rank-deficient: the numeric path would fail the
            // same way, so surface it at plan time.
            return Err(SolveError::SingularVariable(v));
        }
        // A separator factor can exist only when there are separators and
        // the triangularized remainder keeps at least one row. `rows` is
        // an upper bound, so reservation errs on the side of keeping a
        // slot; the executor stores `None` when the numeric factor sheds
        // every row.
        let new_slot = if !seps.is_empty() && rows.min(cols + 1) > dv {
            let slot = self.keys.len();
            for k in &seps {
                self.adj[k.0].push(slot);
            }
            self.keys.push(seps.clone());
            self.rows.push(rows.min(cols + 1) - dv);
            self.live.push(true);
            Some(slot)
        } else {
            None
        };
        Ok(PlanStep {
            var: v,
            gather,
            seps,
            rows,
            cols,
            new_slot,
        })
    }
}

/// Builds the elimination schedule, steps strictly in `order`. Returns
/// the steps and the slot count of their work-list.
fn build_schedule(
    var_dims: &[usize],
    factor_keys: &[Vec<VarId>],
    factor_rows: &[usize],
    order: &[VarId],
) -> Result<(Vec<PlanStep>, usize), SolveError> {
    let mut wl = SymbolicWorklist::new(var_dims, factor_keys, factor_rows);
    let mut steps = Vec::with_capacity(order.len());
    for &v in order {
        let gather = wl.live_slots(v);
        if gather.is_empty() {
            return Err(SolveError::UnconstrainedVariable(v));
        }
        steps.push(wl.make_step(v, gather, var_dims)?);
    }
    Ok((steps, wl.keys.len()))
}

/// The cached symbolic artifact of variable elimination (module docs).
///
/// Build one per topology with [`SolvePlan::for_graph`] or
/// [`SolvePlan::for_system`]; execute it every iteration with
/// [`SolvePlan::execute`].
#[derive(Debug, Clone)]
pub struct SolvePlan {
    fingerprint: u64,
    order: Vec<VarId>,
    var_dims: Vec<usize>,
    num_base_factors: usize,
    steps: Vec<PlanStep>,
    /// Slot count of the numeric work-list (base factors plus reserved
    /// separator slots).
    num_slots: usize,
    /// Arena layout of the schedule (see [`crate::workspace`]).
    layout: WorkspaceLayout,
    /// Estimated numeric-phase flops (from the structural panel shapes),
    /// feeding [`Parallelism`]'s auto-mode cost gate.
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
        let var_dims: Vec<usize> = graph.values().iter().map(|(_, v)| v.dim()).collect();
        let keys: Vec<Vec<VarId>> = graph.factors().iter().map(|f| f.keys().to_vec()).collect();
        let rows: Vec<usize> = graph.factors().iter().map(|f| f.dim()).collect();
        Self::build(graph.structure_fingerprint(), var_dims, &keys, &rows, order)
    }

    /// Builds a plan from an already-linearized system's structure.
    ///
    /// # Errors
    /// Same as [`SolvePlan::for_graph`].
    pub fn for_system(sys: &LinearSystem, order: &[VarId]) -> Result<Self, SolveError> {
        let keys: Vec<Vec<VarId>> = sys.factors.iter().map(|f| f.keys.clone()).collect();
        let rows: Vec<usize> = sys.factors.iter().map(LinearFactor::rows).collect();
        Self::build(
            sys.structure_fingerprint(),
            sys.var_dims.clone(),
            &keys,
            &rows,
            order,
        )
    }

    fn build(
        fingerprint: u64,
        var_dims: Vec<usize>,
        factor_keys: &[Vec<VarId>],
        factor_rows: &[usize],
        order: &[VarId],
    ) -> Result<Self, SolveError> {
        for v in order {
            if v.0 >= var_dims.len() {
                return Err(SolveError::UnknownVariable(*v));
            }
        }
        let (steps, num_slots) = build_schedule(&var_dims, factor_keys, factor_rows, order)?;
        let step_view: Vec<_> = steps
            .iter()
            .map(|s| {
                (
                    s.var,
                    s.gather.as_slice(),
                    s.seps.as_slice(),
                    s.rows,
                    s.cols,
                    s.new_slot,
                )
            })
            .collect();
        let layout = WorkspaceLayout::build(
            &step_view,
            factor_keys.len(),
            factor_keys,
            factor_rows,
            &var_dims,
        );
        // Structural flops estimate of the numeric phase: a Householder
        // triangularization of a rows × (cols + 1) panel costs about
        // 2 · rows · width · min(width, rows) multiply–adds, plus one
        // panel's worth of gather traffic. Shapes are symbolic (row
        // bounds), so this is an upper estimate — exactly what the
        // parallel cost gate wants (DESIGN §3.2.4).
        let flops = steps
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
            var_dims,
            num_base_factors: factor_keys.len(),
            steps,
            num_slots,
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
        &self.var_dims
    }

    /// Structural `(rows, cols)` of every elimination sub-problem, in
    /// elimination order — the plan-time preview of the Fig. 17 samples.
    pub fn step_shapes(&self) -> Vec<(usize, usize)> {
        self.steps.iter().map(|s| (s.rows, s.cols)).collect()
    }

    /// Estimated numeric-phase flops, derived from the structural panel
    /// shapes at build time. This is the work figure the auto-mode cost
    /// gate compares against its threshold
    /// ([`Parallelism::effective_threads`]); it is an upper estimate
    /// because the shapes are structural row bounds.
    pub fn estimated_flops(&self) -> u64 {
        self.flops
    }

    /// Cheap shape check: does `sys` have the layout this plan was built
    /// for? (Full fingerprint equality is asserted in debug builds.)
    pub fn matches(&self, sys: &LinearSystem) -> bool {
        sys.factors.len() == self.num_base_factors && sys.var_dims == self.var_dims
    }

    /// Numeric phase as an allocating serial sweep: eliminates `sys` along
    /// the precomputed schedule and returns owned conditionals. Bitwise
    /// identical to [`eliminate`](crate::elimination::eliminate); this is
    /// the reference the arena falls back to.
    ///
    /// # Errors
    /// [`SolveError::PlanMismatch`] when `sys`'s shape differs from the
    /// planned structure; otherwise the usual elimination errors.
    pub fn execute(&self, sys: &LinearSystem) -> Result<(BayesNet, EliminationStats), SolveError> {
        if !self.matches(sys) {
            return Err(SolveError::PlanMismatch);
        }
        debug_assert_eq!(
            sys.structure_fingerprint(),
            self.fingerprint,
            "plan/system structure fingerprints diverge"
        );
        // Numeric work-list: base factors in their planned slots, reserved
        // separator slots empty until their producing step fills them.
        let mut work: Vec<Option<Arc<LinearFactor>>> = Vec::with_capacity(self.num_slots);
        work.extend(sys.factors.iter().map(|f| Some(Arc::new(f.clone()))));
        work.resize(self.num_slots, None);
        let mut conditionals = Vec::with_capacity(self.steps.len());
        let mut steps = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            // Slots whose separator factor shed every row hold `None` and
            // are skipped — exactly as the plan-less path never made them.
            let gathered: Vec<_> = step.gather.iter().filter_map(|&s| work[s].take()).collect();
            if gathered.is_empty() {
                return Err(SolveError::UnconstrainedVariable(step.var));
            }
            let (cond, new_factor, st) = if gathered.len() == step.gather.len() {
                // Every planned slot is numerically present: the symbolic
                // separator layout is exact, skip re-deriving it.
                eliminate_step_with_seps(step.var, &gathered, &self.var_dims, step.seps.clone())?
            } else {
                // A separator factor shed all its rows upstream; fall back
                // to deriving the layout from what was actually gathered —
                // exactly what the plan-less path stacks.
                eliminate_step(step.var, &gathered, &self.var_dims)?
            };
            conditionals.push(cond);
            steps.push(st);
            match step.new_slot {
                Some(slot) => work[slot] = new_factor.map(Arc::new),
                None => debug_assert!(
                    new_factor.is_none(),
                    "step produced a separator factor without a reserved slot"
                ),
            }
        }
        Ok((
            BayesNet {
                conditionals,
                var_dims: self.var_dims.clone(),
            },
            EliminationStats { steps },
        ))
    }

    /// Allocates a reusable [`Workspace`] sized for this plan's arena
    /// layout: one flat buffer holding every elimination panel at a
    /// precomputed offset, plus the scratch vectors and Δ. Create it once
    /// and pass it to [`SolvePlan::solve_in`] /
    /// [`SolvePlan::execute_in`] every iteration.
    pub fn workspace(&self) -> Workspace {
        self.layout.workspace(self.fingerprint)
    }

    /// Arena-backed serial solve: eliminate **and** back-substitute
    /// entirely inside `ws`, returning a borrow of the solved Δ. Bitwise
    /// identical to `execute + back_substitute`, but steady-state
    /// **allocation-free** (asserted by a counting-allocator test): gather
    /// is slice copies into pre-laid-out panels, QR runs in place, and the
    /// conditionals are read straight out of the arena.
    ///
    /// The one exception is the rare run where a planned separator factor
    /// sheds every row numerically — the executor then falls back to the
    /// allocating [`SolvePlan::execute`] (still bitwise identical).
    ///
    /// # Errors
    /// [`SolveError::PlanMismatch`] when `sys` or `ws` do not belong to
    /// this plan; otherwise the usual elimination errors.
    pub fn solve_in<'w>(
        &self,
        sys: &LinearSystem,
        ws: &'w mut Workspace,
    ) -> Result<&'w Vec64, SolveError> {
        self.solve_in_with(sys, ws, &Parallelism::serial())
    }

    /// Arena-backed solve with **within-solve parallelism**: elimination
    /// runs the layout's dependency levels (independent elimination-tree
    /// subtrees) concurrently, back-substitution the reverse levels —
    /// each gated per level by the flop cost model, so small graphs and
    /// thin chains stay on the serial inline path. Every step writes a
    /// disjoint panel / Δ segment and performs arithmetic identical to
    /// the serial sweep, so the result is **bitwise identical to
    /// [`SolvePlan::solve_in`] at any thread count** (`tests/parallel.rs`),
    /// and the steady state stays allocation-free (per-worker scratch and
    /// the dispatch descriptor live inside `ws`).
    ///
    /// With `par` serial this *is* `solve_in`.
    ///
    /// # Errors
    /// Same as [`SolvePlan::solve_in`] — failures re-run the serial sweep
    /// so the reported error matches the reference path.
    pub fn solve_in_with<'w>(
        &self,
        sys: &LinearSystem,
        ws: &'w mut Workspace,
        par: &Parallelism,
    ) -> Result<&'w Vec64, SolveError> {
        match self.eliminate_into(sys, ws, par)? {
            None => self.layout.back_substitute_in_with(ws, par)?,
            Some(bn) => ws.delta = bn.back_substitute()?,
        }
        Ok(&ws.delta)
    }

    /// Arena-backed variant of [`SolvePlan::execute`]: eliminates inside
    /// `ws` and materializes the conditionals into an owned [`BayesNet`]
    /// for callers that keep them (the incremental solver). The panels,
    /// scratch and stats buffers are still reused — only the returned
    /// conditionals allocate.
    ///
    /// # Errors
    /// Same as [`SolvePlan::solve_in`].
    pub fn execute_in(
        &self,
        sys: &LinearSystem,
        ws: &mut Workspace,
    ) -> Result<(BayesNet, EliminationStats), SolveError> {
        let bn = match self.eliminate_into(sys, ws, &Parallelism::serial())? {
            None => BayesNet {
                conditionals: self.layout.extract_conditionals(ws),
                var_dims: self.var_dims.clone(),
            },
            Some(bn) => bn,
        };
        let steps = ws.stats.clone();
        Ok((bn, EliminationStats { steps }))
    }

    /// Eliminates `sys` inside `ws`, leaving the step stats in `ws`.
    /// Returns `None` when the conditionals live in the arena, or the
    /// owned Bayes net of the allocating [`SolvePlan::execute`] when a
    /// planned separator factor shed every row numerically and the arena
    /// layout no longer applies ([`ArenaError::Fallback`]).
    fn eliminate_into(
        &self,
        sys: &LinearSystem,
        ws: &mut Workspace,
        par: &Parallelism,
    ) -> Result<Option<BayesNet>, SolveError> {
        if !self.matches(sys) || ws.fingerprint != self.fingerprint {
            return Err(SolveError::PlanMismatch);
        }
        match self.layout.eliminate_in_with(sys, ws, par) {
            Ok(()) => Ok(None),
            Err(ArenaError::Fallback) => {
                let (bn, stats) = self.execute(sys)?;
                ws.stats = stats.steps;
                Ok(Some(bn))
            }
            Err(ArenaError::Solve(e)) => Err(e),
        }
    }
}

/// A fingerprint-keyed store of shared [`SolvePlan`]s.
///
/// Repeated-solve harnesses (the mission evaluation runs 30 randomized
/// trials per application — same topology, different noise) build the plan
/// on the first solve and reuse it for every later one. Keys are
/// `(structure fingerprint, ordering tag)`, so graphs whose topology
/// changes simply miss and build fresh plans.
#[derive(Debug, Clone)]
pub struct PlanCache {
    plans: HashMap<(u64, u8), Arc<SolvePlan>>,
    /// Parked workspace pools, keyed like the plans they belong to.
    /// Solvers take one before iterating and store it back afterwards, so
    /// repeated solves over the same topology reuse the arena allocation;
    /// concurrent same-topology solves (a server batch) check out several
    /// at once, one per in-flight request.
    workspaces: HashMap<(u64, u8), Vec<Workspace>>,
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

    /// Returns the cached plan for `(fingerprint, tag)` or builds, stores,
    /// and returns a new one. `tag` disambiguates plans over the same
    /// structure with different orderings (e.g. natural vs. min-degree).
    ///
    /// # Errors
    /// Propagates plan-construction errors; nothing is cached on failure.
    pub fn get_or_build(
        &mut self,
        fingerprint: u64,
        tag: u8,
        build: impl FnOnce() -> Result<SolvePlan, SolveError>,
    ) -> Result<Arc<SolvePlan>, SolveError> {
        if let Some(plan) = self.plans.get(&(fingerprint, tag)) {
            self.hits += 1;
            return Ok(Arc::clone(plan));
        }
        self.misses += 1;
        let plan = Arc::new(build()?);
        debug_assert_eq!(plan.fingerprint(), fingerprint);
        self.plans.insert((fingerprint, tag), Arc::clone(&plan));
        Ok(plan)
    }

    /// Bounds how many workspaces may sit parked per `(fingerprint, tag)`
    /// key; parking beyond the cap drops the arena instead (counted by
    /// [`PlanCache::workspace_evictions`]). Defaults to unbounded — the
    /// single-caller solvers park at most one — while pooled multi-tenant
    /// callers set a small cap so one hot topology cannot hoard memory.
    pub fn set_workspace_cap(&mut self, cap: usize) {
        self.workspace_cap = cap.max(1);
        // An existing oversized pool shrinks on the next park, not here:
        // outstanding checkouts may still come home first.
    }

    /// Takes a parked workspace for `(fingerprint, tag)`, if any. The
    /// caller owns it for the duration of a solve and should park it back
    /// with [`PlanCache::store_workspace`].
    pub fn take_workspace(&mut self, fingerprint: u64, tag: u8) -> Option<Workspace> {
        let ws = self
            .workspaces
            .get_mut(&(fingerprint, tag))
            .and_then(Vec::pop);
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
    pub fn checkout_workspace(&mut self, plan: &SolvePlan, tag: u8) -> Workspace {
        self.take_workspace(plan.fingerprint(), tag)
            .unwrap_or_else(|| {
                self.workspace_builds += 1;
                plan.workspace()
            })
    }

    /// Parks a workspace for reuse by the next solve over the same
    /// structure. A pool already at the workspace cap drops the arena
    /// instead and counts an eviction.
    pub fn store_workspace(&mut self, fingerprint: u64, tag: u8, ws: Workspace) {
        debug_assert_eq!(ws.fingerprint(), fingerprint);
        let pool = self.workspaces.entry((fingerprint, tag)).or_default();
        if pool.len() < self.workspace_cap {
            pool.push(ws);
        } else {
            self.workspace_evictions += 1;
        }
    }

    /// Drops the plan and every parked workspace of `(fingerprint, tag)`.
    /// Returns whether a plan was actually cached. Outstanding
    /// checkouts are unaffected — parking them back later simply
    /// repopulates the pool for a rebuilt plan of the same structure.
    pub fn invalidate(&mut self, fingerprint: u64, tag: u8) -> bool {
        let dropped = self.workspaces.remove(&(fingerprint, tag));
        self.workspace_evictions += dropped.map_or(0, |pool| pool.len());
        self.plans.remove(&(fingerprint, tag)).is_some()
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
    fn planned_serial_is_bitwise_identical_to_eliminate() {
        let g = looped_chain(8);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let sys = g.linearize();
        let (bn_ref, st_ref) = eliminate(&sys, &ordering).unwrap();
        let (bn, st) = plan.execute(&sys).unwrap();
        assert_eq!(bn.conditionals.len(), bn_ref.conditionals.len());
        for (a, b) in bn.conditionals.iter().zip(&bn_ref.conditionals) {
            assert_eq!(a.var, b.var);
            assert_eq!(a.r.as_slice(), b.r.as_slice());
            assert_eq!(a.rhs.as_slice(), b.rhs.as_slice());
            assert_eq!(a.parents.len(), b.parents.len());
            for ((pa, sa), (pb, sb)) in a.parents.iter().zip(&b.parents) {
                assert_eq!(pa, pb);
                assert_eq!(sa.as_slice(), sb.as_slice());
            }
        }
        assert_eq!(st.steps, st_ref.steps);
        assert_eq!(
            bn.back_substitute().unwrap().as_slice(),
            bn_ref.back_substitute().unwrap().as_slice()
        );
    }

    #[test]
    fn plan_survives_relinearization() {
        // Same topology, new linearization point: the plan still matches
        // and produces the fresh serial result bitwise.
        let mut g = looped_chain(6);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        for _ in 0..3 {
            let sys = g.linearize();
            let planned = plan.execute(&sys).unwrap().0.back_substitute().unwrap();
            let fresh = eliminate(&sys, &ordering)
                .unwrap()
                .0
                .back_substitute()
                .unwrap();
            assert_eq!(planned.as_slice(), fresh.as_slice());
            g.retract_all(&planned);
        }
    }

    #[test]
    fn stale_plan_is_rejected() {
        let g = looped_chain(5);
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let mut bigger = g.clone();
        let ids: Vec<_> = (0..5).map(orianna_graph::VarId).collect();
        bigger.add_factor(GpsFactor::new(ids[1], &[0.0, 1.0], 0.5));
        let err = plan.execute(&bigger.linearize()).unwrap_err();
        assert_eq!(err, SolveError::PlanMismatch);
    }

    #[test]
    fn unconstrained_variable_detected_at_plan_time() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let _b = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        let err = SolvePlan::for_graph(&g, natural_ordering(&g).as_slice()).unwrap_err();
        assert!(matches!(err, SolveError::UnconstrainedVariable(v) if v.0 == 1));
    }

    #[test]
    fn subset_order_supports_partial_elimination() {
        // Eliminating a prefix of the variables produces exactly the
        // conditionals of those variables.
        let g = looped_chain(6);
        let sys = g.linearize();
        let order: Vec<VarId> = (0..3).map(VarId).collect();
        let plan = SolvePlan::for_system(&sys, &order).unwrap();
        let (bn, stats) = plan.execute(&sys).unwrap();
        assert_eq!(bn.conditionals.len(), 3);
        assert_eq!(stats.steps.len(), 3);
        for (c, v) in bn.conditionals.iter().zip(&order) {
            assert_eq!(c.var, *v);
        }
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
                .get_or_build(g.structure_fingerprint(), 0, || {
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
        assert_eq!(ws.stats(), st_ref.steps.as_slice());
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
    fn arena_execute_matches_execute() {
        let g = looped_chain(8);
        let ordering = natural_ordering(&g);
        let sys = g.linearize();
        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
        let mut ws = plan.workspace();
        let (bn_ref, st_ref) = plan.execute(&sys).unwrap();
        let (bn, st) = plan.execute_in(&sys, &mut ws).unwrap();
        assert_eq!(st.steps, st_ref.steps);
        assert_eq!(bn.conditionals.len(), bn_ref.conditionals.len());
        for (a, b) in bn.conditionals.iter().zip(&bn_ref.conditionals) {
            assert_eq!(a.var, b.var);
            assert_eq!(a.r.as_slice(), b.r.as_slice());
            assert_eq!(a.rhs.as_slice(), b.rhs.as_slice());
            assert_eq!(a.parents.len(), b.parents.len());
            for ((pa, sa), (pb, sb)) in a.parents.iter().zip(&b.parents) {
                assert_eq!(pa, pb);
                assert_eq!(sa.as_slice(), sb.as_slice());
            }
        }
    }

    #[test]
    fn arena_solve_supports_subset_orders() {
        let g = looped_chain(6);
        let sys = g.linearize();
        let order: Vec<VarId> = (0..3).map(VarId).collect();
        let plan = SolvePlan::for_system(&sys, &order).unwrap();
        let mut ws = plan.workspace();
        let reference = plan.execute(&sys).unwrap().0.back_substitute().unwrap();
        let delta = plan.solve_in(&sys, &mut ws).unwrap();
        assert_eq!(delta.as_slice(), reference.as_slice());
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
            .get_or_build(fp, 0, || SolvePlan::for_graph(&g, ordering.as_slice()))
            .unwrap();
        assert!(cache.take_workspace(fp, 0).is_none());
        let ws = plan.workspace();
        cache.store_workspace(fp, 0, ws);
        let ws = cache.take_workspace(fp, 0).expect("parked workspace");
        assert_eq!(ws.fingerprint(), fp);
        assert!(cache.take_workspace(fp, 0).is_none());
    }

    #[test]
    fn workspace_pool_checkout_park_and_counters() {
        let g = looped_chain(6);
        let fp = g.structure_fingerprint();
        let ordering = natural_ordering(&g);
        let mut cache = PlanCache::new();
        let plan = cache
            .get_or_build(fp, 0, || SolvePlan::for_graph(&g, ordering.as_slice()))
            .unwrap();

        // First two checkouts allocate; distinct allocations get distinct ids.
        let a = cache.checkout_workspace(&plan, 0);
        let b = cache.checkout_workspace(&plan, 0);
        assert_ne!(a.id(), b.id());
        assert_eq!(cache.workspace_builds(), 2);
        assert_eq!(cache.workspace_reuses(), 0);

        // Parked arenas come back (LIFO), counted as reuses.
        cache.store_workspace(fp, 0, a);
        cache.store_workspace(fp, 0, b);
        assert_eq!(cache.parked_workspaces(), 2);
        let b2 = cache.checkout_workspace(&plan, 0);
        let a2 = cache.checkout_workspace(&plan, 0);
        assert_eq!(cache.workspace_reuses(), 2);
        assert_eq!(cache.workspace_builds(), 2, "no fresh allocations");

        // A cap of one evicts the second park.
        cache.set_workspace_cap(1);
        cache.store_workspace(fp, 0, a2);
        cache.store_workspace(fp, 0, b2);
        assert_eq!(cache.parked_workspaces(), 1);
        assert_eq!(cache.workspace_evictions(), 1);

        // Invalidation drops the plan and the parked pool.
        assert!(cache.invalidate(fp, 0));
        assert!(!cache.invalidate(fp, 0), "second invalidate is a no-op");
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
        for (planned, actual) in plan.step_shapes().iter().zip(&stats.steps) {
            assert_eq!(planned.1, actual.cols, "cols are exact");
            assert!(planned.0 >= actual.rows, "rows are an upper bound");
        }
    }
}

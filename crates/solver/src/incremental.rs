//! Incremental factor-graph inference (iSAM2-style Bayes tree).
//!
//! The paper's applications run in sliding windows: every frame adds a
//! handful of factors to a graph that is mostly unchanged. Re-eliminating
//! the whole graph each frame wastes the structure the previous pass
//! already captured. This module keeps the elimination result as a
//! **Bayes tree** ([`crate::bayes_tree`]) and updates it in place:
//!
//! 1. an [`update`](IncrementalSolver::update) marks the cliques whose
//!    frontal variables the new factors touch, plus their ancestors up to
//!    the root (the *affected closure*, found by a worklist over the
//!    variable→clique index — no fixpoint scans over all conditionals),
//! 2. only the affected cliques are detached; the untouched child
//!    subtrees ("orphans") contribute their cached separator messages
//!    instead of being re-eliminated,
//! 3. the affected variables are re-eliminated from the *cached linear
//!    factors* homed there plus the orphan messages, and the new cliques
//!    splice back into the tree,
//! 4. back-substitution descends from the root and stops where deltas
//!    move less than a **wildfire threshold** — a small update updates a
//!    small part of Δ.
//!
//! [`relinearize`](IncrementalSolver::relinearize) is *fluid*: only
//! variables whose delta drifted past a per-variable threshold move
//! their linearization point, and only the factors touching them are
//! re-linearized and re-eliminated — the rest of the tree (and its
//! packed slabs) survives verbatim. Setting the threshold to `0.0`
//! restores the classic batch behavior (move everything, full rebuild),
//! which also remains the fallback for surgery the tree cannot express
//! (e.g. out-of-order marginalization). The invariant tested throughout:
//! the incremental solution equals the batch elimination of the same
//! linearized factors at the same linearization points, to ≤1e-9.

use crate::bayes_tree::BayesTree;
use crate::elimination::{eliminate_step, sweep, SolveError};
use orianna_graph::{Factor, LinearContainerFactor, LinearFactor, Values, VarId, Variable};
use orianna_math::Vec64;
use std::collections::HashSet;
use std::sync::Arc;

/// Default wildfire back-substitution threshold: deltas moving less than
/// this do not propagate further down the tree. Small enough to keep the
/// incremental solution within 1e-9 of batch elimination on the test
/// corpus; raise it to trade accuracy for per-update latency.
pub const DEFAULT_WILDFIRE_THRESHOLD: f64 = 1e-12;

/// Default fluid-relinearization threshold: a variable's linearization
/// point moves only when its delta norm exceeds this. `0.0` disables
/// fluid mode (every relinearize moves every variable and rebuilds).
pub const DEFAULT_RELIN_THRESHOLD: f64 = 1e-8;

/// One tracked factor: the nonlinear factor plus its cached
/// linearization at the solver's current linearization point.
#[derive(Clone)]
struct FactorEntry {
    nonlinear: Arc<dyn Factor>,
    linear: Arc<LinearFactor>,
}

/// An incremental square-root-information solver over a Bayes tree.
#[derive(Clone, Default)]
pub struct IncrementalSolver {
    /// Linearization-point estimates.
    lin_point: Values,
    /// Factor slots; `None` marks factors removed by marginalization.
    entries: Vec<Option<FactorEntry>>,
    /// Variable id → entry indices homed there (a factor's home is its
    /// smallest key — the first variable whose elimination gathers it).
    /// May contain stale indices of removed entries; filtered on read.
    home: Vec<Vec<usize>>,
    /// Live entry count.
    live_factors: usize,
    /// The clique tree of the last elimination.
    tree: BayesTree,
    /// Current solution Δ around the linearization point.
    delta: Vec64,
    /// Variables marginalized out of the active window.
    marginalized: HashSet<VarId>,
    /// Tangent dimension per variable id (kept incrementally).
    var_dims: Vec<usize>,
    /// Δ offset per variable id (kept incrementally).
    offsets: Vec<usize>,
    /// Wildfire back-substitution threshold.
    wildfire_threshold: f64,
    /// Fluid relinearization drift threshold (0.0 = batch mode).
    relin_threshold: f64,
    /// Cumulative cliques created by re-elimination (full or partial).
    cliques_reeliminated: usize,
    /// Cumulative conditionals recomputed by back-substitution.
    wildfire_vars: usize,
    /// Times the full-rebuild fallback ran.
    full_rebuilds: usize,
}

impl std::fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("variables", &self.lin_point.len())
            .field("factors", &self.live_factors)
            .field("cliques", &self.tree.num_cliques())
            .finish()
    }
}

impl IncrementalSolver {
    /// Creates an empty solver with the default thresholds.
    pub fn new() -> Self {
        Self {
            wildfire_threshold: DEFAULT_WILDFIRE_THRESHOLD,
            relin_threshold: DEFAULT_RELIN_THRESHOLD,
            ..Self::default()
        }
    }

    /// Number of variables currently tracked.
    pub fn num_variables(&self) -> usize {
        self.lin_point.len()
    }

    /// Number of factors currently tracked.
    pub fn num_factors(&self) -> usize {
        self.live_factors
    }

    /// Adds a variable with an initial estimate, returning its id.
    pub fn add_variable(&mut self, init: Variable) -> VarId {
        let d = init.dim();
        let id = self.lin_point.insert(init);
        self.offsets.push(self.delta.len());
        self.var_dims.push(d);
        self.delta.extend(&Vec64::zeros(d));
        self.home.push(Vec::new());
        self.tree.ensure_var_capacity(self.lin_point.len());
        id
    }

    /// Live cliques in the Bayes tree.
    pub fn clique_count(&self) -> usize {
        self.tree.num_cliques()
    }

    /// Cumulative cliques created by re-elimination across all updates,
    /// relinearizations and marginalizations. On a streaming workload
    /// the per-update increment tracks the affected subtree, not the
    /// trajectory length.
    pub fn cliques_reeliminated(&self) -> usize {
        self.cliques_reeliminated
    }

    /// Cumulative conditionals recomputed by (wildfire-limited)
    /// back-substitution.
    pub fn wildfire_vars(&self) -> usize {
        self.wildfire_vars
    }

    /// Times the full-rebuild fallback re-eliminated everything.
    pub fn full_rebuilds(&self) -> usize {
        self.full_rebuilds
    }

    /// Slab buffers served from the recycled pool (per-clique storage
    /// surviving across updates).
    pub fn slab_reuses(&self) -> usize {
        self.tree.pool.reuses()
    }

    /// Sets the wildfire back-substitution threshold.
    pub fn set_wildfire_threshold(&mut self, t: f64) {
        self.wildfire_threshold = t;
    }

    /// Sets the fluid relinearization threshold; `0.0` restores the
    /// batch behavior (every relinearize moves every variable and
    /// rebuilds the whole tree).
    pub fn set_relin_threshold(&mut self, t: f64) {
        self.relin_threshold = t;
    }

    /// The tracked nonlinear factors (marginalization containers
    /// included, replaced factors excluded). Order is stable.
    pub fn factors(&self) -> impl Iterator<Item = &Arc<dyn Factor>> + '_ {
        self.entries.iter().flatten().map(|e| &e.nonlinear)
    }

    /// The current linearization point (estimates are
    /// `lin_point ⊞ delta`).
    pub fn lin_point(&self) -> &Values {
        &self.lin_point
    }

    /// Active (non-marginalized) variables in elimination order.
    pub fn active_variables(&self) -> Vec<VarId> {
        (0..self.lin_point.len())
            .map(VarId)
            .filter(|v| !self.marginalized.contains(v))
            .collect()
    }

    /// True when `v` was marginalized out of the active window.
    pub fn is_marginalized(&self, v: VarId) -> bool {
        self.marginalized.contains(&v)
    }

    /// Adds new factors and incrementally updates the solution: only the
    /// cliques whose frontals the factors touch (plus their ancestors)
    /// are re-eliminated.
    ///
    /// # Errors
    /// Returns [`SolveError::UnknownVariable`] when a new factor
    /// references a variable that was never added or was marginalized,
    /// and [`SolveError::NonFinite`] when a new factor linearizes to a
    /// NaN or infinite block or right-hand side (both checked before any
    /// state changes, so a failed update leaves the solver intact), and
    /// the usual errors when a variable stays unconstrained or an
    /// elimination block is singular.
    pub fn update(&mut self, new_factors: Vec<Arc<dyn Factor>>) -> Result<(), SolveError> {
        for f in &new_factors {
            for k in f.keys() {
                if k.0 >= self.lin_point.len() || self.marginalized.contains(k) {
                    return Err(SolveError::UnknownVariable(*k));
                }
            }
        }
        let linear: Vec<LinearFactor> = new_factors
            .iter()
            .map(|f| linearize(f.as_ref(), &self.lin_point))
            .collect();
        let finite = |x: &f64| x.is_finite();
        if !linear.iter().all(|l| {
            l.rhs.as_slice().iter().all(finite)
                && l.blocks.iter().all(|b| b.as_slice().iter().all(finite))
        }) {
            return Err(SolveError::NonFinite);
        }
        let mut affected: HashSet<VarId> =
            new_factors.iter().flat_map(|f| f.keys().to_vec()).collect();
        // Variables without a clique yet (newly added) must join the
        // re-elimination; marginalized ones stay out of the window.
        for v in (0..self.lin_point.len()).map(VarId) {
            if self.tree.clique_of(v).is_none() && !self.marginalized.contains(&v) {
                affected.insert(v);
            }
        }
        for (f, lin) in new_factors.into_iter().zip(linear) {
            self.push_factor(f, lin);
        }
        if affected.is_empty() {
            return Ok(());
        }
        self.reeliminate(&affected, &[])
    }

    /// Current solution Δ (stacked by variable id; layout matches
    /// `Values::offsets`). Marginalized segments are zero.
    pub fn delta(&self) -> &Vec64 {
        &self.delta
    }

    /// Current estimates: the linearization point retracted by Δ.
    pub fn estimate(&self) -> Values {
        self.lin_point.retract_all(&self.delta)
    }

    /// Fluid relinearization: moves the linearization point of every
    /// variable whose delta drifted past the relin threshold, refreshes
    /// the cached linearizations of the factors touching them, and
    /// re-eliminates only the affected cliques. With the threshold at
    /// `0.0` this is the classic batch step: every variable moves and
    /// the whole tree is rebuilt.
    ///
    /// # Errors
    /// Returns [`SolveError`] if the re-elimination fails.
    pub fn relinearize(&mut self) -> Result<(), SolveError> {
        if self.relin_threshold == 0.0 {
            self.lin_point = self.estimate();
            self.delta = Vec64::zeros(self.lin_point.total_dim());
            self.refresh_linearizations(|_| true);
            return self.rebuild();
        }
        let mut moved: Vec<VarId> = Vec::new();
        for &v in &self.active_variables() {
            let off = self.offsets[v.0];
            let drift = (0..self.var_dims[v.0])
                .map(|d| self.delta[off + d].abs())
                .fold(0.0f64, f64::max);
            if drift > self.relin_threshold {
                moved.push(v);
            }
        }
        if moved.is_empty() {
            return Ok(());
        }
        let mut moved_bits = vec![false; self.lin_point.len()];
        for &v in &moved {
            moved_bits[v.0] = true;
            let off = self.offsets[v.0];
            let dv = self.var_dims[v.0];
            let seg: Vec<f64> = (0..dv).map(|d| self.delta[off + d]).collect();
            let new = self.lin_point.get(v).retract(&seg);
            self.lin_point.set(v, new);
            for d in 0..dv {
                self.delta[off + d] = 0.0;
            }
        }
        // Every factor touching a moved variable carries a stale
        // linearization; its full key set joins the affected set so the
        // stale contributions are confined to re-eliminated cliques.
        let mut affected: HashSet<VarId> = moved.iter().copied().collect();
        for e in self.entries.iter().flatten() {
            if e.nonlinear.keys().iter().any(|k| moved_bits[k.0]) {
                affected.extend(e.nonlinear.keys().iter().copied());
            }
        }
        self.refresh_linearizations(|keys| keys.iter().any(|k| moved_bits[k.0]));
        self.reeliminate(&affected, &moved)
    }

    /// Marginalizes a variable out of the active window (fixed-lag
    /// smoothing): its information about the remaining variables is
    /// captured as a [`LinearContainerFactor`] anchored at the current
    /// linearization point, and the variable never enters elimination
    /// again. Marginalize oldest-first so the factors touching `v` do not
    /// reference already-marginalized variables (out-of-order requests
    /// fall back to a full rebuild when an untouched subtree still
    /// references `v`).
    ///
    /// # Errors
    /// Returns [`SolveError::UnknownVariable`] when `v` was never added,
    /// and [`SolveError`] when `v` has no factors or its elimination block
    /// is singular.
    pub fn marginalize(&mut self, v: VarId) -> Result<(), SolveError> {
        if v.0 >= self.lin_point.len() {
            return Err(SolveError::UnknownVariable(v));
        }
        if self.marginalized.contains(&v) {
            return Ok(());
        }
        let touching: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.as_ref().is_some_and(|e| e.nonlinear.keys().contains(&v)))
            .map(|(i, _)| i)
            .collect();
        if touching.is_empty() {
            return Err(SolveError::UnconstrainedVariable(v));
        }
        // Eliminate v out of its adjacent factors (cached linearizations
        // are current): the remainder is the marginal on the separators.
        let linear: Vec<Arc<LinearFactor>> = touching
            .iter()
            .map(|&i| {
                self.entries[i]
                    .as_ref()
                    .expect("touching is live")
                    .linear
                    .clone()
            })
            .collect();
        let (_cond, marginal, _step) = eliminate_step(v, &linear, &self.var_dims)?;
        let affected: HashSet<VarId> = linear.iter().flat_map(|f| f.keys.clone()).collect();
        for i in touching {
            self.entries[i] = None;
            self.live_factors -= 1;
        }
        if let Some(m) = marginal {
            let anchors: Vec<Variable> = m
                .keys
                .iter()
                .map(|k| self.lin_point.get(*k).clone())
                .collect();
            let container = LinearContainerFactor::new(
                m.keys.clone(),
                m.blocks.clone(),
                m.rhs.clone(),
                anchors,
            );
            let idx = self.entries.len();
            self.home[m.keys.iter().min().expect("marginal has keys").0].push(idx);
            self.entries.push(Some(FactorEntry {
                nonlinear: Arc::new(container),
                linear: Arc::new(m),
            }));
            self.live_factors += 1;
        }
        self.marginalized.insert(v);
        let off = self.offsets[v.0];
        for d in 0..self.var_dims[v.0] {
            self.delta[off + d] = 0.0;
        }
        // v's clique is in the affected closure (v keys every touching
        // factor); `reeliminate` drops marginalized frontals from the
        // re-elimination order.
        self.reeliminate(&affected, &[])
    }

    /// Variables currently marginalized.
    pub fn num_marginalized(&self) -> usize {
        self.marginalized.len()
    }

    /// Registers `f`, linearized at the current linearization point as
    /// `lin`, under its home variable (smallest key).
    fn push_factor(&mut self, f: Arc<dyn Factor>, lin: LinearFactor) {
        let idx = self.entries.len();
        if let Some(home) = f.keys().iter().min() {
            self.home[home.0].push(idx);
        }
        self.entries.push(Some(FactorEntry {
            nonlinear: f,
            linear: Arc::new(lin),
        }));
        self.live_factors += 1;
    }

    /// Re-linearizes every live factor whose key set satisfies `pick` at
    /// the current linearization point.
    fn refresh_linearizations(&mut self, pick: impl Fn(&[VarId]) -> bool) {
        let lin_point = &self.lin_point;
        for e in self.entries.iter_mut().flatten() {
            if pick(e.nonlinear.keys()) {
                e.linear = Arc::new(linearize(e.nonlinear.as_ref(), lin_point));
            }
        }
    }

    /// The incremental core: re-eliminates the affected closure of
    /// `affected` (cliques holding affected variables plus ancestors)
    /// from the cached linear factors homed there and the orphan
    /// subtrees' cached messages, then runs wildfire back-substitution.
    /// `changed_seed` forces delta propagation past variables whose
    /// linearization point just moved.
    fn reeliminate(
        &mut self,
        affected: &HashSet<VarId>,
        changed_seed: &[VarId],
    ) -> Result<(), SolveError> {
        let marked = self.tree.affected_closure(affected.iter().copied());
        let mut reelim: Vec<VarId> = self
            .tree
            .frontals_of(&marked)
            .into_iter()
            .filter(|f| !self.marginalized.contains(f))
            .collect();
        for &v in affected {
            if self.tree.clique_of(v).is_none() && !self.marginalized.contains(&v) {
                reelim.push(v);
            }
        }
        reelim.sort_unstable();
        reelim.dedup();
        if reelim.is_empty() {
            // Nothing left to eliminate (e.g. marginalizing the only
            // variable of a component): just drop the marked cliques.
            self.tree.detach(&marked);
            return Ok(());
        }
        let orphans = self.tree.orphans_of(&marked);
        // An orphan whose separator references a marginalized variable
        // cannot be reattached (its message constrains a variable that
        // left the window) — the out-of-order marginalization fallback.
        if orphans.iter().any(|&o| {
            self.tree
                .separator(o)
                .iter()
                .any(|s| self.marginalized.contains(s))
        }) {
            return self.rebuild();
        }
        let mut work: Vec<Arc<LinearFactor>> = Vec::new();
        for &v in &reelim {
            let entries = &self.entries;
            self.home[v.0].retain(|&fi| entries[fi].is_some());
            for &fi in &self.home[v.0] {
                work.push(
                    self.entries[fi]
                        .as_ref()
                        .expect("just filtered")
                        .linear
                        .clone(),
                );
            }
        }
        for &o in &orphans {
            if let Some(msg) = self.tree.msg(o) {
                work.push(msg);
            }
        }
        // Eliminate first (pure); mutate the tree only on success.
        let out = sweep(work, &reelim, &self.var_dims)?;
        self.tree.detach(&marked);
        let new_slots = self.tree.attach(out.conditionals, out.messages, &orphans);
        self.cliques_reeliminated += new_slots.len();
        let mut forced = vec![false; self.tree.node_slots()];
        for &s in &new_slots {
            forced[s] = true;
        }
        self.wildfire_vars += self.tree.back_substitute_wildfire(
            &mut self.delta,
            &self.offsets,
            &forced,
            changed_seed,
            self.wildfire_threshold,
        )?;
        Ok(())
    }

    /// The full-rebuild fallback (and oracle path): re-eliminates every
    /// active variable from the cached linear factors and replaces the
    /// whole tree.
    fn rebuild(&mut self) -> Result<(), SolveError> {
        let order = self.active_variables();
        self.full_rebuilds += 1;
        if order.is_empty() {
            self.tree.clear();
            self.delta = Vec64::zeros(self.lin_point.total_dim());
            return Ok(());
        }
        let work: Vec<Arc<LinearFactor>> = self
            .entries
            .iter()
            .flatten()
            .map(|e| e.linear.clone())
            .collect();
        let out = sweep(work, &order, &self.var_dims)?;
        self.tree.clear();
        let new_slots = self.tree.attach(out.conditionals, out.messages, &[]);
        self.cliques_reeliminated += new_slots.len();
        self.delta = Vec64::zeros(self.lin_point.total_dim());
        let forced = vec![true; self.tree.node_slots()];
        self.wildfire_vars += self.tree.back_substitute_wildfire(
            &mut self.delta,
            &self.offsets,
            &forced,
            &[],
            0.0,
        )?;
        Ok(())
    }
}

/// The whitened block row of `f` at `at`.
fn linearize(f: &dyn Factor, at: &Values) -> LinearFactor {
    let mut row = LinearFactor::default();
    f.linearize_into(at, &mut row);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::eliminate;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, GpsFactor, PriorFactor};
    use orianna_lie::Pose2;

    fn batch_delta(graph: &FactorGraph) -> Vec64 {
        let sys = graph.linearize();
        eliminate(&sys, &natural_ordering(graph))
            .unwrap()
            .0
            .back_substitute()
            .unwrap()
    }

    #[test]
    fn single_update_matches_batch() {
        let mut inc = IncrementalSolver::new();
        let mut g = FactorGraph::new();
        let a_init = Pose2::new(0.1, 0.2, -0.1);
        let a1 = inc.add_variable(Variable::Pose2(a_init));
        let a2 = g.add_pose2(a_init);
        assert_eq!(a1, a2);
        let prior = PriorFactor::pose2(a1, Pose2::identity(), 0.1);
        g.add_factor(prior.clone());
        inc.update(vec![Arc::new(prior)]).unwrap();
        assert!((inc.delta() - &batch_delta(&g)).norm() < 1e-12);
    }

    #[test]
    fn growing_chain_matches_batch_after_each_update() {
        let mut inc = IncrementalSolver::new();
        let mut g = FactorGraph::new();
        let init0 = Pose2::new(0.05, 0.1, 0.0);
        let v0 = inc.add_variable(Variable::Pose2(init0));
        g.add_pose2(init0);
        let prior = PriorFactor::pose2(v0, Pose2::identity(), 0.1);
        g.add_factor(prior.clone());
        inc.update(vec![Arc::new(prior)]).unwrap();

        let mut prev = v0;
        for k in 1..8 {
            let init = Pose2::new(0.0, k as f64 * 0.95, 0.1);
            let v = inc.add_variable(Variable::Pose2(init));
            g.add_pose2(init);
            let odo = BetweenFactor::pose2(prev, v, Pose2::new(0.0, 1.0, 0.0), 0.2);
            g.add_factor(odo.clone());
            inc.update(vec![Arc::new(odo)]).unwrap();
            let diff = (inc.delta() - &batch_delta(&g)).norm();
            assert!(diff < 1e-9, "step {k}: diff {diff:e}");
            prev = v;
        }
        // The tree grew one pairwise clique per pose.
        assert_eq!(inc.clique_count(), 7);
    }

    /// Extending the chain re-eliminates a constant-size tail of the
    /// tree, not the whole trajectory — the Bayes-tree point.
    #[test]
    fn chain_extension_touches_constant_cliques() {
        let mut inc = IncrementalSolver::new();
        let v0 = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 0.0, 0.0)));
        inc.update(vec![Arc::new(PriorFactor::pose2(
            v0,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap();
        let mut prev = v0;
        for k in 1..30 {
            let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.0)));
            let before = inc.cliques_reeliminated();
            inc.update(vec![Arc::new(BetweenFactor::pose2(
                prev,
                v,
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )) as Arc<dyn Factor>])
                .unwrap();
            let touched = inc.cliques_reeliminated() - before;
            assert!(touched <= 2, "step {k} re-eliminated {touched} cliques");
            prev = v;
        }
        assert_eq!(inc.clique_count(), 29);
        assert!(inc.full_rebuilds() == 0, "no fallback on a growing chain");
        // Wildfire kept back-substitution far below the full sweep
        // (30 updates × up-to-30 variables each).
        assert!(inc.wildfire_vars() < 30 * 30 / 2);
    }

    #[test]
    fn loop_closure_updates_affected_subtree() {
        let mut inc = IncrementalSolver::new();
        let mut g = FactorGraph::new();
        let inits: Vec<Pose2> = (0..6)
            .map(|i| Pose2::new(0.02 * i as f64, i as f64, 0.05))
            .collect();
        let ids: Vec<VarId> = inits
            .iter()
            .map(|p| {
                g.add_pose2(*p);
                inc.add_variable(Variable::Pose2(*p))
            })
            .collect();
        let mut batch_factors: Vec<Arc<dyn Factor>> = Vec::new();
        batch_factors.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
        for w in ids.windows(2) {
            batch_factors.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )));
        }
        for f in &batch_factors {
            g.add_shared_factor(f.clone());
        }
        inc.update(batch_factors).unwrap();

        // Now a loop closure arrives.
        let closure: Arc<dyn Factor> = Arc::new(BetweenFactor::pose2(
            ids[0],
            ids[5],
            Pose2::new(0.1, 5.0, 0.2),
            0.3,
        ));
        g.add_shared_factor(closure.clone());
        inc.update(vec![closure]).unwrap();
        assert!((inc.delta() - &batch_delta(&g)).norm() < 1e-9);
    }

    #[test]
    fn estimate_applies_delta() {
        let mut inc = IncrementalSolver::new();
        let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 1.0, 1.0)));
        inc.update(vec![Arc::new(PriorFactor::pose2(
            v,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap();
        let est = inc.estimate();
        // One linear step of this prior moves most of the way to the
        // target (exact for the position part).
        assert!(
            est.get(v)
                .as_pose2()
                .translation_distance(&Pose2::identity())
                < 0.2
        );
    }

    #[test]
    fn relinearize_matches_gauss_newton_fixpoint() {
        let mut inc = IncrementalSolver::new();
        let mut g = FactorGraph::new();
        let inits: Vec<Pose2> = (0..4)
            .map(|i| Pose2::new(0.2, i as f64 * 0.8, -0.2))
            .collect();
        let ids: Vec<VarId> = inits
            .iter()
            .map(|p| {
                g.add_pose2(*p);
                inc.add_variable(Variable::Pose2(*p))
            })
            .collect();
        let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
        fs.push(Arc::new(PriorFactor::pose2(
            ids[0],
            Pose2::identity(),
            0.05,
        )));
        for w in ids.windows(2) {
            fs.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.1,
            )));
        }
        fs.push(Arc::new(GpsFactor::new(ids[3], &[3.0, 0.0], 0.2)));
        for f in &fs {
            g.add_shared_factor(f.clone());
        }
        inc.update(fs).unwrap();
        for _ in 0..5 {
            inc.relinearize().unwrap();
        }
        // The incremental estimate must coincide with batch Gauss-Newton.
        crate::GaussNewton::default().optimize(&mut g).unwrap();
        let est = inc.estimate();
        for id in ids {
            let a = est.get(id).as_pose2();
            let b = g.values().get(id).as_pose2();
            assert!(a.translation_distance(b) < 1e-6, "{id}");
        }
    }

    /// Once the deltas converge below the drift threshold, fluid
    /// relinearization is a no-op: no variable moves, no clique is
    /// re-eliminated.
    #[test]
    fn converged_relinearize_touches_nothing() {
        let mut inc = IncrementalSolver::new();
        let ids: Vec<VarId> = (0..4)
            .map(|i| inc.add_variable(Variable::Pose2(Pose2::new(0.1, i as f64 * 0.9, 0.05))))
            .collect();
        let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
        fs.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
        for w in ids.windows(2) {
            fs.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )));
        }
        inc.update(fs).unwrap();
        for _ in 0..6 {
            inc.relinearize().unwrap();
        }
        let settled = inc.cliques_reeliminated();
        inc.relinearize().unwrap();
        assert_eq!(
            inc.cliques_reeliminated(),
            settled,
            "converged relinearize re-eliminates nothing"
        );
    }

    /// With the relin threshold at 0.0 the solver reproduces the classic
    /// batch relinearization: every call rebuilds the full tree.
    #[test]
    fn zero_threshold_relinearize_is_batch() {
        let mut inc = IncrementalSolver::new();
        inc.set_relin_threshold(0.0);
        let ids: Vec<VarId> = (0..4)
            .map(|i| inc.add_variable(Variable::Pose2(Pose2::new(0.1, i as f64 * 0.9, 0.05))))
            .collect();
        let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
        fs.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
        for w in ids.windows(2) {
            fs.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )));
        }
        inc.update(fs).unwrap();
        assert_eq!(inc.full_rebuilds(), 0, "updates never fall back");
        inc.relinearize().unwrap();
        inc.relinearize().unwrap();
        assert_eq!(inc.full_rebuilds(), 2, "each batch relinearize rebuilds");
    }

    #[test]
    fn marginalization_preserves_remaining_estimates() {
        // Build a chain, solve, marginalize the oldest pose: the
        // remaining estimates must be unchanged (exact at the same
        // linearization point).
        let mut inc = IncrementalSolver::new();
        let inits: Vec<Pose2> = (0..5).map(|i| Pose2::new(0.05, i as f64, 0.1)).collect();
        let ids: Vec<VarId> = inits
            .iter()
            .map(|p| inc.add_variable(Variable::Pose2(*p)))
            .collect();
        let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
        fs.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
        for w in ids.windows(2) {
            fs.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )));
        }
        inc.update(fs).unwrap();
        let before = inc.estimate();
        inc.marginalize(ids[0]).unwrap();
        assert_eq!(inc.num_marginalized(), 1);
        let after = inc.estimate();
        for &id in &ids[1..] {
            let d = before
                .get(id)
                .as_pose2()
                .translation_distance(after.get(id).as_pose2());
            assert!(d < 1e-9, "{id}: moved by {d}");
        }
    }

    #[test]
    fn updates_continue_after_marginalization() {
        let mut inc = IncrementalSolver::new();
        let ids: Vec<VarId> = (0..4)
            .map(|i| inc.add_variable(Variable::Pose2(Pose2::new(0.0, i as f64, 0.05))))
            .collect();
        let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
        fs.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
        for w in ids.windows(2) {
            fs.push(Arc::new(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )));
        }
        inc.update(fs).unwrap();
        inc.marginalize(ids[0]).unwrap();
        inc.marginalize(ids[1]).unwrap();
        // Extend the chain: the window keeps sliding.
        let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 4.0, 0.05)));
        inc.update(vec![Arc::new(BetweenFactor::pose2(
            ids[3],
            v,
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        )) as Arc<dyn Factor>])
            .unwrap();
        let est = inc.estimate();
        assert!(
            est.get(v)
                .as_pose2()
                .translation_distance(&Pose2::new(0.0, 4.0, 0.0))
                < 0.2
        );
    }

    #[test]
    fn marginalizing_unconstrained_variable_errors() {
        let mut inc = IncrementalSolver::new();
        let v = inc.add_variable(Variable::Pose2(Pose2::identity()));
        let err = inc.marginalize(v).unwrap_err();
        assert!(matches!(err, SolveError::UnconstrainedVariable(_)));
    }

    #[test]
    fn update_with_unseen_variable_is_an_error_not_a_panic() {
        let mut inc = IncrementalSolver::new();
        let v = inc.add_variable(Variable::Pose2(Pose2::identity()));
        inc.update(vec![Arc::new(PriorFactor::pose2(
            v,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap();
        // A factor referencing a variable that was never added must be
        // rejected up front and leave the solver untouched.
        let ghost = VarId(7);
        let err = inc
            .update(vec![Arc::new(BetweenFactor::pose2(
                v,
                ghost,
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )) as Arc<dyn Factor>])
            .unwrap_err();
        assert_eq!(err, SolveError::UnknownVariable(ghost));
        assert_eq!(inc.num_factors(), 1);
        // The solver still works after the failed update.
        inc.update(vec![]).unwrap();
        assert!(inc.delta().norm().is_finite());
    }

    /// A factor that linearizes to NaN is rejected before any state
    /// changes: the solver keeps neither the factor nor a stale tree, and
    /// the next valid update matches the batch solve without it.
    #[test]
    fn non_finite_factor_is_rejected_and_leaves_the_solver_intact() {
        let mut inc = IncrementalSolver::new();
        let mut g = FactorGraph::new();
        let a = inc.add_variable(Variable::Pose2(Pose2::identity()));
        g.add_pose2(Pose2::identity());
        let prior = PriorFactor::pose2(a, Pose2::identity(), 0.1);
        g.add_factor(prior.clone());
        inc.update(vec![Arc::new(prior)]).unwrap();
        let b = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 1.0, 0.0)));
        g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
        let nan = BetweenFactor::pose2(a, b, Pose2::new(f64::NAN, 1.0, 0.0), 0.2);
        let err = inc.update(vec![Arc::new(nan) as Arc<dyn Factor>]);
        assert_eq!(err, Err(SolveError::NonFinite));
        assert_eq!(inc.num_factors(), 1);
        let odo = BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.2);
        g.add_factor(odo.clone());
        inc.update(vec![Arc::new(odo)]).unwrap();
        assert_eq!(inc.num_factors(), 2);
        assert!((inc.delta() - &batch_delta(&g)).norm() < 1e-9);
    }

    /// A factor on a marginalized variable is rejected up front: the
    /// variable has left the active window.
    #[test]
    fn update_on_marginalized_variable_is_rejected() {
        let mut inc = IncrementalSolver::new();
        let a = inc.add_variable(Variable::Pose2(Pose2::identity()));
        let b = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 1.0, 0.0)));
        inc.update(vec![
            Arc::new(PriorFactor::pose2(a, Pose2::identity(), 0.1)) as Arc<dyn Factor>,
            Arc::new(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.2)),
        ])
        .unwrap();
        inc.marginalize(a).unwrap();
        let err = inc
            .update(vec![
                Arc::new(GpsFactor::new(a, &[0.0, 0.0], 0.5)) as Arc<dyn Factor>
            ])
            .unwrap_err();
        assert_eq!(err, SolveError::UnknownVariable(a));
    }

    #[test]
    fn marginalizing_unseen_variable_is_an_error_not_a_panic() {
        let mut inc = IncrementalSolver::new();
        let v = inc.add_variable(Variable::Pose2(Pose2::identity()));
        inc.update(vec![Arc::new(PriorFactor::pose2(
            v,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap();
        let err = inc.marginalize(VarId(42)).unwrap_err();
        assert_eq!(err, SolveError::UnknownVariable(VarId(42)));
    }

    #[test]
    fn unconstrained_new_variable_is_reported() {
        let mut inc = IncrementalSolver::new();
        let _v = inc.add_variable(Variable::Pose2(Pose2::identity()));
        let w = inc.add_variable(Variable::Pose2(Pose2::identity()));
        // Only w gets a factor; the first variable stays unconstrained.
        let err = inc
            .update(vec![Arc::new(PriorFactor::pose2(
                w,
                Pose2::identity(),
                0.1,
            ))])
            .unwrap_err();
        assert!(matches!(err, SolveError::UnconstrainedVariable(_)));
    }

    /// Re-eliminating a streaming chain recycles the detached cliques'
    /// slab buffers instead of allocating fresh ones.
    #[test]
    fn steady_state_updates_reuse_slab_buffers() {
        let mut inc = IncrementalSolver::new();
        let v0 = inc.add_variable(Variable::Pose2(Pose2::identity()));
        inc.update(vec![Arc::new(PriorFactor::pose2(
            v0,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap();
        let mut prev = v0;
        for k in 1..12 {
            let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.0)));
            inc.update(vec![Arc::new(BetweenFactor::pose2(
                prev,
                v,
                Pose2::new(0.0, 1.0, 0.0),
                0.2,
            )) as Arc<dyn Factor>])
                .unwrap();
            prev = v;
        }
        assert!(
            inc.slab_reuses() >= 10,
            "detached clique slabs are recycled ({} reuses)",
            inc.slab_reuses()
        );
    }
}

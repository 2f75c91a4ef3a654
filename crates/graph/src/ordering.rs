//! Variable-elimination orderings.
//!
//! Factor-graph inference eliminates variables one at a time (paper
//! Fig. 5); the order strongly affects fill-in and therefore the size of
//! the dense partial-QR problems the accelerator solves. We provide the
//! natural (insertion) order and a greedy minimum-degree heuristic — the
//! standard fill-reducing choice for square-root smoothing-and-mapping.
//!
//! Given an order, [`EliminationSchedule`] is the symbolic elimination:
//! which factors each step gathers, its separators and its dense shape.
//! The solver's `SolvePlan` lays its arena out from it and the compiler
//! emits its `QRD`/`BSUB` stream from it, so the two cannot disagree on
//! structure. [`extract_cliques`] groups a finished pass into
//! the Bayes tree of the incremental solver.

use crate::graph::FactorGraph;
use crate::variable::VarId;
use std::collections::BTreeSet;

/// An elimination order over all variables of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordering {
    order: Vec<VarId>,
}

impl Ordering {
    /// Creates an ordering from an explicit permutation.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn from_order(order: Vec<VarId>) -> Self {
        let mut seen = vec![false; order.len()];
        for v in &order {
            assert!(v.0 < order.len() && !seen[v.0], "not a permutation");
            seen[v.0] = true;
        }
        Self { order }
    }

    /// The elimination sequence.
    pub fn as_slice(&self) -> &[VarId] {
        &self.order
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Natural (insertion) ordering: variables are eliminated in id order.
pub fn natural_ordering(graph: &FactorGraph) -> Ordering {
    Ordering {
        order: (0..graph.num_variables()).map(VarId).collect(),
    }
}

/// Greedy minimum-degree ordering on the variable-adjacency ("interaction")
/// graph induced by the factors: repeatedly eliminate the variable with the
/// fewest neighbors, connecting its neighbors into a clique (simulating
/// fill-in), ties broken by variable id for determinism.
pub fn min_degree_ordering(graph: &FactorGraph) -> Ordering {
    let n = graph.num_variables();
    // Build the interaction graph: variables sharing a factor are adjacent.
    let mut nbrs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for f in graph.factors() {
        let keys = f.keys();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                nbrs[keys[i].0].insert(keys[j].0);
                nbrs[keys[j].0].insert(keys[i].0);
            }
        }
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Pick the non-eliminated variable with minimum degree.
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| (nbrs[v].iter().filter(|&&u| !eliminated[u]).count(), v))
            .expect("variables remain");
        eliminated[v] = true;
        order.push(VarId(v));
        // Clique the remaining neighbors (fill-in simulation).
        let live: Vec<usize> = nbrs[v]
            .iter()
            .copied()
            .filter(|&u| !eliminated[u])
            .collect();
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                nbrs[live[i]].insert(live[j]);
                nbrs[live[j]].insert(live[i]);
            }
        }
    }
    Ordering { order }
}

/// One clique of a Bayes (clique) tree, extracted from the conditional
/// structure of an elimination pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicClique {
    /// Frontal variables, ascending in elimination order (the last one is
    /// the clique's interface to its parent).
    pub frontals: Vec<VarId>,
    /// Separator variables (eliminated after every frontal), ascending in
    /// elimination order.
    pub separator: Vec<VarId>,
    /// Index of the parent clique in the returned vector, `None` for
    /// roots.
    pub parent: Option<usize>,
}

/// Extracts the clique tree (Bayes tree) implied by an elimination pass.
///
/// `conds` lists, in elimination order, each eliminated variable together
/// with the separator (parent) variables of its conditional — all of which
/// must be eliminated later in the same pass. Cliques follow the standard
/// Bayes-tree construction (Kaess et al., iSAM2): walking the conditionals
/// in *reverse* elimination order, variable `v` with parents `S_v` joins
/// the clique `C_p` of its earliest-eliminated parent `p` exactly when
/// `S_v` equals the frontal+separator set of `C_p`; otherwise it roots a
/// new child clique of `C_p` with separator `S_v`. A variable with no
/// parents roots a new tree (the result is a forest when the graph has
/// several connected components).
///
/// # Panics
/// Panics if a parent variable is not eliminated later in `conds` — the
/// input must be dependence-closed, which every full or affected-subtree
/// elimination is by construction.
pub fn extract_cliques(conds: &[(VarId, Vec<VarId>)]) -> Vec<SymbolicClique> {
    use std::collections::HashMap;
    // Position of each variable in the elimination order; parents must be
    // eliminated later than their child conditional.
    let pos: HashMap<VarId, usize> = conds.iter().enumerate().map(|(i, c)| (c.0, i)).collect();
    let mut cliques: Vec<SymbolicClique> = Vec::new();
    let mut clique_of: HashMap<VarId, usize> = HashMap::new();
    for (i, (v, parents)) in conds.iter().enumerate().rev() {
        debug_assert!(
            parents.iter().all(|p| pos.get(p).is_some_and(|&j| j > i)),
            "parents of {v} must be eliminated later in the pass"
        );
        if parents.is_empty() {
            clique_of.insert(*v, cliques.len());
            cliques.push(SymbolicClique {
                frontals: vec![*v],
                separator: Vec::new(),
                parent: None,
            });
            continue;
        }
        // The clique of the earliest-eliminated parent is either extended
        // (when the parent sets coincide) or becomes this clique's parent.
        let p = *parents.iter().min_by_key(|p| pos[p]).expect("non-empty");
        let cp = clique_of[&p];
        let scope_len = cliques[cp].frontals.len() + cliques[cp].separator.len();
        let merge = parents.len() == scope_len
            && parents
                .iter()
                .all(|q| cliques[cp].frontals.contains(q) || cliques[cp].separator.contains(q));
        if merge {
            cliques[cp].frontals.insert(0, *v);
            clique_of.insert(*v, cp);
        } else {
            let mut separator = parents.clone();
            separator.sort_by_key(|q| pos[q]);
            clique_of.insert(*v, cliques.len());
            cliques.push(SymbolicClique {
                frontals: vec![*v],
                separator,
                parent: Some(cp),
            });
        }
    }
    cliques
}

/// Symbolic elimination failure: the variable had no live factor at its
/// step, so nothing determines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnconstrainedVariable(pub VarId);

impl std::fmt::Display for UnconstrainedVariable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variable {} is not constrained by any factor", self.0)
    }
}

impl std::error::Error for UnconstrainedVariable {}

/// One symbolic elimination step (paper Fig. 5): everything that depends
/// only on structure about the dense sub-problem of one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The frontal variable this step eliminates.
    pub var: VarId,
    /// Work-list slots gathered, ascending (base factors, then separator
    /// factors in the order earlier steps produced them).
    pub gather: Vec<usize>,
    /// Sorted separator variables: the column layout after the frontal.
    pub seps: Vec<VarId>,
    /// Structural stacked row count (an upper bound: separator factors may
    /// shed numerically-zero rows at run time).
    pub rows: usize,
    /// Frontal + separator columns (excluding the RHS).
    pub cols: usize,
    /// Slot reserved for this step's separator factor, when one is
    /// structurally possible.
    pub new_slot: Option<usize>,
}

/// The symbolic elimination of one structure along an order: the steps
/// the software solver's arena and the compiler's `QRD`/`BSUB` stream are
/// both laid out from.
///
/// The work-list holds the base factors in slots `0..num_base_factors()`;
/// each step that leaves a separator factor reserves the next slot.
#[derive(Debug, Clone)]
pub struct EliminationSchedule {
    var_dims: Vec<usize>,
    num_base: usize,
    steps: Vec<ScheduleStep>,
    /// Keys and structural row count of every slot.
    slot_keys: Vec<Vec<VarId>>,
    slot_rows: Vec<usize>,
    /// Producing step of each reserved slot (indexed `slot - num_base`).
    producers: Vec<usize>,
    /// Slots not yet consumed by a step.
    live: Vec<bool>,
    /// Per-variable adjacency over slots, ascending.
    adj: Vec<Vec<usize>>,
}

impl EliminationSchedule {
    /// Starts a schedule over `factors` — `(keys, rows)` per base factor —
    /// with nothing eliminated yet.
    pub fn new(
        var_dims: Vec<usize>,
        factors: impl IntoIterator<Item = (Vec<VarId>, usize)>,
    ) -> Self {
        let (slot_keys, slot_rows): (Vec<Vec<VarId>>, Vec<usize>) = factors.into_iter().unzip();
        let mut adj = vec![Vec::new(); var_dims.len()];
        for (slot, keys) in slot_keys.iter().enumerate() {
            for k in keys {
                adj[k.0].push(slot);
            }
        }
        Self {
            var_dims,
            num_base: slot_keys.len(),
            steps: Vec::new(),
            live: vec![true; slot_keys.len()],
            slot_keys,
            slot_rows,
            producers: Vec::new(),
            adj,
        }
    }

    /// [`EliminationSchedule::new`] over a graph's factors.
    pub fn for_graph(graph: &FactorGraph) -> Self {
        Self::new(
            graph.values().iter().map(|(_, v)| v.dim()).collect(),
            graph.factors().iter().map(|f| (f.keys().to_vec(), f.dim())),
        )
    }

    /// Eliminates `v`: gathers its live slots, derives the separator
    /// layout and row count, and reserves a slot for the separator factor
    /// when the triangularized remainder keeps a row. A step with fewer
    /// rows than `v`'s dimension is recorded as is; only the numeric
    /// phase can tell how singular it is.
    ///
    /// # Errors
    /// [`UnconstrainedVariable`] when no live slot touches `v`.
    pub fn eliminate(&mut self, v: VarId) -> Result<&ScheduleStep, UnconstrainedVariable> {
        let gather: Vec<usize> = self.adj[v.0]
            .iter()
            .copied()
            .filter(|&s| self.live[s])
            .collect();
        if gather.is_empty() {
            return Err(UnconstrainedVariable(v));
        }
        // Separators: first-seen over the gathered keys, then sorted.
        let mut seps: Vec<VarId> = Vec::new();
        let mut rows = 0;
        for &s in &gather {
            self.live[s] = false;
            rows += self.slot_rows[s];
            for k in &self.slot_keys[s] {
                if *k != v && !seps.contains(k) {
                    seps.push(*k);
                }
            }
        }
        seps.sort();
        let dv = self.var_dims[v.0];
        let cols = dv + seps.iter().map(|s| self.var_dims[s.0]).sum::<usize>();
        // QR leaves at most `cols + 1` rows; the first `dv` form the
        // conditional, the rest the separator factor.
        let new_slot = (!seps.is_empty() && rows.min(cols + 1) > dv).then(|| {
            let slot = self.slot_keys.len();
            for k in &seps {
                self.adj[k.0].push(slot);
            }
            self.slot_keys.push(seps.clone());
            self.slot_rows.push(rows.min(cols + 1) - dv);
            self.live.push(true);
            self.producers.push(self.steps.len());
            slot
        });
        self.steps.push(ScheduleStep {
            var: v,
            gather,
            seps,
            rows,
            cols,
            new_slot,
        });
        Ok(self.steps.last().expect("just pushed"))
    }

    /// Eliminates every variable of `order` in turn.
    ///
    /// # Errors
    /// The first [`UnconstrainedVariable`].
    pub fn eliminate_all(&mut self, order: &[VarId]) -> Result<(), UnconstrainedVariable> {
        for &v in order {
            self.eliminate(v)?;
        }
        Ok(())
    }

    /// The steps so far, in elimination order.
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// Tangent dimension per variable id.
    pub fn var_dims(&self) -> &[usize] {
        &self.var_dims
    }

    /// Number of base factors (slots below it are base factors).
    pub fn num_base_factors(&self) -> usize {
        self.num_base
    }

    /// Keys of a slot (a separator slot's keys are its producer's seps).
    pub fn slot_keys(&self, slot: usize) -> &[VarId] {
        &self.slot_keys[slot]
    }

    /// Structural row count of a slot.
    pub fn slot_rows(&self, slot: usize) -> usize {
        self.slot_rows[slot]
    }

    /// Index of the step that reserved `slot`, or `None` for a base factor.
    pub fn producer(&self, slot: usize) -> Option<usize> {
        slot.checked_sub(self.num_base).map(|i| self.producers[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{BetweenFactor, PriorFactor};
    use orianna_lie::Pose2;

    fn chain(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_pose2(Pose2::identity())).collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(w[0], w[1], Pose2::identity(), 0.1));
        }
        g
    }

    #[test]
    fn natural_is_identity() {
        let g = chain(4);
        let o = natural_ordering(&g);
        assert_eq!(o.as_slice(), &[VarId(0), VarId(1), VarId(2), VarId(3)]);
    }

    #[test]
    fn min_degree_covers_all_variables() {
        let g = chain(6);
        let o = min_degree_ordering(&g);
        assert_eq!(o.len(), 6);
        let mut sorted: Vec<_> = o.as_slice().to_vec();
        sorted.sort();
        assert_eq!(sorted, (0..6).map(VarId).collect::<Vec<_>>());
    }

    #[test]
    fn min_degree_prefers_leaves() {
        // On a chain the endpoints have degree 1 and should go early.
        let g = chain(5);
        let o = min_degree_ordering(&g);
        let first = o.as_slice()[0];
        assert!(first == VarId(0) || first == VarId(4));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_order_validates() {
        Ordering::from_order(vec![VarId(0), VarId(0)]);
    }

    /// Chain conditionals x0|x1, x1|x2, ..., x_{n-1} produce one clique
    /// per edge: [x_{n-2}, x_{n-1}] at the root merges, every earlier
    /// variable roots a child clique [x_i ; x_{i+1}].
    #[test]
    fn chain_cliques_are_pairwise() {
        let n = 5;
        let conds: Vec<(VarId, Vec<VarId>)> = (0..n)
            .map(|i| {
                let parents = if i + 1 < n {
                    vec![VarId(i + 1)]
                } else {
                    vec![]
                };
                (VarId(i), parents)
            })
            .collect();
        let cliques = extract_cliques(&conds);
        assert_eq!(cliques.len(), n - 1);
        // Root: [x3, x4], no separator.
        assert_eq!(cliques[0].frontals, vec![VarId(3), VarId(4)]);
        assert!(cliques[0].separator.is_empty());
        assert_eq!(cliques[0].parent, None);
        // Children: [x_i ; x_{i+1}] hanging off the next clique up.
        for (k, c) in cliques.iter().enumerate().skip(1) {
            let i = n - 2 - k;
            assert_eq!(c.frontals, vec![VarId(i)]);
            assert_eq!(c.separator, vec![VarId(i + 1)]);
            assert_eq!(c.parent, Some(k - 1));
        }
    }

    /// A conditional whose parents equal the full scope of its parent
    /// clique merges into it (x0 | x1, x2 with root clique [x1, x2]).
    #[test]
    fn full_scope_parents_merge() {
        let conds = vec![
            (VarId(0), vec![VarId(1), VarId(2)]),
            (VarId(1), vec![VarId(2)]),
            (VarId(2), vec![]),
        ];
        let cliques = extract_cliques(&conds);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].frontals, vec![VarId(0), VarId(1), VarId(2)]);
    }

    /// Disconnected components yield a forest: two roots, no cross links.
    #[test]
    fn components_yield_forest() {
        let conds = vec![
            (VarId(0), vec![VarId(1)]),
            (VarId(1), vec![]),
            (VarId(2), vec![VarId(3)]),
            (VarId(3), vec![]),
        ];
        let cliques = extract_cliques(&conds);
        assert_eq!(cliques.len(), 2);
        assert!(cliques.iter().all(|c| c.parent.is_none()));
        let mut roots: Vec<_> = cliques.iter().map(|c| c.frontals.clone()).collect();
        roots.sort();
        assert_eq!(roots[0], vec![VarId(0), VarId(1)]);
        assert_eq!(roots[1], vec![VarId(2), VarId(3)]);
    }

    /// A landmark-style branch: two children observing a shared pose pair
    /// attach as sibling cliques under the same parent.
    #[test]
    fn shared_separator_makes_siblings() {
        let conds = vec![
            (VarId(0), vec![VarId(4)]),
            (VarId(1), vec![VarId(4)]),
            (VarId(2), vec![VarId(3), VarId(4)]),
            (VarId(3), vec![VarId(4)]),
            (VarId(4), vec![]),
        ];
        let cliques = extract_cliques(&conds);
        // Root [x2, x3, x4] (x3|x4 merges into [x4]; x2|x3,x4 merges
        // again), then x1 and x0 each root a child [xi ; x4].
        assert_eq!(cliques.len(), 3);
        assert_eq!(cliques[0].frontals, vec![VarId(2), VarId(3), VarId(4)]);
        for c in &cliques[1..] {
            assert_eq!(c.separator, vec![VarId(4)]);
            assert_eq!(c.parent, Some(0));
        }
    }
}

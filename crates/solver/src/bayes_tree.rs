//! The Bayes (clique) tree behind incremental solving (iSAM2-style).
//!
//! A full elimination pass factorizes the joint into per-variable
//! conditionals; grouping consecutive conditionals whose parent sets
//! nest yields the **clique tree** ([`orianna_graph::extract_cliques`]):
//! each clique owns a contiguous run of *frontal* variables conditioned
//! on a *separator* drawn from its ancestors' frontals. The tree is the
//! unit of incremental reuse:
//!
//! * each clique stores its conditionals packed in a pooled
//!   [`CliqueSlab`](crate::workspace::CliqueSlab) — re-eliminating one
//!   part of the tree never touches the slabs of the rest;
//! * each non-root clique caches its **message** — the separator factor
//!   its last frontal's elimination step handed to the parent, as
//!   returned per step by the reference sweep of
//!   [`eliminate`](crate::elimination::eliminate), which every
//!   re-elimination runs. When a later update detaches the clique's
//!   parent, the message stands in for the whole untouched subtree
//!   during re-elimination, exactly as in iSAM2's "orphan" reattachment;
//! * back-substitution descends from the roots and stops at cliques
//!   whose separator deltas moved less than a **wildfire threshold**,
//!   so a small update touches a small part of Δ.
//!
//! The tree itself is storage + surgery; the update policy (which
//! variables are affected, when to fall back to a full rebuild) lives in
//! [`crate::incremental`].

use crate::elimination::{Conditional, SolveError};
use crate::workspace::{CliqueSlab, SlabPool};
use orianna_graph::{extract_cliques, LinearFactor, VarId};
use orianna_math::Vec64;
use std::collections::HashMap;
use std::sync::Arc;

/// One clique: a run of frontal variables, their packed conditionals,
/// and the cached message to the parent.
#[derive(Debug, Clone)]
pub(crate) struct CliqueNode {
    /// Frontal variables, ascending in elimination (id) order.
    pub frontals: Vec<VarId>,
    /// Separator variables, ascending in elimination (id) order.
    pub separator: Vec<VarId>,
    /// Parent clique slot, `None` for roots.
    pub parent: Option<usize>,
    /// Child clique slots.
    pub children: Vec<usize>,
    /// Packed conditionals of the frontals (elimination order).
    pub slab: CliqueSlab,
    /// Separator factor produced when the last frontal was eliminated —
    /// the subtree's contribution to the parent. `None` for roots and
    /// when elimination shed every separator row.
    pub msg: Option<Arc<LinearFactor>>,
}

/// The clique tree (a forest when the graph has several components).
/// Nodes live in a slab vector with a free list so surgery never shifts
/// the indices of untouched cliques.
#[derive(Debug, Clone, Default)]
pub(crate) struct BayesTree {
    nodes: Vec<Option<CliqueNode>>,
    free: Vec<usize>,
    /// Variable id → slot of the clique holding it as a frontal.
    clique_of: Vec<Option<usize>>,
    roots: Vec<usize>,
    /// Recycles slab buffers across detach/attach surgery.
    pub pool: SlabPool,
}

impl BayesTree {
    /// Number of live cliques.
    pub fn num_cliques(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Upper bound on clique slot indices (for caller-side bitsets).
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Grows the variable→clique map to cover `n` variables.
    pub fn ensure_var_capacity(&mut self, n: usize) {
        if self.clique_of.len() < n {
            self.clique_of.resize(n, None);
        }
    }

    /// Slot of the clique holding `v` as a frontal, if any.
    pub fn clique_of(&self, v: VarId) -> Option<usize> {
        self.clique_of.get(v.0).copied().flatten()
    }

    /// Separator of a clique.
    pub fn separator(&self, slot: usize) -> &[VarId] {
        &self.nodes[slot].as_ref().expect("live clique").separator
    }

    /// Cached message of a clique (its subtree's separator factor).
    pub fn msg(&self, slot: usize) -> Option<Arc<LinearFactor>> {
        self.nodes[slot].as_ref().expect("live clique").msg.clone()
    }

    /// Releases every clique (slab buffers return to the pool).
    pub fn clear(&mut self) {
        for slot in self.nodes.drain(..).flatten() {
            slot.slab.release(&mut self.pool);
        }
        self.free.clear();
        self.roots.clear();
        self.clique_of.iter_mut().for_each(|c| *c = None);
    }

    /// The **affected closure**: the cliques holding any of `vars` as a
    /// frontal, plus all their ancestors up to the roots (ancestor
    /// marginals change whenever a descendant's message changes, so the
    /// whole path must be re-eliminated). Returns sorted unique slots.
    pub fn affected_closure(&self, vars: impl Iterator<Item = VarId>) -> Vec<usize> {
        let mut bits = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = vars.filter_map(|v| self.clique_of(v)).collect();
        let mut out = Vec::new();
        while let Some(c) = stack.pop() {
            if bits[c] {
                continue;
            }
            bits[c] = true;
            out.push(c);
            if let Some(p) = self.nodes[c].as_ref().expect("live clique").parent {
                stack.push(p);
            }
        }
        out.sort_unstable();
        out
    }

    /// All frontal variables of the given cliques.
    pub fn frontals_of(&self, slots: &[usize]) -> Vec<VarId> {
        slots
            .iter()
            .flat_map(|&s| self.nodes[s].as_ref().expect("live clique").frontals.iter())
            .copied()
            .collect()
    }

    /// Children of marked cliques that are not marked themselves — the
    /// untouched subtrees whose cached messages feed the re-elimination.
    pub fn orphans_of(&self, marked: &[usize]) -> Vec<usize> {
        let mut bits = vec![false; self.nodes.len()];
        for &m in marked {
            bits[m] = true;
        }
        let mut orphans = Vec::new();
        for &m in marked {
            for &ch in &self.nodes[m].as_ref().expect("live clique").children {
                if !bits[ch] {
                    orphans.push(ch);
                }
            }
        }
        orphans.sort_unstable();
        orphans
    }

    /// Removes the marked cliques (slabs return to the pool; orphan
    /// parent pointers are left dangling until [`BayesTree::attach`]
    /// rewires them).
    pub fn detach(&mut self, marked: &[usize]) {
        let mut bits = vec![false; self.nodes.len()];
        for &m in marked {
            bits[m] = true;
            let node = self.nodes[m].take().expect("live clique");
            for f in &node.frontals {
                self.clique_of[f.0] = None;
            }
            node.slab.release(&mut self.pool);
            self.free.push(m);
        }
        self.roots.retain(|&r| !bits[r]);
    }

    /// Inserts the sub-forest produced by re-eliminating `conds` (with
    /// the per-step separator factors `msgs`) and reattaches each orphan
    /// under the new clique of its earliest-eliminated separator
    /// variable. Returns the new clique slots.
    pub fn attach(
        &mut self,
        conds: Vec<Conditional>,
        msgs: Vec<Option<Arc<LinearFactor>>>,
        orphans: &[usize],
    ) -> Vec<usize> {
        let symbolic: Vec<(VarId, Vec<VarId>)> = conds
            .iter()
            .map(|c| (c.var, c.parents.iter().map(|(p, _)| *p).collect()))
            .collect();
        let cliques = extract_cliques(&symbolic);
        let step_of: HashMap<VarId, usize> =
            conds.iter().enumerate().map(|(i, c)| (c.var, i)).collect();
        let mut cond_slots: Vec<Option<Conditional>> = conds.into_iter().map(Some).collect();
        let mut msg_slots = msgs;
        // `extract_cliques` creates parents before children, so the
        // local→global slot map is complete when a child needs it.
        let mut slot_of_local = Vec::with_capacity(cliques.len());
        let mut new_slots = Vec::with_capacity(cliques.len());
        for sc in cliques {
            let packed: Vec<Conditional> = sc
                .frontals
                .iter()
                .map(|f| {
                    cond_slots[step_of[f]]
                        .take()
                        .expect("each frontal packed once")
                })
                .collect();
            let slab = CliqueSlab::pack(&packed, &mut self.pool);
            let last = *sc.frontals.last().expect("clique has frontals");
            let msg = msg_slots[step_of[&last]].take();
            let parent = sc.parent.map(|p| slot_of_local[p]);
            let slot = self.alloc(CliqueNode {
                frontals: sc.frontals,
                separator: sc.separator,
                parent,
                children: Vec::new(),
                slab,
                msg,
            });
            for f in &self.nodes[slot].as_ref().expect("just placed").frontals {
                self.clique_of[f.0] = Some(slot);
            }
            match parent {
                Some(p) => self.nodes[p]
                    .as_mut()
                    .expect("live parent")
                    .children
                    .push(slot),
                None => self.roots.push(slot),
            }
            slot_of_local.push(slot);
            new_slots.push(slot);
        }
        for &o in orphans {
            let anchor = self.nodes[o].as_ref().expect("live orphan").separator[0];
            let p = self
                .clique_of(anchor)
                .expect("orphan separator is re-eliminated");
            self.nodes[o].as_mut().expect("live orphan").parent = Some(p);
            self.nodes[p]
                .as_mut()
                .expect("live parent")
                .children
                .push(o);
        }
        new_slots
    }

    fn alloc(&mut self, node: CliqueNode) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Some(node);
                slot
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    /// Wildfire back-substitution: descends from the roots, always
    /// recomputing `forced` cliques (the freshly re-eliminated ones) and
    /// descending into a child only when the child is forced or one of
    /// its separator deltas changed by more than `threshold` (or is in
    /// `changed_seed` — variables whose linearization point just moved).
    /// Unvisited subtrees keep their previous Δ, which is exact to the
    /// threshold because their conditionals and separator inputs are
    /// unchanged. Returns the number of conditionals solved.
    pub fn back_substitute_wildfire(
        &self,
        delta: &mut Vec64,
        offsets: &[usize],
        forced: &[bool],
        changed_seed: &[VarId],
        threshold: f64,
    ) -> Result<usize, SolveError> {
        let mut changed = vec![false; self.clique_of.len()];
        for &v in changed_seed {
            changed[v.0] = true;
        }
        let mut stack: Vec<usize> = self
            .roots
            .iter()
            .copied()
            .filter(|&r| forced.get(r).copied().unwrap_or(false))
            .collect();
        let mut out: Vec<f64> = Vec::new();
        let mut solved = 0;
        while let Some(slot) = stack.pop() {
            solved += self.solve_clique(slot, delta, offsets, threshold, &mut changed, &mut out)?;
            let node = self.nodes[slot].as_ref().expect("live clique");
            for &ch in &node.children {
                let child = self.nodes[ch].as_ref().expect("live child");
                let visit = forced.get(ch).copied().unwrap_or(false)
                    || child.separator.iter().any(|s| changed[s.0]);
                if visit {
                    stack.push(ch);
                }
            }
        }
        Ok(solved)
    }

    /// Solves every conditional of one clique against the stacked Δ,
    /// flagging the frontals whose segment moved by more than
    /// `threshold`. Returns the number of conditionals solved.
    fn solve_clique(
        &self,
        slot: usize,
        delta: &mut Vec64,
        offsets: &[usize],
        threshold: f64,
        changed: &mut [bool],
        out: &mut Vec<f64>,
    ) -> Result<usize, SolveError> {
        let node = self.nodes[slot].as_ref().expect("live clique");
        let mut solved = 0;
        for i in (0..node.slab.cond_count()).rev() {
            let v = node.slab.cond_var(i);
            node.slab
                .solve_cond(i, delta, offsets, out)
                .ok_or(SolveError::SingularVariable(v))?;
            let off = offsets[v.0];
            let mut diff = 0.0f64;
            for (cur, &x) in delta.as_mut_slice()[off..off + out.len()]
                .iter_mut()
                .zip(out.iter())
            {
                diff = diff.max((x - *cur).abs());
                *cur = x;
            }
            if diff > threshold {
                changed[v.0] = true;
            }
            solved += 1;
        }
        Ok(solved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{eliminate, sweep};
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
    use orianna_lie::Pose2;

    fn chain(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_pose2(Pose2::new(0.05, i as f64 * 0.9, 0.02)))
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
        g
    }

    fn build_tree(g: &FactorGraph) -> (BayesTree, Vec64, Vec<usize>) {
        let sys = g.linearize();
        let order: Vec<VarId> = (0..g.num_variables()).map(VarId).collect();
        let factors: Vec<Arc<LinearFactor>> = sys.factors.iter().cloned().map(Arc::new).collect();
        let out = sweep(factors, &order, &sys.var_dims).unwrap();
        let mut tree = BayesTree::default();
        tree.ensure_var_capacity(g.num_variables());
        let slots = tree.attach(out.conditionals, out.messages, &[]);
        let offsets = sys.offsets();
        let mut delta = Vec64::zeros(sys.total_cols());
        let forced = vec![true; tree.node_slots()];
        tree.back_substitute_wildfire(&mut delta, &offsets, &forced, &[], 0.0)
            .unwrap();
        (tree, delta, slots)
    }

    /// The reference sweep + packed wildfire back-substitution over the
    /// whole tree reproduces the batch solution bitwise (same kernel,
    /// same gather order, same solve order per conditional).
    #[test]
    fn full_tree_solve_matches_batch_bitwise() {
        let g = chain(7);
        let (_, delta, _) = build_tree(&g);
        let sys = g.linearize();
        let batch = eliminate(&sys, &natural_ordering(&g))
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        for i in 0..batch.len() {
            assert_eq!(delta[i], batch[i], "component {i}");
        }
    }

    /// A chain builds one clique per edge; every clique except the roots
    /// caches the message its subtree sent upward.
    #[test]
    fn chain_tree_shape_and_messages() {
        let g = chain(6);
        let (tree, _, slots) = build_tree(&g);
        assert_eq!(tree.num_cliques(), 5);
        let rootless: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|&s| tree.nodes[s].as_ref().unwrap().parent.is_some())
            .collect();
        assert_eq!(rootless.len(), 4);
        for s in rootless {
            assert!(tree.msg(s).is_some(), "non-root clique caches its message");
        }
    }

    /// The affected closure of a mid-chain variable is its clique plus
    /// every ancestor up to the root — never the descendants.
    #[test]
    fn affected_closure_is_ancestor_path() {
        let g = chain(6);
        let (tree, _, _) = build_tree(&g);
        let marked = tree.affected_closure([VarId(3)].into_iter());
        let frontals = tree.frontals_of(&marked);
        assert!(frontals.contains(&VarId(3)));
        assert!(frontals.contains(&VarId(5)), "root path included");
        assert!(!frontals.contains(&VarId(0)), "descendants untouched");
        // Its orphans hang directly below the marked path.
        let orphans = tree.orphans_of(&marked);
        assert_eq!(orphans.len(), 1);
        assert!(tree
            .separator(orphans[0])
            .iter()
            .all(|s| frontals.contains(s)));
    }

    /// Detach + re-attach with orphan messages reproduces the batch
    /// solution on the same linearized system.
    #[test]
    fn subtree_surgery_matches_batch() {
        let g = chain(8);
        let (mut tree, mut delta, _) = build_tree(&g);
        let sys = g.linearize();
        let offsets = sys.offsets();
        // Re-eliminate the top of the chain: cliques of x5.. upward.
        let marked = tree.affected_closure([VarId(5)].into_iter());
        let mut reelim = tree.frontals_of(&marked);
        reelim.sort();
        let orphans = tree.orphans_of(&marked);
        let mut work: Vec<Arc<LinearFactor>> = Vec::new();
        for f in &sys.factors {
            let home = f.keys.iter().min().unwrap();
            if reelim.contains(home) {
                work.push(Arc::new(f.clone()));
            }
        }
        for &o in &orphans {
            if let Some(m) = tree.msg(o) {
                work.push(m);
            }
        }
        let out = sweep(work, &reelim, &sys.var_dims).unwrap();
        tree.detach(&marked);
        let new_slots = tree.attach(out.conditionals, out.messages, &orphans);
        let mut forced = vec![false; tree.node_slots()];
        for &s in &new_slots {
            forced[s] = true;
        }
        tree.back_substitute_wildfire(&mut delta, &offsets, &forced, &[], 0.0)
            .unwrap();
        let batch = eliminate(&sys, &natural_ordering(&g))
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        assert!((&delta - &batch).norm() < 1e-9);
    }

    /// With an infinite wildfire threshold only the forced clique is
    /// recomputed; with a zero threshold a perturbation at the root
    /// spreads exactly one level down (the children restore their
    /// already-correct deltas, so the wave stops there).
    #[test]
    fn wildfire_threshold_bounds_recomputation() {
        let g = chain(10);
        let (tree, delta0, slots) = build_tree(&g);
        let sys = g.linearize();
        let offsets = sys.offsets();
        let root = *slots
            .iter()
            .find(|&&s| tree.nodes[s].as_ref().unwrap().parent.is_none())
            .unwrap();
        let root_node = tree.nodes[root].as_ref().unwrap();
        let perturb = |delta: &mut Vec64| {
            for f in &root_node.frontals {
                delta[offsets[f.0]] += 1.0;
            }
        };
        let mut forced = vec![false; tree.node_slots()];
        forced[root] = true;
        let mut delta = delta0.clone();
        perturb(&mut delta);
        let wide = tree
            .back_substitute_wildfire(&mut delta, &offsets, &forced, &[], f64::INFINITY)
            .unwrap();
        assert_eq!(wide, root_node.frontals.len());
        let mut delta = delta0.clone();
        perturb(&mut delta);
        let spread = tree
            .back_substitute_wildfire(&mut delta, &offsets, &forced, &[], 0.0)
            .unwrap();
        assert!(spread > wide, "perturbation spreads past the root");
        assert!(
            spread < tree.num_cliques() + root_node.frontals.len(),
            "wave stops once deltas settle"
        );
        assert!((&delta - &delta0).norm() < 1e-12, "solution restored");
    }
}

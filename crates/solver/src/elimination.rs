//! Incremental variable elimination and back-substitution (paper
//! Fig. 5/6).
//!
//! Eliminating variable `v`:
//! 1. gather all linear factors adjacent to `v`,
//! 2. stack their rows into a small dense matrix over the columns
//!    `[v | separators | rhs]`,
//! 3. run a partial QR that triangularizes the `v` columns,
//! 4. the top `dim(v)` rows become the *conditional* `R_v Δ_v + Σ R_s Δ_s = d`,
//! 5. the remaining non-trivial rows become a new factor on the separators
//!    (the "new factor f₇" of Fig. 5).
//!
//! After all variables are eliminated the conditionals form an
//! upper-triangular system (a Bayes net); back-substitution in reverse
//! order recovers Δ (Fig. 6).
//!
//! [`eliminate`] is the plan-less reference oracle. Production solves run
//! a cached [`SolvePlan`](crate::plan::SolvePlan) inside a reusable
//! workspace arena, bitwise identical to it.

use orianna_graph::{LinearFactor, LinearSystem, Ordering, VarId};
use orianna_math::{householder_qr, Mat, Vec64};
use std::sync::Arc;

/// Failure modes of elimination / back-substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A variable had no adjacent factors at its elimination step, so the
    /// system cannot determine it.
    UnconstrainedVariable(VarId),
    /// The gathered sub-problem was rank-deficient in the variable's
    /// columns.
    SingularVariable(VarId),
    /// An operation referenced a variable the solver has never seen (e.g.
    /// an incremental update whose factor keys were never inserted).
    UnknownVariable(VarId),
    /// A [`SolvePlan`](crate::plan::SolvePlan) was executed against a
    /// system whose structure differs from the one it was built for.
    PlanMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::UnconstrainedVariable(v) => {
                write!(f, "variable {v} is not constrained by any factor")
            }
            SolveError::SingularVariable(v) => {
                write!(f, "variable {v} has a singular elimination block")
            }
            SolveError::UnknownVariable(v) => {
                write!(f, "variable {v} is not known to the solver")
            }
            SolveError::PlanMismatch => {
                write!(f, "solve plan does not match the system's structure")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The triangular conditional produced by eliminating one variable:
/// `R Δ_v + Σⱼ Sⱼ Δ_parent(j) = d`.
#[derive(Debug, Clone)]
pub struct Conditional {
    /// The eliminated (frontal) variable.
    pub var: VarId,
    /// Upper-triangular diagonal block `R` (dim × dim).
    pub r: Mat,
    /// Parent (separator) variables and their blocks `Sⱼ`.
    pub parents: Vec<(VarId, Mat)>,
    /// Right-hand side `d`.
    pub rhs: Vec64,
}

/// The result of eliminating every variable: an upper-triangular system in
/// elimination order.
#[derive(Debug, Clone)]
pub struct BayesNet {
    /// Conditionals in elimination order.
    pub conditionals: Vec<Conditional>,
    /// Tangent dimension per variable id.
    pub var_dims: Vec<usize>,
}

impl BayesNet {
    /// Back-substitution (paper Fig. 6): solves for the stacked Δ indexed
    /// by variable id offsets (same layout as `LinearSystem::dense`).
    ///
    /// # Errors
    /// Returns [`SolveError::SingularVariable`] when a diagonal block is
    /// numerically singular.
    pub fn back_substitute(&self) -> Result<Vec64, SolveError> {
        let mut offsets = Vec::with_capacity(self.var_dims.len());
        let mut acc = 0;
        for &d in &self.var_dims {
            offsets.push(acc);
            acc += d;
        }
        let mut delta = Vec64::zeros(acc);
        for cond in self.conditionals.iter().rev() {
            let dim = self.var_dims[cond.var.0];
            // rhs − Σ Sⱼ Δ_parent
            let mut rhs = cond.rhs.clone();
            for (p, s) in &cond.parents {
                let dp = delta.segment(offsets[p.0], self.var_dims[p.0]);
                rhs = &rhs - &s.mul_vec(&dp);
            }
            let dv = orianna_math::triangular::back_substitute(&cond.r, &rhs)
                .ok_or(SolveError::SingularVariable(cond.var))?;
            debug_assert_eq!(dv.len(), dim);
            delta.set_segment(offsets[cond.var.0], &dv);
        }
        Ok(delta)
    }
}

impl BayesNet {
    /// Assembles the full square-root information matrix `R` (upper
    /// triangular over the stacked tangent space, variable-id order) and
    /// the stacked RHS.
    pub fn assemble_r(&self) -> (Mat, Vec64) {
        let mut offsets = Vec::with_capacity(self.var_dims.len());
        let mut acc = 0;
        for &d in &self.var_dims {
            offsets.push(acc);
            acc += d;
        }
        let mut r = Mat::zeros(acc, acc);
        let mut d_vec = Vec64::zeros(acc);
        for c in &self.conditionals {
            let ro = offsets[c.var.0];
            r.set_block(ro, ro, &c.r);
            for (p, s) in &c.parents {
                r.set_block(ro, offsets[p.0], s);
            }
            d_vec.set_segment(ro, &c.rhs);
        }
        (r, d_vec)
    }

    /// Marginal covariance block of one variable: the `(v, v)` block of
    /// `Σ = (RᵀR)⁻¹`, computed column-by-column through two triangular
    /// solves. Standard posterior-uncertainty extraction (an extension
    /// beyond the paper's pipeline; the accelerator's back-substitution
    /// unit performs exactly these solves).
    ///
    /// # Errors
    /// Returns [`SolveError::SingularVariable`] when `R` is singular.
    pub fn marginal_covariance(&self, v: VarId) -> Result<Mat, SolveError> {
        let (r, _) = self.assemble_r();
        let n = r.rows();
        let mut offsets = Vec::with_capacity(self.var_dims.len());
        let mut acc = 0;
        for &d in &self.var_dims {
            offsets.push(acc);
            acc += d;
        }
        let dv = self.var_dims[v.0];
        let off = offsets[v.0];
        // Σ e_i for the v-columns: solve Rᵀ y = e_i (forward), R x = y
        // (backward).
        let rt = r.transpose();
        let mut cov = Mat::zeros(dv, dv);
        for i in 0..dv {
            let mut e = Vec64::zeros(n);
            e[off + i] = 1.0;
            let y = orianna_math::triangular::forward_substitute(&rt, &e)
                .ok_or(SolveError::SingularVariable(v))?;
            let x = orianna_math::triangular::back_substitute(&r, &y)
                .ok_or(SolveError::SingularVariable(v))?;
            for j in 0..dv {
                cov[(j, i)] = x[off + j];
            }
        }
        Ok(cov)
    }
}

/// Size/density record of one dense elimination sub-problem — the samples
/// behind the paper's Fig. 17 (sizes) and Fig. 18 (densities).
#[derive(Debug, Clone, PartialEq)]
pub struct EliminationStep {
    /// Eliminated variable.
    pub var: VarId,
    /// Rows of the gathered dense matrix `Ā`.
    pub rows: usize,
    /// Columns of `Ā` (frontal + separator, excluding rhs).
    pub cols: usize,
    /// Density of `Ā` before decomposition.
    pub density: f64,
    /// Number of adjacent factors gathered.
    pub gathered: usize,
}

/// Aggregate statistics over one full elimination pass.
#[derive(Debug, Clone, Default)]
pub struct EliminationStats {
    /// Per-variable records in elimination order.
    pub steps: Vec<EliminationStep>,
}

impl EliminationStats {
    /// Largest `(rows, cols)` sub-problem encountered.
    pub fn max_shape(&self) -> (usize, usize) {
        self.steps.iter().fold((0, 0), |m, s| {
            if s.rows * s.cols > m.0 * m.1 {
                (s.rows, s.cols)
            } else {
                m
            }
        })
    }

    /// Mean density across steps (1.0 when there are no steps).
    pub fn mean_density(&self) -> f64 {
        if self.steps.is_empty() {
            return 1.0;
        }
        self.steps.iter().map(|s| s.density).sum::<f64>() / self.steps.len() as f64
    }
}

/// Eliminates one variable given its gathered live adjacent factors: the
/// single dense sub-problem of paper Fig. 5. Pure function of its inputs —
/// the reference sweep ([`eliminate`]), the plan executor and the
/// incremental solver all call it, so every path runs identical
/// arithmetic.
///
/// Returns the conditional, the new separator factor (when any non-trivial
/// rows remain) and the size/density record for this step.
pub(crate) fn eliminate_step(
    v: VarId,
    gathered: &[Arc<LinearFactor>],
    var_dims: &[usize],
) -> Result<(Conditional, Option<LinearFactor>, EliminationStep), SolveError> {
    if gathered.is_empty() {
        return Err(SolveError::UnconstrainedVariable(v));
    }
    // Column layout: frontal variable first, separators sorted by id.
    let mut seps: Vec<VarId> = Vec::new();
    for f in gathered {
        for k in &f.keys {
            if *k != v && !seps.contains(k) {
                seps.push(*k);
            }
        }
    }
    seps.sort();
    eliminate_step_with_seps(v, gathered, var_dims, seps)
}

/// [`eliminate_step`] with the separator layout supplied by the caller.
/// The plan executor ([`crate::plan::SolvePlan::execute`]) derives `seps`
/// symbolically once and passes it here every iteration, skipping the
/// per-step separator scan. `seps` must equal the sorted separators of
/// `gathered` (debug-asserted).
pub(crate) fn eliminate_step_with_seps(
    v: VarId,
    gathered: &[Arc<LinearFactor>],
    var_dims: &[usize],
    seps: Vec<VarId>,
) -> Result<(Conditional, Option<LinearFactor>, EliminationStep), SolveError> {
    if gathered.is_empty() {
        return Err(SolveError::UnconstrainedVariable(v));
    }
    #[cfg(debug_assertions)]
    {
        let mut expect: Vec<VarId> = Vec::new();
        for f in gathered {
            for k in &f.keys {
                if *k != v && !expect.contains(k) {
                    expect.push(*k);
                }
            }
        }
        expect.sort();
        debug_assert_eq!(seps, expect, "separator layout mismatch for {v}");
    }
    let dv = var_dims[v.0];
    let sep_cols: usize = seps.iter().map(|s| var_dims[s.0]).sum();
    let total_rows: usize = gathered.iter().map(|f| f.rows()).sum();
    let cols = dv + sep_cols;

    // Stack [A_v | A_seps | rhs].
    let mut abar = Mat::zeros(total_rows, cols + 1);
    let mut row = 0;
    for f in gathered {
        for (k, blk) in f.keys.iter().zip(&f.blocks) {
            let c0 = if *k == v {
                0
            } else {
                let mut off = dv;
                for s in &seps {
                    if s == k {
                        break;
                    }
                    off += var_dims[s.0];
                }
                off
            };
            abar.set_block(row, c0, blk);
        }
        for r in 0..f.rows() {
            abar[(row + r, cols)] = f.rhs[r];
        }
        row += f.rows();
    }

    let step = EliminationStep {
        var: v,
        rows: total_rows,
        cols,
        density: abar.block(0, 0, total_rows, cols).density(1e-14),
        gathered: gathered.len(),
    };

    if total_rows < dv {
        return Err(SolveError::SingularVariable(v));
    }

    // Full QR of the gathered matrix (the partial QR of Fig. 5 plus the
    // triangularization of the remainder, which caps the new factor's
    // row count at sep_cols + 1).
    let r_full = householder_qr(&abar).r;

    // Conditional: top dv rows.
    let r_diag = r_full.block(0, 0, dv, dv);
    for d in 0..dv {
        if r_diag[(d, d)].abs() < 1e-12 {
            return Err(SolveError::SingularVariable(v));
        }
    }
    let mut parents = Vec::with_capacity(seps.len());
    let mut off = dv;
    for s in &seps {
        let ds = var_dims[s.0];
        parents.push((*s, r_full.block(0, off, dv, ds)));
        off += ds;
    }
    let mut rhs = Vec64::zeros(dv);
    for d in 0..dv {
        rhs[d] = r_full[(d, dv + sep_cols)];
    }
    let conditional = Conditional {
        var: v,
        r: r_diag,
        parents,
        rhs,
    };

    // New factor on separators: rows dv .. min(total_rows, cols+1),
    // dropping rows that are numerically zero.
    let mut new_factor = None;
    if !seps.is_empty() {
        let last = total_rows.min(cols + 1);
        let mut keep_rows: Vec<usize> = Vec::new();
        for r in dv..last {
            let mut nonzero = false;
            for c in dv..cols + 1 {
                if r_full[(r, c)].abs() > 1e-12 {
                    nonzero = true;
                    break;
                }
            }
            if nonzero {
                keep_rows.push(r);
            }
        }
        if !keep_rows.is_empty() {
            let nr = keep_rows.len();
            let mut blocks: Vec<Mat> = Vec::with_capacity(seps.len());
            let mut off = dv;
            for s in &seps {
                let ds = var_dims[s.0];
                let mut blk = Mat::zeros(nr, ds);
                for (ri, &r) in keep_rows.iter().enumerate() {
                    for c in 0..ds {
                        blk[(ri, c)] = r_full[(r, off + c)];
                    }
                }
                blocks.push(blk);
                off += ds;
            }
            let mut new_rhs = Vec64::zeros(nr);
            for (ri, &r) in keep_rows.iter().enumerate() {
                new_rhs[ri] = r_full[(r, cols)];
            }
            new_factor = Some(LinearFactor {
                keys: seps,
                blocks,
                rhs: new_rhs,
            });
        }
    }
    Ok((conditional, new_factor, step))
}

/// Live factor work-list: `None` = consumed by an earlier elimination.
type WorkList = Vec<Option<Arc<LinearFactor>>>;

fn build_worklist(system: &LinearSystem) -> (WorkList, Vec<Vec<usize>>) {
    let work: WorkList = system
        .factors
        .iter()
        .cloned()
        .map(|f| Some(Arc::new(f)))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); system.var_dims.len()];
    for (fi, f) in system.factors.iter().enumerate() {
        for k in &f.keys {
            adj[k.0].push(fi);
        }
    }
    (work, adj)
}

fn push_new_factor(work: &mut WorkList, adj: &mut [Vec<usize>], nf: LinearFactor) {
    let fi = work.len();
    for k in &nf.keys {
        adj[k.0].push(fi);
    }
    work.push(Some(Arc::new(nf)));
}

/// Eliminates every variable of `system` in `ordering`, producing the
/// Bayes net and the per-step statistics. This is the reference oracle
/// every planned path ([`crate::plan`]) is bitwise identical to.
///
/// # Errors
/// Returns an error when a variable is unconstrained or singular.
pub fn eliminate(
    system: &LinearSystem,
    ordering: &Ordering,
) -> Result<(BayesNet, EliminationStats), SolveError> {
    assert_eq!(
        ordering.len(),
        system.var_dims.len(),
        "ordering must cover every variable"
    );
    let var_dims = system.var_dims.clone();
    let (mut work, mut adj) = build_worklist(system);
    let mut conditionals = Vec::with_capacity(ordering.len());
    let mut stats = EliminationStats::default();

    for &v in ordering.as_slice() {
        // Gather live adjacent factors.
        let factor_ids: Vec<usize> = adj[v.0]
            .iter()
            .copied()
            .filter(|&fi| work[fi].is_some())
            .collect();
        if factor_ids.is_empty() {
            return Err(SolveError::UnconstrainedVariable(v));
        }
        let gathered: Vec<Arc<LinearFactor>> = factor_ids
            .iter()
            .map(|&fi| work[fi].take().unwrap())
            .collect();
        let (conditional, new_factor, step) = eliminate_step(v, &gathered, &var_dims)?;
        stats.steps.push(step);
        conditionals.push(conditional);
        if let Some(nf) = new_factor {
            push_new_factor(&mut work, &mut adj, nf);
        }
    }

    Ok((
        BayesNet {
            conditionals,
            var_dims,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, GpsFactor, PriorFactor};
    use orianna_lie::Pose2;

    fn solve_both_ways(graph: &FactorGraph) -> (Vec64, Vec64) {
        let sys = graph.linearize();
        let ordering = natural_ordering(graph);
        let (bn, _) = eliminate(&sys, &ordering).expect("eliminates");
        let delta_elim = bn.back_substitute().expect("back-substitutes");
        let delta_dense = sys.solve_dense().expect("dense solvable");
        (delta_elim, delta_dense)
    }

    #[test]
    fn elimination_matches_dense_on_chain() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..5)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64 * 0.9, 0.1)))
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
        let (e, d) = solve_both_ways(&g);
        assert!((&e - &d).norm() < 1e-8, "{:?}", (&e - &d).norm());
    }

    #[test]
    fn elimination_matches_dense_with_loops_and_landmark_structure() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_pose2(Pose2::new(0.1 * i as f64, i as f64, 0.0)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.1, 1.0, 0.0),
                0.2,
            ));
        }
        // Loop closure + GPS.
        g.add_factor(BetweenFactor::pose2(
            ids[0],
            ids[3],
            Pose2::new(0.3, 3.0, 0.2),
            0.3,
        ));
        g.add_factor(GpsFactor::new(ids[2], &[2.0, 0.1], 0.5));
        let (e, d) = solve_both_ways(&g);
        assert!((&e - &d).norm() < 1e-8);
    }

    #[test]
    fn min_degree_ordering_gives_same_solution() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..6)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
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
        g.add_factor(BetweenFactor::pose2(
            ids[1],
            ids[4],
            Pose2::new(0.0, 3.0, 0.0),
            0.4,
        ));
        let sys = g.linearize();
        let nat = eliminate(&sys, &natural_ordering(&g))
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        let md_order = orianna_graph::min_degree_ordering(&g);
        let md = eliminate(&sys, &md_order)
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        assert!((&nat - &md).norm() < 1e-8);
    }

    #[test]
    fn unconstrained_variable_detected() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let _b = g.add_pose2(Pose2::identity()); // no factor touches b
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        let sys = g.linearize();
        let err = eliminate(&sys, &natural_ordering(&g)).unwrap_err();
        assert!(matches!(err, SolveError::UnconstrainedVariable(v) if v.0 == 1));
    }

    #[test]
    fn gps_only_graph_is_singular_in_orientation() {
        // A pose constrained only by position observations has an
        // undetermined heading.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        g.add_factor(GpsFactor::new(a, &[0.0, 0.0], 0.5));
        let sys = g.linearize();
        let err = eliminate(&sys, &natural_ordering(&g)).unwrap_err();
        assert!(matches!(err, SolveError::SingularVariable(_)));
    }

    #[test]
    fn marginal_covariance_of_prior_is_sigma_squared() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.5));
        let sys = g.linearize();
        let (bn, _) = eliminate(&sys, &natural_ordering(&g)).unwrap();
        let cov = bn.marginal_covariance(orianna_graph::VarId(0)).unwrap();
        // Isotropic prior with σ = 0.5 ⇒ covariance 0.25·I.
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 0.25 } else { 0.0 };
                assert!(
                    (cov[(i, j)] - expect).abs() < 1e-9,
                    "({i},{j}) = {}",
                    cov[(i, j)]
                );
            }
        }
    }

    #[test]
    fn marginal_covariance_matches_dense_normal_equations() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..3)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.2));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.3,
            ));
        }
        let sys = g.linearize();
        let (bn, _) = eliminate(&sys, &natural_ordering(&g)).unwrap();
        let cov = bn.marginal_covariance(orianna_graph::VarId(2)).unwrap();
        // Dense reference: Σ = (AᵀA)⁻¹ block.
        let (a, _) = sys.dense();
        let ata = a.transpose().mul_mat(&a);
        let n = ata.rows();
        let mut inv = Mat::zeros(n, n);
        for c in 0..n {
            let mut e = Vec64::zeros(n);
            e[c] = 1.0;
            let x = ata.solve_dense(&e).unwrap();
            for r in 0..n {
                inv[(r, c)] = x[r];
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (cov[(i, j)] - inv[(6 + i, 6 + j)]).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    cov[(i, j)],
                    inv[(6 + i, 6 + j)]
                );
            }
        }
    }

    #[test]
    fn covariance_grows_along_the_chain() {
        // Uncertainty accumulates away from the anchor.
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(
                w[0],
                w[1],
                Pose2::new(0.0, 1.0, 0.0),
                0.1,
            ));
        }
        let sys = g.linearize();
        let (bn, _) = eliminate(&sys, &natural_ordering(&g)).unwrap();
        let trace = |v: usize| {
            let c = bn.marginal_covariance(orianna_graph::VarId(v)).unwrap();
            c[(0, 0)] + c[(1, 1)] + c[(2, 2)]
        };
        assert!(trace(1) < trace(3), "{} vs {}", trace(1), trace(3));
    }

    #[test]
    fn stats_capture_small_dense_problems() {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..10)
            .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
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
        let sys = g.linearize();
        let (_, stats) = eliminate(&sys, &natural_ordering(&g)).unwrap();
        assert_eq!(stats.steps.len(), 10);
        // Every gathered sub-problem is far smaller than the full 27x30
        // system — the heart of the paper's Fig. 17 argument.
        let (rows, cols) = stats.max_shape();
        assert!(rows <= 9 && cols <= 9, "({rows},{cols})");
        // Gathered sub-problems are denser than the full assembled system.
        assert!(stats.mean_density() > sys.density());
    }
}

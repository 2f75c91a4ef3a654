//! Differential oracle for the Bayes-tree incremental solver.
//!
//! The [`orianna_solver::IncrementalSolver`] answers every update by
//! re-eliminating only the affected cliques and back-substituting only
//! where deltas move. The oracle holds it to the ground truth it is
//! supposed to shortcut: after **every** operation of a streaming
//! sequence — factor-chunk updates, fluid relinearizations, oldest-first
//! marginalizations — the solver's Δ must match a full batch elimination
//! of the *same* cached problem (the solver's own live factors,
//! linearized at the solver's own linearization point, eliminated over
//! the active variables in id order) to within `tol`.
//!
//! The batch reference is the serial [`orianna_solver::SolvePlan`]
//! sweep, bitwise equal to `eliminate`, so it is the same on every
//! `ORIANNA_THREADS` / `ORIANNA_NO_SIMD` CI leg; only the incremental
//! path under test follows the thread setting.
//!
//! Sequences are deterministic in `(GenConfig, ops_seed)`: the graph
//! comes from [`crate::gen`], the chunk boundaries are drawn from the
//! prefixes that leave no variable unconstrained, and the interleaved
//! relinearize/marginalize decisions come from the ops RNG.

use orianna_graph::{Factor, LinearFactor, LinearSystem, Values, VarId};
use orianna_solver::{IncrementalSolver, SolvePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::gen::{generate, GenConfig};

/// Default tolerance on `‖Δ_incremental − Δ_batch‖₂`.
pub const INCREMENTAL_TOL: f64 = 1e-9;

/// One divergence between the incremental solver and the batch oracle.
#[derive(Debug, Clone)]
pub struct IncrementalViolation {
    /// Graph configuration that produced the failure.
    pub config: GenConfig,
    /// Seed of the operation sequence.
    pub ops_seed: u64,
    /// Index of the failing operation in the sequence.
    pub step: usize,
    /// Human-readable description of the failing operation.
    pub op: String,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The way an operation diverged from the oracle.
#[derive(Debug, Clone)]
pub enum ViolationKind {
    /// The incremental Δ differs from batch elimination.
    DeltaMismatch {
        /// `‖Δ_incremental − Δ_batch‖₂`.
        diff: f64,
        /// The tolerance that was exceeded.
        tol: f64,
    },
    /// The incremental solver errored where the batch oracle succeeds.
    SolverError(String),
    /// The batch oracle errored where the incremental solver succeeds.
    ReferenceError(String),
}

impl std::fmt::Display for IncrementalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vars={} density={} seed={} ops_seed={}: step {} ({}): ",
            self.config.family.name(),
            self.config.variables,
            self.config.density,
            self.config.seed,
            self.ops_seed,
            self.step,
            self.op
        )?;
        match &self.kind {
            ViolationKind::DeltaMismatch { diff, tol } => {
                write!(f, "delta mismatch {diff:e} > {tol:e}")
            }
            ViolationKind::SolverError(e) => write!(f, "incremental solver error: {e}"),
            ViolationKind::ReferenceError(e) => write!(f, "batch reference error: {e}"),
        }
    }
}

/// Statistics of one passing sequence.
#[derive(Debug, Clone, Default)]
pub struct IncrementalReport {
    /// Chunked factor updates performed.
    pub updates: usize,
    /// Relinearizations performed.
    pub relinearizations: usize,
    /// Variables marginalized out.
    pub marginalizations: usize,
    /// Worst observed `‖Δ_incremental − Δ_batch‖₂` across all checks.
    pub max_diff: f64,
    /// Cliques re-eliminated across the whole sequence.
    pub cliques_reeliminated: usize,
    /// Full-rebuild fallbacks taken.
    pub full_rebuilds: usize,
}

/// Batch ground truth for the solver's current problem: its live factors
/// linearized at its linearization point, eliminated over the active
/// variables in id order, fully back-substituted.
pub fn batch_reference(solver: &IncrementalSolver) -> Result<orianna_math::Vec64, String> {
    let lin_point = solver.lin_point();
    let factors: Vec<LinearFactor> = solver
        .factors()
        .map(|f| {
            let (blocks, err) = f.linearize(lin_point);
            LinearFactor {
                keys: f.keys().to_vec(),
                blocks,
                rhs: -&err,
            }
        })
        .collect();
    let var_dims: Vec<usize> = (0..lin_point.len())
        .map(|i| lin_point.get(VarId(i)).dim())
        .collect();
    let sys = LinearSystem { factors, var_dims };
    let order = solver.active_variables();
    let plan = SolvePlan::for_system(&sys, &order).map_err(|e| e.to_string())?;
    let (bn, _) = plan.execute(&sys).map_err(|e| e.to_string())?;
    bn.back_substitute().map_err(|e| e.to_string())
}

/// Prefix boundaries after which no variable referenced so far is left
/// unconstrained: the chunk cut points a streaming front-end could
/// legally emit. Determined by running a real (serial) elimination of
/// each prefix at the graph's initial values.
fn valid_boundaries(factors: &[Arc<dyn Factor>], init: &Values) -> Vec<usize> {
    let mut boundaries = Vec::new();
    for k in 1..=factors.len() {
        let prefix = &factors[..k];
        let max_key = prefix
            .iter()
            .flat_map(|f| f.keys().iter().map(|v| v.0))
            .max()
            .unwrap_or(0);
        let lin: Vec<LinearFactor> = prefix
            .iter()
            .map(|f| {
                let (blocks, err) = f.linearize(init);
                LinearFactor {
                    keys: f.keys().to_vec(),
                    blocks,
                    rhs: -&err,
                }
            })
            .collect();
        let var_dims: Vec<usize> = (0..=max_key).map(|i| init.get(VarId(i)).dim()).collect();
        let sys = LinearSystem {
            factors: lin,
            var_dims,
        };
        let order: Vec<VarId> = (0..=max_key).map(VarId).collect();
        let solvable = SolvePlan::for_system(&sys, &order)
            .and_then(|p| p.execute(&sys))
            .is_ok();
        if solvable {
            boundaries.push(k);
        }
    }
    boundaries
}

/// Drives one streaming sequence over the graph of `cfg` and checks the
/// incremental solver against [`batch_reference`] after every operation.
///
/// # Errors
/// Returns the first [`IncrementalViolation`], boxed (large type).
pub fn check_incremental(
    cfg: &GenConfig,
    ops_seed: u64,
    tol: f64,
) -> Result<IncrementalReport, Box<IncrementalViolation>> {
    let graph = generate(cfg);
    let factors: Vec<Arc<dyn Factor>> = graph.factors().to_vec();
    let init = graph.values();
    let boundaries = valid_boundaries(&factors, init);
    let mut rng = StdRng::seed_from_u64(ops_seed ^ 0x1ce1ce);

    // Random subset of the legal cut points; the full graph always ends
    // the stream.
    let mut cuts: Vec<usize> = boundaries
        .iter()
        .copied()
        .filter(|&b| b == factors.len() || rng.gen_range(0.0..1.0) < 0.4)
        .collect();
    if cuts.last() != Some(&factors.len()) {
        cuts.push(factors.len());
    }

    // Last factor index referencing each variable — a variable may be
    // marginalized only once the stream has passed all its factors.
    let num_vars = graph.num_variables();
    let mut last_ref = vec![0usize; num_vars];
    for (fi, f) in factors.iter().enumerate() {
        for k in f.keys() {
            last_ref[k.0] = fi;
        }
    }

    let mut solver = IncrementalSolver::new();
    let mut report = IncrementalReport::default();
    let mut added = 0usize;
    let mut sent = 0usize;
    let mut next_marg = 0usize;
    let mut step = 0usize;

    let check = |solver: &IncrementalSolver,
                 report: &mut IncrementalReport,
                 step: usize,
                 op: &str|
     -> Result<(), Box<IncrementalViolation>> {
        let reference = batch_reference(solver).map_err(|e| {
            Box::new(IncrementalViolation {
                config: *cfg,
                ops_seed,
                step,
                op: op.to_string(),
                kind: ViolationKind::ReferenceError(e),
            })
        })?;
        let diff = (solver.delta() - &reference).norm();
        report.max_diff = report.max_diff.max(diff);
        if diff > tol {
            return Err(Box::new(IncrementalViolation {
                config: *cfg,
                ops_seed,
                step,
                op: op.to_string(),
                kind: ViolationKind::DeltaMismatch { diff, tol },
            }));
        }
        Ok(())
    };

    for &cut in &cuts {
        // Add the variables the chunk needs (id order, graph's initial
        // estimates), then feed the chunk.
        let chunk = factors[sent..cut].to_vec();
        let max_key = chunk
            .iter()
            .flat_map(|f| f.keys().iter().map(|v| v.0))
            .max()
            .unwrap_or(0);
        while added <= max_key {
            solver.add_variable(init.get(VarId(added)).clone());
            added += 1;
        }
        let op = format!("update factors {sent}..{cut}");
        solver.update(chunk).map_err(|e| {
            Box::new(IncrementalViolation {
                config: *cfg,
                ops_seed,
                step,
                op: op.clone(),
                kind: ViolationKind::SolverError(e.to_string()),
            })
        })?;
        sent = cut;
        report.updates += 1;
        check(&solver, &mut report, step, &op)?;
        step += 1;

        if rng.gen_range(0.0..1.0) < 0.5 {
            let op = "relinearize".to_string();
            solver.relinearize().map_err(|e| {
                Box::new(IncrementalViolation {
                    config: *cfg,
                    ops_seed,
                    step,
                    op: op.clone(),
                    kind: ViolationKind::SolverError(e.to_string()),
                })
            })?;
            report.relinearizations += 1;
            check(&solver, &mut report, step, &op)?;
            step += 1;
        }

        // Oldest-first marginalization of variables whose factors have
        // all streamed past, keeping a live window of at least three.
        while next_marg < added
            && last_ref[next_marg] < sent
            && added - next_marg > 3
            && rng.gen_range(0.0..1.0) < 0.5
        {
            let v = VarId(next_marg);
            next_marg += 1;
            let op = format!("marginalize {v}");
            solver.marginalize(v).map_err(|e| {
                Box::new(IncrementalViolation {
                    config: *cfg,
                    ops_seed,
                    step,
                    op: op.clone(),
                    kind: ViolationKind::SolverError(e.to_string()),
                })
            })?;
            report.marginalizations += 1;
            check(&solver, &mut report, step, &op)?;
            step += 1;
        }
    }

    report.cliques_reeliminated = solver.cliques_reeliminated();
    report.full_rebuilds = solver.full_rebuilds();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    #[test]
    fn boundaries_exist_for_every_family() {
        for family in Family::ALL {
            let cfg = GenConfig::new(family, 8, 0.4, 7);
            let g = generate(&cfg);
            let b = valid_boundaries(g.factors(), g.values());
            assert!(
                b.contains(&g.num_factors()),
                "{}: full graph must be a legal boundary",
                family.name()
            );
            assert!(!b.is_empty(), "{}", family.name());
        }
    }

    #[test]
    fn a_small_sequence_passes_each_family() {
        for family in Family::ALL {
            let cfg = GenConfig::new(family, 8, 0.4, 21);
            let rep = check_incremental(&cfg, 3, INCREMENTAL_TOL).unwrap_or_else(|v| panic!("{v}"));
            assert!(rep.updates >= 1, "{}", family.name());
        }
    }
}

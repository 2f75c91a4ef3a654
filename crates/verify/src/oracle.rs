//! Differential oracles: compiled pipeline vs analytic solver.
//!
//! A generated graph is pushed through both stacks and every intermediate
//! the two share is compared:
//!
//! 1. **Linearization** — per-factor whitened RHS and Jacobian blocks from
//!    the executed program registers vs [`FactorGraph::linearize`].
//! 2. **Elimination** — the per-variable conditional `(R, S…, d)` read
//!    back from each `QRD` register vs the solver's Bayes-net
//!    conditionals (rows sign-normalized: QR is unique up to row signs).
//! 3. **Solution** — the program's Δ vs back-substitution through the
//!    solver's Bayes net; the arena solve of a cached [`SolvePlan`] must
//!    equal that back-substitution bitwise, per-step stats included.

use orianna_compiler::{compile, execute, Op};
use orianna_graph::{natural_ordering, FactorGraph};
use orianna_math::{Mat, Vec64};
use orianna_solver::{eliminate, SolvePlan};

/// A structured oracle failure: which stage diverged and by how much.
#[derive(Debug, Clone)]
pub enum OracleFailure {
    /// The compiler rejected the graph.
    Compile(String),
    /// The functional simulator failed.
    Execute(String),
    /// The analytic solver failed.
    Solve(String),
    /// A compared quantity diverged beyond tolerance.
    Mismatch {
        /// Which comparison ("factor rhs", "conditional R", …).
        stage: &'static str,
        /// Index context (factor index, variable id, …).
        index: usize,
        /// Observed divergence.
        diff: f64,
        /// Allowed tolerance.
        tol: f64,
    },
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleFailure::Compile(e) => write!(f, "compile failed: {e}"),
            OracleFailure::Execute(e) => write!(f, "execute failed: {e}"),
            OracleFailure::Solve(e) => write!(f, "solver failed: {e}"),
            OracleFailure::Mismatch {
                stage,
                index,
                diff,
                tol,
            } => write!(
                f,
                "{stage} mismatch at {index}: diff {diff:.3e} > tol {tol:.3e}"
            ),
        }
    }
}

impl std::error::Error for OracleFailure {}

/// What the oracle compared, for sweep-level reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleReport {
    /// Factors whose RHS/Jacobians were compared.
    pub factors: usize,
    /// Conditionals whose `(R, S…, d)` were compared.
    pub conditionals: usize,
    /// Total Δ dimension compared.
    pub delta_dim: usize,
}

fn mismatch(stage: &'static str, index: usize, diff: f64, tol: f64) -> OracleFailure {
    OracleFailure::Mismatch {
        stage,
        index,
        diff,
        tol,
    }
}

/// Sign-normalizes conditional rows in place so each diagonal entry of
/// `R` is non-negative; `parents` blocks and `rhs` flip with their row.
/// QR factors are unique only up to a per-row sign.
fn normalize_rows(r: &mut Mat, parents: &mut [(orianna_graph::VarId, Mat)], rhs: &mut Vec64) {
    for d in 0..r.rows() {
        if r[(d, d)] < 0.0 {
            for c in 0..r.cols() {
                r[(d, c)] = -r[(d, c)];
            }
            for (_, s) in parents.iter_mut() {
                for c in 0..s.cols() {
                    s[(d, c)] = -s[(d, c)];
                }
            }
            rhs[d] = -rhs[d];
        }
    }
}

/// Runs the full differential oracle on one graph.
///
/// `tol` is interpreted relative to the magnitude of the compared block:
/// a block with norm `‖X‖` may diverge by at most `tol · (1 + ‖X‖)`,
/// which reads as absolute for O(1) quantities and relative for large
/// camera-intrinsics-scaled blocks.
///
/// # Errors
/// Returns the first [`OracleFailure`] encountered.
pub fn check_graph(g: &FactorGraph, tol: f64) -> Result<OracleReport, OracleFailure> {
    let ordering = natural_ordering(g);
    let prog = compile(g, &ordering).map_err(|e| OracleFailure::Compile(e.to_string()))?;
    let result = execute(&prog, g.values()).map_err(|e| OracleFailure::Execute(e.to_string()))?;
    let mut report = OracleReport::default();

    // 1. Linearization: per-factor whitened RHS and Jacobian blocks.
    let sys = g.linearize();
    for (fi, lf) in sys.factors.iter().enumerate() {
        let rhs = result
            .try_reg(prog.factor_rhs[fi])
            .map_err(|e| OracleFailure::Execute(e.to_string()))?;
        let mut diff: f64 = 0.0;
        for r in 0..lf.rhs.len() {
            diff = diff.max((rhs[(r, 0)] - lf.rhs[r]).abs());
        }
        let scale = 1.0 + lf.rhs.norm();
        if diff > tol * scale {
            return Err(mismatch("factor rhs", fi, diff, tol * scale));
        }
        for ((key, jreg), (key2, jblk)) in prog.factor_jacobians[fi]
            .iter()
            .zip(lf.keys.iter().zip(&lf.blocks))
        {
            if key != key2 {
                return Err(mismatch("factor key order", fi, f64::NAN, 0.0));
            }
            let jm = result
                .try_reg(*jreg)
                .map_err(|e| OracleFailure::Execute(e.to_string()))?;
            if jm.shape() != jblk.shape() {
                return Err(mismatch("factor jacobian shape", fi, f64::NAN, 0.0));
            }
            let jd = (&jm - jblk).max_abs();
            let jscale = 1.0 + jblk.norm();
            if jd > tol * jscale {
                return Err(mismatch("factor jacobian", fi, jd, tol * jscale));
            }
        }
        report.factors += 1;
    }

    // 2. Elimination: conditionals read back from the QRD registers.
    let (bn, stats) =
        eliminate(&sys, &ordering).map_err(|e| OracleFailure::Solve(e.to_string()))?;
    for (var, qrd_id) in &prog.elimination {
        let instr = prog
            .instrs
            .iter()
            .find(|i| i.id == *qrd_id)
            .ok_or_else(|| OracleFailure::Execute(format!("QRD {qrd_id} missing")))?;
        let (frontal_dim, seps) = match &instr.op {
            Op::Qrd {
                frontal_dim, seps, ..
            } => (*frontal_dim, seps.clone()),
            _ => return Err(OracleFailure::Execute(format!("{qrd_id} is not a QRD"))),
        };
        let r_full = result
            .try_reg(instr.dst)
            .map_err(|e| OracleFailure::Execute(e.to_string()))?;
        let dv = frontal_dim;
        let cols = dv + seps.iter().map(|(_, d)| d).sum::<usize>();
        let mut r_exec = r_full.block(0, 0, dv, dv);
        let mut parents_exec = Vec::with_capacity(seps.len());
        let mut off = dv;
        for (s, d) in &seps {
            parents_exec.push((*s, r_full.block(0, off, dv, *d)));
            off += d;
        }
        let mut d_exec = Vec64::zeros(dv);
        for r in 0..dv {
            d_exec[r] = r_full[(r, cols)];
        }
        normalize_rows(&mut r_exec, &mut parents_exec, &mut d_exec);

        let cond = bn
            .conditionals
            .iter()
            .find(|c| c.var == *var)
            .ok_or_else(|| OracleFailure::Solve(format!("no conditional for {var}")))?;
        let mut r_ref = cond.r.clone();
        let mut parents_ref = cond.parents.clone();
        let mut d_ref = cond.rhs.clone();
        normalize_rows(&mut r_ref, &mut parents_ref, &mut d_ref);

        let rscale = 1.0 + r_ref.norm();
        let rd = (&r_exec - &r_ref).max_abs();
        if rd > tol * rscale {
            return Err(mismatch("conditional R", var.0, rd, tol * rscale));
        }
        if parents_exec.len() != parents_ref.len() {
            return Err(mismatch("conditional parents", var.0, f64::NAN, 0.0));
        }
        for ((pv, ps), (qv, qs)) in parents_exec.iter().zip(&parents_ref) {
            if pv != qv {
                return Err(mismatch("conditional parent order", var.0, f64::NAN, 0.0));
            }
            let sd = (ps - qs).max_abs();
            let sscale = 1.0 + qs.norm();
            if sd > tol * sscale {
                return Err(mismatch("conditional S", var.0, sd, tol * sscale));
            }
        }
        let mut dd: f64 = 0.0;
        for r in 0..dv {
            dd = dd.max((d_exec[r] - d_ref[r]).abs());
        }
        let dscale = 1.0 + d_ref.norm();
        if dd > tol * dscale {
            return Err(mismatch("conditional d", var.0, dd, tol * dscale));
        }
        report.conditionals += 1;
    }

    // 3. Solution: program Δ vs Bayes-net back-substitution vs SolvePlan.
    let delta_ref = bn
        .back_substitute()
        .map_err(|e| OracleFailure::Solve(e.to_string()))?;
    let dscale = 1.0 + delta_ref.norm();
    let dd = (&result.delta - &delta_ref).norm();
    if dd > tol * dscale {
        return Err(mismatch("delta (eliminate)", 0, dd, tol * dscale));
    }
    // The arena solve reproduces `eliminate` bitwise: Δ and step stats.
    let plan = SolvePlan::for_system(&sys, ordering.as_slice())
        .map_err(|e| OracleFailure::Solve(e.to_string()))?;
    let mut ws = plan.workspace();
    let delta_plan = plan
        .solve_in(&sys, &mut ws)
        .map_err(|e| OracleFailure::Solve(e.to_string()))?;
    if delta_plan.as_slice() != delta_ref.as_slice() {
        let pd = (delta_plan - &delta_ref).norm();
        return Err(mismatch("delta (plan)", 0, pd, 0.0));
    }
    if ws.stats() != stats.shapes() {
        return Err(mismatch("plan stats", 0, f64::NAN, 0.0));
    }
    report.delta_dim = delta_ref.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Family, GenConfig};

    #[test]
    fn oracle_accepts_each_family() {
        for family in Family::ALL {
            let g = generate(&GenConfig::new(family, 5, 0.5, 7));
            let report = check_graph(&g, 1e-9).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert!(report.factors > 0);
            assert!(report.conditionals > 0);
            assert!(report.delta_dim > 0);
        }
    }

    #[test]
    fn oracle_reports_compile_failures() {
        use orianna_graph::CustomFactor;
        use orianna_math::Vec64;
        let mut g = FactorGraph::new();
        let x = g.add_vector(Vec64::from_slice(&[1.0]));
        g.add_factor(CustomFactor::new(vec![x], 1, 1.0, |vals, keys| {
            let v = vals.get(keys[0]).as_vector();
            Vec64::from_slice(&[v[0] * v[0]])
        }));
        assert!(matches!(
            check_graph(&g, 1e-9),
            Err(OracleFailure::Compile(_))
        ));
    }
}

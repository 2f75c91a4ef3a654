//! Post-codegen optimization passes over ORIANNA programs.
//!
//! The paper's compiler emits instructions factor-by-factor; like any
//! compiler backend, the raw stream contains work that later stages never
//! consume (e.g. derivative chains of a variable that the elimination
//! ordering resolves purely through other factors' blocks is impossible —
//! but packing/scaling helpers can become dead when factors share
//! sub-expressions). These passes shrink the stream without changing its
//! semantics:
//!
//! * [`dead_code_elimination`] — removes instructions whose results are
//!   unreachable from the program outputs (factor RHS/Jacobian registers
//!   and the solving-phase instructions),
//! * [`fold_constants`] — evaluates constant-only sub-chains (`Scale`/
//!   `Rt`/`Mm` of `Const` operands) at compile time, turning them into
//!   single `Const` loads,
//! * [`peephole`] — removes unit `Scale(1.0)` instructions.
//!
//! All passes preserve the executable semantics; the test-suite asserts
//! bit-identical results from the functional simulator before and after.

use crate::program::{Instruction, Op, Program, Reg};
use orianna_math::Mat;
use std::collections::{HashMap, HashSet};

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Instructions before the pass pipeline.
    pub before: usize,
    /// Instructions after.
    pub after: usize,
    /// Instructions removed as dead.
    pub dead_removed: usize,
    /// Constant chains folded.
    pub constants_folded: usize,
    /// Unit scales removed.
    pub peephole_removed: usize,
}

impl PassStats {
    /// Fraction of instructions removed.
    pub fn reduction(&self) -> f64 {
        if self.before == 0 {
            return 0.0;
        }
        1.0 - self.after as f64 / self.before as f64
    }
}

/// Runs the full pass pipeline (fold → peephole → DCE) and returns the
/// optimized program with statistics.
pub fn optimize(prog: &Program) -> (Program, PassStats) {
    let mut stats = PassStats {
        before: prog.instrs.len(),
        ..Default::default()
    };
    let (p1, folded) = fold_constants(prog);
    stats.constants_folded = folded;
    let (p2, peeped) = peephole(&p1);
    stats.peephole_removed = peeped;
    let (p3, dead) = dead_code_elimination(&p2);
    stats.dead_removed = dead;
    stats.after = p3.instrs.len();
    (p3, stats)
}

/// Registers the runtime actually reads: factor outputs plus everything
/// the solving phase touches.
fn live_roots(prog: &Program) -> HashSet<Reg> {
    let mut roots: HashSet<Reg> = HashSet::new();
    roots.extend(prog.factor_rhs.iter().copied());
    for jacs in &prog.factor_jacobians {
        roots.extend(jacs.iter().map(|(_, r)| *r));
    }
    for instr in &prog.instrs {
        if matches!(instr.op, Op::Qrd { .. } | Op::Bsub { .. }) {
            roots.insert(instr.dst);
            roots.extend(instr.srcs.iter().copied());
        }
    }
    roots
}

/// Removes instructions whose destinations are transitively unused.
/// Returns the cleaned program and the number of removed instructions.
pub fn dead_code_elimination(prog: &Program) -> (Program, usize) {
    let mut live: HashSet<Reg> = live_roots(prog);
    // Propagate liveness backwards (ids are topological).
    for instr in prog.instrs.iter().rev() {
        if live.contains(&instr.dst) {
            live.extend(instr.srcs.iter().copied());
        }
    }
    let mut out = clone_header(prog);
    let mut removed = 0;
    let mut id_map = HashMap::new();
    for instr in &prog.instrs {
        if live.contains(&instr.dst) {
            push_mapped(&mut out, instr, &mut id_map);
        } else {
            removed += 1;
        }
    }
    remap_qrd_deps(&mut out, &id_map);
    rebuild_indices(&mut out);
    (out, removed)
}

/// Folds chains whose operands are all compile-time constants.
pub fn fold_constants(prog: &Program) -> (Program, usize) {
    let mut const_val: HashMap<Reg, Mat> = HashMap::new();
    let mut out = clone_header(prog);
    let mut folded = 0;
    for instr in &prog.instrs {
        let all_const =
            !instr.srcs.is_empty() && instr.srcs.iter().all(|r| const_val.contains_key(r));
        let fold = if all_const {
            match &instr.op {
                Op::Scale(s) => Some(const_val[&instr.srcs[0]].scale(*s)),
                Op::Rt => Some(const_val[&instr.srcs[0]].transpose()),
                Op::Mm | Op::Rr => {
                    let a = &const_val[&instr.srcs[0]];
                    let b = &const_val[&instr.srcs[1]];
                    (a.cols() == b.rows()).then(|| a.mul_mat(b))
                }
                Op::Vp { sub } => {
                    let a = &const_val[&instr.srcs[0]];
                    let b = &const_val[&instr.srcs[1]];
                    (a.shape() == b.shape()).then(|| if *sub { a - b } else { a + b })
                }
                _ => None,
            }
        } else {
            None
        };
        match fold {
            Some(m) => {
                folded += 1;
                const_val.insert(instr.dst, m.clone());
                let dims = m.shape();
                push_clone(
                    &mut out,
                    &Instruction {
                        id: 0,
                        op: Op::Const(m),
                        dst: instr.dst,
                        srcs: vec![],
                        level: instr.level,
                        factor: instr.factor,
                        phase: instr.phase,
                        dims,
                    },
                );
            }
            None => {
                if let Op::Const(m) = &instr.op {
                    const_val.insert(instr.dst, m.clone());
                }
                push_clone(&mut out, instr);
            }
        }
    }
    rebuild_indices(&mut out);
    (out, folded)
}

/// Removes `Scale(1.0)` instructions, rewriting consumers to read the
/// source register directly.
pub fn peephole(prog: &Program) -> (Program, usize) {
    let mut alias: HashMap<Reg, Reg> = HashMap::new();
    let mut out = clone_header(prog);
    let mut removed = 0;
    let resolve = |alias: &HashMap<Reg, Reg>, mut r: Reg| {
        while let Some(&a) = alias.get(&r) {
            r = a;
        }
        r
    };
    let mut id_map = HashMap::new();
    for instr in &prog.instrs {
        if let Op::Scale(s) = instr.op {
            if s == 1.0 {
                let src = resolve(&alias, instr.srcs[0]);
                alias.insert(instr.dst, src);
                removed += 1;
                continue;
            }
        }
        let mut cloned = instr.clone();
        for r in &mut cloned.srcs {
            *r = resolve(&alias, *r);
        }
        if let Op::Qrd { gather, .. } = &mut cloned.op {
            for g in gather {
                g.rhs_reg = resolve(&alias, g.rhs_reg);
                for (_, r) in &mut g.key_regs {
                    *r = resolve(&alias, *r);
                }
            }
        }
        push_mapped(&mut out, &cloned, &mut id_map);
    }
    remap_qrd_deps(&mut out, &id_map);
    // Result registers may themselves be aliased.
    for r in &mut out.factor_rhs {
        *r = resolve(&alias, *r);
    }
    for jacs in &mut out.factor_jacobians {
        for (_, r) in jacs {
            *r = resolve(&alias, *r);
        }
    }
    rebuild_indices(&mut out);
    (out, removed)
}

fn clone_header(prog: &Program) -> Program {
    let mut out = Program::default();
    out.var_dims = prog.var_dims.clone();
    out.factor_rhs = prog.factor_rhs.clone();
    out.factor_jacobians = prog.factor_jacobians.clone();
    // Keep the register space identical (sparse but valid).
    for _ in 0..prog.num_regs() {
        out.fresh_reg();
    }
    out
}

fn push_clone(out: &mut Program, instr: &Instruction) {
    out.push_unchecked(instr.clone());
}

/// Pushes a clone and records the old→new instruction-id mapping (needed
/// to keep `Qrd::new_factor_deps` valid after renumbering).
fn push_mapped(out: &mut Program, instr: &Instruction, id_map: &mut HashMap<usize, usize>) {
    let new_id = out.instrs.len();
    id_map.insert(instr.id, new_id);
    out.push_unchecked(instr.clone());
}

/// Rewrites every `Qrd::new_factor_deps` through the id mapping.
fn remap_qrd_deps(out: &mut Program, id_map: &HashMap<usize, usize>) {
    for instr in &mut out.instrs {
        if let Op::Qrd {
            new_factor_deps, ..
        } = &mut instr.op
        {
            for d in new_factor_deps {
                *d = *id_map.get(d).expect("QRD dependency survived the pass");
            }
        }
    }
}

fn rebuild_indices(out: &mut Program) {
    out.elimination = out
        .instrs
        .iter()
        .filter_map(|i| match &i.op {
            Op::Qrd { frontal, .. } => Some((*frontal, i.id)),
            _ => None,
        })
        .collect();
    out.back_subs = out
        .instrs
        .iter()
        .filter_map(|i| match &i.op {
            Op::Bsub { var, .. } => Some((*var, i.id)),
            _ => None,
        })
        .collect();
}

/// Renders a program as a human-readable listing (one instruction per
/// line: `id: dst = OP srcs [phase, dims]`).
pub fn disassemble(prog: &Program) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for instr in &prog.instrs {
        let srcs: Vec<String> = instr.srcs.iter().map(|r| r.to_string()).collect();
        let phase = match instr.phase {
            crate::program::Phase::Construct => "C",
            crate::program::Phase::Eliminate => "E",
            crate::program::Phase::BackSub => "B",
        };
        writeln!(
            s,
            "{:>5}: {:<5} = {:<6} {:<24} [{} {}x{} L{}]",
            instr.id,
            instr.dst.to_string(),
            instr.op.mnemonic(),
            srcs.join(", "),
            phase,
            instr.dims.0,
            instr.dims.1,
            instr.level
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use crate::exec::execute;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, GpsFactor, PriorFactor};
    use orianna_lie::{Pose2, Pose3};

    fn sample_graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        let a = g.add_pose3(Pose3::from_parts([0.1, -0.2, 0.3], [1.0, 0.0, 2.0]));
        let b = g.add_pose3(Pose3::from_parts([0.0, 0.1, 0.2], [2.0, 0.5, 2.0]));
        g.add_factor(PriorFactor::pose3(a, Pose3::identity(), 0.1));
        g.add_factor(BetweenFactor::pose3(
            a,
            b,
            Pose3::from_parts([0.0, 0.0, 0.1], [1.0, 0.0, 0.0]),
            0.2,
        ));
        g.add_factor(GpsFactor::new(b, &[2.0, 0.4, 2.0], 0.5));
        g
    }

    #[test]
    fn optimization_preserves_semantics() {
        let g = sample_graph();
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let (opt, stats) = optimize(&prog);
        assert!(stats.after <= stats.before);
        let before = execute(&prog, g.values()).unwrap();
        let after = execute(&opt, g.values()).unwrap();
        assert!(
            (&before.delta - &after.delta).norm() < 1e-12,
            "optimized program diverged"
        );
    }

    #[test]
    fn dce_removes_nothing_from_minimal_program() {
        // Every instruction the codegen emits for this graph feeds the
        // solve; DCE must keep the program executable either way.
        let g = sample_graph();
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let (clean, _) = dead_code_elimination(&prog);
        assert!(execute(&clean, g.values()).is_ok());
    }

    #[test]
    fn constant_folding_reduces_pose2_programs() {
        // Pose2 priors involve RT of constant rotations → foldable.
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.4, 1.0, 2.0));
        g.add_factor(PriorFactor::pose2(a, Pose2::new(0.2, 0.5, 0.5), 0.1));
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let (folded, n) = fold_constants(&prog);
        assert!(n > 0, "expected at least one foldable constant chain");
        let before = execute(&prog, g.values()).unwrap();
        let after = execute(&folded, g.values()).unwrap();
        assert!((&before.delta - &after.delta).norm() < 1e-12);
    }

    #[test]
    fn disassembly_lists_every_instruction() {
        let g = sample_graph();
        let prog = compile(&g, &natural_ordering(&g)).unwrap();
        let text = disassemble(&prog);
        assert_eq!(text.lines().count(), prog.instrs.len());
        assert!(text.contains("QRD"));
        assert!(text.contains("BSUB"));
        assert!(text.contains("EXP"));
    }

    #[test]
    fn pass_stats_reduction() {
        let s = PassStats {
            before: 100,
            after: 80,
            ..Default::default()
        };
        assert!((s.reduction() - 0.2).abs() < 1e-12);
    }
}

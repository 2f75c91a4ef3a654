//! Functional (ISA-level) simulator for compiled ORIANNA programs.
//!
//! Executes the instruction stream over a register file of small
//! matrices, given the current variable estimates as state memory. This is
//! the *behavioral* model of the accelerator: the cycle-level model in
//! `orianna-hw` schedules the same instructions in time, while this module
//! defines what each instruction computes.
//!
//! Like the accelerator's on-chip buffers, the register file is one flat
//! `f64` arena sized before the first instruction runs: every instruction
//! owns a row-major slot of its output shape (its `dims`, except `Bsub`,
//! whose output is the `dv × 1` solution segment) and writes it in place.
//! `Qrd` gathers straight into its slot and triangularizes there; a later
//! `Qrd` reads the new factor rows out of that slot, and `Bsub` reads
//! `R`, `S` and `d` from it. Slots are never shared, so every register
//! stays readable after the run.
//!
//! The key correctness property of the whole compiler — asserted
//! extensively in tests — is that executing a compiled program yields
//! exactly the same whitened Jacobians, RHS, and solution Δ as the
//! analytic reference solver in `orianna-solver`.

use crate::program::{Instruction, Op, Program, Reg, VarComp};
use orianna_graph::{Values, VarId, Variable};
use orianna_lie::{so3, Rot2, Rot3};
use orianna_math::{macs, panel, Mat, Vec64};

/// Execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An instruction read a register that was never written.
    UnwrittenRegister(Reg),
    /// A diagonal block was singular during elimination/back-substitution.
    Singular(VarId),
    /// Malformed operand shapes at runtime.
    Shape(String),
    /// A `QRD` gathered the new factor of an earlier `QRD` (by instruction
    /// id) that never produced one.
    MissingNewFactor(usize),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnwrittenRegister(r) => write!(f, "read of unwritten register {r}"),
            ExecError::Singular(v) => write!(f, "singular elimination block for {v}"),
            ExecError::Shape(s) => write!(f, "shape error: {s}"),
            ExecError::MissingNewFactor(id) => {
                write!(f, "QRD instruction {id} produced no new factor to gather")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Where a written register lives: a row-major `rows × cols` block at
/// `off` in the arena, written by the instruction at position `by`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: usize,
    rows: usize,
    cols: usize,
    by: usize,
}

/// Result of executing a program.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The stacked solution Δ (same layout as the solver's).
    pub delta: Vec64,
    /// Every instruction's output, back to back in program order.
    arena: Vec<f64>,
    /// Slot of each register's last write.
    slots: Vec<Option<Slot>>,
}

impl ExecResult {
    /// Value of a register, copied out of the register arena.
    ///
    /// # Panics
    /// Panics if the register was never written; use
    /// [`ExecResult::try_reg`] for a fallible lookup.
    pub fn reg(&self, r: Reg) -> Mat {
        self.try_reg(r).expect("register written")
    }

    /// Value of a register, or [`ExecError::UnwrittenRegister`].
    ///
    /// # Errors
    /// Returns [`ExecError::UnwrittenRegister`] when `r` is out of range
    /// or was never written during execution.
    pub fn try_reg(&self, r: Reg) -> Result<Mat, ExecError> {
        let v = Regs {
            slots: &self.slots,
            done: &self.arena,
        }
        .get(r)?;
        Ok(Mat::from_row_major(v.rows, v.cols, v.data))
    }
}

/// A register's value borrowed from the arena.
#[derive(Clone, Copy)]
struct View<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl View<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

/// Read access to the registers written so far: `done` is the arena
/// prefix before the running instruction's slot.
struct Regs<'a> {
    slots: &'a [Option<Slot>],
    done: &'a [f64],
}

impl<'a> Regs<'a> {
    fn slot(&self, r: Reg) -> Result<Slot, ExecError> {
        self.slots
            .get(r.0)
            .copied()
            .flatten()
            .ok_or(ExecError::UnwrittenRegister(r))
    }

    fn get(&self, r: Reg) -> Result<View<'a>, ExecError> {
        let s = self.slot(r)?;
        Ok(View {
            rows: s.rows,
            cols: s.cols,
            data: &self.done[s.off..s.off + s.rows * s.cols],
        })
    }
}

/// The new factor an executed `Qrd` left in its slot: rows `dv..dv + rows`
/// of `panel` over the separator columns and the RHS column.
struct NewFactor<'a> {
    panel: View<'a>,
    dv: usize,
    seps: &'a [(VarId, usize)],
    rows: usize,
}

/// Finds the new factor of the `Qrd` at position `dep`, which must have
/// run and kept its slot.
fn new_factor<'a>(
    prog: &'a Program,
    regs: &Regs<'a>,
    dep: usize,
) -> Result<NewFactor<'a>, ExecError> {
    let missing = || ExecError::MissingNewFactor(dep);
    let instr = prog.instrs.get(dep).ok_or_else(missing)?;
    let Op::Qrd {
        frontal_dim, seps, ..
    } = &instr.op
    else {
        return Err(missing());
    };
    let panel = match regs.slot(instr.dst) {
        Ok(s) if s.by == dep => regs.get(instr.dst)?,
        _ => return Err(missing()),
    };
    let sep_cols: usize = seps.iter().map(|(_, d)| d).sum();
    let rows = panel.rows.saturating_sub(*frontal_dim).min(sep_cols + 1);
    if seps.is_empty() || rows == 0 {
        return Err(missing());
    }
    Ok(NewFactor {
        panel,
        dv: *frontal_dim,
        seps,
        rows,
    })
}

/// The slot shape of an instruction's output: its `dims`, except `Bsub`,
/// whose `dims` count the parent columns for the latency model but whose
/// output is the `dv × 1` solution segment.
fn out_shape(instr: &Instruction) -> (usize, usize) {
    match instr.op {
        Op::Bsub { .. } => (instr.dims.0, 1),
        _ => instr.dims,
    }
}

/// Checks that an instruction's computed output shape fills its slot.
fn fits(
    instr: &Instruction,
    slot: (usize, usize),
    produced: (usize, usize),
) -> Result<(), ExecError> {
    if produced == slot {
        return Ok(());
    }
    Err(ExecError::Shape(format!(
        "instruction {} ({}) produced {produced:?}, expected {slot:?}",
        instr.id,
        instr.op.mnemonic(),
    )))
}

/// Executes `prog` against the given state estimates.
///
/// # Errors
/// Returns [`ExecError`] on unwritten registers, singular eliminations, or
/// shape violations.
pub fn execute(prog: &Program, values: &Values) -> Result<ExecResult, ExecError> {
    // Layout: one slot per instruction in program order, so every source
    // slot lies in the arena prefix before the running instruction's.
    let mut total = 0;
    let mut max_rows = 1;
    for instr in &prog.instrs {
        let (rows, cols) = out_shape(instr);
        total += rows * cols;
        max_rows = max_rows.max(rows);
    }
    let mut arena = vec![0.0; total];
    let mut slots: Vec<Option<Slot>> = vec![None; prog.num_regs()];
    // Householder scratch, shared by every QRD instruction.
    let mut vbuf = vec![0.0; max_rows];
    // Stacked Δ in variable-id order, and which segments are solved.
    let mut var_off = Vec::with_capacity(prog.var_dims.len());
    let mut acc = 0;
    for &d in &prog.var_dims {
        var_off.push(acc);
        acc += d;
    }
    let mut delta = Vec64::zeros(acc);
    let mut solved = vec![false; prog.var_dims.len()];

    let mut at = 0;
    for (pos, instr) in prog.instrs.iter().enumerate() {
        let shape = out_shape(instr);
        let (done, rest) = arena.split_at_mut(at);
        let out = &mut rest[..shape.0 * shape.1];
        let regs = Regs {
            slots: &slots,
            done,
        };
        let src = |i: usize| regs.get(instr.srcs[i]);
        match &instr.op {
            Op::Input { var, comp } => input_value(values, *var, *comp, instr, shape, out)?,
            Op::Const(m) => {
                fits(instr, shape, m.shape())?;
                out.copy_from_slice(m.as_slice());
            }
            Op::Exp => {
                let v = src(0)?;
                match v.rows {
                    1 => {
                        let r = Rot2::exp(v.at(0, 0)).matrix();
                        fits(instr, shape, (2, 2))?;
                        out.copy_from_slice(r.as_flattened());
                    }
                    3 => {
                        let r = Rot3::exp([v.at(0, 0), v.at(1, 0), v.at(2, 0)]).matrix();
                        fits(instr, shape, (3, 3))?;
                        out.copy_from_slice(r.as_flattened());
                    }
                    n => return Err(ExecError::Shape(format!("Exp of dim {n}"))),
                }
            }
            Op::Log => {
                let m = src(0)?;
                match m.rows {
                    2 => {
                        let r = Rot2::exp(m.at(1, 0).atan2(m.at(0, 0)));
                        fits(instr, shape, (1, 1))?;
                        out[0] = r.log();
                    }
                    3 => {
                        let r = Rot3::from_matrix([
                            [m.at(0, 0), m.at(0, 1), m.at(0, 2)],
                            [m.at(1, 0), m.at(1, 1), m.at(1, 2)],
                            [m.at(2, 0), m.at(2, 1), m.at(2, 2)],
                        ]);
                        fits(instr, shape, (3, 1))?;
                        out.copy_from_slice(&r.log());
                    }
                    n => return Err(ExecError::Shape(format!("Log of dim {n}"))),
                }
            }
            Op::Rt => {
                let a = src(0)?;
                fits(instr, shape, (a.cols, a.rows))?;
                for r in 0..a.rows {
                    for c in 0..a.cols {
                        out[c * a.rows + r] = a.at(r, c);
                    }
                }
            }
            Op::Rr | Op::Rv | Op::Mm => {
                let a = src(0)?;
                let b = src(1)?;
                if a.cols != b.rows {
                    let name = if matches!(instr.op, Op::Rv) {
                        "RV"
                    } else {
                        "MM"
                    };
                    return Err(ExecError::Shape(format!(
                        "{name} {}x{} * {}x{}",
                        a.rows, a.cols, b.rows, b.cols
                    )));
                }
                fits(instr, shape, (a.rows, b.cols))?;
                panel::matmul_into(out, a.data, b.data, a.rows, a.cols, b.cols);
                macs::record(a.rows * a.cols * b.cols);
            }
            Op::Vp { sub } => {
                let a = src(0)?;
                let b = src(1)?;
                if a.shape() != b.shape() {
                    return Err(ExecError::Shape("VP shape mismatch".into()));
                }
                fits(instr, shape, a.shape())?;
                for ((o, x), y) in out.iter_mut().zip(a.data).zip(b.data) {
                    *o = if *sub { x - y } else { x + y };
                }
                macs::record(out.len());
            }
            Op::Skew => {
                let v = src(0)?;
                match v.rows {
                    3 => {
                        let h = so3::hat([v.at(0, 0), v.at(1, 0), v.at(2, 0)]);
                        fits(instr, shape, (3, 3))?;
                        out.copy_from_slice(h.as_flattened());
                    }
                    2 => {
                        // 2D: J·v (a 2×1 vector) with the so(2) generator.
                        fits(instr, shape, (2, v.cols))?;
                        panel::matmul_into(out, &SO2_GENERATOR, v.data, 2, 2, v.cols);
                        macs::record(2 * 2 * v.cols);
                    }
                    n => return Err(ExecError::Shape(format!("Skew of dim {n}"))),
                }
            }
            Op::Jr | Op::JrInv => {
                let v = src(0)?;
                match v.rows {
                    3 => {
                        let phi = [v.at(0, 0), v.at(1, 0), v.at(2, 0)];
                        let j = if matches!(instr.op, Op::Jr) {
                            so3::right_jacobian_array(phi)
                        } else {
                            so3::right_jacobian_inv_array(phi)
                        };
                        fits(instr, shape, (3, 3))?;
                        out.copy_from_slice(j.as_flattened());
                    }
                    1 => {
                        fits(instr, shape, (1, 1))?;
                        out[0] = 1.0;
                    }
                    n => {
                        let name = if matches!(instr.op, Op::Jr) {
                            "Jr"
                        } else {
                            "JrInv"
                        };
                        return Err(ExecError::Shape(format!("{name} of dim {n}")));
                    }
                }
            }
            Op::Scale(s) => {
                let a = src(0)?;
                fits(instr, shape, a.shape())?;
                for (o, x) in out.iter_mut().zip(a.data) {
                    *o = x * s;
                }
                macs::record(out.len());
            }
            Op::Pack { horizontal } => pack(&regs, instr, *horizontal, shape, out)?,
            Op::Slice { start, len } => {
                let v = src(0)?;
                if v.cols == 0 || start + len > v.rows {
                    return Err(ExecError::Shape(format!(
                        "slice [{start}..{}] of {:?}",
                        start + len,
                        v.shape()
                    )));
                }
                fits(instr, shape, (*len, 1))?;
                for (i, o) in out.iter_mut().enumerate() {
                    *o = v.at(start + i, 0);
                }
            }
            Op::Proj { fx, fy, cx, cy } => {
                let p = src(0)?;
                let z = p.at(2, 0).max(1e-3);
                fits(instr, shape, (2, 1))?;
                out[0] = fx * p.at(0, 0) / z + cx;
                out[1] = fy * p.at(1, 0) / z + cy;
            }
            Op::ProjJac { fx, fy } => {
                let p = src(0)?;
                let z = p.at(2, 0).max(1e-3);
                fits(instr, shape, (2, 3))?;
                out.copy_from_slice(&[
                    fx / z,
                    0.0,
                    -fx * p.at(0, 0) / (z * z),
                    0.0,
                    fy / z,
                    -fy * p.at(1, 0) / (z * z),
                ]);
            }
            Op::Norm => {
                let v = src(0)?;
                fits(instr, shape, (1, 1))?;
                out[0] = v.data.iter().map(|x| x * x).sum::<f64>().sqrt();
            }
            Op::Hinge(c) => {
                let x = src(0)?.at(0, 0);
                fits(instr, shape, (1, 1))?;
                out[0] = (c - x).max(0.0);
            }
            Op::HingeJac(c) => {
                let v = src(0)?;
                let n = src(1)?.at(0, 0);
                let active = n < *c && n > 1e-9;
                fits(instr, shape, (1, v.rows))?;
                for (i, o) in out.iter_mut().enumerate() {
                    *o = if active { -v.at(i, 0) / n } else { 0.0 };
                }
            }
            Op::Qrd {
                frontal,
                frontal_dim,
                seps,
                gather,
                new_factor_deps,
                rows,
            } => {
                let dv = *frontal_dim;
                let sep_cols: usize = seps.iter().map(|(_, d)| d).sum();
                let cols = dv + sep_cols;
                let width = cols + 1;
                let mut total_rows = 0usize;
                for dep in new_factor_deps {
                    total_rows += new_factor(prog, &regs, *dep)?.rows;
                }
                for g in gather {
                    total_rows += regs.get(g.rhs_reg)?.data.len();
                }
                if total_rows != *rows {
                    return Err(ExecError::Shape(format!(
                        "QRD expected {rows} rows, gathered {total_rows}"
                    )));
                }
                fits(instr, shape, (total_rows, width))?;
                let col_of = |v: VarId| -> Result<usize, ExecError> {
                    if v == *frontal {
                        return Ok(0);
                    }
                    let mut off = dv;
                    for (s, d) in seps {
                        if *s == v {
                            return Ok(off);
                        }
                        off += d;
                    }
                    Err(ExecError::Shape(format!("variable {v} not in QRD columns")))
                };
                // Gather the operand registers straight into the slot:
                // original factors first, then the new factors of earlier
                // eliminations, each `[blocks | rhs]` row by row.
                let mut row = 0;
                for g in gather {
                    let rhs = regs.get(g.rhs_reg)?;
                    for (k, r) in &g.key_regs {
                        let blk = regs.get(*r)?;
                        let c0 = col_of(*k)?;
                        if row + blk.rows > total_rows || c0 + blk.cols > cols {
                            return Err(ExecError::Shape(format!(
                                "QRD block {:?} of {k} does not fit at ({row}, {c0})",
                                blk.shape()
                            )));
                        }
                        for r in 0..blk.rows {
                            out[(row + r) * width + c0..][..blk.cols]
                                .copy_from_slice(&blk.data[r * blk.cols..][..blk.cols]);
                        }
                    }
                    for (r, x) in rhs.data.iter().enumerate() {
                        out[(row + r) * width + cols] = *x;
                    }
                    row += rhs.data.len();
                }
                for dep in new_factor_deps {
                    let f = new_factor(prog, &regs, *dep)?;
                    let prhs = f.panel.cols - 1;
                    for r in 0..f.rows {
                        let prow = &f.panel.data[(f.dv + r) * f.panel.cols..][..f.panel.cols];
                        let orow = &mut out[(row + r) * width..][..width];
                        let mut off = f.dv;
                        for (s, d) in f.seps {
                            let c0 = col_of(*s)?;
                            orow[c0..c0 + d].copy_from_slice(&prow[off..off + d]);
                            off += d;
                        }
                        orow[cols] = prow[prhs];
                    }
                    row += f.rows;
                }
                if total_rows < dv {
                    return Err(ExecError::Singular(*frontal));
                }
                // In-place R-only triangularization: bitwise-identical to
                // `householder_qr(&abar).r` without accumulating Q.
                panel::triangularize(out, total_rows, width, &mut vbuf[..total_rows]);
                for d in 0..dv {
                    if out[d * width + d].abs() < 1e-12 {
                        return Err(ExecError::Singular(*frontal));
                    }
                }
            }
            Op::Bsub { var, .. } => {
                // The conditional `R Δ = d − Σ S Δ_parent` sits in the top
                // `dv` rows of the QRD slot this instruction reads first.
                let q = instr.srcs.first().ok_or(ExecError::Singular(*var))?;
                let qslot = regs.slot(*q)?;
                let Op::Qrd {
                    frontal,
                    frontal_dim: dv,
                    seps,
                    ..
                } = &prog.instrs[qslot.by].op
                else {
                    return Err(ExecError::Singular(*var));
                };
                if frontal != var {
                    return Err(ExecError::Singular(*var));
                }
                let (dv, p) = (*dv, regs.get(*q)?);
                fits(instr, shape, (dv, 1))?;
                // `out` accumulates `d − Σ S Δ_parent`, one parent at a time
                // like `rhs − S·Δ` on `Vec64`s (same sums, same MACs).
                let rhs_col = p.cols - 1;
                for (d, o) in out.iter_mut().enumerate() {
                    *o = p.at(d, rhs_col);
                }
                let mut col = dv;
                for (s, w) in seps {
                    if !solved[s.0] {
                        return Err(ExecError::Singular(*s));
                    }
                    let dp = &delta.as_slice()[var_off[s.0]..var_off[s.0] + w];
                    for (d, o) in out.iter_mut().enumerate() {
                        let srow = &p.data[d * p.cols + col..][..*w];
                        let mut acc = 0.0;
                        for (sv, x) in srow.iter().zip(dp) {
                            acc += sv * x;
                        }
                        *o -= acc;
                    }
                    macs::record(dv * w + dv);
                    col += w;
                }
                // Triangular solve of the dv×dv block, mirroring
                // `triangular::back_substitute` (`out` doubles as x).
                for i in (0..dv).rev() {
                    let mut acc = out[i];
                    for (j, x) in out.iter().enumerate().skip(i + 1) {
                        acc -= p.at(i, j) * x;
                    }
                    macs::record(dv - i);
                    let d = p.at(i, i);
                    if d.abs() < 1e-13 {
                        return Err(ExecError::Singular(*var));
                    }
                    out[i] = acc / d;
                }
                delta.as_mut_slice()[var_off[var.0]..var_off[var.0] + dv].copy_from_slice(out);
                solved[var.0] = true;
            }
        }
        slots[instr.dst.0] = Some(Slot {
            off: at,
            rows: shape.0,
            cols: shape.1,
            by: pos,
        });
        at += shape.0 * shape.1;
    }
    Ok(ExecResult {
        delta,
        arena,
        slots,
    })
}

/// The so(2) generator `J = [[0, −1], [1, 0]]` (`so2::generator`), row-major.
const SO2_GENERATOR: [f64; 4] = [0.0, -1.0, 1.0, 0.0];

fn input_value(
    values: &Values,
    var: VarId,
    comp: VarComp,
    instr: &Instruction,
    shape: (usize, usize),
    out: &mut [f64],
) -> Result<(), ExecError> {
    let fixed: [f64; 3];
    let data: &[f64] = match (values.get(var), comp) {
        (Variable::Pose2(p), VarComp::Phi) => {
            fixed = [p.theta(), 0.0, 0.0];
            &fixed[..1]
        }
        (Variable::Pose2(p), VarComp::Trans) => {
            let t = p.translation();
            fixed = [t[0], t[1], 0.0];
            &fixed[..2]
        }
        (Variable::Pose3(p), VarComp::Phi) => {
            fixed = p.phi();
            &fixed
        }
        (Variable::Pose3(p), VarComp::Trans) => {
            fixed = p.translation();
            &fixed
        }
        (Variable::Point2(p), VarComp::Full) => p,
        (Variable::Point3(p), VarComp::Full) => p,
        (Variable::Vector(v), VarComp::Full) => v.as_slice(),
        (v, c) => {
            return Err(ExecError::Shape(format!("invalid input {c:?} of {v:?}")));
        }
    };
    fits(instr, shape, (data.len(), 1))?;
    out.copy_from_slice(data);
    Ok(())
}

/// Concatenates the source registers into `out`, horizontally (`[A | B]`)
/// or vertically.
fn pack(
    regs: &Regs<'_>,
    instr: &Instruction,
    horizontal: bool,
    shape: (usize, usize),
    out: &mut [f64],
) -> Result<(), ExecError> {
    let Some(first) = instr.srcs.first() else {
        return Err(ExecError::Shape("empty pack".into()));
    };
    let first = regs.get(*first)?;
    let (mut rows, mut cols) = (0, 0);
    for r in &instr.srcs {
        let p = regs.get(*r)?;
        if horizontal {
            if p.rows != first.rows {
                return Err(ExecError::Shape("hpack row mismatch".into()));
            }
            (rows, cols) = (first.rows, cols + p.cols);
        } else {
            if p.cols != first.cols {
                return Err(ExecError::Shape("vpack col mismatch".into()));
            }
            (rows, cols) = (rows + p.rows, first.cols);
        }
    }
    fits(instr, shape, (rows, cols))?;
    let mut at = 0;
    for r in &instr.srcs {
        let p = regs.get(*r)?;
        if horizontal {
            for row in 0..rows {
                out[row * cols + at..][..p.cols].copy_from_slice(&p.data[row * p.cols..][..p.cols]);
            }
            at += p.cols;
        } else {
            out[at..at + p.data.len()].copy_from_slice(p.data);
            at += p.data.len();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instruction, Phase};

    fn instr(op: Op, dst: Reg, srcs: Vec<Reg>, dims: (usize, usize)) -> Instruction {
        Instruction {
            id: 0,
            op,
            dst,
            srcs,
            level: 0,
            factor: None,
            phase: Phase::Construct,
            dims,
        }
    }

    #[test]
    fn unwritten_register_is_reported() {
        let mut prog = Program::default();
        let a = prog.fresh_reg();
        let b = prog.fresh_reg();
        prog.push_unchecked(instr(Op::Rt, b, vec![a], (3, 3))); // a never written
        let err = execute(&prog, &Values::new()).unwrap_err();
        assert!(matches!(err, ExecError::UnwrittenRegister(r) if r == a));
    }

    #[test]
    fn shape_mismatch_in_vp_is_reported() {
        let mut prog = Program::default();
        let a = prog.fresh_reg();
        let b = prog.fresh_reg();
        let c = prog.fresh_reg();
        prog.push_unchecked(instr(Op::Const(Mat::zeros(3, 1)), a, vec![], (3, 1)));
        prog.push_unchecked(instr(Op::Const(Mat::zeros(2, 1)), b, vec![], (2, 1)));
        prog.push_unchecked(instr(Op::Vp { sub: false }, c, vec![a, b], (3, 1)));
        let err = execute(&prog, &Values::new()).unwrap_err();
        assert!(matches!(err, ExecError::Shape(_)), "{err:?}");
    }

    #[test]
    fn exp_of_bad_dimension_is_reported() {
        let mut prog = Program::default();
        let a = prog.fresh_reg();
        let b = prog.fresh_reg();
        prog.push_unchecked(instr(Op::Const(Mat::zeros(2, 1)), a, vec![], (2, 1)));
        prog.push_unchecked(instr(Op::Exp, b, vec![a], (2, 2)));
        let err = execute(&prog, &Values::new()).unwrap_err();
        assert!(matches!(err, ExecError::Shape(_)));
    }

    #[test]
    fn declared_dims_are_enforced() {
        // An instruction lying about its output dims is caught.
        let mut prog = Program::default();
        let a = prog.fresh_reg();
        prog.push_unchecked(instr(Op::Const(Mat::zeros(3, 1)), a, vec![], (4, 1)));
        let err = execute(&prog, &Values::new()).unwrap_err();
        assert!(matches!(err, ExecError::Shape(_)));
    }

    #[test]
    fn singular_qrd_is_reported() {
        use crate::program::GatherFactor;
        use orianna_graph::Variable;
        // One factor with a rank-deficient block over a 2-dim variable.
        let mut values = Values::new();
        let v = values.insert(Variable::Point2([0.0, 0.0]));
        let mut prog = Program::default();
        prog.var_dims = vec![2];
        let j = prog.fresh_reg();
        let rhs = prog.fresh_reg();
        let q = prog.fresh_reg();
        prog.push_unchecked(instr(
            Op::Const(Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]])),
            j,
            vec![],
            (2, 2),
        ));
        prog.push_unchecked(instr(Op::Const(Mat::zeros(2, 1)), rhs, vec![], (2, 1)));
        prog.push_unchecked(instr(
            Op::Qrd {
                frontal: v,
                frontal_dim: 2,
                seps: vec![],
                gather: vec![GatherFactor {
                    key_regs: vec![(v, j)],
                    rhs_reg: rhs,
                    rows: 2,
                }],
                new_factor_deps: vec![],
                rows: 2,
            },
            q,
            vec![j, rhs],
            (2, 3),
        ));
        let err = execute(&prog, &values).unwrap_err();
        assert!(matches!(err, ExecError::Singular(_)), "{err:?}");
    }
}

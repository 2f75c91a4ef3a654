//! The ORIANNA instruction set architecture.
//!
//! The compiler lowers factor-graph programs to a register-based stream of
//! *matrix instructions*. The primitive opcodes are exactly the paper's
//! Tbl. 3 (`VP`, `RT`, `Log`, `RR`, `RV`, `Exp`, `(·)^`, `Jr`, `Jr⁻¹`)
//! plus:
//!
//! * `Mm` — general small matrix–matrix multiply used by the backward
//!   derivative chains; executes on the same systolic-array unit as `RR`
//!   (the paper's footnote 1 notes that regular matrix–vector products
//!   reuse `RV`; general products reuse the same array),
//! * bookkeeping ops (`Input`, `Const`, `Pack`, `Scale`, `Slice`) that are
//!   memory/vector-lane operations,
//! * nonlinear sensor-model extensions (`Proj`, `Norm`, `Hinge`) executed
//!   by the special-function unit alongside `Exp`/`Log`,
//! * the solving-phase instructions `Qrd` (partial QR variable
//!   elimination, Fig. 5) and `Bsub` (back-substitution, Fig. 6).
//!
//! Every instruction names its destination and source registers; data
//! dependencies — and therefore the legal out-of-order schedules of
//! Sec. 6.3 — are exactly the register dependences.

use orianna_graph::VarId;
use orianna_math::Mat;

/// A virtual register holding a small matrix (vectors are `n×1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub usize);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Which component of a state variable an [`Op::Input`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarComp {
    /// The so(n) orientation vector of a pose.
    Phi,
    /// The translation vector of a pose.
    Trans,
    /// The whole flat vector of a vector/point variable.
    Full,
}

/// Pipeline phase an instruction belongs to (paper Fig. 12: the factor
/// computing block constructs the linear equations; the factor graph
/// inference block solves them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Linear-equation construction (errors + derivatives).
    Construct,
    /// Variable elimination (partial QR decompositions).
    Eliminate,
    /// Back-substitution.
    BackSub,
}

/// One original linearized factor gathered by a [`Op::Qrd`] elimination:
/// the registers holding its Jacobian blocks (key order) and its RHS.
#[derive(Debug, Clone)]
pub struct GatherFactor {
    /// `(variable, jacobian register)` pairs.
    pub key_regs: Vec<(VarId, Reg)>,
    /// Register of the whitened RHS (`−e`), an `m×1` value.
    pub rhs_reg: Reg,
    /// Row count of this factor.
    pub rows: usize,
}

/// Opcodes of the ORIANNA ISA.
#[derive(Debug, Clone)]
pub enum Op {
    /// Reads a component of state variable `var` from state memory.
    Input {
        /// The state variable to read.
        var: VarId,
        /// Which component.
        comp: VarComp,
    },
    /// Loads an immediate matrix.
    Const(Mat),
    /// `Exp`: so(n) vector → SO(n) matrix.
    Exp,
    /// `Log`: SO(n) matrix → so(n) vector.
    Log,
    /// `RT`: rotation transpose.
    Rt,
    /// `RR`: rotation–rotation product.
    Rr,
    /// `RV`: rotation–vector product.
    Rv,
    /// `VP`: vector add (`sub = false`) or subtract (`sub = true`).
    Vp {
        /// Subtract instead of add.
        sub: bool,
    },
    /// `(·)^`: skew-symmetric matrix of a 3-vector (or the 2D generator
    /// application `J` when the source is 1-dimensional).
    Skew,
    /// `Jr`: right Jacobian of an so(3) vector.
    Jr,
    /// `Jr⁻¹`: inverse right Jacobian.
    JrInv,
    /// General small matrix–matrix multiply (derivative chains); shares
    /// the systolic unit with `Rr`/`Rv`.
    Mm,
    /// Scales by an immediate (whitening `1/σ`, sign flips).
    Scale(f64),
    /// Concatenates sources vertically (error vectors) or horizontally
    /// (Jacobian blocks `[J_φ | J_t]`), a pure data-movement op.
    Pack {
        /// `true` = horizontal concatenation, `false` = vertical.
        horizontal: bool,
    },
    /// Extracts `len` rows starting at `start` from an `n×1` source.
    Slice {
        /// First row.
        start: usize,
        /// Row count.
        len: usize,
    },
    /// Pinhole projection of a 3×1 camera-frame point to pixel
    /// coordinates (special-function extension for camera factors).
    Proj {
        /// Focal x.
        fx: f64,
        /// Focal y.
        fy: f64,
        /// Principal x.
        cx: f64,
        /// Principal y.
        cy: f64,
    },
    /// Jacobian of [`Op::Proj`] at the source point (2×3).
    ProjJac {
        /// Focal x.
        fx: f64,
        /// Focal y.
        fy: f64,
    },
    /// Euclidean norm of an `n×1` source (1×1 result).
    Norm,
    /// `max(0, c − x)` hinge of a 1×1 source.
    Hinge(f64),
    /// Derivative selector of the hinge/norm chain: emits
    /// `−vᵀ/|v|` (1×n) when the hinge at `c` is active for `|v|`,
    /// zeros otherwise. Sources: `[v, |v|]`.
    HingeJac(f64),
    /// Partial-QR variable elimination (Fig. 5). Sources are every
    /// register in `gather` plus the results of `new_factor_deps`.
    Qrd {
        /// The frontal (eliminated) variable.
        frontal: VarId,
        /// Tangent dimension of the frontal variable.
        frontal_dim: usize,
        /// Separator variables with their dimensions, in column order.
        seps: Vec<(VarId, usize)>,
        /// Original linearized factors gathered here.
        gather: Vec<GatherFactor>,
        /// Ids of earlier `Qrd` instructions whose *new factors* this
        /// elimination also gathers.
        new_factor_deps: Vec<usize>,
        /// Total gathered rows.
        rows: usize,
    },
    /// Back-substitution of one variable (Fig. 6). Sources: the `Qrd`
    /// result of `var` and the `Bsub` results of `parents`.
    Bsub {
        /// The variable being solved.
        var: VarId,
        /// Parent variables whose solutions this step consumes.
        parents: Vec<VarId>,
    },
}

impl Op {
    /// Short mnemonic for traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "LD",
            Op::Const(_) => "LDI",
            Op::Exp => "EXP",
            Op::Log => "LOG",
            Op::Rt => "RT",
            Op::Rr => "RR",
            Op::Rv => "RV",
            Op::Vp { sub: false } => "VP+",
            Op::Vp { sub: true } => "VP-",
            Op::Skew => "SKEW",
            Op::Jr => "JR",
            Op::JrInv => "JRI",
            Op::Mm => "MM",
            Op::Scale(_) => "SCL",
            Op::Pack { .. } => "PACK",
            Op::Slice { .. } => "SLC",
            Op::Proj { .. } => "PROJ",
            Op::ProjJac { .. } => "PROJJ",
            Op::Norm => "NORM",
            Op::Hinge(_) => "HINGE",
            Op::HingeJac(_) => "HINGEJ",
            Op::Qrd { .. } => "QRD",
            Op::Bsub { .. } => "BSUB",
        }
    }

    /// The hardware functional-unit class that executes this opcode (used
    /// by the generator's resource allocation and the cycle simulator).
    pub fn unit_class(&self) -> UnitClass {
        match self {
            Op::Rr | Op::Rv | Op::Mm => UnitClass::MatMul,
            Op::Vp { .. } | Op::Scale(_) | Op::Pack { .. } | Op::Slice { .. } => UnitClass::Vector,
            Op::Exp
            | Op::Log
            | Op::Jr
            | Op::JrInv
            | Op::Skew
            | Op::Rt
            | Op::Proj { .. }
            | Op::ProjJac { .. }
            | Op::Norm
            | Op::Hinge(_)
            | Op::HingeJac(_) => UnitClass::Special,
            Op::Input { .. } | Op::Const(_) => UnitClass::Memory,
            Op::Qrd { .. } => UnitClass::Qr,
            Op::Bsub { .. } => UnitClass::BackSub,
        }
    }
}

/// Functional-unit classes of the generated accelerator (Sec. 6.1
/// templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitClass {
    /// Systolic-array matrix multiplier (`RR`/`RV`/`MM`).
    MatMul,
    /// Vector ALU (`VP`, scaling, packing).
    Vector,
    /// Special-function unit (`Exp`/`Log`/`Jr`/… CORDIC-class).
    Special,
    /// On-chip buffer / state memory port.
    Memory,
    /// Givens-rotation QR decomposition unit.
    Qr,
    /// Back-substitution unit.
    BackSub,
}

impl UnitClass {
    /// Number of unit classes (`ALL.len()`), for flat per-class arrays.
    pub const COUNT: usize = 6;

    /// All classes, in a stable order.
    pub const ALL: [UnitClass; Self::COUNT] = [
        UnitClass::MatMul,
        UnitClass::Vector,
        UnitClass::Special,
        UnitClass::Memory,
        UnitClass::Qr,
        UnitClass::BackSub,
    ];

    /// Dense index of this class: `ALL[c.index()] == c`. Schedulers use it
    /// to keep per-class state in flat arrays instead of keyed maps.
    pub const fn index(self) -> usize {
        match self {
            UnitClass::MatMul => 0,
            UnitClass::Vector => 1,
            UnitClass::Special => 2,
            UnitClass::Memory => 3,
            UnitClass::Qr => 4,
            UnitClass::BackSub => 5,
        }
    }
}

impl std::fmt::Display for UnitClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UnitClass::MatMul => "matmul",
            UnitClass::Vector => "vector",
            UnitClass::Special => "special",
            UnitClass::Memory => "memory",
            UnitClass::Qr => "qr",
            UnitClass::BackSub => "backsub",
        };
        f.write_str(s)
    }
}

/// One ORIANNA instruction.
#[derive(Debug, Clone)]
pub struct Instruction {
    /// Position in the program (program order).
    pub id: usize,
    /// Operation.
    pub op: Op,
    /// Destination register.
    pub dst: Reg,
    /// Source registers.
    pub srcs: Vec<Reg>,
    /// BFS level within the owning MO-DFG (paper Fig. 11: instructions on
    /// the same level are dependence-free and may issue in parallel).
    pub level: usize,
    /// Index of the owning factor, when applicable.
    pub factor: Option<usize>,
    /// Pipeline phase.
    pub phase: Phase,
    /// Output `(rows, cols)` — drives unit latency models.
    pub dims: (usize, usize),
}

/// Malformed-program errors raised by [`Program::push`] /
/// [`Program::validate`].
///
/// These are *structural* violations of the register machine — detectable
/// without executing the program — as opposed to the runtime failures of
/// [`crate::exec::ExecError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An instruction names a register that was never allocated with
    /// [`Program::fresh_reg`].
    UnallocatedRegister {
        /// Offending instruction id.
        instr: usize,
        /// The out-of-range register.
        reg: Reg,
    },
    /// An instruction reads a register before any earlier instruction
    /// writes it (use-before-def).
    UseBeforeDef {
        /// Offending instruction id.
        instr: usize,
        /// The undefined source register.
        reg: Reg,
    },
    /// An instruction's source count does not match its opcode.
    Arity {
        /// Offending instruction id.
        instr: usize,
        /// Opcode mnemonic.
        mnemonic: &'static str,
        /// Required source count.
        expected: usize,
        /// Actual source count.
        actual: usize,
    },
    /// Operand dimensions are incompatible with the opcode (e.g. an inner
    /// dimension mismatch of a matrix product), judged against the
    /// *declared* `dims` of the producing instructions.
    DimMismatch {
        /// Offending instruction id.
        instr: usize,
        /// Opcode mnemonic.
        mnemonic: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::UnallocatedRegister { instr, reg } => {
                write!(f, "instruction {instr}: unallocated register {reg}")
            }
            ProgramError::UseBeforeDef { instr, reg } => {
                write!(
                    f,
                    "instruction {instr}: register {reg} read before any write"
                )
            }
            ProgramError::Arity {
                instr,
                mnemonic,
                expected,
                actual,
            } => write!(
                f,
                "instruction {instr} ({mnemonic}): expected {expected} sources, got {actual}"
            ),
            ProgramError::DimMismatch {
                instr,
                mnemonic,
                detail,
            } => write!(f, "instruction {instr} ({mnemonic}): {detail}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A compiled ORIANNA program: the instruction stream plus the result
/// registers the runtime needs to locate errors, Jacobians and the
/// solution.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Instructions in program order.
    pub instrs: Vec<Instruction>,
    /// For each factor index: register of its whitened, packed RHS
    /// (`−e`, `m×1`).
    pub factor_rhs: Vec<Reg>,
    /// For each factor index: `(variable, register)` of each whitened,
    /// packed Jacobian block.
    pub factor_jacobians: Vec<Vec<(VarId, Reg)>>,
    /// `Qrd` instruction id per eliminated variable, in elimination order.
    pub elimination: Vec<(VarId, usize)>,
    /// `Bsub` instruction id per variable, in back-substitution order.
    pub back_subs: Vec<(VarId, usize)>,
    /// Tangent dimension per variable id.
    pub var_dims: Vec<usize>,
    next_reg: usize,
}

impl Program {
    /// Allocates a fresh register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Number of registers allocated.
    pub fn num_regs(&self) -> usize {
        self.next_reg
    }

    /// Appends an instruction after structural validation: every register
    /// must be allocated, every source must already be written by an
    /// earlier instruction, and operand dimensions must be compatible with
    /// the opcode (judged against the declared `dims` of the producers).
    /// Assigns the instruction id and returns it.
    ///
    /// # Errors
    /// Returns [`ProgramError`] without modifying the program when the
    /// instruction is malformed.
    pub fn push(&mut self, instr: Instruction) -> Result<usize, ProgramError> {
        let mut defined: Vec<Option<(usize, usize)>> = vec![None; self.num_regs()];
        for i in &self.instrs {
            if i.dst.0 < defined.len() {
                defined[i.dst.0] = Some(i.dims);
            }
        }
        check_instr(&instr, self.instrs.len(), &defined, &mut Vec::new())?;
        Ok(self.push_unchecked(instr))
    }

    /// Appends an instruction without validation, assigning its id;
    /// returns the id.
    ///
    /// The compiler's code generator emits instructions that are correct
    /// by construction (operands are produced by earlier nodes of a
    /// topologically-ordered MO-DFG) and runs one [`Program::validate`]
    /// pass over the finished stream instead of paying a per-push scan;
    /// tests also use this to build deliberately malformed programs.
    pub fn push_unchecked(&mut self, mut instr: Instruction) -> usize {
        instr.id = self.instrs.len();
        let id = instr.id;
        self.instrs.push(instr);
        id
    }

    /// Validates the whole instruction stream: register allocation,
    /// use-before-def, opcode arities, and operand-dimension consistency —
    /// the same checks [`Program::push`] applies incrementally.
    ///
    /// # Errors
    /// Returns the first [`ProgramError`] in program order.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let mut defined: Vec<Option<(usize, usize)>> = vec![None; self.num_regs()];
        let mut src_dims = Vec::new();
        for (id, instr) in self.instrs.iter().enumerate() {
            check_instr(instr, id, &defined, &mut src_dims)?;
            defined[instr.dst.0] = Some(instr.dims);
        }
        Ok(())
    }

    /// Count of instructions per unit class.
    pub fn histogram(&self) -> std::collections::BTreeMap<UnitClass, usize> {
        let mut h = std::collections::BTreeMap::new();
        for i in &self.instrs {
            *h.entry(i.op.unit_class()).or_insert(0) += 1;
        }
        h
    }

    /// Producer instruction id of every register (by scanning the stream).
    pub fn producers(&self) -> Vec<Option<usize>> {
        let mut prod = vec![None; self.num_regs()];
        for i in &self.instrs {
            prod[i.dst.0] = Some(i.id);
        }
        prod
    }
}

/// Structural checks of one instruction against the registers `defined`
/// (declared dims per register written so far). `src_dims` is scratch
/// for the sources' dims.
fn check_instr(
    instr: &Instruction,
    id: usize,
    defined: &[Option<(usize, usize)>],
    src_dims: &mut Vec<(usize, usize)>,
) -> Result<(), ProgramError> {
    let mnemonic = instr.op.mnemonic();
    if instr.dst.0 >= defined.len() {
        return Err(ProgramError::UnallocatedRegister {
            instr: id,
            reg: instr.dst,
        });
    }
    src_dims.clear();
    for &s in &instr.srcs {
        if s.0 >= defined.len() {
            return Err(ProgramError::UnallocatedRegister { instr: id, reg: s });
        }
        match defined[s.0] {
            Some(d) => src_dims.push(d),
            None => return Err(ProgramError::UseBeforeDef { instr: id, reg: s }),
        }
    }
    // Opcode arities. `Qrd`/`Bsub` have variable source lists assembled by
    // the elimination pass; `Pack` takes one or more.
    let expected = match instr.op {
        Op::Input { .. } | Op::Const(_) => Some(0),
        Op::Exp
        | Op::Log
        | Op::Rt
        | Op::Skew
        | Op::Jr
        | Op::JrInv
        | Op::Scale(_)
        | Op::Slice { .. }
        | Op::Proj { .. }
        | Op::ProjJac { .. }
        | Op::Norm
        | Op::Hinge(_) => Some(1),
        Op::Rr | Op::Rv | Op::Vp { .. } | Op::Mm | Op::HingeJac(_) => Some(2),
        Op::Pack { .. } | Op::Qrd { .. } | Op::Bsub { .. } => None,
    };
    if let Some(expected) = expected {
        if instr.srcs.len() != expected {
            return Err(ProgramError::Arity {
                instr: id,
                mnemonic,
                expected,
                actual: instr.srcs.len(),
            });
        }
    }
    let mismatch = |detail: String| ProgramError::DimMismatch {
        instr: id,
        mnemonic,
        detail,
    };
    let dims = instr.dims;
    match &instr.op {
        Op::Const(m) => {
            if m.shape() != dims {
                return Err(mismatch(format!(
                    "immediate is {:?}, declared {dims:?}",
                    m.shape()
                )));
            }
        }
        Op::Rr | Op::Rv | Op::Mm => {
            let (a, b) = (src_dims[0], src_dims[1]);
            if a.1 != b.0 {
                return Err(mismatch(format!("inner dimensions {a:?} × {b:?}")));
            }
            if dims != (a.0, b.1) {
                return Err(mismatch(format!(
                    "product of {a:?} × {b:?} declared as {dims:?}"
                )));
            }
        }
        Op::Vp { .. } => {
            let (a, b) = (src_dims[0], src_dims[1]);
            if a != b || dims != a {
                return Err(mismatch(format!("{a:?} ± {b:?} declared as {dims:?}")));
            }
        }
        Op::Rt => {
            let a = src_dims[0];
            if dims != (a.1, a.0) {
                return Err(mismatch(format!("transpose of {a:?} declared as {dims:?}")));
            }
        }
        Op::Scale(_) => {
            let a = src_dims[0];
            if dims != a {
                return Err(mismatch(format!("scale of {a:?} declared as {dims:?}")));
            }
        }
        Op::Exp => {
            let a = src_dims[0];
            let ok = (a == (1, 1) && dims == (2, 2)) || (a == (3, 1) && dims == (3, 3));
            if !ok {
                return Err(mismatch(format!("Exp of {a:?} declared as {dims:?}")));
            }
        }
        Op::Log => {
            let a = src_dims[0];
            let ok = (a == (2, 2) && dims == (1, 1)) || (a == (3, 3) && dims == (3, 1));
            if !ok {
                return Err(mismatch(format!("Log of {a:?} declared as {dims:?}")));
            }
        }
        Op::Skew => {
            let a = src_dims[0];
            let ok = (a == (3, 1) && dims == (3, 3)) || (a == (2, 1) && dims == (2, 1));
            if !ok {
                return Err(mismatch(format!("Skew of {a:?} declared as {dims:?}")));
            }
        }
        Op::Jr | Op::JrInv => {
            let a = src_dims[0];
            let ok = (a == (3, 1) && dims == (3, 3)) || (a == (1, 1) && dims == (1, 1));
            if !ok {
                return Err(mismatch(format!("Jr of {a:?} declared as {dims:?}")));
            }
        }
        Op::Pack { horizontal } => {
            if src_dims.is_empty() {
                return Err(ProgramError::Arity {
                    instr: id,
                    mnemonic,
                    expected: 1,
                    actual: 0,
                });
            }
            if *horizontal {
                let rows = src_dims[0].0;
                let cols: usize = src_dims.iter().map(|d| d.1).sum();
                if src_dims.iter().any(|d| d.0 != rows) || dims != (rows, cols) {
                    return Err(mismatch(format!(
                        "hpack of {src_dims:?} declared as {dims:?}"
                    )));
                }
            } else {
                let cols = src_dims[0].1;
                let rows: usize = src_dims.iter().map(|d| d.0).sum();
                if src_dims.iter().any(|d| d.1 != cols) || dims != (rows, cols) {
                    return Err(mismatch(format!(
                        "vpack of {src_dims:?} declared as {dims:?}"
                    )));
                }
            }
        }
        Op::Slice { start, len } => {
            let a = src_dims[0];
            if a.1 != 1 || start + len > a.0 || dims != (*len, 1) {
                return Err(mismatch(format!(
                    "slice [{start}..{}] of {a:?} declared as {dims:?}",
                    start + len
                )));
            }
        }
        Op::Proj { .. } => {
            if src_dims[0] != (3, 1) || dims != (2, 1) {
                return Err(mismatch(format!(
                    "projection of {:?} declared as {dims:?}",
                    src_dims[0]
                )));
            }
        }
        Op::ProjJac { .. } => {
            if src_dims[0] != (3, 1) || dims != (2, 3) {
                return Err(mismatch(format!(
                    "projection Jacobian of {:?} declared as {dims:?}",
                    src_dims[0]
                )));
            }
        }
        Op::Norm => {
            if src_dims[0].1 != 1 || dims != (1, 1) {
                return Err(mismatch(format!(
                    "norm of {:?} declared as {dims:?}",
                    src_dims[0]
                )));
            }
        }
        Op::Hinge(_) => {
            if src_dims[0] != (1, 1) || dims != (1, 1) {
                return Err(mismatch(format!(
                    "hinge of {:?} declared as {dims:?}",
                    src_dims[0]
                )));
            }
        }
        Op::HingeJac(_) => {
            let (v, n) = (src_dims[0], src_dims[1]);
            if v.1 != 1 || n != (1, 1) || dims != (1, v.0) {
                return Err(mismatch(format!(
                    "hinge Jacobian of {v:?}, {n:?} declared as {dims:?}"
                )));
            }
        }
        // `Qrd`/`Bsub` gather whole factor sets; their shapes are checked
        // numerically during execution.
        Op::Input { .. } | Op::Qrd { .. } | Op::Bsub { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_classes_cover_paper_primitives() {
        assert_eq!(Op::Rr.unit_class(), UnitClass::MatMul);
        assert_eq!(Op::Rv.unit_class(), UnitClass::MatMul);
        assert_eq!(Op::Vp { sub: true }.unit_class(), UnitClass::Vector);
        assert_eq!(Op::Exp.unit_class(), UnitClass::Special);
        assert_eq!(Op::Log.unit_class(), UnitClass::Special);
        assert_eq!(Op::Jr.unit_class(), UnitClass::Special);
        assert_eq!(Op::JrInv.unit_class(), UnitClass::Special);
        assert_eq!(Op::Skew.unit_class(), UnitClass::Special);
        assert_eq!(Op::Rt.unit_class(), UnitClass::Special);
    }

    #[test]
    fn program_register_allocation_is_monotonic() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        assert_ne!(a, b);
        assert_eq!(p.num_regs(), 2);
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut p = Program::default();
        let r = p.fresh_reg();
        let mk = |dst, srcs| Instruction {
            id: 0,
            op: Op::Const(Mat::zeros(1, 1)),
            dst,
            srcs,
            level: 0,
            factor: None,
            phase: Phase::Construct,
            dims: (1, 1),
        };
        assert_eq!(p.push(mk(r, vec![])).unwrap(), 0);
        let r2 = p.fresh_reg();
        assert_eq!(p.push(mk(r2, vec![])).unwrap(), 1);
        assert_eq!(p.producers()[r2.0], Some(1));
    }

    fn mk(op: Op, dst: Reg, srcs: Vec<Reg>, dims: (usize, usize)) -> Instruction {
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
    fn push_rejects_use_before_def() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        let err = p.push(mk(Op::Scale(2.0), b, vec![a], (1, 1))).unwrap_err();
        assert_eq!(err, ProgramError::UseBeforeDef { instr: 0, reg: a });
        // The rejected instruction was not appended.
        assert!(p.instrs.is_empty());
    }

    #[test]
    fn push_rejects_unallocated_register() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let err = p
            .push(mk(Op::Const(Mat::zeros(1, 1)), Reg(7), vec![], (1, 1)))
            .unwrap_err();
        assert_eq!(
            err,
            ProgramError::UnallocatedRegister {
                instr: 0,
                reg: Reg(7)
            }
        );
        let _ = a;
    }

    #[test]
    fn push_rejects_operand_dim_mismatch() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        let c = p.fresh_reg();
        p.push(mk(Op::Const(Mat::zeros(2, 3)), a, vec![], (2, 3)))
            .unwrap();
        p.push(mk(Op::Const(Mat::zeros(2, 1)), b, vec![], (2, 1)))
            .unwrap();
        // Inner dimensions 3 vs 2 are incompatible.
        let err = p.push(mk(Op::Mm, c, vec![a, b], (2, 1))).unwrap_err();
        assert!(
            matches!(err, ProgramError::DimMismatch { mnemonic: "MM", .. }),
            "{err:?}"
        );
        // Same shapes through the unchecked path are caught by validate().
        p.push_unchecked(mk(Op::Mm, c, vec![a, b], (2, 1)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn push_rejects_arity_violations() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        p.push(mk(Op::Const(Mat::zeros(1, 1)), a, vec![], (1, 1)))
            .unwrap();
        let err = p.push(mk(Op::Norm, b, vec![], (1, 1))).unwrap_err();
        assert!(
            matches!(err, ProgramError::Arity { expected: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn validate_accepts_wellformed_stream() {
        let mut p = Program::default();
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        let c = p.fresh_reg();
        p.push(mk(Op::Const(Mat::zeros(3, 1)), a, vec![], (3, 1)))
            .unwrap();
        p.push(mk(Op::Const(Mat::zeros(3, 1)), b, vec![], (3, 1)))
            .unwrap();
        p.push(mk(Op::Vp { sub: false }, c, vec![a, b], (3, 1)))
            .unwrap();
        assert!(p.validate().is_ok());
    }
}

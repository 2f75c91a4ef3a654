//! Instruction generation (paper Sec. 5.2).
//!
//! For every factor the compiler:
//! 1. performs a **forward traversal** of its MO-DFG, emitting one
//!    instruction per node (these compute the error / RHS `b`),
//! 2. performs **backward propagation**: tangent-space reverse-mode
//!    differentiation where every edge contributes a local-Jacobian chain
//!    term (the blue arrows of Fig. 10/11), emitting the instructions that
//!    compute the coefficient blocks of `A`,
//! 3. whitens and packs the results into per-factor RHS and Jacobian
//!    registers.
//!
//! A final graph-level pass walks the symbolic elimination schedule of
//! `orianna-graph` — the one the software solver's `SolvePlan` lays its
//! arena out from — and emits the `QRD`/`BSUB` instructions of the
//! solving phase (Fig. 5/6), with data dependences expressed through
//! registers so the hardware scheduler can reorder independent
//! eliminations (Sec. 6.3).

use crate::lower::{lower_factor, LowerError};
use crate::modfg::{CseKey, ModFg, NodeId, NodeOp, ShapeError, ValKind};
use crate::program::{GatherFactor, Instruction, Op, Phase, Program, ProgramError, Reg, VarComp};
use orianna_graph::{EliminationSchedule, FactorGraph, Ordering, VarId, Variable};
use orianna_math::Mat;
use std::collections::HashMap;

/// Compilation failures.
#[derive(Debug)]
pub enum CompileError {
    /// A factor could not be lowered to expressions.
    Lower {
        /// Index of the offending factor.
        factor: usize,
        /// Underlying lowering error.
        source: LowerError,
    },
    /// The MO-DFG was ill-shaped.
    Shape(ShapeError),
    /// A variable had no adjacent factor at elimination time.
    Unconstrained(VarId),
    /// An expression pattern has no backward rule.
    Unsupported(String),
    /// A factor addressed a component a variable does not have (e.g. the
    /// orientation of a vector variable).
    InvalidComponent {
        /// The offending variable.
        var: VarId,
        /// What was requested of it.
        what: &'static str,
    },
    /// A MO-DFG node was referenced before its value register existed —
    /// an internal consistency violation surfaced as an error.
    UnevaluatedNode(usize),
    /// The emitted instruction stream failed [`Program::validate`].
    Program(ProgramError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lower { factor, source } => {
                write!(f, "factor {factor}: {source}")
            }
            CompileError::Shape(e) => write!(f, "{e}"),
            CompileError::Unconstrained(v) => write!(f, "variable {v} unconstrained"),
            CompileError::Unsupported(s) => write!(f, "unsupported pattern: {s}"),
            CompileError::InvalidComponent { var, what } => {
                write!(f, "variable {var} has no {what} component")
            }
            CompileError::UnevaluatedNode(n) => {
                write!(f, "MO-DFG node {n} used before evaluation")
            }
            CompileError::Program(e) => write!(f, "malformed instruction stream: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ShapeError> for CompileError {
    fn from(e: ShapeError) -> Self {
        CompileError::Shape(e)
    }
}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Program(e)
    }
}

/// Value register of an already-evaluated MO-DFG node.
fn reg_of(val: &[Option<Reg>], id: NodeId) -> Result<Reg, CompileError> {
    val.get(id.0)
        .copied()
        .flatten()
        .ok_or(CompileError::UnevaluatedNode(id.0))
}

/// Compiles a factor graph into an ORIANNA instruction stream: linear
/// equation construction for every factor, then elimination and
/// back-substitution in `ordering`.
///
/// # Errors
/// Returns [`CompileError`] for opaque factors, shape errors, or
/// unconstrained variables.
pub fn compile(graph: &FactorGraph, ordering: &Ordering) -> Result<Program, CompileError> {
    let mut cg = Codegen::new(graph);
    for (fi, factor) in graph.factors().iter().enumerate() {
        let lowered = lower_factor(&factor.kind(), factor.keys())
            .map_err(|source| CompileError::Lower { factor: fi, source })?;
        let mut dfg = ModFg::from_exprs(&lowered.roots, lowered.space_dim)?;
        // Resolve vector-variable dimensions from the graph.
        for (v, _) in dfg.variable_leaves() {
            if let Variable::Vector(x) = graph.values().get(v) {
                dfg.set_vec_dim(v, x.len());
            } else if let Variable::Point2(_) = graph.values().get(v) {
                dfg.set_vec_dim(v, 2);
            } else if let Variable::Point3(_) = graph.values().get(v) {
                dfg.set_vec_dim(v, 3);
            }
        }
        cg.emit_factor(fi, &dfg, factor.keys(), factor.sigma())?;
    }
    cg.emit_elimination(ordering)?;
    // The generator emits correct-by-construction streams through the
    // unchecked path; prove it before handing the program out.
    cg.prog.validate()?;
    Ok(cg.prog)
}

/// Tangent dimension of a variable split into (rotation part, translation
/// part); vectors are (0, n).
fn split_dims(var: &Variable) -> (usize, usize) {
    match var {
        Variable::Pose2(_) => (1, 2),
        Variable::Pose3(_) => (3, 3),
        Variable::Point2(_) => (0, 2),
        Variable::Point3(_) => (0, 3),
        Variable::Vector(v) => (0, v.len()),
    }
}

/// Adjoint state during backward propagation: either the implicit
/// (possibly negated) identity, or a computed register.
#[derive(Debug, Clone, Copy)]
enum Adj {
    Ident(f64),
    Reg(Reg),
}

/// Local Jacobian of one DFG edge.
enum LocalJac {
    Ident,
    Neg,
    Reg(Reg),
}

struct Codegen<'g> {
    graph: &'g FactorGraph,
    prog: Program,
    /// Constant registers, keyed like MO-DFG constants (shape plus bits).
    const_cache: HashMap<CseKey, Reg>,
    input_cache: HashMap<(VarId, u8), Reg>,
    /// Rotation matrix `Exp(φ_v)` per pose variable, materialized once.
    rot_cache: HashMap<VarId, Reg>,
}

impl<'g> Codegen<'g> {
    fn new(graph: &'g FactorGraph) -> Self {
        let var_dims = graph.values().iter().map(|(_, v)| v.dim()).collect();
        let mut prog = Program::default();
        prog.var_dims = var_dims;
        prog.factor_rhs = Vec::new();
        prog.factor_jacobians = Vec::new();
        Self {
            graph,
            prog,
            const_cache: HashMap::new(),
            input_cache: HashMap::new(),
            rot_cache: HashMap::new(),
        }
    }

    fn instr(
        &mut self,
        op: Op,
        srcs: Vec<Reg>,
        level: usize,
        factor: Option<usize>,
        phase: Phase,
        dims: (usize, usize),
    ) -> Reg {
        let dst = self.prog.fresh_reg();
        self.prog.push_unchecked(Instruction {
            id: 0,
            op,
            dst,
            srcs,
            level,
            factor,
            phase,
            dims,
        });
        dst
    }

    fn const_reg(&mut self, m: Mat, factor: Option<usize>) -> Reg {
        let key = CseKey::new(NodeOp::Const(m), &[]);
        if let Some(&r) = self.const_cache.get(&key) {
            return r;
        }
        let m = key
            .matrix()
            .expect("a constant key holds its matrix")
            .clone();
        let dims = m.shape();
        let r = self.instr(Op::Const(m), vec![], 0, factor, Phase::Construct, dims);
        self.const_cache.insert(key, r);
        r
    }

    fn input_reg(
        &mut self,
        var: VarId,
        comp: VarComp,
        factor: Option<usize>,
    ) -> Result<Reg, CompileError> {
        let tag = match comp {
            VarComp::Phi => 0u8,
            VarComp::Trans => 1,
            VarComp::Full => 2,
        };
        if let Some(&r) = self.input_cache.get(&(var, tag)) {
            return Ok(r);
        }
        let dims = match (self.graph.values().get(var), comp) {
            (Variable::Pose2(_), VarComp::Phi) => (1, 1),
            (Variable::Pose2(_), VarComp::Trans) => (2, 1),
            (Variable::Pose3(_), VarComp::Phi) => (3, 1),
            (Variable::Pose3(_), VarComp::Trans) => (3, 1),
            (v, VarComp::Full) => (v.dim(), 1),
            (_, VarComp::Phi) => {
                return Err(CompileError::InvalidComponent {
                    var,
                    what: "orientation",
                })
            }
            (_, VarComp::Trans) => {
                return Err(CompileError::InvalidComponent {
                    var,
                    what: "translation",
                })
            }
        };
        let r = self.instr(
            Op::Input { var, comp },
            vec![],
            0,
            factor,
            Phase::Construct,
            dims,
        );
        self.input_cache.insert((var, tag), r);
        Ok(r)
    }

    /// Rotation matrix of a pose variable, shared across factors.
    fn rot_reg(&mut self, var: VarId, factor: Option<usize>) -> Result<Reg, CompileError> {
        if let Some(&r) = self.rot_cache.get(&var) {
            return Ok(r);
        }
        let n = match self.graph.values().get(var) {
            Variable::Pose2(_) => 2,
            Variable::Pose3(_) => 3,
            _ => {
                return Err(CompileError::InvalidComponent {
                    var,
                    what: "rotation",
                })
            }
        };
        let phi = self.input_reg(var, VarComp::Phi, factor)?;
        let r = self.instr(Op::Exp, vec![phi], 1, factor, Phase::Construct, (n, n));
        self.rot_cache.insert(var, r);
        Ok(r)
    }

    fn emit_factor(
        &mut self,
        fi: usize,
        dfg: &ModFg,
        keys: &[VarId],
        sigma: f64,
    ) -> Result<(), CompileError> {
        // ---- Forward traversal (error instructions) ----
        let mut val: Vec<Option<Reg>> = vec![None; dfg.len()];
        for (ni, node) in dfg.nodes().iter().enumerate() {
            let dims = node.kind.shape();
            let reg = match &node.op {
                NodeOp::InputPhi(v) => self.input_reg(*v, VarComp::Phi, Some(fi))?,
                NodeOp::InputTrans(v) => self.input_reg(*v, VarComp::Trans, Some(fi))?,
                NodeOp::InputVec(v) => self.input_reg(*v, VarComp::Full, Some(fi))?,
                NodeOp::Const(m) => self.const_reg(m.clone(), Some(fi)),
                NodeOp::Exp => {
                    // Exp of a pose orientation is shared across factors.
                    let arg = dfg.node(node.args[0]);
                    if let NodeOp::InputPhi(v) = arg.op {
                        self.rot_reg(v, Some(fi))?
                    } else {
                        let a = reg_of(&val, node.args[0])?;
                        self.instr(
                            Op::Exp,
                            vec![a],
                            node.level,
                            Some(fi),
                            Phase::Construct,
                            dims,
                        )
                    }
                }
                NodeOp::Log => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Log,
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Rt => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Rt,
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Rr => {
                    let a = reg_of(&val, node.args[0])?;
                    let b = reg_of(&val, node.args[1])?;
                    self.instr(
                        Op::Rr,
                        vec![a, b],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Rv => {
                    let a = reg_of(&val, node.args[0])?;
                    let b = reg_of(&val, node.args[1])?;
                    self.instr(
                        Op::Rv,
                        vec![a, b],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Add => {
                    let a = reg_of(&val, node.args[0])?;
                    let b = reg_of(&val, node.args[1])?;
                    self.instr(
                        Op::Vp { sub: false },
                        vec![a, b],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Sub => {
                    let a = reg_of(&val, node.args[0])?;
                    let b = reg_of(&val, node.args[1])?;
                    self.instr(
                        Op::Vp { sub: true },
                        vec![a, b],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::MatVec(m) => {
                    let c = self.const_reg(m.clone(), Some(fi));
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Mm,
                        vec![c, a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Proj { fx, fy, cx, cy } => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Proj {
                            fx: *fx,
                            fy: *fy,
                            cx: *cx,
                            cy: *cy,
                        },
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Norm => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Norm,
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Hinge(c) => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Hinge(*c),
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
                NodeOp::Slice { start, len } => {
                    let a = reg_of(&val, node.args[0])?;
                    self.instr(
                        Op::Slice {
                            start: *start,
                            len: *len,
                        },
                        vec![a],
                        node.level,
                        Some(fi),
                        Phase::Construct,
                        dims,
                    )
                }
            };
            val[ni] = Some(reg);
        }

        // ---- Backward propagation (derivative instructions) ----
        // Per root, per (variable, component) accumulated jacobian regs.
        // Component: 0 = phi, 1 = trans/vec.
        let roots = dfg.roots().to_vec();
        let mut per_root_jacs: Vec<HashMap<(VarId, u8), Reg>> = Vec::with_capacity(roots.len());
        let mut root_dims: Vec<usize> = Vec::with_capacity(roots.len());
        for &root in &roots {
            let m_k = match dfg.node(root).kind {
                ValKind::Vec(n) => n,
                ValKind::Rot(_) => {
                    return Err(CompileError::Unsupported(
                        "factor error roots must be vectors".into(),
                    ))
                }
            };
            root_dims.push(m_k);
            let jacs = self.backward(fi, dfg, root, m_k, &val)?;
            per_root_jacs.push(jacs);
        }

        // ---- Whiten & pack ----
        let w = 1.0 / sigma;
        let total_m: usize = root_dims.iter().sum();
        // Error vector: vertical pack of roots, then scale by −1/σ to form
        // the RHS b = −e/σ directly.
        let e_reg = if roots.len() == 1 {
            reg_of(&val, roots[0])?
        } else {
            let srcs = roots
                .iter()
                .map(|r| reg_of(&val, *r))
                .collect::<Result<Vec<_>, _>>()?;
            self.instr(
                Op::Pack { horizontal: false },
                srcs,
                dfg.depth() + 1,
                Some(fi),
                Phase::Construct,
                (total_m, 1),
            )
        };
        let rhs_reg = self.instr(
            Op::Scale(-w),
            vec![e_reg],
            dfg.depth() + 2,
            Some(fi),
            Phase::Construct,
            (total_m, 1),
        );
        self.prog.factor_rhs.push(rhs_reg);

        let mut jac_out: Vec<(VarId, Reg)> = Vec::with_capacity(keys.len());
        for &key in keys {
            let (dphi, dt) = split_dims(self.graph.values().get(key));
            let d = dphi + dt;
            // For each root: assemble the m_k × d block.
            let mut root_blocks: Vec<Reg> = Vec::with_capacity(roots.len());
            for (k, jacs) in per_root_jacs.iter().enumerate() {
                let m_k = root_dims[k];
                let phi_part = jacs.get(&(key, 0)).copied();
                let t_part = jacs.get(&(key, 1)).copied();
                let block = match (dphi, phi_part, t_part) {
                    (0, _, Some(t)) => t,
                    (0, _, None) => self.const_reg(Mat::zeros(m_k, d), Some(fi)),
                    (_, None, None) => self.const_reg(Mat::zeros(m_k, d), Some(fi)),
                    (_, p, t) => {
                        // usize::MAX is a zero placeholder resolved below.
                        let pr = p.unwrap_or(Reg(usize::MAX));
                        let pr = if pr.0 == usize::MAX {
                            self.const_reg(Mat::zeros(m_k, dphi), Some(fi))
                        } else {
                            pr
                        };
                        let tr = match t {
                            Some(t) => t,
                            None => self.const_reg(Mat::zeros(m_k, dt), Some(fi)),
                        };
                        self.instr(
                            Op::Pack { horizontal: true },
                            vec![pr, tr],
                            dfg.depth() + 1,
                            Some(fi),
                            Phase::Construct,
                            (m_k, d),
                        )
                    }
                };
                root_blocks.push(block);
            }
            let stacked = if root_blocks.len() == 1 {
                root_blocks[0]
            } else {
                self.instr(
                    Op::Pack { horizontal: false },
                    root_blocks,
                    dfg.depth() + 2,
                    Some(fi),
                    Phase::Construct,
                    (total_m, d),
                )
            };
            let white = self.instr(
                Op::Scale(w),
                vec![stacked],
                dfg.depth() + 3,
                Some(fi),
                Phase::Construct,
                (total_m, d),
            );
            jac_out.push((key, white));
        }
        self.prog.factor_jacobians.push(jac_out);
        Ok(())
    }

    /// Reverse-mode pass from one root; returns accumulated jacobian regs
    /// per (variable, component).
    fn backward(
        &mut self,
        fi: usize,
        dfg: &ModFg,
        root: NodeId,
        m_k: usize,
        val: &[Option<Reg>],
    ) -> Result<HashMap<(VarId, u8), Reg>, CompileError> {
        // Reachable set.
        let mut reach = vec![false; dfg.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if reach[n.0] {
                continue;
            }
            reach[n.0] = true;
            for a in &dfg.node(n).args {
                stack.push(*a);
            }
        }
        let mut adj: Vec<Option<Adj>> = vec![None; dfg.len()];
        adj[root.0] = Some(Adj::Ident(1.0));
        let mut leaf_jacs: HashMap<(VarId, u8), Reg> = HashMap::new();
        // Node ids are topological (args precede uses), so reverse id order
        // is a valid reverse-topological schedule.
        for ni in (0..dfg.len()).rev() {
            if !reach[ni] {
                continue;
            }
            let Some(a_state) = adj[ni] else { continue };
            let node = dfg.node(NodeId(ni));
            match &node.op {
                NodeOp::Const(_) => continue,
                NodeOp::InputPhi(v) => {
                    let r = self.materialize(a_state, m_k, node.kind.tangent_dim(), fi);
                    self.accumulate(&mut leaf_jacs, (*v, 0), r, m_k, fi);
                    continue;
                }
                NodeOp::InputTrans(v) => {
                    // δt enters through t ← t + R_v δt: chain with R_v.
                    let rv = self.rot_reg(*v, Some(fi))?;
                    let td = node.kind.tangent_dim();
                    let r = match a_state {
                        Adj::Ident(s) => {
                            if s == 1.0 {
                                rv
                            } else {
                                self.instr(
                                    Op::Scale(s),
                                    vec![rv],
                                    node.level,
                                    Some(fi),
                                    Phase::Construct,
                                    (td, td),
                                )
                            }
                        }
                        Adj::Reg(a) => self.instr(
                            Op::Mm,
                            vec![a, rv],
                            node.level,
                            Some(fi),
                            Phase::Construct,
                            (m_k, td),
                        ),
                    };
                    self.accumulate(&mut leaf_jacs, (*v, 1), r, m_k, fi);
                    continue;
                }
                NodeOp::InputVec(v) => {
                    let r = self.materialize(a_state, m_k, node.kind.tangent_dim(), fi);
                    self.accumulate(&mut leaf_jacs, (*v, 1), r, m_k, fi);
                    continue;
                }
                _ => {}
            }
            // Interior node: propagate to each argument.
            let locals = self.local_jacs(fi, dfg, NodeId(ni), val)?;
            for (arg, local) in node.args.iter().zip(locals) {
                let contrib =
                    self.combine(a_state, local, m_k, dfg.node(*arg).kind.tangent_dim(), fi);
                self.add_adj(&mut adj, dfg, *arg, contrib, m_k, fi);
            }
        }
        Ok(leaf_jacs)
    }

    /// Local Jacobians of a node w.r.t. each argument, emitting any
    /// instructions needed to compute them (the backward arrows of
    /// Fig. 10).
    fn local_jacs(
        &mut self,
        fi: usize,
        dfg: &ModFg,
        id: NodeId,
        val: &[Option<Reg>],
    ) -> Result<Vec<LocalJac>, CompileError> {
        let node = dfg.node(id);
        let lvl = node.level;
        let out = match &node.op {
            NodeOp::Exp => {
                let arg = dfg.node(node.args[0]);
                // A pose variable's tangent is the *right perturbation* of
                // its rotation (`R ← R·Exp(δφ)`, matching the retraction),
                // so Exp of an orientation leaf is the identity map onto
                // that tangent. Jr only appears when Exp is applied to a
                // *computed* so(3) expression.
                if matches!(arg.op, NodeOp::InputPhi(_)) {
                    return Ok(vec![LocalJac::Ident]);
                }
                match arg.kind {
                    ValKind::Vec(3) => {
                        let j = self.instr(
                            Op::Jr,
                            vec![reg_of(val, node.args[0])?],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (3, 3),
                        );
                        vec![LocalJac::Reg(j)]
                    }
                    _ => vec![LocalJac::Ident], // SO(2): Jr = 1
                }
            }
            NodeOp::Log => match node.kind {
                ValKind::Vec(3) => {
                    let j = self.instr(
                        Op::JrInv,
                        vec![reg_of(val, id)?],
                        lvl,
                        Some(fi),
                        Phase::Construct,
                        (3, 3),
                    );
                    vec![LocalJac::Reg(j)]
                }
                _ => vec![LocalJac::Ident],
            },
            NodeOp::Rt => match dfg.node(node.args[0]).kind {
                ValKind::Rot(3) => {
                    let neg = self.instr(
                        Op::Scale(-1.0),
                        vec![reg_of(val, node.args[0])?],
                        lvl,
                        Some(fi),
                        Phase::Construct,
                        (3, 3),
                    );
                    vec![LocalJac::Reg(neg)]
                }
                _ => vec![LocalJac::Neg],
            },
            NodeOp::Rr => match node.kind {
                ValKind::Rot(3) => {
                    let bt = self.instr(
                        Op::Rt,
                        vec![reg_of(val, node.args[1])?],
                        lvl,
                        Some(fi),
                        Phase::Construct,
                        (3, 3),
                    );
                    vec![LocalJac::Reg(bt), LocalJac::Ident]
                }
                _ => vec![LocalJac::Ident, LocalJac::Ident],
            },
            NodeOp::Rv => {
                let r_reg = reg_of(val, node.args[0])?;
                let v_reg = reg_of(val, node.args[1])?;
                match dfg.node(node.args[0]).kind {
                    ValKind::Rot(3) => {
                        let s = self.instr(
                            Op::Skew,
                            vec![v_reg],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (3, 3),
                        );
                        let rs = self.instr(
                            Op::Mm,
                            vec![r_reg, s],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (3, 3),
                        );
                        let neg = self.instr(
                            Op::Scale(-1.0),
                            vec![rs],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (3, 3),
                        );
                        vec![LocalJac::Reg(neg), LocalJac::Reg(r_reg)]
                    }
                    ValKind::Rot(2) => {
                        // d(Rv)/dθ = R J v (2×1).
                        let jv = self.instr(
                            Op::Skew,
                            vec![v_reg],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (2, 1),
                        );
                        let rjv = self.instr(
                            Op::Mm,
                            vec![r_reg, jv],
                            lvl,
                            Some(fi),
                            Phase::Construct,
                            (2, 1),
                        );
                        vec![LocalJac::Reg(rjv), LocalJac::Reg(r_reg)]
                    }
                    _ => {
                        return Err(CompileError::Unsupported("RV on non-rotation".into()));
                    }
                }
            }
            NodeOp::Add => vec![LocalJac::Ident, LocalJac::Ident],
            NodeOp::Sub => vec![LocalJac::Ident, LocalJac::Neg],
            NodeOp::MatVec(m) => {
                let c = self.const_reg(m.clone(), Some(fi));
                vec![LocalJac::Reg(c)]
            }
            NodeOp::Proj { fx, fy, .. } => {
                let j = self.instr(
                    Op::ProjJac { fx: *fx, fy: *fy },
                    vec![reg_of(val, node.args[0])?],
                    lvl,
                    Some(fi),
                    Phase::Construct,
                    (2, 3),
                );
                vec![LocalJac::Reg(j)]
            }
            NodeOp::Hinge(c) => {
                // Fused pattern: Hinge(Norm(u)).
                let arg = dfg.node(node.args[0]);
                if arg.op == NodeOp::Norm {
                    let u = arg.args[0];
                    let u_dim = match dfg.node(u).kind {
                        ValKind::Vec(n) => n,
                        _ => return Err(CompileError::Unsupported("Norm of non-vector".into())),
                    };
                    let j = self.instr(
                        Op::HingeJac(*c),
                        vec![reg_of(val, u)?, reg_of(val, node.args[0])?],
                        lvl,
                        Some(fi),
                        Phase::Construct,
                        (1, u_dim),
                    );
                    // The returned local skips the Norm node: the caller
                    // propagates to node.args[0] (the Norm), whose own
                    // rule below is Ident so the chain lands on u.
                    vec![LocalJac::Reg(j)]
                } else {
                    return Err(CompileError::Unsupported(
                        "Hinge is only differentiable in the Hinge(Norm(·)) pattern".into(),
                    ));
                }
            }
            NodeOp::Norm => {
                // Reached only under Hinge(Norm(·)): the fused HingeJac
                // already maps to the Norm argument's tangent, so the Norm
                // edge itself is the identity.
                vec![LocalJac::Ident]
            }
            NodeOp::Slice { start, len } => {
                let n = match dfg.node(node.args[0]).kind {
                    ValKind::Vec(n) => n,
                    _ => return Err(CompileError::Unsupported("Slice of non-vector".into())),
                };
                let mut sel = Mat::zeros(*len, n);
                for i in 0..*len {
                    sel[(i, start + i)] = 1.0;
                }
                let c = self.const_reg(sel, Some(fi));
                vec![LocalJac::Reg(c)]
            }
            NodeOp::InputPhi(_)
            | NodeOp::InputTrans(_)
            | NodeOp::InputVec(_)
            | NodeOp::Const(_) => vec![],
        };
        Ok(out)
    }

    /// Chains an adjoint with a local Jacobian.
    fn combine(&mut self, a: Adj, l: LocalJac, m_k: usize, in_dim: usize, fi: usize) -> Adj {
        match (a, l) {
            (Adj::Ident(s), LocalJac::Ident) => Adj::Ident(s),
            (Adj::Ident(s), LocalJac::Neg) => Adj::Ident(-s),
            (Adj::Ident(s), LocalJac::Reg(l)) => {
                if s == 1.0 {
                    Adj::Reg(l)
                } else {
                    let r = self.instr(
                        Op::Scale(s),
                        vec![l],
                        0,
                        Some(fi),
                        Phase::Construct,
                        (m_k, in_dim),
                    );
                    Adj::Reg(r)
                }
            }
            (Adj::Reg(a), LocalJac::Ident) => Adj::Reg(a),
            (Adj::Reg(a), LocalJac::Neg) => {
                let r = self.instr(
                    Op::Scale(-1.0),
                    vec![a],
                    0,
                    Some(fi),
                    Phase::Construct,
                    (m_k, in_dim),
                );
                Adj::Reg(r)
            }
            (Adj::Reg(a), LocalJac::Reg(l)) => {
                let r = self.instr(
                    Op::Mm,
                    vec![a, l],
                    0,
                    Some(fi),
                    Phase::Construct,
                    (m_k, in_dim),
                );
                Adj::Reg(r)
            }
        }
    }

    /// Accumulates a contribution into a node's adjoint (summing multiple
    /// paths with a `VP` add).
    fn add_adj(
        &mut self,
        adj: &mut [Option<Adj>],
        dfg: &ModFg,
        node: NodeId,
        contrib: Adj,
        m_k: usize,
        fi: usize,
    ) {
        let td = dfg.node(node).kind.tangent_dim();
        adj[node.0] = Some(match adj[node.0] {
            None => contrib,
            Some(existing) => {
                let a = self.materialize(existing, m_k, td, fi);
                let b = self.materialize(contrib, m_k, td, fi);
                let r = self.instr(
                    Op::Vp { sub: false },
                    vec![a, b],
                    0,
                    Some(fi),
                    Phase::Construct,
                    (m_k, td),
                );
                Adj::Reg(r)
            }
        });
    }

    /// Materializes an adjoint into a register (`±I` constants when it is
    /// still implicit).
    fn materialize(&mut self, a: Adj, m_k: usize, td: usize, fi: usize) -> Reg {
        match a {
            Adj::Reg(r) => r,
            Adj::Ident(s) => {
                debug_assert_eq!(m_k, td, "identity adjoint requires square shape");
                self.const_reg(Mat::identity(td).scale(s), Some(fi))
            }
        }
    }

    fn accumulate(
        &mut self,
        map: &mut HashMap<(VarId, u8), Reg>,
        key: (VarId, u8),
        reg: Reg,
        m_k: usize,
        fi: usize,
    ) {
        match map.get(&key) {
            None => {
                map.insert(key, reg);
            }
            Some(&prev) => {
                let dims = self
                    .prog
                    .instrs
                    .iter()
                    .rev()
                    .find(|i| i.dst == prev)
                    .map(|i| i.dims)
                    .unwrap_or((m_k, 1));
                let r = self.instr(
                    Op::Vp { sub: false },
                    vec![prev, reg],
                    0,
                    Some(fi),
                    Phase::Construct,
                    dims,
                );
                map.insert(key, r);
            }
        }
    }

    /// Emits the solving-phase instructions: QRD per variable in
    /// elimination order (Fig. 5) and BSUB in reverse (Fig. 6), walking
    /// the same [`EliminationSchedule`] the software solver plans with.
    /// A gathered slot below the base-factor count reads that factor's
    /// registers; any other slot is the QRD of the step that reserved it.
    fn emit_elimination(&mut self, ordering: &Ordering) -> Result<(), CompileError> {
        let mut schedule = EliminationSchedule::for_graph(self.graph);
        schedule
            .eliminate_all(ordering.as_slice())
            .map_err(|e| CompileError::Unconstrained(e.0))?;
        let var_dims = schedule.var_dims();
        // QRD instruction of each step, in elimination order.
        let mut qrds: Vec<usize> = Vec::with_capacity(schedule.steps().len());
        for step in schedule.steps() {
            let dv = var_dims[step.var.0];
            let mut gather: Vec<GatherFactor> = Vec::new();
            let mut new_deps: Vec<usize> = Vec::new();
            let mut srcs: Vec<Reg> = Vec::new();
            for &slot in &step.gather {
                match schedule.producer(slot) {
                    None => {
                        let key_regs: Vec<(VarId, Reg)> = self.prog.factor_jacobians[slot].clone();
                        let rhs_reg = self.prog.factor_rhs[slot];
                        srcs.extend(key_regs.iter().map(|(_, r)| *r));
                        srcs.push(rhs_reg);
                        gather.push(GatherFactor {
                            key_regs,
                            rhs_reg,
                            rows: schedule.slot_rows(slot),
                        });
                    }
                    Some(p) => {
                        new_deps.push(qrds[p]);
                        srcs.push(self.prog.instrs[qrds[p]].dst);
                    }
                }
            }
            let op = Op::Qrd {
                frontal: step.var,
                frontal_dim: dv,
                seps: step.seps.iter().map(|s| (*s, var_dims[s.0])).collect(),
                gather,
                new_factor_deps: new_deps,
                rows: step.rows,
            };
            let dst = self.prog.fresh_reg();
            let qid = self.prog.push_unchecked(Instruction {
                id: 0,
                op,
                dst,
                srcs,
                level: 0,
                factor: None,
                phase: Phase::Eliminate,
                dims: (step.rows, step.cols + 1),
            });
            qrds.push(qid);
            self.prog.elimination.push((step.var, qid));
        }

        // Back-substitution in reverse elimination order.
        let mut bsub_of_var: Vec<Option<usize>> = vec![None; var_dims.len()];
        for (step, &qid) in schedule.steps().iter().zip(&qrds).rev() {
            let parents = step.seps.clone();
            let mut srcs = vec![self.prog.instrs[qid].dst];
            for p in &parents {
                let bid = bsub_of_var[p.0].expect("separators are eliminated later");
                srcs.push(self.prog.instrs[bid].dst);
            }
            let dv = var_dims[step.var.0];
            // The back-substitution row length includes the parent blocks,
            // which drives the unit's latency model.
            let parent_width: usize = parents.iter().map(|p| var_dims[p.0]).sum();
            let dst = self.prog.fresh_reg();
            let bid = self.prog.push_unchecked(Instruction {
                id: 0,
                op: Op::Bsub {
                    var: step.var,
                    parents,
                },
                dst,
                srcs,
                level: 0,
                factor: None,
                phase: Phase::BackSub,
                dims: (dv, 1 + parent_width),
            });
            bsub_of_var[step.var.0] = Some(bid);
            self.prog.back_subs.push((step.var, bid));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_count(cg: &Codegen<'_>) -> usize {
        cg.prog
            .instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Const(_)))
            .count()
    }

    #[test]
    fn bit_equal_constants_share_one_register() {
        let g = FactorGraph::new();
        let mut cg = Codegen::new(&g);
        let a = cg.const_reg(Mat::from_row_major(2, 1, &[0.5, -3.25]), None);
        let b = cg.const_reg(Mat::from_row_major(2, 1, &[0.5, -3.25]), Some(1));
        assert_eq!(a, b);
        assert_eq!(const_count(&cg), 1);
    }

    #[test]
    fn constants_split_on_sign_of_zero_and_on_shape() {
        let g = FactorGraph::new();
        let mut cg = Codegen::new(&g);
        let pos = cg.const_reg(Mat::zeros(2, 1), None);
        let neg = cg.const_reg(Mat::from_row_major(2, 1, &[0.0, -0.0]), None);
        let wide = cg.const_reg(Mat::zeros(1, 2), None);
        assert_ne!(pos, neg, "0.0 and -0.0 differ in their bits");
        assert_ne!(pos, wide, "same bits, different shape");
        assert_eq!(const_count(&cg), 3);
        assert_eq!(cg.const_reg(Mat::zeros(2, 1), None), pos);
        assert_eq!(const_count(&cg), 3);
    }
}

//! Instruction generation (paper Sec. 5.2).
//!
//! For every distinct factor structure the compiler:
//! 1. performs a **forward traversal** of its MO-DFG, emitting one
//!    instruction per node (these compute the error / RHS `b`),
//! 2. performs **backward propagation**: tangent-space reverse-mode
//!    differentiation where every edge contributes a local-Jacobian chain
//!    term (the blue arrows of Fig. 10/11), emitting the instructions that
//!    compute the coefficient blocks of `A`,
//! 3. whitens and packs the results into per-factor RHS and Jacobian
//!    registers.
//!
//! These steps are recorded once per structure as an emission template,
//! with the factor's variables and numbers as slots. Every factor is then
//! emitted by replaying its structure's template through the program's
//! input, rotation and constant caches, which yields the registers a
//! fresh per-factor emission would (DESIGN.md §3.3).
//!
//! A final graph-level pass walks the symbolic elimination schedule of
//! `orianna-graph` — the one the software solver's `SolvePlan` lays its
//! arena out from — and emits the `QRD`/`BSUB` instructions of the
//! solving phase (Fig. 5/6), with data dependences expressed through
//! registers so the hardware scheduler can reorder independent
//! eliminations (Sec. 6.3).

use crate::lower::{FactorNumbers, Form, LowerError};
use crate::modfg::{same_bits, CseKey, ModFg, NodeId, NodeOp, ShapeError, ValKind};
use crate::program::{GatherFactor, Instruction, Op, Phase, Program, ProgramError, Reg, VarComp};
use orianna_graph::{EliminationSchedule, FactorGraph, Ordering, Values, VarId, Variable};
use orianna_math::Mat;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};

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

/// A value inside an emission template: the index of the [`Step`] that
/// defines it.
#[derive(Debug, Clone, Copy)]
struct Tid(usize);

/// Template value of an already-evaluated MO-DFG node.
fn tid_of(val: &[Option<Tid>], id: NodeId) -> Result<Tid, CompileError> {
    val.get(id.0)
        .copied()
        .flatten()
        .ok_or(CompileError::UnevaluatedNode(id.0))
}

/// Compiles a factor graph into an ORIANNA instruction stream: linear
/// equation construction for every factor, then elimination and
/// back-substitution in `ordering`.
///
/// Factors of one structure (their form, variable kinds and the shape
/// and bit-equality pattern of their numbers) emit one instruction
/// pattern. The first factor of each structure is lowered, built into a
/// MO-DFG and differentiated into an emission template; every factor,
/// that one too, is then emitted by replaying its structure's template.
///
/// # Errors
/// Returns [`CompileError`] for opaque factors, shape errors, or
/// unconstrained variables.
pub fn compile(graph: &FactorGraph, ordering: &Ordering) -> Result<Program, CompileError> {
    let values = graph.values();
    let mut cg = Codegen::new(graph);
    let mut templates: HashMap<StructureKey, Template> = HashMap::new();
    for (fi, factor) in graph.factors().iter().enumerate() {
        let keys = factor.keys();
        let lower_error = |source| CompileError::Lower { factor: fi, source };
        let nums = FactorNumbers::of(factor.kind()).map_err(lower_error)?;
        let template = match templates.entry(StructureKey::new(&nums, keys, values)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let lowered = nums.lower(keys).map_err(lower_error)?;
                nums.check_variables(keys, values).map_err(lower_error)?;
                let mut dfg = ModFg::from_exprs(&lowered.roots, lowered.space_dim)?;
                // Resolve vector-variable dimensions from the graph.
                for (v, _) in dfg.variable_leaves() {
                    if let Variable::Vector(x) = values.get(v) {
                        dfg.set_vec_dim(v, x.len());
                    } else if let Variable::Point2(_) = values.get(v) {
                        dfg.set_vec_dim(v, 2);
                    } else if let Variable::Point3(_) = values.get(v) {
                        dfg.set_vec_dim(v, 3);
                    }
                }
                e.insert(Recorder::record(&dfg, values, keys, &nums)?)
            }
        };
        cg.instantiate(template, fi, keys, nums, factor.sigma());
    }
    // Free the templates before elimination grows the program further,
    // so the program's reallocations can reuse their memory.
    drop(templates);
    cg.emit_elimination(ordering)?;
    // The generator emits correct-by-construction streams through the
    // unchecked path; prove it before handing the program out.
    cg.prog.validate()?;
    Ok(cg.prog)
}

/// Everything a factor's emission reads besides its variables' ids and
/// its numbers' values: the lowering form; per key, the variable kind,
/// its tangent dimension and the first key naming the same variable; and
/// the shapes and bit-equality pattern of the numbers. The MO-DFG's CSE
/// merges bit-equal constants and parameters, so that pattern decides the
/// graph's shape (two obstacles at one centre share a `Sub` and a
/// `Norm`). Factors with equal keys emit equal templates.
#[derive(PartialEq, Eq, Hash)]
struct StructureKey {
    form: Form,
    keys: Vec<(Discriminant<Variable>, usize, usize)>,
    mats: Vec<((usize, usize), usize)>,
    scalars: Vec<usize>,
}

impl StructureKey {
    fn new(nums: &FactorNumbers, keys: &[VarId], values: &Values) -> Self {
        Self {
            form: nums.form,
            keys: (0..keys.len())
                .map(|i| {
                    let var = values.get(keys[i]);
                    (
                        discriminant(var),
                        var.dim(),
                        first_equal(keys, i, |a, b| a == b),
                    )
                })
                .collect(),
            mats: (0..nums.mats.len())
                .map(|i| (nums.mats[i].shape(), first_equal(&nums.mats, i, same_bits)))
                .collect(),
            scalars: (0..nums.scalars.len())
                .map(|i| first_equal(&nums.scalars, i, |a, b| a.to_bits() == b.to_bits()))
                .collect(),
        }
    }
}

/// Index of the first item of `items` that `eq` matches with `items[i]`.
fn first_equal<T>(items: &[T], i: usize, eq: impl Fn(&T, &T) -> bool) -> usize {
    items
        .iter()
        .position(|x| eq(x, &items[i]))
        .expect("an item matches itself")
}

/// How an emission template produces one value. Every step but `Instr`
/// goes through `compile`'s caches, so values shared with earlier
/// factors (a pose's inputs and rotation, bit-equal constants) stay
/// shared.
#[derive(Debug)]
enum Step {
    /// Component `comp` of the factor's key `key`.
    Input {
        key: usize,
        comp: VarComp,
        dims: (usize, usize),
    },
    /// The `n × n` rotation matrix of the factor's pose key `key`.
    Rot { key: usize, n: usize },
    /// A structural constant (zeros, `±I` or a `Slice` selector), keyed
    /// for the constant cache.
    Fixed(CseKey),
    /// The instantiated factor's matrix payload `mats[slot]`.
    Payload(usize),
    /// A construction instruction over earlier values.
    Instr {
        op: TemplateOp,
        srcs: Vec<Tid>,
        level: usize,
        dims: (usize, usize),
    },
}

/// A template instruction's operation, the factor's numbers as slots.
#[derive(Debug)]
enum TemplateOp {
    /// An operation that reads none of the factor's numbers.
    Fixed(Op),
    /// `Proj` with intrinsics `scalars[slots]`.
    Proj([usize; 4]),
    /// `ProjJac` with focal lengths `scalars[slots]`.
    ProjJac([usize; 2]),
    /// `Hinge` at threshold `scalars[slot]`.
    Hinge(usize),
    /// `HingeJac` at threshold `scalars[slot]`.
    HingeJac(usize),
    /// `Scale(1/σ)` of a Jacobian, or `Scale(−1/σ)` of the error.
    Whiten { negate: bool },
}

/// One factor structure's construction instructions, recorded once per
/// `compile` call.
#[derive(Debug)]
struct Template {
    steps: Vec<Step>,
    /// The whitened RHS `b = −e/σ`.
    rhs: Tid,
    /// The whitened Jacobian block of each key, in key order.
    jacobians: Vec<Tid>,
}

/// Adjoint state during backward propagation: either the implicit
/// (possibly negated) identity, or a computed value.
#[derive(Debug, Clone, Copy)]
enum Adj {
    Ident(f64),
    Val(Tid),
}

/// Local Jacobian of one DFG edge.
enum LocalJac {
    Ident,
    Neg,
    Val(Tid),
}

/// Records the emission of one factor's MO-DFG as a [`Template`]: the
/// forward traversal, the backward propagation, whitening and packing
/// (module docs), with variables as key indices and the factor's numbers
/// as slots of its [`FactorNumbers`].
struct Recorder<'a> {
    values: &'a Values,
    keys: &'a [VarId],
    nums: &'a FactorNumbers,
    steps: Vec<Step>,
}

impl<'a> Recorder<'a> {
    fn record(
        dfg: &ModFg,
        values: &'a Values,
        keys: &'a [VarId],
        nums: &'a FactorNumbers,
    ) -> Result<Template, CompileError> {
        Self {
            values,
            keys,
            nums,
            steps: Vec::new(),
        }
        .emit_factor(dfg)
    }

    fn push(&mut self, step: Step) -> Tid {
        self.steps.push(step);
        Tid(self.steps.len() - 1)
    }

    /// A value read through one of `compile`'s caches. A repeated read
    /// within one factor always hits, so the template keeps the first.
    fn cached(&mut self, step: Step) -> Tid {
        let hit = self.steps.iter().position(|s| match (s, &step) {
            (
                Step::Input {
                    key: a, comp: c, ..
                },
                Step::Input {
                    key: b, comp: d, ..
                },
            ) => a == b && c == d,
            (Step::Rot { key: a, .. }, Step::Rot { key: b, .. }) => a == b,
            (Step::Fixed(a), Step::Fixed(b)) => a == b,
            (Step::Payload(a), Step::Payload(b)) => a == b,
            _ => false,
        });
        match hit {
            Some(i) => Tid(i),
            None => self.push(step),
        }
    }

    fn instr(&mut self, op: TemplateOp, srcs: Vec<Tid>, level: usize, dims: (usize, usize)) -> Tid {
        self.push(Step::Instr {
            op,
            srcs,
            level,
            dims,
        })
    }

    /// An instruction whose operation reads none of the factor's numbers.
    fn op(&mut self, op: Op, srcs: Vec<Tid>, level: usize, dims: (usize, usize)) -> Tid {
        self.instr(TemplateOp::Fixed(op), srcs, level, dims)
    }

    fn dims(&self, t: Tid) -> (usize, usize) {
        match &self.steps[t.0] {
            Step::Input { dims, .. } | Step::Instr { dims, .. } => *dims,
            Step::Rot { n, .. } => (*n, *n),
            Step::Fixed(key) => key.matrix().shape(),
            Step::Payload(slot) => self.nums.mats[*slot].shape(),
        }
    }

    /// Index of `var` among the factor's keys (its first occurrence).
    fn key_index(&self, var: VarId) -> usize {
        self.keys
            .iter()
            .position(|k| *k == var)
            .expect("MO-DFG inputs are factor keys")
    }

    /// Slot of a number the lowering read from `nums.scalars`.
    fn scalar(&self, x: f64) -> usize {
        self.nums
            .scalars
            .iter()
            .position(|y| y.to_bits() == x.to_bits())
            .expect("the lowering reads its scalars from the factor's numbers")
    }

    fn fixed(&mut self, m: Mat) -> Tid {
        self.cached(Step::Fixed(CseKey::constant(m)))
    }

    /// A matrix the lowering read from `nums.mats`.
    fn payload(&mut self, m: &Mat) -> Tid {
        let slot = self
            .nums
            .mats
            .iter()
            .position(|x| same_bits(x, m))
            .expect("the lowering reads its matrices from the factor's numbers");
        self.cached(Step::Payload(slot))
    }

    fn input(&mut self, var: VarId, comp: VarComp) -> Result<Tid, CompileError> {
        let dims = match (self.values.get(var), comp) {
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
        let key = self.key_index(var);
        Ok(self.cached(Step::Input { key, comp, dims }))
    }

    /// Rotation matrix of a pose variable, shared across factors.
    fn rot(&mut self, var: VarId) -> Result<Tid, CompileError> {
        let n = match self.values.get(var) {
            Variable::Pose2(_) => 2,
            Variable::Pose3(_) => 3,
            _ => {
                return Err(CompileError::InvalidComponent {
                    var,
                    what: "rotation",
                })
            }
        };
        let key = self.key_index(var);
        Ok(self.cached(Step::Rot { key, n }))
    }

    fn emit_factor(mut self, dfg: &ModFg) -> Result<Template, CompileError> {
        // ---- Forward traversal (error instructions) ----
        let mut val: Vec<Option<Tid>> = vec![None; dfg.len()];
        for (ni, node) in dfg.nodes().iter().enumerate() {
            let dims = node.kind.shape();
            let lvl = node.level;
            let arg = |i: usize| tid_of(&val, node.args[i]);
            let t = match &node.op {
                NodeOp::InputPhi(v) => self.input(*v, VarComp::Phi)?,
                NodeOp::InputTrans(v) => self.input(*v, VarComp::Trans)?,
                NodeOp::InputVec(v) => self.input(*v, VarComp::Full)?,
                NodeOp::Const(m) => self.payload(m),
                NodeOp::Exp => {
                    // Exp of a pose orientation is shared across factors.
                    if let NodeOp::InputPhi(v) = dfg.node(node.args[0]).op {
                        self.rot(v)?
                    } else {
                        self.op(Op::Exp, vec![arg(0)?], lvl, dims)
                    }
                }
                NodeOp::Log => self.op(Op::Log, vec![arg(0)?], lvl, dims),
                NodeOp::Rt => self.op(Op::Rt, vec![arg(0)?], lvl, dims),
                NodeOp::Rr => self.op(Op::Rr, vec![arg(0)?, arg(1)?], lvl, dims),
                NodeOp::Rv => self.op(Op::Rv, vec![arg(0)?, arg(1)?], lvl, dims),
                NodeOp::Add => self.op(Op::Vp { sub: false }, vec![arg(0)?, arg(1)?], lvl, dims),
                NodeOp::Sub => self.op(Op::Vp { sub: true }, vec![arg(0)?, arg(1)?], lvl, dims),
                NodeOp::MatVec(m) => {
                    let c = self.payload(m);
                    self.op(Op::Mm, vec![c, arg(0)?], lvl, dims)
                }
                NodeOp::Proj { fx, fy, cx, cy } => {
                    let slots = [*fx, *fy, *cx, *cy].map(|x| self.scalar(x));
                    self.instr(TemplateOp::Proj(slots), vec![arg(0)?], lvl, dims)
                }
                NodeOp::Norm => self.op(Op::Norm, vec![arg(0)?], lvl, dims),
                NodeOp::Hinge(c) => {
                    let slot = self.scalar(*c);
                    self.instr(TemplateOp::Hinge(slot), vec![arg(0)?], lvl, dims)
                }
                NodeOp::Slice { start, len } => self.op(
                    Op::Slice {
                        start: *start,
                        len: *len,
                    },
                    vec![arg(0)?],
                    lvl,
                    dims,
                ),
            };
            val[ni] = Some(t);
        }

        // ---- Backward propagation (derivative instructions) ----
        // Per root, per (variable, component) accumulated jacobian values.
        // Component: 0 = phi, 1 = trans/vec.
        let roots = dfg.roots();
        let mut per_root_jacs: Vec<HashMap<(VarId, u8), Tid>> = Vec::with_capacity(roots.len());
        let mut root_dims: Vec<usize> = Vec::with_capacity(roots.len());
        for &root in roots {
            let m_k = match dfg.node(root).kind {
                ValKind::Vec(n) => n,
                ValKind::Rot(_) => {
                    return Err(CompileError::Unsupported(
                        "factor error roots must be vectors".into(),
                    ))
                }
            };
            root_dims.push(m_k);
            let jacs = self.backward(dfg, root, m_k, &val)?;
            per_root_jacs.push(jacs);
        }

        // ---- Whiten & pack ----
        let total_m: usize = root_dims.iter().sum();
        // Error vector: vertical pack of roots, then scale by −1/σ to form
        // the RHS b = −e/σ directly.
        let e = if roots.len() == 1 {
            tid_of(&val, roots[0])?
        } else {
            let srcs = roots
                .iter()
                .map(|r| tid_of(&val, *r))
                .collect::<Result<Vec<_>, _>>()?;
            self.op(
                Op::Pack { horizontal: false },
                srcs,
                dfg.depth() + 1,
                (total_m, 1),
            )
        };
        let rhs = self.instr(
            TemplateOp::Whiten { negate: true },
            vec![e],
            dfg.depth() + 2,
            (total_m, 1),
        );

        let mut jacobians: Vec<Tid> = Vec::with_capacity(self.keys.len());
        for &key in self.keys {
            let (dphi, dt) = split_dims(self.values.get(key));
            let d = dphi + dt;
            // For each root: assemble the m_k × d block.
            let mut root_blocks: Vec<Tid> = Vec::with_capacity(roots.len());
            for (k, jacs) in per_root_jacs.iter().enumerate() {
                let m_k = root_dims[k];
                let phi_part = jacs.get(&(key, 0)).copied();
                let t_part = jacs.get(&(key, 1)).copied();
                let block = match (dphi, phi_part, t_part) {
                    (0, _, Some(t)) => t,
                    (0, _, None) | (_, None, None) => self.fixed(Mat::zeros(m_k, d)),
                    (_, p, t) => {
                        let pr = match p {
                            Some(p) => p,
                            None => self.fixed(Mat::zeros(m_k, dphi)),
                        };
                        let tr = match t {
                            Some(t) => t,
                            None => self.fixed(Mat::zeros(m_k, dt)),
                        };
                        self.op(
                            Op::Pack { horizontal: true },
                            vec![pr, tr],
                            dfg.depth() + 1,
                            (m_k, d),
                        )
                    }
                };
                root_blocks.push(block);
            }
            let stacked = if root_blocks.len() == 1 {
                root_blocks[0]
            } else {
                self.op(
                    Op::Pack { horizontal: false },
                    root_blocks,
                    dfg.depth() + 2,
                    (total_m, d),
                )
            };
            let white = self.instr(
                TemplateOp::Whiten { negate: false },
                vec![stacked],
                dfg.depth() + 3,
                (total_m, d),
            );
            jacobians.push(white);
        }
        Ok(Template {
            steps: self.steps,
            rhs,
            jacobians,
        })
    }

    /// Reverse-mode pass from one root; returns accumulated jacobian
    /// values per (variable, component).
    fn backward(
        &mut self,
        dfg: &ModFg,
        root: NodeId,
        m_k: usize,
        val: &[Option<Tid>],
    ) -> Result<HashMap<(VarId, u8), Tid>, CompileError> {
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
        let mut leaf_jacs: HashMap<(VarId, u8), Tid> = HashMap::new();
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
                    let r = self.materialize(a_state, m_k, node.kind.tangent_dim());
                    self.accumulate(&mut leaf_jacs, (*v, 0), r);
                    continue;
                }
                NodeOp::InputTrans(v) => {
                    // δt enters through t ← t + R_v δt: chain with R_v.
                    let rv = self.rot(*v)?;
                    let td = node.kind.tangent_dim();
                    let r = match a_state {
                        Adj::Ident(s) => {
                            if s == 1.0 {
                                rv
                            } else {
                                self.op(Op::Scale(s), vec![rv], node.level, (td, td))
                            }
                        }
                        Adj::Val(a) => self.op(Op::Mm, vec![a, rv], node.level, (m_k, td)),
                    };
                    self.accumulate(&mut leaf_jacs, (*v, 1), r);
                    continue;
                }
                NodeOp::InputVec(v) => {
                    let r = self.materialize(a_state, m_k, node.kind.tangent_dim());
                    self.accumulate(&mut leaf_jacs, (*v, 1), r);
                    continue;
                }
                _ => {}
            }
            // Interior node: propagate to each argument.
            let locals = self.local_jacs(dfg, NodeId(ni), val)?;
            for (arg, local) in node.args.iter().zip(locals) {
                let contrib = self.combine(a_state, local, m_k, dfg.node(*arg).kind.tangent_dim());
                self.add_adj(&mut adj, dfg, *arg, contrib, m_k);
            }
        }
        Ok(leaf_jacs)
    }

    /// Local Jacobians of a node w.r.t. each argument, emitting any
    /// instructions needed to compute them (the backward arrows of
    /// Fig. 10).
    fn local_jacs(
        &mut self,
        dfg: &ModFg,
        id: NodeId,
        val: &[Option<Tid>],
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
                        let j = self.op(Op::Jr, vec![tid_of(val, node.args[0])?], lvl, (3, 3));
                        vec![LocalJac::Val(j)]
                    }
                    _ => vec![LocalJac::Ident], // SO(2): Jr = 1
                }
            }
            NodeOp::Log => match node.kind {
                ValKind::Vec(3) => {
                    let j = self.op(Op::JrInv, vec![tid_of(val, id)?], lvl, (3, 3));
                    vec![LocalJac::Val(j)]
                }
                _ => vec![LocalJac::Ident],
            },
            NodeOp::Rt => match dfg.node(node.args[0]).kind {
                ValKind::Rot(3) => {
                    let neg = self.op(
                        Op::Scale(-1.0),
                        vec![tid_of(val, node.args[0])?],
                        lvl,
                        (3, 3),
                    );
                    vec![LocalJac::Val(neg)]
                }
                _ => vec![LocalJac::Neg],
            },
            NodeOp::Rr => match node.kind {
                ValKind::Rot(3) => {
                    let bt = self.op(Op::Rt, vec![tid_of(val, node.args[1])?], lvl, (3, 3));
                    vec![LocalJac::Val(bt), LocalJac::Ident]
                }
                _ => vec![LocalJac::Ident, LocalJac::Ident],
            },
            NodeOp::Rv => {
                let r = tid_of(val, node.args[0])?;
                let v = tid_of(val, node.args[1])?;
                match dfg.node(node.args[0]).kind {
                    ValKind::Rot(3) => {
                        let s = self.op(Op::Skew, vec![v], lvl, (3, 3));
                        let rs = self.op(Op::Mm, vec![r, s], lvl, (3, 3));
                        let neg = self.op(Op::Scale(-1.0), vec![rs], lvl, (3, 3));
                        vec![LocalJac::Val(neg), LocalJac::Val(r)]
                    }
                    ValKind::Rot(2) => {
                        // d(Rv)/dθ = R J v (2×1).
                        let jv = self.op(Op::Skew, vec![v], lvl, (2, 1));
                        let rjv = self.op(Op::Mm, vec![r, jv], lvl, (2, 1));
                        vec![LocalJac::Val(rjv), LocalJac::Val(r)]
                    }
                    _ => {
                        return Err(CompileError::Unsupported("RV on non-rotation".into()));
                    }
                }
            }
            NodeOp::Add => vec![LocalJac::Ident, LocalJac::Ident],
            NodeOp::Sub => vec![LocalJac::Ident, LocalJac::Neg],
            NodeOp::MatVec(m) => vec![LocalJac::Val(self.payload(m))],
            NodeOp::Proj { fx, fy, .. } => {
                let slots = [*fx, *fy].map(|x| self.scalar(x));
                let j = self.instr(
                    TemplateOp::ProjJac(slots),
                    vec![tid_of(val, node.args[0])?],
                    lvl,
                    (2, 3),
                );
                vec![LocalJac::Val(j)]
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
                    let slot = self.scalar(*c);
                    let j = self.instr(
                        TemplateOp::HingeJac(slot),
                        vec![tid_of(val, u)?, tid_of(val, node.args[0])?],
                        lvl,
                        (1, u_dim),
                    );
                    // The returned local skips the Norm node: the caller
                    // propagates to node.args[0] (the Norm), whose own
                    // rule below is Ident so the chain lands on u.
                    vec![LocalJac::Val(j)]
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
                vec![LocalJac::Val(self.fixed(sel))]
            }
            NodeOp::InputPhi(_)
            | NodeOp::InputTrans(_)
            | NodeOp::InputVec(_)
            | NodeOp::Const(_) => vec![],
        };
        Ok(out)
    }

    /// Chains an adjoint with a local Jacobian.
    fn combine(&mut self, a: Adj, l: LocalJac, m_k: usize, in_dim: usize) -> Adj {
        match (a, l) {
            (Adj::Ident(s), LocalJac::Ident) => Adj::Ident(s),
            (Adj::Ident(s), LocalJac::Neg) => Adj::Ident(-s),
            (Adj::Ident(s), LocalJac::Val(l)) => {
                if s == 1.0 {
                    Adj::Val(l)
                } else {
                    Adj::Val(self.op(Op::Scale(s), vec![l], 0, (m_k, in_dim)))
                }
            }
            (Adj::Val(a), LocalJac::Ident) => Adj::Val(a),
            (Adj::Val(a), LocalJac::Neg) => {
                Adj::Val(self.op(Op::Scale(-1.0), vec![a], 0, (m_k, in_dim)))
            }
            (Adj::Val(a), LocalJac::Val(l)) => {
                Adj::Val(self.op(Op::Mm, vec![a, l], 0, (m_k, in_dim)))
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
    ) {
        let td = dfg.node(node).kind.tangent_dim();
        adj[node.0] = Some(match adj[node.0] {
            None => contrib,
            Some(existing) => {
                let a = self.materialize(existing, m_k, td);
                let b = self.materialize(contrib, m_k, td);
                Adj::Val(self.op(Op::Vp { sub: false }, vec![a, b], 0, (m_k, td)))
            }
        });
    }

    /// Materializes an adjoint into a value (`±I` constants when it is
    /// still implicit).
    fn materialize(&mut self, a: Adj, m_k: usize, td: usize) -> Tid {
        match a {
            Adj::Val(t) => t,
            Adj::Ident(s) => {
                debug_assert_eq!(m_k, td, "identity adjoint requires square shape");
                self.fixed(Mat::identity(td).scale(s))
            }
        }
    }

    fn accumulate(&mut self, map: &mut HashMap<(VarId, u8), Tid>, key: (VarId, u8), t: Tid) {
        let sum = match map.get(&key) {
            None => t,
            Some(&prev) => {
                let dims = self.dims(prev);
                self.op(Op::Vp { sub: false }, vec![prev, t], 0, dims)
            }
        };
        map.insert(key, sum);
    }
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

struct Codegen<'g> {
    graph: &'g FactorGraph,
    prog: Program,
    /// Constant registers, keyed like MO-DFG constants (shape plus bits).
    const_cache: HashMap<CseKey, Reg>,
    /// Input register per variable id and [`VarComp`].
    input_cache: Vec<[Option<Reg>; 3]>,
    /// Rotation matrix `Exp(φ_v)` per pose variable id, materialized once.
    rot_cache: Vec<Option<Reg>>,
}

impl<'g> Codegen<'g> {
    fn new(graph: &'g FactorGraph) -> Self {
        let var_dims: Vec<usize> = graph.values().iter().map(|(_, v)| v.dim()).collect();
        let n = var_dims.len();
        let mut prog = Program::default();
        prog.var_dims = var_dims;
        prog.factor_rhs = Vec::new();
        prog.factor_jacobians = Vec::new();
        Self {
            graph,
            prog,
            const_cache: HashMap::new(),
            input_cache: vec![[None; 3]; n],
            rot_cache: vec![None; n],
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

    /// Register of the constant `key` (a [`CseKey::constant`]), loaded on
    /// first use.
    fn const_reg(&mut self, key: &CseKey, factor: Option<usize>) -> Reg {
        if let Some(&r) = self.const_cache.get(key) {
            return r;
        }
        let m = key.matrix().clone();
        let dims = m.shape();
        let r = self.instr(Op::Const(m), vec![], 0, factor, Phase::Construct, dims);
        self.const_cache.insert(key.clone(), r);
        r
    }

    fn input_reg(&mut self, var: VarId, comp: VarComp, dims: (usize, usize), fi: usize) -> Reg {
        let slot = match comp {
            VarComp::Phi => 0,
            VarComp::Trans => 1,
            VarComp::Full => 2,
        };
        if let Some(r) = self.input_cache[var.0][slot] {
            return r;
        }
        let r = self.instr(
            Op::Input { var, comp },
            vec![],
            0,
            Some(fi),
            Phase::Construct,
            dims,
        );
        self.input_cache[var.0][slot] = Some(r);
        r
    }

    /// Rotation matrix of an `n`-dimensional pose variable, shared across
    /// factors.
    fn rot_reg(&mut self, var: VarId, n: usize, fi: usize) -> Reg {
        if let Some(r) = self.rot_cache[var.0] {
            return r;
        }
        let phi = self.input_reg(var, VarComp::Phi, (n * (n - 1) / 2, 1), fi);
        let r = self.instr(Op::Exp, vec![phi], 1, Some(fi), Phase::Construct, (n, n));
        self.rot_cache[var.0] = Some(r);
        r
    }

    /// Emits factor `fi` by replaying its structure's template over its
    /// keys, numbers and σ. Every value goes through the caches in the
    /// order the template recorded it, so registers, sharing and fields
    /// come out as if the factor had been lowered and differentiated
    /// afresh.
    fn instantiate(
        &mut self,
        t: &Template,
        fi: usize,
        keys: &[VarId],
        mut nums: FactorNumbers,
        sigma: f64,
    ) {
        let w = 1.0 / sigma;
        let sc = &nums.scalars;
        let mut regs: Vec<Reg> = Vec::with_capacity(t.steps.len());
        for step in &t.steps {
            let r = match step {
                Step::Input { key, comp, dims } => self.input_reg(keys[*key], *comp, *dims, fi),
                Step::Rot { key, n } => self.rot_reg(keys[*key], *n, fi),
                Step::Fixed(key) => self.const_reg(key, Some(fi)),
                Step::Payload(slot) => {
                    // A template reads each payload slot once.
                    let m = std::mem::replace(&mut nums.mats[*slot], Mat::zeros(0, 0));
                    self.const_reg(&CseKey::constant(m), Some(fi))
                }
                Step::Instr {
                    op,
                    srcs,
                    level,
                    dims,
                } => {
                    let op = match *op {
                        TemplateOp::Fixed(ref op) => op.clone(),
                        TemplateOp::Proj([fx, fy, cx, cy]) => Op::Proj {
                            fx: sc[fx],
                            fy: sc[fy],
                            cx: sc[cx],
                            cy: sc[cy],
                        },
                        TemplateOp::ProjJac([fx, fy]) => Op::ProjJac {
                            fx: sc[fx],
                            fy: sc[fy],
                        },
                        TemplateOp::Hinge(c) => Op::Hinge(sc[c]),
                        TemplateOp::HingeJac(c) => Op::HingeJac(sc[c]),
                        TemplateOp::Whiten { negate: true } => Op::Scale(-w),
                        TemplateOp::Whiten { negate: false } => Op::Scale(w),
                    };
                    let srcs = srcs.iter().map(|s| regs[s.0]).collect();
                    self.instr(op, srcs, *level, Some(fi), Phase::Construct, *dims)
                }
            };
            regs.push(r);
        }
        self.prog.factor_rhs.push(regs[t.rhs.0]);
        self.prog.factor_jacobians.push(
            keys.iter()
                .zip(&t.jacobians)
                .map(|(k, j)| (*k, regs[j.0]))
                .collect(),
        );
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
        let m = Mat::from_row_major(2, 1, &[0.5, -3.25]);
        let a = cg.const_reg(&CseKey::constant(m.clone()), None);
        let b = cg.const_reg(&CseKey::constant(m), Some(1));
        assert_eq!(a, b);
        assert_eq!(const_count(&cg), 1);
    }

    #[test]
    fn constants_split_on_sign_of_zero_and_on_shape() {
        let g = FactorGraph::new();
        let mut cg = Codegen::new(&g);
        let key = CseKey::constant;
        let pos = cg.const_reg(&key(Mat::zeros(2, 1)), None);
        let neg = cg.const_reg(&key(Mat::from_row_major(2, 1, &[0.0, -0.0])), None);
        let wide = cg.const_reg(&key(Mat::zeros(1, 2)), None);
        assert_ne!(pos, neg, "0.0 and -0.0 differ in their bits");
        assert_ne!(pos, wide, "same bits, different shape");
        assert_eq!(const_count(&cg), 3);
        assert_eq!(cg.const_reg(&key(Mat::zeros(2, 1)), None), pos);
        assert_eq!(const_count(&cg), 3);
    }
}

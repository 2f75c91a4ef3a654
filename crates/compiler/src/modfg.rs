//! Factor error expressions and matrix-operation data-flow graphs
//! (MO-DFGs, paper Sec. 5.2).
//!
//! A factor's error function is written as an [`Expr`] tree over the
//! primitive operations of Tbl. 3 (plus the sensor-model extensions). The
//! compiler converts the tree to postfix, then parses the postfix with a
//! stack to build the [`ModFg`] — the exact pipeline the paper describes —
//! performing common-subexpression elimination along the way so shared
//! subterms (`R_iᵀ` appearing in both the orientation and position error,
//! Fig. 11) become single DFG nodes. Nodes are hash-consed by [`CseKey`]:
//! operation plus operand ids, floats and constant payloads by exact bit
//! pattern.
//!
//! Each node later becomes one instruction; BFS levels over the DFG give
//! the parallelism structure shown in Fig. 11.

use orianna_graph::VarId;
use orianna_math::Mat;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

/// A factor error expression over the unified pose representation.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Orientation (so(n) vector) of a pose variable.
    VarPhi(VarId),
    /// Translation of a pose variable.
    VarTrans(VarId),
    /// A point/vector variable (landmark, trajectory state, control).
    VarVec(VarId),
    /// Constant matrix (rotations are n×n, vectors n×1).
    Const(Mat),
    /// `Exp`: so(n) → SO(n). Source must be a Lie-algebra vector.
    Exp(Box<Expr>),
    /// `Log`: SO(n) → so(n).
    Log(Box<Expr>),
    /// `RT`: rotation transpose.
    Rt(Box<Expr>),
    /// `RR`: rotation composition.
    Rr(Box<Expr>, Box<Expr>),
    /// `RV`: rotation applied to a vector.
    Rv(Box<Expr>, Box<Expr>),
    /// `VP`: vector addition.
    Add(Box<Expr>, Box<Expr>),
    /// `VP`: vector subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Constant-matrix × vector product (linear constraint factors).
    MatVec(Mat, Box<Expr>),
    /// Pinhole projection (camera factors).
    Proj {
        /// Focal x.
        fx: f64,
        /// Focal y.
        fy: f64,
        /// Principal x.
        cx: f64,
        /// Principal y.
        cy: f64,
        /// 3×1 camera-frame point.
        src: Box<Expr>,
    },
    /// Euclidean norm (1×1 result).
    Norm(Box<Expr>),
    /// `max(0, c − x)` hinge on a scalar.
    Hinge(f64, Box<Expr>),
    /// Row slice of a vector.
    Slice {
        /// First row.
        start: usize,
        /// Row count.
        len: usize,
        /// Source vector.
        src: Box<Expr>,
    },
}

/// Kind (and dimension) of a value flowing through the MO-DFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValKind {
    /// An SO(n) rotation matrix (n = 2 or 3).
    Rot(usize),
    /// An n×1 vector.
    Vec(usize),
}

impl ValKind {
    /// Tangent dimension: 1 for SO(2), 3 for SO(3), n for vectors.
    pub fn tangent_dim(&self) -> usize {
        match self {
            ValKind::Rot(2) => 1,
            ValKind::Rot(3) => 3,
            ValKind::Rot(n) => n * (n - 1) / 2,
            ValKind::Vec(n) => *n,
        }
    }

    /// Shape of the value as stored in a register.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            ValKind::Rot(n) => (*n, *n),
            ValKind::Vec(n) => (*n, 1),
        }
    }
}

/// Id of a node within a [`ModFg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Operation performed by a MO-DFG node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOp {
    /// Orientation input of a pose variable.
    InputPhi(VarId),
    /// Translation input of a pose variable.
    InputTrans(VarId),
    /// Vector-variable input.
    InputVec(VarId),
    /// Constant payload.
    Const(Mat),
    /// `Exp` primitive.
    Exp,
    /// `Log` primitive.
    Log,
    /// `RT` primitive.
    Rt,
    /// `RR` primitive.
    Rr,
    /// `RV` primitive.
    Rv,
    /// `VP` add.
    Add,
    /// `VP` subtract.
    Sub,
    /// Constant-matrix × vector product.
    MatVec(Mat),
    /// Pinhole projection.
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
    /// Euclidean norm.
    Norm,
    /// Hinge `max(0, c − x)`.
    Hinge(f64),
    /// Row slice.
    Slice {
        /// First row.
        start: usize,
        /// Row count.
        len: usize,
    },
}

/// One MO-DFG node: an operation, its operand nodes, its value kind, and
/// its BFS level (forward-traversal depth).
#[derive(Debug, Clone)]
pub struct Node {
    /// Operation.
    pub op: NodeOp,
    /// Operand node ids.
    pub args: Vec<NodeId>,
    /// Kind/shape of the produced value.
    pub kind: ValKind,
    /// BFS level (0 = inputs/constants).
    pub level: usize,
}

/// A matrix-operation data-flow graph for one factor error expression.
#[derive(Debug, Clone, Default)]
pub struct ModFg {
    nodes: Vec<Node>,
    cse: HashMap<CseKey, NodeId>,
    roots: Vec<NodeId>,
}

/// Errors raised while building a MO-DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError(pub String);

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MO-DFG shape error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

impl ModFg {
    /// Builds a MO-DFG from one or more root expressions (e.g. `[e_o, e_p]`
    /// for a pose factor). `space_dim` is 2 or 3 and fixes the rotation
    /// dimensions of pose inputs.
    ///
    /// The build goes through the paper's pipeline: expression → postfix →
    /// stack parse, with common subexpressions merged.
    ///
    /// # Errors
    /// Returns [`ShapeError`] on kind/shape mismatches (e.g. `Log` of a
    /// vector).
    pub fn from_exprs(exprs: &[Expr], space_dim: usize) -> Result<Self, ShapeError> {
        let mut g = ModFg::default();
        for e in exprs {
            let root = g.parse_postfix(to_postfix(e), space_dim)?;
            g.roots.push(root);
        }
        Ok(g)
    }

    /// The root (error output) nodes, in expression order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Borrow of a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum BFS level (the forward critical-path depth of Fig. 11).
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Ids of the leaf input nodes for each variable (phi/trans/vec).
    pub fn variable_leaves(&self) -> Vec<(VarId, NodeId)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.op {
                NodeOp::InputPhi(v) | NodeOp::InputTrans(v) | NodeOp::InputVec(v) => {
                    Some((v, NodeId(i)))
                }
                _ => None,
            })
            .collect()
    }

    /// Stack-based postfix parse (the paper's Sec. 5.2: "generate the
    /// postfix expressions … and parse the postfix expressions using a
    /// stack data structure to get the MO-DFG").
    fn parse_postfix(
        &mut self,
        tokens: Vec<PostfixTok>,
        space_dim: usize,
    ) -> Result<NodeId, ShapeError> {
        let mut stack: Vec<NodeId> = Vec::new();
        let underflow = || ShapeError("stack underflow".into());
        for tok in tokens {
            let id = match tok {
                PostfixTok::Leaf(op) => self.intern_leaf(op, space_dim)?,
                PostfixTok::Unary(op) => {
                    let a = stack.pop().ok_or_else(underflow)?;
                    self.intern_op(op, &[a])?
                }
                PostfixTok::Binary(op) => {
                    let b = stack.pop().ok_or_else(underflow)?;
                    let a = stack.pop().ok_or_else(underflow)?;
                    self.intern_op(op, &[a, b])?
                }
            };
            stack.push(id);
        }
        match (stack.pop(), stack.is_empty()) {
            (Some(root), true) => Ok(root),
            (got, _) => Err(ShapeError(format!(
                "postfix left {} values on the stack",
                stack.len() + usize::from(got.is_some())
            ))),
        }
    }

    fn intern_leaf(&mut self, op: NodeOp, space_dim: usize) -> Result<NodeId, ShapeError> {
        let kind = match &op {
            NodeOp::InputPhi(_) => ValKind::Vec(if space_dim == 2 { 1 } else { 3 }),
            NodeOp::InputTrans(_) => ValKind::Vec(space_dim),
            // Vector-variable dims are resolved at codegen; here we mark
            // them with dimension 0 and fix up via `set_vec_dim`.
            NodeOp::InputVec(_) => ValKind::Vec(0),
            NodeOp::Const(m) => {
                if m.cols() == 1 {
                    ValKind::Vec(m.rows())
                } else if m.rows() == m.cols() {
                    ValKind::Rot(m.rows())
                } else {
                    ValKind::Vec(m.rows()) // treated as payload; MatVec carries its own matrix
                }
            }
            other => return Err(ShapeError(format!("{other:?} is not a leaf"))),
        };
        Ok(self.intern(op, &[], kind, 0))
    }

    fn intern_op(&mut self, op: NodeOp, args: &[NodeId]) -> Result<NodeId, ShapeError> {
        let mut kinds = [ValKind::Vec(0); 2];
        for (k, a) in kinds.iter_mut().zip(args) {
            *k = self.nodes[a.0].kind;
        }
        let kind = infer_kind(&op, &kinds[..args.len()])?;
        let level = 1 + args
            .iter()
            .map(|a| self.nodes[a.0].level)
            .max()
            .unwrap_or(0);
        Ok(self.intern(op, args, kind, level))
    }

    fn intern(&mut self, op: NodeOp, args: &[NodeId], kind: ValKind, level: usize) -> NodeId {
        let key = CseKey::new(op, args);
        if let Some(&id) = self.cse.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            op: key.op.clone(),
            args: args.to_vec(),
            kind,
            level,
        });
        self.cse.insert(key, id);
        id
    }

    /// Sets the dimension of a vector-variable leaf (dims come from the
    /// graph's `Values`, not the expression).
    pub fn set_vec_dim(&mut self, var: VarId, dim: usize) {
        for node in &mut self.nodes {
            if matches!(node.op, NodeOp::InputVec(v) if v == var) {
                node.kind = ValKind::Vec(dim);
            }
        }
        // Re-infer downstream kinds in topological (id) order: interning
        // guarantees args precede uses.
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if node.args.is_empty() {
                continue;
            }
            let mut kinds = [ValKind::Vec(0); 2];
            for (k, a) in kinds.iter_mut().zip(&node.args) {
                *k = self.nodes[a.0].kind;
            }
            if let Ok(k) = infer_kind(&node.op, &kinds[..node.args.len()]) {
                self.nodes[i].kind = k;
            }
        }
    }
}

fn infer_kind(op: &NodeOp, args: &[ValKind]) -> Result<ValKind, ShapeError> {
    let err = |m: &str| Err(ShapeError(m.to_string()));
    match op {
        NodeOp::Exp => match args[0] {
            ValKind::Vec(1) => Ok(ValKind::Rot(2)),
            ValKind::Vec(3) => Ok(ValKind::Rot(3)),
            _ => err("Exp expects an so(n) vector (dim 1 or 3)"),
        },
        NodeOp::Log => match args[0] {
            ValKind::Rot(2) => Ok(ValKind::Vec(1)),
            ValKind::Rot(3) => Ok(ValKind::Vec(3)),
            _ => err("Log expects a rotation"),
        },
        NodeOp::Rt => match args[0] {
            ValKind::Rot(n) => Ok(ValKind::Rot(n)),
            _ => err("RT expects a rotation"),
        },
        NodeOp::Rr => match (args[0], args[1]) {
            (ValKind::Rot(a), ValKind::Rot(b)) if a == b => Ok(ValKind::Rot(a)),
            _ => err("RR expects two same-dimension rotations"),
        },
        NodeOp::Rv => match (args[0], args[1]) {
            // Dimension 0 marks a vector-variable leaf whose size is
            // resolved later from the graph (`set_vec_dim`).
            (ValKind::Rot(a), ValKind::Vec(b)) if a == b || b == 0 => Ok(ValKind::Vec(a)),
            _ => err("RV expects a rotation and a matching vector"),
        },
        NodeOp::Add | NodeOp::Sub => match (args[0], args[1]) {
            (ValKind::Vec(a), ValKind::Vec(b)) if a == b => Ok(ValKind::Vec(a)),
            (ValKind::Vec(0), ValKind::Vec(b)) => Ok(ValKind::Vec(b)),
            (ValKind::Vec(a), ValKind::Vec(0)) => Ok(ValKind::Vec(a)),
            _ => err("VP expects two same-length vectors"),
        },
        NodeOp::MatVec(m) => match args[0] {
            ValKind::Vec(n) if n == m.cols() || n == 0 => Ok(ValKind::Vec(m.rows())),
            _ => err("MatVec dimension mismatch"),
        },
        NodeOp::Proj { .. } => match args[0] {
            ValKind::Vec(3) => Ok(ValKind::Vec(2)),
            _ => err("Proj expects a 3-vector"),
        },
        NodeOp::Norm => match args[0] {
            ValKind::Vec(_) => Ok(ValKind::Vec(1)),
            _ => err("Norm expects a vector"),
        },
        NodeOp::Hinge(_) => match args[0] {
            ValKind::Vec(1) => Ok(ValKind::Vec(1)),
            _ => err("Hinge expects a scalar"),
        },
        NodeOp::Slice { start, len } => match args[0] {
            ValKind::Vec(n) if start + len <= n || n == 0 => Ok(ValKind::Vec(*len)),
            _ => err("Slice out of range"),
        },
        NodeOp::InputPhi(_) | NodeOp::InputTrans(_) | NodeOp::InputVec(_) | NodeOp::Const(_) => {
            err("leaf ops have no args")
        }
    }
}

/// Hash-consing key of a MO-DFG node: its operation and operand ids,
/// compared and hashed by exact bit pattern. Floats key by `to_bits()`
/// (bit-equal constants merge; `0.0` and `-0.0` stay apart) and matrix
/// payloads by shape plus element bits. [`ModFg`]'s CSE and the code
/// generator's constant-register cache both key by it; building one
/// moves the op in and allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct CseKey {
    op: NodeOp,
    /// Operand ids; slots past the op's arity hold `usize::MAX`.
    args: [usize; 2],
}

impl CseKey {
    /// Key of `op` applied to `args` (at most two operands).
    pub(crate) fn new(op: NodeOp, args: &[NodeId]) -> Self {
        let mut slots = [usize::MAX; 2];
        assert!(
            args.len() <= slots.len(),
            "MO-DFG ops take at most two operands"
        );
        for (s, a) in slots.iter_mut().zip(args) {
            *s = a.0;
        }
        Self { op, args: slots }
    }

    /// Key of the constant matrix `m`.
    pub(crate) fn constant(m: Mat) -> Self {
        Self::new(NodeOp::Const(m), &[])
    }

    /// The matrix of a [`constant`](Self::constant) key.
    pub(crate) fn matrix(&self) -> &Mat {
        self.parts().1.expect("a constant key holds its matrix")
    }

    /// The op's scalar parameters as bits, and its matrix payload.
    fn parts(&self) -> ([u64; 4], Option<&Mat>) {
        match &self.op {
            NodeOp::InputPhi(v) | NodeOp::InputTrans(v) | NodeOp::InputVec(v) => {
                ([v.0 as u64, 0, 0, 0], None)
            }
            NodeOp::Const(m) | NodeOp::MatVec(m) => ([0; 4], Some(m)),
            NodeOp::Proj { fx, fy, cx, cy } => (
                [fx.to_bits(), fy.to_bits(), cx.to_bits(), cy.to_bits()],
                None,
            ),
            NodeOp::Hinge(c) => ([c.to_bits(), 0, 0, 0], None),
            NodeOp::Slice { start, len } => ([*start as u64, *len as u64, 0, 0], None),
            NodeOp::Exp
            | NodeOp::Log
            | NodeOp::Rt
            | NodeOp::Rr
            | NodeOp::Rv
            | NodeOp::Add
            | NodeOp::Sub
            | NodeOp::Norm => ([0; 4], None),
        }
    }
}

impl PartialEq for CseKey {
    fn eq(&self, other: &Self) -> bool {
        let ((a, am), (b, bm)) = (self.parts(), other.parts());
        discriminant(&self.op) == discriminant(&other.op)
            && self.args == other.args
            && a == b
            && match (am, bm) {
                (Some(x), Some(y)) => same_bits(x, y),
                (x, y) => x.is_none() && y.is_none(),
            }
    }
}

impl Eq for CseKey {}

impl Hash for CseKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (scalars, payload) = self.parts();
        discriminant(&self.op).hash(state);
        self.args.hash(state);
        scalars.hash(state);
        if let Some(m) = payload {
            m.shape().hash(state);
            for x in m.as_slice() {
                state.write_u64(x.to_bits());
            }
        }
    }
}

/// Equal shapes and element bits (`0.0` and `-0.0` differ), the equality
/// of [`CseKey`] payloads.
pub(crate) fn same_bits(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Postfix token stream of an expression (paper Sec. 5.2).
#[derive(Debug, Clone)]
pub enum PostfixTok {
    /// A leaf node (inputs, constants).
    Leaf(NodeOp),
    /// A unary operation.
    Unary(NodeOp),
    /// A binary operation.
    Binary(NodeOp),
}

/// Converts an expression tree to postfix tokens.
pub fn to_postfix(e: &Expr) -> Vec<PostfixTok> {
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

fn walk(e: &Expr, out: &mut Vec<PostfixTok>) {
    match e {
        Expr::VarPhi(v) => out.push(PostfixTok::Leaf(NodeOp::InputPhi(*v))),
        Expr::VarTrans(v) => out.push(PostfixTok::Leaf(NodeOp::InputTrans(*v))),
        Expr::VarVec(v) => out.push(PostfixTok::Leaf(NodeOp::InputVec(*v))),
        Expr::Const(m) => out.push(PostfixTok::Leaf(NodeOp::Const(m.clone()))),
        Expr::Exp(a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::Exp));
        }
        Expr::Log(a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::Log));
        }
        Expr::Rt(a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::Rt));
        }
        Expr::Rr(a, b) => {
            walk(a, out);
            walk(b, out);
            out.push(PostfixTok::Binary(NodeOp::Rr));
        }
        Expr::Rv(a, b) => {
            walk(a, out);
            walk(b, out);
            out.push(PostfixTok::Binary(NodeOp::Rv));
        }
        Expr::Add(a, b) => {
            walk(a, out);
            walk(b, out);
            out.push(PostfixTok::Binary(NodeOp::Add));
        }
        Expr::Sub(a, b) => {
            walk(a, out);
            walk(b, out);
            out.push(PostfixTok::Binary(NodeOp::Sub));
        }
        Expr::MatVec(m, a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::MatVec(m.clone())));
        }
        Expr::Proj {
            fx,
            fy,
            cx,
            cy,
            src,
        } => {
            walk(src, out);
            out.push(PostfixTok::Unary(NodeOp::Proj {
                fx: *fx,
                fy: *fy,
                cx: *cx,
                cy: *cy,
            }));
        }
        Expr::Norm(a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::Norm));
        }
        Expr::Hinge(c, a) => {
            walk(a, out);
            out.push(PostfixTok::Unary(NodeOp::Hinge(*c)));
        }
        Expr::Slice { start, len, src } => {
            walk(src, out);
            out.push(PostfixTok::Unary(NodeOp::Slice {
                start: *start,
                len: *len,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_lie::Rot3;

    fn between_exprs(i: VarId, j: VarId, z_rot: Mat, z_t: Mat) -> [Expr; 2] {
        // Equ. 4: e_o = Log(ΔR^T R_i^T R_j)   [measured j-in-i frame]
        //         e_p = ΔR^T (R_i^T (t_j − t_i) − Δt)
        let ri = Expr::Exp(Box::new(Expr::VarPhi(i)));
        let rj = Expr::Exp(Box::new(Expr::VarPhi(j)));
        let rit = Expr::Rt(Box::new(ri.clone()));
        let dzt = Expr::Rt(Box::new(Expr::Const(z_rot)));
        let e_o = Expr::Log(Box::new(Expr::Rr(
            Box::new(dzt.clone()),
            Box::new(Expr::Rr(Box::new(rit.clone()), Box::new(rj))),
        )));
        let diff = Expr::Sub(Box::new(Expr::VarTrans(j)), Box::new(Expr::VarTrans(i)));
        let e_p = Expr::Rv(
            Box::new(dzt),
            Box::new(Expr::Sub(
                Box::new(Expr::Rv(Box::new(rit), Box::new(diff))),
                Box::new(Expr::Const(z_t)),
            )),
        );
        [e_o, e_p]
    }

    #[test]
    fn builds_between_modfg_with_cse() {
        let z_rot = Rot3::exp([0.1, 0.0, 0.0]).to_mat();
        let z_t = Mat::from_row_major(3, 1, &[1.0, 0.0, 0.0]);
        let exprs = between_exprs(VarId(0), VarId(1), z_rot, z_t);
        let g = ModFg::from_exprs(&exprs, 3).unwrap();
        assert_eq!(g.roots().len(), 2);
        // CSE: Exp(phi_i), Rt(Exp(phi_i)), Rt(ConstRot) each appear once.
        let rt_count = g.nodes().iter().filter(|n| n.op == NodeOp::Rt).count();
        assert_eq!(rt_count, 2, "R_i^T and ΔR^T each interned once");
        let exp_count = g.nodes().iter().filter(|n| n.op == NodeOp::Exp).count();
        assert_eq!(exp_count, 2);
    }

    #[test]
    fn levels_reflect_dependency_depth() {
        let e = Expr::Log(Box::new(Expr::Exp(Box::new(Expr::VarPhi(VarId(0))))));
        let g = ModFg::from_exprs(&[e], 3).unwrap();
        let root = g.node(g.roots()[0]);
        assert_eq!(root.level, 2); // input(0) → Exp(1) → Log(2)
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn shape_errors_detected() {
        // Log of a vector is invalid.
        let e = Expr::Log(Box::new(Expr::VarTrans(VarId(0))));
        assert!(ModFg::from_exprs(&[e], 3).is_err());
        // RV with mismatched dims.
        let e2 = Expr::Rv(
            Box::new(Expr::Exp(Box::new(Expr::VarPhi(VarId(0))))),
            Box::new(Expr::Const(Mat::from_row_major(2, 1, &[1.0, 2.0]))),
        );
        assert!(ModFg::from_exprs(&[e2], 3).is_err());
    }

    #[test]
    fn postfix_roundtrip_structure() {
        let e = Expr::Sub(
            Box::new(Expr::VarTrans(VarId(1))),
            Box::new(Expr::VarTrans(VarId(0))),
        );
        let toks = to_postfix(&e);
        assert_eq!(toks.len(), 3);
        assert!(matches!(toks[0], PostfixTok::Leaf(_)));
        assert!(matches!(toks[2], PostfixTok::Binary(NodeOp::Sub)));
    }

    #[test]
    fn two_d_dims() {
        let e = Expr::Log(Box::new(Expr::Exp(Box::new(Expr::VarPhi(VarId(0))))));
        let g = ModFg::from_exprs(&[e], 2).unwrap();
        assert_eq!(g.node(g.roots()[0]).kind, ValKind::Vec(1));
    }

    #[test]
    fn vec_dim_fixup() {
        let e = Expr::Slice {
            start: 2,
            len: 2,
            src: Box::new(Expr::VarVec(VarId(0))),
        };
        let mut g = ModFg::from_exprs(&[e], 2).unwrap();
        g.set_vec_dim(VarId(0), 4);
        let leaf = g.variable_leaves();
        assert_eq!(leaf.len(), 1);
        assert_eq!(g.node(leaf[0].1).kind, ValKind::Vec(4));
        assert_eq!(g.node(g.roots()[0]).kind, ValKind::Vec(2));
    }

    fn count(g: &ModFg, pred: impl Fn(&NodeOp) -> bool) -> usize {
        g.nodes().iter().filter(|n| pred(&n.op)).count()
    }

    fn konst(vals: &[f64]) -> Expr {
        Expr::Const(Mat::from_row_major(vals.len(), 1, vals))
    }

    #[test]
    fn bit_equal_constants_intern_once() {
        let e = Expr::Add(Box::new(konst(&[1.5, -2.0])), Box::new(konst(&[1.5, -2.0])));
        let g = ModFg::from_exprs(&[e, konst(&[1.5, -2.0])], 2).unwrap();
        assert_eq!(count(&g, |op| matches!(op, NodeOp::Const(_))), 1);
        assert_eq!(g.roots()[1], g.node(g.roots()[0]).args[0]);
    }

    #[test]
    fn signed_zero_constants_stay_distinct() {
        let e = Expr::Add(Box::new(konst(&[0.0])), Box::new(konst(&[-0.0])));
        let g = ModFg::from_exprs(&[e], 2).unwrap();
        assert_eq!(count(&g, |op| matches!(op, NodeOp::Const(_))), 2);
    }

    fn proj(fx: f64, cx: f64) -> Expr {
        Expr::Proj {
            fx,
            fy: 500.0,
            cx,
            cy: 240.0,
            src: Box::new(Expr::VarTrans(VarId(0))),
        }
    }

    #[test]
    fn proj_dedups_on_equal_parameters_and_splits_on_different() {
        let is_proj = |op: &NodeOp| matches!(op, NodeOp::Proj { .. });
        let same = ModFg::from_exprs(&[proj(500.0, 320.0), proj(500.0, 320.0)], 3).unwrap();
        assert_eq!(count(&same, is_proj), 1);
        assert_eq!(same.roots()[0], same.roots()[1]);
        let split = ModFg::from_exprs(&[proj(500.0, 320.0), proj(501.0, 320.0)], 3).unwrap();
        assert_eq!(count(&split, is_proj), 2);
        let zeros = ModFg::from_exprs(&[proj(500.0, 0.0), proj(500.0, -0.0)], 3).unwrap();
        assert_eq!(count(&zeros, is_proj), 2);
    }

    #[test]
    fn hinge_dedups_on_equal_threshold_and_splits_on_different() {
        let hinge =
            |c: f64| Expr::Hinge(c, Box::new(Expr::Norm(Box::new(Expr::VarTrans(VarId(0))))));
        let is_hinge = |op: &NodeOp| matches!(op, NodeOp::Hinge(_));
        let same = ModFg::from_exprs(&[hinge(0.75), hinge(0.75)], 2).unwrap();
        assert_eq!(count(&same, is_hinge), 1);
        let split = ModFg::from_exprs(&[hinge(0.75), hinge(0.5)], 2).unwrap();
        assert_eq!(count(&split, is_hinge), 2);
        // The shared `Norm` operand is interned once either way.
        assert_eq!(count(&split, |op| *op == NodeOp::Norm), 1);
    }

    #[test]
    fn matvec_keys_on_its_operand_as_well_as_its_matrix() {
        let m = Mat::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mv = |v: usize| Expr::MatVec(m.clone(), Box::new(Expr::VarTrans(VarId(v))));
        let is_mv = |op: &NodeOp| matches!(op, NodeOp::MatVec(_));
        let apart = ModFg::from_exprs(&[mv(0), mv(1)], 2).unwrap();
        assert_eq!(count(&apart, is_mv), 2);
        assert_ne!(apart.roots()[0], apart.roots()[1]);
        let shared = ModFg::from_exprs(&[mv(0), mv(0)], 2).unwrap();
        assert_eq!(count(&shared, is_mv), 1);
    }
}

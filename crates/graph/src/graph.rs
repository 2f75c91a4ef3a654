//! The factor-graph container and user-facing programming model.

use crate::factor::Factor;
use crate::linear::{LinearFactor, LinearSystem};
use crate::values::Values;
use crate::variable::{VarId, Variable};
use orianna_lie::{Pose2, Pose3};
use orianna_math::Vec64;
use std::sync::Arc;

/// Errors raised when mutating a [`FactorGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A factor references a variable id that has not been added.
    UnknownVariable {
        /// The offending key.
        key: VarId,
        /// Number of variables currently in the graph.
        num_variables: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownVariable { key, num_variables } => write!(
                f,
                "factor references unknown variable {key} (graph has {num_variables} variables)"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// A factor graph: variable nodes with current estimates plus factor nodes.
///
/// Mirrors the paper's programming model (Sec. 5.1): start empty, add
/// variables and factors, then hand the graph to a solver
/// (`orianna_solver::GaussNewton`) or to the compiler
/// (`orianna_compiler::compile`).
///
/// # Example
/// ```
/// use orianna_graph::{FactorGraph, PriorFactor, GpsFactor};
/// use orianna_lie::Pose2;
///
/// let mut graph = FactorGraph::new();
/// let x1 = graph.add_pose2(Pose2::identity());
/// graph.add_factor(PriorFactor::pose2(x1, Pose2::identity(), 0.1));
/// graph.add_factor(GpsFactor::new(x1, &[0.1, -0.1], 0.5));
/// assert!(graph.total_error() > 0.0);
/// ```
#[derive(Clone, Default)]
pub struct FactorGraph {
    values: Values,
    factors: Vec<Arc<dyn Factor>>,
}

impl std::fmt::Debug for FactorGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorGraph")
            .field("variables", &self.values.len())
            .field("factors", &self.factors.len())
            .finish()
    }
}

impl FactorGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a planar pose variable with the given initial estimate.
    pub fn add_pose2(&mut self, init: Pose2) -> VarId {
        self.values.insert(Variable::Pose2(init))
    }

    /// Adds a spatial pose variable.
    pub fn add_pose3(&mut self, init: Pose3) -> VarId {
        self.values.insert(Variable::Pose3(init))
    }

    /// Adds a 2D landmark variable.
    pub fn add_point2(&mut self, init: [f64; 2]) -> VarId {
        self.values.insert(Variable::Point2(init))
    }

    /// Adds a 3D landmark variable.
    pub fn add_point3(&mut self, init: [f64; 3]) -> VarId {
        self.values.insert(Variable::Point3(init))
    }

    /// Adds a flat vector variable (trajectory state, control input, …).
    pub fn add_vector(&mut self, init: Vec64) -> VarId {
        self.values.insert(Variable::Vector(init))
    }

    /// Adds a factor node. Key validity is checked eagerly.
    ///
    /// # Panics
    /// Panics if the factor references an unknown variable. Use
    /// [`FactorGraph::try_add_factor`] to handle the error instead.
    pub fn add_factor(&mut self, factor: impl Factor + 'static) {
        if let Err(e) = self.try_add_factor(factor) {
            panic!("{e}");
        }
    }

    /// Adds a factor node, returning a typed error when the factor
    /// references a variable that has not been added to the graph.
    pub fn try_add_factor(&mut self, factor: impl Factor + 'static) -> Result<(), GraphError> {
        self.check_keys(factor.keys())?;
        self.factors.push(Arc::new(factor));
        Ok(())
    }

    /// Adds an already-shared factor (used when cloning graph topologies).
    ///
    /// # Panics
    /// Panics if the factor references an unknown variable.
    pub fn add_shared_factor(&mut self, factor: Arc<dyn Factor>) {
        if let Err(e) = self.check_keys(factor.keys()) {
            panic!("{e}");
        }
        self.factors.push(factor);
    }

    fn check_keys(&self, keys: &[VarId]) -> Result<(), GraphError> {
        for k in keys {
            if k.0 >= self.values.len() {
                return Err(GraphError::UnknownVariable {
                    key: *k,
                    num_variables: self.values.len(),
                });
            }
        }
        Ok(())
    }

    /// Current variable estimates.
    pub fn values(&self) -> &Values {
        &self.values
    }

    /// Mutable access to the estimates (used by solvers to apply steps).
    pub fn values_mut(&mut self) -> &mut Values {
        &mut self.values
    }

    /// The factor nodes.
    pub fn factors(&self) -> &[Arc<dyn Factor>] {
        &self.factors
    }

    /// Number of variable nodes.
    pub fn num_variables(&self) -> usize {
        self.values.len()
    }

    /// Number of factor nodes.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Total whitened squared error `Σ |fᵢ(x)/σᵢ|²` — the Gauss-Newton
    /// objective (paper Equ. 1).
    pub fn total_error(&self) -> f64 {
        self.total_error_with(&self.values)
    }

    /// The Gauss-Newton objective evaluated at `values` instead of the
    /// stored estimates. Lets a line search score trial steps without
    /// cloning the factor storage (the factors are topology, not state).
    pub fn total_error_with(&self, values: &Values) -> f64 {
        self.factors
            .iter()
            .map(|f| f.weighted_squared_error(values))
            .sum()
    }

    /// Linearizes every factor at the current estimates, producing the
    /// block-sparse `A Δ = b` (paper Fig. 4; `b = −e`).
    pub fn linearize(&self) -> LinearSystem {
        let mut sys = LinearSystem::default();
        self.linearize_into(&mut sys);
        sys
    }

    /// [`FactorGraph::linearize`] into a caller-owned buffer.
    ///
    /// Iterative solvers re-linearize the same topology every iteration.
    /// Each row of `sys` is overwritten in place by
    /// [`Factor::linearize_into`], which reuses the row's key, block and
    /// RHS buffers whenever their shapes still match, so a `sys` that
    /// already holds this graph's structure is refilled without a single
    /// allocation by the built-in factors. Rows whose keys or dimensions
    /// differ are rebuilt; surplus rows are dropped.
    pub fn linearize_into(&self, sys: &mut LinearSystem) {
        sys.var_dims.clear();
        sys.var_dims
            .extend(self.values.iter().map(|(_, v)| v.dim()));
        sys.factors
            .resize_with(self.factors.len(), LinearFactor::default);
        for (f, row) in self.factors.iter().zip(&mut sys.factors) {
            f.linearize_into(&self.values, row);
        }
    }

    /// Hash of the graph's *structure*: variable dimensions plus each
    /// factor's keys and residual dimension — everything that determines
    /// the shape of the linearized system, and nothing that depends on the
    /// current estimates or measurement values. Two graphs with equal
    /// fingerprints linearize to systems with identical sparsity, so a
    /// symbolic `SolvePlan` built for one executes the other exactly.
    ///
    /// Matches [`LinearSystem::structure_fingerprint`] of any system this
    /// graph linearizes to.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        self.values.len().hash(&mut h);
        for (_, v) in self.values.iter() {
            v.dim().hash(&mut h);
        }
        self.factors.len().hash(&mut h);
        for f in &self.factors {
            f.dim().hash(&mut h);
            f.keys().hash(&mut h);
        }
        h.finish()
    }

    /// For each variable, the indices of the factors adjacent to it.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.values.len()];
        for (fi, f) in self.factors.iter().enumerate() {
            for k in f.keys() {
                adj[k.0].push(fi);
            }
        }
        adj
    }

    /// Applies a stacked tangent step to all variables: `x ← x ⊕ Δ`.
    pub fn retract_all(&mut self, delta: &Vec64) {
        self.values = self.values.retract_all(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{BetweenFactor, GpsFactor, PriorFactor};

    #[test]
    fn build_small_graph() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let b = g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.1));
        assert_eq!(g.num_variables(), 2);
        assert_eq!(g.num_factors(), 2);
        assert!(g.total_error() < 1e-12);
    }

    #[test]
    fn linearize_shapes() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let b = g.add_pose2(Pose2::new(0.1, 0.9, 0.0));
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.1));
        let sys = g.linearize();
        assert_eq!(sys.total_rows(), 6);
        assert_eq!(sys.total_cols(), 6);
        assert_eq!(sys.factors[1].keys.len(), 2);
    }

    #[test]
    fn adjacency_lists() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        let b = g.add_pose2(Pose2::identity());
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        g.add_factor(BetweenFactor::pose2(a, b, Pose2::identity(), 0.1));
        let adj = g.adjacency();
        assert_eq!(adj[0], vec![0, 1]);
        assert_eq!(adj[1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_key_rejected() {
        let mut g = FactorGraph::new();
        g.add_factor(PriorFactor::pose2(VarId(3), Pose2::identity(), 0.1));
    }

    #[test]
    fn total_error_with_matches_stored_values() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.3, -0.2, 0.1));
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        assert_eq!(g.total_error(), g.total_error_with(&g.values().clone()));
    }

    #[test]
    fn try_add_factor_rejects_unknown_variable() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        g.try_add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1))
            .expect("valid key");
        let err = g
            .try_add_factor(GpsFactor::new(VarId(7), &[0.0, 0.0], 0.5))
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::UnknownVariable {
                key: VarId(7),
                num_variables: 1
            }
        );
        assert_eq!(g.num_factors(), 1, "failed add must not mutate the graph");
    }

    #[test]
    fn retract_moves_estimates() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::identity());
        g.retract_all(&Vec64::from_slice(&[0.0, 1.0, 0.0]));
        assert!((g.values().get(a).as_pose2().x() - 1.0).abs() < 1e-12);
    }
}

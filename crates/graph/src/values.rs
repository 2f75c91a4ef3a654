//! The container mapping variable ids to current estimates.

use crate::variable::{VarId, Variable};
use orianna_math::Vec64;

/// Current estimates for every variable node in a factor graph.
///
/// Variable ids are dense indices assigned at insertion time, so lookup is
/// O(1). A [`Values`] can be updated in bulk from a stacked tangent-space
/// step vector, which is how Gauss-Newton applies the solution Δ of the
/// linear system (paper Fig. 3, `x ← x ⊕ Δ`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values {
    vars: Vec<Variable>,
}

impl Values {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a variable, returning its id.
    pub fn insert(&mut self, var: Variable) -> VarId {
        self.vars.push(var);
        VarId(self.vars.len() - 1)
    }

    /// Borrow of the variable with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn get(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Replaces the value of an existing variable.
    ///
    /// # Panics
    /// Panics if the id is out of range or the kinds/dimensions differ.
    pub fn set(&mut self, id: VarId, var: Variable) {
        assert_eq!(
            self.vars[id.0].dim(),
            var.dim(),
            "set() must preserve dimension"
        );
        self.vars[id.0] = var;
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variables have been inserted.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterator over `(id, variable)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.vars.iter().enumerate().map(|(i, v)| (VarId(i), v))
    }

    /// Total tangent dimension of all variables (the length of Δ).
    pub fn total_dim(&self) -> usize {
        self.vars.iter().map(Variable::dim).sum()
    }

    /// Tangent-space offset of each variable in the stacked Δ vector,
    /// in id order.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.vars.len());
        let mut acc = 0;
        for v in &self.vars {
            offs.push(acc);
            acc += v.dim();
        }
        offs
    }

    /// Retracts every variable by its slice of the stacked step `delta`.
    ///
    /// # Panics
    /// Panics if `delta.len() != self.total_dim()`.
    pub fn retract_all(&self, delta: &Vec64) -> Values {
        assert_eq!(delta.len(), self.total_dim(), "step length mismatch");
        let mut out = Vec::with_capacity(self.vars.len());
        let mut at = 0;
        for v in &self.vars {
            let d = v.dim();
            out.push(v.retract(&delta.as_slice()[at..at + d]));
            at += d;
        }
        Values { vars: out }
    }

    /// Overwrites `self` with a copy of `other`, reusing the buffers of
    /// vector variables whose size matches (an allocation-free
    /// `clone_from` once the two share a structure).
    pub fn copy_from(&mut self, other: &Values) {
        self.vars.truncate(other.vars.len());
        self.vars.reserve_exact(other.vars.len() - self.vars.len());
        for (i, v) in other.vars.iter().enumerate() {
            match self.vars.get_mut(i) {
                Some(slot) => slot.copy_from(v),
                None => self.vars.push(v.clone()),
            }
        }
    }

    /// [`Values::retract_all`] into a caller-owned buffer: `out` becomes
    /// `self ⊕ delta` bit for bit. Variables whose slot in `out` already
    /// has the same kind and size are overwritten in place, so a buffer
    /// that held an earlier step of the same graph is refilled without
    /// allocating.
    ///
    /// # Panics
    /// Panics if `delta.len() != self.total_dim()`.
    pub fn retract_all_into(&self, delta: &Vec64, out: &mut Values) {
        assert_eq!(delta.len(), self.total_dim(), "step length mismatch");
        out.vars.truncate(self.vars.len());
        out.vars.reserve_exact(self.vars.len() - out.vars.len());
        let mut at = 0;
        for (i, v) in self.vars.iter().enumerate() {
            let d = v.dim();
            let step = &delta.as_slice()[at..at + d];
            match out.vars.get_mut(i) {
                Some(slot) => v.retract_into(step, slot),
                None => out.vars.push(v.retract(step)),
            }
            at += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_lie::Pose2;

    #[test]
    fn insert_get_roundtrip() {
        let mut vals = Values::new();
        let id = vals.insert(Variable::Pose2(Pose2::new(0.1, 1.0, 2.0)));
        assert_eq!(vals.get(id).as_pose2().x(), 1.0);
        assert_eq!(vals.len(), 1);
    }

    #[test]
    fn offsets_and_total_dim() {
        let mut vals = Values::new();
        vals.insert(Variable::Pose2(Pose2::identity())); // dim 3
        vals.insert(Variable::Point3([0.0; 3])); // dim 3
        vals.insert(Variable::Vector(Vec64::zeros(2))); // dim 2
        assert_eq!(vals.total_dim(), 8);
        assert_eq!(vals.offsets(), vec![0, 3, 6]);
    }

    #[test]
    fn retract_all_applies_per_variable_slices() {
        let mut vals = Values::new();
        let a = vals.insert(Variable::Point2([0.0, 0.0]));
        let b = vals.insert(Variable::Point2([1.0, 1.0]));
        let stepped = vals.retract_all(&Vec64::from_slice(&[0.5, 0.0, 0.0, -1.0]));
        assert_eq!(stepped.get(a).as_point2(), [0.5, 0.0]);
        assert_eq!(stepped.get(b).as_point2(), [1.0, 0.0]);
    }

    #[test]
    fn retract_all_into_matches_retract_all_and_reuses_the_buffer() {
        let mut vals = Values::new();
        vals.insert(Variable::Pose2(Pose2::new(0.1, 1.0, 2.0)));
        vals.insert(Variable::Vector(Vec64::from_slice(&[1.0, -2.0])));
        vals.insert(Variable::Point3([0.5, 0.0, -0.5]));
        let delta = Vec64::from_slice(&[0.01, 0.2, -0.3, 0.5, 0.25, 1.0, -1.0, 0.0]);
        let mut out = Values::new();
        vals.retract_all_into(&delta, &mut out);
        assert_eq!(out, vals.retract_all(&delta));
        // A stale buffer of another shape is rebuilt, not trusted.
        let mut stale = Values::new();
        stale.insert(Variable::Vector(Vec64::zeros(5)));
        for _ in 0..4 {
            stale.insert(Variable::Point2([9.0, 9.0]));
        }
        vals.retract_all_into(&delta, &mut stale);
        assert_eq!(stale, out);
        let mut copy = Values::new();
        copy.insert(Variable::Point2([0.0, 0.0]));
        copy.copy_from(&out);
        assert_eq!(copy, out);
        copy.copy_from(&vals);
        assert_eq!(copy, vals);
    }

    #[test]
    #[should_panic(expected = "step length mismatch")]
    fn retract_all_rejects_bad_length() {
        let mut vals = Values::new();
        vals.insert(Variable::Point2([0.0, 0.0]));
        vals.retract_all(&Vec64::zeros(3));
    }
}

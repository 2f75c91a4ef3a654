//! Linearized factor graphs.
//!
//! Linearizing every factor at the current estimates yields a *linear
//! factor graph*: the block-sparse representation of the Gauss-Newton
//! system `A Δ = b` (paper Fig. 4). Each [`LinearFactor`] is one block row
//! — whitened Jacobian blocks in the columns of its variables and the
//! whitened negative error on the right-hand side.
//!
//! The [`LinearSystem`] also exposes the *dense* assembled `A`/`b` plus
//! size/sparsity statistics: the dense view is what the VANILLA-HLS
//! baseline processes, and the statistics regenerate the paper's Fig. 17
//! (operation sizes) and Fig. 18 (densities).

use crate::variable::VarId;
use orianna_math::{macs, Mat, Vec64};

/// One whitened block row of the linear system: `Σᵢ Jᵢ Δᵢ = rhs`.
///
/// Rows are filled by [`Factor::linearize_into`](crate::Factor::linearize_into),
/// which overwrites an existing row in place: [`LinearFactor::reshape`]
/// keeps every buffer whose shape already matches, so re-linearizing the
/// same topology allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LinearFactor {
    /// Connected variables, aligned with `blocks`.
    pub keys: Vec<VarId>,
    /// Whitened Jacobian blocks, one per key.
    pub blocks: Vec<Mat>,
    /// Whitened right-hand side (`−e`).
    pub rhs: Vec64,
}

impl LinearFactor {
    /// Number of rows this factor contributes.
    pub fn rows(&self) -> usize {
        self.rhs.len()
    }

    /// Shapes this row as `rows` rows over `keys`, block `i` being
    /// `rows × widths[i]`. Buffers whose shape already matches are kept
    /// with their old contents — the caller overwrites every entry — and
    /// only mismatched ones are reallocated (as zeros).
    pub fn reshape(
        &mut self,
        keys: &[VarId],
        rows: usize,
        widths: impl IntoIterator<Item = usize>,
    ) {
        if self.keys != keys {
            self.keys.clear();
            self.keys.extend_from_slice(keys);
        }
        self.blocks.truncate(keys.len());
        // Rows stay resident in warm buffers: size the spine exactly.
        self.blocks.reserve_exact(keys.len() - self.blocks.len());
        for (i, w) in widths.into_iter().enumerate() {
            match self.blocks.get_mut(i) {
                Some(b) if b.shape() == (rows, w) => {}
                Some(b) => *b = Mat::zeros(rows, w),
                None => self.blocks.push(Mat::zeros(rows, w)),
            }
        }
        debug_assert_eq!(self.blocks.len(), keys.len(), "one width per key");
        if self.rhs.len() != rows {
            self.rhs = Vec64::zeros(rows);
        }
    }

    /// Writes the whitened block `w·src` (row-major, the block's shape)
    /// into block `k`, recording the MACs of the equivalent
    /// [`Mat::scale`].
    pub(crate) fn put_block(&mut self, k: usize, src: &[f64], w: f64) {
        let dst = self.blocks[k].as_mut_slice();
        debug_assert_eq!(dst.len(), src.len(), "block shape mismatch");
        macs::record(src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s * w;
        }
    }

    /// Writes the whitened right-hand side `−(w·e)`, recording the MACs of
    /// the equivalent [`Vec64::scale`].
    pub(crate) fn put_rhs(&mut self, e: &[f64], w: f64) {
        let dst = self.rhs.as_mut_slice();
        debug_assert_eq!(dst.len(), e.len(), "rhs length mismatch");
        macs::record(e.len());
        for (d, x) in dst.iter_mut().zip(e) {
            *d = -(x * w);
        }
    }

    /// Multiplies every block and the right-hand side by `s` in place
    /// (the robust IRLS re-weighting), recording the MACs of the
    /// equivalent [`Mat::scale`]/[`Vec64::scale`] calls.
    pub(crate) fn scale_in_place(&mut self, s: f64) {
        for b in &mut self.blocks {
            let data = b.as_mut_slice();
            macs::record(data.len());
            for x in data {
                *x *= s;
            }
        }
        let rhs = self.rhs.as_mut_slice();
        macs::record(rhs.len());
        for x in rhs {
            *x *= s;
        }
    }

    /// Residual `Σᵢ Jᵢ δᵢ − rhs` for a candidate solution given per-key
    /// tangent slices.
    pub fn residual(&self, delta_of: impl Fn(VarId) -> Vec64) -> Vec64 {
        let mut r = -&self.rhs;
        for (k, j) in self.keys.iter().zip(&self.blocks) {
            r = &r + &j.mul_vec(&delta_of(*k));
        }
        r
    }
}

/// The full linearized system: all block rows plus the variable layout.
#[derive(Debug, Clone, Default)]
pub struct LinearSystem {
    /// Block rows in factor order.
    pub factors: Vec<LinearFactor>,
    /// Tangent dimension of each variable, indexed by `VarId`.
    pub var_dims: Vec<usize>,
}

impl LinearSystem {
    /// Column offset of each variable in the dense assembled `A`.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.var_dims.len());
        let mut acc = 0;
        for &d in &self.var_dims {
            offs.push(acc);
            acc += d;
        }
        offs
    }

    /// Total column count (length of Δ).
    pub fn total_cols(&self) -> usize {
        self.var_dims.iter().sum()
    }

    /// Total row count.
    pub fn total_rows(&self) -> usize {
        self.factors.iter().map(LinearFactor::rows).sum()
    }

    /// Assembles the dense `A` and `b` (the matrices a sparsity-blind
    /// accelerator like VANILLA-HLS must process).
    pub fn dense(&self) -> (Mat, Vec64) {
        let offs = self.offsets();
        let mut a = Mat::zeros(self.total_rows(), self.total_cols());
        let mut b = Vec64::zeros(self.total_rows());
        let mut row = 0;
        for f in &self.factors {
            for (k, blk) in f.keys.iter().zip(&f.blocks) {
                a.set_block(row, offs[k.0], blk);
            }
            b.set_segment(row, &f.rhs);
            row += f.rows();
        }
        (a, b)
    }

    /// Number of structurally non-zero entries (block-level).
    pub fn structural_nnz(&self) -> usize {
        self.factors
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.rows() * b.cols()).sum::<usize>())
            .sum()
    }

    /// Density of the assembled `A`: structural non-zeros over total size.
    pub fn density(&self) -> f64 {
        let total = self.total_rows() * self.total_cols();
        if total == 0 {
            return 0.0;
        }
        self.structural_nnz() as f64 / total as f64
    }

    /// Solves the system exactly via dense least squares (oracle used by
    /// tests and by the VANILLA-HLS op-count model). Returns the stacked Δ.
    pub fn solve_dense(&self) -> Option<Vec64> {
        let (a, b) = self.dense();
        if a.rows() < a.cols() {
            return None;
        }
        orianna_math::least_squares(&a, &b)
    }

    /// Hash of the system's *structure*: variable dimensions plus each
    /// factor's keys and row count. Feeding order matches
    /// `FactorGraph::structure_fingerprint`, so a plan keyed on the graph
    /// fingerprint validates against its linearized systems.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        self.var_dims.len().hash(&mut h);
        for &d in &self.var_dims {
            d.hash(&mut h);
        }
        self.factors.len().hash(&mut h);
        for f in &self.factors {
            f.rows().hash(&mut h);
            f.keys.hash(&mut h);
        }
        h.finish()
    }

    /// Per-factor `(rows, cols)` of the dense elimination workload this
    /// factor would present (sum of block widths) — the matrix-size samples
    /// behind Fig. 17.
    pub fn factor_shapes(&self) -> Vec<(usize, usize)> {
        self.factors
            .iter()
            .map(|f| (f.rows(), f.blocks.iter().map(Mat::cols).sum()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_system() -> LinearSystem {
        // Two variables of dim 1; three rows:
        //   x0 = 1, x1 − x0 = 1, x1 = 2.5 (least squares blend)
        LinearSystem {
            factors: vec![
                LinearFactor {
                    keys: vec![VarId(0)],
                    blocks: vec![Mat::identity(1)],
                    rhs: Vec64::from_slice(&[1.0]),
                },
                LinearFactor {
                    keys: vec![VarId(0), VarId(1)],
                    blocks: vec![Mat::identity(1).scale(-1.0), Mat::identity(1)],
                    rhs: Vec64::from_slice(&[1.0]),
                },
                LinearFactor {
                    keys: vec![VarId(1)],
                    blocks: vec![Mat::identity(1)],
                    rhs: Vec64::from_slice(&[2.5]),
                },
            ],
            var_dims: vec![1, 1],
        }
    }

    #[test]
    fn dense_assembly_shapes() {
        let sys = simple_system();
        let (a, b) = sys.dense();
        assert_eq!(a.shape(), (3, 2));
        assert_eq!(b.len(), 3);
        assert_eq!(a[(1, 0)], -1.0);
        assert_eq!(a[(1, 1)], 1.0);
    }

    #[test]
    fn dense_solution_is_least_squares() {
        let sys = simple_system();
        let x = sys.solve_dense().unwrap();
        // Normal equations solution: x0 ≈ 0.833, x1 ≈ 2.167 — check
        // residual orthogonality instead of hard-coding.
        let (a, b) = sys.dense();
        let resid = &a.mul_vec(&x) - &b;
        assert!(a.transpose().mul_vec(&resid).norm() < 1e-10);
    }

    #[test]
    fn stats() {
        let sys = simple_system();
        assert_eq!(sys.total_rows(), 3);
        assert_eq!(sys.total_cols(), 2);
        assert_eq!(sys.structural_nnz(), 4);
        assert!((sys.density() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(sys.factor_shapes(), vec![(1, 1), (1, 2), (1, 1)]);
    }
}

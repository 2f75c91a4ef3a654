//! Robust loss kernels (Huber, Cauchy) via IRLS re-weighting.
//!
//! Real sensor pipelines produce outliers (wrong loop closures, bad data
//! associations) that a pure least-squares objective lets dominate the
//! solution. Wrapping a factor in [`RobustFactor`] replaces its quadratic
//! loss with a robust ρ-function, implemented as iteratively-reweighted
//! least squares: each linearization is scaled by `√(ρ'(r)/r)` evaluated
//! at the current whitened residual norm `r`, so the same Gauss-Newton /
//! elimination machinery (and the same generated accelerator — the
//! re-weighting is one extra `Scale` instruction per factor) solves the
//! robust problem.

use crate::factor::{Factor, FactorKind};
use crate::linear::LinearFactor;
use crate::values::Values;
use crate::variable::VarId;
use orianna_math::{Mat, Vec64};

/// A robust loss function ρ(r) over the whitened residual norm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Plain quadratic loss (no re-weighting).
    L2,
    /// Huber: quadratic below `k`, linear above.
    Huber(f64),
    /// Cauchy: heavily down-weights large residuals.
    Cauchy(f64),
}

impl Loss {
    /// IRLS weight `ρ'(r)/r` at whitened residual norm `r`.
    pub fn weight(&self, r: f64) -> f64 {
        match *self {
            Loss::L2 => 1.0,
            Loss::Huber(k) => {
                if r <= k {
                    1.0
                } else {
                    k / r
                }
            }
            Loss::Cauchy(k) => 1.0 / (1.0 + (r / k) * (r / k)),
        }
    }

    /// Loss value ρ(r) (for objective reporting).
    pub fn rho(&self, r: f64) -> f64 {
        match *self {
            Loss::L2 => 0.5 * r * r,
            Loss::Huber(k) => {
                if r <= k {
                    0.5 * r * r
                } else {
                    k * (r - 0.5 * k)
                }
            }
            Loss::Cauchy(k) => 0.5 * k * k * (1.0 + (r / k) * (r / k)).ln(),
        }
    }
}

/// Wraps any factor with a robust loss.
///
/// # Example
/// ```
/// use orianna_graph::{BetweenFactor, FactorGraph, Loss, RobustFactor};
/// use orianna_lie::Pose2;
/// let mut g = FactorGraph::new();
/// let a = g.add_pose2(Pose2::identity());
/// let b = g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
/// let closure = BetweenFactor::pose2(a, b, Pose2::new(0.0, 5.0, 0.0), 0.1);
/// g.add_factor(RobustFactor::new(closure, Loss::Huber(1.345)));
/// ```
#[derive(Debug, Clone)]
pub struct RobustFactor<F> {
    inner: F,
    loss: Loss,
}

impl<F: Factor> RobustFactor<F> {
    /// Wraps `inner` with the given loss.
    pub fn new(inner: F, loss: Loss) -> Self {
        Self { inner, loss }
    }

    /// The wrapped factor.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The loss kernel.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Whitened residual norm `|e/σ|`. The inner factor's
    /// `weighted_squared_error` sums the same squares in the same order
    /// as `e.scale(1/σ).norm()` (and records the same MACs), so its root
    /// is that norm bit for bit — and allocation-free for built-ins.
    fn whitened_norm(&self, values: &Values) -> f64 {
        self.inner.weighted_squared_error(values).sqrt()
    }
}

impl<F: Factor> Factor for RobustFactor<F> {
    fn keys(&self) -> &[VarId] {
        self.inner.keys()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn error(&self, values: &Values) -> Vec64 {
        self.inner.error(values)
    }

    fn jacobians(&self, values: &Values) -> Vec<Mat> {
        self.inner.jacobians(values)
    }

    fn sigma(&self) -> f64 {
        self.inner.sigma()
    }

    fn name(&self) -> &'static str {
        "RobustFactor"
    }

    fn kind(&self) -> FactorKind {
        // The compiler lowers the wrapped factor; the IRLS weight is a
        // runtime scale applied by the controller between iterations.
        self.inner.kind()
    }

    fn linearize_into(&self, values: &Values, out: &mut LinearFactor) {
        self.inner.linearize_into(values, out);
        let sw = self.loss.weight(self.whitened_norm(values)).sqrt();
        if sw != 1.0 {
            out.scale_in_place(sw);
        }
    }

    fn weighted_squared_error(&self, values: &Values) -> f64 {
        // 2·ρ(r) so that L2 reduces to the ordinary r².
        2.0 * self.loss.rho(self.whitened_norm(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::PriorFactor;
    use crate::graph::FactorGraph;
    use orianna_lie::Pose2;

    #[test]
    fn weights_behave() {
        let h = Loss::Huber(1.0);
        assert_eq!(h.weight(0.5), 1.0);
        assert!((h.weight(4.0) - 0.25).abs() < 1e-12);
        let c = Loss::Cauchy(1.0);
        assert!(c.weight(10.0) < 0.02);
        assert_eq!(Loss::L2.weight(100.0), 1.0);
    }

    #[test]
    fn rho_continuous_at_threshold() {
        let h = Loss::Huber(1.345);
        let below = h.rho(1.345 - 1e-9);
        let above = h.rho(1.345 + 1e-9);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn l2_wrapper_is_transparent() {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.1, 0.5, 0.2));
        let plain = PriorFactor::pose2(a, Pose2::identity(), 0.1);
        let wrapped = RobustFactor::new(plain.clone(), Loss::L2);
        let mut l1 = LinearFactor::default();
        let mut l2 = LinearFactor::default();
        plain.linearize_into(g.values(), &mut l1);
        wrapped.linearize_into(g.values(), &mut l2);
        let (j1, e1) = (l1.blocks, l1.rhs);
        let (j2, e2) = (l2.blocks, l2.rhs);
        assert!((&e1 - &e2).norm() < 1e-15);
        assert!((&j1[0] - &j2[0]).max_abs() < 1e-15);
        assert!(
            (plain.weighted_squared_error(g.values()) - wrapped.weighted_squared_error(g.values()))
                .abs()
                < 1e-12
        );
    }
}

//! Property tests for the arena-backed numeric path: on graphs drawn from
//! every generator family, the workspace-arena elimination and
//! back-substitution must match the reference `eliminate` (within 1e-12
//! on one seed range, bitwise on another), and the blocked matmul
//! micro-kernel must match a naive triple loop within 1e-12.

use orianna_graph::natural_ordering;
use orianna_math::Mat;
use orianna_solver::{eliminate, SolvePlan};
use orianna_verify::{generate, Family, GenConfig};
use proptest::prelude::*;

fn family_of(idx: usize) -> Family {
    Family::ALL[idx % Family::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena `solve_in` agrees with the reference eliminate +
    /// back-substitute pipeline on every generator family.
    #[test]
    fn arena_solve_matches_reference(
        fam in 0usize..4,
        vars in 3usize..10,
        dstep in 0usize..5,
        seed in 0u64..512,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed));
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        let (bn, ref_stats) = eliminate(&sys, &ordering).expect("reference eliminates");
        let delta_ref = bn.back_substitute().expect("reference back-substitutes");

        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
        let mut ws = plan.workspace();
        let delta = plan.solve_in(&sys, &mut ws).expect("arena solves");

        prop_assert_eq!(delta.len(), delta_ref.len());
        for i in 0..delta.len() {
            prop_assert!(
                (delta[i] - delta_ref[i]).abs() <= 1e-12,
                "delta[{}]: {} vs {}", i, delta[i], delta_ref[i]
            );
        }
        prop_assert_eq!(ws.stats(), ref_stats.shapes());
    }

    /// The arena solve reproduces the reference bitwise — Δ and every
    /// per-step shape record — since both stack the same rows and run the
    /// same Householder schedule.
    #[test]
    fn arena_matches_reference_bitwise(
        fam in 0usize..4,
        vars in 3usize..9,
        dstep in 0usize..5,
        seed in 512u64..1024,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed));
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        let (bn, ref_stats) = eliminate(&sys, &ordering).expect("reference eliminates");
        let delta_ref = bn.back_substitute().expect("reference back-substitutes");

        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
        let mut ws = plan.workspace();
        let delta = plan.solve_in(&sys, &mut ws).expect("arena solves");

        prop_assert_eq!(delta.as_slice(), delta_ref.as_slice());
        prop_assert_eq!(ws.stats(), ref_stats.shapes());
    }

    /// The blocked column-panel matmul agrees with a naive triple loop on
    /// Gram products of Jacobian blocks from generated graphs.
    #[test]
    fn blocked_matmul_matches_naive_on_jacobians(
        fam in 0usize..4,
        vars in 3usize..9,
        seed in 0u64..512,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, 0.5, seed));
        let sys = g.linearize();
        for f in &sys.factors {
            for blk in &f.blocks {
                let at = blk.transpose();
                let blocked = at.mul_mat(blk);
                let naive = naive_mul(&at, blk);
                prop_assert!(
                    (&blocked - &naive).max_abs() <= 1e-12,
                    "gram product diverged: {:?}", blk.shape()
                );
            }
            // Cross products between adjacent blocks exercise rectangular
            // shapes with every chunk-width remainder.
            for w in f.blocks.windows(2) {
                let at = w[0].transpose();
                let blocked = at.mul_mat(&w[1]);
                let naive = naive_mul(&at, &w[1]);
                prop_assert!((&blocked - &naive).max_abs() <= 1e-12);
            }
        }
    }
}

fn naive_mul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows());
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

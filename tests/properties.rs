//! Property-based tests (proptest) over the core invariants of the
//! workspace: Lie-group identities, QR reconstruction, elimination ≡
//! dense least squares, and compiler ≡ analytic-solver equivalence on
//! randomized factor graphs.

use orianna::apps::all_apps;
use orianna::compiler::{compile, execute};
use orianna::graph::{
    natural_ordering, BetweenFactor, FactorGraph, GpsFactor, PriorFactor, SmoothFactor,
    VectorPriorFactor,
};
use orianna::lie::{Pose2, Pose3, Rot3, SE3};
use orianna::math::{householder_qr, least_squares, Mat, Parallelism, Vec64};
use orianna::solver::{eliminate, BayesNet, SolvePlan};
use proptest::prelude::*;

fn small() -> impl Strategy<Value = f64> {
    -1.5f64..1.5
}

/// Exact (bitwise) equality of two elimination results — the guarantee
/// the symbolic/numeric split makes: executing a cached [`SolvePlan`]
/// produces the *identical* floats as a fresh plan-less elimination.
fn bitwise_eq(a: &BayesNet, b: &BayesNet) -> bool {
    a.conditionals.len() == b.conditionals.len()
        && a.conditionals.iter().zip(&b.conditionals).all(|(x, y)| {
            x.var == y.var
                && x.r.as_slice() == y.r.as_slice()
                && x.rhs.as_slice() == y.rhs.as_slice()
                && x.parents.len() == y.parents.len()
                && x.parents
                    .iter()
                    .zip(&y.parents)
                    .all(|((pv, pm), (qv, qm))| pv == qv && pm.as_slice() == qm.as_slice())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn so3_exp_log_roundtrip(x in small(), y in small(), z in small()) {
        let back = Rot3::exp([x, y, z]).log();
        let theta = (x * x + y * y + z * z).sqrt();
        prop_assume!(theta < std::f64::consts::PI - 0.05);
        let err = ((back[0] - x).powi(2) + (back[1] - y).powi(2) + (back[2] - z).powi(2)).sqrt();
        prop_assert!(err < 1e-8, "{back:?}");
    }

    #[test]
    fn pose3_group_axioms(
        ax in small(), ay in small(), az in small(),
        tx in small(), ty in small(), tz in small(),
    ) {
        let p = Pose3::from_parts([ax * 0.5, ay * 0.5, az * 0.5], [tx, ty, tz]);
        // p ⊕ p⁻¹ = e and (p ⊕ e) = p.
        let e = p.compose(&p.inverse());
        prop_assert!(e.translation_distance(&Pose3::identity()) < 1e-9);
        prop_assert!(e.rotation_distance(&Pose3::identity()) < 1e-9);
        let q = p.compose(&Pose3::identity());
        prop_assert!(q.translation_distance(&p) < 1e-12);
    }

    #[test]
    fn unified_se3_conversion_roundtrip(
        ax in small(), ay in small(), az in small(),
        tx in small(), ty in small(), tz in small(),
    ) {
        let p = Pose3::from_parts([ax * 0.6, ay * 0.6, az * 0.6], [tx, ty, tz]);
        let back = SE3::from_unified(&p).to_unified();
        prop_assert!(p.translation_distance(&back) < 1e-9);
        prop_assert!(p.rotation_distance(&back) < 1e-9);
    }

    #[test]
    fn qr_reconstructs_random_matrices(vals in prop::collection::vec(small(), 20)) {
        let a = Mat::from_row_major(5, 4, &vals);
        let f = householder_qr(&a);
        prop_assert!((&f.q.mul_mat(&f.r) - &a).norm() < 1e-9);
        prop_assert!(f.r.is_upper_triangular(1e-9));
    }

    #[test]
    fn elimination_equals_dense_least_squares(
        headings in prop::collection::vec(-0.4f64..0.4, 4),
        offsets in prop::collection::vec(-0.5f64..0.5, 8),
    ) {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| {
                g.add_pose2(Pose2::new(
                    headings[i],
                    i as f64 + offsets[2 * i],
                    offsets[2 * i + 1],
                ))
            })
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(w[0], w[1], Pose2::new(0.0, 1.0, 0.0), 0.2));
        }
        g.add_factor(GpsFactor::new(ids[3], &[3.0, 0.0], 0.3));
        let sys = g.linearize();
        let elim = eliminate(&sys, &natural_ordering(&g)).unwrap().0.back_substitute().unwrap();
        let (a, b) = sys.dense();
        let dense = least_squares(&a, &b).unwrap();
        prop_assert!((&elim - &dense).norm() < 1e-7, "{}", (&elim - &dense).norm());
    }

    #[test]
    fn parallel_paths_match_serial_on_random_graphs(
        headings in prop::collection::vec(-0.4f64..0.4, 8),
        offsets in prop::collection::vec(-0.5f64..0.5, 16),
        closure_from in 0usize..3,
        closure_len in 2usize..5,
    ) {
        // A random pose chain with a random loop closure and sporadic GPS:
        // parallel linearization must be bitwise serial, and the parallel
        // arena must solve for the bitwise-same Δ as `eliminate`.
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..8)
            .map(|i| {
                g.add_pose2(Pose2::new(
                    headings[i],
                    i as f64 + offsets[2 * i],
                    offsets[2 * i + 1],
                ))
            })
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(w[0], w[1], Pose2::new(0.0, 1.0, 0.0), 0.2));
        }
        let to = (closure_from + closure_len).min(7);
        g.add_factor(BetweenFactor::pose2(
            ids[closure_from],
            ids[to],
            Pose2::new(0.0, (to - closure_from) as f64, 0.0),
            0.4,
        ));
        for i in (0..8).step_by(3) {
            g.add_factor(GpsFactor::new(ids[i], &[0.0, i as f64], 0.3));
        }

        let par = Parallelism::with_threads(4);
        let serial_sys = g.linearize();
        let par_sys = g.linearize_with(&par);
        for (p, s) in par_sys.factors.iter().zip(&serial_sys.factors) {
            prop_assert_eq!(p.rhs.as_slice(), s.rhs.as_slice());
            for (pb, sb) in p.blocks.iter().zip(&s.blocks) {
                prop_assert_eq!(pb.as_slice(), sb.as_slice());
            }
        }

        let ordering = natural_ordering(&g);
        let reference = eliminate(&serial_sys, &ordering).unwrap().0.back_substitute().unwrap();
        let plan = SolvePlan::for_system(&par_sys, ordering.as_slice()).unwrap();
        let mut ws = plan.workspace();
        let delta = plan.solve_in_with(&par_sys, &mut ws, &par).unwrap();
        prop_assert_eq!(delta.as_slice(), reference.as_slice());
    }

    #[test]
    fn plan_built_once_matches_fresh_solves_across_relinearizations(
        headings in prop::collection::vec(-0.4f64..0.4, 8),
        offsets in prop::collection::vec(-0.5f64..0.5, 16),
        closure_from in 0usize..3,
        closure_len in 2usize..5,
    ) {
        // The symbolic/numeric split contract: a SolvePlan built at the
        // initial linearization point, executed at k later linearization
        // points, is bitwise identical to k fresh plan-less solves —
        // relinearization changes values, never structure.
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..8)
            .map(|i| {
                g.add_pose2(Pose2::new(
                    headings[i],
                    i as f64 + offsets[2 * i],
                    offsets[2 * i + 1],
                ))
            })
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        for w in ids.windows(2) {
            g.add_factor(BetweenFactor::pose2(w[0], w[1], Pose2::new(0.0, 1.0, 0.0), 0.2));
        }
        let to = (closure_from + closure_len).min(7);
        g.add_factor(BetweenFactor::pose2(
            ids[closure_from],
            ids[to],
            Pose2::new(0.0, (to - closure_from) as f64, 0.0),
            0.4,
        ));
        for i in (0..8).step_by(3) {
            g.add_factor(GpsFactor::new(ids[i], &[0.0, i as f64], 0.3));
        }

        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
        let mut ws = plan.workspace();
        let par = Parallelism::with_threads(4);
        for round in 0..3 {
            let sys = g.linearize();
            let (fresh, fresh_stats) = eliminate(&sys, &ordering).unwrap();
            let (planned, stats) = plan.execute(&sys).unwrap();
            prop_assert!(bitwise_eq(&planned, &fresh), "serial round {round}");
            prop_assert_eq!(&stats.steps, &fresh_stats.steps);
            // The parallel arena, reusing one workspace across rounds,
            // must match the fresh elimination bitwise too.
            let delta = plan.solve_in_with(&sys, &mut ws, &par).unwrap();
            let fresh_delta = fresh.back_substitute().unwrap();
            prop_assert!(delta.as_slice() == fresh_delta.as_slice(), "arena round {round}");
            prop_assert_eq!(ws.stats(), fresh_stats.steps.as_slice());
            // Relinearize at the Gauss-Newton step for the next round.
            g.retract_all(&fresh_delta);
        }
    }

    #[test]
    fn compiler_matches_solver_on_random_pose_graphs(
        headings in prop::collection::vec(-0.5f64..0.5, 3),
        positions in prop::collection::vec(-1.0f64..1.0, 6),
        zx in -0.3f64..0.3,
    ) {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..3)
            .map(|i| {
                g.add_pose2(Pose2::new(headings[i], positions[2 * i], positions[2 * i + 1]))
            })
            .collect();
        g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
        g.add_factor(BetweenFactor::pose2(ids[0], ids[1], Pose2::new(zx, 1.0, 0.0), 0.2));
        g.add_factor(BetweenFactor::pose2(ids[1], ids[2], Pose2::new(-zx, 1.0, 0.1), 0.2));
        g.add_factor(BetweenFactor::pose2(ids[0], ids[2], Pose2::new(0.0, 2.0, 0.1), 0.4));

        let ordering = natural_ordering(&g);
        let reference = eliminate(&g.linearize(), &ordering)
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        let prog = compile(&g, &ordering).unwrap();
        let result = execute(&prog, g.values()).unwrap();
        prop_assert!(
            (&result.delta - &reference).norm() < 1e-8,
            "{}",
            (&result.delta - &reference).norm()
        );
    }

    #[test]
    fn compiler_matches_solver_on_random_vector_graphs(
        states in prop::collection::vec(-2.0f64..2.0, 12),
        dt in 0.1f64..1.0,
    ) {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..3)
            .map(|i| g.add_vector(Vec64::from_slice(&states[4 * i..4 * i + 4])))
            .collect();
        g.add_factor(VectorPriorFactor::new(ids[0], Vec64::zeros(4), 0.1));
        for w in ids.windows(2) {
            g.add_factor(SmoothFactor::new(w[0], w[1], 2, dt, 0.3));
        }
        g.add_factor(VectorPriorFactor::new(ids[2], Vec64::from_slice(&[1.0, 0.0, 0.0, 0.0]), 0.2));

        let ordering = natural_ordering(&g);
        let reference = eliminate(&g.linearize(), &ordering)
            .unwrap()
            .0
            .back_substitute()
            .unwrap();
        let prog = compile(&g, &ordering).unwrap();
        let result = execute(&prog, g.values()).unwrap();
        prop_assert!((&result.delta - &reference).norm() < 1e-8);
    }
}

proptest! {
    // Each case eliminates every algorithm of every benchmark app twice
    // per round — a handful of randomized seeds is plenty.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn plan_reuse_matches_planless_on_benchmark_apps(seed in 1u64..100_000) {
        for app in all_apps(seed) {
            for algo in &app.algorithms {
                let mut g = algo.graph.clone();
                let ordering = natural_ordering(&g);
                let plan = SolvePlan::for_graph(&g, ordering.as_slice()).unwrap();
                for round in 0..2 {
                    let sys = g.linearize();
                    let (fresh, _) = eliminate(&sys, &ordering).unwrap();
                    let (planned, _) = plan.execute(&sys).unwrap();
                    prop_assert!(
                        bitwise_eq(&planned, &fresh),
                        "{}/{} round {round}", app.name, algo.name
                    );
                    g.retract_all(&fresh.back_substitute().unwrap());
                }
            }
        }
    }
}

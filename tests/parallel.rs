//! Parallel-vs-serial equivalence for the linearize → eliminate →
//! simulate hot path.
//!
//! The guarantees under test (see DESIGN.md, "Parallel execution"):
//!
//! * parallel linearization is **bitwise identical** to serial, for every
//!   benchmark algorithm and every thread count;
//! * the level-parallel arena solve ([`SolvePlan::solve_in_with`]) is
//!   **bitwise identical** to the reference [`eliminate`] — Δ and the
//!   per-step statistics — for every benchmark algorithm and every thread
//!   count, including when one workspace is reused across thread counts;
//! * batched simulation returns exactly the reports of per-workload
//!   serial simulation, in input order.

use orianna::apps::all_apps;
use orianna::compiler::compile;
use orianna::graph::natural_ordering;
use orianna::hw::{simulate, simulate_batch, HwConfig, IssuePolicy, Workload};
use orianna::math::Parallelism;
use orianna::solver::{eliminate, GaussNewton, GaussNewtonSettings, SolveError, SolvePlan};

#[test]
fn parallel_linearization_is_bitwise_identical_on_all_apps() {
    for app in all_apps(2024) {
        for algo in &app.algorithms {
            let serial = algo.graph.linearize();
            for threads in [2, 4, 8] {
                let par = algo
                    .graph
                    .linearize_with(&Parallelism::with_threads(threads));
                assert_eq!(par.var_dims, serial.var_dims);
                assert_eq!(par.factors.len(), serial.factors.len());
                for (p, s) in par.factors.iter().zip(&serial.factors) {
                    assert_eq!(p.keys, s.keys, "{}/{}", app.name, algo.name);
                    assert_eq!(
                        p.rhs.as_slice(),
                        s.rhs.as_slice(),
                        "{}/{} rhs not bitwise identical",
                        app.name,
                        algo.name
                    );
                    for (pb, sb) in p.blocks.iter().zip(&s.blocks) {
                        assert_eq!(
                            pb.as_slice(),
                            sb.as_slice(),
                            "{}/{} jacobian not bitwise identical",
                            app.name,
                            algo.name
                        );
                    }
                }
            }
        }
    }
}

/// Solves every benchmark algorithm in one arena at each thread count of
/// `threads` in turn and asserts Δ and the step statistics are bitwise
/// those of [`eliminate`].
fn assert_arena_matches_eliminate(seed: u64, threads: &[usize]) {
    for app in all_apps(seed) {
        for algo in &app.algorithms {
            let sys = algo.graph.linearize();
            let ordering = natural_ordering(&algo.graph);
            let (bn, stats) = eliminate(&sys, &ordering)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let reference = bn.back_substitute().unwrap();
            let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
            let mut ws = plan.workspace();
            for &t in threads {
                let delta = plan
                    .solve_in_with(&sys, &mut ws, &Parallelism::with_threads(t))
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
                assert_eq!(
                    delta.as_slice(),
                    reference.as_slice(),
                    "{}/{} threads={t}",
                    app.name,
                    algo.name
                );
                assert_eq!(
                    ws.stats(),
                    stats.steps.as_slice(),
                    "{}/{}",
                    app.name,
                    algo.name
                );
            }
        }
    }
}

#[test]
fn parallel_elimination_matches_serial_on_all_apps() {
    for threads in [2, 3, 8] {
        assert_arena_matches_eliminate(2024, &[threads]);
    }
}

#[test]
fn parallel_elimination_is_threadcount_deterministic() {
    // One workspace serves every setting in turn: its worker scratch,
    // sized by the widest fan-out so far, must not leak into the result.
    assert_arena_matches_eliminate(77, &[2, 8, 3, 1, 8]);
}

#[test]
fn serial_parallelism_falls_back_to_reference_eliminate() {
    let app = &all_apps(31)[0];
    let algo = app.algorithm("localization");
    let sys = algo.graph.linearize();
    let ordering = natural_ordering(&algo.graph);
    let serial = eliminate(&sys, &ordering)
        .unwrap()
        .0
        .back_substitute()
        .unwrap();
    let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
    let mut ws = plan.workspace();
    let gated = plan
        .solve_in_with(&sys, &mut ws, &Parallelism::serial())
        .unwrap();
    assert_eq!(serial.as_slice(), gated.as_slice());
}

#[test]
fn parallel_elimination_detects_unconstrained_variables() {
    use orianna::graph::{FactorGraph, PriorFactor};
    use orianna::lie::Pose2;
    let mut g = FactorGraph::new();
    let a = g.add_pose2(Pose2::new(0.3, 1.0, -1.0));
    let _b = g.add_pose2(Pose2::identity()); // no factor touches b
    g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
    let err = GaussNewton::new(GaussNewtonSettings {
        parallelism: Parallelism::with_threads(4),
        ..Default::default()
    })
    .optimize(&mut g)
    .unwrap_err();
    assert!(matches!(err, SolveError::UnconstrainedVariable(v) if v.0 == 1));
}

#[test]
fn parallel_gauss_newton_reaches_the_serial_optimum() {
    for app in all_apps(909) {
        for algo in &app.algorithms {
            let mut serial = algo.graph.clone();
            let mut parallel = algo.graph.clone();
            let rs = GaussNewton::new(GaussNewtonSettings {
                max_iterations: 15,
                parallelism: Parallelism::serial(),
                ..Default::default()
            })
            .optimize(&mut serial)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let rp = GaussNewton::new(GaussNewtonSettings {
                max_iterations: 15,
                parallelism: Parallelism::with_threads(4),
                ..Default::default()
            })
            .optimize(&mut parallel)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let denom = rs.final_error.max(1e-9);
            assert!(
                (rs.final_error - rp.final_error).abs() / denom < 1e-6,
                "{}/{}: serial {} vs parallel {}",
                app.name,
                algo.name,
                rs.final_error,
                rp.final_error
            );
        }
    }
}

#[test]
fn batched_simulation_equals_sequential_simulation() {
    let apps = all_apps(555);
    let programs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            app.algorithms
                .iter()
                .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).unwrap())
        })
        .collect();
    let workloads: Vec<Workload<'_>> = programs
        .iter()
        .map(|p| Workload::single("stream", p))
        .collect();
    let cfg = HwConfig::minimal();
    let serial: Vec<_> = workloads
        .iter()
        .map(|w| simulate(w, &cfg, IssuePolicy::OutOfOrder))
        .collect();
    for threads in [2, 4, 8] {
        let batch = simulate_batch(
            &workloads,
            &cfg,
            IssuePolicy::OutOfOrder,
            &Parallelism::with_threads(threads),
        );
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.cycles, s.cycles);
            assert_eq!(b.instructions, s.instructions);
            assert_eq!(b.unit_busy, s.unit_busy);
            assert_eq!(b.phase_work, s.phase_work);
        }
    }
}

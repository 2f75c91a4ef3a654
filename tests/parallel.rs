//! Serial-solve equivalence and request-level fan-out.
//!
//! The guarantees under test (see DESIGN.md, "Parallel execution"):
//!
//! * the arena solve ([`SolvePlan::solve_in`]) is **bitwise identical**
//!   to the reference [`eliminate`] — Δ and the per-step statistics — for
//!   every benchmark algorithm, including when one workspace is reused
//!   across solves;
//! * batched simulation, which fans independent workloads out across
//!   worker threads, returns exactly the reports of per-workload serial
//!   simulation, in input order.

use orianna::apps::all_apps;
use orianna::compiler::compile;
use orianna::graph::natural_ordering;
use orianna::hw::{simulate, simulate_batch, HwConfig, IssuePolicy, Workload};
use orianna::math::Parallelism;
use orianna::solver::{eliminate, GaussNewton, SolveError, SolvePlan};

/// Solves every benchmark algorithm `solves` times in one arena and
/// asserts Δ and the step statistics are bitwise those of [`eliminate`]
/// after every solve.
fn assert_arena_matches_eliminate(seed: u64, solves: usize) {
    for app in all_apps(seed) {
        for algo in &app.algorithms {
            let sys = algo.graph.linearize();
            let ordering = natural_ordering(&algo.graph);
            let (bn, stats) = eliminate(&sys, &ordering)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let reference = bn.back_substitute().unwrap();
            let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
            let mut ws = plan.workspace();
            for k in 0..solves {
                let delta = plan
                    .solve_in(&sys, &mut ws)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
                assert_eq!(
                    delta.as_slice(),
                    reference.as_slice(),
                    "{}/{} solve {k}",
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
    assert_arena_matches_eliminate(2024, 3);
}

#[test]
fn parallel_elimination_is_threadcount_deterministic() {
    // One workspace serves five solves in turn: the panels, live-row
    // counts and stats left by one solve must not leak into the next.
    assert_arena_matches_eliminate(77, 5);
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
    let arena = plan.solve_in(&sys, &mut ws).unwrap();
    assert_eq!(serial.as_slice(), arena.as_slice());
}

#[test]
fn parallel_elimination_detects_unconstrained_variables() {
    use orianna::graph::{FactorGraph, PriorFactor};
    use orianna::lie::Pose2;
    let mut g = FactorGraph::new();
    let a = g.add_pose2(Pose2::new(0.3, 1.0, -1.0));
    let _b = g.add_pose2(Pose2::identity()); // no factor touches b
    g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
    let err = GaussNewton::default().optimize(&mut g).unwrap_err();
    assert!(matches!(err, SolveError::UnconstrainedVariable(v) if v.0 == 1));
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

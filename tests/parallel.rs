//! Serial-solve equivalence (see DESIGN.md, "Parallel execution").
//!
//! Solves are serial; threads fan out only across independent requests
//! (server batches, DSE sweeps), and those paths are checked by the
//! server and `orianna-verify` suites. The guarantee under test here is
//! that the arena solve ([`SolvePlan::solve_in`]) is **bitwise
//! identical** to the reference [`eliminate`] — Δ and the per-step
//! statistics — for every benchmark algorithm, including when one
//! workspace is reused across solves — and that a solve reports an
//! unconstrained variable as a structured error.

use orianna::apps::all_apps;
use orianna::graph::natural_ordering;
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
                assert_eq!(ws.stats(), stats.shapes(), "{}/{}", app.name, algo.name);
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

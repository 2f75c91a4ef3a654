//! Parallel execution: solve the same pose-graph serially and with the
//! multi-threaded linearize → eliminate path, and show the results agree.
//!
//! ```text
//! cargo run --release --example parallel_solve
//! ```
//!
//! The parallel path (see DESIGN.md, "Parallel execution") is gated by
//! [`Parallelism`](orianna::math::Parallelism): linearization and the
//! level-scheduled arena solve are both bitwise identical to serial.

use orianna::graph::{BetweenFactor, FactorGraph, GpsFactor, PriorFactor};
use orianna::lie::Pose2;
use orianna::math::Parallelism;
use orianna::solver::{GaussNewton, GaussNewtonSettings, IncrementalSolver, SolveError};
use std::sync::Arc;

fn build() -> FactorGraph {
    // A long noisy pose chain with periodic GPS fixes — enough factors
    // for the parallel linearization threshold to engage.
    let mut graph = FactorGraph::new();
    let poses: Vec<_> = (0..64)
        .map(|i| graph.add_pose2(Pose2::new(0.1, i as f64 * 0.9, -0.2)))
        .collect();
    graph.add_factor(PriorFactor::pose2(poses[0], Pose2::identity(), 0.01));
    for w in poses.windows(2) {
        graph.add_factor(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.05,
        ));
    }
    for (i, p) in poses.iter().enumerate().step_by(8) {
        graph.add_factor(GpsFactor::new(*p, &[i as f64, 0.0], 0.1));
    }
    graph
}

fn main() {
    let mut serial = build();
    let mut parallel = build();

    let rs = GaussNewton::new(GaussNewtonSettings {
        parallelism: Parallelism::serial(),
        ..Default::default()
    })
    .optimize(&mut serial)
    .expect("well-posed graph");
    let rp = GaussNewton::new(GaussNewtonSettings {
        parallelism: Parallelism::with_threads(4),
        ..Default::default()
    })
    .optimize(&mut parallel)
    .expect("well-posed graph");

    println!(
        "serial:   converged={} in {} iterations, objective {:.6e}",
        rs.converged, rs.iterations, rs.final_error
    );
    println!(
        "parallel: converged={} in {} iterations, objective {:.6e}",
        rp.converged, rp.iterations, rp.final_error
    );
    let diff = (rs.final_error - rp.final_error).abs();
    println!("|objective difference| = {diff:.3e}");
    assert!(diff < 1e-9, "serial and parallel runs must agree");

    // Error handling: referencing a variable the solver never saw is a
    // recoverable error, not a panic.
    let mut isam = IncrementalSolver::new();
    let a = isam.add_variable(orianna::graph::Variable::Pose2(Pose2::identity()));
    let ghost = orianna::graph::VarId(42);
    let err = isam
        .update(vec![Arc::new(BetweenFactor::pose2(
            a,
            ghost,
            Pose2::identity(),
            0.1,
        ))])
        .unwrap_err();
    assert!(matches!(err, SolveError::UnknownVariable(v) if v == ghost));
    println!("unknown-variable update rejected cleanly: {err}");
}

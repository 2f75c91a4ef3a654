//! Integration tests for the symbolic/numeric split (DESIGN.md,
//! "Symbolic/numeric split").
//!
//! A [`SolvePlan`] captures everything about an elimination that depends
//! only on graph *structure* — resolved ordering, gather lists, separator
//! layouts, stacked-matrix shapes, and the arena layout. Executing the
//! plan must therefore be indistinguishable from the plan-less path, on
//! every benchmark application:
//!
//! * the arena solve is **bitwise identical** to [`eliminate`] — Δ and
//!   step statistics — under natural and min-degree order;
//! * one plan instance and one workspace serve repeated arena solves,
//!   each bitwise identical to [`eliminate`].

use orianna::apps::all_apps;
use orianna::graph::{min_degree_ordering, natural_ordering};
use orianna::solver::{eliminate, PlanCache, SolvePlan};

#[test]
fn planned_serial_solve_is_bitwise_identical_on_every_app() {
    for app in all_apps(7) {
        for algo in &app.algorithms {
            for ordering in [
                natural_ordering(&algo.graph),
                min_degree_ordering(&algo.graph),
            ] {
                let plan = SolvePlan::for_graph(&algo.graph, ordering.as_slice())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
                let sys = algo.graph.linearize();
                let (reference, ref_stats) = eliminate(&sys, &ordering).unwrap();
                let mut ws = plan.workspace();
                let delta = plan.solve_in(&sys, &mut ws).unwrap();
                assert_eq!(
                    delta.as_slice(),
                    reference.back_substitute().unwrap().as_slice(),
                    "{}/{}",
                    app.name,
                    algo.name
                );
                assert_eq!(ws.stats(), ref_stats.shapes(), "{}/{}", app.name, algo.name);
            }
        }
    }
}

#[test]
fn one_plan_serves_every_parallelism_setting_on_every_app() {
    for app in all_apps(11) {
        for algo in &app.algorithms {
            let ordering = natural_ordering(&algo.graph);
            let plan = SolvePlan::for_graph(&algo.graph, ordering.as_slice()).unwrap();
            let sys = algo.graph.linearize();
            let (bn, stats) = eliminate(&sys, &ordering).unwrap();
            let reference = bn.back_substitute().unwrap();
            let mut ws = plan.workspace();
            for k in 0..3 {
                let delta = plan.solve_in(&sys, &mut ws).unwrap();
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
fn plan_cache_amortizes_symbolic_work_across_apps() {
    // Two passes over the same applications: the second pass must be all
    // cache hits — same topology, same fingerprint.
    let mut cache = PlanCache::new();
    for pass in 0..2 {
        for app in all_apps(42) {
            for algo in &app.algorithms {
                let sys = algo.graph.linearize();
                let plan = cache
                    .get_or_build(sys.structure_fingerprint(), || {
                        SolvePlan::for_system(&sys, natural_ordering(&algo.graph).as_slice())
                    })
                    .unwrap();
                assert!(plan.matches(&sys), "{}/{} pass {pass}", app.name, algo.name);
            }
        }
    }
    assert_eq!(
        cache.hits(),
        cache.misses(),
        "second pass all hits: {cache:?}"
    );
}

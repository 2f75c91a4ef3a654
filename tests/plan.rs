//! Integration tests for the symbolic/numeric split (DESIGN.md,
//! "Symbolic/numeric split").
//!
//! A [`SolvePlan`] captures everything about an elimination that depends
//! only on graph *structure* — resolved ordering, gather lists, separator
//! layouts, stacked-matrix shapes, and the arena layout. Executing the
//! plan must therefore be indistinguishable from the plan-less path, on
//! every benchmark application and under every `Parallelism` setting:
//!
//! * plan execution is **bitwise identical** to [`eliminate`];
//! * one plan instance serves *all* parallelism settings — the arena's
//!   level fan-out is chosen at solve time, not build time, and is bitwise
//!   identical to the serial sweep.

use orianna::apps::all_apps;
use orianna::graph::natural_ordering;
use orianna::math::Parallelism;
use orianna::solver::{eliminate, BayesNet, PlanCache, SolvePlan};

fn conditionals_bitwise_eq(a: &BayesNet, b: &BayesNet) -> bool {
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

#[test]
fn planned_serial_solve_is_bitwise_identical_on_every_app() {
    for app in all_apps(7) {
        for algo in &app.algorithms {
            let ordering = natural_ordering(&algo.graph);
            let plan = SolvePlan::for_graph(&algo.graph, ordering.as_slice())
                .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let sys = algo.graph.linearize();
            let (reference, ref_stats) = eliminate(&sys, &ordering).unwrap();
            let (planned, stats) = plan.execute(&sys).unwrap();
            assert!(
                conditionals_bitwise_eq(&planned, &reference),
                "{}/{}",
                app.name,
                algo.name
            );
            assert_eq!(stats.steps, ref_stats.steps, "{}/{}", app.name, algo.name);
            assert_eq!(
                planned.back_substitute().unwrap().as_slice(),
                reference.back_substitute().unwrap().as_slice(),
                "{}/{}",
                app.name,
                algo.name
            );
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
            let serial_delta = plan.execute(&sys).unwrap().0.back_substitute().unwrap();
            for threads in [2, 4, 8] {
                let mut ws = plan.workspace();
                let delta = plan
                    .solve_in_with(&sys, &mut ws, &Parallelism::with_threads(threads))
                    .unwrap();
                assert_eq!(
                    delta.as_slice(),
                    serial_delta.as_slice(),
                    "{}/{} threads={threads}",
                    app.name,
                    algo.name
                );
            }
        }
    }
}

#[test]
fn plan_cache_amortizes_symbolic_work_across_apps() {
    // Two passes over the same applications: the second pass must be all
    // cache hits — same topology, same ordering tag, same fingerprint.
    let mut cache = PlanCache::new();
    for pass in 0..2 {
        for app in all_apps(42) {
            for algo in &app.algorithms {
                let sys = algo.graph.linearize();
                let plan = cache
                    .get_or_build(sys.structure_fingerprint(), 0, || {
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

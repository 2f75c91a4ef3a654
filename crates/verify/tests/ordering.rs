//! Gauss-Newton, Levenberg-Marquardt and served sessions all eliminate in
//! greedy minimum-degree order. This suite stands in for a runtime
//! ordering scorer: on every benchmark application and every generator
//! family, the min-degree plan never plans more flops than the
//! natural-order plan, so a scorer that compared the two at plan build
//! would pick min-degree on each of them.

use orianna_apps::all_apps;
use orianna_graph::{min_degree_ordering, natural_ordering, FactorGraph};
use orianna_solver::SolvePlan;
use orianna_verify::{generate, Family, GenConfig};

/// `(natural, min-degree)` estimated flops of `g`'s plans.
fn plan_flops(g: &FactorGraph) -> (u64, u64) {
    let flops = |ordering: &[orianna_graph::VarId]| {
        SolvePlan::for_graph(g, ordering)
            .expect("plan builds")
            .estimated_flops()
    };
    (
        flops(natural_ordering(g).as_slice()),
        flops(min_degree_ordering(g).as_slice()),
    )
}

#[test]
fn min_degree_never_plans_more_flops_than_natural_on_apps() {
    for app in all_apps(1000) {
        for algo in &app.algorithms {
            let (natural, min_degree) = plan_flops(&algo.graph);
            assert!(
                min_degree <= natural,
                "{}/{}: min-degree {min_degree} > natural {natural}",
                app.name,
                algo.name
            );
        }
    }
}

#[test]
fn min_degree_never_plans_more_flops_than_natural_on_families() {
    for family in Family::ALL {
        for variables in [16, 64] {
            for seed in 0..4 {
                let g = generate(&GenConfig::new(family, variables, 0.5, seed));
                let (natural, min_degree) = plan_flops(&g);
                assert!(
                    min_degree <= natural,
                    "{family:?}/{variables}/seed {seed}: min-degree {min_degree} > natural {natural}"
                );
            }
        }
    }
}

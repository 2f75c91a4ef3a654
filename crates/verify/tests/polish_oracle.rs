//! Multi-workload polish oracle: on every app of `all_apps` (seeds 0–3),
//! co-designing one accelerator for the app's algorithms over the
//! 10⁴-candidate ZC706 space, the incumbent-bounded polish must land
//! bitwise on the argmin of an exhaustive re-evaluation of its
//! neighborhood, under both aggregates and both objectives.

use orianna_apps::all_apps;
use orianna_compiler::{compile, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{Combine, Objective, Resources, SearchSpace, Workload};
use orianna_verify::check_polish;

/// The `accel_codesign` design space.
fn codesign_space() -> SearchSpace {
    SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ])
}

#[test]
fn multi_workload_polish_is_the_neighborhood_argmin() {
    let space = codesign_space();
    let budget = Resources::zc706();
    for seed in 0..4u64 {
        for (k, app) in all_apps(seed).iter().enumerate() {
            let programs: Vec<_> = app
                .algorithms
                .iter()
                .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).expect("compiles"))
                .collect();
            assert!(programs.len() > 1, "{}: not a multi-workload set", app.name);
            // Unequal weights, so the weighted sum is not a rescaled
            // plain sum.
            let workloads: Vec<(Workload<'_>, f64)> = programs
                .iter()
                .enumerate()
                .map(|(i, p)| (Workload::single("algo", p), 0.5 + 0.75 * i as f64))
                .collect();
            for combine in [Combine::Max, Combine::WeightedSum] {
                for objective in [Objective::Latency, Objective::Energy] {
                    let search_seed = seed * 16 + k as u64;
                    if let Err(v) =
                        check_polish(&workloads, &space, &budget, objective, combine, search_seed)
                    {
                        panic!(
                            "seed {seed} app {}: {combine:?}/{objective:?}: {v}",
                            app.name
                        );
                    }
                }
            }
        }
    }
}

//! Cycle-level simulator invariants across sampled hardware configs
//! (ISSUE: conformance harness, simulator oracle).
//!
//! Workloads are the compiled algorithm streams of all four paper
//! applications; configurations are seeded samples of per-class unit
//! counts. See `orianna_verify::simcheck` for the invariant definitions.

use orianna_apps::all_apps;
use orianna_compiler::{compile, Program};
use orianna_graph::natural_ordering;
use orianna_hw::{HwConfig, IssuePolicy, Workload};
use orianna_verify::simcheck::{check_workload, sample_configs};

/// One compiled stream per application algorithm (12 programs).
fn compiled_programs() -> Vec<(String, Program)> {
    all_apps(42)
        .into_iter()
        .flat_map(|app| {
            app.algorithms
                .into_iter()
                .map(move |alg| {
                    let prog = compile(&alg.graph, &natural_ordering(&alg.graph))
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, alg.name));
                    (format!("{}/{}", app.name, alg.name), prog)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn invariants_hold_across_sampled_configs() {
    let programs = compiled_programs();
    // ≥ 20 sampled configurations with unit counts in 1..=4.
    let configs = sample_configs(24, 4, 0xC0FFEE);
    assert!(configs.len() >= 20);
    for (name, prog) in &programs {
        let workload = Workload::single("stream", prog);
        check_workload(&workload, &configs).unwrap_or_else(|v| panic!("{name}: {v}"));
    }
}

#[test]
fn multi_stream_application_workloads_hold_too() {
    let programs = compiled_programs();
    // Group the three algorithms of each application into one workload.
    let configs = sample_configs(6, 3, 0xBEEF);
    for chunk in programs.chunks(3) {
        let workload = Workload {
            streams: chunk
                .iter()
                .map(|(_, p)| orianna_hw::Stream {
                    name: "algo",
                    program: p,
                })
                .collect(),
        };
        check_workload(&workload, &configs).unwrap_or_else(|v| panic!("{}: {v}", chunk[0].0));
    }
}

#[test]
fn minimal_config_is_the_slowest_sample() {
    // The single-unit-per-class baseline cannot beat any sampled config
    // on total throughput-bound streams… but it CAN tie; assert ≥ on the
    // best sampled config rather than strict dominance.
    let programs = compiled_programs();
    let configs = sample_configs(8, 4, 7);
    let minimal = HwConfig::minimal();
    for (name, prog) in programs.iter().take(3) {
        let workload = Workload::single("stream", prog);
        let base = orianna_hw::simulate(&workload, &minimal, IssuePolicy::OutOfOrder).cycles;
        for c in &configs {
            let got = orianna_hw::simulate(&workload, c, IssuePolicy::OutOfOrder).cycles;
            assert!(got <= base, "{name}: config {c:?} slower than minimal");
        }
    }
}

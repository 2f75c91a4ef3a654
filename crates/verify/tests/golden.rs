//! Golden ISA snapshots of the four paper applications, and the contract
//! between the compiler and the solver: both lay elimination out from the
//! same symbolic schedule.
//!
//! Each application algorithm compiles to a deterministic instruction
//! stream for a fixed seed; the snapshot (count, unit-class histogram,
//! mnemonic stream) is pinned under `crates/verify/golden/`. To accept an
//! intentional compiler change:
//!
//! ```sh
//! ORIANNA_BLESS=1 cargo test -p orianna-verify --test golden
//! ```
//!
//! and commit the rewritten files. On mismatch the observed text is left
//! next to the golden file as `<name>.actual` (uploaded as a CI
//! artifact).

use orianna_apps::all_apps;
use orianna_compiler::{compile, Op};
use orianna_graph::{min_degree_ordering, natural_ordering};
use orianna_solver::SolvePlan;
use orianna_verify::snapshot::{check, render, SnapshotResult};
use std::path::PathBuf;

const SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

#[test]
fn application_isa_streams_are_pinned() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for app in all_apps(SEED) {
        for alg in &app.algorithms {
            let prog = compile(&alg.graph, &natural_ordering(&alg.graph))
                .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, alg.name));
            let name = format!(
                "{}_{}",
                app.name.to_lowercase().replace([' ', '-'], "_"),
                alg.name
            );
            match check(&dir, &name, &render(&prog)).expect("snapshot io") {
                SnapshotResult::Match | SnapshotResult::Blessed => {}
                SnapshotResult::Mismatch {
                    golden_path,
                    actual_path,
                } => failures.push(format!(
                    "{name}: differs from {} (observed at {})",
                    golden_path.display(),
                    actual_path.display()
                )),
                SnapshotResult::MissingGolden {
                    golden_path,
                    actual_path,
                } => failures.push(format!(
                    "{name}: no golden file at {} (observed at {}); run with ORIANNA_BLESS=1",
                    golden_path.display(),
                    actual_path.display()
                )),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden snapshots diverged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn snapshots_are_seed_stable() {
    // The same seed must give byte-identical snapshots across processes;
    // a second in-process build is the cheap proxy.
    let apps1 = all_apps(SEED);
    let apps2 = all_apps(SEED);
    for (a1, a2) in apps1.iter().zip(&apps2) {
        for (g1, g2) in a1.algorithms.iter().zip(&a2.algorithms) {
            let p1 = compile(&g1.graph, &natural_ordering(&g1.graph)).unwrap();
            let p2 = compile(&g2.graph, &natural_ordering(&g2.graph)).unwrap();
            assert_eq!(render(&p1), render(&p2), "{}/{}", a1.name, g1.name);
        }
    }
}

#[test]
fn compiled_qrd_shapes_match_the_solver_plan() {
    // Step by step, the compiled QRD stream must eliminate the frontal the
    // solver's plan eliminates, over the same structural rows × cols, under
    // both orders — the goldens above pin natural order only.
    let mut checked = 0;
    for app in all_apps(SEED) {
        for alg in &app.algorithms {
            for ordering in [
                natural_ordering(&alg.graph),
                min_degree_ordering(&alg.graph),
            ] {
                let prog = compile(&alg.graph, &ordering).unwrap();
                let plan = SolvePlan::for_graph(&alg.graph, ordering.as_slice()).unwrap();
                let qrds: Vec<_> = prog
                    .instrs
                    .iter()
                    .filter_map(|i| match i.op {
                        Op::Qrd { frontal, rows, .. } => Some((frontal, rows, i.dims.1 - 1)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(qrds, plan.step_shapes(), "{}/{}", app.name, alg.name);
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 12, "every app algorithm");
}

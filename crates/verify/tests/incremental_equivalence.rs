//! Differential tests for the Bayes-tree incremental solver (ISSUE 7):
//! streaming update / fluid-relinearize / oldest-first-marginalize
//! sequences over every generator family must keep the incremental Δ
//! within 1e-9 of a full batch re-elimination of the same cached problem
//! after **every** operation.
//!
//! The batch reference executes through the serial `SolvePlan` arena,
//! so running this suite across the `ORIANNA_NO_SIMD` CI matrix checks
//! the incremental path against both panel-kernel dispatches.

use orianna_graph::{BetweenFactor, Factor, PriorFactor, VarId, Variable};
use orianna_lie::Pose2;
use orianna_solver::IncrementalSolver;
use orianna_verify::{check_incremental, Family, GenConfig, INCREMENTAL_TOL};
use proptest::prelude::*;
use std::sync::Arc;

fn family_of(idx: usize) -> Family {
    Family::ALL[idx % Family::ALL.len()]
}

/// Deterministic sweep: every family × a size/density ladder × seeds,
/// case count per family scaled by `ORIANNA_VERIFY_CASES`.
#[test]
fn incremental_matches_batch_across_families() {
    let cases = orianna_verify::cases_per_family(24);
    for family in Family::ALL {
        for case in 0..cases {
            let vars = 4 + (case * 5) % 14;
            let density = (case % 4) as f64 * 0.25;
            let seed = 1000 + case as u64;
            let cfg = GenConfig::new(family, vars, density, seed);
            let rep = check_incremental(&cfg, seed ^ 0xabc, INCREMENTAL_TOL)
                .unwrap_or_else(|v| panic!("{v}"));
            assert!(rep.updates >= 1, "{}: no updates ran", family.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        orianna_verify::cases_per_family(24) as u32
    ))]

    /// Random `(family, size, density, graph seed, ops seed)` points:
    /// the ops seed drives random chunk boundaries and random
    /// relinearize/marginalize interleavings, so the sequence space —
    /// not just the graph space — is fuzzed.
    #[test]
    fn random_op_sequences_match_batch(
        fam in 0usize..4,
        vars in 4usize..14,
        dstep in 0usize..4,
        seed in 0u64..512,
        ops_seed in 0u64..512,
    ) {
        let cfg = GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed);
        let rep = check_incremental(&cfg, ops_seed, INCREMENTAL_TOL)
            .unwrap_or_else(|v| panic!("{v}"));
        prop_assert!(rep.max_diff <= INCREMENTAL_TOL);
    }
}

/// Streaming a long pose chain must touch a bounded number of cliques
/// per update — the whole point of the Bayes tree. The trajectory grows
/// to 300 poses; every odometry update may re-eliminate only an O(1)
/// tail, never the trajectory so far.
#[test]
fn streaming_chain_reeliminates_bounded_cliques() {
    let mut inc = IncrementalSolver::new();
    let v0 = inc.add_variable(Variable::Pose2(Pose2::identity()));
    inc.update(vec![
        Arc::new(PriorFactor::pose2(v0, Pose2::identity(), 0.1)) as Arc<dyn Factor>,
    ])
    .unwrap();
    let mut prev = v0;
    let mut worst = 0usize;
    for k in 1..300 {
        let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.01)));
        let before = inc.cliques_reeliminated();
        inc.update(vec![Arc::new(BetweenFactor::pose2(
            prev,
            v,
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        )) as Arc<dyn Factor>])
            .unwrap();
        worst = worst.max(inc.cliques_reeliminated() - before);
        prev = v;
    }
    assert_eq!(inc.clique_count(), 299);
    assert_eq!(inc.full_rebuilds(), 0, "chain growth never falls back");
    assert!(worst <= 2, "an odometry update touched {worst} cliques");
    // Wildfire keeps back-substitution local: far fewer conditionals
    // were recomputed than the 300 · 300 / 2 a full-sweep-per-update
    // solver would burn.
    assert!(
        inc.wildfire_vars() < 300 * 300 / 8,
        "wildfire recomputed {} conditionals",
        inc.wildfire_vars()
    );
}

/// A loop closure spanning the whole trajectory legitimately touches the
/// root path, but the solution must still match batch — and the next
/// odometry update must drop back to the O(1) regime.
#[test]
fn loop_closure_then_recovery() {
    let mut inc = IncrementalSolver::new();
    let ids: Vec<VarId> = (0..60)
        .map(|i| inc.add_variable(Variable::Pose2(Pose2::new(0.01, i as f64, 0.02))))
        .collect();
    let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
    fs.push(Arc::new(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1)));
    for w in ids.windows(2) {
        fs.push(Arc::new(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        )));
    }
    inc.update(fs).unwrap();
    inc.update(vec![Arc::new(BetweenFactor::pose2(
        ids[0],
        ids[59],
        Pose2::new(0.0, 59.0, 0.0),
        0.3,
    )) as Arc<dyn Factor>])
        .unwrap();
    let reference = orianna_verify::batch_reference(&inc).expect("batch solvable");
    assert!((inc.delta() - &reference).norm() < INCREMENTAL_TOL);
    // Recovery: one more odometry step is O(1) again.
    let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, 60.0, 0.0)));
    let before = inc.cliques_reeliminated();
    inc.update(vec![Arc::new(BetweenFactor::pose2(
        ids[59],
        v,
        Pose2::new(0.0, 1.0, 0.0),
        0.2,
    )) as Arc<dyn Factor>])
        .unwrap();
    assert!(inc.cliques_reeliminated() - before <= 3);
    let reference = orianna_verify::batch_reference(&inc).expect("batch solvable");
    assert!((inc.delta() - &reference).norm() < INCREMENTAL_TOL);
}

//! Equivalence of the design-space enumeration and of the bound-guided
//! proposer against straightforward reference implementations: the
//! odometer enumeration must visit exactly `config_at` order, and the
//! proposer's partial ranking must pick exactly what filtering the whole
//! pool and fully sorting it by `(bound bits, canonical key)` picks.
//! The search's bound table must score every candidate with the bits
//! of the decode-time bound it tabulates.

use orianna_apps::all_apps;
use orianna_compiler::{compile, UnitClass};
use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
use orianna_hw::{
    canon_key, Bound, BoundGuidedProposer, BoundTable, CanonKey, Combine, DseContext, HwConfig,
    Objective, Proposer, ProposerCtx, Resources, SearchSpace, SplitMix64, TrialLog, Workload,
    WorkloadSet,
};
use orianna_lie::Pose2;
use orianna_math::Parallelism;
use std::collections::HashSet;

/// Pool multiplier of `BoundGuidedProposer::new` on spaces too large to
/// enumerate.
const OVERSAMPLE: usize = 16;
/// Largest space `BoundGuidedProposer::new` ranks exhaustively.
const ENUM_CAP: u128 = 65_536;

#[test]
fn enumeration_follows_config_at_order() {
    let spaces = [
        SearchSpace::uniform(3),
        // Special, Memory and BackSub stay pinned at one unit.
        SearchSpace::with_max(&[
            (UnitClass::Qr, 3),
            (UnitClass::MatMul, 2),
            (UnitClass::Vector, 4),
        ]),
        SearchSpace::with_max(&[
            (UnitClass::MatMul, 2),
            (UnitClass::Vector, 1),
            (UnitClass::Special, 3),
            (UnitClass::Memory, 2),
            (UnitClass::Qr, 1),
            (UnitClass::BackSub, 5),
        ]),
    ];
    for space in &spaces {
        let all = space.enumerate();
        assert_eq!(all.len() as u128, space.size());
        for (i, c) in all.iter().enumerate() {
            assert_eq!(*c, space.config_at(i as u128), "index {i} of {space:?}");
        }
    }
}

/// The pre-partial-ranking proposer: drop seen, repeated and over-budget
/// candidates, then fully sort by `(bound bits, key)` and take `n`.
fn reference_pick(
    pool: Vec<HwConfig>,
    n: usize,
    seen: &HashSet<CanonKey>,
    budget: &Resources,
    bound: &dyn Bound,
) -> Vec<HwConfig> {
    let mut fresh: Vec<(u64, CanonKey, HwConfig)> = Vec::new();
    let mut batch: HashSet<CanonKey> = HashSet::new();
    for c in pool {
        let key = canon_key(&c);
        if seen.contains(&key) || batch.contains(&key) || !c.resources().fits(budget) {
            continue;
        }
        batch.insert(key);
        fresh.push((bound.score(&c).to_bits(), key, c));
    }
    fresh.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    fresh.into_iter().take(n).map(|(_, _, c)| c).collect()
}

fn chain_set(poses: usize) -> WorkloadSet {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..poses)
        .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.1)))
        .collect();
    g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
    for w in ids.windows(2) {
        g.add_factor(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        ));
    }
    let prog = compile(&g, &natural_ordering(&g)).expect("chain compiles");
    WorkloadSet::single(
        "chain",
        DseContext::with_parallelism(&Workload::single("chain", &prog), Parallelism::serial()),
        Objective::Latency,
    )
}

/// Runs three proposal rounds of one seeded proposer against the
/// reference, feeding each round's picks (and `extra_seen`) back as the
/// seen set, the way the search driver does.
fn assert_proposer_matches_reference(
    space: &SearchSpace,
    budget: &Resources,
    bound: &dyn Bound,
    n: usize,
    extra_seen: &[HwConfig],
    seed: u64,
) {
    let mut proposer = BoundGuidedProposer::new(seed);
    let mut rng = SplitMix64::new(seed);
    let mut seen: HashSet<CanonKey> = extra_seen.iter().map(canon_key).collect();
    let log = TrialLog::default();
    for round in 0..3 {
        let got = {
            let ctx = ProposerCtx {
                space,
                budget,
                log: &log,
                frontiers: &[],
                seen: &seen,
                bound,
                best_score: None,
            };
            proposer.propose(n, &ctx)
        };
        let pool = if space.size() <= ENUM_CAP {
            space.enumerate()
        } else {
            (0..n * OVERSAMPLE)
                .map(|_| space.random(&mut rng))
                .collect()
        };
        let want = reference_pick(pool, n, &seen, budget, bound);
        assert_eq!(
            got,
            want,
            "round {round}, n {n}, seed {seed}, {} seen, space {space:?}",
            seen.len()
        );
        seen.extend(got.iter().map(canon_key));
    }
}

fn roomy() -> Resources {
    Resources {
        lut: u64::MAX / 4,
        ff: u64::MAX / 4,
        bram: u64::MAX / 4,
        dsp: u64::MAX / 4,
    }
}

#[test]
fn bound_guided_proposer_matches_full_sort_reference() {
    let set = chain_set(6);
    let model_bound = |c: &HwConfig| set.bound_score(c);
    // Few distinct values: long runs of equal bounds exercise the key
    // tie-break.
    let tied_bound = |c: &HwConfig| (c.total_units() % 4) as f64;
    let tight = HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 3))).resources();
    let enumerable = SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ]);
    let small = SearchSpace::uniform(3);
    // 7⁶ = 117 649 candidates: above the enumeration cap, so the pool is
    // an oversampled random draw with repeats (enough that the proposer
    // sometimes has to grow its ranked head).
    let oversampled = SearchSpace::uniform(7);
    assert!(oversampled.size() > ENUM_CAP);
    let mut rng = SplitMix64::new(99);
    let stray: Vec<HwConfig> = (0..40).map(|_| oversampled.random(&mut rng)).collect();

    // The search's own bound: a table over the enumerable space, which
    // scores a whole space at once, and per candidate elsewhere.
    let table = BoundTable::new(&set, &enumerable);
    let table_bound = table.bind(&set);
    let bounds: [&dyn Bound; 3] = [&model_bound, &tied_bound, &table_bound];
    let mut cases = 0;
    for space in [&enumerable, &small, &oversampled] {
        // Seen sets: empty, the first configurations in `config_at`
        // order, and stray configurations (some outside the space or the
        // budget). Later rounds also see every earlier pick.
        let corner_seen: Vec<HwConfig> = (0..12).map(|i| space.config_at(i)).collect();
        for budget in [roomy(), Resources::zc706(), tight] {
            for bound in bounds {
                for n in [0, 1, 6, 50] {
                    for seen in [&[][..], &corner_seen[..], &stray[..]] {
                        let seed = 1000 + cases as u64;
                        assert_proposer_matches_reference(space, &budget, bound, n, seen, seed);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 3 * 3 * 3 * 4 * 3);
}

#[test]
fn bound_table_scores_bound_score_bits_over_the_codesign_space() {
    let space = SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ]);
    let all = space.enumerate();
    // Counts beyond the tabulated space: the table computes those terms
    // directly, with the same bits.
    let beyond = [
        space.max_corner().plus_one(UnitClass::Qr),
        HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 3))),
        HwConfig::with_counts(&[(UnitClass::Memory, 40)]),
    ];
    for app in all_apps(1) {
        let programs: Vec<_> = app
            .algorithms
            .iter()
            .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).expect("compiles"))
            .collect();
        for objective in [Objective::Latency, Objective::Energy] {
            for combine in [Combine::Max, Combine::WeightedSum] {
                let mut set = WorkloadSet::new(objective, combine);
                for (i, prog) in programs.iter().enumerate() {
                    set.push_weighted(
                        "algo",
                        DseContext::with_parallelism(
                            &Workload::single("algo", prog),
                            Parallelism::serial(),
                        ),
                        0.5 + 0.75 * i as f64,
                    );
                }
                let table = BoundTable::new(&set, &space);
                let table = table.bind(&set);
                // Scoring the whole space at once keeps every bit, in
                // `config_at` order.
                let mut visited = Vec::with_capacity(all.len());
                table.for_each_score(&space, &mut |c, s| visited.push((c, s.to_bits())));
                assert_eq!(visited.len(), all.len());
                for ((c, bits), want) in visited.iter().zip(&all) {
                    assert_eq!(c, want);
                    assert_eq!(*bits, set.bound_score(c).to_bits(), "{c:?}");
                }
                for config in all.iter().chain(&beyond) {
                    assert_eq!(
                        table.score(config).to_bits(),
                        set.bound_score(config).to_bits(),
                        "{}: {objective:?}/{combine:?} on {config:?}",
                        app.name
                    );
                    for w in 0..set.len() {
                        assert_eq!(
                            table.cycles(w, config),
                            set.context(w).decoded().lower_bound_cycles(config)
                        );
                    }
                }
            }
        }
    }
}

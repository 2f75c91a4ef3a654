//! Golden fingerprints of the DSE search and the scoreboard. A search
//! trajectory digest covers trial logs, polish neighbourhoods and every
//! `SearchStats` field except the three polish walk counters. The
//! `Max`/`Latency` digest was recorded with the exhaustive multi-workload
//! polish, the `WeightedSum`/`Latency` one with the incumbent-bounded
//! polish before it gained line floors; every cheaper polish must
//! reproduce both byte for byte, while the pinned sums of polish
//! simulations record what it walks. The
//! scoreboard digest was recorded with the node-list scheduler (one heap
//! dependence list per instruction, per-class pool vectors) and
//! map-backed report tallies; the flat issue-ordered layout and
//! `ClassTally` must reproduce every report field bit for bit.

use orianna_apps::all_apps;
use orianna_compiler::{compile, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    canonical_hash, search_default, simulate_decoded, Combine, DecodedWorkload, DseContext,
    HwConfig, IssuePolicy, Objective, Resources, SearchSpace, SearchStats, SimReport, Stream,
    Workload, WorkloadSet,
};
use orianna_math::Parallelism;

/// FNV-1a over bytes: a digest that does not depend on the standard
/// library's hasher.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn canonical_hash_matches_recorded_values() {
    let cases: [(HwConfig, u64); 4] = [
        (HwConfig::minimal(), 0xF08E_1AB8_ECB3_0D80),
        (
            HwConfig::minimal().plus_one(UnitClass::Qr),
            0xA602_8C87_F4EB_8043,
        ),
        (
            HwConfig::with_counts(&[
                (UnitClass::MatMul, 7),
                (UnitClass::Vector, 3),
                (UnitClass::Memory, 10),
                (UnitClass::BackSub, 2),
            ]),
            0xB14D_A404_7E21_D14C,
        ),
        (
            HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 4))),
            0xD760_701B_818F_DF80,
        ),
    ];
    for (i, (config, want)) in cases.iter().enumerate() {
        let got = canonical_hash(config);
        assert_eq!(got, *want, "case {i}: {got:#018X}");
    }
}

/// The `accel_codesign` design space: 10⁴ candidates under ZC706.
fn codesign_space() -> SearchSpace {
    SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ])
}

/// The search trajectory digest and summed polish walks of every app of
/// `all_apps` (seeds 0–3) co-designed over [`codesign_space`] under one
/// objective and aggregate. Workload `i` weighs `0.5 + 0.75 i` (only
/// `Combine::WeightedSum` reads it), so a weighted sum is not a rescaled
/// plain sum.
fn trajectory_digest(objective: Objective, combine: Combine) -> (u64, usize) {
    let space = codesign_space();
    let budget = Resources::zc706();
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    let mut polish_simulations = 0;
    for seed in 0..4u64 {
        for (k, app) in all_apps(seed).iter().enumerate() {
            let mut set = WorkloadSet::new(objective, combine);
            for (i, algo) in app.algorithms.iter().enumerate() {
                let prog = compile(&algo.graph, &natural_ordering(&algo.graph)).expect("compiles");
                set.push_weighted(
                    algo.name,
                    DseContext::with_parallelism(
                        &Workload::single(algo.name, &prog),
                        Parallelism::serial(),
                    ),
                    0.5 + 0.75 * i as f64,
                );
            }
            let got = search_default(&mut set, &space, &budget, seed * 16 + k as u64);
            fnv1a(&mut digest, got.log.to_json_lines().as_bytes());
            // The polish walk counters measure cost, not outcome: they
            // are pinned as one exact sum instead.
            let outcome_stats = SearchStats {
                polish_simulations: 0,
                polish_evaluated: 0,
                polish_bound_skipped: 0,
                ..got.stats
            };
            fnv1a(&mut digest, format!("{outcome_stats:?}").as_bytes());
            for c in &got.polish_neighborhood {
                fnv1a(&mut digest, &canonical_hash(c).to_le_bytes());
            }
            polish_simulations += got.stats.polish_simulations;
        }
    }
    (digest, polish_simulations)
}

#[test]
fn search_trajectories_match_recorded_digest() {
    let (digest, polish_simulations) = trajectory_digest(Objective::Latency, Combine::Max);
    assert_eq!(digest, 0x4A3B_2656_EC63_AB05, "digest {digest:#018X}");
    assert_eq!(polish_simulations, 752, "polish simulations");
}

#[test]
fn weighted_sum_trajectories_match_recorded_digest() {
    let (digest, polish_simulations) = trajectory_digest(Objective::Latency, Combine::WeightedSum);
    assert_eq!(digest, 0x1474_CDDC_C202_DB8B, "digest {digest:#018X}");
    assert_eq!(polish_simulations, 807, "polish simulations");
}

/// SplitMix64: a seeded generator that does not depend on any crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every field of a report, floats by bit pattern.
fn digest_report(h: &mut u64, r: &SimReport) {
    fnv1a(h, &r.cycles.to_le_bytes());
    fnv1a(h, &r.time_ms.to_bits().to_le_bytes());
    fnv1a(h, &r.energy_mj.to_bits().to_le_bytes());
    for map in [&r.unit_busy, &r.contention] {
        fnv1a(h, &(map.len() as u64).to_le_bytes());
        for (c, v) in map.iter() {
            fnv1a(h, &(c.index() as u64).to_le_bytes());
            fnv1a(h, &v.to_le_bytes());
        }
    }
    for (phase, w) in r.phase_work.iter() {
        fnv1a(h, phase.as_bytes());
        fnv1a(h, &w.to_le_bytes());
    }
    fnv1a(h, &(r.instructions as u64).to_le_bytes());
    for shapes in [&r.qrd_shapes, &r.mm_shapes] {
        fnv1a(h, &(shapes.len() as u64).to_le_bytes());
        for (rows, cols) in shapes.iter() {
            fnv1a(h, &(*rows as u64).to_le_bytes());
            fnv1a(h, &(*cols as u64).to_le_bytes());
        }
    }
}

#[test]
fn scoreboard_reports_match_recorded_digest() {
    // Per-class counts: the uniform 1/17/64 corners plus seeded mixes
    // drawn from a ladder that includes 1, 17 and 64.
    const LADDER: [usize; 8] = [1, 2, 3, 4, 7, 10, 17, 64];
    let mut configs = vec![
        HwConfig::minimal(),
        HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 17))),
        HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 64))),
    ];
    let mut rng = 2024u64;
    for _ in 0..9 {
        configs.push(HwConfig::with_counts(&UnitClass::ALL.map(|c| {
            (
                c,
                LADDER[(splitmix(&mut rng) % LADDER.len() as u64) as usize],
            )
        })));
    }
    let apps = all_apps(2024);
    let programs: Vec<Vec<_>> = apps
        .iter()
        .map(|app| {
            app.algorithms
                .iter()
                .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).expect("compiles"))
                .collect()
        })
        .collect();
    let mut workloads: Vec<Workload<'_>> = Vec::new();
    for (app, progs) in apps.iter().zip(&programs) {
        // Each algorithm alone, then the whole app as one multi-stream
        // workload (cross-stream issue).
        for (algo, prog) in app.algorithms.iter().zip(progs) {
            workloads.push(Workload::single(algo.name, prog));
        }
        workloads.push(Workload {
            streams: app
                .algorithms
                .iter()
                .zip(progs)
                .map(|(algo, program)| Stream {
                    name: algo.name,
                    program,
                })
                .collect(),
        });
    }
    assert_eq!(workloads.len(), 16);
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for workload in &workloads {
        let decoded = DecodedWorkload::decode(workload);
        for config in &configs {
            for policy in [IssuePolicy::OutOfOrder, IssuePolicy::InOrder] {
                digest_report(&mut digest, &simulate_decoded(&decoded, config, policy));
            }
        }
    }
    assert_eq!(digest, 0xE117_5D23_43A8_5CE1, "digest {digest:#018X}");
}

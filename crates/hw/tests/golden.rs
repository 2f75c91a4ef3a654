//! Golden fingerprints of the DSE search. The expected values were
//! recorded with the keyed-map `HwConfig` and the full-sort bound-guided
//! proposer; the count-array configuration and the rank-then-walk
//! proposer must reproduce them byte for byte.

use orianna_apps::all_apps;
use orianna_compiler::{compile, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    canonical_hash, search_default, Combine, DseContext, HwConfig, Objective, Resources,
    SearchSpace, Workload, WorkloadSet,
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

#[test]
fn search_trajectories_match_recorded_digest() {
    let space = codesign_space();
    let budget = Resources::zc706();
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for seed in 0..4u64 {
        for (k, app) in all_apps(seed).iter().enumerate() {
            let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
            for algo in &app.algorithms {
                let prog = compile(&algo.graph, &natural_ordering(&algo.graph)).expect("compiles");
                set.push(
                    algo.name,
                    DseContext::with_parallelism(
                        &Workload::single(algo.name, &prog),
                        Parallelism::serial(),
                    ),
                );
            }
            let got = search_default(&mut set, &space, &budget, seed * 16 + k as u64);
            fnv1a(&mut digest, got.log.to_json_lines().as_bytes());
            fnv1a(&mut digest, format!("{:?}", got.stats).as_bytes());
            for c in &got.polish_neighborhood {
                fnv1a(&mut digest, &canonical_hash(c).to_le_bytes());
            }
        }
    }
    assert_eq!(digest, 0xD393_F1A0_9EE9_A99C, "digest {digest:#018X}");
}

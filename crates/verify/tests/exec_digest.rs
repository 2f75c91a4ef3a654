//! Golden fingerprint of the functional executor. For every paper
//! application (seeds 0–3, natural ordering) and a seeded sweep of the
//! generated graph families, the digest covers the bits of the solution
//! Δ, the shape and bits of every register after the run, and the MAC
//! count `execute` records. It was recorded with the `Mat`-per-register
//! executor and the full-width Householder apply; the flat register
//! arena and the live-column apply must reproduce it bit for bit.

use orianna_apps::all_apps;
use orianna_compiler::{compile, execute, Reg};
use orianna_graph::{natural_ordering, FactorGraph};
use orianna_math::macs;
use orianna_verify::{generate, Family, GenConfig};

/// FNV-1a over bytes: a digest that does not depend on the standard
/// library's hasher.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Compiles `g` in natural order, executes it, and folds the MAC count,
/// Δ and every register into `h`. Returns the instruction count.
fn digest_execution(h: &mut u64, g: &FactorGraph) -> usize {
    let prog = compile(g, &natural_ordering(g)).expect("compiles");
    let (result, n_macs) = macs::measure(|| execute(&prog, g.values()).expect("executes"));
    fnv1a(h, &n_macs.to_le_bytes());
    fnv1a(h, &(result.delta.len() as u64).to_le_bytes());
    for x in result.delta.as_slice() {
        fnv1a(h, &x.to_bits().to_le_bytes());
    }
    for i in 0..prog.num_regs() {
        match result.try_reg(Reg(i)) {
            Ok(m) => {
                fnv1a(h, &(m.rows() as u64).to_le_bytes());
                fnv1a(h, &(m.cols() as u64).to_le_bytes());
                for x in m.as_slice() {
                    fnv1a(h, &x.to_bits().to_le_bytes());
                }
            }
            Err(_) => fnv1a(h, b"unwritten"),
        }
    }
    prog.instrs.len()
}

#[test]
fn application_executions_match_recorded_digest() {
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    let mut instructions = 0;
    for seed in 0..4u64 {
        for app in all_apps(seed) {
            for algo in &app.algorithms {
                instructions += digest_execution(&mut digest, &algo.graph);
            }
        }
    }
    assert_eq!(digest, 0xE600_B8E4_820E_2C21, "digest {digest:#018X}");
    assert_eq!(instructions, 39_540, "instructions");
}

#[test]
fn family_executions_match_recorded_digest() {
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for family in Family::ALL {
        for case in 0..40u64 {
            let variables = 3 + (case % 8) as usize;
            let density = (case % 5) as f64 * 0.25;
            let g = generate(&GenConfig::new(
                family,
                variables,
                density,
                0x5EED_0000 + case,
            ));
            digest_execution(&mut digest, &g);
        }
    }
    assert_eq!(digest, 0xB191_8E2D_46A8_877B, "digest {digest:#018X}");
}

//! Golden fingerprint of the compiler's output. The digest folds every
//! field of every instruction (operation payloads and parameters by their
//! float bits, `Qrd` gather lists included) and the program's factor
//! RHS and Jacobian registers, elimination and back-substitution indices
//! and variable dimensions. It covers the paper applications (seeds 0–3,
//! natural and min-degree order), every generated graph family, and
//! hand-built graphs whose factors share or split numbers by their bits.
//! The golden mnemonic snapshots cannot see a changed register, level,
//! payload or constant share; this test does. It was recorded with the
//! compiler that lowered and differentiated every factor afresh; the
//! per-structure emission templates must reproduce it bit for bit.

use orianna_apps::all_apps;
use orianna_compiler::{compile, Op, Phase, Program, VarComp};
use orianna_graph::{
    min_degree_ordering, natural_ordering, BetweenFactor, CameraFactor, CameraModel,
    CollisionFactor, DynamicsFactor, FactorGraph, GpsFactor, PriorFactor, SmoothFactor,
    VectorPriorFactor,
};
use orianna_lie::{Pose2, Pose3};
use orianna_math::{Mat, Vec64};
use orianna_verify::{generate, Family, GenConfig};

/// FNV-1a over bytes: a digest that does not depend on the standard
/// library's hasher.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn word(h: &mut u64, x: usize) {
    fnv1a(h, &(x as u64).to_le_bytes());
}

fn float(h: &mut u64, x: f64) {
    fnv1a(h, &x.to_bits().to_le_bytes());
}

fn mat(h: &mut u64, m: &Mat) {
    word(h, m.rows());
    word(h, m.cols());
    for x in m.as_slice() {
        float(h, *x);
    }
}

fn op(h: &mut u64, op: &Op) {
    fnv1a(h, op.mnemonic().as_bytes());
    match op {
        Op::Input { var, comp } => {
            word(h, var.0);
            word(
                h,
                match comp {
                    VarComp::Phi => 0,
                    VarComp::Trans => 1,
                    VarComp::Full => 2,
                },
            );
        }
        Op::Const(m) => mat(h, m),
        Op::Exp
        | Op::Log
        | Op::Rt
        | Op::Rr
        | Op::Rv
        | Op::Skew
        | Op::Jr
        | Op::JrInv
        | Op::Mm
        | Op::Norm => {}
        Op::Vp { sub } => word(h, usize::from(*sub)),
        Op::Scale(s) => float(h, *s),
        Op::Pack { horizontal } => word(h, usize::from(*horizontal)),
        Op::Slice { start, len } => {
            word(h, *start);
            word(h, *len);
        }
        Op::Proj { fx, fy, cx, cy } => {
            for x in [fx, fy, cx, cy] {
                float(h, *x);
            }
        }
        Op::ProjJac { fx, fy } => {
            float(h, *fx);
            float(h, *fy);
        }
        Op::Hinge(c) | Op::HingeJac(c) => float(h, *c),
        Op::Qrd {
            frontal,
            frontal_dim,
            seps,
            gather,
            new_factor_deps,
            rows,
        } => {
            word(h, frontal.0);
            word(h, *frontal_dim);
            word(h, seps.len());
            for (v, d) in seps {
                word(h, v.0);
                word(h, *d);
            }
            word(h, gather.len());
            for g in gather {
                word(h, g.key_regs.len());
                for (v, r) in &g.key_regs {
                    word(h, v.0);
                    word(h, r.0);
                }
                word(h, g.rhs_reg.0);
                word(h, g.rows);
            }
            word(h, new_factor_deps.len());
            for d in new_factor_deps {
                word(h, *d);
            }
            word(h, *rows);
        }
        Op::Bsub { var, parents } => {
            word(h, var.0);
            word(h, parents.len());
            for p in parents {
                word(h, p.0);
            }
        }
    }
}

/// Folds every field of `prog` into `h`.
fn digest_program(h: &mut u64, prog: &Program) {
    word(h, prog.instrs.len());
    for i in &prog.instrs {
        word(h, i.id);
        op(h, &i.op);
        word(h, i.dst.0);
        word(h, i.srcs.len());
        for s in &i.srcs {
            word(h, s.0);
        }
        word(h, i.level);
        word(h, i.factor.map_or(usize::MAX, |f| f));
        word(
            h,
            match i.phase {
                Phase::Construct => 0,
                Phase::Eliminate => 1,
                Phase::BackSub => 2,
            },
        );
        word(h, i.dims.0);
        word(h, i.dims.1);
    }
    word(h, prog.factor_rhs.len());
    for r in &prog.factor_rhs {
        word(h, r.0);
    }
    word(h, prog.factor_jacobians.len());
    for jacs in &prog.factor_jacobians {
        word(h, jacs.len());
        for (v, r) in jacs {
            word(h, v.0);
            word(h, r.0);
        }
    }
    for list in [&prog.elimination, &prog.back_subs] {
        word(h, list.len());
        for (v, i) in list {
            word(h, v.0);
            word(h, *i);
        }
    }
    word(h, prog.var_dims.len());
    for d in &prog.var_dims {
        word(h, *d);
    }
}

/// Compiles `g` in natural and min-degree order and folds both programs
/// (or the compile error's text) into `h`. Returns the instruction count
/// of the programs that compiled.
fn digest_graph(h: &mut u64, g: &FactorGraph) -> usize {
    let mut instructions = 0;
    for ordering in [natural_ordering(g), min_degree_ordering(g)] {
        match compile(g, &ordering) {
            Ok(prog) => {
                digest_program(h, &prog);
                instructions += prog.instrs.len();
            }
            Err(e) => fnv1a(h, format!("error: {e}").as_bytes()),
        }
    }
    instructions
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[test]
fn application_programs_match_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut instructions = 0;
    for seed in 0..4u64 {
        for app in all_apps(seed) {
            for algo in &app.algorithms {
                instructions += digest_graph(&mut digest, &algo.graph);
            }
        }
    }
    assert_eq!(digest, 0xE280_6960_232F_9421, "digest {digest:#018X}");
    assert_eq!(instructions, 79_080, "instructions");
}

#[test]
fn family_programs_match_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut instructions = 0;
    for family in Family::ALL {
        for case in 0..24u64 {
            let variables = 3 + (case % 8) as usize;
            let density = (case % 5) as f64 * 0.25;
            let g = generate(&GenConfig::new(
                family,
                variables,
                density,
                0xD16E_0000 + case,
            ));
            instructions += digest_graph(&mut digest, &g);
        }
    }
    assert_eq!(digest, 0x672F_A7B1_7398_BD88, "digest {digest:#018X}");
    assert_eq!(instructions, 53_786, "instructions");
}

/// Planar states `[x, y, vx, vy]`, three of them in a chain with priors
/// at both ends.
fn planning_chain(g: &mut FactorGraph) -> Vec<orianna_graph::VarId> {
    let xs: Vec<_> = (0..3)
        .map(|i| g.add_vector(Vec64::from_slice(&[i as f64, 0.5, 1.0, 0.0])))
        .collect();
    g.add_factor(VectorPriorFactor::new(
        xs[0],
        Vec64::from_slice(&[0.0, 0.5, 1.0, 0.0]),
        0.1,
    ));
    for w in xs.windows(2) {
        g.add_factor(SmoothFactor::new(w[0], w[1], 2, 0.5, 0.3));
    }
    g.add_factor(VectorPriorFactor::new(
        xs[2],
        Vec64::from_slice(&[2.0, 0.5, 1.0, 0.0]),
        0.1,
    ));
    xs
}

/// Collision factors whose obstacles share a centre (bit-equal constants
/// merge in the MO-DFG), share a centre and a radius (the whole hinge
/// merges), or differ only in the sign of a zero.
fn collision_edges() -> FactorGraph {
    let mut g = FactorGraph::new();
    let xs = planning_chain(&mut g);
    g.add_factor(CollisionFactor::new(
        xs[1],
        2,
        vec![([1.0, 0.4], 0.5), ([1.0, 0.4], 0.5)],
        0.25,
        0.5,
    ));
    g.add_factor(CollisionFactor::new(
        xs[1],
        2,
        vec![([1.0, 0.4], 0.5), ([1.0, 0.4], 0.75)],
        0.25,
        0.5,
    ));
    g.add_factor(CollisionFactor::new(
        xs[2],
        2,
        vec![([0.0, 0.0], 0.5), ([-0.0, 0.0], 0.5), ([3.0, 1.0], 0.5)],
        0.25,
        0.5,
    ));
    g.add_factor(CollisionFactor::new(
        xs[0],
        2,
        vec![([2.0, 0.5], 0.5), ([-1.0, 0.5], 0.5)],
        0.25,
        0.5,
    ));
    g
}

/// Linear factors with a zero, a negative-zero and a non-zero RHS, two
/// bit-equal blocks, and two keys naming the same variable.
fn linear_edges(repeated_key: bool) -> FactorGraph {
    let mut g = FactorGraph::new();
    let xs = planning_chain(&mut g);
    g.add_factor(VectorPriorFactor::new(xs[1], Vec64::zeros(4), 0.5));
    g.add_factor(VectorPriorFactor::new(
        xs[1],
        Vec64::from_slice(&[-0.0, 0.0, -0.0, 0.0]),
        0.5,
    ));
    g.add_factor(VectorPriorFactor::new(
        xs[1],
        Vec64::from_slice(&[1.0, 0.0, -0.0, 2.0]),
        0.5,
    ));
    let u = g.add_vector(Vec64::from_slice(&[0.1, 0.2, 0.3, 0.4]));
    g.add_factor(VectorPriorFactor::new(u, Vec64::zeros(4), 1.0));
    let a = Mat::identity(4).scale(0.5);
    g.add_factor(DynamicsFactor::new(xs[0], u, xs[1], a.clone(), a, 0.2));
    if repeated_key {
        g.add_factor(SmoothFactor::new(xs[2], xs[2], 2, 0.5, 0.3));
    }
    g
}

/// Pose factors whose measurements hold `0.0` and `-0.0`, equal and
/// unequal camera intrinsics, and priors whose payloads equal the
/// structural constants (identity rotations, zero translations).
fn pose_edges() -> FactorGraph {
    let mut g = FactorGraph::new();
    let a = g.add_pose2(Pose2::new(0.1, 0.2, 0.3));
    let b = g.add_pose2(Pose2::new(0.2, 1.2, 0.3));
    g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
    g.add_factor(PriorFactor::pose2(b, Pose2::new(0.0, -0.0, 0.0), 0.1));
    g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 1.0));
    g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(-0.0, 1.0, -0.0), 1.0));
    g.add_factor(GpsFactor::new(a, &[0.0, 0.0], 1.0));
    g.add_factor(GpsFactor::new(b, &[0.0, -0.0], 1.0));

    let p = g.add_pose3(Pose3::from_parts([0.05, -0.02, 0.1], [0.2, -0.1, 0.0]));
    let q = g.add_pose3(Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]));
    g.add_factor(PriorFactor::pose3(p, Pose3::identity(), 0.05));
    g.add_factor(PriorFactor::pose3(
        q,
        Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]),
        0.05,
    ));
    g.add_factor(BetweenFactor::pose3(
        p,
        q,
        Pose3::from_parts([0.0, 0.1, 0.0], [0.8, 0.1, 0.0]),
        0.2,
    ));
    let l = g.add_point3([0.5, 0.3, 4.0]);
    let m = g.add_point3([-0.5, 0.2, 5.0]);
    let square = CameraModel {
        fx: 320.0,
        fy: 320.0,
        cx: 320.0,
        cy: 240.0,
    };
    g.add_factor(CameraFactor::new(
        p,
        l,
        [350.0, 270.0],
        CameraModel::default(),
        1.0,
    ));
    g.add_factor(CameraFactor::new(q, l, [300.0, 255.0], square, 1.0));
    g.add_factor(CameraFactor::new(p, m, [320.0, 240.0], square, 1.0));
    g.add_factor(CameraFactor::new(
        q,
        m,
        [310.0, 250.0],
        CameraModel::default(),
        1.0,
    ));
    g
}

/// Graphs the compiler rejects: a GPS prior on a point (which has no
/// translation component) and a planar GPS fix on a spatial pose (a
/// typed lowering error naming both dimensions; the digest folds the
/// error's text).
fn error_edges() -> Vec<FactorGraph> {
    let mut point = FactorGraph::new();
    let x = point.add_point2([1.0, 2.0]);
    point.add_factor(PriorFactor::point2(x, [1.0, 2.0], 0.5));
    let mut shape = FactorGraph::new();
    let p = shape.add_pose3(Pose3::identity());
    shape.add_factor(PriorFactor::pose3(p, Pose3::identity(), 0.1));
    shape.add_factor(GpsFactor::new(p, &[1.0, 2.0], 0.5));
    vec![point, shape]
}

#[test]
fn edge_programs_match_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut instructions = 0;
    for g in [
        collision_edges(),
        linear_edges(false),
        linear_edges(true),
        pose_edges(),
    ]
    .iter()
    .chain(&error_edges())
    {
        instructions += digest_graph(&mut digest, g);
    }
    assert_eq!(digest, 0x256C_F0BA_322C_EA9B, "digest {digest:#018X}");
    assert_eq!(instructions, 1_100, "instructions");
}

//! Golden fingerprint of the Gauss-Newton construction phase. The digest
//! folds every key, block shape and block/RHS float bit of
//! `FactorGraph::linearize`, every per-factor `weighted_squared_error`, the
//! MAC counts of linearization and objective evaluation, and the final
//! values, objective and iteration count of Gauss-Newton and
//! Levenberg-Marquardt runs. It covers the paper applications (seeds 0–3,
//! solved through one shared `PlanCache` so later seeds start from parked
//! buffers), every generated graph family, and hand-built graphs with a
//! custom factor, robust wrappers, point priors, kinematic limits and a
//! linear container. It was recorded with the allocating construction
//! path that built each row from `Mat`/`Vec64` temporaries; the in-place
//! `Factor::linearize_into` must reproduce it bit for bit.

use orianna_apps::all_apps;
use orianna_graph::{
    BetweenFactor, CameraFactor, CameraModel, CollisionFactor, CustomFactor, DynamicsFactor,
    FactorGraph, GpsFactor, ImuFactor, KinematicsFactor, LinearContainerFactor, Loss, PriorFactor,
    RobustFactor, SmoothFactor, Variable, VectorPriorFactor,
};
use orianna_lie::{Pose2, Pose3};
use orianna_math::{macs, Mat, Vec64};
use orianna_solver::{
    GaussNewton, GaussNewtonSettings, LevenbergMarquardt, LevenbergMarquardtSettings, PlanCache,
};
use orianna_verify::{generate, Family, GenConfig};

/// FNV-1a over bytes: a digest that does not depend on the standard
/// library's hasher.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn word(h: &mut u64, x: u64) {
    fnv1a(h, &x.to_le_bytes());
}

fn float(h: &mut u64, x: f64) {
    fnv1a(h, &x.to_bits().to_le_bytes());
}

fn floats(h: &mut u64, xs: &[f64]) {
    word(h, xs.len() as u64);
    for x in xs {
        float(h, *x);
    }
}

/// Folds every estimate of `g`, variable by variable.
fn digest_values(h: &mut u64, g: &FactorGraph) {
    for (id, v) in g.values().iter() {
        word(h, id.0 as u64);
        match v {
            Variable::Pose2(p) => floats(h, &[p.theta(), p.x(), p.y()]),
            Variable::Pose3(p) => {
                floats(h, &p.phi());
                floats(h, &p.translation());
            }
            Variable::Point2(p) => floats(h, p),
            Variable::Point3(p) => floats(h, p),
            Variable::Vector(x) => floats(h, x.as_slice()),
        }
    }
}

/// Folds the linearized system, the per-factor objective terms and the
/// MACs of both into `h`.
fn digest_construction(h: &mut u64, g: &FactorGraph) {
    let (sys, lin_macs) = macs::measure(|| g.linearize());
    word(h, lin_macs);
    floats(
        h,
        &sys.var_dims.iter().map(|&d| d as f64).collect::<Vec<_>>(),
    );
    word(h, sys.factors.len() as u64);
    for f in &sys.factors {
        word(h, f.keys.len() as u64);
        for (k, b) in f.keys.iter().zip(&f.blocks) {
            word(h, k.0 as u64);
            word(h, b.rows() as u64);
            word(h, b.cols() as u64);
            floats(h, b.as_slice());
        }
        floats(h, f.rhs.as_slice());
    }
    let (terms, err_macs) = macs::measure(|| {
        g.factors()
            .iter()
            .map(|f| f.weighted_squared_error(g.values()))
            .collect::<Vec<_>>()
    });
    word(h, err_macs);
    floats(h, &terms);
    let (total, total_macs) = macs::measure(|| g.total_error());
    word(h, total_macs);
    float(h, total);
}

/// Runs GN and LM on clones of `g` (through `cache` for GN) and folds the
/// outcomes and final values into `h`.
fn digest_solves(h: &mut u64, g: &FactorGraph, gn: GaussNewtonSettings, cache: &mut PlanCache) {
    let mut gg = g.clone();
    match GaussNewton::new(gn).optimize_with_cache(&mut gg, cache) {
        Ok(r) => {
            word(h, r.iterations as u64);
            float(h, r.initial_error);
            float(h, r.final_error);
            word(h, u64::from(r.converged));
        }
        Err(e) => fnv1a(h, format!("gn error: {e}").as_bytes()),
    }
    digest_values(h, &gg);
    let mut lg = g.clone();
    match LevenbergMarquardt::new(LevenbergMarquardtSettings::default()).optimize(&mut lg) {
        Ok(r) => {
            word(h, r.iterations as u64);
            float(h, r.initial_error);
            float(h, r.final_error);
            word(h, u64::from(r.converged));
            float(h, r.final_lambda);
        }
        Err(e) => fnv1a(h, format!("lm error: {e}").as_bytes()),
    }
    digest_values(h, &lg);
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The mission harness's settings: the algorithm's budget, no line search.
fn mission_settings(iterations: u64) -> GaussNewtonSettings {
    GaussNewtonSettings {
        max_iterations: iterations as usize,
        max_step_halvings: 0,
        ..Default::default()
    }
}

#[test]
fn application_construction_matches_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut cache = PlanCache::new();
    for seed in 0..4u64 {
        for app in all_apps(seed) {
            for algo in &app.algorithms {
                digest_construction(&mut digest, &algo.graph);
                digest_solves(
                    &mut digest,
                    &algo.graph,
                    mission_settings(algo.iterations),
                    &mut cache,
                );
            }
        }
    }
    assert_eq!(digest, 0x1F09_FFB2_1F02_1CC8, "digest {digest:#018X}");
}

#[test]
fn family_construction_matches_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut cache = PlanCache::new();
    for family in Family::ALL {
        for case in 0..12u64 {
            let variables = 3 + (case % 8) as usize;
            let density = (case % 5) as f64 * 0.25;
            let g = generate(&GenConfig::new(
                family,
                variables,
                density,
                0x11E4_0000 + case,
            ));
            digest_construction(&mut digest, &g);
            digest_solves(&mut digest, &g, GaussNewtonSettings::default(), &mut cache);
        }
    }
    assert_eq!(digest, 0x748B_BD76_75CC_95F3, "digest {digest:#018X}");
}

/// A planar pose chain with robust loop closures (one outlier), a custom
/// range factor and a GPS fix.
fn robust_custom_graph() -> FactorGraph {
    let mut g = FactorGraph::new();
    let xs: Vec<_> = (0..5)
        .map(|i| g.add_pose2(Pose2::new(0.05 * i as f64, 1.1 * i as f64, -0.1)))
        .collect();
    g.add_factor(PriorFactor::pose2(xs[0], Pose2::identity(), 0.05));
    for w in xs.windows(2) {
        g.add_factor(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.1,
        ));
    }
    g.add_factor(RobustFactor::new(
        BetweenFactor::pose2(xs[0], xs[4], Pose2::new(0.0, 4.0, 0.0), 0.2),
        Loss::Huber(1.345),
    ));
    g.add_factor(RobustFactor::new(
        BetweenFactor::pose2(xs[1], xs[3], Pose2::new(0.5, 9.0, 1.0), 0.2),
        Loss::Cauchy(1.0),
    ));
    g.add_factor(RobustFactor::new(
        GpsFactor::new(xs[2], &[2.0, 0.1], 0.5),
        Loss::L2,
    ));
    g.add_factor(CustomFactor::new(
        vec![xs[0], xs[4]],
        1,
        0.3,
        |vals, keys| {
            let a = vals.get(keys[0]).as_pose2();
            let b = vals.get(keys[1]).as_pose2();
            Vec64::from_slice(&[a.translation_distance(b) - 4.0])
        },
    ));
    g
}

/// Spatial poses, landmarks and points exercising every pose-factor
/// variant, point priors and a camera factor near the depth clamp.
fn spatial_graph() -> FactorGraph {
    let mut g = FactorGraph::new();
    let p = g.add_pose3(Pose3::from_parts([0.05, -0.02, 0.1], [0.2, -0.1, 0.0]));
    let q = g.add_pose3(Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]));
    g.add_factor(PriorFactor::pose3(p, Pose3::identity(), 0.05));
    g.add_factor(ImuFactor::pose3(
        p,
        q,
        Pose3::from_parts([0.0, 0.1, 0.0], [0.8, 0.1, 0.0]),
        0.2,
    ));
    g.add_factor(GpsFactor::new(q, &[1.1, 0.0, -0.1], 0.5));
    g.add_factor(RobustFactor::new(
        PriorFactor::pose3(q, Pose3::from_parts([0.0, 0.1, 0.0], [1.0, 0.0, 0.0]), 0.5),
        Loss::Huber(0.5),
    ));
    let l = g.add_point3([0.5, 0.3, 4.0]);
    let m = g.add_point3([-0.5, 0.2, 5.0]);
    g.add_factor(PriorFactor::point3(l, [0.5, 0.3, 4.1], 1.0));
    g.add_factor(PriorFactor::point3(m, [-0.4, 0.2, 5.0], 1.0));
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
    g.add_factor(CameraFactor::new(p, m, [320.0, 240.0], square, 2.0));
    g.add_factor(CameraFactor::new(q, m, [310.0, 250.0], square, 1.0));
    let a = g.add_point2([1.0, 2.0]);
    g.add_factor(PriorFactor::point2(a, [1.5, 1.0], 0.25));
    g
}

/// Planar states `[x, y, vx, vy]` with smoothness, dynamics, weighted
/// priors, kinematic transitions, an active and an inactive speed limit,
/// a collision hinge inside and outside its margin, and a linear
/// container anchored at the initial estimates.
fn planning_graph() -> FactorGraph {
    let mut g = FactorGraph::new();
    let xs: Vec<_> = (0..4)
        .map(|i| g.add_vector(Vec64::from_slice(&[i as f64 * 0.6, 0.5, 1.0, -0.0])))
        .collect();
    let u = g.add_vector(Vec64::from_slice(&[0.1, -0.2]));
    g.add_factor(VectorPriorFactor::new(
        xs[0],
        Vec64::from_slice(&[0.0, 0.5, 1.0, 0.0]),
        0.1,
    ));
    g.add_factor(VectorPriorFactor::weighted(
        xs[3],
        Vec64::from_slice(&[2.0, 0.5, 1.0, 0.0]),
        Mat::from_diag(&[2.0, 1.0, 0.5, -0.0]),
        0.2,
    ));
    g.add_factor(SmoothFactor::new(xs[0], xs[1], 2, 0.5, 0.3));
    g.add_factor(SmoothFactor::new(xs[1], xs[2], 2, 0.5, 0.3));
    let f = Mat::from_rows(&[
        &[1.0, 0.0, 0.5, 0.0],
        &[0.0, 1.0, 0.0, 0.5],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ]);
    g.add_factor(KinematicsFactor::transition(xs[2], xs[3], f, 0.4));
    let b = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 0.0], &[0.5, 0.0], &[0.0, 0.5]]);
    g.add_factor(DynamicsFactor::new(
        xs[1],
        u,
        xs[2],
        Mat::identity(4).scale(0.9),
        b,
        0.2,
    ));
    g.add_factor(VectorPriorFactor::new(u, Vec64::zeros(2), 1.0));
    g.add_factor(KinematicsFactor::speed_limit(xs[1], 2, 2, 0.5, 0.1));
    g.add_factor(KinematicsFactor::speed_limit(xs[2], 2, 2, 5.0, 0.1));
    g.add_factor(CollisionFactor::new(
        xs[1],
        2,
        vec![([0.7, 0.6], 0.3), ([5.0, 5.0], 0.5), ([0.6, 0.5], 0.1)],
        0.25,
        0.5,
    ));
    g.add_factor(LinearContainerFactor::new(
        vec![xs[3]],
        vec![Mat::identity(4).scale(0.5)],
        Vec64::from_slice(&[0.1, 0.0, -0.1, 0.0]),
        vec![g.values().get(xs[3]).clone()],
    ));
    g
}

#[test]
fn hand_built_construction_matches_recorded_digest() {
    let mut digest = FNV_OFFSET;
    let mut cache = PlanCache::new();
    for g in [robust_custom_graph(), spatial_graph(), planning_graph()] {
        digest_construction(&mut digest, &g);
        digest_solves(&mut digest, &g, GaussNewtonSettings::default(), &mut cache);
    }
    assert_eq!(digest, 0xE994_C08D_EDEF_C3B1, "digest {digest:#018X}");
}

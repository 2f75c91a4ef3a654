//! `robot_frames` (apps, solver): one op is one frame of all four robots,
//! i.e. one Software-pipeline mission per robot on freshly seeded graphs,
//! with one `PlanCache` shared across the run. Plans are reused on every
//! frame (the read path); compiler, hw and server do no work.
//!
//! The first 300 frames run the Tbl. 5 trial seeds
//! `1000 + 7919·((off + i) mod 300)`, with the rotation `off` drawn from
//! `--seed`, so they run every Tbl. 5 trial exactly once and
//! `success_pct` over them is the same at every seed. Later frames draw
//! their apps from `--seed`.

use crate::{mix, trace, Args, Clock, Report};
use orianna_apps::{all_apps, mission::run_mission_with, MissionOutcome, Pipeline};
use orianna_solver::PlanCache;

/// Tbl. 5 trials per robot; also the count prefix of the run.
const TRIALS: usize = 300;
/// Every `CHECK_EVERY`-th frame is re-run with a fresh `PlanCache`.
const CHECK_EVERY: usize = 16;

/// The `all_apps` seed of frame `i`.
fn frame_seed(seed: u64, i: usize) -> u64 {
    if i < TRIALS {
        let off = (mix(seed) % TRIALS as u64) as usize;
        1000 + 7919 * ((off + i) % TRIALS) as u64
    } else {
        mix(seed ^ ((i as u64) << 24))
    }
}

pub fn run(args: &Args) -> (Clock, Report) {
    // Set-up warms one plan per algorithm on a frame outside the run.
    let warm_apps = all_apps(mix(args.seed ^ 0x5E7));
    let warm = || {
        let mut plans = PlanCache::new();
        for app in &warm_apps {
            run_mission_with(app, Pipeline::Software, &mut plans);
        }
        plans
    };
    let mut clock = Clock::new(args.seconds, TRIALS, args.trace);
    let mut plans = clock.set_up(warm);
    let spans: Vec<&'static str> = all_apps(0)
        .iter()
        .map(|a| &*Box::leak(format!("apps.mission.{}", a.name).into_boxed_str()))
        .collect();

    clock.start();
    let mut succeeded = 0usize;
    let mut prefix_plans = (0, 0);
    let mut sampled: Vec<(usize, Vec<MissionOutcome>)> = Vec::new();
    while clock.running() {
        clock.between_ops(warm);
        let i = clock.ops();
        let apps = clock.untimed(|| all_apps(frame_seed(args.seed, i)));
        let out: Vec<MissionOutcome> = clock.op(|| {
            apps.iter()
                .zip(&spans)
                .map(|(app, span)| {
                    trace::span(span, || {
                        run_mission_with(app, Pipeline::Software, &mut plans)
                    })
                })
                .collect()
        });
        clock.untimed(|| drop(apps));
        if i < TRIALS {
            succeeded += out.iter().filter(|o| o.success).count();
            if i + 1 == TRIALS {
                prefix_plans = (plans.hits(), plans.misses());
            }
        }
        if i.is_multiple_of(CHECK_EVERY) {
            sampled.push((i, out));
        }
    }

    // Plan reuse must not change a verdict: re-run sampled frames cold.
    let failed = sampled
        .iter()
        .filter(|(i, out)| {
            let apps = all_apps(frame_seed(args.seed, *i));
            let fresh: Vec<MissionOutcome> = apps
                .iter()
                .map(|app| run_mission_with(app, Pipeline::Software, &mut PlanCache::new()))
                .collect();
            fresh != *out
        })
        .count();

    let missions = (TRIALS * spans.len()) as f64;
    let (hits, misses) = prefix_plans;
    let report = Report {
        failed,
        success_pct: 100.0 * succeeded as f64 / missions,
        design_cycles: 1.0,
        layer: vec![(
            "solver.plan_hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        )],
        exact: vec![
            ("missions".into(), missions),
            ("missions_succeeded".into(), succeeded as f64),
            ("plan_hits".into(), hits as f64),
            ("plan_misses".into(), misses as f64),
        ],
        info: vec![("frames_checked".into(), sampled.len() as f64)],
    };
    (clock, report)
}

//! `accel_codesign` (compiler, hw): one op generates the accelerators for
//! all four freshly seeded apps. Per app it compiles the three
//! algorithms, executes each program once on the functional ISA model,
//! decodes each through a serial `DseContext`, and runs `search_default`
//! over a 10^4-candidate space under the ZC706 budget with
//! `Combine::Max` (worst-algorithm latency). The solver and server do no
//! work here.

use crate::{mix, trace, Args, Clock, Report};
use orianna_apps::{all_apps, RobotApp};
use orianna_compiler::{compile, execute, Program, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    search_default, simulate, Combine, DseContext, IssuePolicy, Objective, Resources, SearchBest,
    SearchOutcome, SearchSpace, Workload, WorkloadSet,
};
use orianna_math::{Parallelism, Vec64};
use orianna_solver::eliminate;
use std::time::Instant;

/// Ops whose counts (and `design_cycles`) are reported.
const PREFIX: usize = 20;
/// Executed Δ must match the software elimination this closely.
const DELTA_TOL: f64 = 1e-9;

fn space() -> SearchSpace {
    SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ])
}

/// One app's compiled programs, executed Δs and search outcome.
struct Design {
    programs: Vec<Program>,
    deltas: Vec<Vec64>,
    outcome: SearchOutcome,
    search_ns: u64,
    simulations: usize,
    memo_hits: usize,
}

fn compile_all(app: &RobotApp) -> (Vec<Program>, Vec<Vec64>) {
    app.algorithms
        .iter()
        .map(|algo| {
            let order = natural_ordering(&algo.graph);
            let prog =
                trace::span("compiler.compile", || compile(&algo.graph, &order)).expect("compile");
            let res = trace::span("compiler.execute", || execute(&prog, algo.graph.values()))
                .expect("execute");
            (prog, res.delta)
        })
        .unzip()
}

fn decode_all(programs: &[Program]) -> WorkloadSet {
    let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
    for prog in programs {
        let ctx = trace::span("hw.decode", || {
            DseContext::with_parallelism(&Workload::single("algo", prog), Parallelism::serial())
        });
        set.push("algo", ctx);
    }
    set
}

fn design(app: &RobotApp, space: &SearchSpace, budget: &Resources, search_seed: u64) -> Design {
    let (programs, deltas) = compile_all(app);
    let mut set = decode_all(&programs);
    let t0 = Instant::now();
    let outcome = trace::span("hw.search", || {
        search_default(&mut set, space, budget, search_seed)
    });
    Design {
        programs,
        deltas,
        outcome,
        search_ns: t0.elapsed().as_nanos() as u64,
        simulations: set.simulations(),
        memo_hits: set.cache_hits(),
    }
}

/// Mismatches in one design: an executed Δ off the software solve, or a
/// winner over budget or not re-simulating to the same cycles.
fn check(app: &RobotApp, d: &Design, budget: &Resources) -> usize {
    let mut bad = 0;
    for (algo, delta) in app.algorithms.iter().zip(&d.deltas) {
        let reference = eliminate(&algo.graph.linearize(), &natural_ordering(&algo.graph))
            .and_then(|(bn, _)| bn.back_substitute());
        let ok = reference.is_ok_and(|r| {
            r.len() == delta.len()
                && r.as_slice()
                    .iter()
                    .zip(delta.as_slice())
                    .all(|(a, b)| (a - b).abs() <= DELTA_TOL)
        });
        bad += usize::from(!ok);
    }
    match &d.outcome.best {
        Some(SearchBest {
            config,
            per_workload,
            ..
        }) => {
            bad += usize::from(!config.resources().fits(budget));
            for (prog, (cycles, _)) in d.programs.iter().zip(per_workload) {
                let again = simulate(
                    &Workload::single("algo", prog),
                    config,
                    IssuePolicy::OutOfOrder,
                );
                bad += usize::from(again.cycles != *cycles);
            }
        }
        None => bad += 1,
    }
    bad
}

#[derive(Default)]
struct Counts {
    instructions: u64,
    simulations: u64,
    memo_hits: u64,
    proposed: u64,
    bound_gated: u64,
    design_cycles: f64,
}

pub fn run(args: &Args) -> (Clock, Report) {
    // The only state that outlives an op is the design space and the
    // budget; compiling, decoding and searching are per-app work.
    let state = || (space(), Resources::zc706());
    let mut clock = Clock::new(args.seconds, PREFIX, args.trace);
    let (space, budget) = clock.set_up(state);
    clock.start();
    let mut counts = Counts::default();
    // Search time and simulations over every op, for the time per
    // simulation.
    let (mut search_ns, mut search_sims) = (0u64, 0u64);
    let mut failed = 0usize;
    while clock.running() {
        clock.between_ops(state);
        let i = clock.ops();
        let op_seed = mix(args.seed.wrapping_mul(0x1_0000) ^ i as u64);
        let apps = clock.untimed(|| all_apps(op_seed));
        let designs: Vec<Design> = clock.op(|| {
            apps.iter()
                .enumerate()
                .map(|(k, app)| design(app, &space, &budget, mix(op_seed ^ k as u64)))
                .collect()
        });
        let bad = clock.untimed(|| {
            apps.iter()
                .zip(&designs)
                .map(|(app, d)| check(app, d, &budget))
                .sum::<usize>()
        });
        failed += usize::from(bad > 0);
        for d in &designs {
            search_sims += d.simulations as u64;
            search_ns += d.search_ns;
            if i < PREFIX {
                counts.instructions += d
                    .programs
                    .iter()
                    .map(|p| p.instrs.len() as u64)
                    .sum::<u64>();
                counts.simulations += d.simulations as u64;
                counts.memo_hits += d.memo_hits as u64;
                counts.proposed += d.outcome.stats.proposed as u64;
                counts.bound_gated += d.outcome.stats.bound_gated as u64;
                counts.design_cycles += d.outcome.best.as_ref().map_or(0.0, |b| b.score);
            }
        }
        clock.untimed(|| drop((apps, designs)));
    }

    let n = PREFIX as f64;
    let report = Report {
        failed,
        success_pct: 100.0 * (clock.ops() - failed) as f64 / clock.ops().max(1) as f64,
        design_cycles: counts.design_cycles / n,
        layer: vec![
            (
                "compiler.instructions".into(),
                counts.instructions as f64 / n,
            ),
            ("hw.simulations".into(), counts.simulations as f64 / n),
            (
                "hw.us_per_simulation".into(),
                search_ns as f64 / 1e3 / search_sims.max(1) as f64,
            ),
            (
                "hw.gate_ratio".into(),
                counts.bound_gated as f64 / counts.proposed.max(1) as f64,
            ),
            (
                "hw.memo_hit_ratio".into(),
                counts.memo_hits as f64 / (counts.memo_hits + counts.simulations).max(1) as f64,
            ),
        ],
        exact: vec![
            ("instructions".into(), counts.instructions as f64),
            ("simulations".into(), counts.simulations as f64),
            ("memo_hits".into(), counts.memo_hits as f64),
            ("proposed".into(), counts.proposed as f64),
            ("bound_gated".into(), counts.bound_gated as f64),
            ("design_cycles_sum".into(), counts.design_cycles),
        ],
        info: vec![],
    };
    (clock, report)
}

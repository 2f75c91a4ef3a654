//! Headless benchmark-baseline recorder.
//!
//! Criterion produces rich local statistics but no small, diffable
//! artifact; this binary measures the hot numeric paths with plain
//! `Instant` medians and writes two hand-rolled JSON files —
//! `BENCH_solver.json` (elimination/back-substitution: planless vs
//! arena) and `BENCH_sim.json` (scoreboard: fresh scratch vs
//! reused [`SimScratch`] over a 200-config DSE sweep, beside the
//! `compile/all_apps_2024` and `execute/all_apps_2024` compiler rows and
//! the paired `triangularize/simd` vs `triangularize/scalar` kernel rows
//! over those programs' QRD panels) — suitable for committing as a
//! baseline and uploading from CI.
//!
//! Usage: `orianna-bench [server] [--quick] [--out-dir DIR]`
//!
//! With the `server` subcommand the binary instead benchmarks the
//! fleet-scale solver service: the same seeded synthetic traffic is
//! driven through the batching [`SolverServer`] and through the naive
//! plan-per-request baseline (outcomes cross-checked **bitwise**), and
//! `BENCH_server.json` records throughput, the served/naive speedup,
//! and exact p50/p95/p99 request latencies.

use orianna_apps::all_apps;
use orianna_compiler::{compile, execute, ExecResult, Op, Program, UnitClass};
use orianna_graph::{
    natural_ordering, BetweenFactor, Factor, LinearFactor, LinearSystem, Ordering, PriorFactor,
    Values, VarId, Variable,
};
use orianna_hw::{
    simulate_decoded, simulate_decoded_with, DecodedWorkload, DseContext, HwConfig, IssuePolicy,
    Objective, Resources, SimScratch, SweepMode, Workload,
};
use orianna_lie::Pose2;
use orianna_math::{panel, Parallelism};
use orianna_solver::IncrementalSolver;
use orianna_solver::{eliminate, SolvePlan};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    quick: bool,
    out_dir: String,
    server: bool,
    dse_search: bool,
    /// Row-name substring filter: rows not containing it are neither
    /// measured nor written, so CI smoke jobs can time a subset.
    filter: Option<String>,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut out_dir = ".".to_string();
    let mut server = false;
    let mut dse_search = false;
    let mut filter = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "server" => server = true,
            "dse-search" => dse_search = true,
            "--quick" => quick = true,
            "--out-dir" => out_dir = it.next().expect("--out-dir needs a value"),
            "--filter" => filter = Some(it.next().expect("--filter needs a substring")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: orianna-bench [server|dse-search] [--quick] [--out-dir DIR] \
                     [--filter SUBSTRING]"
                );
                std::process::exit(2);
            }
        }
    }
    Args {
        quick,
        out_dir,
        server,
        dse_search,
        filter,
    }
}

/// Median wall time of `reps` timed calls (after `warmup` untimed ones).
fn median_ns(warmup: usize, reps: usize, mut f: impl FnMut()) -> u128 {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Results {
    entries: Vec<(String, u128)>,
    /// Raw per-rep samples for rows recorded via
    /// [`record_interleaved`](Self::record_interleaved), kept so ratios
    /// within the family can be computed *paired* (rep i vs rep i).
    samples: Vec<(String, Vec<u128>)>,
    reps: usize,
    /// `--filter` substring: rows whose names do not contain it are
    /// skipped entirely (not measured, not written).
    filter: Option<String>,
}

impl Results {
    fn new(reps: usize, filter: Option<String>) -> Self {
        Self {
            entries: Vec::new(),
            samples: Vec::new(),
            reps,
            filter,
        }
    }

    /// Whether `--filter` admits this row name.
    fn admits(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn record(&mut self, name: &str, warmup: usize, f: impl FnMut()) {
        if !self.admits(name) {
            return;
        }
        let ns = median_ns(warmup, self.reps, f);
        println!("  {name}: {ns} ns");
        self.entries.push((name.to_string(), ns));
    }

    /// Records a family of rows whose medians will be *compared to each
    /// other*: reps are interleaved round-robin across the rows so that
    /// slow clock/thermal drift over the run biases every row equally
    /// instead of systematically penalizing whichever row is measured
    /// last. Sequential blocks (plain [`record`](Self::record)) showed
    /// ~2% drift between identical code paths, which is larger than the
    /// effects the sweep-family ratios report.
    fn record_interleaved(
        &mut self,
        mut rows: Vec<(String, Box<dyn FnMut() + '_>)>,
        warmup: usize,
    ) {
        rows.retain(|(name, _)| self.admits(name));
        if rows.is_empty() {
            return;
        }
        for (_, f) in rows.iter_mut() {
            for _ in 0..warmup {
                f();
            }
        }
        let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(self.reps); rows.len()];
        for _ in 0..self.reps {
            for ((_, f), s) in rows.iter_mut().zip(samples.iter_mut()) {
                let t = Instant::now();
                f();
                s.push(t.elapsed().as_nanos());
            }
        }
        for ((name, _), s) in rows.into_iter().zip(samples) {
            let mut sorted = s.clone();
            sorted.sort_unstable();
            let ns = sorted[sorted.len() / 2];
            println!("  {name}: {ns} ns");
            self.entries.push((name.clone(), ns));
            self.samples.push((name, s));
        }
    }

    /// The recorded median for `name`, or `None` when `--filter`
    /// skipped the row.
    fn get_opt(&self, name: &str) -> Option<u128> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
    }

    /// Median of the per-rep ratios `base_i / other_i` between two rows
    /// of one interleaved family. Pairing cancels the drift the two
    /// rows share (rep i of each row ran back-to-back), so this is a
    /// far tighter speedup estimator than a ratio of two independent
    /// medians — for identical code paths it converges on 1.0 instead
    /// of 1.0 ± the block-to-block drift.
    fn paired_speedup(&self, base: &str, other: &str) -> Option<f64> {
        let find = |name: &str| self.samples.iter().find(|(n, _)| n == name).map(|(_, s)| s);
        let (b, o) = (find(base)?, find(other)?);
        let mut ratios: Vec<f64> = b
            .iter()
            .zip(o)
            .map(|(&b, &o)| b as f64 / o as f64)
            .collect();
        ratios.sort_unstable_by(|a, b| a.total_cmp(b));
        Some(ratios[ratios.len() / 2])
    }
}

/// Hand-rolled JSON: `{"schema":…, "mode":…, "results":{name:ns…},
/// "speedups":{name:ratio…}}`. Names are plain ASCII identifiers so no
/// string escaping is needed.
fn to_json(mode: &str, reps: usize, results: &Results, speedups: &[(String, f64)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"orianna-bench/v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"median_ns\": {\n");
    for (i, (name, ns)) in results.entries.iter().enumerate() {
        let comma = if i + 1 < results.entries.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(s, "    \"{name}\": {ns}{comma}");
    }
    s.push_str("  },\n");
    s.push_str("  \"speedups\": {\n");
    for (i, (name, ratio)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(s, "    \"{name}\": {ratio:.3}{comma}");
    }
    s.push_str("  }\n}\n");
    s
}

/// Solver baselines: one Gauss-Newton solve iteration (eliminate +
/// back-substitute) per benchmark application, on the reference path and
/// the arena path.
fn bench_solver(reps: usize, filter: Option<String>) -> (Results, Vec<(String, f64)>) {
    let mut results = Results::new(reps, filter);
    let mut speedups = Vec::new();
    for app in all_apps(2024) {
        let algo = app.algorithm("localization");
        let ordering = natural_ordering(&algo.graph);
        let sys = algo.graph.linearize();
        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
        let name = app.name.replace(' ', "_");

        results.record(&format!("solve/planless/{name}"), 3, || {
            let (bn, _) = eliminate(&sys, &ordering).unwrap();
            std::hint::black_box(bn.back_substitute().unwrap());
        });

        let mut ws = plan.workspace();
        results.record(&format!("solve/arena/{name}"), 3, || {
            std::hint::black_box(plan.solve_in(&sys, &mut ws).unwrap().len());
        });

        if let (Some(planless), Some(arena)) = (
            results.get_opt(&format!("solve/planless/{name}")),
            results.get_opt(&format!("solve/arena/{name}")),
        ) {
            speedups.push((
                format!("arena_vs_planless/{name}"),
                planless as f64 / arena as f64,
            ));
        }
    }
    bench_incremental(&mut results, &mut speedups);
    (results, speedups)
}

/// A `n`-pose odometry chain fed one update at a time, plus its pose ids.
fn build_chain_solver(n: usize) -> (IncrementalSolver, Vec<VarId>) {
    let mut inc = IncrementalSolver::new();
    let mut ids = Vec::with_capacity(n);
    let v0 = inc.add_variable(Variable::Pose2(Pose2::identity()));
    ids.push(v0);
    inc.update(vec![
        Arc::new(PriorFactor::pose2(v0, Pose2::identity(), 0.1)) as Arc<dyn Factor>,
    ])
    .expect("prior update");
    for k in 1..n {
        let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.001)));
        inc.update(vec![Arc::new(BetweenFactor::pose2(
            ids[k - 1],
            v,
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        )) as Arc<dyn Factor>])
            .expect("odometry update");
        ids.push(v);
    }
    (inc, ids)
}

/// Per-update latency on a grown 2k-pose trajectory: the Bayes-tree
/// incremental update (affected-subtree re-elimination + wildfire
/// back-substitution) vs the full re-elimination a batch solver pays per
/// new factor, plus the loop-closure case where the affected subtree
/// spans a long root path. Both paths start from cached linearizations —
/// each rep linearizes only the new factor — so the rows compare
/// elimination strategies, not linearization caching.
fn bench_incremental(results: &mut Results, speedups: &mut Vec<(String, f64)>) {
    const N: usize = 2000;
    // Building the 2k-pose chains dominates this function's cost;
    // skip it entirely when `--filter` admits none of its rows.
    if !["bayes_2k", "bayes_2k_loop", "full_2k"]
        .iter()
        .any(|r| results.admits(&format!("incremental_update/{r}")))
    {
        return;
    }

    // Bayes-tree row: one more odometry update per rep.
    let (mut inc, mut ids) = build_chain_solver(N);
    results.record("incremental_update/bayes_2k", 3, || {
        let k = ids.len();
        let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.001)));
        inc.update(vec![Arc::new(BetweenFactor::pose2(
            ids[k - 1],
            v,
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        )) as Arc<dyn Factor>])
            .expect("bayes odometry update");
        ids.push(v);
    });
    println!(
        "  incremental_update counters: {} cliques, {} re-eliminated, {} wildfire vars, {} slab reuses, {} full rebuilds",
        inc.clique_count(),
        inc.cliques_reeliminated(),
        inc.wildfire_vars(),
        inc.slab_reuses(),
        inc.full_rebuilds()
    );

    // Loop-closure row: every update also closes a 64-pose loop, forcing
    // the affected closure up a long root path.
    let (mut inc_loop, mut loop_ids) = build_chain_solver(N);
    results.record("incremental_update/bayes_2k_loop", 3, || {
        let k = loop_ids.len();
        let v = inc_loop.add_variable(Variable::Pose2(Pose2::new(0.0, k as f64, 0.001)));
        inc_loop
            .update(vec![
                Arc::new(BetweenFactor::pose2(
                    loop_ids[k - 1],
                    v,
                    Pose2::new(0.0, 1.0, 0.0),
                    0.2,
                )) as Arc<dyn Factor>,
                Arc::new(BetweenFactor::pose2(
                    loop_ids[k - 64],
                    v,
                    Pose2::new(0.0, 64.0, 0.0),
                    0.3,
                )),
            ])
            .expect("loop-closure update");
        loop_ids.push(v);
    });

    // Full re-elimination baseline: same stream of cached linear
    // factors, but every update eliminates the whole trajectory.
    let mut values = Values::default();
    let mut sys = LinearSystem {
        factors: Vec::new(),
        var_dims: Vec::new(),
    };
    let push = |values: &mut Values, sys: &mut LinearSystem, f: &dyn Factor| {
        let (blocks, err) = f.linearize(values);
        sys.factors.push(LinearFactor {
            keys: f.keys().to_vec(),
            blocks,
            rhs: -&err,
        });
    };
    let v0 = values.insert(Variable::Pose2(Pose2::identity()));
    sys.var_dims.push(3);
    push(
        &mut values,
        &mut sys,
        &PriorFactor::pose2(v0, Pose2::identity(), 0.1),
    );
    for k in 1..N {
        values.insert(Variable::Pose2(Pose2::new(0.0, k as f64, 0.001)));
        sys.var_dims.push(3);
        push(
            &mut values,
            &mut sys,
            &BetweenFactor::pose2(VarId(k - 1), VarId(k), Pose2::new(0.0, 1.0, 0.0), 0.2),
        );
    }
    results.record("incremental_update/full_2k", 3, || {
        let k = sys.var_dims.len();
        values.insert(Variable::Pose2(Pose2::new(0.0, k as f64, 0.001)));
        sys.var_dims.push(3);
        push(
            &mut values,
            &mut sys,
            &BetweenFactor::pose2(VarId(k - 1), VarId(k), Pose2::new(0.0, 1.0, 0.0), 0.2),
        );
        let ordering = Ordering::from_order((0..sys.var_dims.len()).map(VarId).collect());
        let (bn, _) = eliminate(&sys, &ordering).expect("full re-elimination");
        std::hint::black_box(bn.back_substitute().expect("full back-substitution"));
    });

    let full = results.get_opt("incremental_update/full_2k");
    if let (Some(full), Some(bayes)) = (full, results.get_opt("incremental_update/bayes_2k")) {
        speedups.push((
            "bayes_vs_full/incremental_update".to_string(),
            full as f64 / bayes as f64,
        ));
    }
    if let (Some(full), Some(bayes_loop)) =
        (full, results.get_opt("incremental_update/bayes_2k_loop"))
    {
        speedups.push((
            "bayes_loop_vs_full/incremental_update".to_string(),
            full as f64 / bayes_loop as f64,
        ));
    }
}

/// 200 candidate unit mixes, the shape of a generator DSE sweep.
fn dse_configs() -> Vec<HwConfig> {
    let mut configs = Vec::with_capacity(200);
    for qr in 1..=5usize {
        for mm in 1..=5usize {
            for vec in 1..=4usize {
                for mem in 1..=2usize {
                    configs.push(HwConfig::with_counts(&[
                        (UnitClass::Qr, qr),
                        (UnitClass::MatMul, mm),
                        (UnitClass::Vector, vec),
                        (UnitClass::Memory, mem),
                        (UnitClass::Special, 1),
                        (UnitClass::BackSub, 1),
                    ]));
                }
            }
        }
    }
    configs
}

/// Simulator baselines: a 200-configuration scoreboard sweep with fresh
/// per-call scratch vs a reused [`SimScratch`], then the [`DseContext`]
/// sweep at 1/2 threads and with bound-first pruning, plus a
/// 64-rung uniform ladder where pruning crosses the saturation knee.
fn bench_sim(reps: usize, filter: Option<String>) -> (Results, Vec<(String, f64)>) {
    let mut results = Results::new(reps, filter);
    let apps = all_apps(2024);
    let algo = apps[3].algorithm("localization");
    let prog = compile(&algo.graph, &natural_ordering(&algo.graph)).unwrap();
    let wl = Workload::single("loc", &prog);
    let decoded = DecodedWorkload::decode(&wl);
    let configs = dse_configs();
    assert_eq!(configs.len(), 200);

    // `fresh` and `scratch` are compared to each other, so their reps
    // interleave and the ratio pairs them rep by rep.
    let mut scratch = SimScratch::default();
    let scratch_family: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
        (
            "dse_sweep_200/fresh".into(),
            Box::new(|| {
                let total: u64 = configs
                    .iter()
                    .map(|cfg| simulate_decoded(&decoded, cfg, IssuePolicy::OutOfOrder).cycles)
                    .sum();
                std::hint::black_box(total);
            }),
        ),
        (
            "dse_sweep_200/scratch".into(),
            Box::new(|| {
                let total: u64 = configs
                    .iter()
                    .map(|cfg| {
                        simulate_decoded_with(&decoded, cfg, IssuePolicy::OutOfOrder, &mut scratch)
                            .cycles
                    })
                    .sum();
                std::hint::black_box(total);
            }),
        ),
    ];
    results.record_interleaved(scratch_family, 1);

    // The compiler layer of a co-design op: lower, CSE and emit all 12
    // application programs (one pass = 12 `compile` calls).
    results.record("compile/all_apps_2024", 1, || {
        let instrs: usize = apps
            .iter()
            .flat_map(|app| &app.algorithms)
            .map(|a| {
                compile(&a.graph, &natural_ordering(&a.graph))
                    .unwrap()
                    .instrs
                    .len()
            })
            .sum();
        std::hint::black_box(instrs);
    });

    // The functional model of the same op: execute all 12 compiled
    // programs over the register arena (one pass = 12 `execute` calls).
    let programs: Vec<(Program, &Values)> = apps
        .iter()
        .flat_map(|app| &app.algorithms)
        .map(|a| {
            let prog = compile(&a.graph, &natural_ordering(&a.graph)).unwrap();
            (prog, a.graph.values())
        })
        .collect();
    results.record("execute/all_apps_2024", 1, || {
        for (prog, values) in &programs {
            std::hint::black_box(execute(prog, values).unwrap().delta);
        }
    });

    // The in-place Householder on every QRD panel of those programs,
    // dispatched (AVX when available) vs forced scalar. The rows are
    // compared to each other, so their reps interleave.
    let panels: Vec<(usize, usize, Vec<f64>)> = programs
        .iter()
        .flat_map(|(prog, values)| qrd_panels(prog, &execute(prog, values).unwrap()))
        .collect();
    let max_len = panels.iter().map(|(r, w, _)| r * w).max().unwrap_or(0);
    let max_rows = panels.iter().map(|(r, _, _)| *r).max().unwrap_or(0);
    let triangularize_all = |kernel: fn(&mut [f64], usize, usize, &mut [f64])| {
        let panels = &panels;
        let mut buf = vec![0.0f64; max_len];
        let mut vbuf = vec![0.0f64; max_rows.max(1)];
        move || {
            for (rows, width, a) in panels {
                let p = &mut buf[..rows * width];
                p.copy_from_slice(a);
                kernel(p, *rows, *width, &mut vbuf);
            }
            std::hint::black_box(&buf);
        }
    };
    let triangularize_family: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
        (
            "triangularize/simd".into(),
            Box::new(triangularize_all(panel::triangularize)),
        ),
        (
            "triangularize/scalar".into(),
            Box::new(triangularize_all(panel::triangularize_scalar)),
        ),
    ];
    results.record_interleaved(triangularize_family, 1);

    // DseContext sweeps: exhaustive at 1/2 threads, plus the
    // branch-and-bound mode. Each rep builds a fresh context from a
    // clone of the pre-decoded workload so no rep inherits the previous
    // rep's memo.
    let roomy = Resources {
        lut: u64::MAX / 4,
        ff: u64::MAX / 4,
        bram: u64::MAX / 4,
        dsp: u64::MAX / 4,
    };
    // Auto mode is what production runs: the requested width is a
    // *budget*, clamped to real cores and cost-gated per sweep, so the
    // parallel rows measure the gated configuration users actually get.
    // The rows are compared against each other, so their reps interleave:
    // each rep runs `parallel1` and `parallel2` back to back, then
    // `pruned` and `pruned_parallel2`.
    let make_sweep = |threads: usize, mode: SweepMode| {
        let decoded = &decoded;
        let configs = &configs;
        let roomy = &roomy;
        move || {
            let mut ctx =
                DseContext::with_decoded(decoded.clone(), Parallelism::auto_with_threads(threads));
            let report = ctx.sweep(configs, roomy, Objective::Latency, mode);
            std::hint::black_box((report.evaluated, report.skipped_bound));
        }
    };
    let sweep_family: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
        (
            "dse_sweep_200/parallel1".into(),
            Box::new(make_sweep(1, SweepMode::Exhaustive)),
        ),
        (
            "dse_sweep_200/parallel2".into(),
            Box::new(make_sweep(2, SweepMode::Exhaustive)),
        ),
        (
            "dse_sweep_200/pruned".into(),
            Box::new(make_sweep(1, SweepMode::Pruned)),
        ),
        (
            "dse_sweep_200/pruned_parallel2".into(),
            Box::new(make_sweep(2, SweepMode::Pruned)),
        ),
    ];
    results.record_interleaved(sweep_family, 1);
    if results.admits("dse_sweep_200/pruned") {
        let mut ctx = DseContext::with_decoded(decoded.clone(), Parallelism::serial());
        let r = ctx.sweep(&configs, &roomy, Objective::Latency, SweepMode::Pruned);
        println!(
            "  dse_sweep_200 pruning: {} evaluated, {} bound-skipped, frontier {}",
            r.evaluated,
            r.skipped_bound,
            ctx.frontier().len()
        );
    }

    // A uniform replication ladder on the manipulator localization
    // workload crosses the saturation knee (cycles flatten at the
    // critical path), the regime where dominance pruning retires
    // candidates without scoreboard walks. The quadrotor stream above
    // stays on the ramp at every rung, so it is the wrong subject here.
    let manip = apps[1].algorithm("localization");
    let manip_prog = compile(&manip.graph, &natural_ordering(&manip.graph)).unwrap();
    let manip_wl = Workload::single("manip_loc", &manip_prog);
    let manip_decoded = DecodedWorkload::decode(&manip_wl);
    let ladder: Vec<HwConfig> = (1..=64usize)
        .map(|k| HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, k))))
        .collect();
    {
        let ladder = &ladder;
        let decoded = &manip_decoded;
        let roomy = &roomy;
        results.record("dse_ladder_64/exhaustive", 1, || {
            let mut ctx = DseContext::with_decoded(decoded.clone(), Parallelism::serial());
            let report = ctx.sweep(ladder, roomy, Objective::Latency, SweepMode::Exhaustive);
            std::hint::black_box(report.evaluated);
        });
        results.record("dse_ladder_64/pruned", 1, || {
            let mut ctx = DseContext::with_decoded(decoded.clone(), Parallelism::serial());
            let report = ctx.sweep(ladder, roomy, Objective::Latency, SweepMode::Pruned);
            std::hint::black_box((report.evaluated, report.skipped_bound));
        });
        if results.admits("dse_ladder_64/pruned") {
            let mut ctx = DseContext::with_decoded(decoded.clone(), Parallelism::serial());
            let r = ctx.sweep(ladder, roomy, Objective::Latency, SweepMode::Pruned);
            println!(
                "  dse_ladder_64 pruning: {} evaluated, {} bound-skipped",
                r.evaluated, r.skipped_bound
            );
        }
    }

    let mut speedups = Vec::new();
    // Both families were measured interleaved, so their ratios use the
    // paired per-rep estimator — see `Results::paired_speedup`. A `None`
    // (row skipped by `--filter`) simply drops the ratio row.
    if let Some(ratio) = results.paired_speedup("dse_sweep_200/fresh", "dse_sweep_200/scratch") {
        speedups.push(("scratch_vs_fresh/dse_sweep_200".to_string(), ratio));
    }
    if let Some(ratio) =
        results.paired_speedup("dse_sweep_200/parallel1", "dse_sweep_200/parallel2")
    {
        speedups.push(("parallel2_vs_serial/dse_sweep_200".to_string(), ratio));
    }
    if let Some(ratio) = results.paired_speedup("dse_sweep_200/parallel1", "dse_sweep_200/pruned") {
        speedups.push(("pruned_vs_exhaustive/dse_sweep_200".to_string(), ratio));
    }
    if let Some(ratio) =
        results.paired_speedup("dse_sweep_200/parallel1", "dse_sweep_200/pruned_parallel2")
    {
        speedups.push(("combined_vs_serial/dse_sweep_200".to_string(), ratio));
    }
    if let Some(ratio) = results.paired_speedup("triangularize/scalar", "triangularize/simd") {
        speedups.push(("simd_vs_scalar/triangularize".to_string(), ratio));
    }
    if let (Some(ex), Some(pr)) = (
        results.get_opt("dse_ladder_64/exhaustive"),
        results.get_opt("dse_ladder_64/pruned"),
    ) {
        speedups.push((
            "pruned_vs_exhaustive/dse_ladder_64".to_string(),
            ex as f64 / pr as f64,
        ));
    }
    (results, speedups)
}

/// The gathered `[A | b]` panel of every `Qrd` in `prog`, rebuilt from an
/// executed run: original factor blocks from their registers, new-factor
/// rows from the producing `Qrd`'s (triangularized) register — exactly
/// the panel `execute` triangularizes. Returns `(rows, width, panel)`.
fn qrd_panels(prog: &Program, run: &ExecResult) -> Vec<(usize, usize, Vec<f64>)> {
    let mut out = Vec::new();
    for instr in &prog.instrs {
        let Op::Qrd {
            frontal,
            frontal_dim,
            seps,
            gather,
            new_factor_deps,
            ..
        } = &instr.op
        else {
            continue;
        };
        let (rows, width) = instr.dims;
        let col_of = |v: VarId| {
            let mut off = *frontal_dim;
            if v == *frontal {
                return 0;
            }
            for (s, d) in seps {
                if *s == v {
                    return off;
                }
                off += d;
            }
            unreachable!("{v} is not a column of this QRD")
        };
        let mut a = vec![0.0f64; rows * width];
        let mut row = 0;
        for g in gather {
            for (k, r) in &g.key_regs {
                let blk = run.reg(*r);
                let c0 = col_of(*k);
                for br in 0..blk.rows() {
                    a[(row + br) * width + c0..][..blk.cols()].copy_from_slice(blk.row(br));
                }
            }
            let rhs = run.reg(g.rhs_reg);
            for (i, x) in rhs.as_slice().iter().enumerate() {
                a[(row + i) * width + width - 1] = *x;
            }
            row += rhs.as_slice().len();
        }
        for &dep in new_factor_deps {
            let producer = &prog.instrs[dep];
            let Op::Qrd {
                frontal_dim: pdv,
                seps: pseps,
                ..
            } = &producer.op
            else {
                unreachable!("QRD dependency is a QRD");
            };
            let p = run.reg(producer.dst);
            let sep_cols: usize = pseps.iter().map(|(_, d)| d).sum();
            let nr = p.rows().saturating_sub(*pdv).min(sep_cols + 1);
            for r in 0..nr {
                let prow = p.row(pdv + r);
                let mut off = *pdv;
                for (s, d) in pseps {
                    let c0 = col_of(*s);
                    a[(row + r) * width + c0..][..*d].copy_from_slice(&prow[off..off + d]);
                    off += d;
                }
                a[(row + r) * width + width - 1] = prow[p.cols() - 1];
            }
            row += nr;
        }
        assert_eq!(row, rows, "gathered rows");
        let mut r = a.clone();
        panel::triangularize(&mut r, rows, width, &mut vec![0.0; rows.max(1)]);
        assert_eq!(r, run.reg(instr.dst).as_slice(), "rebuilt QRD panel");
        out.push((rows, width, a));
    }
    out
}

/// Fleet-serving baseline: identical seeded traffic through the batching
/// server and through the naive plan-per-request path, outcomes
/// cross-checked bitwise, throughput and exact latency percentiles
/// recorded. The served run repeats `reps` times (fresh server each rep,
/// interleaved with naive reps) and the medians are reported.
fn bench_server(reps: usize, quick: bool, filter: Option<String>) -> (Results, Vec<(String, f64)>) {
    use orianna_server::{
        install_sessions, oracle::compare_reports, plan_traffic, run_load, run_naive_load,
        LoadSpec, ServerConfig, SolverServer,
    };

    let mut results = Results::new(reps, filter);
    // Batched same-topology fleet traffic: many sessions, few topologies,
    // GN-only so every request can ride a shared plan.
    let spec = LoadSpec {
        seed: 0xF1EE7,
        clients: 8,
        batch_sessions: 48,
        topologies: 4,
        lm_every: 0,
        incremental_sessions: 0,
        ops_per_client: if quick { 25 } else { 75 },
        variables: 10,
        density: 0.3,
        ..LoadSpec::default()
    };
    let plan = plan_traffic(&spec);
    let total_ops = plan.total_ops();
    println!(
        "  traffic: {} sessions over {} topologies, {} clients x {} ops",
        plan.sessions.len(),
        spec.topologies,
        spec.clients,
        spec.ops_per_client
    );

    let config = || ServerConfig {
        queue_capacity: 4096,
        max_batch: 16,
        shards: 8,
        ..ServerConfig::default()
    };

    // Interleave served/naive reps so drift biases both equally. Every
    // reported figure is a median over the reps: walls, and each latency
    // percentile taken per rep.
    const PERCENTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];
    let mut served_walls = Vec::with_capacity(reps);
    let mut naive_walls = Vec::with_capacity(reps);
    let mut served_pcts: [Vec<u64>; 3] = Default::default();
    let mut naive_pcts: [Vec<u64>; 3] = Default::default();
    for rep in 0..reps {
        let server = SolverServer::new(config());
        install_sessions(&server, &plan).expect("install sessions");
        let served = run_load(&server, &plan);
        assert_eq!(served.errors(), 0, "served run must be clean");
        server.shutdown();
        if rep == 0 {
            let m = server.metrics();
            println!(
                "  served: {} plan executions for {} requests, max batch {}, \
                 {} plan misses, {} ws builds",
                m.batches, m.completed, m.max_batch, m.cache.plan_misses, m.cache.workspace_builds
            );
        }
        let naive = run_naive_load(&plan).expect("naive run");
        assert_eq!(naive.errors(), 0, "naive run must be clean");

        // Equal-accuracy guarantee: the speedup below compares bitwise
        // identical results, not an approximation.
        compare_reports(&served.outcomes, &naive.outcomes)
            .unwrap_or_else(|e| panic!("served/naive outcomes diverge: {e}"));
        served_walls.push(served.wall_ns);
        naive_walls.push(naive.wall_ns);
        for (i, (_, q)) in PERCENTILES.iter().enumerate() {
            served_pcts[i].push(served.percentile_ns(*q));
            naive_pcts[i].push(naive.percentile_ns(*q));
        }
    }

    let median = |walls: &mut Vec<u64>| {
        walls.sort_unstable();
        walls[walls.len() / 2]
    };
    let served_wall = median(&mut served_walls);
    let naive_wall = median(&mut naive_walls);
    let served_rps = total_ops as f64 * 1e9 / served_wall as f64;
    let naive_rps = total_ops as f64 * 1e9 / naive_wall as f64;

    let mut put = |name: &str, ns: u64| {
        if !results.admits(name) {
            return;
        }
        println!("  {name}: {ns} ns");
        results.entries.push((name.to_string(), u128::from(ns)));
    };
    put("server/served_wall", served_wall);
    put("server/naive_wall", naive_wall);
    for (i, (p, _)) in PERCENTILES.iter().enumerate() {
        put(&format!("server/served_{p}"), median(&mut served_pcts[i]));
    }
    for (i, (p, _)) in PERCENTILES.iter().enumerate() {
        put(&format!("server/naive_{p}"), median(&mut naive_pcts[i]));
    }
    println!("  served throughput: {served_rps:.0} req/s, naive: {naive_rps:.0} req/s");

    let speedups = vec![(
        "served_vs_naive/throughput".to_string(),
        served_rps / naive_rps,
    )];
    (results, speedups)
}

/// Search-based DSE baselines (ISSUE 10). Two scales:
///
/// * `dse_search_512` — the acceptance-criterion enumerable space
///   (512 configurations, single workload): seeded search vs the serial
///   exhaustive and pruned sweeps, with regret (`regret_ratio`, 1.0 =
///   argmin recovered exactly) and memo-hit-adjusted simulations saved
///   (`sims_saved`, ≥10 required) recorded as ratios.
/// * `dse_search_10k` — the headline co-design question: one
///   configuration for all twelve app algorithms over a 10⁴-candidate
///   space (`Combine::Max` worst-case latency). Search wall-clock vs
///   the per-workload pruned-sweep baseline (12 full sweeps + winner
///   cross-evaluation), with `objective_margin` = baseline / search
///   best-found aggregate (≥1.0 means search found an equal-or-better
///   design).
fn bench_dse_search(
    reps: usize,
    quick: bool,
    filter: Option<String>,
) -> (Results, Vec<(String, f64)>) {
    use orianna_hw::{search_default, Combine, SearchSpace, WorkloadSet};

    let mut results = Results::new(reps, filter);
    let mut speedups = Vec::new();
    let roomy = Resources {
        lut: u64::MAX / 4,
        ff: u64::MAX / 4,
        bram: u64::MAX / 4,
        dsp: u64::MAX / 4,
    };
    let apps = all_apps(2024);

    // --- Enumerable 512-config space, single workload. The manipulator
    // localization stream crosses the saturation knee inside this grid,
    // so both the bound gate and the pruned baseline have work to do.
    let manip = apps[1].algorithm("localization");
    let manip_prog = compile(&manip.graph, &natural_ordering(&manip.graph)).unwrap();
    let manip_wl = Workload::single("manip_loc", &manip_prog);
    let space512 = SearchSpace::with_max(&[
        (UnitClass::Qr, 4),
        (UnitClass::MatMul, 4),
        (UnitClass::Vector, 4),
        (UnitClass::Memory, 4),
        (UnitClass::Special, 2),
    ]);
    assert_eq!(space512.size(), 512);
    let enum512 = space512.enumerate();
    {
        let family: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
            (
                "dse_search_512/search".into(),
                Box::new(|| {
                    let mut set = WorkloadSet::single(
                        "manip_loc",
                        DseContext::with_parallelism(&manip_wl, Parallelism::default()),
                        Objective::Latency,
                    );
                    let got = search_default(&mut set, &space512, &roomy, 42);
                    std::hint::black_box(got.best.map(|b| b.score));
                }),
            ),
            (
                "dse_search_512/exhaustive".into(),
                Box::new(|| {
                    let mut ctx = DseContext::with_parallelism(&manip_wl, Parallelism::default());
                    let r = ctx.sweep(&enum512, &roomy, Objective::Latency, SweepMode::Exhaustive);
                    std::hint::black_box(r.evaluated);
                }),
            ),
            (
                "dse_search_512/pruned".into(),
                Box::new(|| {
                    let mut ctx = DseContext::with_parallelism(&manip_wl, Parallelism::default());
                    let r = ctx.sweep(&enum512, &roomy, Objective::Latency, SweepMode::Pruned);
                    std::hint::black_box((r.evaluated, r.skipped_bound));
                }),
            ),
        ];
        results.record_interleaved(family, 1);
        for (base, other, name) in [
            (
                "dse_search_512/exhaustive",
                "dse_search_512/search",
                "search_vs_exhaustive/dse_search_512",
            ),
            (
                "dse_search_512/pruned",
                "dse_search_512/search",
                "search_vs_pruned/dse_search_512",
            ),
        ] {
            if let Some(ratio) = results.paired_speedup(base, other) {
                speedups.push((name.to_string(), ratio));
            }
        }
        if results.admits("dse_search_512/search") {
            // Counted run: regret and memo-hit-adjusted simulations.
            let mut set = WorkloadSet::single(
                "manip_loc",
                DseContext::with_parallelism(&manip_wl, Parallelism::default()),
                Objective::Latency,
            );
            let got = search_default(&mut set, &space512, &roomy, 42);
            let best = got.best.expect("roomy budget yields a winner").score;
            let mut ex = DseContext::with_parallelism(&manip_wl, Parallelism::default());
            let sweep = ex.sweep(&enum512, &roomy, Objective::Latency, SweepMode::Exhaustive);
            let (_, report) = sweep.best.expect("exhaustive winner");
            let exhaustive = report.cycles as f64;
            let sims = set.simulations();
            println!(
                "  dse_search_512 quality: search {best} vs exhaustive {exhaustive}, \
                 {sims} simulations for 512 candidates ({} gated, {} polish sims)",
                got.stats.bound_gated, got.stats.polish_simulations
            );
            assert!(best >= exhaustive, "search cannot beat exhaustive");
            speedups.push(("regret_ratio/dse_search_512".to_string(), best / exhaustive));
            speedups.push(("sims_saved/dse_search_512".to_string(), 512.0 / sims as f64));
        }
    }

    // --- 10⁴-candidate multi-workload co-design: one accelerator for
    // all twelve app algorithms, worst-case latency objective.
    let graphs: Vec<(String, _)> = apps
        .iter()
        .flat_map(|app| {
            app.algorithms.iter().map(|algo| {
                (
                    format!("{}/{}", app.name.replace(' ', "_"), algo.name),
                    compile(&algo.graph, &natural_ordering(&algo.graph)).unwrap(),
                )
            })
        })
        .collect();
    let workloads: Vec<(String, Workload<'_>)> = graphs
        .iter()
        .map(|(name, prog)| (name.clone(), Workload::single("stream", prog)))
        .collect();
    let space10k = SearchSpace::with_max(&[
        (UnitClass::Qr, 10),
        (UnitClass::MatMul, 10),
        (UnitClass::Vector, 10),
        (UnitClass::Memory, 10),
    ]);
    assert_eq!(space10k.size(), 10_000);
    let make_set = || {
        let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
        for (name, wl) in &workloads {
            set.push(
                name.clone(),
                DseContext::with_parallelism(wl, Parallelism::default()),
            );
        }
        set
    };
    // Per-workload pruned-sweep co-design baseline: sweep the whole
    // space once per workload, then cross-evaluate the twelve winners
    // and keep the best aggregate.
    let sweep_baseline = |enumerated: &[HwConfig]| -> f64 {
        let winners: Vec<HwConfig> = workloads
            .iter()
            .map(|(_, wl)| {
                let mut ctx = DseContext::with_parallelism(wl, Parallelism::default());
                let r = ctx.sweep(enumerated, &roomy, Objective::Latency, SweepMode::Pruned);
                r.best.expect("roomy budget yields a winner").0
            })
            .collect();
        let mut set = make_set();
        let reports = set.evaluate(&winners);
        reports
            .iter()
            .map(|per| per.iter().map(|r| r.cycles as f64).fold(0.0, f64::max))
            .fold(f64::INFINITY, f64::min)
    };
    let enum10k = space10k.enumerate();
    // The quick smoke keeps the full candidate count but sweeps the
    // baseline once (it dominates the runtime).
    let baseline_reps = if quick { 1 } else { reps };
    if results.admits("dse_search_10k/search") {
        let ns = median_ns(0, reps, || {
            let mut set = make_set();
            let got = search_default(&mut set, &space10k, &roomy, 42);
            std::hint::black_box(got.best.map(|b| b.score));
        });
        println!("  dse_search_10k/search: {ns} ns");
        results.entries.push(("dse_search_10k/search".into(), ns));
    }
    if results.admits("dse_search_10k/pruned_sweep") {
        let ns = median_ns(0, baseline_reps, || {
            std::hint::black_box(sweep_baseline(&enum10k));
        });
        println!("  dse_search_10k/pruned_sweep: {ns} ns");
        results
            .entries
            .push(("dse_search_10k/pruned_sweep".into(), ns));
    }
    if results.admits("dse_search_10k/search") && results.admits("dse_search_10k/pruned_sweep") {
        let mut set = make_set();
        let got = search_default(&mut set, &space10k, &roomy, 42);
        let search_best = got.best.expect("roomy budget yields a winner").score;
        let baseline_best = sweep_baseline(&enum10k);
        let sims = set.simulations();
        println!(
            "  dse_search_10k quality: search {search_best} vs sweep-baseline {baseline_best}, \
             {sims} simulations across 12 workloads ({} proposed, {} gated)",
            got.stats.proposed, got.stats.bound_gated
        );
        assert!(
            search_best <= baseline_best,
            "search must find an equal-or-better co-design than the per-workload sweeps"
        );
        speedups.push((
            "objective_margin/dse_search_10k".to_string(),
            baseline_best / search_best,
        ));
        if let (Some(sweep), Some(search)) = (
            results.get_opt("dse_search_10k/pruned_sweep"),
            results.get_opt("dse_search_10k/search"),
        ) {
            speedups.push((
                "search_vs_pruned/dse_search_10k".to_string(),
                sweep as f64 / search as f64,
            ));
        }
    }

    (results, speedups)
}

fn main() {
    let args = parse_args();

    if args.dse_search {
        let (mode, reps) = if args.quick {
            ("dse-search-quick", 2)
        } else {
            ("dse-search-full", 5)
        };
        println!("orianna-bench ({mode} mode, {reps} reps)");
        println!("dse-search:");
        let (results, speedups) = bench_dse_search(reps, args.quick, args.filter.clone());
        let json = to_json(mode, reps, &results, &speedups);
        let path = format!("{}/BENCH_dse.json", args.out_dir);
        std::fs::write(&path, json).expect("write BENCH_dse.json");
        println!("wrote {path}");
        return;
    }

    if args.server {
        let (mode, reps) = if args.quick {
            ("server-quick", 2)
        } else {
            ("server-full", 5)
        };
        println!("orianna-bench ({mode} mode, {reps} reps)");
        println!("server:");
        let (results, speedups) = bench_server(reps, args.quick, args.filter.clone());
        let json = to_json(mode, reps, &results, &speedups);
        let path = format!("{}/BENCH_server.json", args.out_dir);
        std::fs::write(&path, json).expect("write BENCH_server.json");
        println!("wrote {path}");
        return;
    }

    let (mode, reps) = if args.quick {
        ("quick", 10)
    } else {
        ("full", 30)
    };

    println!("orianna-bench ({mode} mode, {reps} reps)");
    println!("solver:");
    let (solver_results, solver_speedups) = bench_solver(reps, args.filter.clone());
    println!("sim:");
    let (sim_results, sim_speedups) = bench_sim(reps, args.filter.clone());

    let solver_json = to_json(mode, reps, &solver_results, &solver_speedups);
    let sim_json = to_json(mode, reps, &sim_results, &sim_speedups);
    let solver_path = format!("{}/BENCH_solver.json", args.out_dir);
    let sim_path = format!("{}/BENCH_sim.json", args.out_dir);
    std::fs::write(&solver_path, solver_json).expect("write BENCH_solver.json");
    std::fs::write(&sim_path, sim_json).expect("write BENCH_sim.json");
    println!("wrote {solver_path} and {sim_path}");
}

//! Criterion benchmarks of the solver layer: linearization, variable
//! elimination (with the natural-vs-min-degree ordering ablation), and
//! full Gauss-Newton on the benchmark applications.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orianna_apps::all_apps;
use orianna_graph::{
    min_degree_ordering, natural_ordering, BetweenFactor, FactorGraph, PriorFactor,
};
use orianna_lie::Pose2;
use orianna_math::{par::available_threads, Parallelism};
use orianna_solver::{eliminate, GaussNewton, GaussNewtonSettings, SolvePlan};

fn chain(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..n)
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
    // Loop closures every 10 poses for realistic fill-in.
    for i in (0..n.saturating_sub(10)).step_by(10) {
        g.add_factor(BetweenFactor::pose2(
            ids[i],
            ids[i + 10],
            Pose2::new(0.0, 10.0, 0.0),
            0.5,
        ));
    }
    g
}

fn bench_elimination_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("elimination");
    for n in [10usize, 40, 100] {
        let g = chain(n);
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        group.bench_with_input(BenchmarkId::new("natural", n), &n, |b, _| {
            b.iter(|| eliminate(&sys, &ordering).unwrap())
        });
        let md = min_degree_ordering(&g);
        group.bench_with_input(BenchmarkId::new("min_degree", n), &n, |b, _| {
            b.iter(|| eliminate(&sys, &md).unwrap())
        });
    }
    group.finish();
}

fn bench_linearize(c: &mut Criterion) {
    let g = chain(50);
    c.bench_function("linearize_50_pose_chain", |b| b.iter(|| g.linearize()));
}

fn bench_app_gauss_newton(c: &mut Criterion) {
    let mut group = c.benchmark_group("gauss_newton");
    group.sample_size(10);
    for app in all_apps(2024) {
        let algo = app.algorithm("localization");
        group.bench_function(BenchmarkId::from_parameter(app.name), |b| {
            b.iter(|| {
                let mut g = algo.graph.clone();
                GaussNewton::new(GaussNewtonSettings {
                    max_iterations: 5,
                    ..Default::default()
                })
                .optimize(&mut g)
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_incremental_vs_batch(c: &mut Criterion) {
    use orianna_graph::{Factor, Variable};
    use orianna_solver::IncrementalSolver;
    use std::sync::Arc;
    let mut group = c.benchmark_group("incremental_update");
    group.sample_size(10);
    // Pre-build a 60-pose chain, then measure the cost of one more
    // odometry update: incremental vs full batch re-elimination.
    let n = 60;
    let g = chain(n);
    group.bench_function("batch_re_eliminate", |b| {
        b.iter(|| {
            let sys = g.linearize();
            eliminate(&sys, &natural_ordering(&g))
                .unwrap()
                .0
                .back_substitute()
                .unwrap()
        })
    });
    group.bench_function("isam_update", |b| {
        b.iter_batched(
            || {
                let mut inc = IncrementalSolver::new();
                let mut fs: Vec<Arc<dyn Factor>> = Vec::new();
                let ids: Vec<_> = (0..n)
                    .map(|i| inc.add_variable(Variable::Pose2(Pose2::new(0.0, i as f64, 0.1))))
                    .collect();
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
                let v = inc.add_variable(Variable::Pose2(Pose2::new(0.0, n as f64, 0.1)));
                (inc, ids[n - 1], v)
            },
            |(mut inc, prev, v)| {
                inc.update(vec![Arc::new(BetweenFactor::pose2(
                    prev,
                    v,
                    Pose2::new(0.0, 1.0, 0.0),
                    0.2,
                )) as Arc<dyn Factor>])
                    .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Linearize + arena solve ([`SolvePlan::solve_in_with`]) on the largest
/// benchmark algorithm (by factor count) across all applications, at 1,
/// 2, 4 and all-core thread counts. One plan and one workspace serve
/// every iteration; results are bitwise identical at every width, so the
/// rows differ only in time. Report speedup as 1-thread time over
/// n-thread time.
fn bench_parallel_speedup(c: &mut Criterion) {
    let apps = all_apps(2024);
    let algo = apps
        .iter()
        .flat_map(|a| a.algorithms.iter())
        .max_by_key(|a| a.graph.num_factors())
        .expect("benchmark apps are non-empty");
    let ordering = natural_ordering(&algo.graph);
    let plan = SolvePlan::for_graph(&algo.graph, ordering.as_slice()).unwrap();
    let mut ws = plan.workspace();

    let mut group = c.benchmark_group("parallel_linearize_eliminate");
    group.sample_size(10);
    let mut widths = vec![1usize, 2, 4, available_threads()];
    widths.sort_unstable();
    widths.dedup();
    for threads in widths {
        let par = Parallelism::with_threads(threads);
        group.bench_function(BenchmarkId::new("arena", threads), |b| {
            b.iter(|| {
                let sys = algo.graph.linearize_with(&par);
                plan.solve_in_with(&sys, &mut ws, &par).unwrap().len()
            })
        });
    }
    group.finish();
}

/// Batched simulation throughput: all compiled benchmark streams
/// simulated one-by-one vs through `simulate_batch`. Near-linear scaling
/// up to 4 workloads is expected on a ≥ 4-core host.
fn bench_simulate_batch(c: &mut Criterion) {
    use orianna_compiler::compile;
    use orianna_hw::{simulate, simulate_batch, HwConfig, IssuePolicy, Workload};
    let apps = all_apps(2024);
    let programs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            app.algorithms
                .iter()
                .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).unwrap())
        })
        .collect();
    let workloads: Vec<Workload<'_>> = programs
        .iter()
        .take(4)
        .map(|p| Workload::single("stream", p))
        .collect();
    let cfg = HwConfig::minimal();

    let mut group = c.benchmark_group("simulate_batch_4_workloads");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            workloads
                .iter()
                .map(|w| simulate(w, &cfg, IssuePolicy::OutOfOrder))
                .collect::<Vec<_>>()
        })
    });
    for threads in [2usize, 4] {
        let par = Parallelism::with_threads(threads);
        group.bench_function(BenchmarkId::new("batched", threads), |b| {
            b.iter(|| simulate_batch(&workloads, &cfg, IssuePolicy::OutOfOrder, &par))
        });
    }
    group.finish();
}

/// Symbolic/numeric split amortization (DESIGN.md §3.2.2): per benchmark
/// application, compare a plan-less serial elimination ("planless")
/// against executing a prebuilt [`SolvePlan`] ("planned"), and measure the
/// one-time symbolic analysis itself ("plan_build"). Reused across solver
/// iterations, the planned path should approach the pure numeric cost —
/// the plan build amortizes to ~zero.
fn bench_plan_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_reuse");
    group.sample_size(20);
    for app in all_apps(2024) {
        let algo = app.algorithm("localization");
        let ordering = natural_ordering(&algo.graph);
        let sys = algo.graph.linearize();
        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
        group.bench_function(BenchmarkId::new("planless", app.name), |b| {
            b.iter(|| eliminate(&sys, &ordering).unwrap())
        });
        group.bench_function(BenchmarkId::new("planned", app.name), |b| {
            b.iter(|| plan.execute(&sys).unwrap())
        });
        // The arena path: same schedule executed against a reusable flat
        // workspace — no per-step matrix allocation, R-only Householder.
        let mut ws = plan.workspace();
        group.bench_function(BenchmarkId::new("arena", app.name), |b| {
            b.iter(|| plan.solve_in(&sys, &mut ws).unwrap().len())
        });
        group.bench_function(BenchmarkId::new("plan_build", app.name), |b| {
            b.iter(|| SolvePlan::for_system(&sys, ordering.as_slice()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_elimination_scaling,
    bench_linearize,
    bench_app_gauss_newton,
    bench_incremental_vs_batch,
    bench_parallel_speedup,
    bench_simulate_batch,
    bench_plan_reuse
);
criterion_main!(benches);

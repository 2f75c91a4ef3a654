//! Steady-state heap-allocation checks for the arena solve path and the
//! Gauss-Newton construction phase around it.
//!
//! This file is its own integration-test binary on purpose: it installs a
//! counting `#[global_allocator]`, which must not be shared with other
//! tests (the tests here take `SERIAL` so their counting windows never
//! overlap). Each test warms its buffers once (first-run `Vec` growth is
//! expected), then asserts that the steady state performs **zero** heap
//! allocations: repeated `solve_in` calls over relinearized systems, and
//! linearization, objective evaluation and retraction into warm buffers —
//! inside whole GN/LM solves of the paper applications too.

use orianna_apps::all_apps;
use orianna_graph::{
    natural_ordering, BetweenFactor, FactorGraph, LinearSystem, PriorFactor, Values,
};
use orianna_lie::Pose2;
use orianna_math::Vec64;
use orianna_solver::{
    GaussNewton, GaussNewtonSettings, LevenbergMarquardt, LevenbergMarquardtSettings, PlanCache,
    SolvePlan,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted, so the test
    /// harness's own threads never leak into a counting window. All the
    /// solves measured here are serial.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    ENABLED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Heap allocations made while running `f`.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.with(|e| e.set(true));
    let out = f();
    ENABLED.with(|e| e.set(false));
    (out, ALLOCS.load(Ordering::SeqCst))
}

#[test]
fn arena_solve_is_allocation_free_in_steady_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A loopy pose chain: multi-variable frontals, separators, and new
    // factors flowing between elimination steps.
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..12)
        .map(|i| g.add_pose2(Pose2::new(0.1, i as f64 * 0.9, -0.05)))
        .collect();
    g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.05));
    for w in ids.windows(2) {
        g.add_factor(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.1,
        ));
    }
    g.add_factor(BetweenFactor::pose2(
        ids[2],
        ids[9],
        Pose2::new(0.0, 7.0, 0.0),
        0.3,
    ));

    let sys = g.linearize();
    let ordering = natural_ordering(&g);
    let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
    let mut ws = plan.workspace();

    // Warm-up: the first solve may grow the stats vector to capacity.
    let warm = plan
        .solve_in(&sys, &mut ws)
        .expect("warm-up solves")
        .clone();

    let ((), counted) = count_allocs(|| {
        for _ in 0..5 {
            let delta = plan.solve_in(&sys, &mut ws).expect("steady-state solves");
            assert_eq!(delta.len(), warm.len());
        }
    });

    assert_eq!(
        counted, 0,
        "arena solve allocated {counted} times in steady state"
    );
    // Sanity: the counted runs really solved the system.
    let reference = plan.solve_in(&sys, &mut ws).expect("solves");
    for i in 0..warm.len() {
        assert_eq!(warm[i].to_bits(), reference[i].to_bits());
    }
}

/// The mission harness's Gauss-Newton settings for an algorithm.
fn mission_gn(iterations: u64) -> GaussNewton {
    GaussNewton::new(GaussNewtonSettings {
        max_iterations: iterations as usize,
        max_step_halvings: 0,
        ..Default::default()
    })
}

#[test]
fn warm_construction_objective_and_retract_are_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (app, next) in all_apps(2024).iter().zip(all_apps(2025)) {
        for (algo, reseeded) in app.algorithms.iter().zip(&next.algorithms) {
            let g = &reseeded.graph;
            assert_eq!(
                g.structure_fingerprint(),
                algo.graph.structure_fingerprint(),
                "{} {}: re-seeding must keep the topology",
                app.name,
                algo.name
            );
            // Warm every buffer on the first seed's graph.
            let mut sys = LinearSystem::default();
            algo.graph.linearize_into(&mut sys);
            let delta = Vec64::from_slice(&vec![1e-3; g.values().total_dim()]);
            let mut stepped = Values::new();
            algo.graph.values().retract_all_into(&delta, &mut stepped);

            let ((), lin) = count_allocs(|| g.linearize_into(&mut sys));
            let (err, obj) = count_allocs(|| g.total_error() + g.total_error_with(&stepped));
            let ((), ret) = count_allocs(|| g.values().retract_all_into(&delta, &mut stepped));
            assert_eq!(
                (lin, obj, ret),
                (0, 0, 0),
                "{} {}: linearize/objective/retract allocations",
                app.name,
                algo.name
            );
            assert!(err.is_finite());
            let fresh = g.linearize();
            for (a, b) in sys.factors.iter().zip(&fresh.factors) {
                assert_eq!(a.keys, b.keys);
                assert_eq!(a.blocks, b.blocks);
                assert_eq!(a.rhs, b.rhs);
            }
        }
    }
}

#[test]
fn recurring_topology_solve_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cache = PlanCache::new();
    for (app, next) in all_apps(2024).iter().zip(all_apps(2025)) {
        for (algo, reseeded) in app.algorithms.iter().zip(&next.algorithms) {
            let gn = mission_gn(algo.iterations);
            // Warm-up: one solve builds the plan and parks the workspace
            // with a system and candidate buffers of this topology's
            // shapes.
            gn.optimize_with_cache(&mut algo.graph.clone(), &mut cache)
                .expect("warm-up solve");
            let mut g = reseeded.graph.clone();
            let (report, allocs) = count_allocs(|| gn.optimize_with_cache(&mut g, &mut cache));
            let report = report.expect("re-seeded solve");
            assert!(report.iterations >= 1, "{} {}", app.name, algo.name);
            // Checkout, construction, objective, retraction, the arena
            // solve and parking allocate nothing in any iteration.
            assert_eq!(
                allocs, 0,
                "{} {}: {allocs} allocations over {} iterations",
                app.name, algo.name, report.iterations
            );
        }
    }
}

#[test]
fn warm_levenberg_marquardt_with_a_held_plan_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let lm = LevenbergMarquardt::new(LevenbergMarquardtSettings {
        max_iterations: 6,
        ..Default::default()
    });
    for (app, next) in all_apps(2024).iter().zip(all_apps(2025)) {
        for (algo, reseeded) in app.algorithms.iter().zip(&next.algorithms) {
            let plan = lm.plan(&algo.graph).expect("damped plan");
            let mut ws = plan.workspace();
            lm.optimize_with_plan(&mut algo.graph.clone(), &plan, &mut ws)
                .expect("warm-up solves");
            let mut g = reseeded.graph.clone();
            let (report, allocs) = count_allocs(|| lm.optimize_with_plan(&mut g, &plan, &mut ws));
            let report = report.expect("re-seeded solve");
            assert!(report.iterations >= 1, "{} {}", app.name, algo.name);
            assert_eq!(
                allocs, 0,
                "{} {}: {allocs} allocations",
                app.name, algo.name
            );
        }
    }
}

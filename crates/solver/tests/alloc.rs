//! Steady-state heap-allocation check for the arena solve path (ISSUE:
//! arena-backed numeric execution).
//!
//! This file is its own integration-test binary on purpose: it installs a
//! counting `#[global_allocator]`, which must not be shared with other
//! tests. The single test warms the workspace once (first-run `Vec`
//! growth is expected), then asserts that repeated `solve_in` calls over
//! relinearized systems perform **zero** heap allocations.

use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
use orianna_lie::Pose2;
use orianna_solver::SolvePlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
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

#[test]
fn arena_solve_is_allocation_free_in_steady_state() {
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

    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        let delta = plan.solve_in(&sys, &mut ws).expect("steady-state solves");
        assert_eq!(delta.len(), warm.len());
    }
    ENABLED.store(false, Ordering::SeqCst);
    let counted = ALLOCS.load(Ordering::SeqCst);

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

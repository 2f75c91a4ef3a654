//! Steady-state heap-allocation check for design-space candidates.
//!
//! This file is its own integration-test binary on purpose: it installs a
//! counting `#[global_allocator]`, which must not be shared with other
//! tests. The single test builds its inputs first, then asserts that
//! building, pricing, keying and bounding a candidate (directly or
//! through a `BoundTable`), and answering a simulation from the memo,
//! perform **zero** heap allocations (a memoized `evaluate` batch is
//! allowed only those of its `simulate_many` calls and the vectors it
//! transposes them into).

use orianna_compiler::{compile, UnitClass};
use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
use orianna_hw::{
    canon_key, Bound, BoundTable, Combine, DseContext, HwConfig, IssuePolicy, Objective,
    SearchSpace, Workload, WorkloadSet,
};
use orianna_lie::Pose2;
use orianna_math::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

/// Heap allocations performed by `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

fn chain_program(poses: usize) -> orianna_compiler::Program {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..poses)
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
    compile(&g, &natural_ordering(&g)).expect("chain compiles")
}

#[test]
fn candidates_are_allocation_free_in_steady_state() {
    let programs = [chain_program(4), chain_program(9)];
    let mut set = WorkloadSet::new(Objective::Energy, Combine::WeightedSum);
    for (i, prog) in programs.iter().enumerate() {
        set.push_weighted(
            "chain",
            DseContext::with_parallelism(&Workload::single("chain", prog), Parallelism::serial()),
            1.0 + i as f64,
        );
    }
    let pairs = [
        (UnitClass::Qr, 3),
        (UnitClass::MatMul, 2),
        (UnitClass::Memory, 4),
    ];
    let config = HwConfig::with_counts(&pairs);
    let warm = set
        .context_mut(0)
        .simulate(&config, IssuePolicy::OutOfOrder);

    let (n, _) = count_allocs(|| {
        for class in UnitClass::ALL {
            let c = black_box(HwConfig::with_counts(black_box(&pairs))).plus_one(class);
            black_box(c.resources());
        }
    });
    assert_eq!(n, 0, "with_counts/plus_one/resources allocated {n} times");

    let (n, _) = count_allocs(|| {
        for class in UnitClass::ALL {
            black_box(canon_key(&black_box(config.plus_one(class))));
        }
    });
    assert_eq!(n, 0, "canon_key allocated {n} times");

    let (n, bound) = count_allocs(|| black_box(set.bound_score(black_box(&config))));
    assert_eq!(n, 0, "bound_score allocated {n} times");
    assert!(bound > 0.0);

    let table = BoundTable::new(&set, &SearchSpace::uniform(4));
    let (n, tabled) = count_allocs(|| black_box(table.bind(&set).score(black_box(&config))));
    assert_eq!(n, 0, "TableBound::score allocated {n} times");
    assert_eq!(tabled.to_bits(), bound.to_bits());

    // A memo hit clones the stored report: flat per-class tallies and
    // shared phase/shape data, so nothing is allocated.
    let (n, _) = count_allocs(|| black_box(warm.clone()));
    assert_eq!(n, 0, "cloning a report allocated {n} times");
    let ctx = set.context_mut(0);
    let hits = ctx.cache_hits();
    let (n, hit) = count_allocs(|| ctx.simulate(black_box(&config), IssuePolicy::OutOfOrder));
    assert_eq!(ctx.cache_hits(), hits + 1, "the lookup was not a memo hit");
    assert_eq!(n, 0, "memo hit allocated {n} times");
    assert_eq!(hit.cycles, warm.cycles);

    // An `evaluate` batch whose every config is memoized may allocate only
    // what its per-context `simulate_many` calls do, plus the transposed
    // vectors (one row per config and the outer one): the reports are
    // moved into place, never cloned again.
    let batch = [config.clone(), config.plus_one(UnitClass::Qr)];
    set.evaluate(&batch);
    let mut per_ctx = 0;
    for i in 0..programs.len() {
        let ctx = set.context_mut(i);
        let (n, _) = count_allocs(|| black_box(ctx.simulate_many(black_box(&batch))));
        per_ctx += n;
    }
    let sims = set.simulations();
    let (n, reports) = count_allocs(|| set.evaluate(black_box(&batch)));
    assert_eq!(set.simulations(), sims, "every config was memoized");
    assert_eq!(reports.len(), batch.len());
    let transposed = batch.len() + 1;
    assert!(
        n <= per_ctx + transposed,
        "memoized evaluate allocated {n} times; simulate_many takes {per_ctx}, \
         the transposed vectors {transposed}"
    );
}

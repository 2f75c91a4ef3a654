//! Heap-allocation check for the functional executor's register arena.
//!
//! This file is its own integration-test binary on purpose: it installs a
//! counting `#[global_allocator]`, which must not be shared with other
//! tests. `execute` sizes one arena (plus a few per-run vectors) before the
//! first instruction, so its allocation count is a small constant that
//! does not grow with program length: a 276-instruction program and a
//! 2 401-instruction one allocate exactly the same number of times.

use orianna_apps::all_apps;
use orianna_compiler::{compile, execute, Program};
use orianna_graph::{natural_ordering, FactorGraph};
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

/// Allocations made by one `execute` of `prog` (the result included).
fn execute_allocations(prog: &Program, g: &FactorGraph) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let result = execute(prog, g.values());
    ENABLED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    result.expect("executes");
    n
}

#[test]
fn execute_allocations_do_not_grow_with_program_length() {
    let apps = all_apps(1);
    let graph = |name: &str| {
        let app = apps.iter().find(|a| a.name == name).expect("app exists");
        &app.algorithm("localization").graph
    };
    let short = graph("Manipulator");
    let long = graph("AutoVehicle");
    let short_prog = compile(short, &natural_ordering(short)).expect("compiles");
    let long_prog = compile(long, &natural_ordering(long)).expect("compiles");
    assert_eq!(short_prog.instrs.len(), 276);
    assert_eq!(long_prog.instrs.len(), 2401);

    let short_allocs = execute_allocations(&short_prog, short);
    let long_allocs = execute_allocations(&long_prog, long);
    assert_eq!(short_allocs, long_allocs, "allocations grew with length");
    assert!(short_allocs <= 8, "{short_allocs} allocations per execute");
}

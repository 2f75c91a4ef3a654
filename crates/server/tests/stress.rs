//! Concurrency stress for the sharded plan cache (ISSUE: fleet-scale
//! serving, stress satellite).
//!
//! N threads hammer one [`ShardedPlanCache`] with interleaved
//! checkout / park / invalidate across several topologies, and the test
//! proves the pool invariants with workspace identities (fresh per
//! allocation, moved — never copied — through the pool):
//!
//! * **no double checkout** — at no instant do two threads hold a
//!   workspace with the same id (a shared live-set insert would fail);
//! * **no lost workspaces** — at quiescence every built arena is parked
//!   or evicted: `builds == parked + evictions`;
//! * **exact counter accounting** — `reuses + builds` equals the total
//!   workspaces checked out across every thread, with no slack.

use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
use orianna_lie::Pose2;
use orianna_server::{splitmix64, ShardedPlanCache};
use orianna_solver::{SolveError, SolvePlan};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn chain(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
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
    g
}

fn build_for(g: &FactorGraph) -> impl FnOnce() -> Result<SolvePlan, SolveError> + '_ {
    move || SolvePlan::for_graph(g, natural_ordering(g).as_slice())
}

#[test]
fn hammered_cache_keeps_exact_workspace_accounting() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 200;

    // Three distinct topologies (different chain lengths → different
    // fingerprints), spread across shards.
    let graphs: Vec<FactorGraph> = [4usize, 6, 9].iter().map(|&n| chain(n)).collect();
    let fps: Vec<u64> = graphs.iter().map(|g| g.structure_fingerprint()).collect();
    assert_eq!(
        fps.iter().collect::<HashSet<_>>().len(),
        3,
        "topologies must be distinct"
    );

    let cache = ShardedPlanCache::new(4, 16);
    let live: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let checked_out = AtomicUsize::new(0);
    let invalidations_issued = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let graphs = &graphs;
            let fps = &fps;
            let live = &live;
            let checked_out = &checked_out;
            let invalidations_issued = &invalidations_issued;
            scope.spawn(move || {
                for op in 0..OPS_PER_THREAD {
                    let draw = splitmix64(((t as u64) << 32) ^ op as u64);
                    let which = (draw % 3) as usize;
                    let fp = fps[which];
                    // Mostly checkouts of varying batch width, with a
                    // sprinkle of invalidations racing them.
                    if draw.is_multiple_of(13) {
                        cache.invalidate(fp);
                        invalidations_issued.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let k = 1 + (draw >> 8) as usize % 4;
                    let (plan, workspaces) = cache
                        .checkout(fp, k, build_for(&graphs[which]))
                        .expect("plan builds");
                    assert_eq!(plan.fingerprint(), fp);
                    assert_eq!(workspaces.len(), k);
                    checked_out.fetch_add(k, Ordering::Relaxed);
                    {
                        let mut held = live.lock().unwrap();
                        for ws in &workspaces {
                            assert!(
                                held.insert(ws.id()),
                                "workspace {} checked out twice concurrently",
                                ws.id()
                            );
                        }
                    }
                    // Simulate a little work so checkouts overlap.
                    std::hint::black_box(&workspaces);
                    std::thread::yield_now();
                    {
                        let mut held = live.lock().unwrap();
                        for ws in &workspaces {
                            assert!(held.remove(&ws.id()), "workspace id vanished while held");
                        }
                    }
                    cache.park(fp, workspaces);
                }
            });
        }
    });

    assert!(live.lock().unwrap().is_empty(), "all checkouts returned");
    let stats = cache.stats();
    let total = checked_out.load(Ordering::Relaxed) as u64;
    assert_eq!(
        stats.workspace_reuses + stats.workspace_builds,
        total,
        "every checkout is exactly one reuse or one build"
    );
    assert_eq!(
        stats.workspace_builds,
        cache.parked_workspaces() as u64 + stats.workspace_evictions,
        "no lost workspaces: builds == parked + evictions"
    );
    assert!(stats.workspace_reuses > 0, "pooling actually reused arenas");
    // Plan lookups: a miss only happens on first use or after an
    // invalidation dropped the entry, so misses ≤ invalidations + 3.
    assert!(
        stats.plan_misses as usize <= invalidations_issued.load(Ordering::Relaxed) + 3,
        "misses ({}) bounded by invalidations ({}) + topologies",
        stats.plan_misses,
        invalidations_issued.load(Ordering::Relaxed)
    );
}

#[test]
fn invalidation_during_checkout_never_loses_outstanding_workspaces() {
    // One topology, two threads: one checks out and parks, the other
    // invalidates in a tight loop. Outstanding arenas survive
    // invalidation (they are owned by the checker-outer) and parking
    // them back repopulates the pool.
    let g = chain(5);
    let fp = g.structure_fingerprint();
    let cache = ShardedPlanCache::new(2, 8);

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            for _ in 0..300 {
                let (_, wss) = cache.checkout(fp, 2, build_for(&g)).expect("plan");
                std::hint::black_box(&wss);
                cache.park(fp, wss);
            }
        });
        let invalidator = scope.spawn(|| {
            for _ in 0..100 {
                cache.invalidate(fp);
                std::thread::yield_now();
            }
        });
        worker.join().unwrap();
        invalidator.join().unwrap();
    });

    let stats = cache.stats();
    assert_eq!(
        stats.workspace_builds,
        cache.parked_workspaces() as u64 + stats.workspace_evictions,
        "builds == parked + evictions even under racing invalidation"
    );
    assert_eq!(stats.workspace_reuses + stats.workspace_builds, 600);
}

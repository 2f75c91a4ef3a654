//! Sharded topology-fingerprint → [`SolvePlan`] cache with per-shard
//! workspace pools.
//!
//! One global plan cache behind one mutex would serialize every request's
//! symbolic lookup; sharding by fingerprint spreads unrelated topologies
//! across independent locks so fleet traffic only contends when it
//! *shares* a topology — exactly the case batching wants to detect
//! anyway. Each shard is a [`PlanCache`] (plans + bounded workspace
//! pools), so the single-tenant and multi-tenant paths share one
//! implementation and one set of invariants:
//!
//! * a parked workspace is **moved** to exactly one checkout — double
//!   checkout is impossible (verified by id in the stress suite);
//! * every checkout is either a pool reuse or a counted fresh build, and
//!   every park either returns the arena or counts an eviction, so
//!   `builds == parked + evictions + outstanding` at every quiescent
//!   point;
//! * shard choice depends only on the fingerprint, never on thread
//!   identity, so results are shard-count-independent.

use crate::metrics::CacheStats;
use orianna_solver::{PlanCache, SolveError, SolvePlan, Workspace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fingerprint-sharded plan + workspace-pool cache.
#[derive(Debug)]
pub struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
    invalidations: AtomicU64,
}

impl ShardedPlanCache {
    /// Creates a cache with `shards` independent shards (clamped to ≥ 1),
    /// each parking at most `pool_cap` workspaces per topology.
    pub fn new(shards: usize, pool_cap: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    let mut c = PlanCache::new();
                    c.set_workspace_cap(pool_cap);
                    Mutex::new(c)
                })
                .collect(),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<PlanCache> {
        // Fingerprints are already avalanched hashes; simple modulo
        // spreads them evenly.
        &self.shards[(fingerprint % self.shards.len() as u64) as usize]
    }

    /// Checks out the plan plus `count` exclusive workspaces for one
    /// batch execution — a single lock acquisition on the owning shard.
    /// Parked arenas are reused first; the remainder is freshly
    /// allocated (counted per workspace).
    ///
    /// # Errors
    /// Propagates plan-construction errors.
    pub fn checkout(
        &self,
        fingerprint: u64,
        count: usize,
        build: impl FnOnce() -> Result<SolvePlan, SolveError>,
    ) -> Result<(Arc<SolvePlan>, Vec<Workspace>), SolveError> {
        let mut shard = self.shard(fingerprint).lock().expect("cache shard lock");
        let plan = shard.get_or_build(fingerprint, build)?;
        let workspaces = (0..count)
            .map(|_| shard.checkout_workspace(&plan))
            .collect();
        Ok((plan, workspaces))
    }

    /// Parks workspaces back for reuse. Pool overflow beyond the per-key
    /// cap drops arenas (counted as evictions).
    pub fn park(&self, fingerprint: u64, workspaces: impl IntoIterator<Item = Workspace>) {
        let mut shard = self.shard(fingerprint).lock().expect("cache shard lock");
        for ws in workspaces {
            shard.store_workspace(fingerprint, ws);
        }
    }

    /// Drops the plan and parked workspaces of `fingerprint`.
    /// Returns whether a plan was cached. Outstanding checkouts are
    /// unaffected; parking them back repopulates the pool.
    pub fn invalidate(&self, fingerprint: u64) -> bool {
        let dropped = self
            .shard(fingerprint)
            .lock()
            .expect("cache shard lock")
            .invalidate(fingerprint);
        if dropped {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// Plans currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when no shard holds a plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Workspaces currently parked across all shards.
    pub fn parked_workspaces(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").parked_workspaces())
            .sum()
    }

    /// Counter totals across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut t = CacheStats {
            invalidations: self.invalidations.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for s in &self.shards {
            let s = s.lock().expect("cache shard lock");
            t.plan_hits += s.hits() as u64;
            t.plan_misses += s.misses() as u64;
            t.workspace_reuses += s.workspace_reuses() as u64;
            t.workspace_builds += s.workspace_builds() as u64;
            t.workspace_evictions += s.workspace_evictions() as u64;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
    use orianna_lie::Pose2;

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
    fn checkout_returns_plan_and_exclusive_workspaces() {
        let g = chain(5);
        let fp = g.structure_fingerprint();
        let cache = ShardedPlanCache::new(4, 8);
        let (plan, wss) = cache.checkout(fp, 3, build_for(&g)).unwrap();
        assert_eq!(plan.fingerprint(), fp);
        assert_eq!(wss.len(), 3);
        let mut ids: Vec<u64> = wss.iter().map(|w| w.id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "every workspace is a distinct allocation");
        let s = cache.stats();
        assert_eq!(s.plan_misses, 1);
        assert_eq!(s.workspace_builds, 3);

        cache.park(fp, wss);
        let (_, wss2) = cache.checkout(fp, 3, build_for(&g)).unwrap();
        let s = cache.stats();
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.workspace_reuses, 3);
        assert_eq!(s.workspace_builds, 3, "no fresh builds on reuse");
        drop(wss2);
    }

    #[test]
    fn shard_choice_is_fingerprint_stable() {
        let g = chain(4);
        let fp = g.structure_fingerprint();
        for shards in [1usize, 2, 7, 16] {
            let cache = ShardedPlanCache::new(shards, 4);
            let (p1, _) = cache.checkout(fp, 0, build_for(&g)).unwrap();
            let (p2, _) = cache.checkout(fp, 0, build_for(&g)).unwrap();
            assert!(Arc::ptr_eq(&p1, &p2), "shards={shards}");
            assert_eq!(cache.stats().plan_misses, 1, "shards={shards}");
        }
    }

    #[test]
    fn invalidate_drops_plan_and_pool() {
        let g = chain(5);
        let fp = g.structure_fingerprint();
        let cache = ShardedPlanCache::new(2, 4);
        let (_, wss) = cache.checkout(fp, 2, build_for(&g)).unwrap();
        cache.park(fp, wss);
        assert_eq!(cache.parked_workspaces(), 2);
        assert!(cache.invalidate(fp));
        assert!(!cache.invalidate(fp));
        assert_eq!(cache.parked_workspaces(), 0);
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.workspace_evictions, 2);
        // The cache still serves after invalidation: a rebuild is a miss.
        let _ = cache.checkout(fp, 1, build_for(&g)).unwrap();
        assert_eq!(cache.stats().plan_misses, 2);
    }

    #[test]
    fn pool_cap_evicts_on_park() {
        let g = chain(4);
        let fp = g.structure_fingerprint();
        let cache = ShardedPlanCache::new(1, 2);
        let (_, wss) = cache.checkout(fp, 5, build_for(&g)).unwrap();
        cache.park(fp, wss);
        assert_eq!(cache.parked_workspaces(), 2, "cap bounds the pool");
        assert_eq!(cache.stats().workspace_evictions, 3);
    }
}

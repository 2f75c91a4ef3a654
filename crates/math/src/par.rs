//! Shared parallel-execution substrate for request-level fan-out.
//!
//! Every solve is serial: one elimination sweep, one back-substitution,
//! one linearization pass. Parallelism runs only *across* independent
//! requests — the server's batch fan-out in `orianna-server` and the DSE
//! sweeps in `orianna-hw` — and all of it funnels through this module so
//! the policy lives in one place:
//!
//! * [`Parallelism`] — the user-facing knob: how many worker threads a
//!   fan-out may use, and whether the cost model may gate a region back
//!   to serial ([`Parallelism::auto`]). Defaults to auto mode with the
//!   machine's available cores; `threads <= 1` runs every fan-out inline.
//! * [`scoped_workers`] — runs `n` copies of a closure that may capture
//!   references to caller-owned data, merging outputs by worker id.
//!   Callers hand out item indices deterministically and merge by index —
//!   never by completion order — so any thread count produces
//!   bitwise-identical output.
//!
//! Each parallel region spawns its helpers with [`std::thread::scope`] and
//! joins them before returning. A spawn + join costs tens of microseconds
//! ([`AUTO_WORK_THRESHOLD`] is sized from it); the regions that fan out run
//! for milliseconds, so no thread outlives the region that started it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// How many worker threads a request-level fan-out may use.
///
/// `threads <= 1` disables parallel dispatch entirely: every fan-out runs
/// its items inline, in order. In **auto** mode (the default) each
/// consumer additionally gates its region through
/// [`Parallelism::effective_threads`] with an estimated amount of work,
/// so regions too small to amortize dispatch run serially no matter how
/// many threads are configured. Results are independent of both `threads`
/// and the gating decision (see the determinism tests in
/// `tests/parallel.rs` and `crates/verify`); only wall-clock time changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum concurrent worker threads (including the calling thread).
    pub threads: usize,
    /// Cost-model gating: when set, regions below the work threshold run
    /// serially even though `threads > 1`.
    auto: bool,
}

impl Default for Parallelism {
    /// Auto (cost-gated) mode with the `ORIANNA_THREADS` environment
    /// override when set (and a valid positive integer), otherwise all
    /// available cores; either way the count is clamped to the cores the
    /// machine actually has — oversubscribing a small container is a pure
    /// loss. This is the one thread knob of the workspace: the server's
    /// batch fan-out and the hardware DSE sweeps both start from
    /// `Parallelism::default()`, so a single environment variable pins
    /// every parallel section at once.
    fn default() -> Self {
        Self::auto()
    }
}

/// Parses one `ORIANNA_THREADS`-style value; `None` when not a positive
/// integer (values are clamped to ≥ 1 like [`Parallelism::with_threads`]).
/// Malformed values therefore fall back to auto-detection instead of
/// being silently re-tried on a later read.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().map(|t| t.max(1))
}

/// The `ORIANNA_THREADS` override; `None` when unset or malformed.
///
/// The environment is read and parsed **once per process**:
/// `Parallelism::default()` sits on hot paths (DSE contexts, server
/// configuration), and `std::env::var` takes a
/// process-wide lock plus a UTF-8 validation per call. The knob is a
/// deployment setting, not a runtime one, so later mutations of the
/// variable are intentionally ignored.
fn env_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("ORIANNA_THREADS")
            .ok()
            .and_then(|raw| parse_threads(&raw))
    })
}

/// Estimated-work threshold (abstract units ≈ flops ≈ serial
/// nanoseconds) below which auto mode runs a region serially, and the
/// work each further granted worker must carry. A scoped spawn + join of
/// one helper costs about 25 µs, so at the threshold a helper carries at
/// least 10× its own start-up cost (DESIGN §3.2.4).
pub const AUTO_WORK_THRESHOLD: u64 = 250_000;

impl Parallelism {
    /// The serial reference configuration.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            auto: false,
        }
    }

    /// A configuration with exactly `threads` workers (clamped to ≥ 1),
    /// **not** cost-gated: parallel sections dispatch regardless of size.
    /// This is the determinism-test configuration; production callers
    /// want [`Parallelism::auto`].
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            auto: false,
        }
    }

    /// Cost-gated mode with the `ORIANNA_THREADS` override (clamped to
    /// available cores) or all available cores.
    pub fn auto() -> Self {
        let avail = available_threads();
        Self {
            threads: env_threads().unwrap_or(avail).min(avail),
            auto: true,
        }
    }

    /// Cost-gated mode with at most `threads` workers, clamped to ≥ 1 and
    /// to the machine's available cores.
    pub fn auto_with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1).min(available_threads()),
            auto: true,
        }
    }

    /// Whether parallel dispatch is enabled at all.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Whether cost-model gating is active.
    pub fn is_auto(&self) -> bool {
        self.auto
    }

    /// Worker count the cost model grants a region of estimated `work`
    /// (abstract units ≈ flops ≈ serial nanoseconds). Non-auto
    /// configurations always get `threads`. Auto mode returns 1 below
    /// [`AUTO_WORK_THRESHOLD`] and then ramps: one extra worker per
    /// threshold of work, capped at `threads`, so each granted worker has
    /// enough work to amortize its spawn and its share of the merge.
    pub fn effective_threads(&self, work: u64) -> usize {
        if !self.auto || self.threads <= 1 {
            return self.threads;
        }
        self.threads.min((work / AUTO_WORK_THRESHOLD) as usize + 1)
    }

    /// The concrete (non-auto) configuration the cost model grants a
    /// region of estimated `work`: consumers call this once per region
    /// and then branch on [`Parallelism::is_parallel`] as before.
    pub fn gate(&self, work: u64) -> Parallelism {
        Parallelism::with_threads(self.effective_threads(work))
    }
}

/// Number of hardware threads the runtime reports (≥ 1), read once per
/// process: `available_parallelism` reads cgroup files on Linux, and
/// [`Parallelism::auto`] and every parallel region ask for it.
pub fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `n = min(par.threads, workers)` copies of `f` and returns their
/// outputs in worker-id order.
///
/// The closure may capture references to caller-owned data (no `'static`
/// bound), which is what the hardware sweeps need — a worker borrows the
/// decoded workload and the candidate configurations while owning its
/// per-worker scratch.
/// Callers distribute work themselves, typically by pulling indices from
/// a shared `AtomicUsize`, and must merge results by item index (never by
/// completion order) to stay deterministic.
///
/// With `n == 1` the single worker runs inline and the call is the serial
/// reference path. Otherwise the region spawns `min(n, cap) - 1` scoped
/// helper threads, where `cap` is [`available_threads`] but at least 8 so
/// that the determinism tests run across threads even on small machines;
/// the caller and the helpers claim worker ids from one atomic cursor
/// until all `n` have run. If any worker panics, every thread is still joined and the
/// lowest-id worker's original payload is re-raised.
pub fn scoped_workers<R, F>(par: &Parallelism, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = par.threads.min(workers).max(1);
    if n == 1 {
        return vec![f(0)];
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let id = cursor.fetch_add(1, Ordering::Relaxed);
            if id >= n {
                return done;
            }
            done.push((id, catch_unwind(AssertUnwindSafe(|| f(id)))));
        }
    };
    let mut pairs = thread::scope(|s| {
        let helpers: Vec<_> = (1..n.min(available_threads().max(8)))
            .map(|_| s.spawn(claim))
            .collect();
        let mut pairs = claim();
        for helper in helpers {
            pairs.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        pairs
    });
    pairs.sort_unstable_by_key(|(id, _)| *id);
    pairs
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_actually_run_on_multiple_threads() {
        // With enough items that block until a sibling joins, at least two
        // distinct threads must participate.
        let next = AtomicUsize::new(0);
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        scoped_workers(&Parallelism::with_threads(4), 4, |_| {
            while next.fetch_add(1, Ordering::Relaxed) < 16 {
                seen.lock().unwrap().insert(thread::current().id());
                thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        assert!(
            seen.lock().unwrap().len() >= 2,
            "expected cross-thread execution"
        );
    }

    #[test]
    fn parallelism_defaults_and_clamping() {
        assert!(Parallelism::default().threads >= 1);
        assert!(Parallelism::default().is_auto());
        assert!(
            Parallelism::default().threads <= available_threads(),
            "default must clamp to available cores"
        );
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert!(!Parallelism::serial().is_parallel());
        assert!(Parallelism::with_threads(4).is_parallel());
        assert!(!Parallelism::with_threads(4).is_auto());
        assert_eq!(
            Parallelism::auto_with_threads(usize::MAX).threads,
            available_threads(),
            "auto clamps to available cores"
        );
    }

    #[test]
    fn orianna_threads_parsing() {
        // The pure parser: valid positive integers clamp to ≥ 1, anything
        // malformed is `None` so the auto (all-cores) default applies
        // instead of a silently re-parsed garbage value.
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads(" 5 "), Some(5), "whitespace is trimmed");
        assert_eq!(parse_threads("0"), Some(1), "zero clamps to one");
        assert_eq!(parse_threads("not-a-number"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None, "negatives fall back to auto");
        assert_eq!(parse_threads("2.5"), None, "fractions fall back to auto");
    }

    #[test]
    fn env_overrides_are_read_once() {
        // The environment is parsed a single time per process; later
        // mutations must not change the configuration mid-run (the knob
        // used to be re-read on every `Parallelism::default()`, i.e. once
        // per solve). Whatever the ambient value was at first read, the
        // cached result is stable against subsequent env churn.
        let before = env_threads();
        std::env::set_var("ORIANNA_THREADS", "7");
        assert_eq!(env_threads(), before, "thread override is cached");
        std::env::remove_var("ORIANNA_THREADS");
        assert_eq!(env_threads(), before);
        // And the default stays well-formed no matter what was cached.
        assert!(Parallelism::default().threads >= 1);
        assert!(Parallelism::default().threads <= available_threads());
    }

    #[test]
    fn auto_mode_gates_small_regions_serial() {
        let auto = Parallelism {
            threads: 8,
            auto: true,
        };
        let t = AUTO_WORK_THRESHOLD;
        assert_eq!(auto.effective_threads(0), 1);
        assert_eq!(auto.effective_threads(t.saturating_sub(1)), 1);
        assert!(auto.effective_threads(t) >= 2, "at-threshold work fans out");
        assert_eq!(
            auto.effective_threads(u64::MAX / 2),
            8,
            "huge regions get every configured thread"
        );
        assert!(!auto.gate(0).is_parallel());
        assert!(auto.gate(u64::MAX / 2).is_parallel());
        // Non-auto configurations are never gated.
        let fixed = Parallelism::with_threads(4);
        assert_eq!(fixed.effective_threads(0), 4);
    }

    #[test]
    fn scoped_workers_runs_every_worker_once() {
        for threads in [1usize, 2, 4, 8] {
            let par = Parallelism::with_threads(threads);
            let out = scoped_workers(&par, 6, |id| id * 10);
            let expect: Vec<usize> = (0..threads.min(6)).map(|id| id * 10).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn scoped_workers_drain_shared_counter_deterministically() {
        // The canonical usage: workers pull item indices from a shared
        // counter and the caller merges by index. Every item is processed
        // exactly once at any thread count.
        let items: Vec<u64> = (0..97).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 8] {
            let next = AtomicUsize::new(0);
            let per_worker =
                scoped_workers(&Parallelism::with_threads(threads), items.len(), |_| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, items[i] * items[i]));
                    }
                    done
                });
            let mut merged = vec![0u64; items.len()];
            let mut count = 0usize;
            for chunk in per_worker {
                for (i, v) in chunk {
                    merged[i] = v;
                    count += 1;
                }
            }
            assert_eq!(count, items.len(), "threads={threads}");
            for (i, item) in items.iter().enumerate() {
                assert_eq!(merged[i], item * item);
            }
        }
    }

    #[test]
    #[should_panic(expected = "scoped boom")]
    fn scoped_worker_panics_propagate() {
        scoped_workers(&Parallelism::with_threads(4), 4, |id| {
            if id == 2 {
                panic!("scoped boom");
            }
            id
        });
    }

    #[test]
    fn region_after_a_panicking_region_still_runs() {
        // Nothing outlives a region, so a panic cannot leak into the next
        // one; with several panicking workers the lowest id's payload is
        // the one re-raised.
        for round in 0..4 {
            let caught = catch_unwind(|| {
                scoped_workers(&Parallelism::with_threads(4), 4, |id| {
                    if id % 2 == 1 {
                        panic!("round {round} worker {id}");
                    }
                    id * 2
                })
            })
            .expect_err("workers 1 and 3 panicked");
            let message = caught.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(*message, format!("round {round} worker 1"));
        }
        let ok = scoped_workers(&Parallelism::with_threads(4), 4, |id| id + 1);
        assert_eq!(ok, vec![1, 2, 3, 4]);
    }

    #[test]
    fn regions_never_exceed_the_thread_cap() {
        // 64 worker ids, each pinning its thread briefly so helpers cannot
        // finish early: at most `max(available, 8)` threads may serve them.
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        scoped_workers(&Parallelism::with_threads(64), 64, |_| {
            seen.lock().unwrap().insert(thread::current().id());
            thread::sleep(std::time::Duration::from_millis(1));
        });
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= available_threads().max(8),
            "{distinct} threads ran one region"
        );
    }
}

//! Shared parallel-execution substrate.
//!
//! Every parallel path in the workspace (per-factor linearization in
//! `orianna-graph`, level-scheduled arena elimination in `orianna-solver`,
//! batched simulation in `orianna-hw`) funnels through this module so the
//! policy lives in one place:
//!
//! * [`Parallelism`] — the user-facing knob: how many worker threads a
//!   parallel section may use, and whether the cost model may gate a
//!   region back to serial ([`Parallelism::auto`]). Defaults to auto mode
//!   with the machine's available cores; `threads <= 1` selects the serial
//!   reference path everywhere.
//! * [`run_tasks`] — executes a deterministic, *ordered* task list on the
//!   worker pool and returns the results in task order. Determinism is by
//!   construction: callers decide the task split deterministically, each
//!   task is a pure function of its owned inputs, and results are merged
//!   by index — never by completion order — so any thread count produces
//!   bitwise-identical output.
//! * [`scoped_workers`] / [`try_scoped_workers`] — the borrow-friendly
//!   sibling: runs `n` copies of a closure that may capture references to
//!   caller-owned data, merging outputs by worker id.
//!
//! Both entry points dispatch onto one lazily-started **persistent pool**
//! of parked worker threads. A parallel region publishes a type-erased job
//! descriptor, wakes as many workers as it wants helpers, and the workers
//! claim worker ids from the job's atomic cursor. The calling thread
//! always participates and, crucially, *claims every id the pool has not
//! taken yet* — pool workers accelerate a call but are never required for
//! progress, so a saturated (or single-core) machine degrades to inline
//! serial execution instead of deadlocking. Dispatch therefore costs a
//! couple of microseconds (one queue push + wakeup), not a thread spawn,
//! and because the workers are persistent their thread-local scratch pools
//! ([`crate::scratch`]) survive from one parallel region to the next.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// How many worker threads a parallel section may use.
///
/// `threads <= 1` disables parallel dispatch entirely: every consumer
/// falls back to its serial reference implementation. In **auto** mode
/// (the default) each consumer additionally gates its region through
/// [`Parallelism::effective_threads`] with an estimated amount of work,
/// so regions too small to amortize dispatch run serially no matter how
/// many threads are configured. Results are independent of both `threads`
/// and the gating decision (see the determinism tests in
/// `tests/parallel.rs`); only wall-clock time changes.
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
    /// loss. This is the one thread knob of the workspace: the solver's
    /// iteration loops and the hardware DSE sweeps both start from
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
/// `Parallelism::default()` sits on every solve's hot path (optimizer
/// construction, DSE sweeps, server sessions), and `std::env::var` takes a
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

/// Default estimated-work threshold (abstract units ≈ flops ≈ serial
/// nanoseconds) below which auto mode runs a region serially. Calibrated
/// on the bench suite: pool dispatch plus by-index merge costs a handful
/// of microseconds, so a region needs a couple hundred microseconds of
/// serial work before a second worker can pay for itself (DESIGN §3.2.4).
pub const AUTO_WORK_THRESHOLD: u64 = 200_000;

/// Parses one `ORIANNA_PAR_THRESHOLD`-style value; `None` when not a
/// non-negative integer, so malformed overrides fall back to
/// [`AUTO_WORK_THRESHOLD`] instead of partially applying.
fn parse_threshold(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok()
}

/// The active auto-mode threshold: `ORIANNA_PAR_THRESHOLD` when set to a
/// non-negative integer, otherwise [`AUTO_WORK_THRESHOLD`]. Read and
/// parsed once per process, like [`env_threads`].
pub fn auto_threshold() -> u64 {
    static THRESHOLD: OnceLock<u64> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("ORIANNA_PAR_THRESHOLD")
            .ok()
            .and_then(|raw| parse_threshold(&raw))
            .unwrap_or(AUTO_WORK_THRESHOLD)
    })
}

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
    /// [`auto_threshold`] and then ramps: one extra worker per threshold
    /// of work, capped at `threads`, so each granted worker has enough
    /// work to amortize its share of dispatch and merge overhead.
    pub fn effective_threads(&self, work: u64) -> usize {
        if !self.auto || self.threads <= 1 {
            return self.threads;
        }
        let t = auto_threshold().max(1);
        if work < t {
            1
        } else {
            self.threads.min((work / t) as usize + 1)
        }
    }

    /// The concrete (non-auto) configuration the cost model grants a
    /// region of estimated `work`: consumers call this once per region
    /// and then branch on [`Parallelism::is_parallel`] as before.
    pub fn gate(&self, work: u64) -> Parallelism {
        Parallelism::with_threads(self.effective_threads(work))
    }
}

/// Number of hardware threads the runtime reports (≥ 1).
pub fn available_threads() -> usize {
    thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// A parallel region that could not produce its results.
///
/// Surfaced by [`try_scoped_workers`]; the panicking sibling
/// [`scoped_workers`] re-raises the original payload instead.
pub enum ParError {
    /// A worker closure panicked. `message` is the stringified payload
    /// (when it was a `&str` or `String`); `payload` is the original
    /// panic value so callers can re-raise it intact.
    WorkerPanicked {
        /// Worker id (0 = the calling thread) that panicked first.
        worker: usize,
        /// Human-readable panic message, best effort.
        message: String,
        /// The original panic payload.
        payload: Box<dyn Any + Send + 'static>,
    },
    /// A worker finished without storing its result — a pool-protocol
    /// violation that should be unreachable; surfaced structurally
    /// instead of via `unwrap` so callers can diagnose it.
    MissingResult {
        /// Worker id whose slot stayed empty.
        worker: usize,
    },
}

impl ParError {
    fn message_of(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }
}

impl std::fmt::Debug for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked {
                worker, message, ..
            } => f
                .debug_struct("WorkerPanicked")
                .field("worker", worker)
                .field("message", message)
                .finish_non_exhaustive(),
            ParError::MissingResult { worker } => f
                .debug_struct("MissingResult")
                .field("worker", worker)
                .finish(),
        }
    }
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked {
                worker, message, ..
            } => {
                write!(f, "parallel worker {worker} panicked: {message}")
            }
            ParError::MissingResult { worker } => {
                write!(f, "parallel worker {worker} produced no result")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Type-erased entry point of a scoped job: runs worker `id` of the job
/// whose context lives behind `ctx`.
type RunFn = unsafe fn(ctx: *const (), id: usize);

/// Claim-cursor value of a job with no active region: any id claimed
/// from it is far beyond every plausible worker count, so a stale pool
/// worker that wakes up between regions bails without touching the job's
/// context. Far below `usize::MAX` so stray `fetch_add`s never wrap.
const IDLE_CURSOR: usize = usize::MAX / 2;

/// Shared state of one parallel region, published to the pool by
/// reference count. The raw `ctx` pointer targets stack data of the
/// dispatching caller; it is only dereferenced by workers that claimed an
/// id `< workers` from `next`, and the caller does not return before
/// `pending` reaches zero, so every dereference happens while the stack
/// frame is alive.
///
/// `run`/`ctx`/`workers` are atomics so a [`WorkerTeam`] can reuse one
/// `JobShared` allocation across regions: the caller rewrites them while
/// the job is idle (`pending == 0`, `next == IDLE_CURSOR`) and then
/// publishes the region with one release store of `next = 1`. A worker's
/// acquire claim on `next` therefore orders its reads of `run`/`ctx`/
/// `workers` after the caller's writes; workers woken through the
/// injector queue are ordered by the queue mutex as well.
struct JobShared {
    /// The region's entry point ([`RunFn`] bits; meaningless while idle).
    run: AtomicUsize,
    ctx: AtomicPtr<()>,
    /// Total worker ids of this region (id 0 belongs to the caller).
    workers: AtomicUsize,
    /// Claim cursor: the next unclaimed worker id (starts at 1; parked at
    /// [`IDLE_CURSOR`] between a reusable team's regions).
    next: AtomicUsize,
    /// Unfinished worker ids; the caller waits for this to hit zero.
    pending: AtomicUsize,
    /// First panic observed by any worker, with its worker id.
    panic: Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// Safety: `ctx` is only dereferenced under the claim protocol described
// on [`JobShared`], and `try_scoped_workers` requires `F: Sync` (the
// closure is shared across threads) and `R: Send` (results move back to
// the caller).
unsafe impl Send for JobShared {}
unsafe impl Sync for JobShared {}

impl JobShared {
    /// A fresh job with the claim cursor parked: nothing runs until a
    /// region is published.
    fn idle() -> Self {
        Self {
            run: AtomicUsize::new(0),
            ctx: AtomicPtr::new(std::ptr::null_mut()),
            workers: AtomicUsize::new(0),
            next: AtomicUsize::new(IDLE_CURSOR),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Claims and runs worker ids until the cursor is exhausted. Shared
    /// by pool workers and (for ids the pool never took) the caller.
    fn service(&self) {
        loop {
            // Acquire pairs with the release store of `next = 1` that
            // published the region, ordering the `run`/`ctx`/`workers`
            // reads below after the caller's writes.
            let id = self.next.fetch_add(1, Ordering::AcqRel);
            if id >= self.workers.load(Ordering::Acquire) {
                return;
            }
            self.run_one(id);
        }
    }

    /// Runs one claimed worker id under a panic guard and retires it.
    fn run_one(&self, id: usize) {
        let run: RunFn = unsafe { std::mem::transmute(self.run.load(Ordering::Acquire)) };
        let ctx: *const () = self.ctx.load(Ordering::Acquire);
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { run(ctx, id) }));
        if let Err(payload) = outcome {
            let mut slot = self.panic.lock().expect("panic slot");
            slot.get_or_insert((id, payload));
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Hold the lock while notifying so the caller cannot check
            // `pending` and block between our decrement and the wakeup.
            let _guard = self.done_lock.lock().expect("done lock");
            self.done_cv.notify_all();
        }
    }

    /// Blocks the caller until every claimed id has retired.
    fn wait(&self) {
        let mut guard = self.done_lock.lock().expect("done lock");
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = self.done_cv.wait(guard).expect("done wait");
        }
    }
}

/// The persistent pool: parked worker threads plus the injector queue
/// they drain. Jobs are `Arc`s, so a worker that wakes up to an already
/// finished job (its cursor exhausted by the caller) simply discards the
/// reference — the stale entry never touches the job's context.
struct PoolShared {
    inject: Mutex<VecDeque<Arc<JobShared>>>,
    wake: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    workers: usize,
}

/// The global pool is sized generously (at least 8 workers) so that
/// determinism tests exercise true cross-thread execution even on small
/// machines; parked workers cost nothing.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = available_threads().max(8);
        let shared = Arc::new(PoolShared {
            // Dispatch caps the backlog at one entry per worker, so this
            // initial capacity is also the queue's final capacity — the
            // injector never reallocates.
            inject: Mutex::new(VecDeque::with_capacity(workers)),
            wake: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("orianna-par-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut queue = match shared.inject.lock() {
                            Ok(q) => q,
                            Err(_) => return,
                        };
                        loop {
                            if let Some(job) = queue.pop_front() {
                                break job;
                            }
                            queue = match shared.wake.wait(queue) {
                                Ok(q) => q,
                                Err(_) => return,
                            };
                        }
                    };
                    job.service();
                })
                .expect("spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Publishes `job` to at most `helpers` pool workers. The backlog is
/// capped at one queue entry per pool worker: the publishing caller
/// services every region itself, so pool pickup is an accelerator, never
/// a correctness need — and the cap pins the queue at its initial
/// capacity, keeping dispatch allocation-free even when a busy machine
/// leaves stale entries undrained.
fn dispatch(job: &Arc<JobShared>, helpers: usize) {
    let pool = pool();
    if helpers == 0 || pool.workers == 0 {
        return;
    }
    let n = {
        let mut queue = pool.shared.inject.lock().expect("injector");
        let n = helpers.min(pool.workers.saturating_sub(queue.len()));
        for _ in 0..n {
            queue.push_back(Arc::clone(job));
        }
        n
    };
    if n == 0 {
        return;
    }
    if n + 1 >= pool.workers {
        pool.shared.wake.notify_all();
    } else {
        for _ in 0..n {
            pool.shared.wake.notify_one();
        }
    }
}

/// Runs up to `min(par.threads, workers)` copies of `f` on the persistent
/// worker pool and returns their outputs in worker-id order, surfacing
/// worker panics as a structured [`ParError`] instead of unwinding.
///
/// See [`scoped_workers`] for the execution contract; this is the same
/// call with `Result` error reporting, for callers that want to attach
/// context before failing.
pub fn try_scoped_workers<R, F>(par: &Parallelism, workers: usize, f: F) -> Result<Vec<R>, ParError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = par.threads.min(workers).max(1);
    if n == 1 {
        return match catch_unwind(AssertUnwindSafe(|| f(0))) {
            Ok(r) => Ok(vec![r]),
            Err(payload) => Err(ParError::WorkerPanicked {
                worker: 0,
                message: ParError::message_of(payload.as_ref()),
                payload,
            }),
        };
    }

    // One result slot per worker id; each id writes only its own slot,
    // and the caller reads them only after `pending` hits zero.
    let slots: Vec<UnsafeCell<Option<R>>> = (0..n).map(|_| UnsafeCell::new(None)).collect();
    struct Ctx<'a, R, F> {
        f: &'a F,
        slots: *const UnsafeCell<Option<R>>,
    }
    unsafe fn run_one<R, F: Fn(usize) -> R>(ctx: *const (), id: usize) {
        let ctx = unsafe { &*(ctx as *const Ctx<'_, R, F>) };
        let result = (ctx.f)(id);
        unsafe { *(*ctx.slots.add(id)).get() = Some(result) };
    }
    let ctx = Ctx {
        f: &f,
        slots: slots.as_ptr(),
    };
    let job = Arc::new(JobShared {
        run: AtomicUsize::new(run_one::<R, F> as RunFn as usize),
        ctx: AtomicPtr::new((&ctx as *const Ctx<'_, R, F>).cast_mut().cast()),
        workers: AtomicUsize::new(n),
        next: AtomicUsize::new(1),
        pending: AtomicUsize::new(n),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    dispatch(&job, n - 1);

    // The caller runs worker 0, then claims every id the pool has not
    // taken — it alone guarantees progress — and finally waits for the
    // ids that pool workers did claim.
    job.run_one(0);
    job.service();
    job.wait();

    if let Some((worker, payload)) = job.panic.lock().expect("panic slot").take() {
        return Err(ParError::WorkerPanicked {
            worker,
            message: ParError::message_of(payload.as_ref()),
            payload,
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(worker, cell)| cell.into_inner().ok_or(ParError::MissingResult { worker }))
        .collect()
}

/// Runs up to `min(par.threads, workers)` copies of `f` on the persistent
/// worker pool and returns their outputs in worker-id order.
///
/// This is the borrow-friendly sibling of [`run_tasks`]: the closure may
/// capture references to caller-owned data (no `'static` bound), which is
/// what the hardware sweeps need — a worker borrows the decoded workload
/// and the candidate configurations while owning its per-worker scratch.
/// Callers distribute work themselves, typically by pulling indices from
/// a shared `AtomicUsize`, and must merge results by item index (never by
/// completion order) to stay deterministic.
///
/// Worker 0 runs on the calling thread, and the caller claims every
/// worker id the pool does not take, so progress never depends on the
/// scheduler; with `par.threads <= 1` or `workers <= 1` the single worker
/// runs inline and the call is the serial reference path. A panicking
/// worker propagates to the caller with its original payload; use
/// [`try_scoped_workers`] to receive a [`ParError`] instead.
pub fn scoped_workers<R, F>(par: &Parallelism, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_scoped_workers(par, workers, f) {
        Ok(out) => out,
        Err(ParError::WorkerPanicked { payload, .. }) => resume_unwind(payload),
        Err(e @ ParError::MissingResult { .. }) => panic!("{e}"),
    }
}

/// A reusable parallel region: one persistent [`JobShared`] allocation
/// that dispatches closures onto the shared worker pool with **zero
/// steady-state heap allocations**.
///
/// [`scoped_workers`] allocates a fresh job descriptor and result slots
/// per region — fine for coarse regions, but the solver's per-level
/// elimination fan-out sits inside an allocation-free hot loop (the
/// counting-allocator test in `orianna-solver` pins it). A `WorkerTeam`
/// amortizes the descriptor: regions after the first reuse the `Arc`, the
/// injector queue's retained capacity, and the pool's parked threads, so
/// the only per-region costs are atomics, a queue push, and a wakeup.
///
/// Unlike [`scoped_workers`] the closures return nothing: workers
/// communicate through caller-owned state (disjoint slices indexed by a
/// claimed item id), which is exactly the deterministic by-index merge
/// discipline the module docs require.
///
/// # Region protocol
///
/// `run` publishes a region by rewriting the idle descriptor
/// (`pending == 0`, cursor parked at [`IDLE_CURSOR`]) and release-storing
/// `next = 1` as the single "go" signal; the caller executes worker 0,
/// claims every id the pool does not take, waits for the rest, and parks
/// the cursor again. A stale pool worker waking up between regions claims
/// an id `>= workers` from the parked cursor and bails without touching
/// `ctx`; one waking during a later region joins that region, which is
/// sound because the claim's acquire pairs with the publish store.
pub struct WorkerTeam {
    job: Arc<JobShared>,
}

impl Default for WorkerTeam {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning yields a *fresh* team: regions are serialized per team via
/// `&mut self`, so sharing the descriptor across clones would let two
/// owners overlap regions. A team carries no state worth copying.
impl Clone for WorkerTeam {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTeam").finish_non_exhaustive()
    }
}

impl WorkerTeam {
    /// Creates a team with an idle job descriptor (the one allocation).
    pub fn new() -> Self {
        Self {
            job: Arc::new(JobShared::idle()),
        }
    }

    /// Runs `f(id)` for every worker id in `0..min(threads, workers)`,
    /// worker 0 on the calling thread. Allocation-free after the first
    /// few regions (pool spawn and injector growth are one-time costs).
    /// With one effective worker, `f(0)` runs inline — the serial path.
    ///
    /// `&mut self` serializes regions per team; a worker panic is
    /// re-raised on the caller after the region fully retires.
    pub fn run<F>(&mut self, threads: usize, workers: usize, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        let n = threads.min(workers).max(1);
        if n == 1 {
            f(0);
            return;
        }
        unsafe fn run_ref<F: Fn(usize)>(ctx: *const (), id: usize) {
            let f = unsafe { &*(ctx as *const F) };
            f(id);
        }
        let job = &self.job;
        debug_assert_eq!(job.pending.load(Ordering::Acquire), 0, "region overlap");
        // Stage the region while the cursor is parked, then publish it
        // with the release store of `next = 1` (see JobShared docs).
        job.run
            .store(run_ref::<F> as RunFn as usize, Ordering::Relaxed);
        job.ctx
            .store((f as *const F).cast_mut().cast(), Ordering::Relaxed);
        job.workers.store(n, Ordering::Relaxed);
        job.pending.store(n, Ordering::Relaxed);
        job.next.store(1, Ordering::Release);
        dispatch(job, n - 1);
        job.run_one(0);
        job.service();
        job.wait();
        // Park the cursor before surfacing any panic so the team stays
        // reusable either way.
        job.next.store(IDLE_CURSOR, Ordering::Release);
        // Drop the guard before unwinding — an `if let` on the locked
        // temporary would hold (and poison) the mutex across the panic.
        let panicked = job.panic.lock().expect("panic slot").take();
        if let Some((_, payload)) = panicked {
            resume_unwind(payload);
        }
    }
}

type Task<R> = Box<dyn FnOnce() -> R + Send + 'static>;

/// Runs `tasks` with up to `threads` concurrent workers and returns their
/// results **in task order**. With `threads <= 1` (or a single task) the
/// tasks run inline on the calling thread, in order — the serial
/// reference. A panicking task is re-raised on the caller after all
/// remaining tasks complete.
pub fn run_tasks<R: Send + 'static>(threads: usize, tasks: Vec<Task<R>>) -> Vec<R> {
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let queue: Mutex<VecDeque<(usize, Task<R>)>> =
        Mutex::new(tasks.into_iter().enumerate().collect());
    let workers = threads.min(n);
    let per_worker = scoped_workers(&Parallelism::with_threads(workers), workers, |_| {
        // Drain the shared queue; a panicking task is caught so the
        // remaining tasks still complete, mirroring the historic
        // channel-pool semantics.
        let mut done: Vec<(usize, thread::Result<R>)> = Vec::new();
        loop {
            let next = queue.lock().expect("task queue").pop_front();
            let Some((idx, task)) = next else { break };
            done.push((idx, catch_unwind(AssertUnwindSafe(task))));
        }
        done
    });

    let mut slots: Vec<Option<thread::Result<R>>> = (0..n).map(|_| None).collect();
    for (idx, outcome) in per_worker.into_iter().flatten() {
        slots[idx] = Some(outcome);
    }
    let mut out = Vec::with_capacity(n);
    let mut panic: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        match slot.expect("every task reports exactly once") {
            Ok(r) => out.push(r),
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        resume_unwind(p);
    }
    out
}

/// Convenience: maps `items` through `f` in parallel, preserving order.
/// `f` must be `Sync` (it is shared across workers) and the items are
/// moved into the tasks.
pub fn par_map<T, R, F>(par: &Parallelism, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    if !par.is_parallel() || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = Arc::new(f);
    let tasks: Vec<Box<dyn FnOnce() -> R + Send>> = items
        .into_iter()
        .map(|item| {
            let f = Arc::clone(&f);
            Box::new(move || f(item)) as Box<dyn FnOnce() -> R + Send>
        })
        .collect();
    run_tasks(par.threads, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..37usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = run_tasks(threads, tasks);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_actually_run_on_multiple_threads() {
        // With enough tasks that block until a sibling joins, at least two
        // distinct threads must participate (pool has ≥ 8 workers).
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|_| {
                let seen = Arc::clone(&seen);
                Box::new(move || {
                    seen.lock().unwrap().insert(thread::current().id());
                    thread::sleep(std::time::Duration::from_millis(2));
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(4, tasks);
        assert!(
            seen.lock().unwrap().len() >= 2,
            "expected cross-thread execution"
        );
    }

    #[test]
    fn pool_threads_persist_across_calls() {
        // Two back-to-back parallel regions must reuse pool threads
        // rather than spawning fresh ones: the set of thread ids seen by
        // helper workers (id > 0) in the second call may not contain a
        // thread that was spawned after the first call completed. We
        // can't observe spawn times directly, so assert the weaker —but
        // still spawn-detecting— property that repeated regions only ever
        // see pool-named threads.
        let caller = thread::current().id();
        for _ in 0..3 {
            let names = scoped_workers(&Parallelism::with_threads(4), 4, |_| {
                // The caller legitimately claims helper ids the pool was
                // too slow to take; only off-caller work must be on pool
                // threads.
                if thread::current().id() == caller {
                    None
                } else {
                    thread::current().name().map(str::to_string)
                }
            });
            for name in names.into_iter().flatten() {
                assert!(
                    name.starts_with("orianna-par-"),
                    "helper ran on non-pool thread {name}"
                );
            }
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&Parallelism::serial(), items.clone(), |x| {
            x.wrapping_mul(31) ^ 7
        });
        let parallel = par_map(&Parallelism::with_threads(4), items, |x| {
            x.wrapping_mul(31) ^ 7
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn counts_every_task_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..257)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(8, tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panics_propagate_to_caller() {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom");
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(4, tasks);
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
    fn orianna_par_threshold_parsing() {
        assert_eq!(parse_threshold("250000"), Some(250_000));
        assert_eq!(parse_threshold(" 0 "), Some(0));
        assert_eq!(parse_threshold("lots"), None, "garbage keeps the default");
        assert_eq!(parse_threshold("-1"), None);
        assert!(auto_threshold() >= 1 || auto_threshold() == 0);
    }

    #[test]
    fn env_overrides_are_read_once() {
        // The environment is parsed a single time per process; later
        // mutations must not change the configuration mid-run (the knob
        // used to be re-read on every `Parallelism::default()`, i.e. once
        // per solve). Whatever the ambient value was at first read, the
        // cached result is stable against subsequent env churn.
        let before = env_threads();
        let threshold_before = auto_threshold();
        std::env::set_var("ORIANNA_THREADS", "7");
        std::env::set_var("ORIANNA_PAR_THRESHOLD", "12345");
        assert_eq!(env_threads(), before, "thread override is cached");
        assert_eq!(
            auto_threshold(),
            threshold_before,
            "threshold override is cached"
        );
        std::env::remove_var("ORIANNA_THREADS");
        std::env::remove_var("ORIANNA_PAR_THRESHOLD");
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
        let t = auto_threshold();
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
    fn try_scoped_workers_surfaces_structured_panic() {
        let err = try_scoped_workers(&Parallelism::with_threads(4), 4, |id| {
            if id == 2 {
                panic!("structured boom {id}");
            }
            id
        })
        .expect_err("worker 2 panicked");
        match err {
            ParError::WorkerPanicked {
                worker, message, ..
            } => {
                assert_eq!(worker, 2);
                assert!(message.contains("structured boom"), "message={message}");
            }
            other => panic!("unexpected error {other}"),
        }
        // Display carries the worker id and message for logs.
        let err = try_scoped_workers(&Parallelism::serial(), 1, |_| -> usize {
            panic!("inline boom")
        })
        .expect_err("inline worker panicked");
        assert!(err.to_string().contains("worker 0"));
        assert!(err.to_string().contains("inline boom"));
    }

    #[test]
    fn worker_team_runs_every_id_across_reused_regions() {
        let mut team = WorkerTeam::new();
        for round in 0..5usize {
            for n in [1usize, 2, 4, 8] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                team.run(n, n, &|id: usize| {
                    hits[id].fetch_add(1, Ordering::Relaxed);
                });
                for (id, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "round {round} n {n} id {id} ran exactly once"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_team_claim_cursor_merges_by_index() {
        // The canonical solver usage: workers drain a shared item cursor
        // and write disjoint slots; every item is taken exactly once.
        let mut team = WorkerTeam::new();
        let items = 153usize;
        for threads in [2usize, 4, 8] {
            let cursor = AtomicUsize::new(0);
            let out: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            team.run(threads, items, &|_id: usize| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                out[i].fetch_add(i * 7 + 1, Ordering::Relaxed);
            });
            for (i, o) in out.iter().enumerate() {
                assert_eq!(o.load(Ordering::Relaxed), i * 7 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn worker_team_survives_panicking_region() {
        let mut team = WorkerTeam::new();
        for round in 0..3 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                team.run(4, 4, &|id: usize| {
                    if id == 1 {
                        panic!("team boom {round}");
                    }
                });
            }));
            assert!(r.is_err(), "round {round}");
            // The very next region on the same descriptor must work.
            let sum = AtomicUsize::new(0);
            team.run(4, 4, &|id: usize| {
                sum.fetch_add(id + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn try_scoped_workers_recovers_after_panic() {
        // The pool must stay serviceable after a panicking region: the
        // panic is contained to the job, not the worker thread.
        for round in 0..4 {
            let result = try_scoped_workers(&Parallelism::with_threads(4), 4, |id| {
                if id == 1 {
                    panic!("round {round}");
                }
                id * 2
            });
            assert!(result.is_err(), "round {round}");
        }
        let ok = scoped_workers(&Parallelism::with_threads(4), 4, |id| id + 1);
        assert_eq!(ok, vec![1, 2, 3, 4]);
    }
}

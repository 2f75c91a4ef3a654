//! The fleet-scale solver server: a lightweight worker-pool runtime
//! that serves many tenant sessions through one sharded plan cache.
//!
//! ## Architecture
//!
//! Requests enter through a bounded MPMC queue ([`BoundedQueue`]) — a
//! full queue is structured backpressure ([`ServerError::Overloaded`]),
//! never a stall or a silent drop. Worker threads pop a request and, for
//! plan-backed (Gauss-Newton) sessions, coalesce every same-topology
//! request already waiting into one batch: a single shard-lock
//! acquisition checks out the shared [`SolvePlan`](orianna_solver::SolvePlan)
//! plus one pooled workspace per request, the batch fans out across the
//! `math::par` worker pool, each request runs the *serial* arena solve on
//! its own session state, and the workspaces are parked back for reuse.
//!
//! ## Determinism
//!
//! Every per-request solve is serial and a pure function of the owning
//! session's state (plus the request's perturbation), and workspaces are
//! exclusively owned for the duration of a solve — so outcomes are
//! bitwise-identical to a sequential replay of the same traffic at any
//! worker count, shard count, batch size, or `ORIANNA_THREADS` setting.
//! `crates/verify` pins this with a property test against the
//! [`crate::oracle`] sequential replayer.

use crate::cache::ShardedPlanCache;
use crate::error::ServerError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use crate::session::{BatchFlavor, Perturb, Session, SessionId, SolveOutcome};
use orianna_graph::FactorGraph;
use orianna_math::Parallelism;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity; submissions beyond it are refused
    /// with [`ServerError::Overloaded`].
    pub queue_capacity: usize,
    /// Largest number of same-topology requests coalesced into one plan
    /// execution (1 disables batching).
    pub max_batch: usize,
    /// Plan-cache shards.
    pub shards: usize,
    /// Parked workspaces kept per (topology, ordering) key in each shard.
    pub workspace_pool_cap: usize,
    /// Parallelism for fanning a batch out across sessions. Per-request
    /// solves stay serial regardless — this only widens *across* requests,
    /// so it never affects results.
    pub fanout: Parallelism,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            queue_capacity: 1024,
            max_batch: 16,
            shards: 8,
            workspace_pool_cap: 32,
            fanout: Parallelism::default(),
        }
    }
}

/// A request against an existing session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Solve a batch session, optionally resetting its values to a
    /// seeded perturbation of the initial estimate first.
    Solve {
        /// Target session.
        session: SessionId,
        /// Optional deterministic reset-and-perturb.
        perturb: Option<Perturb>,
    },
    /// Extend an incremental session by seeded odometry steps.
    Extend {
        /// Target session.
        session: SessionId,
        /// Poses to append (one Bayes-tree update each).
        steps: usize,
    },
}

impl Request {
    /// The session this request addresses.
    pub fn session(&self) -> SessionId {
        match self {
            Request::Solve { session, .. } | Request::Extend { session, .. } => *session,
        }
    }
}

struct TicketInner {
    slot: Mutex<Option<Result<SolveOutcome, ServerError>>>,
    done: Condvar,
}

/// A handle resolving to one request's outcome. Every accepted request
/// fulfills its ticket exactly once — including during shutdown, when
/// workers drain the queue before exiting.
pub struct Ticket(Arc<TicketInner>);

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl Ticket {
    fn new() -> (Self, Arc<TicketInner>) {
        let inner = Arc::new(TicketInner {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        (Self(Arc::clone(&inner)), inner)
    }

    /// Blocks until the request completes and returns its outcome.
    pub fn wait(self) -> Result<SolveOutcome, ServerError> {
        let mut slot = self.0.slot.lock().expect("ticket lock");
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self.0.done.wait(slot).expect("ticket wait");
        }
    }

    /// Waits up to `timeout`; `None` when the request is still in flight.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<SolveOutcome, ServerError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.0.slot.lock().expect("ticket lock");
        loop {
            if let Some(out) = slot.take() {
                return Some(out);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .0
                .done
                .wait_timeout(slot, deadline - now)
                .expect("ticket wait");
            slot = guard;
        }
    }

    /// True once the outcome is available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.0.slot.lock().expect("ticket lock").is_some()
    }
}

enum Work {
    /// Gauss-Newton solve through the sharded plan cache (batchable).
    Planned {
        session: Arc<Session>,
        perturb: Option<Perturb>,
    },
    /// Unbatched solve on the session's own path (LM; also the
    /// structured wrong-flavor surface for incremental sessions).
    Direct {
        session: Arc<Session>,
        perturb: Option<Perturb>,
    },
    /// Incremental Bayes-tree extension.
    Extend { session: Arc<Session>, steps: usize },
}

struct QueuedRequest {
    work: Work,
    ticket: Arc<TicketInner>,
    submitted: Instant,
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<QueuedRequest>,
    sessions: RwLock<Vec<Arc<Session>>>,
    cache: ShardedPlanCache,
    metrics: Metrics,
}

/// The multi-tenant solver server.
pub struct SolverServer {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl SolverServer {
    /// Starts a server with `config.workers` worker threads.
    pub fn new(config: ServerConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            sessions: RwLock::new(Vec::new()),
            cache: ShardedPlanCache::new(config.shards, config.workspace_pool_cap),
            metrics: Metrics::default(),
            config,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orianna-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Registers a long-lived batch session (converging its estimate as
    /// the session warm-up) and returns its id.
    ///
    /// # Errors
    /// Propagates the warm-up's solve error.
    pub fn create_batch_session(
        &self,
        graph: FactorGraph,
        flavor: BatchFlavor,
    ) -> Result<SessionId, ServerError> {
        self.install(|id| Session::batch(id, graph, flavor))
    }

    /// Registers an incremental (Bayes-tree) session seeded at `seed`.
    ///
    /// # Errors
    /// Propagates the anchor update's solve error.
    pub fn create_incremental_session(&self, seed: u64) -> Result<SessionId, ServerError> {
        self.install(|id| Session::incremental(id, seed))
    }

    fn install(
        &self,
        make: impl FnOnce(SessionId) -> Result<Session, ServerError>,
    ) -> Result<SessionId, ServerError> {
        let mut sessions = self.shared.sessions.write().expect("session registry");
        let id = SessionId(sessions.len() as u64);
        sessions.push(Arc::new(make(id)?));
        Ok(id)
    }

    /// Looks up a session handle.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] when `id` was never created here.
    pub fn session(&self, id: SessionId) -> Result<Arc<Session>, ServerError> {
        self.shared
            .sessions
            .read()
            .expect("session registry")
            .get(id.0 as usize)
            .cloned()
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Sessions registered so far.
    pub fn num_sessions(&self) -> usize {
        self.shared.sessions.read().expect("session registry").len()
    }

    /// Submits a request. Non-blocking: returns a [`Ticket`] on
    /// acceptance.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] for an unregistered session,
    /// [`ServerError::Overloaded`] when the queue is full (backpressure —
    /// retry later), [`ServerError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServerError> {
        let session = self.session(request.session())?;
        let work = match request {
            Request::Solve { perturb, .. } => {
                if session.fingerprint().is_some() {
                    Work::Planned { session, perturb }
                } else {
                    Work::Direct { session, perturb }
                }
            }
            Request::Extend { steps, .. } => Work::Extend { session, steps },
        };
        let (ticket, inner) = Ticket::new();
        let queued = QueuedRequest {
            work,
            ticket: inner,
            submitted: Instant::now(),
        };
        match self.shared.queue.push(queued) {
            Ok(()) => {
                self.shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(PushError::Full(_)) => {
                self.shared
                    .metrics
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Overloaded {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServerError::ShuttingDown),
        }
    }

    /// Submits and waits — the convenience path for closed-loop clients.
    ///
    /// # Errors
    /// As [`SolverServer::submit`], plus any error the solve produced.
    pub fn solve_blocking(&self, request: Request) -> Result<SolveOutcome, ServerError> {
        self.submit(request)?.wait()
    }

    /// Drops the cached plan (and parked workspaces) of a topology, e.g.
    /// after a fleet-wide model update. Returns whether a plan was cached.
    pub fn invalidate_topology(&self, fingerprint: u64) -> bool {
        self.shared.cache.invalidate(fingerprint)
    }

    /// Point-in-time counters: throughput, batching, cache, latency.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(&self.shared.metrics, self.shared.cache.stats())
    }

    /// Requests currently queued (waiting for a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stop accepting, drain every accepted request,
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handles = std::mem::take(&mut *self.handles.lock().expect("worker handles"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SolverServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SolverServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverServer")
            .field("sessions", &self.num_sessions())
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(first) = shared.queue.pop() {
        match &first.work {
            Work::Planned { session, .. } => {
                let fp = session
                    .fingerprint()
                    .expect("planned work has a fingerprint");
                let mut batch = vec![first];
                if shared.config.max_batch > 1 {
                    batch.extend(
                        shared
                            .queue
                            .drain_matching(shared.config.max_batch - 1, |r| {
                                matches!(&r.work, Work::Planned { session: s, .. }
                                if s.fingerprint() == Some(fp))
                            }),
                    );
                }
                execute_planned(shared, fp, batch);
            }
            _ => execute_single(shared, first),
        }
    }
}

/// Runs one coalesced batch: checkout plan + one workspace per request
/// under a single shard lock, fan out, park everything back.
fn execute_planned(shared: &Shared, fp: u64, batch: Vec<QueuedRequest>) {
    let k = batch.len();
    shared.metrics.record_batch(k as u64);

    let build_session = match &batch[0].work {
        Work::Planned { session, .. } => Arc::clone(session),
        _ => unreachable!("planned batches only coalesce planned work"),
    };
    let (plan, workspaces) = match shared.cache.checkout(fp, k, || build_session.build_plan()) {
        Ok(out) => out,
        Err(e) => {
            // Plan construction failed (e.g. an unconstrained variable):
            // every rider gets the structured error; nothing is cached.
            for req in batch {
                fulfill(shared, req, Err(ServerError::Solve(e.clone())));
            }
            return;
        }
    };

    let ws_slots: Vec<Mutex<orianna_solver::Workspace>> =
        workspaces.into_iter().map(Mutex::new).collect();
    let outcomes: Vec<Mutex<Option<Result<SolveOutcome, ServerError>>>> =
        (0..k).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Fan-out width is gated on the batch's total estimated work; the
    // per-request solves inside are serial, so the gate only affects
    // wall-clock, never results.
    let par = shared
        .config
        .fanout
        .gate(plan.estimated_flops().saturating_mul(k as u64));
    orianna_math::par::scoped_workers(&par, k, |_| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= k {
            break;
        }
        let Work::Planned { session, perturb } = &batch[i].work else {
            unreachable!("planned batches only coalesce planned work");
        };
        let mut ws = ws_slots[i].lock().expect("workspace slot");
        let res = catch_unwind(AssertUnwindSafe(|| {
            session.solve_with_plan(&plan, &mut ws, *perturb)
        }))
        .unwrap_or(Err(ServerError::Poisoned));
        *outcomes[i].lock().expect("outcome slot") = Some(res);
    });

    shared.cache.park(
        fp,
        ws_slots
            .into_iter()
            .map(|m| m.into_inner().expect("workspace slot")),
    );
    for (req, out) in batch.into_iter().zip(outcomes) {
        let mut res = out
            .into_inner()
            .expect("outcome slot")
            .expect("every batch index executed");
        if let Ok(o) = &mut res {
            o.batch_size = k;
        }
        fulfill(shared, req, res);
    }
}

fn execute_single(shared: &Shared, req: QueuedRequest) {
    shared.metrics.record_batch(1);
    let res = catch_unwind(AssertUnwindSafe(|| match &req.work {
        Work::Direct { session, perturb } => session.solve_direct(*perturb),
        Work::Extend { session, steps } => session.extend(*steps),
        Work::Planned { .. } => unreachable!("planned batches only coalesce planned work"),
    }))
    .unwrap_or(Err(ServerError::Poisoned));
    fulfill(shared, req, res);
}

fn fulfill(shared: &Shared, req: QueuedRequest, result: Result<SolveOutcome, ServerError>) {
    let latency = req.submitted.elapsed();
    shared
        .metrics
        .latency
        .record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    if result.is_err() {
        shared.metrics.solve_errors.fetch_add(1, Ordering::Relaxed);
    }
    *req.ticket.slot.lock().expect("ticket lock") = Some(result);
    req.ticket.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::values_digest;
    use orianna_graph::{BetweenFactor, PriorFactor};
    use orianna_lie::Pose2;
    use orianna_solver::GaussNewtonSettings;

    fn chain_graph(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_pose2(Pose2::new(0.05, i as f64 + 0.2, -0.05)))
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
        g
    }

    fn gn() -> BatchFlavor {
        BatchFlavor::GaussNewton(GaussNewtonSettings::default())
    }

    #[test]
    fn serves_batch_sessions_end_to_end() {
        let server = SolverServer::new(ServerConfig::default());
        let a = server.create_batch_session(chain_graph(6), gn()).unwrap();
        let b = server.create_batch_session(chain_graph(6), gn()).unwrap();
        let ta = server
            .submit(Request::Solve {
                session: a,
                perturb: Some(Perturb::new(1, 0.05)),
            })
            .unwrap();
        let tb = server
            .submit(Request::Solve {
                session: b,
                perturb: Some(Perturb::new(2, 0.05)),
            })
            .unwrap();
        let oa = ta.wait().unwrap();
        let ob = tb.wait().unwrap();
        assert!(oa.converged && ob.converged);
        assert_ne!(oa.digest, ob.digest, "different perturbs, different fits");
        let m = server.metrics();
        assert_eq!(m.accepted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache.plan_misses, 1, "same topology shares one plan");
        server.shutdown();
    }

    #[test]
    fn batched_outcome_matches_direct_session_solve() {
        let server = SolverServer::new(ServerConfig::default());
        let id = server.create_batch_session(chain_graph(5), gn()).unwrap();
        let p = Perturb::new(9, 0.03);
        let served = server
            .solve_blocking(Request::Solve {
                session: id,
                perturb: Some(p),
            })
            .unwrap();

        // Reference: the same session method, plain plan, no server.
        let reference = Session::batch(SessionId(0), chain_graph(5), gn()).unwrap();
        let plan = reference.build_plan().unwrap();
        let mut ws = plan.workspace();
        let direct = reference.solve_with_plan(&plan, &mut ws, Some(p)).unwrap();
        assert_eq!(served.digest, direct.digest, "bitwise-identical estimates");
        assert_eq!(served.final_error.to_bits(), direct.final_error.to_bits());
        assert_eq!(served.iterations, direct.iterations);
    }

    #[test]
    fn unknown_session_is_structured() {
        let server = SolverServer::new(ServerConfig::default());
        let err = server
            .submit(Request::Solve {
                session: SessionId(42),
                perturb: None,
            })
            .unwrap_err();
        assert_eq!(err, ServerError::UnknownSession(SessionId(42)));
    }

    #[test]
    fn incremental_sessions_extend_through_the_server() {
        let server = SolverServer::new(ServerConfig::default());
        let id = server.create_incremental_session(7).unwrap();
        let o1 = server
            .solve_blocking(Request::Extend {
                session: id,
                steps: 3,
            })
            .unwrap();
        let o2 = server
            .solve_blocking(Request::Extend {
                session: id,
                steps: 2,
            })
            .unwrap();
        assert_ne!(o1.digest, o2.digest, "the trajectory grows");
        // A second server replaying the same ops reproduces both digests.
        let server2 = SolverServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let id2 = server2.create_incremental_session(7).unwrap();
        let r1 = server2
            .solve_blocking(Request::Extend {
                session: id2,
                steps: 3,
            })
            .unwrap();
        let r2 = server2
            .solve_blocking(Request::Extend {
                session: id2,
                steps: 2,
            })
            .unwrap();
        assert_eq!(o1.digest, r1.digest);
        assert_eq!(o2.digest, r2.digest);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let server = SolverServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let id = server.create_batch_session(chain_graph(5), gn()).unwrap();
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                server
                    .submit(Request::Solve {
                        session: id,
                        perturb: Some(Perturb::new(i, 0.02)),
                    })
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for t in tickets {
            t.wait()
                .expect("accepted requests complete through shutdown");
        }
        assert!(matches!(
            server.submit(Request::Solve {
                session: id,
                perturb: None
            }),
            Err(ServerError::ShuttingDown)
        ));
        assert_eq!(server.metrics().completed, 8);
    }

    #[test]
    fn solve_without_perturb_runs_on_current_state() {
        let server = SolverServer::new(ServerConfig::default());
        let id = server.create_batch_session(chain_graph(4), gn()).unwrap();
        let o1 = server
            .solve_blocking(Request::Solve {
                session: id,
                perturb: None,
            })
            .unwrap();
        // Already at the optimum: a second unperturbed solve converges
        // immediately to the same digest.
        let o2 = server
            .solve_blocking(Request::Solve {
                session: id,
                perturb: None,
            })
            .unwrap();
        assert_eq!(o1.digest, o2.digest);
        let g = chain_graph(4);
        assert_ne!(o1.digest, values_digest(g.values()), "the solve moved");
    }

    #[test]
    fn invalidation_forces_a_rebuild() {
        let server = SolverServer::new(ServerConfig::default());
        let g = chain_graph(5);
        let fp = g.structure_fingerprint();
        let id = server.create_batch_session(g, gn()).unwrap();
        server
            .solve_blocking(Request::Solve {
                session: id,
                perturb: Some(Perturb::new(1, 0.02)),
            })
            .unwrap();
        assert!(server.invalidate_topology(fp));
        server
            .solve_blocking(Request::Solve {
                session: id,
                perturb: Some(Perturb::new(2, 0.02)),
            })
            .unwrap();
        let m = server.metrics();
        assert_eq!(m.cache.plan_misses, 2, "invalidation forced a rebuild");
        assert_eq!(m.cache.invalidations, 1);
    }
}

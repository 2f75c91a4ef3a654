//! # orianna-server
//!
//! Fleet-scale solver serving: long-lived multi-tenant sessions, a
//! sharded topology-fingerprint → plan cache with per-shard workspace
//! pools, and request batching that coalesces same-topology solves
//! through one shared symbolic plan.
//!
//! ## Shape of the system
//!
//! ```text
//!  clients ──submit──▶ BoundedQueue ──pop/coalesce──▶ workers
//!                         (backpressure:               │
//!                          Overloaded)                 ▼
//!                                        ShardedPlanCache
//!                                        (plan + workspace checkout)
//!                                                      │
//!                                        scoped_workers fan-out
//!                                        (serial solve per session)
//! ```
//!
//! * [`Session`] — one tenant's solver state: batch Gauss-Newton
//!   (plan-backed, batchable), batch Levenberg-Marquardt (unbatched), or
//!   incremental Bayes-tree (closed-loop, single-owner).
//! * [`ShardedPlanCache`] — plans and bounded workspace pools sharded by
//!   topology fingerprint; checkout/park moves arenas exclusively, so
//!   double checkout is impossible by construction.
//! * [`SolverServer`] — the runtime: bounded MPMC queue, worker threads,
//!   same-topology coalescing, graceful shutdown that drains every
//!   accepted request.
//! * [`load`] / [`oracle`] — a seeded synthetic fleet-traffic generator
//!   and a sequential replayer; `crates/verify` pins the determinism
//!   contract (served ≡ sequential, bitwise) with a property test.
//!
//! ## Determinism contract
//!
//! Every per-request solve runs serially on exclusively owned state (the
//! session's graph plus a checked-out workspace); parallelism exists only
//! *across* requests. Batch solves reset values from the request's seeded
//! perturbation, making them order-independent; incremental sessions are
//! driven closed-loop by one owner. Consequently a server run is
//! bitwise-identical to a sequential replay at any combination of worker
//! count, shard count, batch size, and `ORIANNA_THREADS`.

#![warn(missing_docs)]

mod cache;
mod error;
pub mod load;
mod metrics;
pub mod oracle;
mod queue;
mod server;
mod session;

pub use cache::ShardedPlanCache;
pub use error::ServerError;
pub use load::{
    build_sessions, install_sessions, plan_traffic, run_load, run_naive_load, LoadReport, LoadSpec,
    OpSpec, SessionSpec, TrafficPlan,
};
pub use metrics::{CacheStats, LatencyHistogram, LatencySnapshot, Metrics, MetricsSnapshot};
pub use queue::{BoundedQueue, PushError};
pub use server::{Request, ServerConfig, SolverServer, Ticket};
pub use session::{
    perturb_delta, splitmix64, values_digest, BatchFlavor, Perturb, Session, SessionId,
    SolveOutcome,
};

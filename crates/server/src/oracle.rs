//! The sequential oracle: replays a [`TrafficPlan`] single-threaded and
//! compares outcomes bitwise against a concurrent server run.
//!
//! The replay uses the *same* [`Session`] solve methods the server's
//! workers call, with one unsharded [`PlanCache`] and one pooled
//! workspace — no queue, no batching, no threads. Because per-request
//! solves are pure functions of `(session state, request)` and
//! incremental sessions are single-owner closed-loop, the concurrent
//! server must reproduce this replay bit for bit at any worker count,
//! shard count, batch size, or `ORIANNA_THREADS`. Any divergence is a
//! determinism bug, and [`compare_reports`] points at the first one.

use crate::error::ServerError;
use crate::load::{build_sessions, OpSpec, TrafficPlan};
use crate::session::{Session, SolveOutcome};
use orianna_solver::PlanCache;
use std::time::Instant;

/// Outcomes of a sequential replay, indexed `[client][op]` like
/// [`crate::load::LoadReport::outcomes`].
pub type SequentialOutcomes = Vec<Vec<Result<SolveOutcome, ServerError>>>;

/// Replays the plan's scripts client-by-client, op-by-op, on one thread.
/// Per-session op order matches any closed-loop concurrent run: batch ops
/// are order-independent (perturb-reset semantics) and incremental ops
/// execute in their single owner's script order.
///
/// # Errors
/// Propagates session-construction errors; per-op errors land in the
/// returned outcome slots instead.
pub fn replay_sequential(plan: &TrafficPlan) -> Result<SequentialOutcomes, ServerError> {
    let sessions = build_sessions(plan)?;
    let mut cache = PlanCache::new();
    let out = plan
        .scripts
        .iter()
        .map(|script| {
            script
                .iter()
                .map(|op| replay_op(&sessions, &mut cache, op))
                .collect()
        })
        .collect();
    Ok(out)
}

fn replay_op(
    sessions: &[Session],
    cache: &mut PlanCache,
    op: &OpSpec,
) -> Result<SolveOutcome, ServerError> {
    match *op {
        OpSpec::Solve { session, perturb } => {
            let s = &sessions[session];
            match s.fingerprint() {
                Some(fp) => {
                    let plan = cache.get_or_build(fp, || s.build_plan())?;
                    let mut ws = cache.take_workspace(fp).unwrap_or_else(|| plan.workspace());
                    let res = s.solve_with_plan(&plan, &mut ws, Some(perturb));
                    cache.store_workspace(fp, ws);
                    res
                }
                None => s.solve_direct(Some(perturb)),
            }
        }
        OpSpec::Extend { session, steps } => sessions[session].extend(steps),
    }
}

/// Whether two outcomes are the same solve result, bit for bit.
/// `batch_size` is observability (how the request was scheduled), not
/// part of the result, and is ignored.
pub fn outcomes_equivalent(a: &SolveOutcome, b: &SolveOutcome) -> bool {
    a.session == b.session
        && a.iterations == b.iterations
        && a.initial_error.to_bits() == b.initial_error.to_bits()
        && a.final_error.to_bits() == b.final_error.to_bits()
        && a.converged == b.converged
        && a.digest == b.digest
}

/// Compares a server run against the sequential reference, op by op.
///
/// # Errors
/// A human-readable description of the **first** divergence: differing
/// shapes, mismatched outcome fields, or error-vs-success disagreements.
pub fn compare_reports(
    served: &SequentialOutcomes,
    sequential: &SequentialOutcomes,
) -> Result<(), String> {
    if served.len() != sequential.len() {
        return Err(format!(
            "client count diverges: served {} vs sequential {}",
            served.len(),
            sequential.len()
        ));
    }
    for (c, (sv, sq)) in served.iter().zip(sequential).enumerate() {
        if sv.len() != sq.len() {
            return Err(format!(
                "client {c}: op count diverges ({} vs {})",
                sv.len(),
                sq.len()
            ));
        }
        for (i, (a, b)) in sv.iter().zip(sq).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) if outcomes_equivalent(a, b) => {}
                (Ok(a), Ok(b)) => {
                    return Err(format!(
                        "client {c} op {i}: outcomes diverge\n  served:     \
                         session={:?} iters={} init={:#x} final={:#x} conv={} digest={:#x}\n  \
                         sequential: session={:?} iters={} init={:#x} final={:#x} conv={} digest={:#x}",
                        a.session,
                        a.iterations,
                        a.initial_error.to_bits(),
                        a.final_error.to_bits(),
                        a.converged,
                        a.digest,
                        b.session,
                        b.iterations,
                        b.initial_error.to_bits(),
                        b.final_error.to_bits(),
                        b.converged,
                        b.digest,
                    ));
                }
                (Err(a), Err(b)) if a == b => {}
                (a, b) => {
                    return Err(format!(
                        "client {c} op {i}: served {a:?} vs sequential {b:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// End-to-end determinism check: installs the plan on a fresh server,
/// drives the concurrent load, replays sequentially, compares bitwise.
/// Returns `(throughput_rps, wall_ns)` of the served run for callers that
/// also want performance numbers.
///
/// # Errors
/// The first divergence, as [`compare_reports`] describes it.
pub fn check_server(
    config: crate::server::ServerConfig,
    plan: &TrafficPlan,
) -> Result<(f64, u64), String> {
    let server = crate::server::SolverServer::new(config);
    crate::load::install_sessions(&server, plan).map_err(|e| format!("install failed: {e}"))?;
    let t0 = Instant::now();
    let report = crate::load::run_load(&server, plan);
    let wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    server.shutdown();
    let sequential = replay_sequential(plan).map_err(|e| format!("replay failed: {e}"))?;
    compare_reports(&report.outcomes, &sequential)?;
    Ok((report.throughput_rps(), wall_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{plan_traffic, LoadSpec};
    use crate::server::ServerConfig;
    use crate::session::SessionId;

    fn tiny_spec() -> LoadSpec {
        LoadSpec {
            clients: 2,
            batch_sessions: 4,
            topologies: 2,
            incremental_sessions: 1,
            ops_per_client: 6,
            variables: 6,
            ..LoadSpec::default()
        }
    }

    #[test]
    fn sequential_replay_is_self_consistent() {
        let plan = plan_traffic(&tiny_spec());
        let a = replay_sequential(&plan).unwrap();
        let b = replay_sequential(&plan).unwrap();
        compare_reports(&a, &b).unwrap();
    }

    #[test]
    fn served_run_matches_sequential_replay() {
        let plan = plan_traffic(&tiny_spec());
        let (rps, _) = check_server(
            ServerConfig {
                workers: 2,
                shards: 3,
                max_batch: 4,
                ..ServerConfig::default()
            },
            &plan,
        )
        .unwrap();
        assert!(rps > 0.0);
    }

    #[test]
    fn compare_reports_spots_divergence() {
        let plan = plan_traffic(&tiny_spec());
        let a = replay_sequential(&plan).unwrap();
        let mut b = a.clone();
        if let Some(Ok(o)) = b[0].first_mut() {
            o.digest ^= 1;
        }
        assert!(compare_reports(&a, &b).is_err());
        let mut c = a.clone();
        c[0][0] = Err(ServerError::UnknownSession(SessionId(99)));
        assert!(compare_reports(&a, &c).is_err());
    }
}

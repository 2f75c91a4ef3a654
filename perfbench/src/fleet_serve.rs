//! `fleet_serve` (server, solver): one `SolverServer` with one worker and
//! serial fan-out; the benchmark's main thread is one closed-loop client
//! that keeps two requests in flight, submitting a new one each time the
//! oldest ticket's `wait` returns, so the worker always has a queue to
//! batch from. Requests solve GN batch sessions that share a few
//! same-family topologies, plus one LM session; there is no incremental
//! traffic (an Extend costs ~50x less than a solve). One op is one
//! request, timed from `submit` to the return of its `wait`.

use crate::{mix, sample_buffer, trace, Args, Clock, Report, SAMPLE_CAP, TAIL_PCT};
use orianna_math::Parallelism;
use orianna_server::load::LOAD_PERTURB_SCALE;
use orianna_server::oracle::{compare_reports, replay_sequential};
use orianna_server::{
    install_sessions, plan_traffic, LoadSpec, OpSpec, Perturb, Request, ServerConfig, SessionId,
    SessionSpec, SolveOutcome, SolverServer, Ticket, TrafficPlan,
};
use orianna_verify::Family;
use std::collections::VecDeque;
use std::time::Instant;

const IN_FLIGHT: usize = 2;
/// Ops whose per-class counts are reported.
const PREFIX: usize = 2000;
/// Every `CHECK_EVERY`-th request is replayed by the sequential oracle.
const CHECK_EVERY: usize = 16;

/// The session roster. Its topologies come from the generator's default
/// seed, not from `--seed`: topology seeds change a solve's cost several
/// fold, and this roster's four topologies cost within 2x of each other.
/// `--seed` draws the request stream.
fn spec() -> LoadSpec {
    LoadSpec {
        seed: LoadSpec::default().seed,
        clients: 1,
        batch_sessions: 12,
        topologies: 4,
        lm_every: 12,
        incremental_sessions: 0,
        ops_per_client: 0,
        families: vec![Family::Pose2Slam],
        variables: 16,
        density: 0.3,
    }
}

/// The server with its sessions installed and one plan per topology
/// warmed.
struct Fleet {
    server: SolverServer,
    roster: TrafficPlan,
}

fn setup() -> Fleet {
    let roster = plan_traffic(&spec());
    let server = SolverServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        fanout: Parallelism::serial(),
        ..ServerConfig::default()
    });
    trace::span("server.install", || install_sessions(&server, &roster)).expect("install");
    for s in 0..roster.sessions.len().min(spec().topologies) {
        server
            .solve_blocking(Request::Solve {
                session: SessionId(s as u64),
                perturb: None,
            })
            .expect("warm-up solve");
    }
    Fleet { server, roster }
}

fn is_lm(roster: &TrafficPlan, session: usize) -> bool {
    matches!(
        roster.sessions[session],
        SessionSpec::Batch { lm: true, .. }
    )
}

struct InFlight {
    op: usize,
    session: usize,
    perturb: Perturb,
    t0: Instant,
    ticket: Ticket,
    traced: bool,
}

pub fn run(args: &Args) -> (Clock, Report) {
    let seed = mix(args.seed ^ 0xF1EE7);
    let mut clock = Clock::new(args.seconds, PREFIX, args.trace);
    let fleet = clock.set_up(setup);
    let sessions = fleet.roster.sessions.len();
    let draw = |i: usize| {
        let d = mix(seed ^ ((i as u64) << 20));
        (
            (d >> 16) as usize % sessions,
            Perturb::new(d, LOAD_PERTURB_SCALE),
        )
    };

    clock.start();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    // About one request in twelve is LM.
    let mut class_ns = [sample_buffer(SAMPLE_CAP), sample_buffer(SAMPLE_CAP / 8)];
    let mut prefix_class = [0usize; 2];
    let mut sampled: Vec<(OpSpec, SolveOutcome)> = Vec::new();
    let mut failed = 0usize;
    loop {
        // A set-up repeat or a probe waits until nothing is in flight.
        while in_flight.len() < IN_FLIGHT && clock.running() && !clock.pause_due() {
            let i = clock.ops();
            let (session, perturb) = clock.untimed(|| draw(i));
            let traced = clock.begin_op();
            let t0 = Instant::now();
            let request = Request::Solve {
                session: SessionId(session as u64),
                perturb: Some(perturb),
            };
            match trace::span("server.submit", || fleet.server.submit(request)) {
                Ok(ticket) => in_flight.push_back(InFlight {
                    op: i,
                    session,
                    perturb,
                    t0,
                    ticket,
                    traced,
                }),
                Err(_) => failed += 1,
            }
            trace::set_enabled(false);
        }
        let Some(req) = in_flight.pop_front() else {
            if clock.running() && clock.pause_due() {
                clock.between_ops(setup);
                continue;
            }
            break;
        };
        trace::set_op(req.op as u64);
        trace::set_enabled(req.traced);
        let outcome = trace::span("server.wait", || req.ticket.wait());
        trace::set_enabled(false);
        let ns = req.t0.elapsed().as_nanos() as u64;
        clock.record(ns, req.traced);
        let class = usize::from(is_lm(&fleet.roster, req.session));
        if !req.traced {
            class_ns[class].push(ns);
        }
        if req.op < PREFIX {
            prefix_class[class] += 1;
        }
        match outcome {
            Ok(out) if req.op.is_multiple_of(CHECK_EVERY) => {
                let spec = OpSpec::Solve {
                    session: req.session,
                    perturb: req.perturb,
                };
                sampled.push((spec, out));
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let m = fleet.server.metrics();
    fleet.server.shutdown();

    // Served outcomes must equal a sequential replay of the same
    // requests, bit for bit. Batch solves reset to their perturbation, so
    // replaying only the sampled requests is exact.
    let replay = TrafficPlan {
        sessions: fleet.roster.sessions.clone(),
        scripts: vec![sampled.iter().map(|(spec, _)| *spec).collect()],
    };
    let sequential = replay_sequential(&replay).expect("sequential replay");
    failed += sampled
        .iter()
        .zip(&sequential[0])
        .filter(|((_, served), seq)| {
            compare_reports(&vec![vec![Ok(served.clone())]], &vec![vec![(*seq).clone()]]).is_err()
        })
        .count();

    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let pct = |v: &mut Vec<u64>, p: f64| crate::percentile_ms(v, p);
    let total_class = (class_ns[0].len() + class_ns[1].len()).max(1) as f64;
    let lm_share = 100.0 * class_ns[1].len() as f64 / total_class;
    let [gn, lm] = &mut class_ns;
    let layer = vec![
        (
            "server.batch_mean".into(),
            m.completed as f64 / m.batches.max(1) as f64,
        ),
        (
            "server.plan_hit_ratio".into(),
            ratio(m.cache.plan_hits, m.cache.plan_misses),
        ),
        (
            "server.workspace_reuse_ratio".into(),
            ratio(m.cache.workspace_reuses, m.cache.workspace_builds),
        ),
        ("server.rejected".into(), m.rejected_overload as f64),
        ("server.gn_p50_ms".into(), crate::p50_ms(gn)),
        ("server.gn_tail_ms".into(), pct(gn, TAIL_PCT)),
        ("server.lm_p50_ms".into(), crate::p50_ms(lm)),
        ("server.lm_tail_ms".into(), pct(lm, TAIL_PCT)),
    ];
    let report = Report {
        failed,
        success_pct: 100.0 * (clock.ops() - failed) as f64 / clock.ops().max(1) as f64,
        design_cycles: 1.0,
        layer,
        exact: vec![
            ("prefix_gn_requests".into(), prefix_class[0] as f64),
            ("prefix_lm_requests".into(), prefix_class[1] as f64),
            ("rejected".into(), m.rejected_overload as f64),
            ("plan_misses".into(), m.cache.plan_misses as f64),
            ("solve_errors".into(), m.solve_errors as f64),
        ],
        info: vec![
            ("batches".into(), m.batches as f64),
            ("coalesced".into(), m.coalesced as f64),
            ("max_batch".into(), m.max_batch as f64),
            ("requests_checked".into(), sampled.len() as f64),
            ("lm_share_pct".into(), lm_share),
        ],
    };
    (clock, report)
}

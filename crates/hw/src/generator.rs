//! Constraint-driven hardware generation (paper Sec. 6.2, Equ. 5).
//!
//! The generator solves
//!
//! ```text
//! p₁*, …, pₙ* = argmin L(p₁, …, pₙ)   s.t.   R(p₁, …, pₙ) ≤ R*
//! ```
//!
//! where `pᵢ` are replication counts of the template units. Following the
//! paper's iterative procedure: start with one unit of each class,
//! simulate, find the unit class limiting the critical path (largest
//! contention), add one unit of it if the resource budget allows, and
//! repeat until the budget is exhausted or no candidate improves the
//! objective.

use crate::config::HwConfig;
use crate::search::{canon_key, CanonKey};
use crate::sim::{
    simulate_decoded_with, with_sim_scratch, DecodedWorkload, IssuePolicy, SimReport, SimScratch,
    Workload,
};
use crate::templates::Resources;
use orianna_compiler::UnitClass;
use orianna_math::{par::scoped_workers, Parallelism};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Optimization objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize makespan (average frame latency).
    Latency,
    /// Minimize total energy.
    Energy,
}

/// Result of a generation run.
#[derive(Debug, Clone)]
pub struct GeneratorResult {
    /// The chosen configuration.
    pub config: HwConfig,
    /// Simulation of the final configuration.
    pub report: SimReport,
    /// `(unit-added, resulting cycles)` decision trace.
    pub history: Vec<(UnitClass, u64)>,
}

pub(crate) fn score(report: &SimReport, objective: Objective) -> f64 {
    match objective {
        Objective::Latency => report.cycles as f64,
        Objective::Energy => report.energy_mj,
    }
}

/// Memoization key: the configuration's canonical key (unit mix and
/// clock) and the issue policy.
type SimKey = (CanonKey, IssuePolicy);

fn sim_key(config: &HwConfig, policy: IssuePolicy) -> SimKey {
    (canon_key(config), policy)
}

/// How [`DseContext::sweep`] treats candidates it can prove irrelevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Pay a full scoreboard walk for every in-budget candidate.
    Exhaustive,
    /// Branch-and-bound: skip any candidate whose admissible lower-bound
    /// point is already strictly dominated by a scored candidate. The
    /// selected design and the Pareto frontier are bitwise identical to
    /// [`SweepMode::Exhaustive`] at any thread count (DESIGN.md §3.4.1).
    Pruned,
}

/// A non-dominated operating point discovered during design-space
/// exploration: a configuration together with its out-of-order makespan,
/// energy, and resource footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The unit mix realizing this point.
    pub config: HwConfig,
    /// Out-of-order makespan.
    pub cycles: u64,
    /// Total (dynamic + static) energy.
    pub energy_mj: f64,
    /// Aggregate FPGA resource footprint of `config`.
    pub resources: Resources,
}

impl ParetoPoint {
    fn coords(&self) -> [u64; 6] {
        [
            self.cycles,
            self.energy_mj.to_bits(),
            self.resources.lut,
            self.resources.ff,
            self.resources.bram,
            self.resources.dsp,
        ]
    }

    /// `self` is at least as good in every coordinate and strictly better
    /// in at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        dominates_pt(
            self.cycles,
            self.energy_mj,
            &self.resources,
            other.cycles,
            other.energy_mj,
            &other.resources,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn dominates_pt(ac: u64, ae: f64, ar: &Resources, bc: u64, be: f64, br: &Resources) -> bool {
    let no_worse = ac <= bc
        && ae <= be
        && ar.lut <= br.lut
        && ar.ff <= br.ff
        && ar.bram <= br.bram
        && ar.dsp <= br.dsp;
    let better = ac < bc
        || ae < be
        || ar.lut < br.lut
        || ar.ff < br.ff
        || ar.bram < br.bram
        || ar.dsp < br.dsp;
    no_worse && better
}

/// Outcome of one [`DseContext::sweep`] over a candidate list.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Best in-budget candidate under the objective, or `None` when no
    /// candidate fits the budget. Deterministic: independent of thread
    /// count and of [`SweepMode`].
    pub best: Option<(HwConfig, SimReport)>,
    /// Candidates paid for with a full scoreboard walk.
    pub evaluated: usize,
    /// Candidates answered from the context memo.
    pub cache_hits: usize,
    /// Candidates skipped because their lower-bound point was strictly
    /// dominated (always 0 under [`SweepMode::Exhaustive`]).
    pub skipped_bound: usize,
    /// Candidates skipped because their resources exceed the budget.
    pub skipped_budget: usize,
}

/// Total deterministic ordering key for choosing a sweep winner: the
/// objective score first, then resources, energy, cycles, and finally the
/// candidate's position in the list. `f64::to_bits` preserves order on the
/// non-negative scores the simulator produces. A strictly dominated
/// candidate always keys after its dominator (every component of the key
/// except the index is one of the six domination coordinates), which is
/// what lets [`SweepMode::Pruned`] skip it without changing the argmin.
type SelectionKey = (u64, u64, u64, u64, u64, u64, u64, usize);

fn selection_key(
    config: &HwConfig,
    report: &SimReport,
    objective: Objective,
    index: usize,
) -> SelectionKey {
    let res = config.resources();
    (
        score(report, objective).to_bits(),
        res.lut,
        res.ff,
        res.bram,
        res.dsp,
        report.energy_mj.to_bits(),
        report.cycles,
        index,
    )
}

/// A design-space-exploration context over one workload: the decoded
/// instruction graph ([`DecodedWorkload`]) plus a memo of every simulated
/// `(configuration, policy)` pair.
///
/// The DSE sweeps of Fig. 19/20 evaluate many overlapping candidate sets
/// (five budgets × two objectives walk much of the same frontier, and
/// both greedy walks fall back to the same uniform design). With a shared
/// context each candidate is decoded zero times and scoreboarded at most
/// once.
#[derive(Debug)]
pub struct DseContext {
    decoded: DecodedWorkload,
    scratch: SimScratch,
    cache: HashMap<SimKey, SimReport>,
    par: Parallelism,
    frontier: Vec<ParetoPoint>,
    calls: usize,
    hits: usize,
    skipped_bound: usize,
}

impl DseContext {
    /// Decodes the workload once, ready for any number of candidate
    /// evaluations. Uses the workspace-wide [`Parallelism`] default
    /// (the `ORIANNA_THREADS` knob).
    pub fn new(workload: &Workload<'_>) -> Self {
        Self::with_parallelism(workload, Parallelism::default())
    }

    /// [`Self::new`] with an explicit thread budget for the parallel
    /// sweep and generation phases.
    pub fn with_parallelism(workload: &Workload<'_>, par: Parallelism) -> Self {
        Self::with_decoded(DecodedWorkload::decode(workload), par)
    }

    /// Builds a context around an already-decoded workload (e.g. a clone
    /// of another context's [`Self::decoded`]), skipping the decode pass.
    pub fn with_decoded(decoded: DecodedWorkload, par: Parallelism) -> Self {
        Self {
            decoded,
            scratch: SimScratch::default(),
            cache: HashMap::new(),
            par,
            frontier: Vec::new(),
            calls: 0,
            hits: 0,
            skipped_bound: 0,
        }
    }

    /// Simulates a candidate configuration, returning the memoized report
    /// when this `(config, policy)` pair was already evaluated. Reports
    /// are bitwise identical to [`crate::sim::simulate`] on the source
    /// workload.
    pub fn simulate(&mut self, config: &HwConfig, policy: IssuePolicy) -> SimReport {
        self.calls += 1;
        let key = sim_key(config, policy);
        if let Some(r) = self.cache.get(&key) {
            self.hits += 1;
            return r.clone();
        }
        let report = simulate_decoded_with(&self.decoded, config, policy, &mut self.scratch);
        if policy == IssuePolicy::OutOfOrder {
            Self::insert_frontier(&mut self.frontier, config, &report);
        }
        self.cache.insert(key, report.clone());
        report
    }

    /// Simulates every configuration under the out-of-order policy,
    /// walking uncached ones in parallel with one scratch per worker, and
    /// returns reports in input order. Equivalent to calling
    /// [`Self::simulate`] once per config, at any thread count.
    pub fn simulate_many(&mut self, configs: &[HwConfig]) -> Vec<SimReport> {
        self.calls += configs.len();
        let mut out: Vec<Option<SimReport>> = configs
            .iter()
            .map(|c| {
                self.cache
                    .get(&sim_key(c, IssuePolicy::OutOfOrder))
                    .cloned()
            })
            .collect();
        self.hits += out.iter().filter(|r| r.is_some()).count();
        let todo: Vec<usize> = (0..configs.len()).filter(|&i| out[i].is_none()).collect();
        if !todo.is_empty() {
            let decoded = &self.decoded;
            let cursor = AtomicUsize::new(0);
            // Auto mode gates the fan-out on candidate count × scoreboard
            // cost; results are merged by index either way.
            let par = self.par.gate(decoded.sweep_work(todo.len()));
            let mut fresh: Vec<(usize, SimReport)> = scoped_workers(&par, todo.len(), |_| {
                with_sim_scratch(|scratch| {
                    let mut done = Vec::new();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= todo.len() {
                            break;
                        }
                        let i = todo[t];
                        done.push((
                            i,
                            simulate_decoded_with(
                                decoded,
                                &configs[i],
                                IssuePolicy::OutOfOrder,
                                scratch,
                            ),
                        ));
                    }
                    done
                })
            })
            .into_iter()
            .flatten()
            .collect();
            // Merge in candidate order, never completion order.
            fresh.sort_by_key(|(i, _)| *i);
            for (i, report) in fresh {
                self.cache.insert(
                    sim_key(&configs[i], IssuePolicy::OutOfOrder),
                    report.clone(),
                );
                Self::insert_frontier(&mut self.frontier, &configs[i], &report);
                out[i] = Some(report);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every config evaluated"))
            .collect()
    }

    /// Scores a candidate list under a resource budget and returns the
    /// best design plus skip counters; [`Self::frontier`] absorbs every
    /// scored point.
    ///
    /// The winner, its report, and the frontier are **bitwise identical**
    /// across sweep modes and thread counts: every candidate is either
    /// fully scored or provably strictly dominated by a scored one, and
    /// ties break on a total deterministic key. Only the skip/cache
    /// counters may differ run to run under concurrency.
    pub fn sweep(
        &mut self,
        candidates: &[HwConfig],
        budget: &Resources,
        objective: Objective,
        mode: SweepMode,
    ) -> SweepReport {
        // Budget feasibility is exact — no simulation needed to skip.
        let feasible: Vec<usize> = (0..candidates.len())
            .filter(|&i| candidates[i].resources().fits(budget))
            .collect();
        let skipped_budget = candidates.len() - feasible.len();

        // Memo lookups; cached reports seed the dominance set for free.
        let mut reports: HashMap<usize, SimReport> = HashMap::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut seed: Vec<(u64, f64, Resources)> = Vec::new();
        for &i in &feasible {
            match self
                .cache
                .get(&sim_key(&candidates[i], IssuePolicy::OutOfOrder))
            {
                Some(r) => {
                    seed.push((r.cycles, r.energy_mj, candidates[i].resources()));
                    reports.insert(i, r.clone());
                }
                None => todo.push(i),
            }
        }
        let cache_hits = reports.len();

        // Admissible lower-bound point per unscored candidate: cycles
        // from the decoded graph's critical path and per-class work,
        // energy from the exact report formula evaluated at that bound.
        let bounds: Vec<(u64, f64, Resources)> = if mode == SweepMode::Pruned {
            todo.iter()
                .map(|&i| {
                    let lb = self.decoded.lower_bound_cycles(&candidates[i]);
                    (
                        lb,
                        self.decoded.energy_mj_at(&candidates[i], lb),
                        candidates[i].resources(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };

        let decoded = &self.decoded;
        let cursor = AtomicUsize::new(0);
        let scored = Mutex::new(seed);
        let skips = AtomicUsize::new(0);
        // Auto mode gates the fan-out on candidate count × scoreboard
        // cost; the winner and frontier are identical either way.
        let par = self.par.gate(decoded.sweep_work(todo.len()));
        let mut fresh: Vec<(usize, SimReport)> = scoped_workers(&par, todo.len(), |_| {
            with_sim_scratch(|scratch| {
                let mut done = Vec::new();
                loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= todo.len() {
                        break;
                    }
                    let i = todo[t];
                    if mode == SweepMode::Pruned {
                        let (bc, be, br) = &bounds[t];
                        let dominated = scored
                            .lock()
                            .expect("dominance set lock")
                            .iter()
                            .any(|(c, e, r)| dominates_pt(*c, *e, r, *bc, *be, br));
                        if dominated {
                            skips.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                    let report = simulate_decoded_with(
                        decoded,
                        &candidates[i],
                        IssuePolicy::OutOfOrder,
                        scratch,
                    );
                    if mode == SweepMode::Pruned {
                        scored.lock().expect("dominance set lock").push((
                            report.cycles,
                            report.energy_mj,
                            candidates[i].resources(),
                        ));
                    }
                    done.push((i, report));
                }
                done
            })
        })
        .into_iter()
        .flatten()
        .collect();

        let skipped_bound = skips.into_inner();
        self.skipped_bound += skipped_bound;
        // Deterministic memo/frontier merge: candidate order, never
        // completion order.
        fresh.sort_by_key(|(i, _)| *i);
        let evaluated = fresh.len();
        for (i, report) in fresh {
            self.cache.insert(
                sim_key(&candidates[i], IssuePolicy::OutOfOrder),
                report.clone(),
            );
            Self::insert_frontier(&mut self.frontier, &candidates[i], &report);
            reports.insert(i, report);
        }
        self.calls += cache_hits + evaluated;
        self.hits += cache_hits;
        let best = reports
            .iter()
            .map(|(&i, r)| (selection_key(&candidates[i], r, objective, i), i))
            .min()
            .map(|(_, i)| (candidates[i].clone(), reports[&i].clone()));
        SweepReport {
            best,
            evaluated,
            cache_hits,
            skipped_bound,
            skipped_budget,
        }
    }

    fn insert_frontier(frontier: &mut Vec<ParetoPoint>, config: &HwConfig, report: &SimReport) {
        let pt = ParetoPoint {
            config: config.clone(),
            cycles: report.cycles,
            energy_mj: report.energy_mj,
            resources: config.resources(),
        };
        if frontier.iter().any(|q| q.dominates(&pt)) {
            return;
        }
        frontier.retain(|q| !pt.dominates(q));
        // Deterministic resting order regardless of insertion order: the
        // full coordinate vector, then the unit mix.
        let key = |p: &ParetoPoint| (p.coords(), *p.config.counts());
        let k = key(&pt);
        match frontier.binary_search_by(|q| key(q).cmp(&k)) {
            Ok(_) => {} // same config re-scored — already present
            Err(pos) => frontier.insert(pos, pt),
        }
    }

    /// The cycles/energy/resource Pareto frontier over every
    /// configuration this context has scored under the out-of-order
    /// policy, sorted by (cycles, energy, resources, unit mix).
    /// Maintained incrementally; a [`SweepMode::Pruned`] sweep leaves
    /// exactly the same frontier as an exhaustive one.
    pub fn frontier(&self) -> &[ParetoPoint] {
        &self.frontier
    }

    /// The decoded workload.
    pub fn decoded(&self) -> &DecodedWorkload {
        &self.decoded
    }

    /// Simulation requests served so far (cached or fresh).
    pub fn sim_calls(&self) -> usize {
        self.calls
    }

    /// Requests answered from the memo.
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// Requests that paid for a fresh scoreboard walk
    /// (`sim_calls() - cache_hits()`). Every miss inserts exactly one
    /// memo entry, so on a context fed deduplicated candidate lists this
    /// equals [`Self::memo_len`] — the search driver asserts exactly that
    /// (simulations == unique configurations evaluated).
    pub fn cache_misses(&self) -> usize {
        self.calls - self.hits
    }

    /// Number of distinct `(configuration, policy)` pairs held in the
    /// memo.
    pub fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// Candidates skipped via admissible lower bounds, sweeps and greedy
    /// generation combined.
    pub fn bound_skips(&self) -> usize {
        self.skipped_bound
    }
}

/// Generates an accelerator configuration for `workload` under resource
/// budget `budget`.
pub fn generate(
    workload: &Workload<'_>,
    budget: &Resources,
    objective: Objective,
) -> GeneratorResult {
    let mut ctx = DseContext::new(workload);
    generate_with(&mut ctx, budget, objective)
}

/// [`generate`] against a caller-owned [`DseContext`], sharing the decoded
/// workload and the simulation memo across budgets and objectives (the
/// Fig. 19/20 sweeps).
pub fn generate_with(
    ctx: &mut DseContext,
    budget: &Resources,
    objective: Objective,
) -> GeneratorResult {
    let mut config = HwConfig::minimal();
    let mut report = ctx.simulate(&config, IssuePolicy::OutOfOrder);
    let mut history = Vec::new();

    loop {
        // Candidate classes ordered by contention (the critical-path
        // pressure signal of Sec. 6.2).
        let mut classes: Vec<(UnitClass, u64)> = UnitClass::ALL
            .iter()
            .map(|c| (*c, report.contention.get(*c).unwrap_or(0)))
            .collect();
        classes.sort_by_key(|(_, w)| std::cmp::Reverse(*w));

        // Acceptance needs a ≥0.5% improvement; a candidate whose
        // admissible lower bound already misses that threshold cannot be
        // accepted, so it skips the scoreboard walk entirely. The skip
        // rule depends only on the bound and the incumbent — never on
        // evaluation order — so it is thread-count independent.
        let threshold = score(&report, objective) * 0.995;
        let mut round: Vec<(UnitClass, HwConfig)> = Vec::new();
        for (class, pressure) in classes {
            if pressure == 0 {
                continue;
            }
            let candidate = config.plus_one(class);
            if !candidate.resources().fits(budget) {
                continue;
            }
            let lb = ctx.decoded.lower_bound_cycles(&candidate);
            let lb_score = match objective {
                Objective::Latency => lb as f64,
                Objective::Energy => ctx.decoded.energy_mj_at(&candidate, lb),
            };
            if lb_score >= threshold {
                ctx.skipped_bound += 1;
                continue;
            }
            round.push((class, candidate));
        }
        // Surviving candidates score in parallel; acceptance still walks
        // them in pressure order, so the greedy trajectory matches the
        // serial lazy walk at any thread count.
        let cands: Vec<HwConfig> = round.iter().map(|(_, c)| c.clone()).collect();
        let cand_reports = ctx.simulate_many(&cands);
        let mut improved = false;
        for ((class, candidate), cand_report) in round.into_iter().zip(cand_reports) {
            if score(&cand_report, objective) < threshold {
                history.push((class, cand_report.cycles));
                config = candidate;
                report = cand_report;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    // The search space also contains plain uniform replication; keep it
    // when the greedy critical-path walk ends up behind it (can happen at
    // very tight budgets where early greedy choices lock in a worse mix).
    let uniform = manual_uniform(budget);
    if uniform.resources().fits(budget) {
        let uniform_report = ctx.simulate(&uniform, IssuePolicy::OutOfOrder);
        if score(&uniform_report, objective) < score(&report, objective) {
            config = uniform;
            report = uniform_report;
        }
    }
    GeneratorResult {
        config,
        report,
        history,
    }
}

/// A manually-designed configuration that spends the budget uniformly —
/// the naive alternative the paper's Fig. 19/20 compares against.
pub fn manual_uniform(budget: &Resources) -> HwConfig {
    let mut cfg = HwConfig::minimal();
    loop {
        let mut grew = false;
        for class in UnitClass::ALL {
            let cand = cfg.plus_one(class);
            if cand.resources().fits(budget) {
                cfg = cand;
                grew = true;
            }
        }
        if !grew {
            return cfg;
        }
    }
}

/// A manually-designed configuration biased toward matrix-multiply units
/// (the "accelerate GEMM" intuition of dense-matrix designs).
pub fn manual_matmul_heavy(budget: &Resources) -> HwConfig {
    let mut cfg = HwConfig::minimal();
    loop {
        let cand = cfg.plus_one(UnitClass::MatMul);
        if cand.resources().fits(budget) {
            cfg = cand;
        } else {
            return cfg;
        }
    }
}

/// A manually-designed configuration biased toward QR units.
pub fn manual_qr_heavy(budget: &Resources) -> HwConfig {
    let mut cfg = HwConfig::minimal();
    loop {
        let cand = cfg.plus_one(UnitClass::Qr);
        if cand.resources().fits(budget) {
            cfg = cand;
        } else {
            return cfg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use orianna_compiler::compile;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
    use orianna_lie::Pose2;

    fn workload_program() -> orianna_compiler::Program {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..12)
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
        compile(&g, &natural_ordering(&g)).unwrap()
    }

    #[test]
    fn generation_respects_budget() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let budget = Resources::zc706();
        let result = generate(&wl, &budget, Objective::Latency);
        assert!(result.config.resources().fits(&budget));
    }

    #[test]
    fn generation_beats_minimal() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let budget = Resources::zc706();
        let result = generate(&wl, &budget, Objective::Latency);
        let minimal = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        assert!(result.report.cycles <= minimal.cycles);
    }

    #[test]
    fn tight_budget_keeps_minimal() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        // Budget = exactly the minimal config.
        let budget = HwConfig::minimal().resources();
        let result = generate(&wl, &budget, Objective::Latency);
        assert_eq!(
            result.config.total_units(),
            HwConfig::minimal().total_units()
        );
        assert!(result.history.is_empty());
    }

    #[test]
    fn generated_is_at_least_as_good_as_manual_under_same_budget() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        // A mid-sized budget where allocation decisions matter.
        let budget = Resources {
            lut: 80_000,
            ff: 90_000,
            bram: 100,
            dsp: 300,
        };
        let gen = generate(&wl, &budget, Objective::Latency);
        for manual in [
            manual_uniform(&budget),
            manual_matmul_heavy(&budget),
            manual_qr_heavy(&budget),
        ] {
            if !manual.resources().fits(&budget) {
                continue;
            }
            let m = simulate(&wl, &manual, IssuePolicy::OutOfOrder);
            assert!(
                gen.report.cycles <= m.cycles,
                "generated {} vs manual {:?} {}",
                gen.report.cycles,
                manual,
                m.cycles
            );
        }
    }

    #[test]
    fn shared_context_matches_fresh_generation_and_memoizes() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let budgets = [
            Resources {
                lut: 80_000,
                ff: 90_000,
                bram: 100,
                dsp: 300,
            },
            Resources::zc706(),
        ];
        let mut ctx = DseContext::new(&wl);
        for budget in &budgets {
            for objective in [Objective::Latency, Objective::Energy] {
                let shared = generate_with(&mut ctx, budget, objective);
                let fresh = generate(&wl, budget, objective);
                assert_eq!(shared.config, fresh.config);
                assert_eq!(shared.report.cycles, fresh.report.cycles);
                assert!((shared.report.energy_mj - fresh.report.energy_mj).abs() == 0.0);
                assert_eq!(shared.history, fresh.history);
            }
        }
        // Every run starts from the minimal config and both objectives
        // walk overlapping frontiers: the memo must have fired.
        assert!(ctx.cache_hits() > 0, "{} calls", ctx.sim_calls());
        assert!(ctx.cache_hits() < ctx.sim_calls());
    }

    /// A small but non-trivial candidate grid (mirrors the shape of the
    /// bench's `dse_configs`, scaled down).
    fn candidate_grid() -> Vec<HwConfig> {
        let mut out = Vec::new();
        for qr in 1..=4 {
            for mm in 1..=4 {
                for vec in 1..=2 {
                    out.push(HwConfig::with_counts(&[
                        (UnitClass::Qr, qr),
                        (UnitClass::MatMul, mm),
                        (UnitClass::Vector, vec),
                    ]));
                }
            }
        }
        out
    }

    fn assert_same_outcome(a: &SweepReport, b: &SweepReport, ctx: &str) {
        match (&a.best, &b.best) {
            (None, None) => {}
            (Some((ca, ra)), Some((cb, rb))) => {
                assert_eq!(ca, cb, "{ctx}: best config");
                assert_eq!(ra.cycles, rb.cycles, "{ctx}: best cycles");
                assert!(
                    (ra.energy_mj - rb.energy_mj).abs() == 0.0,
                    "{ctx}: best energy"
                );
                assert_eq!(ra.contention, rb.contention, "{ctx}: best contention");
            }
            _ => panic!("{ctx}: one sweep found a winner, the other did not"),
        }
    }

    /// A two-pose program: small enough that a uniform ladder crosses the
    /// saturation knee (cycles hit the critical path) within a few rungs,
    /// which is the regime where dominance pruning fires.
    fn small_workload_program() -> orianna_compiler::Program {
        let mut g = FactorGraph::new();
        let a = g.add_pose2(Pose2::new(0.0, 0.0, 0.1));
        let b = g.add_pose2(Pose2::new(0.0, 1.0, 0.1));
        g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
        g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.2));
        compile(&g, &natural_ordering(&g)).unwrap()
    }

    /// Uniform replication ladder: every class at `k` units, `k = 1..=n`.
    fn uniform_ladder(n: usize) -> Vec<HwConfig> {
        (1..=n)
            .map(|k| HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, k))))
            .collect()
    }

    fn unconstrained() -> Resources {
        Resources {
            lut: u64::MAX / 4,
            ff: u64::MAX / 4,
            bram: u64::MAX / 4,
            dsp: u64::MAX / 4,
        }
    }

    /// Skip-counter regression test (ISSUE 5): the pruned sweep must
    /// actually skip scoreboard walks, while returning the bitwise-same
    /// winner and frontier as the exhaustive sweep.
    #[test]
    fn pruned_sweep_skips_but_matches_exhaustive() {
        let prog = small_workload_program();
        let wl = Workload::single("loc", &prog);
        // Ladder + mixed grid: part of the list saturates (prunable),
        // part stays on the ramp (must all be evaluated).
        let mut grid = uniform_ladder(10);
        grid.extend(candidate_grid());
        let budget = unconstrained();
        for objective in [Objective::Latency, Objective::Energy] {
            let mut serial = DseContext::with_parallelism(&wl, Parallelism::serial());
            let full = serial.sweep(&grid, &budget, objective, SweepMode::Exhaustive);
            let mut pruned_ctx = DseContext::with_parallelism(&wl, Parallelism::serial());
            let pruned = pruned_ctx.sweep(&grid, &budget, objective, SweepMode::Pruned);

            assert_same_outcome(&full, &pruned, "pruned vs exhaustive");
            assert_eq!(serial.frontier(), pruned_ctx.frontier());
            assert_eq!(full.skipped_bound, 0);
            assert!(
                pruned.skipped_bound > 0,
                "bound pruning never fired over {} candidates",
                grid.len()
            );
            assert_eq!(
                pruned.evaluated + pruned.skipped_bound + pruned.skipped_budget,
                grid.len()
            );
            assert_eq!(pruned_ctx.bound_skips(), pruned.skipped_bound);
        }
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let prog = small_workload_program();
        let wl = Workload::single("loc", &prog);
        let mut grid = uniform_ladder(10);
        grid.extend(candidate_grid());
        let budget = unconstrained();
        let mut baseline_ctx = DseContext::with_parallelism(&wl, Parallelism::serial());
        let baseline =
            baseline_ctx.sweep(&grid, &budget, Objective::Latency, SweepMode::Exhaustive);
        for threads in [2, 4, 8] {
            for mode in [SweepMode::Exhaustive, SweepMode::Pruned] {
                let mut ctx = DseContext::with_parallelism(&wl, Parallelism::with_threads(threads));
                let got = ctx.sweep(&grid, &budget, Objective::Latency, mode);
                let label = format!("{threads} threads, {mode:?}");
                assert_same_outcome(&baseline, &got, &label);
                assert_eq!(baseline_ctx.frontier(), ctx.frontier(), "{label}: frontier");
            }
        }
    }

    #[test]
    fn frontier_points_are_mutually_non_dominated() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let mut ctx = DseContext::new(&wl);
        ctx.sweep(
            &candidate_grid(),
            &Resources::zc706(),
            Objective::Latency,
            SweepMode::Exhaustive,
        );
        let frontier = ctx.frontier();
        assert!(!frontier.is_empty());
        for (i, p) in frontier.iter().enumerate() {
            assert_eq!(p.resources, p.config.resources());
            for (j, q) in frontier.iter().enumerate() {
                if i != j {
                    assert!(!p.dominates(q), "frontier point dominated: {q:?} by {p:?}");
                }
            }
        }
        // Sorted resting order: cycles ascend, i.e. the frontier trades
        // makespan against energy/resources monotonically.
        for w in frontier.windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
        }
        // The sweep winner under Latency is the frontier's fastest point.
        let fastest = frontier.iter().map(|p| p.cycles).min().unwrap();
        assert_eq!(frontier[0].cycles, fastest);
    }

    #[test]
    fn sweep_with_impossible_budget_finds_nothing() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let grid = candidate_grid();
        let none = Resources {
            lut: 1,
            ff: 1,
            bram: 0,
            dsp: 0,
        };
        let mut ctx = DseContext::new(&wl);
        let report = ctx.sweep(&grid, &none, Objective::Latency, SweepMode::Pruned);
        assert!(report.best.is_none());
        assert_eq!(report.skipped_budget, grid.len());
        assert_eq!(report.evaluated, 0);
        assert!(ctx.frontier().is_empty());
    }

    #[test]
    fn generation_is_thread_count_independent() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let budget = Resources::zc706();
        for objective in [Objective::Latency, Objective::Energy] {
            let mut serial = DseContext::with_parallelism(&wl, Parallelism::serial());
            let want = generate_with(&mut serial, &budget, objective);
            for threads in [2, 8] {
                let mut ctx = DseContext::with_parallelism(&wl, Parallelism::with_threads(threads));
                let got = generate_with(&mut ctx, &budget, objective);
                assert_eq!(want.config, got.config);
                assert_eq!(want.history, got.history);
                assert_eq!(want.report.cycles, got.report.cycles);
                // Bound skips in generation depend only on the incumbent,
                // not on scheduling: deterministic across thread counts.
                assert_eq!(serial.bound_skips(), ctx.bound_skips());
            }
        }
    }

    #[test]
    fn with_decoded_reuses_the_decode() {
        let prog = workload_program();
        let wl = Workload::single("loc", &prog);
        let base = DseContext::new(&wl);
        let mut rebuilt = DseContext::with_decoded(base.decoded().clone(), Parallelism::serial());
        let budget = Resources::zc706();
        let fresh = generate(&wl, &budget, Objective::Latency);
        let again = generate_with(&mut rebuilt, &budget, Objective::Latency);
        assert_eq!(fresh.config, again.config);
        assert_eq!(fresh.report.cycles, again.report.cycles);
    }

    #[test]
    fn manual_designs_fit_their_budget() {
        let budget = Resources {
            lut: 100_000,
            ff: 120_000,
            bram: 200,
            dsp: 400,
        };
        assert!(manual_uniform(&budget).resources().fits(&budget));
        assert!(manual_matmul_heavy(&budget).resources().fits(&budget));
        assert!(manual_qr_heavy(&budget).resources().fits(&budget));
    }
}

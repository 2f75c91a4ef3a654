//! DSE pruning and parallelism soundness.
//!
//! The hardware sweep ([`DseContext::sweep`]) promises that branch-and-
//! bound pruning and multi-threaded evaluation are pure optimizations:
//! the selected design, its simulation report, and the Pareto frontier
//! must be bitwise identical to a serial exhaustive sweep. This module
//! checks that promise differentially, the same way [`crate::oracle`]
//! checks the compiled numeric path against the analytic one.

use orianna_compiler::UnitClass;
use orianna_hw::{
    search_default, Bound, BoundTable, Combine, DseContext, HwConfig, IssuePolicy, Objective,
    ParetoPoint, Resources, SearchSpace, SimReport, SweepMode, SweepReport, Workload, WorkloadSet,
};
use orianna_math::Parallelism;

/// A violated DSE-equivalence invariant.
#[derive(Debug, Clone)]
pub enum DseViolation {
    /// One sweep found an in-budget winner, the other did not.
    WinnerExistence {
        /// Label of the diverging sweep (mode + thread count).
        sweep: String,
        /// Whether the serial exhaustive baseline found a winner.
        baseline_found: bool,
    },
    /// The sweeps picked different configurations.
    BestConfigDiverges {
        /// Label of the diverging sweep.
        sweep: String,
        /// Baseline unit counts, in `UnitClass::ALL` order.
        want: Vec<usize>,
        /// Diverging unit counts.
        got: Vec<usize>,
    },
    /// Same configuration, different simulation report.
    BestReportDiverges {
        /// Label of the diverging sweep.
        sweep: String,
        /// The report field that differs.
        field: &'static str,
    },
    /// The Pareto frontiers differ.
    FrontierDiverges {
        /// Label of the diverging sweep.
        sweep: String,
        /// Baseline frontier size.
        want_len: usize,
        /// Diverging frontier size.
        got_len: usize,
        /// First differing index (`want_len` when only the sizes differ).
        index: usize,
    },
    /// A sweep's counters do not add up to the candidate count.
    SkipAccounting {
        /// Label of the offending sweep.
        sweep: String,
        /// Candidates paid for with a scoreboard walk.
        evaluated: usize,
        /// Candidates answered from the memo.
        cache_hits: usize,
        /// Candidates pruned via admissible bounds.
        skipped_bound: usize,
        /// Candidates over the resource budget.
        skipped_budget: usize,
        /// Length of the candidate list.
        candidates: usize,
    },
    /// An exhaustive sweep reported bound skips.
    PhantomSkips {
        /// Label of the offending sweep.
        sweep: String,
        /// Number of bound skips reported.
        skipped_bound: usize,
    },
}

impl std::fmt::Display for DseViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseViolation::WinnerExistence {
                sweep,
                baseline_found,
            } => write!(
                f,
                "{sweep}: baseline {} a winner but this sweep did not agree",
                if *baseline_found { "found" } else { "did not find" }
            ),
            DseViolation::BestConfigDiverges { sweep, want, got } => {
                write!(f, "{sweep}: best config {got:?} != baseline {want:?}")
            }
            DseViolation::BestReportDiverges { sweep, field } => {
                write!(f, "{sweep}: winner report field `{field}` diverges")
            }
            DseViolation::FrontierDiverges {
                sweep,
                want_len,
                got_len,
                index,
            } => write!(
                f,
                "{sweep}: frontier diverges at point {index} ({got_len} points vs baseline {want_len})"
            ),
            DseViolation::SkipAccounting {
                sweep,
                evaluated,
                cache_hits,
                skipped_bound,
                skipped_budget,
                candidates,
            } => write!(
                f,
                "{sweep}: {evaluated} evaluated + {cache_hits} cached + {skipped_bound} bound-skipped \
                 + {skipped_budget} budget-skipped != {candidates} candidates"
            ),
            DseViolation::PhantomSkips {
                sweep,
                skipped_bound,
            } => write!(f, "{sweep}: exhaustive sweep claims {skipped_bound} bound skips"),
        }
    }
}

impl std::error::Error for DseViolation {}

fn counts_of(config: &HwConfig) -> Vec<usize> {
    UnitClass::ALL.iter().map(|c| config.count(*c)).collect()
}

/// Field-by-field report comparison (bitwise on floats: the sweep
/// promises identical reports, not merely close ones).
fn report_diff(a: &SimReport, b: &SimReport) -> Option<&'static str> {
    if a.cycles != b.cycles {
        return Some("cycles");
    }
    if a.time_ms.to_bits() != b.time_ms.to_bits() {
        return Some("time_ms");
    }
    if a.energy_mj.to_bits() != b.energy_mj.to_bits() {
        return Some("energy_mj");
    }
    if a.instructions != b.instructions {
        return Some("instructions");
    }
    if a.unit_busy != b.unit_busy {
        return Some("unit_busy");
    }
    if a.contention != b.contention {
        return Some("contention");
    }
    None
}

fn frontier_diff(want: &[ParetoPoint], got: &[ParetoPoint]) -> Option<usize> {
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        let same = w.config == g.config
            && w.cycles == g.cycles
            && w.energy_mj.to_bits() == g.energy_mj.to_bits()
            && w.resources == g.resources;
        if !same {
            return Some(i);
        }
    }
    if want.len() != got.len() {
        return Some(want.len().min(got.len()));
    }
    None
}

fn check_one(
    sweep: String,
    baseline: &SweepReport,
    baseline_frontier: &[ParetoPoint],
    got: &SweepReport,
    got_frontier: &[ParetoPoint],
    mode: SweepMode,
    candidates: usize,
) -> Result<(), DseViolation> {
    if got.evaluated + got.cache_hits + got.skipped_bound + got.skipped_budget != candidates {
        return Err(DseViolation::SkipAccounting {
            sweep,
            evaluated: got.evaluated,
            cache_hits: got.cache_hits,
            skipped_bound: got.skipped_bound,
            skipped_budget: got.skipped_budget,
            candidates,
        });
    }
    if mode == SweepMode::Exhaustive && got.skipped_bound != 0 {
        return Err(DseViolation::PhantomSkips {
            sweep,
            skipped_bound: got.skipped_bound,
        });
    }
    match (&baseline.best, &got.best) {
        (None, None) => {}
        (Some((wc, wr)), Some((gc, gr))) => {
            if wc != gc {
                return Err(DseViolation::BestConfigDiverges {
                    sweep,
                    want: counts_of(wc),
                    got: counts_of(gc),
                });
            }
            if let Some(field) = report_diff(wr, gr) {
                return Err(DseViolation::BestReportDiverges { sweep, field });
            }
        }
        (want, _) => {
            return Err(DseViolation::WinnerExistence {
                sweep,
                baseline_found: want.is_some(),
            });
        }
    }
    if let Some(index) = frontier_diff(baseline_frontier, got_frontier) {
        return Err(DseViolation::FrontierDiverges {
            sweep,
            want_len: baseline_frontier.len(),
            got_len: got_frontier.len(),
            index,
        });
    }
    Ok(())
}

/// Checks that every `(thread count, sweep mode)` combination — plus a
/// context built with the workspace-default parallelism, i.e. the
/// `ORIANNA_THREADS` knob — reproduces the serial exhaustive sweep
/// exactly: same winner, same report bits, same Pareto frontier.
///
/// # Errors
/// Returns the first [`DseViolation`] found.
pub fn check_dse(
    workload: &Workload<'_>,
    candidates: &[HwConfig],
    budget: &Resources,
    objective: Objective,
    threads: &[usize],
) -> Result<(), DseViolation> {
    let mut baseline_ctx = DseContext::with_parallelism(workload, Parallelism::serial());
    let baseline = baseline_ctx.sweep(candidates, budget, objective, SweepMode::Exhaustive);
    check_one(
        "serial exhaustive".to_string(),
        &baseline,
        baseline_ctx.frontier(),
        &baseline,
        baseline_ctx.frontier(),
        SweepMode::Exhaustive,
        candidates.len(),
    )?;

    let mut runs: Vec<(String, Parallelism)> = threads
        .iter()
        .map(|&t| (format!("{t} threads"), Parallelism::with_threads(t)))
        .collect();
    runs.push(("default parallelism".to_string(), Parallelism::default()));
    for (label, par) in runs {
        for mode in [SweepMode::Exhaustive, SweepMode::Pruned] {
            let mut ctx = DseContext::with_parallelism(workload, par);
            let got = ctx.sweep(candidates, budget, objective, mode);
            check_one(
                format!("{label}, {mode:?}"),
                &baseline,
                baseline_ctx.frontier(),
                &got,
                ctx.frontier(),
                mode,
                candidates.len(),
            )?;
        }
    }
    Ok(())
}

/// A violated search-DSE invariant ([`check_search`]).
#[derive(Debug, Clone)]
pub enum SearchViolation {
    /// The search reported a better objective than the exhaustive argmin
    /// over the same space — impossible: the search only ever simulates
    /// members of the space.
    BeatsExhaustive {
        /// The search's reported objective.
        search: f64,
        /// The exhaustive argmin objective.
        exhaustive: f64,
    },
    /// One of search and exhaustive found an in-budget winner, the other
    /// did not.
    WinnerExistence {
        /// Whether the search found a winner.
        search_found: bool,
        /// Whether the exhaustive sweep found a winner.
        exhaustive_found: bool,
    },
    /// A fresh pruned sweep (one workload) or exhaustive re-evaluation
    /// (several) over the recorded polish neighborhood did not reproduce
    /// the search's final answer bitwise.
    PolishDiverges {
        /// The field that diverges (`config`, `cycles`, `energy_mj`,
        /// `score`, `per_workload`, or `existence`).
        field: &'static str,
    },
    /// The proposal dispositions do not add up.
    DedupAccounting {
        /// Proposals received from proposers.
        proposed: usize,
        /// Unique in-space, in-budget, un-gated proposals.
        accepted: usize,
        /// Rejected as duplicates.
        duplicates: usize,
        /// Rejected as outside the search space.
        out_of_space: usize,
        /// Rejected as over the resource budget.
        over_budget: usize,
        /// Skipped by the admissible bound gate.
        bound_gated: usize,
    },
    /// Fresh scoreboard walks diverged from unique memo entries — a
    /// re-proposed configuration was re-simulated instead of answered
    /// from the memo.
    MemoAccounting {
        /// Fresh scoreboard walks (`cache_misses` over all contexts).
        simulations: usize,
        /// Unique memo entries over all contexts.
        memo_len: usize,
    },
    /// Seed + search phase simulations diverged from
    /// `(seeded + accepted) × workloads`.
    SearchSimAccounting {
        /// Fresh walks recorded during the seed + search phases.
        search_simulations: usize,
        /// The expected count.
        expected: usize,
    },
    /// A re-run at a different thread count produced a different trial
    /// log — the search is not thread-count deterministic.
    LogDiverges {
        /// Label of the diverging run.
        run: String,
        /// First differing JSON line.
        line: usize,
    },
    /// A re-run at a different thread count produced different stats.
    StatsDiverge {
        /// Label of the diverging run.
        run: String,
    },
    /// A bound the search scores a configuration with lies above the
    /// exact score it stands for.
    BoundAboveScore {
        /// The bound: `decode-time` or `floor`.
        bound: &'static str,
        /// Index of the configuration in the checked list.
        index: usize,
        /// The workload, or `None` for the aggregate.
        workload: Option<usize>,
        /// The bound.
        value: f64,
        /// The exact score.
        exact: f64,
    },
    /// The search's [`BoundTable`] disagrees with the decode-time bound
    /// it tabulates.
    TableDiverges {
        /// Index of the configuration in the checked list.
        index: usize,
        /// The workload, or `None` for the aggregate bits.
        workload: Option<usize>,
    },
}

impl std::fmt::Display for SearchViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchViolation::BeatsExhaustive { search, exhaustive } => write!(
                f,
                "search objective {search} beats the exhaustive argmin {exhaustive} (impossible)"
            ),
            SearchViolation::WinnerExistence {
                search_found,
                exhaustive_found,
            } => write!(
                f,
                "search {} a winner, exhaustive {}",
                if *search_found {
                    "found"
                } else {
                    "did not find"
                },
                if *exhaustive_found {
                    "found one"
                } else {
                    "did not"
                },
            ),
            SearchViolation::PolishDiverges { field } => write!(
                f,
                "re-evaluating the polish neighborhood diverges from the search answer \
                 in `{field}`"
            ),
            SearchViolation::DedupAccounting {
                proposed,
                accepted,
                duplicates,
                out_of_space,
                over_budget,
                bound_gated,
            } => write!(
                f,
                "{proposed} proposed != {accepted} accepted + {duplicates} duplicate + \
                 {out_of_space} out-of-space + {over_budget} over-budget + {bound_gated} gated"
            ),
            SearchViolation::MemoAccounting {
                simulations,
                memo_len,
            } => write!(
                f,
                "{simulations} fresh simulations != {memo_len} unique memo entries"
            ),
            SearchViolation::SearchSimAccounting {
                search_simulations,
                expected,
            } => write!(
                f,
                "{search_simulations} search-phase simulations != expected {expected}"
            ),
            SearchViolation::LogDiverges { run, line } => {
                write!(f, "{run}: trial log diverges from serial at line {line}")
            }
            SearchViolation::StatsDiverge { run } => {
                write!(f, "{run}: search stats diverge from serial")
            }
            SearchViolation::BoundAboveScore {
                bound,
                index,
                workload,
                value,
                exact,
            } => write!(
                f,
                "{bound} bound {value} of configuration {index} (workload {workload:?}) \
                 exceeds its exact score {exact}"
            ),
            SearchViolation::TableDiverges { index, workload } => write!(
                f,
                "bound table diverges from the decode-time bound on configuration {index} \
                 (workload {workload:?})"
            ),
        }
    }
}

impl std::error::Error for SearchViolation {}

/// What [`check_search`] measured, for ratio assertions in tests
/// (e.g. `simulations × 10 ≤ space_size`).
#[derive(Debug, Clone)]
pub struct SearchSummary {
    /// The search's best objective, when a winner exists.
    pub best_score: Option<f64>,
    /// The exhaustive argmin objective (only computed on spaces with at
    /// most 4 096 configurations).
    pub exhaustive_score: Option<f64>,
    /// Fresh scoreboard walks the whole search (polish included) paid
    /// for, memo-hit-adjusted.
    pub simulations: usize,
    /// Size of the search space.
    pub space_size: u128,
}

fn objective_score(report: &SimReport, objective: Objective) -> f64 {
    match objective {
        Objective::Latency => report.cycles as f64,
        Objective::Energy => report.energy_mj,
    }
}

fn first_diff_line(a: &str, b: &str) -> usize {
    a.lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()))
}

/// Whether `a` dominates `b`: same clock, every count at least `b`'s.
fn dominates(a: &HwConfig, b: &HwConfig) -> bool {
    a.clock_mhz.to_bits() == b.clock_mhz.to_bits()
        && UnitClass::ALL.iter().all(|&c| a.count(c) >= b.count(c))
}

/// Checks every bound a [`search`](orianna_hw::search) run scores the
/// configurations of `configs` with against their exact per-workload
/// `(cycles, energy_mj)` pairs `exact[j]` (workload order, simulated on
/// contexts the search did not touch):
///
/// 1. **Table**: the run's [`BoundTable`] over `space` gives each
///    workload's decode-time bound as the integer `lower_bound_cycles`
///    computes, and the aggregate as the bits of
///    [`WorkloadSet::bound_score`] — what the ranking, the search-phase
///    gate and the polish read.
/// 2. **Decode-time**: each workload's bound is at most its exact
///    cycles, and the aggregate bound at most the exact aggregate.
/// 3. **Floors**: a polish line floors a candidate's cycles with those of
///    a configuration that dominates it (same clock, every count at
///    least as large). For every dominating pair in `configs` the
///    dominator's exact cycles must be at most the candidate's, and
///    under the latency objective the aggregate of the floored bounds
///    (each workload's decode-time bound maxed with every dominator's
///    cycles) must stay at most the exact aggregate.
///
/// # Errors
/// Returns the first [`SearchViolation::TableDiverges`] or
/// [`SearchViolation::BoundAboveScore`] found.
pub fn check_bounds(
    set: &WorkloadSet,
    space: &SearchSpace,
    configs: &[HwConfig],
    exact: &[Vec<(u64, f64)>],
) -> Result<(), SearchViolation> {
    let table = BoundTable::new(set, space);
    let table = table.bind(set);
    let objective = set.objective();
    let score = |&(cycles, energy_mj): &(u64, f64)| match objective {
        Objective::Latency => cycles as f64,
        Objective::Energy => energy_mj,
    };
    for (index, config) in configs.iter().enumerate() {
        let above = |bound, workload, value: f64, exact: f64| {
            Err(SearchViolation::BoundAboveScore {
                bound,
                index,
                workload,
                value,
                exact,
            })
        };
        let mut floor = vec![0u64; set.len()];
        for (other, dominator) in configs.iter().enumerate() {
            if other == index || !dominates(dominator, config) {
                continue;
            }
            for (w, f) in floor.iter_mut().enumerate() {
                let (cycles, mine) = (exact[other][w].0, exact[index][w].0);
                if cycles > mine {
                    return above("floor", Some(w), cycles as f64, mine as f64);
                }
                *f = (*f).max(cycles);
            }
        }
        let mut floored = Vec::with_capacity(set.len());
        for (w, f) in floor.iter().enumerate() {
            let lb = set.context(w).decoded().lower_bound_cycles(config);
            if table.cycles(w, config) != lb {
                return Err(SearchViolation::TableDiverges {
                    index,
                    workload: Some(w),
                });
            }
            if lb > exact[index][w].0 {
                return above("decode-time", Some(w), lb as f64, exact[index][w].0 as f64);
            }
            floored.push(lb.max(*f) as f64);
        }
        let exact_agg = set.aggregate(&exact[index].iter().map(score).collect::<Vec<_>>());
        let bound = set.bound_score(config);
        if table.score(config).to_bits() != bound.to_bits() {
            return Err(SearchViolation::TableDiverges {
                index,
                workload: None,
            });
        }
        if bound > exact_agg {
            return above("decode-time", None, bound, exact_agg);
        }
        if objective == Objective::Latency && set.aggregate(&floored) > exact_agg {
            return above("floor", None, set.aggregate(&floored), exact_agg);
        }
    }
    Ok(())
}

/// Checks the search-DSE oracles on one workload:
///
/// 1. **Never beats exhaustive**: on enumerable spaces (≤4 096
///    configurations) the search's objective can never be better than
///    the exhaustive argmin. The [`SearchSummary`] carries both scores
///    so callers can additionally pin zero regret where the budget
///    guarantees it.
/// 2. **Polish is exact**: a fresh serial pruned sweep over the recorded
///    polish neighborhood reproduces the search's final answer bitwise.
/// 3. **Accounting is exact**: proposal dispositions add up, fresh
///    simulations equal unique memo entries, and seed + search phase
///    walks equal `(seeded + accepted) × workloads`.
/// 4. **Thread-count determinism**: re-running the identical seed at
///    every requested thread count — plus workspace-default parallelism,
///    i.e. the `ORIANNA_THREADS` knob — reproduces the serial trial log
///    bitwise, stats included.
/// 5. **Bounds are admissible**: [`check_bounds`] over the polish
///    neighbourhood, simulated on a fresh context.
///
/// # Errors
/// Returns the first [`SearchViolation`] found.
pub fn check_search(
    workload: &Workload<'_>,
    space: &SearchSpace,
    budget: &Resources,
    objective: Objective,
    seed: u64,
    threads: &[usize],
) -> Result<SearchSummary, SearchViolation> {
    let mut set = WorkloadSet::single(
        "wl",
        DseContext::with_parallelism(workload, Parallelism::serial()),
        objective,
    );
    let outcome = search_default(&mut set, space, budget, seed);

    let s = outcome.stats;
    if s.proposed != s.accepted + s.duplicates + s.out_of_space + s.over_budget + s.bound_gated {
        return Err(SearchViolation::DedupAccounting {
            proposed: s.proposed,
            accepted: s.accepted,
            duplicates: s.duplicates,
            out_of_space: s.out_of_space,
            over_budget: s.over_budget,
            bound_gated: s.bound_gated,
        });
    }
    if set.simulations() != set.memo_len() {
        return Err(SearchViolation::MemoAccounting {
            simulations: set.simulations(),
            memo_len: set.memo_len(),
        });
    }
    let expected = (s.seeded + s.accepted) * set.len();
    if s.search_simulations != expected {
        return Err(SearchViolation::SearchSimAccounting {
            search_simulations: s.search_simulations,
            expected,
        });
    }

    // Polish oracle: one pruned sweep over everything the polish swept,
    // on a fresh context, must land on the same answer bitwise.
    if let Some(best) = &outcome.best {
        let mut fresh = DseContext::with_parallelism(workload, Parallelism::serial());
        let sweep = fresh.sweep(
            &outcome.polish_neighborhood,
            budget,
            objective,
            SweepMode::Pruned,
        );
        match sweep.best {
            None => return Err(SearchViolation::PolishDiverges { field: "existence" }),
            Some((config, report)) => {
                if config != best.config {
                    return Err(SearchViolation::PolishDiverges { field: "config" });
                }
                if report.cycles != best.per_workload[0].0 {
                    return Err(SearchViolation::PolishDiverges { field: "cycles" });
                }
                if report.energy_mj.to_bits() != best.per_workload[0].1.to_bits() {
                    return Err(SearchViolation::PolishDiverges { field: "energy_mj" });
                }
                if objective_score(&report, objective).to_bits() != best.score.to_bits() {
                    return Err(SearchViolation::PolishDiverges { field: "score" });
                }
            }
        }
    }
    let mut fresh = DseContext::with_parallelism(workload, Parallelism::serial());
    let exact: Vec<Vec<(u64, f64)>> = outcome
        .polish_neighborhood
        .iter()
        .map(|c| {
            let r = fresh.simulate(c, IssuePolicy::OutOfOrder);
            vec![(r.cycles, r.energy_mj)]
        })
        .collect();
    check_bounds(&set, space, &outcome.polish_neighborhood, &exact)?;

    // Exhaustive comparison, only on spaces small enough to enumerate.
    let mut exhaustive_score = None;
    if space.size() <= 4096 {
        let mut ex = DseContext::with_parallelism(workload, Parallelism::serial());
        let sweep = ex.sweep(&space.enumerate(), budget, objective, SweepMode::Exhaustive);
        match (&outcome.best, &sweep.best) {
            (None, None) => {}
            (Some(b), Some((_, report))) => {
                let want = objective_score(report, objective);
                if b.score < want {
                    return Err(SearchViolation::BeatsExhaustive {
                        search: b.score,
                        exhaustive: want,
                    });
                }
                exhaustive_score = Some(want);
            }
            (search, exhaustive) => {
                return Err(SearchViolation::WinnerExistence {
                    search_found: search.is_some(),
                    exhaustive_found: exhaustive.is_some(),
                });
            }
        }
    }

    // Thread-count determinism: bitwise-identical trial logs and stats.
    let base_log = outcome.log.to_json_lines();
    let mut runs: Vec<(String, Parallelism)> = threads
        .iter()
        .map(|&t| (format!("{t} threads"), Parallelism::with_threads(t)))
        .collect();
    runs.push(("default parallelism".to_string(), Parallelism::default()));
    for (run, par) in runs {
        let mut set_t =
            WorkloadSet::single("wl", DseContext::with_parallelism(workload, par), objective);
        let got = search_default(&mut set_t, space, budget, seed);
        let got_log = got.log.to_json_lines();
        if got_log != base_log {
            return Err(SearchViolation::LogDiverges {
                run,
                line: first_diff_line(&base_log, &got_log),
            });
        }
        if got.stats != outcome.stats {
            return Err(SearchViolation::StatsDiverge { run });
        }
    }

    Ok(SearchSummary {
        best_score: outcome.best.map(|b| b.score),
        exhaustive_score,
        simulations: set.simulations(),
        space_size: space.size(),
    })
}

/// Checks the multi-workload polish: every configuration the polish swept
/// (`polish_neighborhood`) is re-evaluated on every workload through
/// fresh contexts, with no bound and nothing shared with the search, and
/// the argmin of the polish selection key `(aggregate, lut, ff, bram,
/// dsp, Σ energy, max cycles)`, earliest neighborhood index on ties, must
/// be the search's answer bitwise: configuration, aggregate score bits
/// and every per-workload `(cycles, energy_mj)` pair.
///
/// The same re-evaluation then feeds [`check_bounds`], so every bound
/// the polish could have retired a candidate with is checked too.
///
/// `workloads` pairs each workload with its [`Combine::WeightedSum`]
/// weight (ignored under [`Combine::Max`]).
///
/// # Errors
/// Returns [`SearchViolation::PolishDiverges`] naming the first field
/// that differs, or the first violation [`check_bounds`] finds.
pub fn check_polish(
    workloads: &[(Workload<'_>, f64)],
    space: &SearchSpace,
    budget: &Resources,
    objective: Objective,
    combine: Combine,
    seed: u64,
) -> Result<(), SearchViolation> {
    let mut set = WorkloadSet::new(objective, combine);
    for (wl, weight) in workloads {
        set.push_weighted(
            "wl",
            DseContext::with_parallelism(wl, Parallelism::serial()),
            *weight,
        );
    }
    let outcome = search_default(&mut set, space, budget, seed);

    let mut fresh: Vec<DseContext> = workloads
        .iter()
        .map(|(wl, _)| DseContext::with_parallelism(wl, Parallelism::serial()))
        .collect();
    // Per neighborhood entry: (aggregate, per-workload pairs), plus the
    // argmin's (key, index).
    let mut rows: Vec<(f64, Vec<(u64, f64)>)> = Vec::new();
    let mut argmin = None;
    for (i, config) in outcome.polish_neighborhood.iter().enumerate() {
        let reports: Vec<SimReport> = fresh
            .iter_mut()
            .map(|ctx| ctx.simulate(config, IssuePolicy::OutOfOrder))
            .collect();
        let agg = reports
            .iter()
            .zip(workloads)
            .fold(0.0, |acc, (r, (_, weight))| {
                let s = objective_score(r, objective);
                match combine {
                    Combine::Max => f64::max(acc, s),
                    Combine::WeightedSum => acc + weight * s,
                }
            });
        let energy: f64 = reports.iter().map(|r| r.energy_mj).sum();
        let cycles = reports.iter().map(|r| r.cycles).max().unwrap_or(0);
        let res = config.resources();
        let key = (
            agg.to_bits(),
            res.lut,
            res.ff,
            res.bram,
            res.dsp,
            energy.to_bits(),
            cycles,
        );
        if argmin.is_none_or(|(k, _)| key < k) {
            argmin = Some((key, i));
        }
        rows.push((
            agg,
            reports.iter().map(|r| (r.cycles, r.energy_mj)).collect(),
        ));
    }

    let exact: Vec<Vec<(u64, f64)>> = rows.iter().map(|(_, per)| per.clone()).collect();
    check_bounds(&set, space, &outcome.polish_neighborhood, &exact)?;

    let diverges = |field| Err(SearchViolation::PolishDiverges { field });
    match (&outcome.best, argmin) {
        (None, None) => Ok(()),
        (Some(best), Some((_, i))) => {
            let (agg, per) = &rows[i];
            if best.config != outcome.polish_neighborhood[i] {
                return diverges("config");
            }
            if best.score.to_bits() != agg.to_bits() {
                return diverges("score");
            }
            let bits = |pw: &[(u64, f64)]| -> Vec<(u64, u64)> {
                pw.iter().map(|(c, e)| (*c, e.to_bits())).collect()
            };
            if bits(&best.per_workload) != bits(per) {
                return diverges("per_workload");
            }
            Ok(())
        }
        _ => diverges("existence"),
    }
}

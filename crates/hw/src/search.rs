//! Search-based design-space exploration (ROADMAP: 10³–10⁴ candidate
//! scale).
//!
//! The pruned sweep of [`crate::generator::DseContext::sweep`] is exact
//! but enumerative: every candidate the admissible bound cannot dominate
//! away still pays a full scoreboard walk, which caps it at a few hundred
//! configurations. This module decouples candidate *proposal* from batched
//! *evaluation* so much larger spaces become searchable while the exact
//! machinery stays in the loop as the oracle:
//!
//! * [`Proposer`] — proposes a batch of [`HwConfig`]s given the trial
//!   history, the live Pareto frontiers, and an admissible bound callback.
//!   Two deterministic, seeded implementations ship:
//!   [`EvolutionProposer`] (regularized evolution: mutate parents drawn
//!   from the frontier and the recent trial window) and
//!   [`BoundGuidedProposer`] (rank untried candidates by their
//!   decode-time lower bound before spending any simulation).
//! * [`WorkloadSet`] — the multi-workload objective: one [`DseContext`]
//!   per application algorithm, a shared candidate stream, and a
//!   max / weighted-sum aggregate so one search co-designs a single
//!   accelerator for all twelve app algorithms.
//! * [`search`] — the driver: dedups proposals by canonical configuration
//!   key, gates them on the aggregate admissible bound (a candidate whose
//!   bound cannot beat the incumbent is logged but never simulated),
//!   evaluates each accepted batch through the existing memoized parallel
//!   evaluation path (per-worker scratch, thread-count-independent
//!   merge), records every trial in a [`TrialLog`], and finishes with an
//!   exact polish around the top-K: a pruned sweep for one workload, an
//!   incumbent-bounded aggregate argmin for several.
//!
//! Everything is a deterministic function of the explicit `u64` seed
//! ([`SplitMix64`], no system RNG): identical seeds produce bitwise
//! identical trial logs at any thread count (DESIGN.md §3.4.2).

use crate::config::HwConfig;
use crate::generator::{score, DseContext, Objective, ParetoPoint, SweepMode};
use crate::sim::{DecodedWorkload, IssuePolicy, SimReport};
use crate::templates::Resources;
use orianna_compiler::UnitClass;
use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64 — the tiny, seedable, platform-independent generator every
/// search component draws from. No system RNG anywhere: the whole search
/// trajectory is a function of the explicit seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Canonical identity of a configuration: the per-class count array in
/// [`UnitClass::ALL`] order plus the clock bits. Two configurations
/// compare equal under this key iff the simulator cannot distinguish
/// them. A plain `Copy` value, ordered lexicographically.
pub type CanonKey = ([usize; UnitClass::COUNT], u64);

/// The canonical key of a configuration (dedup identity).
pub fn canon_key(config: &HwConfig) -> CanonKey {
    (*config.counts(), config.clock_mhz.to_bits())
}

/// FNV-1a hash of the canonical key — the compact trial-log fingerprint.
pub fn canonical_hash(config: &HwConfig) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |b: u64| {
        for i in 0..8 {
            h ^= (b >> (8 * i)) & 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (class, count) in config.iter() {
        eat(class.index() as u64);
        eat(count as u64);
    }
    eat(config.clock_mhz.to_bits());
    h
}

/// A bounded grid of unit mixes: every class replicated between 1 and a
/// per-class maximum. The searchable universe of one [`search`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Inclusive per-class maximum, in [`UnitClass::ALL`] order.
    max: [usize; UnitClass::COUNT],
}

impl SearchSpace {
    /// Every class from 1 to `max_units` inclusive.
    pub fn uniform(max_units: usize) -> Self {
        Self {
            max: [max_units.max(1); UnitClass::COUNT],
        }
    }

    /// Explicit per-class maxima; unmentioned classes are pinned at 1.
    pub fn with_max(pairs: &[(UnitClass, usize)]) -> Self {
        let mut max = [1usize; UnitClass::COUNT];
        for (class, m) in pairs {
            max[class.index()] = (*m).max(1);
        }
        Self { max }
    }

    /// Inclusive upper bound for a class.
    pub fn max_of(&self, class: UnitClass) -> usize {
        self.max[class.index()]
    }

    /// Number of configurations in the space.
    pub fn size(&self) -> u128 {
        self.max.iter().map(|&m| m as u128).product()
    }

    /// Whether `config`'s counts lie within the grid.
    pub fn contains(&self, config: &HwConfig) -> bool {
        UnitClass::ALL
            .iter()
            .all(|c| (1..=self.max[c.index()]).contains(&config.count(*c)))
    }

    /// The all-ones corner (the generator's minimal starting point).
    pub fn min_corner(&self) -> HwConfig {
        HwConfig::minimal()
    }

    /// The corner with every class at its maximum.
    pub fn max_corner(&self) -> HwConfig {
        HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, self.max[c.index()])))
    }

    /// The `index`-th configuration in mixed-radix order over
    /// [`UnitClass::ALL`] (`index < self.size()`).
    pub fn config_at(&self, mut index: u128) -> HwConfig {
        let mut counts = [1usize; UnitClass::COUNT];
        for (n, &m) in counts.iter_mut().zip(&self.max) {
            *n = (index % m as u128) as usize + 1;
            index /= m as u128;
        }
        HwConfig::from_counts(counts)
    }

    /// Every configuration, in [`Self::config_at`] order. Panics when the
    /// space does not fit in memory — callers guard on [`Self::size`].
    pub fn enumerate(&self) -> Vec<HwConfig> {
        let n = usize::try_from(self.size()).expect("space too large to enumerate");
        let mut out = Vec::with_capacity(n);
        self.for_each_config(|c| out.push(c));
        out
    }

    /// The rank of an in-space configuration in lexicographic count order
    /// (the first class is the most significant digit): for
    /// configurations at one clock, the order of their [`canon_key`]s.
    fn lex_rank(&self, config: &HwConfig) -> u128 {
        UnitClass::ALL.iter().fold(0, |rank, &c| {
            rank * self.max[c.index()] as u128 + (config.count(c) - 1) as u128
        })
    }

    /// The configuration (default clock) of a [`Self::lex_rank`].
    fn config_at_lex(&self, mut rank: u128) -> HwConfig {
        let mut counts = [1usize; UnitClass::COUNT];
        for (n, &m) in counts.iter_mut().zip(&self.max).rev() {
            *n = (rank % m as u128) as usize + 1;
            rank /= m as u128;
        }
        HwConfig::from_counts(counts)
    }

    /// Visits every configuration in [`Self::config_at`] order by
    /// stepping a count array as an odometer (the first class is the
    /// fastest digit).
    fn for_each_config(&self, mut visit: impl FnMut(HwConfig)) {
        let mut counts = [1usize; UnitClass::COUNT];
        loop {
            visit(HwConfig::from_counts(counts));
            let mut digit = 0;
            loop {
                if digit == UnitClass::COUNT {
                    return;
                }
                if counts[digit] < self.max[digit] {
                    counts[digit] += 1;
                    break;
                }
                counts[digit] = 1;
                digit += 1;
            }
        }
    }

    /// A uniformly drawn configuration.
    pub fn random(&self, rng: &mut SplitMix64) -> HwConfig {
        let size = self.size();
        debug_assert!(size > 0);
        let idx = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % size;
        self.config_at(idx)
    }

    /// The ±1-per-class in-space neighbors of `config`, in class order
    /// (minus before plus) — the polish neighborhood and the evolution
    /// mutation set.
    pub fn neighbors(&self, config: &HwConfig) -> Vec<HwConfig> {
        let mut out = Vec::with_capacity(2 * UnitClass::COUNT);
        for class in UnitClass::ALL {
            let n = config.count(class);
            if n > 1 {
                let mut c = config.clone();
                c.set_count(class, n - 1);
                out.push(c);
            }
            if n < self.max[class.index()] {
                out.push(config.plus_one(class));
            }
        }
        out
    }
}

/// Which phase of the search produced a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPhase {
    /// Driver-seeded corner evaluations before the first proposal round.
    Seed,
    /// A proposer-suggested candidate.
    Search,
    /// The final exact polish over the top-K neighborhood.
    Polish,
}

impl TrialPhase {
    fn name(&self) -> &'static str {
        match self {
            TrialPhase::Seed => "seed",
            TrialPhase::Search => "search",
            TrialPhase::Polish => "polish",
        }
    }
}

/// One recorded search trial. `simulated == false` marks a bound-gated
/// candidate: its admissible aggregate bound already met or exceeded the
/// incumbent, so `score` holds the *bound*, no scoreboard ran, and
/// `per_workload` is empty.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Sequential trial id (log position).
    pub id: usize,
    /// Proposal round (0 for seeds, driver round otherwise).
    pub round: usize,
    /// Producing phase.
    pub phase: TrialPhase,
    /// Name of the proposer that suggested the candidate.
    pub proposer: &'static str,
    /// The candidate.
    pub config: HwConfig,
    /// [`canonical_hash`] of the candidate.
    pub hash: u64,
    /// Per-workload `(cycles, energy_mj)` in workload order; empty when
    /// the candidate was bound-gated.
    pub per_workload: Vec<(u64, f64)>,
    /// Aggregate objective (the admissible bound for gated trials).
    pub score: f64,
    /// Whether a scoreboard walk (or memo hit) backed the score.
    pub simulated: bool,
}

/// Deterministic ranking key shared by the log and the driver: objective
/// first, then resources, then the canonical mix (mirrors the sweep's
/// [`SweepMode`]-independent selection key).
type TrialRank = (u64, u64, u64, u64, u64, CanonKey);

fn trial_key(config: &HwConfig, score_: f64) -> TrialRank {
    let r = config.resources();
    (
        score_.to_bits(),
        r.lut,
        r.ff,
        r.bram,
        r.dsp,
        canon_key(config),
    )
}

/// The persistent record of every trial a [`search`] run issued —
/// bound-gated candidates included. Identical seeds and thread counts
/// produce bitwise-identical logs; [`Self::to_json_lines`] is the stable
/// serialization the determinism oracles compare and [`Self::save`]
/// persists.
#[derive(Debug, Clone, Default)]
pub struct TrialLog {
    trials: Vec<Trial>,
}

impl TrialLog {
    /// Appends a trial (the driver assigns ids in push order).
    pub fn push(&mut self, trial: Trial) {
        debug_assert_eq!(trial.id, self.trials.len());
        self.trials.push(trial);
    }

    /// All trials, in issue order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of trials (gated ones included).
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The best *simulated* trial under the deterministic ranking key.
    pub fn best(&self) -> Option<&Trial> {
        self.trials.iter().filter(|t| t.simulated).min_by(|a, b| {
            (trial_key(&a.config, a.score), a.id).cmp(&(trial_key(&b.config, b.score), b.id))
        })
    }

    /// JSON-lines serialization: one object per trial, keys in fixed
    /// order, floats carried twice (shortest-roundtrip text and exact
    /// bits) so byte equality of two logs implies bitwise equality of
    /// every score.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for t in &self.trials {
            let counts: Vec<String> = UnitClass::ALL
                .iter()
                .map(|c| t.config.count(*c).to_string())
                .collect();
            let per: Vec<String> = t
                .per_workload
                .iter()
                .map(|(c, e)| format!("[{c},{}]", e.to_bits()))
                .collect();
            let _ = writeln!(
                s,
                "{{\"id\":{},\"round\":{},\"phase\":\"{}\",\"proposer\":\"{}\",\
                 \"counts\":[{}],\"hash\":{},\"score\":{},\"score_bits\":{},\
                 \"simulated\":{},\"per_workload\":[{}]}}",
                t.id,
                t.round,
                t.phase.name(),
                t.proposer,
                counts.join(","),
                t.hash,
                t.score,
                t.score.to_bits(),
                t.simulated,
                per.join(","),
            );
        }
        s
    }

    /// Persists the log as JSON lines.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }
}

/// How a [`WorkloadSet`] folds per-workload objectives into one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Worst case across workloads — "one config must serve every app".
    Max,
    /// Non-negative weighted sum (weights set per workload at `push`).
    WeightedSum,
}

/// The multi-workload objective: one memoizing [`DseContext`] per app
/// algorithm sharing a single candidate stream. The aggregate score of a
/// configuration is the [`Combine`] fold of the per-workload objective
/// ([`Objective::Latency`] cycles or [`Objective::Energy`] millijoules).
#[derive(Debug)]
pub struct WorkloadSet {
    entries: Vec<(String, DseContext)>,
    weights: Vec<f64>,
    objective: Objective,
    combine: Combine,
}

impl WorkloadSet {
    /// An empty set with the given objective and aggregate.
    pub fn new(objective: Objective, combine: Combine) -> Self {
        Self {
            entries: Vec::new(),
            weights: Vec::new(),
            objective,
            combine,
        }
    }

    /// A single-workload set (aggregate degenerates to the workload's own
    /// objective, so [`search`] reduces to classic one-workload DSE).
    pub fn single(name: impl Into<String>, ctx: DseContext, objective: Objective) -> Self {
        let mut set = Self::new(objective, Combine::Max);
        set.push(name, ctx);
        set
    }

    /// Adds a workload with weight 1.
    pub fn push(&mut self, name: impl Into<String>, ctx: DseContext) {
        self.push_weighted(name, ctx, 1.0);
    }

    /// Adds a workload with an explicit non-negative weight (only
    /// [`Combine::WeightedSum`] reads it).
    pub fn push_weighted(&mut self, name: impl Into<String>, ctx: DseContext, weight: f64) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "workload weight must be finite and non-negative"
        );
        self.entries.push((name.into(), ctx));
        self.weights.push(weight);
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Workload names, in evaluation order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The per-workload objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The aggregate fold.
    pub fn combine(&self) -> Combine {
        self.combine
    }

    /// The `i`-th workload's context.
    pub fn context(&self, i: usize) -> &DseContext {
        &self.entries[i].1
    }

    /// Mutable access to the `i`-th workload's context.
    pub fn context_mut(&mut self, i: usize) -> &mut DseContext {
        &mut self.entries[i].1
    }

    /// Folds one score per workload, in workload order, with the set's
    /// aggregate. Every aggregate and every bound goes through this one
    /// fold, so a bound whose every workload has been walked is bitwise
    /// the aggregate.
    fn fold(&self, mut score_of: impl FnMut(usize, &DseContext) -> f64) -> f64 {
        let mut acc = 0.0;
        for (i, ((_, ctx), w)) in self.entries.iter().zip(&self.weights).enumerate() {
            let s = score_of(i, ctx);
            acc = match self.combine {
                Combine::Max => f64::max(acc, s),
                Combine::WeightedSum => acc + w * s,
            };
        }
        acc
    }

    /// Folds per-workload scores (workload order) into the aggregate.
    pub fn aggregate(&self, per: &[f64]) -> f64 {
        debug_assert_eq!(per.len(), self.entries.len());
        self.fold(|i, _| per[i])
    }

    /// Objective score of one workload's report.
    pub fn score_of(&self, report: &SimReport) -> f64 {
        score(report, self.objective)
    }

    /// Admissible aggregate lower bound of `config`: each workload's
    /// decode-time bound ([`crate::sim::DecodedWorkload::lower_bound_cycles`],
    /// energy evaluated at that bound) folded with the same aggregate —
    /// max and non-negative weighted sums of admissible bounds stay
    /// admissible, so a candidate whose aggregate bound meets the
    /// incumbent can be gated without simulation. [`search`] scores the
    /// same bound through a [`BoundTable`], bit for bit.
    pub fn bound_score(&self, config: &HwConfig) -> f64 {
        self.bound_from(config, &[], |_, ctx| {
            ctx.decoded().lower_bound_cycles(config)
        })
    }

    /// The fold behind every bound: `walked[i]` holds workload `i`'s
    /// exact score, and a workload without one contributes its objective
    /// at `lb_cycles(i, ctx)` cycles, an admissible bound on its makespan
    /// on `config`. Rounding is monotone, so replacing any bound by the
    /// score it bounds never lowers the fold: the result stays
    /// admissible, and equals [`Self::aggregate`] bitwise once every
    /// workload is walked.
    fn bound_from(
        &self,
        config: &HwConfig,
        walked: &[Option<f64>],
        lb_cycles: impl Fn(usize, &DseContext) -> u64,
    ) -> f64 {
        self.fold(|i, ctx| match walked.get(i).copied().flatten() {
            Some(s) => s,
            None => {
                let lb = lb_cycles(i, ctx);
                match self.objective {
                    Objective::Latency => lb as f64,
                    Objective::Energy => ctx.decoded().energy_mj_at(config, lb),
                }
            }
        })
    }

    /// The workload whose term sets the aggregate of `per` (the largest
    /// score under [`Combine::Max`], the largest weighted score under
    /// [`Combine::WeightedSum`]; the first on ties).
    fn lead(&self, per: &[(u64, f64)]) -> usize {
        let term = |i: usize| {
            let (cycles, energy_mj) = per[i];
            let s = match self.objective {
                Objective::Latency => cycles as f64,
                Objective::Energy => energy_mj,
            };
            match self.combine {
                Combine::Max => s,
                Combine::WeightedSum => self.weights[i] * s,
            }
        };
        (1..per.len()).fold(0, |lead, i| if term(i) > term(lead) { i } else { lead })
    }

    /// Evaluates every configuration in every workload through the
    /// memoized parallel path ([`DseContext::simulate_many`]), returning
    /// `result[config][workload]`. Thread-count independent; re-proposed
    /// configurations are memo hits, never re-simulations.
    pub fn evaluate(&mut self, configs: &[HwConfig]) -> Vec<Vec<SimReport>> {
        let mut out: Vec<Vec<SimReport>> = configs
            .iter()
            .map(|_| Vec::with_capacity(self.entries.len()))
            .collect();
        // Transpose by moving each context's reports into their rows.
        for (_, ctx) in &mut self.entries {
            for (row, report) in out.iter_mut().zip(ctx.simulate_many(configs)) {
                row.push(report);
            }
        }
        out
    }

    /// Fresh scoreboard walks across all contexts.
    pub fn simulations(&self) -> usize {
        self.entries.iter().map(|(_, c)| c.cache_misses()).sum()
    }

    /// Memo hits across all contexts.
    pub fn cache_hits(&self) -> usize {
        self.entries.iter().map(|(_, c)| c.cache_hits()).sum()
    }

    /// Total memo entries across all contexts.
    pub fn memo_len(&self) -> usize {
        self.entries.iter().map(|(_, c)| c.memo_len()).sum()
    }

    /// Per-workload Pareto frontiers, in workload order.
    pub fn frontiers(&self) -> Vec<&[ParetoPoint]> {
        self.entries.iter().map(|(_, c)| c.frontier()).collect()
    }
}

/// An admissible aggregate lower bound on candidates, the score a
/// [`Proposer`] ranks by ([`ProposerCtx::bound`]). Every
/// `Fn(&HwConfig) -> f64` is one; [`search`] hands its proposers a
/// [`TableBound`].
pub trait Bound {
    /// The bound of one candidate.
    fn score(&self, config: &HwConfig) -> f64;

    /// Visits every configuration of `space` with its bound. The default
    /// scores each one in [`SearchSpace::config_at`] order; an
    /// implementation may share work between candidates and visit them
    /// in another order, as long as each keeps the bits [`Self::score`]
    /// gives it.
    fn for_each_score(&self, space: &SearchSpace, visit: &mut dyn FnMut(HwConfig, f64)) {
        space.for_each_config(|c| {
            let s = self.score(&c);
            visit(c, s);
        });
    }
}

impl<F: Fn(&HwConfig) -> f64> Bound for F {
    fn score(&self, config: &HwConfig) -> f64 {
        self(config)
    }
}

/// The decode-time bounds of a [`WorkloadSet`], tabulated over a
/// [`SearchSpace`]: [`DecodedWorkload::class_term`] for every workload,
/// class and count `1..=space.max_of(class)`, built once per [`search`]
/// run. A workload's bound on a candidate is then a maximum of one table
/// entry per class — the integer
/// [`DecodedWorkload::lower_bound_cycles`] computes with a division per
/// class — so the bound-guided ranking, the search-phase gate and the
/// polish all score [`WorkloadSet::bound_score`]'s bits.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Per-class maxima of the tabulated space.
    max: [usize; UnitClass::COUNT],
    /// Workload `w`'s class-`c` entry at `n` units sits at
    /// `w * row + class_off[c] + n - 1`, with `row = class_off[COUNT]`;
    /// each entry is already maxed with the workload's critical path.
    terms: Vec<u64>,
    /// Start of each class's counts within a workload's row.
    class_off: [usize; UnitClass::COUNT + 1],
}

impl BoundTable {
    /// Tabulates every workload of `set` over `space`.
    pub fn new(set: &WorkloadSet, space: &SearchSpace) -> Self {
        let mut class_off = [0; UnitClass::COUNT + 1];
        for c in UnitClass::ALL {
            class_off[c.index() + 1] = class_off[c.index()] + space.max_of(c);
        }
        let mut terms = Vec::with_capacity(set.len() * class_off[UnitClass::COUNT]);
        for (_, ctx) in &set.entries {
            let decoded = ctx.decoded();
            for c in UnitClass::ALL {
                terms.extend(
                    (1..=space.max_of(c))
                        .map(|n| decoded.class_term(c, n).max(decoded.critical_path())),
                );
            }
        }
        Self {
            max: space.max,
            terms,
            class_off,
        }
    }

    /// The table scoring `set`, the set it was built from.
    pub fn bind<'a>(&'a self, set: &'a WorkloadSet) -> TableBound<'a> {
        debug_assert_eq!(
            self.terms.len(),
            set.len() * self.class_off[UnitClass::COUNT]
        );
        TableBound { table: self, set }
    }

    /// Workload `w`'s entry for class index `i` at an in-space count `n`.
    fn entry(&self, w: usize, i: usize, n: usize) -> u64 {
        self.terms[w * self.class_off[UnitClass::COUNT] + self.class_off[i] + n - 1]
    }

    /// Workload `w`'s decode-time bound on `config`: exactly
    /// `decoded.lower_bound_cycles(config)`, where `decoded` is that
    /// workload's trace. Counts beyond the tabulated space are computed
    /// from `decoded` directly.
    fn cycles_of(&self, w: usize, decoded: &DecodedWorkload, config: &HwConfig) -> u64 {
        let mut lb = 0;
        for (i, &n) in config.counts().iter().enumerate() {
            let term = if (1..=self.max[i]).contains(&n) {
                self.entry(w, i, n)
            } else {
                decoded
                    .class_term(UnitClass::ALL[i], n)
                    .max(decoded.critical_path())
            };
            lb = lb.max(term);
        }
        lb
    }
}

/// A [`BoundTable`] bound to the [`WorkloadSet`] it was built from: the
/// [`Bound`] [`search`] ranks and gates with.
#[derive(Debug, Clone, Copy)]
pub struct TableBound<'a> {
    table: &'a BoundTable,
    set: &'a WorkloadSet,
}

impl TableBound<'_> {
    /// Workload `w`'s decode-time bound on `config`, bitwise
    /// [`DecodedWorkload::lower_bound_cycles`].
    pub fn cycles(&self, w: usize, config: &HwConfig) -> u64 {
        self.table
            .cycles_of(w, self.set.context(w).decoded(), config)
    }
}

impl Bound for TableBound<'_> {
    /// Bitwise [`WorkloadSet::bound_score`].
    fn score(&self, config: &HwConfig) -> f64 {
        self.set.bound_from(config, &[], |i, ctx| {
            self.table.cycles_of(i, ctx.decoded(), config)
        })
    }

    /// Over the tabulated space, each workload's maximum over every
    /// class but the first is taken once per run of the first class's
    /// counts (the odometer's fastest digit), so a candidate costs one
    /// table entry per workload before the fold.
    fn for_each_score(&self, space: &SearchSpace, visit: &mut dyn FnMut(HwConfig, f64)) {
        if space.max != self.table.max {
            return space.for_each_config(|c| {
                let s = self.score(&c);
                visit(c, s);
            });
        }
        let n = self.set.len();
        let (mut rest, mut lb) = (vec![0u64; n], vec![0u64; n]);
        let mut outer = space.clone();
        outer.max[0] = 1;
        outer.for_each_config(|mut config| {
            for (w, r) in rest.iter_mut().enumerate() {
                *r = (1..UnitClass::COUNT)
                    .fold(0, |m, i| m.max(self.table.entry(w, i, config.counts()[i])));
            }
            for k in 1..=space.max[0] {
                config.set_count(UnitClass::ALL[0], k);
                for (w, (l, r)) in lb.iter_mut().zip(&rest).enumerate() {
                    *l = (*r).max(self.table.entry(w, 0, k));
                }
                let s = self.set.bound_from(&config, &[], |i, _| lb[i]);
                visit(config.clone(), s);
            }
        });
    }
}

/// Read-only view a [`Proposer`] receives each round.
pub struct ProposerCtx<'a> {
    /// The searchable space.
    pub space: &'a SearchSpace,
    /// The resource budget (candidates outside it are wasted proposals).
    pub budget: &'a Resources,
    /// Every trial so far, gated ones included.
    pub log: &'a TrialLog,
    /// Live per-workload Pareto frontiers ([`DseContext::frontier`]).
    pub frontiers: &'a [&'a [ParetoPoint]],
    /// Canonical keys of every candidate already disposed of (evaluated,
    /// gated, or rejected) — proposals hitting this set are duplicates.
    pub seen: &'a HashSet<CanonKey>,
    /// Admissible aggregate lower bound of a candidate (cheap: a few
    /// [`BoundTable`] lookups, no simulation).
    pub bound: &'a dyn Bound,
    /// Aggregate score of the incumbent, when one exists.
    pub best_score: Option<f64>,
}

/// A candidate-proposal strategy. Implementations must be deterministic
/// functions of their seed and the (deterministic) view — the driver
/// guarantees bitwise-identical logs across thread counts on that basis.
pub trait Proposer {
    /// Stable name recorded in the trial log.
    fn name(&self) -> &'static str;

    /// Proposes up to `n` candidates. Duplicates (against `ctx.seen` or
    /// within the batch) are tolerated but wasted; proposers should spend
    /// their budget on fresh configurations.
    fn propose(&mut self, n: usize, ctx: &ProposerCtx<'_>) -> Vec<HwConfig>;
}

/// Regularized-evolution proposer: parents are drawn by tournament from
/// the recent simulated-trial window — seeded by the live Pareto
/// frontiers — and children are ±1-unit mutations clamped to the space.
#[derive(Debug, Clone)]
pub struct EvolutionProposer {
    rng: SplitMix64,
    /// Sliding parent window over the most recent simulated trials.
    window: usize,
    /// Tournament size for parent selection.
    tournament: usize,
    /// Mutation retries before falling back to a random configuration.
    attempts: usize,
}

impl EvolutionProposer {
    /// A proposer with the default window (64) and tournament (3).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            window: 64,
            tournament: 3,
            attempts: 8,
        }
    }

    fn mutate(&mut self, parent: &HwConfig, space: &SearchSpace) -> HwConfig {
        let steps = 1 + self.rng.below(2);
        let mut child = parent.clone();
        for _ in 0..steps {
            let class = UnitClass::ALL[self.rng.below(UnitClass::COUNT)];
            let n = child.count(class);
            let up = self.rng.next_u64() & 1 == 0;
            let next = if up {
                (n + 1).min(space.max_of(class))
            } else {
                n.saturating_sub(1).max(1)
            };
            child.set_count(class, next);
        }
        child
    }
}

impl Proposer for EvolutionProposer {
    fn name(&self) -> &'static str {
        "evolution"
    }

    fn propose(&mut self, n: usize, ctx: &ProposerCtx<'_>) -> Vec<HwConfig> {
        // Parent pool: the most recent simulated trials plus every
        // in-space frontier configuration (the frontier is how a young
        // log inherits structure from seed evaluations).
        let recent: Vec<&Trial> = ctx
            .log
            .trials()
            .iter()
            .filter(|t| t.simulated)
            .rev()
            .take(self.window)
            .collect();
        let frontier_pool: Vec<&HwConfig> = ctx
            .frontiers
            .iter()
            .flat_map(|f| f.iter().map(|p| &p.config))
            .filter(|c| ctx.space.contains(c))
            .collect();

        let mut out = Vec::with_capacity(n);
        let mut batch: HashSet<CanonKey> = HashSet::new();
        for _ in 0..n {
            let mut child = None;
            for _ in 0..self.attempts {
                let parent: HwConfig =
                    if !recent.is_empty() && (frontier_pool.is_empty() || self.rng.below(4) != 0) {
                        // Tournament over the window: best score wins.
                        let mut best: Option<&Trial> = None;
                        for _ in 0..self.tournament {
                            let t = recent[self.rng.below(recent.len())];
                            let better = best.is_none_or(|b| {
                                (t.score.to_bits(), canon_key(&t.config))
                                    < (b.score.to_bits(), canon_key(&b.config))
                            });
                            if better {
                                best = Some(t);
                            }
                        }
                        best.expect("tournament over non-empty window")
                            .config
                            .clone()
                    } else if !frontier_pool.is_empty() {
                        frontier_pool[self.rng.below(frontier_pool.len())].clone()
                    } else {
                        ctx.space.random(&mut self.rng)
                    };
                let cand = self.mutate(&parent, ctx.space);
                let key = canon_key(&cand);
                if !ctx.seen.contains(&key)
                    && !batch.contains(&key)
                    && cand.resources().fits(ctx.budget)
                {
                    batch.insert(key);
                    child = Some(cand);
                    break;
                }
            }
            // Exploration fallback: a fresh random point.
            if child.is_none() {
                for _ in 0..self.attempts {
                    let cand = ctx.space.random(&mut self.rng);
                    let key = canon_key(&cand);
                    if !ctx.seen.contains(&key) && !batch.contains(&key) {
                        batch.insert(key);
                        child = Some(cand);
                        break;
                    }
                }
            }
            if let Some(c) = child {
                out.push(c);
            }
        }
        out
    }
}

/// Cheap-surrogate proposer: ranks untried candidates by their admissible
/// aggregate lower bound and proposes the most promising ones, so
/// simulations are spent best-bound-first. On spaces small enough to
/// enumerate this turns the search into best-first branch-and-bound — in
/// tandem with the driver's bound gate it terminates with a certificate
/// that no untried candidate can beat the incumbent's objective value.
#[derive(Debug, Clone)]
pub struct BoundGuidedProposer {
    rng: SplitMix64,
    /// Spaces up to this size are ranked exhaustively.
    enum_cap: u128,
    /// Random-pool multiplier on larger spaces.
    oversample: usize,
    /// `(bound bits, lexicographic rank)` per ranked candidate, reused
    /// across calls.
    ranked: Vec<(u64, u128)>,
}

impl BoundGuidedProposer {
    /// A proposer with the default enumeration cap (65 536) and
    /// oversampling factor (16).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            enum_cap: 65_536,
            oversample: 16,
            ranked: Vec::new(),
        }
    }
}

impl Proposer for BoundGuidedProposer {
    fn name(&self) -> &'static str {
        "bound-guided"
    }

    /// Ranks every in-budget pool candidate by `(bound bits, key)` and
    /// returns the first `n` that are unseen, skipping repeats. Only the
    /// head of the ranking is sorted: at most `seen.len()` ranked keys
    /// are seen, so the first `n + seen.len()` entries hold the answer
    /// unless pool repeats crowd it out, in which case the head grows.
    /// Keys are unique per candidate, so this picks exactly what a full
    /// sort of the filtered, deduplicated pool would. A pool candidate is
    /// in the space at the default clock, so its lexicographic rank
    /// stands in for its key: same order, half the bytes.
    fn propose(&mut self, n: usize, ctx: &ProposerCtx<'_>) -> Vec<HwConfig> {
        if n == 0 {
            return Vec::new();
        }
        let enumerable = ctx.space.size() <= self.enum_cap;
        let pool_len = if enumerable {
            ctx.space.size() as usize
        } else {
            n.saturating_mul(self.oversample)
        };
        let ranked = &mut self.ranked;
        ranked.clear();
        ranked.reserve(pool_len);
        if enumerable {
            ctx.bound.for_each_score(ctx.space, &mut |c, bound| {
                if c.resources().fits(ctx.budget) {
                    ranked.push((bound.to_bits(), ctx.space.lex_rank(&c)));
                }
            });
        } else {
            for _ in 0..pool_len {
                let c = ctx.space.random(&mut self.rng);
                if c.resources().fits(ctx.budget) {
                    ranked.push((ctx.bound.score(&c).to_bits(), ctx.space.lex_rank(&c)));
                }
            }
        }
        let mut head = n.saturating_add(ctx.seen.len()).min(ranked.len());
        let mut out = Vec::with_capacity(n);
        loop {
            if head < ranked.len() {
                ranked.select_nth_unstable(head);
            }
            ranked[..head].sort_unstable();
            out.clear();
            let mut prev = None;
            for &(_, lex) in &ranked[..head] {
                if out.len() == n {
                    break;
                }
                if prev == Some(lex) {
                    continue;
                }
                prev = Some(lex);
                let config = ctx.space.config_at_lex(lex);
                if !ctx.seen.contains(&canon_key(&config)) {
                    out.push(config);
                }
            }
            if out.len() == n || head == ranked.len() {
                return out;
            }
            head = (2 * head).min(ranked.len());
        }
    }
}

/// The default proposer pair: bound-guided first (it sets a strong
/// incumbent early), regularized evolution second — each on an
/// independent stream split from the master seed.
pub fn default_proposers(seed: u64) -> Vec<Box<dyn Proposer>> {
    let mut rng = SplitMix64::new(seed);
    vec![
        Box::new(BoundGuidedProposer::new(rng.next_u64())),
        Box::new(EvolutionProposer::new(rng.next_u64())),
    ]
}

/// Driver knobs. All defaults are deliberately small: the enumerable-space
/// oracle requires the whole run (polish included) to stay ≥10× below
/// exhaustive simulation counts.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Master seed; proposers split independent streams from it.
    pub seed: u64,
    /// Candidates requested per proposal round.
    pub batch_size: usize,
    /// Budget on unique configurations *simulated* during the seed and
    /// search phases (gated trials are free; polish is accounted
    /// separately).
    pub max_simulated: usize,
    /// Hard cap on proposal rounds.
    pub max_rounds: usize,
    /// How many top configurations seed the polish neighborhood.
    pub polish_top_k: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            batch_size: 6,
            max_simulated: 12,
            max_rounds: 64,
            polish_top_k: 2,
        }
    }
}

impl SearchConfig {
    /// Defaults with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Exact disposition accounting of one [`search`] run. The dedup
/// invariant `proposed == accepted + duplicates + out_of_space +
/// over_budget + bound_gated` holds exactly, and on fresh contexts
/// `search_simulations == (seeded + accepted) × workloads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Seed-phase configurations evaluated.
    pub seeded: usize,
    /// Proposals received from proposers.
    pub proposed: usize,
    /// Proposals rejected as duplicates of a disposed candidate.
    pub duplicates: usize,
    /// Proposals outside the search space.
    pub out_of_space: usize,
    /// Proposals over the resource budget.
    pub over_budget: usize,
    /// Proposals gated by the admissible aggregate bound (logged, never
    /// simulated).
    pub bound_gated: usize,
    /// Unique proposals accepted and simulated.
    pub accepted: usize,
    /// Proposal rounds driven.
    pub rounds: usize,
    /// Fresh scoreboard walks during seed + search phases (all
    /// workloads).
    pub search_simulations: usize,
    /// Fresh scoreboard walks during polish.
    pub polish_simulations: usize,
    /// Polish candidates scored exactly: by the single-workload pruned
    /// sweep, or walked on every workload by the multi-workload polish.
    pub polish_evaluated: usize,
    /// Polish candidates retired by a bound before being scored:
    /// dominance bounds in the single-workload pruned sweep, the
    /// incumbent-bounded aggregate in the multi-workload polish (possibly
    /// after walking some workloads).
    pub polish_bound_skipped: usize,
}

/// The winning configuration of a [`search`] run.
#[derive(Debug, Clone)]
pub struct SearchBest {
    /// The winner.
    pub config: HwConfig,
    /// Aggregate objective score.
    pub score: f64,
    /// Per-workload `(cycles, energy_mj)`, workload order.
    pub per_workload: Vec<(u64, f64)>,
}

/// Everything a [`search`] run produced.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Best configuration found (argmin of the aggregate objective over
    /// everything simulated, polish included), or `None` when nothing in
    /// the space fits the resource budget.
    pub best: Option<SearchBest>,
    /// The full trial log.
    pub log: TrialLog,
    /// Disposition and simulation accounting.
    pub stats: SearchStats,
    /// The exact candidate list the final polish swept (top-K plus their
    /// in-space, in-budget neighbors) — the oracles re-sweep or
    /// re-evaluate this list to check the polish bitwise.
    pub polish_neighborhood: Vec<HwConfig>,
}

/// [`search`] with the default proposers and a seeded default
/// [`SearchConfig`].
pub fn search_default(
    set: &mut WorkloadSet,
    space: &SearchSpace,
    budget: &Resources,
    seed: u64,
) -> SearchOutcome {
    let mut proposers = default_proposers(seed);
    search(
        set,
        space,
        budget,
        &SearchConfig::with_seed(seed),
        &mut proposers,
    )
}

/// Runs the search driver: seed the corners, loop proposal rounds
/// (dedup → budget filter → bound gate → batched memoized evaluation),
/// then polish the top-K neighborhood with the exact machinery — a
/// [`SweepMode::Pruned`] sweep for a single workload, an
/// incumbent-bounded aggregate argmin for a multi-workload set
/// (per-workload dominance pruning is not sound for the aggregate;
/// DESIGN.md §3.4.2). The polish walks serially.
///
/// Deterministic: the outcome (winner, log bytes, stats) is a pure
/// function of the inputs and `cfg.seed`, independent of thread count.
pub fn search(
    set: &mut WorkloadSet,
    space: &SearchSpace,
    budget: &Resources,
    cfg: &SearchConfig,
    proposers: &mut [Box<dyn Proposer>],
) -> SearchOutcome {
    assert!(!set.is_empty(), "search needs at least one workload");
    assert!(!proposers.is_empty(), "search needs at least one proposer");

    let mut log = TrialLog::default();
    let mut stats = SearchStats::default();
    let mut seen: HashSet<CanonKey> = HashSet::new();
    let mut best: Option<SearchBest> = None;
    let table = BoundTable::new(set, space);

    let evaluate_batch = |set: &mut WorkloadSet,
                          log: &mut TrialLog,
                          best: &mut Option<SearchBest>,
                          batch: &[HwConfig],
                          phase: TrialPhase,
                          proposer: &'static str,
                          round: usize| {
        if batch.is_empty() {
            return;
        }
        let reports = set.evaluate(batch);
        for (config, per) in batch.iter().zip(reports) {
            let scores: Vec<f64> = per.iter().map(|r| set.score_of(r)).collect();
            let agg = set.aggregate(&scores);
            let per_workload: Vec<(u64, f64)> =
                per.iter().map(|r| (r.cycles, r.energy_mj)).collect();
            let better = best
                .as_ref()
                .is_none_or(|b| trial_key(config, agg) < trial_key(&b.config, b.score));
            if better {
                *best = Some(SearchBest {
                    config: config.clone(),
                    score: agg,
                    per_workload: per_workload.clone(),
                });
            }
            log.push(Trial {
                id: log.len(),
                round,
                phase,
                proposer,
                config: config.clone(),
                hash: canonical_hash(config),
                per_workload,
                score: agg,
                simulated: true,
            });
        }
    };

    // Seed phase: the space corners anchor both proposers — the max
    // corner carries the lowest admissible bound, the min corner the
    // smallest footprint.
    let mut seeds: Vec<HwConfig> = Vec::new();
    for corner in [space.max_corner(), space.min_corner()] {
        let key = canon_key(&corner);
        if seen.contains(&key) {
            continue;
        }
        seen.insert(key);
        if corner.resources().fits(budget) {
            seeds.push(corner);
        }
    }
    stats.seeded = seeds.len();
    evaluate_batch(
        set,
        &mut log,
        &mut best,
        &seeds,
        TrialPhase::Seed,
        "seed",
        0,
    );

    // Proposal rounds.
    let mut round = 0usize;
    let mut dry = 0usize;
    let space_size = space.size();
    while stats.seeded + stats.accepted < cfg.max_simulated
        && round < cfg.max_rounds
        && dry < 2 * proposers.len()
        && (seen.len() as u128) < space_size
    {
        let which = round % proposers.len();
        let want = cfg
            .batch_size
            .min(cfg.max_simulated - stats.seeded - stats.accepted);
        let proposals = {
            let frontiers = set.frontiers();
            let bound = table.bind(set);
            let ctx = ProposerCtx {
                space,
                budget,
                log: &log,
                frontiers: &frontiers,
                seen: &seen,
                bound: &bound,
                best_score: best.as_ref().map(|b| b.score),
            };
            proposers[which].propose(want, &ctx)
        };
        let proposer_name = proposers[which].name();

        let mut batch: Vec<HwConfig> = Vec::with_capacity(want);
        for c in proposals {
            if batch.len() == want {
                break; // over-delivery beyond the round budget is ignored
            }
            stats.proposed += 1;
            if !space.contains(&c) {
                stats.out_of_space += 1;
                continue;
            }
            let key = canon_key(&c);
            if seen.contains(&key) {
                stats.duplicates += 1;
                continue;
            }
            if !c.resources().fits(budget) {
                stats.over_budget += 1;
                seen.insert(key);
                continue;
            }
            // Admissible gate: a candidate whose aggregate bound already
            // meets the incumbent cannot *improve* the objective value —
            // log it (score = bound) without spending a simulation.
            let bound = table.bind(set).score(&c);
            if let Some(b) = &best {
                if bound >= b.score {
                    stats.bound_gated += 1;
                    seen.insert(key);
                    log.push(Trial {
                        id: log.len(),
                        round: round + 1,
                        phase: TrialPhase::Search,
                        proposer: proposer_name,
                        config: c.clone(),
                        hash: canonical_hash(&c),
                        per_workload: Vec::new(),
                        score: bound,
                        simulated: false,
                    });
                    continue;
                }
            }
            seen.insert(key);
            batch.push(c);
        }
        stats.accepted += batch.len();
        if batch.is_empty() {
            dry += 1;
        } else {
            dry = 0;
            evaluate_batch(
                set,
                &mut log,
                &mut best,
                &batch,
                TrialPhase::Search,
                proposer_name,
                round + 1,
            );
        }
        round += 1;
    }
    stats.rounds = round;
    stats.search_simulations = set.simulations();

    // Final polish: exact machinery driven as coordinate descent. Each
    // chunk is a full per-class line through the incumbent (every count
    // of one class, the rest held fixed), swept exactly; lines repeat
    // until a whole pass over the classes yields no improvement. Lines
    // cross score plateaus that defeat ±1 hill climbing, and every swept
    // candidate accumulates into `polish_neighborhood` in sweep order,
    // so one pruned sweep (one workload) or one exhaustive re-evaluation
    // (several) over that list reproduces the polish result bitwise; the
    // verify oracles do exactly that.
    let mut polish_neighborhood: Vec<HwConfig> = Vec::new();
    if best.is_some() {
        let mut tops: Vec<HwConfig> = Vec::new();
        {
            let mut with_key: Vec<(&Trial, TrialRank)> = log
                .trials()
                .iter()
                .filter(|t| t.simulated)
                .map(|t| (t, trial_key(&t.config, t.score)))
                .collect();
            with_key.sort_by(|a, b| (&a.1, a.0.id).cmp(&(&b.1, b.0.id)));
            let mut taken: HashSet<CanonKey> = HashSet::new();
            for (t, k) in with_key {
                if !taken.insert(k.5) {
                    continue;
                }
                tops.push(t.config.clone());
                if tops.len() == cfg.polish_top_k.max(1) {
                    break;
                }
            }
        }

        let sims_before = set.simulations();
        let mut in_neigh: HashSet<CanonKey> = HashSet::new();
        // Polish incumbent: mirrors the sweep's selection key (score,
        // resources, energy bits, cycles) with "earlier swept wins
        // ties", which is exactly what a single sweep over the
        // accumulated candidate list would select.
        struct PolishBest {
            key: (u64, u64, u64, u64, u64, u64, u64),
            config: HwConfig,
            per_workload: Vec<(u64, f64)>,
            score: f64,
        }
        let polish_key = |config: &HwConfig, agg: f64, per: &[(u64, f64)]| {
            let r = config.resources();
            // Multi-workload sets fold energy/cycles in workload order so
            // the tie-break stays total and deterministic.
            let energy: f64 = per.iter().map(|(_, e)| e).sum();
            let cycles: u64 = per.iter().map(|(c, _)| *c).max().unwrap_or(0);
            (
                agg.to_bits(),
                r.lut,
                r.ff,
                r.bram,
                r.dsp,
                energy.to_bits(),
                cycles,
            )
        };
        // Sweeps one chunk exactly and returns its winner when it beats
        // `incumbent`; the chunk has already been deduplicated against
        // everything swept before, so "strictly better key replaces the
        // incumbent" reproduces a single sweep over the accumulated union
        // (earlier index wins ties, exactly like the sweep's selection
        // key). `line` names the class a polish line varies through the
        // incumbent, in ascending count order (`None` for the tops).
        let sweep_chunk = |set: &mut WorkloadSet,
                           stats: &mut SearchStats,
                           chunk: &[HwConfig],
                           line: Option<UnitClass>,
                           incumbent: Option<&PolishBest>|
         -> Option<PolishBest> {
            if set.len() == 1 {
                let objective = set.objective();
                let sweep = set
                    .context_mut(0)
                    .sweep(chunk, budget, objective, SweepMode::Pruned);
                stats.polish_evaluated += sweep.evaluated;
                stats.polish_bound_skipped += sweep.skipped_bound;
                return sweep.best.map(|(config, report)| {
                    let agg = set.score_of(&report);
                    let per = vec![(report.cycles, report.energy_mj)];
                    PolishBest {
                        key: polish_key(&config, agg, &per),
                        config,
                        per_workload: per,
                        score: agg,
                    }
                });
            }
            // Aggregate argmin as branch-and-bound over workloads (per-
            // workload dominance pruning is not sound here: different
            // workloads may dominate a configuration through different
            // dominators). A candidate walks one workload at a time,
            // the one that set the incumbent's aggregate first, and
            // retires as soon as its partial bound's key prefix is
            // strictly worse than the incumbent's or the chunk winner's:
            // then its exact key is too. Walking from the largest count
            // down lets the most-provisioned candidate, whose scoreboard
            // is never slower, set the tightest threshold first; the
            // winner is still the argmin of `(key, position)`.
            //
            // Line floors: on a line every candidate walked so far has a
            // larger count, and below the incumbent's count the
            // incumbent itself dominates the candidate too. Their cycles
            // on a workload are a floor on the candidate's, tighter than
            // the decode-time bound. The energy score is not monotone in
            // the counts, so the floors serve the latency objective only.
            let n = set.len();
            let lead = incumbent.map_or(0, |b| set.lead(&b.per_workload));
            let order: Vec<usize> = std::iter::once(lead)
                .chain((0..n).filter(|&i| i != lead))
                .collect();
            let floors = line.filter(|_| set.objective() == Objective::Latency);
            let mut floor: Vec<u64> = vec![0; n];
            let mut walked: Vec<Option<f64>> = vec![None; n];
            let mut per: Vec<(u64, f64)> = vec![(0, 0.0); n];
            let mut w: Option<(PolishBest, usize)> = None;
            for (pos, config) in chunk.iter().enumerate().rev() {
                let threshold = [incumbent.map(|b| b.key), w.as_ref().map(|(c, _)| c.key)]
                    .into_iter()
                    .flatten()
                    .min();
                if let (Some(class), Some(inc)) = (floors, incumbent) {
                    if config.count(class) < inc.config.count(class) {
                        for (f, &(cycles, _)) in floor.iter_mut().zip(&inc.per_workload) {
                            *f = (*f).max(cycles);
                        }
                    }
                }
                let r = config.resources();
                walked.fill(None);
                let mut retired = false;
                for &i in &order {
                    let bound = set.bound_from(config, &walked, |j, ctx| {
                        table.cycles_of(j, ctx.decoded(), config).max(floor[j])
                    });
                    if threshold.is_some_and(|t| {
                        (bound.to_bits(), r.lut, r.ff, r.bram, r.dsp) > (t.0, t.1, t.2, t.3, t.4)
                    }) {
                        retired = true;
                        break;
                    }
                    let report = set.context_mut(i).simulate(config, IssuePolicy::OutOfOrder);
                    walked[i] = Some(set.score_of(&report));
                    per[i] = (report.cycles, report.energy_mj);
                    if floors.is_some() {
                        floor[i] = floor[i].max(report.cycles);
                    }
                }
                if retired {
                    stats.polish_bound_skipped += 1;
                    continue;
                }
                stats.polish_evaluated += 1;
                // Every workload walked: the fold is the aggregate and
                // reads no bound.
                let agg = set.bound_from(config, &walked, |_, _| 0);
                let key = polish_key(config, agg, &per);
                if w.as_ref().is_none_or(|(c, p)| (key, pos) < (c.key, *p)) {
                    w = Some((
                        PolishBest {
                            key,
                            config: config.clone(),
                            per_workload: per.clone(),
                            score: agg,
                        },
                        pos,
                    ));
                }
            }
            w.map(|(c, _)| c)
        };

        // First chunk: the tops themselves (memo hits — they were
        // simulated during the search phase on these same contexts).
        let mut incumbent: Option<PolishBest> = None;
        let mut first: Vec<HwConfig> = Vec::new();
        for c in tops {
            let key = canon_key(&c);
            if !in_neigh.contains(&key) && c.resources().fits(budget) {
                in_neigh.insert(key);
                first.push(c);
            }
        }
        if !first.is_empty() {
            polish_neighborhood.extend(first.iter().cloned());
            incumbent = sweep_chunk(set, &mut stats, &first, None, None);
        }

        // Coordinate-descent passes from the incumbent.
        for _pass in 0..16 {
            if incumbent.is_none() {
                break;
            }
            let mut improved = false;
            for class in UnitClass::ALL {
                let center = incumbent
                    .as_ref()
                    .expect("incumbent set before descent")
                    .config
                    .clone();
                let line: Vec<HwConfig> = (1..=space.max_of(class))
                    .map(|k| {
                        let mut c = center.clone();
                        c.set_count(class, k);
                        c
                    })
                    .filter(|c| {
                        let key = canon_key(c);
                        if in_neigh.contains(&key) || !c.resources().fits(budget) {
                            return false;
                        }
                        in_neigh.insert(key);
                        true
                    })
                    .collect();
                if line.is_empty() {
                    continue;
                }
                polish_neighborhood.extend(line.iter().cloned());
                let won = sweep_chunk(set, &mut stats, &line, Some(class), incumbent.as_ref());
                if let Some(w) = won {
                    let better = incumbent.as_ref().is_none_or(|b| w.key < b.key);
                    if better {
                        incumbent = Some(w);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        stats.polish_simulations = set.simulations() - sims_before;

        if let Some(inc) = incumbent {
            log.push(Trial {
                id: log.len(),
                round: stats.rounds + 1,
                phase: TrialPhase::Polish,
                proposer: if set.len() == 1 {
                    "polish-sweep"
                } else {
                    "polish-eval"
                },
                config: inc.config.clone(),
                hash: canonical_hash(&inc.config),
                per_workload: inc.per_workload.clone(),
                score: inc.score,
                simulated: true,
            });
            best = Some(SearchBest {
                config: inc.config,
                score: inc.score,
                per_workload: inc.per_workload,
            });
        }
    }

    SearchOutcome {
        best,
        log,
        stats,
        polish_neighborhood,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Workload;
    use orianna_compiler::compile;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
    use orianna_lie::Pose2;
    use orianna_math::Parallelism;

    fn chain_program(n: usize) -> orianna_compiler::Program {
        let mut g = FactorGraph::new();
        let ids: Vec<_> = (0..n)
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

    fn roomy() -> Resources {
        Resources {
            lut: u64::MAX / 4,
            ff: u64::MAX / 4,
            bram: u64::MAX / 4,
            dsp: u64::MAX / 4,
        }
    }

    fn serial_set(prog: &orianna_compiler::Program, objective: Objective) -> WorkloadSet {
        let wl = Workload::single("wl", prog);
        WorkloadSet::single(
            "wl",
            DseContext::with_parallelism(&wl, Parallelism::serial()),
            objective,
        )
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values of SplitMix64 seeded with 0 (Vigna).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn space_enumeration_roundtrips() {
        let space = SearchSpace::with_max(&[
            (UnitClass::Qr, 3),
            (UnitClass::MatMul, 2),
            (UnitClass::Vector, 2),
        ]);
        assert_eq!(space.size(), 12);
        let all = space.enumerate();
        assert_eq!(all.len(), 12);
        let keys: HashSet<CanonKey> = all.iter().map(canon_key).collect();
        assert_eq!(keys.len(), 12, "enumeration must not repeat");
        for (i, c) in all.iter().enumerate() {
            assert!(space.contains(c));
            assert_eq!(canon_key(&space.config_at(i as u128)), canon_key(c));
        }
        assert!(space.contains(&space.min_corner()));
        assert!(space.contains(&space.max_corner()));
        assert!(!space.contains(&space.max_corner().plus_one(UnitClass::Qr)));
    }

    #[test]
    fn neighbors_stay_in_space_and_differ_by_one() {
        let space = SearchSpace::uniform(3);
        let mid = HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 2)));
        let nbs = space.neighbors(&mid);
        assert_eq!(nbs.len(), 2 * UnitClass::COUNT);
        for nb in &nbs {
            assert!(space.contains(nb));
            let diff: i64 = UnitClass::ALL
                .iter()
                .map(|c| (nb.count(*c) as i64 - mid.count(*c) as i64).abs())
                .sum();
            assert_eq!(diff, 1);
        }
        // Corners lose the out-of-range moves.
        assert_eq!(space.neighbors(&space.min_corner()).len(), UnitClass::COUNT);
        assert_eq!(space.neighbors(&space.max_corner()).len(), UnitClass::COUNT);
    }

    #[test]
    fn canonical_hash_distinguishes_mixes() {
        let a = HwConfig::minimal();
        let b = a.plus_one(UnitClass::Qr);
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
        assert_eq!(canonical_hash(&a), canonical_hash(&HwConfig::minimal()));
    }

    #[test]
    fn search_is_seed_deterministic_and_seed_sensitive() {
        let prog = chain_program(8);
        let space = SearchSpace::uniform(3);
        let a = search_default(
            &mut serial_set(&prog, Objective::Latency),
            &space,
            &roomy(),
            42,
        );
        let b = search_default(
            &mut serial_set(&prog, Objective::Latency),
            &space,
            &roomy(),
            42,
        );
        assert_eq!(a.log.to_json_lines(), b.log.to_json_lines());
        assert_eq!(a.stats, b.stats);
        let c = search_default(
            &mut serial_set(&prog, Objective::Latency),
            &space,
            &roomy(),
            43,
        );
        // Same winner value is fine; the trajectory must depend on the
        // seed (different proposer streams).
        assert_ne!(
            a.log.to_json_lines(),
            c.log.to_json_lines(),
            "seed 42 and 43 walked identical trajectories"
        );
    }

    #[test]
    fn search_matches_exhaustive_argmin_value_on_enumerable_space() {
        let prog = chain_program(8);
        let space = SearchSpace::with_max(&[
            (UnitClass::Qr, 4),
            (UnitClass::MatMul, 4),
            (UnitClass::Vector, 4),
            (UnitClass::Memory, 4),
            (UnitClass::Special, 2),
        ]);
        assert_eq!(space.size(), 512);
        let budget = roomy();
        for objective in [Objective::Latency, Objective::Energy] {
            let mut set = serial_set(&prog, objective);
            let got = search_default(&mut set, &space, &budget, 7);
            let best = got.best.expect("roomy budget always yields a winner");

            let wl = Workload::single("wl", &prog);
            let mut ex = DseContext::with_parallelism(&wl, Parallelism::serial());
            let sweep = ex.sweep(
                &space.enumerate(),
                &budget,
                objective,
                SweepMode::Exhaustive,
            );
            let (_, report) = sweep.best.expect("exhaustive winner");
            let want = score(&report, objective);
            assert!(
                best.score <= want + 0.0 && best.score >= want,
                "search {} vs exhaustive {want}",
                best.score
            );
            // Memo-hit-adjusted simulation count: ≥10× below exhaustive.
            let sims = set.simulations();
            assert!(
                (sims as u128) * 10 <= space.size(),
                "search spent {sims} sims on a {}-config space",
                space.size()
            );
        }
    }

    #[test]
    fn dedup_and_simulation_accounting_is_exact() {
        let prog = chain_program(6);
        let space = SearchSpace::uniform(3);
        let mut set = serial_set(&prog, Objective::Latency);
        let got = search_default(&mut set, &space, &roomy(), 5);
        let s = got.stats;
        assert_eq!(
            s.proposed,
            s.accepted + s.duplicates + s.out_of_space + s.over_budget + s.bound_gated,
            "dedup accounting: {s:?}"
        );
        // Every simulation corresponds to exactly one unique memo entry:
        // re-proposed configurations are memo hits, never re-walks.
        assert_eq!(set.simulations(), set.memo_len());
        assert_eq!(s.search_simulations, (s.seeded + s.accepted) * set.len());
        // The log records every disposition that produced a trial.
        let simulated = got.log.trials().iter().filter(|t| t.simulated).count();
        let gated = got.log.trials().iter().filter(|t| !t.simulated).count();
        assert_eq!(gated, s.bound_gated);
        // Polish adds exactly one simulated trial (the winner record).
        assert_eq!(simulated, s.seeded + s.accepted + 1);
    }

    #[test]
    fn single_workload_polish_matches_pruned_sweep_bitwise() {
        let prog = chain_program(8);
        let space = SearchSpace::uniform(4);
        let mut set = serial_set(&prog, Objective::Latency);
        let got = search_default(&mut set, &space, &roomy(), 11);
        let best = got.best.expect("winner");
        let wl = Workload::single("wl", &prog);
        let mut fresh = DseContext::with_parallelism(&wl, Parallelism::serial());
        let sweep = fresh.sweep(
            &got.polish_neighborhood,
            &roomy(),
            Objective::Latency,
            SweepMode::Pruned,
        );
        let (config, report) = sweep.best.expect("polish sweep winner");
        assert_eq!(config, best.config);
        assert_eq!(report.cycles, best.per_workload[0].0);
        assert_eq!(report.energy_mj.to_bits(), best.per_workload[0].1.to_bits());
    }

    #[test]
    fn multi_workload_best_is_reevaluation_argmin_over_everything_tried() {
        let prog_a = chain_program(6);
        let prog_b = chain_program(12);
        let wa = Workload::single("a", &prog_a);
        let wb = Workload::single("b", &prog_b);
        let space = SearchSpace::uniform(3);
        let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
        set.push(
            "a",
            DseContext::with_parallelism(&wa, Parallelism::serial()),
        );
        set.push(
            "b",
            DseContext::with_parallelism(&wb, Parallelism::serial()),
        );
        let got = search_default(&mut set, &space, &roomy(), 3);
        let best = got.best.expect("winner");
        assert_eq!(best.per_workload.len(), 2);
        assert_eq!(
            best.score,
            best.per_workload
                .iter()
                .map(|(c, _)| *c as f64)
                .fold(0.0, f64::max)
        );
        // No simulated trial anywhere in the log beats the winner.
        for t in got.log.trials().iter().filter(|t| t.simulated) {
            assert!(
                trial_key(&best.config, best.score) <= trial_key(&t.config, t.score),
                "trial {} beats the reported winner",
                t.id
            );
        }
        assert_eq!(set.simulations(), set.memo_len());
        // Every polish candidate is either scored or retired by a bound.
        let s = got.stats;
        assert_eq!(
            s.polish_evaluated + s.polish_bound_skipped,
            got.polish_neighborhood.len(),
            "{s:?}"
        );
    }

    #[test]
    fn bound_gate_fires_on_saturating_workload() {
        // A two-pose chain saturates at the critical path with almost no
        // hardware: once the incumbent reaches it, every further
        // candidate's admissible bound meets the incumbent and the gate
        // skips the simulation.
        let prog = chain_program(2);
        let space = SearchSpace::uniform(4);
        let mut set = serial_set(&prog, Objective::Latency);
        let got = search_default(&mut set, &space, &roomy(), 17);
        assert!(
            got.stats.bound_gated > 0,
            "expected gated trials on a saturating workload: {:?}",
            got.stats
        );
        let gated = got.log.trials().iter().filter(|t| !t.simulated).count();
        assert_eq!(gated, got.stats.bound_gated);
        // Gated trials carry the bound as score and no per-workload data.
        for t in got.log.trials().iter().filter(|t| !t.simulated) {
            assert!(t.per_workload.is_empty());
            let b = got.best.as_ref().expect("winner exists");
            assert!(t.score >= b.score, "gated trial bound below the winner");
        }
    }

    #[test]
    fn impossible_budget_finds_nothing() {
        let prog = chain_program(6);
        let space = SearchSpace::uniform(3);
        let mut set = serial_set(&prog, Objective::Latency);
        let none = Resources {
            lut: 1,
            ff: 1,
            bram: 0,
            dsp: 0,
        };
        let got = search_default(&mut set, &space, &none, 1);
        assert!(got.best.is_none());
        assert!(got.polish_neighborhood.is_empty());
        assert_eq!(set.simulations(), 0);
    }

    #[test]
    fn weighted_sum_weights_shift_the_aggregate() {
        let prog_a = chain_program(4);
        let prog_b = chain_program(16);
        let wa = Workload::single("a", &prog_a);
        let wb = Workload::single("b", &prog_b);
        let mut set = WorkloadSet::new(Objective::Latency, Combine::WeightedSum);
        set.push_weighted(
            "a",
            DseContext::with_parallelism(&wa, Parallelism::serial()),
            2.0,
        );
        set.push_weighted(
            "b",
            DseContext::with_parallelism(&wb, Parallelism::serial()),
            0.5,
        );
        let cfgs = [HwConfig::minimal()];
        let reports = set.evaluate(&cfgs);
        let per: Vec<f64> = reports[0].iter().map(|r| r.cycles as f64).collect();
        let agg = set.aggregate(&per);
        assert!((agg - (2.0 * per[0] + 0.5 * per[1])).abs() < 1e-9);
    }

    #[test]
    fn trial_log_save_roundtrips_bytes() {
        let prog = chain_program(6);
        let space = SearchSpace::uniform(2);
        let mut set = serial_set(&prog, Objective::Latency);
        let got = search_default(&mut set, &space, &roomy(), 9);
        let path = std::env::temp_dir().join("orianna_trial_log_test.jsonl");
        got.log.save(&path).expect("save trial log");
        let bytes = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(bytes, got.log.to_json_lines());
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            got.log.best().map(|t| canon_key(&t.config)),
            got.best.map(|b| canon_key(&b.config))
        );
    }
}

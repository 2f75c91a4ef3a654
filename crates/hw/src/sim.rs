//! Cycle-level simulator of the generated accelerator (the paper's
//! runtime controller, Sec. 6.3).
//!
//! The simulator schedules compiled instruction streams onto the
//! configured functional units. Two issue policies mirror the paper's
//! variants:
//!
//! * **Out-of-order** (ORIANNA-OoO): any instruction whose register
//!   dependences are satisfied may issue to a free unit. Because the
//!   streams of *different algorithms* share no registers, this policy
//!   subsumes both the fine-grained OoO inside one MO-DFG and the
//!   coarse-grained OoO across algorithms (Sec. 6.3); likewise
//!   consecutive variable eliminations without common adjacent factors
//!   have disjoint `QRD` sources and reorder freely.
//! * **In-order** (ORIANNA-IO): a simple controller that dispatches one
//!   instruction at a time in program order, starting each after the
//!   previous one completes.
//!
//! This is the substitute for the paper's FPGA prototype: all reported
//! results are ratios between configurations simulated under identical
//! latency/energy models (see DESIGN.md §1).

use crate::config::HwConfig;
use crate::templates::{energy_nj, latency, BOARD_STATIC_W, STATIC_W_PER_UNIT};
use orianna_compiler::{Phase, Program, UnitClass};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Instruction-issue policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssuePolicy {
    /// Scoreboarded out-of-order issue (ORIANNA-OoO).
    OutOfOrder,
    /// Serial in-order dispatch (ORIANNA-IO).
    InOrder,
}

/// Simulation input failures raised by the checked entry points
/// ([`try_simulate`], [`try_simulate_decoded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The workload contains no instructions at all: there is nothing to
    /// schedule and every derived metric (contention, phase split) would
    /// be vacuous.
    EmptyWorkload,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyWorkload => write!(f, "workload contains no instructions"),
        }
    }
}

impl std::error::Error for SimError {}

/// One compiled algorithm stream within a robotic application.
#[derive(Debug)]
pub struct Stream<'a> {
    /// Human-readable name ("localization", "planning", …).
    pub name: &'static str,
    /// The compiled program.
    pub program: &'a Program,
}

/// A robotic application workload: one or more algorithm streams executed
/// on the same generated accelerator.
#[derive(Debug, Default)]
pub struct Workload<'a> {
    /// The streams.
    pub streams: Vec<Stream<'a>>,
}

impl<'a> Workload<'a> {
    /// Single-stream convenience constructor.
    pub fn single(name: &'static str, program: &'a Program) -> Self {
        Self {
            streams: vec![Stream { name, program }],
        }
    }

    /// Total instruction count.
    pub fn num_instructions(&self) -> usize {
        self.streams.iter().map(|s| s.program.instrs.len()).sum()
    }
}

/// Cycle-accurate simulation result.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total makespan in cycles.
    pub cycles: u64,
    /// Wall-clock at the configured frequency (milliseconds).
    pub time_ms: f64,
    /// Total energy (dynamic + static), millijoules.
    pub energy_mj: f64,
    /// Busy cycles per unit class (summed over instances).
    pub unit_busy: ClassTally,
    /// Cycles instructions spent ready-but-waiting to issue, per class.
    /// Under out-of-order issue this is time waiting for a free unit — the
    /// contention signal the generator optimizes against; under in-order
    /// issue it is time waiting for the serial controller to reach the
    /// instruction. Both policies account it identically (`start - ready`
    /// summed over the class's instructions), so reports from every entry
    /// point agree field by field.
    pub contention: ClassTally,
    /// Sum of instruction latencies per phase (work breakdown: the
    /// paper's Sec. 7.3 latency split). Shared with the decoded workload —
    /// configuration-independent, so every report of a DSE sweep points at
    /// the same map instead of cloning it.
    pub phase_work: Arc<BTreeMap<&'static str, u64>>,
    /// Instructions simulated.
    pub instructions: usize,
    /// `(rows, cols)` of every QRD in the trace (Fig. 17 samples); shared
    /// with the decoded workload like [`SimReport::phase_work`].
    pub qrd_shapes: Arc<Vec<(usize, usize)>>,
    /// `(rows, cols)` of every construction-phase matmul-class op; shared
    /// with the decoded workload like [`SimReport::phase_work`].
    pub mm_shapes: Arc<Vec<(usize, usize)>>,
}

/// Per-class cycle tallies of one report, flat in [`UnitClass::ALL`]
/// order. A class is present iff the workload issued to it (latencies
/// are ≥ 1, so that is iff it has busy cycles), whatever its tally; a
/// report's tallies never touch the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    values: [u64; UnitClass::COUNT],
    present: [bool; UnitClass::COUNT],
}

impl ClassTally {
    /// The tally of `class`, when the workload issued to it.
    pub fn get(&self, class: UnitClass) -> Option<u64> {
        let i = class.index();
        self.present[i].then_some(self.values[i])
    }

    /// `(class, tally)` for every class with work, in class order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitClass, u64)> + '_ {
        UnitClass::ALL
            .into_iter()
            .filter(|c| self.present[c.index()])
            .map(|c| (c, self.values[c.index()]))
    }

    /// Number of classes with work.
    pub fn len(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Whether no class has work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the tallies.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }
}

impl SimReport {
    /// Fraction of total phase work spent in a phase.
    pub fn phase_fraction(&self, phase: &'static str) -> f64 {
        let total: u64 = self.phase_work.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.phase_work.get(phase).unwrap_or(&0) as f64 / total as f64
    }
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Construct => "construct",
        Phase::Eliminate => "eliminate",
        Phase::BackSub => "backsub",
    }
}

/// Dependence-only critical path of a workload in cycles: the makespan an
/// accelerator with unlimited units of every class would achieve. Lower
/// bound for every simulated schedule; the gap to the simulated makespan
/// measures resource contention.
pub fn critical_path_cycles(workload: &Workload<'_>) -> u64 {
    let mut best: u64 = 0;
    for s in &workload.streams {
        let producers = s.program.producers();
        let mut finish = vec![0u64; s.program.instrs.len()];
        for instr in &s.program.instrs {
            let ready = instr
                .srcs
                .iter()
                .filter_map(|r| producers[r.0])
                .map(|p| finish[p])
                .max()
                .unwrap_or(0);
            finish[instr.id] = ready + latency(&instr.op, instr.dims).max(1);
        }
        best = best.max(finish.iter().copied().max().unwrap_or(0));
    }
    best
}

/// The *decoded* form of a [`Workload`]: instruction streams flattened
/// into one global dependence graph, laid out as flat arrays in issue
/// order, with latencies, unit classes, phase work, energies and operand
/// shapes all resolved.
///
/// Position `p` of every per-instruction array is the `p`-th instruction
/// in out-of-order issue order: instructions sorted by dependence-only
/// earliest start time (ASAP), ties broken by stream-concatenated program
/// order. The order is a topological sort and — crucially — independent
/// of the hardware configuration, which makes the list scheduler free of
/// Graham anomalies: growing any unit pool can never reorder issue, so
/// cycle counts are monotone non-increasing in every unit count.
/// Dependences are stored once, in compressed-sparse-row form, already
/// renumbered to issue positions (a producer always sits at a smaller
/// position than its consumer), so the scoreboard walks the arrays front
/// to back with no indirection.
///
/// Decoding depends only on the compiled programs — never on the
/// hardware configuration or issue policy — so design-space exploration
/// decodes once and re-runs only the scoreboard
/// ([`simulate_decoded`]) per candidate configuration. The split mirrors
/// the solver's symbolic/numeric separation: the workload's structure is
/// fixed while the configuration under evaluation changes.
///
/// Owns all of its data (no borrow of the source [`Workload`]), so a DSE
/// context can hold it across an entire sweep.
#[derive(Debug, Clone)]
pub struct DecodedWorkload {
    /// Latency (cycles, at least 1) per issue position.
    lat: Vec<u64>,
    /// [`UnitClass::index`] per issue position.
    class: Vec<u8>,
    /// The producers of position `p` are `dep_idx[dep_off[p]..dep_off[p + 1]]`.
    dep_off: Vec<u32>,
    /// Producer issue positions, concatenated per consumer.
    dep_idx: Vec<u32>,
    /// Per-class ready-but-waiting cycles of the in-order schedule. The
    /// serial controller starts each instruction when the previous one
    /// completes, so its schedule — and this tally — is fixed by the
    /// program alone, and its makespan is the total work.
    in_order_waited: [u64; UnitClass::COUNT],
    phase_work: Arc<BTreeMap<&'static str, u64>>,
    qrd_shapes: Arc<Vec<(usize, usize)>>,
    mm_shapes: Arc<Vec<(usize, usize)>>,
    dyn_energy_nj: f64,
    /// Dependence-only makespan (unlimited units): `max(asap + lat)`.
    critical_path: u64,
    /// Total instruction latency per unit class.
    class_work: [u64; UnitClass::COUNT],
    /// Earliest dependence-only ready time of any instruction of the
    /// class (`min asap`); `0` for classes with no instructions.
    class_ready_min: [u64; UnitClass::COUNT],
    /// Shortest dependence-only tail (longest path from an instruction's
    /// completion to the end of the workload, minimized over the class's
    /// instructions); `0` for classes with no instructions.
    class_tail_min: [u64; UnitClass::COUNT],
}

/// A `u32` index into a decoded array (traces beyond 2³² instructions or
/// dependences are far outside anything the compiler emits).
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("decoded trace exceeds u32 indexing")
}

impl DecodedWorkload {
    /// Decodes a workload: flattens instructions in stream-concatenated
    /// program order (deps resolved per stream), precomputes every
    /// configuration-independent aggregate, then lays the trace out in
    /// issue order.
    pub fn decode(workload: &Workload<'_>) -> Self {
        let n = workload.num_instructions();
        // Program-order trace: `g_lat`/`g_class` per global id, deps as
        // CSR over global ids.
        let mut g_lat: Vec<u64> = Vec::with_capacity(n);
        let mut g_class: Vec<u8> = Vec::with_capacity(n);
        let mut g_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut g_deps: Vec<u32> = Vec::new();
        g_off.push(0);
        let mut phase_work: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut qrd_shapes = Vec::new();
        let mut mm_shapes = Vec::new();
        let mut dyn_energy_nj = 0.0;
        for s in &workload.streams {
            let base = g_lat.len();
            let producers = s.program.producers();
            for instr in &s.program.instrs {
                g_deps.extend(
                    instr
                        .srcs
                        .iter()
                        .filter_map(|r| producers[r.0])
                        .map(|local| index_u32(base + local)),
                );
                g_off.push(index_u32(g_deps.len()));
                let lat = latency(&instr.op, instr.dims).max(1);
                let class = instr.op.unit_class();
                *phase_work.entry(phase_name(instr.phase)).or_insert(0) += lat;
                dyn_energy_nj += energy_nj(&instr.op, instr.dims);
                if matches!(instr.op, orianna_compiler::Op::Qrd { .. }) {
                    qrd_shapes.push(instr.dims);
                } else if class == UnitClass::MatMul && instr.phase == Phase::Construct {
                    mm_shapes.push(instr.dims);
                }
                g_lat.push(lat);
                g_class.push(class.index() as u8);
            }
        }
        let deps_of = |g: usize| &g_deps[g_off[g] as usize..g_off[g + 1] as usize];
        // Dependence-only ASAP time per instruction, and the in-order
        // schedule (deps always precede their consumers in program order,
        // so one forward pass serves both). The serial controller starts
        // each instruction at `t`, when the previous one completes; every
        // producer has finished by then, so its wait is `t - ready`.
        let mut asap = vec![0u64; n];
        let mut serial_finish = vec![0u64; n];
        let mut in_order_waited = [0u64; UnitClass::COUNT];
        let mut t = 0u64;
        for g in 0..n {
            let mut up = 0;
            let mut ready = 0;
            for &d in deps_of(g) {
                let d = d as usize;
                up = up.max(asap[d] + g_lat[d]);
                ready = ready.max(serial_finish[d]);
            }
            asap[g] = up;
            in_order_waited[g_class[g] as usize] += t - ready;
            t += g_lat[g];
            serial_finish[g] = t;
        }
        // Dependence-only tail per instruction: the longest latency path
        // strictly after its completion. One reverse pass (consumers
        // always follow their producers in program order).
        let mut tail = vec![0u64; n];
        for g in (0..n).rev() {
            let down = tail[g] + g_lat[g];
            for &d in deps_of(g) {
                tail[d as usize] = tail[d as usize].max(down);
            }
        }
        let critical_path = (0..n).map(|g| asap[g] + g_lat[g]).max().unwrap_or(0);
        let mut class_work = [0u64; UnitClass::COUNT];
        let mut class_ready_min = [u64::MAX; UnitClass::COUNT];
        let mut class_tail_min = [u64::MAX; UnitClass::COUNT];
        for g in 0..n {
            let c = g_class[g] as usize;
            class_work[c] += g_lat[g];
            class_ready_min[c] = class_ready_min[c].min(asap[g]);
            class_tail_min[c] = class_tail_min[c].min(tail[g]);
        }
        for c in 0..UnitClass::COUNT {
            if class_work[c] == 0 {
                class_ready_min[c] = 0;
                class_tail_min[c] = 0;
            }
        }
        // Issue order, then the trace re-laid out along it. A producer
        // finishes no earlier than `asap + lat > asap`, so it always lands
        // before its consumers.
        let mut order: Vec<u32> = (0..index_u32(n)).collect();
        order.sort_by_key(|&g| (asap[g as usize], g));
        let mut pos_of = vec![0u32; n];
        for (p, &g) in order.iter().enumerate() {
            pos_of[g as usize] = index_u32(p);
        }
        let mut lat = Vec::with_capacity(n);
        let mut class = Vec::with_capacity(n);
        let mut dep_off = Vec::with_capacity(n + 1);
        let mut dep_idx = Vec::with_capacity(g_deps.len());
        dep_off.push(0);
        for &g in &order {
            let g = g as usize;
            lat.push(g_lat[g]);
            class.push(g_class[g]);
            dep_idx.extend(deps_of(g).iter().map(|&d| pos_of[d as usize]));
            dep_off.push(index_u32(dep_idx.len()));
        }
        Self {
            lat,
            class,
            dep_off,
            dep_idx,
            in_order_waited,
            phase_work: Arc::new(phase_work),
            qrd_shapes: Arc::new(qrd_shapes),
            mm_shapes: Arc::new(mm_shapes),
            dyn_energy_nj,
            critical_path,
            class_work,
            class_ready_min,
            class_tail_min,
        }
    }

    /// Instructions in the decoded trace.
    pub fn num_instructions(&self) -> usize {
        self.lat.len()
    }

    /// Scoreboard cost model for the parallel gate: one list-scheduling
    /// pass costs roughly this many flop-equivalent work units per
    /// instruction (a contiguous dependence scan and a min-scan over the
    /// class's unit pool, no allocation — single-digit nanoseconds).
    /// Calibrated with the bench suite (DESIGN §3.2.4).
    pub const SIM_NODE_WORK: u64 = 64;

    /// Estimated work (in the abstract units of
    /// [`orianna_math::Parallelism::effective_threads`]) of scoreboarding this trace
    /// against `candidates` configurations — what the DSE sweeps hand to
    /// the auto-mode cost gate before fanning out.
    pub fn sweep_work(&self, candidates: usize) -> u64 {
        candidates as u64 * self.lat.len() as u64 * Self::SIM_NODE_WORK
    }

    /// Dependence-only critical path in cycles — the makespan with
    /// unlimited units, identical to [`critical_path_cycles`] on the
    /// source workload.
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// Total instruction latency assigned to a unit class.
    pub fn class_work(&self, class: UnitClass) -> u64 {
        self.class_work[class.index()]
    }

    /// Admissible lower bound on the out-of-order makespan of this
    /// workload on `config` — the bound-first test of the DSE sweep
    /// (DESIGN.md §3.4.1). The maximum of:
    ///
    /// 1. the dependence-only **critical path** (no schedule can beat it
    ///    regardless of unit counts), and
    /// 2. per unit class, the **work bound** `ready_min + ⌈work / units⌉ +
    ///    tail_min`: in any valid schedule no instruction of the class
    ///    starts before the class's earliest dependence-ready time, the
    ///    class's total latency is processed by `units` instances, and
    ///    after the last one completes its shortest dependent chain must
    ///    still run.
    ///
    /// Both arguments bound *every* resource-and-dependence-feasible
    /// schedule, so they are admissible for the list scheduler: a
    /// configuration whose bound already exceeds an evaluated incumbent
    /// can be skipped without simulating it.
    pub fn lower_bound_cycles(&self, config: &HwConfig) -> u64 {
        UnitClass::ALL.iter().fold(self.critical_path, |lb, &c| {
            lb.max(self.class_term(c, config.count(c)))
        })
    }

    /// The work bound of one class at `units` instances (term 2 of
    /// [`Self::lower_bound_cycles`]; at least one unit): `ready_min +
    /// ⌈work / units⌉ + tail_min`, or `0` for a class with no work. It
    /// depends on the class's count alone, so a search tabulates it once
    /// per count instead of dividing per candidate.
    pub fn class_term(&self, class: UnitClass, units: usize) -> u64 {
        let i = class.index();
        if self.class_work[i] == 0 {
            return 0;
        }
        let busy = self.class_work[i].div_ceil(units.max(1) as u64);
        self.class_ready_min[i] + busy + self.class_tail_min[i]
    }

    /// Energy (mJ) of a report whose makespan is `cycles` — the exact
    /// formula the scoreboard uses, so feeding [`Self::lower_bound_cycles`]
    /// yields an admissible energy lower bound (dynamic energy is
    /// configuration-independent and static energy is monotone in the
    /// makespan).
    pub fn energy_mj_at(&self, config: &HwConfig, cycles: u64) -> f64 {
        let time_ms = cycles_to_time_ms(cycles, config);
        self.dyn_energy_nj * 1e-6 + static_energy_mj(config, time_ms)
    }
}

/// Wall-clock (ms) of a makespan at the configuration's frequency.
fn cycles_to_time_ms(cycles: u64, config: &HwConfig) -> f64 {
    cycles as f64 / (config.clock_mhz * 1e3)
}

/// Static energy (mJ) burned over `time_ms` by the board and the
/// configuration's instantiated units.
fn static_energy_mj(config: &HwConfig, time_ms: f64) -> f64 {
    (BOARD_STATIC_W + STATIC_W_PER_UNIT * config.total_units() as f64) * (time_ms / 1e3) * 1e3
}

/// Simulates a workload on a configuration under the given policy.
///
/// Convenience wrapper: decodes and runs the scoreboard. Callers that
/// evaluate many configurations against one workload (the generator's
/// DSE loop) should decode once and call [`simulate_decoded`] instead.
pub fn simulate(workload: &Workload<'_>, config: &HwConfig, policy: IssuePolicy) -> SimReport {
    simulate_decoded(&DecodedWorkload::decode(workload), config, policy)
}

/// [`simulate`] with input validation: rejects workloads that carry no
/// instructions instead of returning a vacuous all-zero report.
///
/// # Errors
/// Returns [`SimError::EmptyWorkload`] when the workload has no
/// instructions.
pub fn try_simulate(
    workload: &Workload<'_>,
    config: &HwConfig,
    policy: IssuePolicy,
) -> Result<SimReport, SimError> {
    if workload.num_instructions() == 0 {
        return Err(SimError::EmptyWorkload);
    }
    Ok(simulate(workload, config, policy))
}

/// [`simulate_decoded`] with input validation.
///
/// # Errors
/// Returns [`SimError::EmptyWorkload`] when the decoded trace is empty.
pub fn try_simulate_decoded(
    decoded: &DecodedWorkload,
    config: &HwConfig,
    policy: IssuePolicy,
) -> Result<SimReport, SimError> {
    if decoded.num_instructions() == 0 {
        return Err(SimError::EmptyWorkload);
    }
    Ok(simulate_decoded(decoded, config, policy))
}

/// Reusable scoreboard buffers for [`simulate_decoded_with`].
///
/// A DSE sweep scoreboards one decoded workload against hundreds of
/// candidate configurations; holding the per-instruction finish times
/// and the unit pool here lets every evaluation after the first run
/// without heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Finish time per issue position.
    finish: Vec<u64>,
    /// Unit free-times of every class back to back, class `c` at
    /// `pool[base[c]..base[c + 1]]` with `base` from the configuration's
    /// counts.
    pool: Vec<u64>,
}

/// Runs `f` with this thread's [`SimScratch`].
///
/// The scratch lives as long as its thread. On the calling thread (and so
/// on every serial sweep) it survives from one sweep to the next; the
/// helper threads `scoped_workers` spawns last one parallel region, so a
/// helper pays the scoreboard allocations once per region. Re-entrant
/// calls (none exist today) fall back to a fresh scratch rather than
/// aliasing the thread-local one.
pub fn with_sim_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
    }
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SimScratch::default()),
    })
}

/// Runs only the configuration-dependent scoreboard over an
/// already-decoded workload. Bitwise identical to [`simulate`] on the
/// workload the decode came from.
pub fn simulate_decoded(
    decoded: &DecodedWorkload,
    config: &HwConfig,
    policy: IssuePolicy,
) -> SimReport {
    simulate_decoded_with(decoded, config, policy, &mut SimScratch::default())
}

/// [`simulate_decoded`] against caller-owned scratch buffers, for DSE
/// loops that scoreboard the same workload many times.
pub fn simulate_decoded_with(
    decoded: &DecodedWorkload,
    config: &HwConfig,
    policy: IssuePolicy,
    scratch: &mut SimScratch,
) -> SimReport {
    // Every instruction issues exactly once under either policy, so the
    // busy cycles per class are the decoded class work, and a class
    // appears in the report tallies iff it has work (latencies are ≥ 1;
    // a class without instructions never waits).
    let (makespan, waited) = match policy {
        // Serial dispatch in stream-concatenated order: its schedule does
        // not depend on the configuration, so decode already ran it.
        IssuePolicy::InOrder => (decoded.class_work.iter().sum(), decoded.in_order_waited),
        IssuePolicy::OutOfOrder => out_of_order(decoded, config, scratch),
    };

    let present = decoded.class_work.map(|w| w > 0);
    let unit_busy = ClassTally {
        values: decoded.class_work,
        present,
    };
    let contention = ClassTally {
        values: waited,
        present,
    };

    let time_ms = cycles_to_time_ms(makespan, config);
    SimReport {
        cycles: makespan,
        time_ms,
        energy_mj: decoded.dyn_energy_nj * 1e-6 + static_energy_mj(config, time_ms),
        unit_busy,
        contention,
        phase_work: Arc::clone(&decoded.phase_work),
        instructions: decoded.num_instructions(),
        qrd_shapes: Arc::clone(&decoded.qrd_shapes),
        mm_shapes: Arc::clone(&decoded.mm_shapes),
    }
}

/// List scheduling over the issue-ordered trace: returns the makespan
/// and the per-class ready-but-waiting cycles (`start - ready` summed).
///
/// Each class has `count` units whose free times sit in one slice of the
/// flat pool (unit counts are small, so a linear min-scan beats a heap).
/// Which of several equally free units takes an instruction cannot change
/// any result — only the multiset of free times matters. The issue order
/// is fixed per workload (never per configuration), so every ready time
/// and every pool multiset is monotone in the unit counts: adding a unit
/// can never slow the schedule down (no Graham anomalies).
fn out_of_order(
    decoded: &DecodedWorkload,
    config: &HwConfig,
    scratch: &mut SimScratch,
) -> (u64, [u64; UnitClass::COUNT]) {
    // A class configured with no unit schedules as if it had one.
    let mut base = [0usize; UnitClass::COUNT + 1];
    for c in UnitClass::ALL {
        base[c.index() + 1] = base[c.index()] + config.count(c).max(1);
    }
    let SimScratch { finish, pool } = scratch;
    pool.clear();
    pool.resize(base[UnitClass::COUNT], 0);
    finish.clear();
    finish.resize(decoded.lat.len(), 0);
    let mut waited = [0u64; UnitClass::COUNT];
    let mut makespan = 0u64;
    // Position `p`'s producers are CSR row `lo..hi`; carrying `lo` over
    // from the previous row keeps the walk to one offset read per
    // instruction.
    let mut lo = 0;
    let issue = decoded
        .lat
        .iter()
        .zip(&decoded.class)
        .zip(&decoded.dep_off[1..]);
    for (p, ((&lat, &class), &hi)) in issue.enumerate() {
        let mut ready = 0;
        for &d in &decoded.dep_idx[lo..hi as usize] {
            ready = ready.max(finish[d as usize]);
        }
        lo = hi as usize;
        let c = class as usize;
        let units = &mut pool[base[c]..base[c + 1]];
        let (mut mi, mut free) = (0, units[0]);
        for (i, &f) in units.iter().enumerate().skip(1) {
            let earlier = f < free;
            mi = if earlier { i } else { mi };
            free = if earlier { f } else { free };
        }
        let start = ready.max(free);
        let end = start + lat;
        units[mi] = end;
        finish[p] = end;
        makespan = makespan.max(end);
        waited[c] += start - ready;
    }
    (makespan, waited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orianna_compiler::compile;
    use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
    use orianna_lie::Pose2;

    fn chain_program(n: usize) -> Program {
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

    #[test]
    fn ooo_is_faster_than_in_order() {
        let prog = chain_program(8);
        let wl = Workload::single("loc", &prog);
        let cfg = HwConfig::minimal();
        let ooo = simulate(&wl, &cfg, IssuePolicy::OutOfOrder);
        let io = simulate(&wl, &cfg, IssuePolicy::InOrder);
        assert!(ooo.cycles < io.cycles, "{} vs {}", ooo.cycles, io.cycles);
        assert_eq!(ooo.instructions, io.instructions);
    }

    #[test]
    fn ooo_respects_dependencies() {
        // Makespan can never be shorter than the critical path of any
        // single chain; sanity: the QRD of the last variable must finish
        // before its BSUB, so makespan > longest QRD latency.
        let prog = chain_program(5);
        let wl = Workload::single("loc", &prog);
        let r = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        assert!(r.cycles > 0);
        let total_work: u64 = r.unit_busy.total();
        assert!(r.cycles <= total_work, "makespan cannot exceed serial work");
    }

    #[test]
    fn more_units_do_not_hurt() {
        let prog = chain_program(10);
        let wl = Workload::single("loc", &prog);
        let base = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        let more = simulate(
            &wl,
            &HwConfig::minimal()
                .plus_one(UnitClass::Qr)
                .plus_one(UnitClass::MatMul),
            IssuePolicy::OutOfOrder,
        );
        assert!(more.cycles <= base.cycles);
    }

    #[test]
    fn coarse_grained_ooo_across_streams() {
        // Two independent algorithms interleave on one accelerator: the
        // makespan is far below the sum of their serial makespans.
        let p1 = chain_program(8);
        let p2 = chain_program(8);
        let wl = Workload {
            streams: vec![
                Stream {
                    name: "loc",
                    program: &p1,
                },
                Stream {
                    name: "plan",
                    program: &p2,
                },
            ],
        };
        let cfg = HwConfig::with_counts(&[
            (UnitClass::Qr, 2),
            (UnitClass::MatMul, 2),
            (UnitClass::Special, 2),
            (UnitClass::Vector, 2),
            (UnitClass::Memory, 2),
            (UnitClass::BackSub, 2),
        ]);
        let merged = simulate(&wl, &cfg, IssuePolicy::OutOfOrder);
        let single = simulate(&Workload::single("loc", &p1), &cfg, IssuePolicy::OutOfOrder);
        assert!(
            merged.cycles < 2 * single.cycles,
            "{} vs 2*{}",
            merged.cycles,
            single.cycles
        );
    }

    #[test]
    fn phase_work_breakdown_present() {
        let prog = chain_program(12);
        let wl = Workload::single("loc", &prog);
        let r = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        let c = r.phase_fraction("construct");
        let e = r.phase_fraction("eliminate");
        let b = r.phase_fraction("backsub");
        assert!((c + e + b - 1.0).abs() < 1e-12);
        assert!(c > 0.0 && e > 0.0 && b > 0.0);
    }

    #[test]
    fn elimination_share_grows_with_problem_size() {
        // The paper's drone application spends 74% in decomposition; the
        // decomposition share must grow with graph size (construction is
        // linear in factors, elimination superlinear in fill).
        let small = chain_program(4);
        let large = chain_program(40);
        let rs = simulate(
            &Workload::single("l", &small),
            &HwConfig::minimal(),
            IssuePolicy::OutOfOrder,
        );
        let rl = simulate(
            &Workload::single("l", &large),
            &HwConfig::minimal(),
            IssuePolicy::OutOfOrder,
        );
        assert!(
            rl.phase_fraction("eliminate") > rs.phase_fraction("eliminate"),
            "{} vs {}",
            rl.phase_fraction("eliminate"),
            rs.phase_fraction("eliminate")
        );
    }

    #[test]
    fn makespan_bounded_below_by_critical_path() {
        let prog = chain_program(10);
        let wl = Workload::single("loc", &prog);
        let cp = critical_path_cycles(&wl);
        let ooo = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        let io = simulate(&wl, &HwConfig::minimal(), IssuePolicy::InOrder);
        assert!(ooo.cycles >= cp, "{} vs cp {}", ooo.cycles, cp);
        assert!(io.cycles >= cp);
        // With an enormous configuration the OoO schedule approaches the
        // critical path.
        let big = HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 64)));
        let fast = simulate(&wl, &big, IssuePolicy::OutOfOrder);
        assert!(
            fast.cycles as f64 <= cp as f64 * 1.05,
            "{} vs cp {}",
            fast.cycles,
            cp
        );
    }

    #[test]
    fn energy_accumulates() {
        let prog = chain_program(6);
        let wl = Workload::single("loc", &prog);
        let r = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder);
        assert!(r.energy_mj > 0.0);
        assert!(!r.qrd_shapes.is_empty());
        assert!(!r.mm_shapes.is_empty());
    }

    #[test]
    fn decoded_simulation_is_bitwise_identical() {
        let p1 = chain_program(8);
        let p2 = chain_program(5);
        let wl = Workload {
            streams: vec![
                Stream {
                    name: "loc",
                    program: &p1,
                },
                Stream {
                    name: "plan",
                    program: &p2,
                },
            ],
        };
        let decoded = DecodedWorkload::decode(&wl);
        assert_eq!(decoded.num_instructions(), wl.num_instructions());
        for policy in [IssuePolicy::OutOfOrder, IssuePolicy::InOrder] {
            for cfg in [
                HwConfig::minimal(),
                HwConfig::minimal().plus_one(UnitClass::Qr),
            ] {
                let a = simulate(&wl, &cfg, policy);
                let b = simulate_decoded(&decoded, &cfg, policy);
                assert_eq!(a.cycles, b.cycles);
                assert!((a.time_ms - b.time_ms).abs() == 0.0);
                assert!((a.energy_mj - b.energy_mj).abs() == 0.0);
                assert_eq!(a.unit_busy, b.unit_busy);
                assert_eq!(a.contention, b.contention);
                assert_eq!(a.phase_work, b.phase_work);
                assert_eq!(a.instructions, b.instructions);
                assert_eq!(a.qrd_shapes, b.qrd_shapes);
                assert_eq!(a.mm_shapes, b.mm_shapes);
            }
        }
    }

    /// Field-by-field equality of two reports (not just total cycles).
    fn assert_reports_identical(a: &SimReport, b: &SimReport, ctx: &str) {
        assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
        assert!((a.time_ms - b.time_ms).abs() == 0.0, "{ctx}: time");
        assert!((a.energy_mj - b.energy_mj).abs() == 0.0, "{ctx}: energy");
        assert_eq!(a.unit_busy, b.unit_busy, "{ctx}: unit_busy");
        assert_eq!(a.contention, b.contention, "{ctx}: contention");
        assert_eq!(a.phase_work, b.phase_work, "{ctx}: phase_work");
        assert_eq!(a.instructions, b.instructions, "{ctx}: instructions");
        assert_eq!(a.qrd_shapes, b.qrd_shapes, "{ctx}: qrd_shapes");
        assert_eq!(a.mm_shapes, b.mm_shapes, "{ctx}: mm_shapes");
    }

    #[test]
    fn waited_accounting_agrees_across_entry_points() {
        // Regression (ISSUE 5 satellite): every entry point — `simulate`,
        // `simulate_decoded`, and `simulate_decoded_with` against both a
        // fresh and a dirty reused scratch — must report identical
        // ready-but-waiting cycles per unit class, under both policies.
        let p1 = chain_program(9);
        let p2 = chain_program(6);
        let wl = Workload {
            streams: vec![
                Stream {
                    name: "loc",
                    program: &p1,
                },
                Stream {
                    name: "plan",
                    program: &p2,
                },
            ],
        };
        let decoded = DecodedWorkload::decode(&wl);
        let mut reused = SimScratch::default();
        for policy in [IssuePolicy::OutOfOrder, IssuePolicy::InOrder] {
            for cfg in [
                HwConfig::minimal(),
                HwConfig::minimal().plus_one(UnitClass::Qr),
                HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 3))),
            ] {
                let ctx = format!("{policy:?}/{} units", cfg.total_units());
                let a = simulate(&wl, &cfg, policy);
                let b = simulate_decoded(&decoded, &cfg, policy);
                let c = simulate_decoded_with(&decoded, &cfg, policy, &mut reused);
                let d = simulate_decoded_with(&decoded, &cfg, policy, &mut SimScratch::default());
                assert_reports_identical(&a, &b, &ctx);
                assert_reports_identical(&a, &c, &ctx);
                assert_reports_identical(&a, &d, &ctx);
                // Contention is reported for exactly the classes that
                // issued, under either policy.
                assert_eq!(
                    a.contention.iter().map(|(c, _)| c).collect::<Vec<_>>(),
                    a.unit_busy.iter().map(|(c, _)| c).collect::<Vec<_>>(),
                    "{ctx}: contention keys"
                );
            }
        }
    }

    #[test]
    fn in_order_contention_counts_controller_queueing() {
        let prog = chain_program(8);
        let wl = Workload::single("loc", &prog);
        let cfg = HwConfig::minimal();
        let io = simulate(&wl, &cfg, IssuePolicy::InOrder);
        let total: u64 = io.contention.total();
        assert!(total > 0, "serial dispatch must queue ready instructions");
        // The serial controller queues at least as long as the
        // out-of-order scoreboard waits for units, in aggregate.
        let ooo = simulate(&wl, &cfg, IssuePolicy::OutOfOrder);
        let ooo_total: u64 = ooo.contention.total();
        assert!(total >= ooo_total, "{total} vs {ooo_total}");
    }

    #[test]
    fn decode_precomputes_critical_path_and_work() {
        let p1 = chain_program(7);
        let p2 = chain_program(4);
        let wl = Workload {
            streams: vec![
                Stream {
                    name: "a",
                    program: &p1,
                },
                Stream {
                    name: "b",
                    program: &p2,
                },
            ],
        };
        let decoded = DecodedWorkload::decode(&wl);
        assert_eq!(decoded.critical_path(), critical_path_cycles(&wl));
        let total_work: u64 = UnitClass::ALL.iter().map(|c| decoded.class_work(*c)).sum();
        let busy_total: u64 = simulate(&wl, &HwConfig::minimal(), IssuePolicy::OutOfOrder)
            .unit_busy
            .total();
        assert_eq!(total_work, busy_total);
    }

    #[test]
    fn lower_bound_is_admissible() {
        let prog = chain_program(12);
        let wl = Workload::single("loc", &prog);
        let decoded = DecodedWorkload::decode(&wl);
        let mut scratch = SimScratch::default();
        let mut configs = vec![HwConfig::minimal()];
        for c in UnitClass::ALL {
            configs.push(HwConfig::minimal().plus_one(c));
            configs.push(HwConfig::minimal().plus_one(c).plus_one(c));
        }
        configs.push(HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 4))));
        configs.push(HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 64))));
        for cfg in &configs {
            let lb = decoded.lower_bound_cycles(cfg);
            let r = simulate_decoded_with(&decoded, cfg, IssuePolicy::OutOfOrder, &mut scratch);
            assert!(
                lb <= r.cycles,
                "bound {lb} exceeds simulated {} on {} units",
                r.cycles,
                cfg.total_units()
            );
            assert!(lb >= decoded.critical_path(), "bound subsumes the cp");
            let e_lb = decoded.energy_mj_at(cfg, lb);
            assert!(
                e_lb <= r.energy_mj,
                "energy bound {e_lb} exceeds {}",
                r.energy_mj
            );
            // At the simulated makespan the formula reproduces the report
            // bitwise — the bound is the same expression, just evaluated
            // at an earlier cycle count.
            assert!((decoded.energy_mj_at(cfg, r.cycles) - r.energy_mj).abs() == 0.0);
        }
        // A saturated configuration achieves the dependence-only critical
        // path exactly, which is what makes dominance pruning fire above
        // the saturation knee.
        let big = HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 64)));
        let fast = simulate_decoded(&decoded, &big, IssuePolicy::OutOfOrder);
        assert_eq!(fast.cycles, decoded.critical_path());
    }
}

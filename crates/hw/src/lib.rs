//! # orianna-hw
//!
//! Hardware generation backend and cycle-level accelerator model
//! (paper Sec. 6).
//!
//! * [`templates`] — the functional-unit template library: systolic-array
//!   matrix multiplier, Givens-rotation QR unit, vector ALU, CORDIC-style
//!   special-function unit, back-substitution unit, buffer ports; each
//!   with latency, energy, and LUT/FF/BRAM/DSP resource models
//!   (Sec. 6.1).
//! * [`config`] — accelerator configurations (unit replication counts) and
//!   their aggregate resource consumption.
//! * [`generator`] — the constraint-driven optimization of Equ. 5: find
//!   the unit mix minimizing latency (or energy) under a resource budget.
//! * [`sim`] — the runtime controller model: out-of-order and in-order
//!   instruction issue over the compiled streams of all algorithms in an
//!   application (Sec. 6.3).
//! * [`search`] — search-based design-space exploration at 10³–10⁴
//!   candidate scale: seeded proposers (regularized evolution,
//!   bound-guided ranking), a deduplicating driver with admissible bound
//!   gating, multi-workload co-design objectives, and an exact
//!   pruned-sweep polish (DESIGN.md §3.4.2).
//!
//! The simulator substitutes for the paper's Xilinx ZC706 prototype; see
//! DESIGN.md §1 for the substitution rationale.
//!
//! ## Example
//!
//! ```
//! use orianna_compiler::compile;
//! use orianna_graph::{natural_ordering, FactorGraph, PriorFactor};
//! use orianna_hw::{generate, Objective, Resources, Workload};
//! use orianna_lie::Pose2;
//!
//! let mut g = FactorGraph::new();
//! let x = g.add_pose2(Pose2::new(0.1, 0.5, 0.0));
//! g.add_factor(PriorFactor::pose2(x, Pose2::identity(), 0.1));
//! let prog = compile(&g, &natural_ordering(&g)).expect("compiles");
//!
//! let wl = Workload::single("localization", &prog);
//! let result = generate(&wl, &Resources::zc706(), Objective::Latency);
//! assert!(result.report.cycles > 0);
//! ```

pub mod config;
pub mod generator;
pub mod search;
pub mod sim;
pub mod templates;

pub use config::{HwConfig, CLOCK_MHZ};
pub use generator::{
    generate, generate_with, manual_matmul_heavy, manual_qr_heavy, manual_uniform, DseContext,
    GeneratorResult, Objective, ParetoPoint, SweepMode, SweepReport,
};
pub use search::{
    canon_key, canonical_hash, default_proposers, search, search_default, Bound,
    BoundGuidedProposer, BoundTable, CanonKey, Combine, EvolutionProposer, Proposer, ProposerCtx,
    SearchBest, SearchConfig, SearchOutcome, SearchSpace, SearchStats, SplitMix64, TableBound,
    Trial, TrialLog, TrialPhase, WorkloadSet,
};
pub use sim::{
    critical_path_cycles, simulate, simulate_decoded, simulate_decoded_with, try_simulate,
    try_simulate_decoded, ClassTally, DecodedWorkload, IssuePolicy, SimError, SimReport,
    SimScratch, Stream, Workload,
};
pub use templates::{energy_nj, latency, unit_resources, Resources};

//! # orianna-verify
//!
//! Differential conformance and fuzzing harness for the ORIANNA stack.
//!
//! The workspace contains two independent implementations of the same
//! mathematics: the analytic path (`orianna-graph` linearization +
//! `orianna-solver` elimination) and the compiled path (`orianna-compiler`
//! lower → MO-DFG → codegen → ISA execution). This crate turns that
//! redundancy into a verification tool:
//!
//! * [`gen`] — seeded random factor graphs across four families (planar
//!   SLAM, spatial SLAM, camera/landmark, vector planning), deterministic
//!   per `(family, size, density, seed)`;
//! * [`oracle`] — the differential oracle: the compiled program's
//!   Jacobians, per-variable conditionals `(R, S…, d)`, and solution Δ
//!   must match the analytic solver (and a cached [`orianna_solver::SolvePlan`])
//!   within tolerance;
//! * [`simcheck`] — cycle-level simulator invariants (OoO ≤ in-order,
//!   critical path is a lower bound, more units never hurt);
//! * [`dsecheck`] — design-space-exploration equivalence: the pruned,
//!   multi-threaded hardware sweep must pick the bitwise-same design and
//!   Pareto frontier as a serial exhaustive sweep; and search-DSE
//!   oracles (search never beats exhaustive, polish reproduces a pruned
//!   sweep bitwise, the multi-workload polish reproduces an exhaustive
//!   re-evaluation of its neighborhood bitwise, dedup/memo accounting
//!   exact, trial logs thread-count deterministic);
//! * [`snapshot`] — golden mnemonic-stream snapshots of the compiled
//!   applications with an `ORIANNA_BLESS=1` update flow.
//!
//! The integration tests under `tests/` drive the sweeps; case counts
//! scale with the `ORIANNA_VERIFY_CASES` environment variable so CI can
//! run a bounded smoke pass while local runs go deeper.

pub mod dsecheck;
pub mod gen;
pub mod incremental;
pub mod oracle;
pub mod simcheck;
pub mod snapshot;

pub use dsecheck::{
    check_bounds, check_dse, check_polish, check_search, DseViolation, SearchSummary,
    SearchViolation,
};
pub use gen::{generate, Family, GenConfig};
pub use incremental::{
    batch_reference, check_incremental, IncrementalReport, IncrementalViolation, INCREMENTAL_TOL,
};
pub use oracle::{check_graph, OracleFailure, OracleReport};
pub use simcheck::{check_workload, sample_configs, SimViolation};
pub use snapshot::{render, SnapshotResult};

/// Number of fuzz cases per family: `ORIANNA_VERIFY_CASES` when set,
/// otherwise `default`.
pub fn cases_per_family(default: usize) -> usize {
    std::env::var("ORIANNA_VERIFY_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

//! Cycle-level simulator invariants.
//!
//! These are properties any sane list-scheduled machine model must keep,
//! checked across sampled hardware configurations:
//!
//! 1. out-of-order issue never loses to in-order issue,
//! 2. no schedule beats the dependence-only critical path,
//! 3. adding units never slows a workload down.

use orianna_compiler::UnitClass;
use orianna_hw::{critical_path_cycles, simulate, HwConfig, IssuePolicy, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A violated simulator invariant.
#[derive(Debug, Clone)]
pub enum SimViolation {
    /// Out-of-order issue produced more cycles than in-order issue.
    OooSlowerThanInOrder {
        /// Offending configuration (unit counts, in `UnitClass::ALL` order).
        config: Vec<usize>,
        /// Out-of-order cycles.
        ooo: u64,
        /// In-order cycles.
        inorder: u64,
    },
    /// A schedule finished before the dependence-only critical path.
    BeatsCriticalPath {
        /// Offending configuration.
        config: Vec<usize>,
        /// Simulated cycles.
        cycles: u64,
        /// Critical-path lower bound.
        critical: u64,
    },
    /// Adding one unit of some class increased the makespan.
    NotMonotone {
        /// Base configuration.
        config: Vec<usize>,
        /// The class that was grown.
        class: UnitClass,
        /// Cycles before growing.
        before: u64,
        /// Cycles after growing.
        after: u64,
    },
}

impl std::fmt::Display for SimViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimViolation::OooSlowerThanInOrder {
                config,
                ooo,
                inorder,
            } => write!(f, "OoO {ooo} > in-order {inorder} cycles on {config:?}"),
            SimViolation::BeatsCriticalPath {
                config,
                cycles,
                critical,
            } => write!(
                f,
                "{cycles} cycles beats critical path {critical} on {config:?}"
            ),
            SimViolation::NotMonotone {
                config,
                class,
                before,
                after,
            } => write!(
                f,
                "adding a {class:?} unit to {config:?} regressed {before} → {after} cycles"
            ),
        }
    }
}

impl std::error::Error for SimViolation {}

fn counts_of(config: &HwConfig) -> Vec<usize> {
    UnitClass::ALL.iter().map(|c| config.count(*c)).collect()
}

/// Samples `n` hardware configurations with unit counts in `1..=max_units`.
pub fn sample_configs(n: usize, max_units: usize, seed: u64) -> Vec<HwConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let pairs: Vec<(UnitClass, usize)> = UnitClass::ALL
                .iter()
                .map(|c| (*c, rng.gen_range(1..max_units + 1)))
                .collect();
            HwConfig::with_counts(&pairs)
        })
        .collect()
}

/// Checks the three invariants on one workload across the given configurations.
///
/// # Errors
/// Returns the first [`SimViolation`] found.
pub fn check_workload(workload: &Workload<'_>, configs: &[HwConfig]) -> Result<(), SimViolation> {
    let critical = critical_path_cycles(workload);
    for config in configs {
        let ooo = simulate(workload, config, IssuePolicy::OutOfOrder);
        let inorder = simulate(workload, config, IssuePolicy::InOrder);
        if ooo.cycles > inorder.cycles {
            return Err(SimViolation::OooSlowerThanInOrder {
                config: counts_of(config),
                ooo: ooo.cycles,
                inorder: inorder.cycles,
            });
        }
        for report in [&ooo, &inorder] {
            if report.cycles < critical {
                return Err(SimViolation::BeatsCriticalPath {
                    config: counts_of(config),
                    cycles: report.cycles,
                    critical,
                });
            }
        }
        for class in UnitClass::ALL {
            let grown = simulate(workload, &config.plus_one(class), IssuePolicy::OutOfOrder);
            if grown.cycles > ooo.cycles {
                return Err(SimViolation::NotMonotone {
                    config: counts_of(config),
                    class,
                    before: ooo.cycles,
                    after: grown.cycles,
                });
            }
        }
    }
    Ok(())
}

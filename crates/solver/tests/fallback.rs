//! The arena's fallback path: a planned separator factor that sheds every
//! row numerically.
//!
//! On the system below, eliminating `x0` stacks two identical rows
//! `[I, 0 | b]`; the QR remainder is all zero, so the separator factor
//! reserved for `x1` never materializes and the arena layout planned for
//! `x1` no longer applies. Every arena entry point must then re-run the
//! allocating serial sweep and still agree with [`eliminate`] bitwise.

use orianna_graph::{LinearFactor, LinearSystem, Ordering, VarId};
use orianna_math::{Mat, Parallelism, Vec64};
use orianna_solver::{eliminate, SolvePlan};

fn shedding_system() -> LinearSystem {
    let b = Vec64::from_slice(&[0.5, -1.25]);
    let c = Vec64::from_slice(&[2.0, 0.75]);
    LinearSystem {
        factors: vec![
            LinearFactor {
                keys: vec![VarId(0)],
                blocks: vec![Mat::identity(2)],
                rhs: b.clone(),
            },
            LinearFactor {
                keys: vec![VarId(0), VarId(1)],
                blocks: vec![Mat::identity(2), Mat::zeros(2, 2)],
                rhs: b,
            },
            LinearFactor {
                keys: vec![VarId(1)],
                blocks: vec![Mat::identity(2)],
                rhs: c,
            },
        ],
        var_dims: vec![2, 2],
    }
}

#[test]
fn every_arena_entry_point_falls_back_bitwise() {
    let sys = shedding_system();
    let ordering = Ordering::from_order(vec![VarId(0), VarId(1)]);
    let (bn, stats) = eliminate(&sys, &ordering).unwrap();
    let reference = bn.back_substitute().unwrap();
    let plan = SolvePlan::for_system(&sys, ordering.as_slice()).unwrap();
    // The plan reserved a separator slot for x0's step that `eliminate`
    // never filled: x1 gathers two factors symbolically, one numerically.
    assert_eq!(stats.steps[1].gathered, 1);

    let mut ws = plan.workspace();
    let delta = plan.solve_in(&sys, &mut ws).unwrap();
    assert_eq!(delta.as_slice(), reference.as_slice());
    assert_eq!(ws.stats(), stats.steps.as_slice());

    let mut ws = plan.workspace();
    let delta = plan
        .solve_in_with(&sys, &mut ws, &Parallelism::with_threads(4))
        .unwrap();
    assert_eq!(delta.as_slice(), reference.as_slice());
    assert_eq!(ws.stats(), stats.steps.as_slice());

    let mut ws = plan.workspace();
    let (planned, planned_stats) = plan.execute_in(&sys, &mut ws).unwrap();
    assert_eq!(
        planned.back_substitute().unwrap().as_slice(),
        reference.as_slice()
    );
    assert_eq!(planned_stats.steps, stats.steps);
    assert_eq!(ws.stats(), stats.steps.as_slice());
}

//! The symbolic elimination schedule shared by the solver's `SolvePlan`
//! and the compiler's `QRD`/`BSUB` emission: gather lists, separator
//! layouts, row bounds and separator-slot reservation.

use orianna_graph::{
    natural_ordering, BetweenFactor, EliminationSchedule, FactorGraph, GpsFactor, PriorFactor,
    UnconstrainedVariable, VarId,
};
use orianna_lie::Pose2;

fn between(g: &mut FactorGraph, a: VarId, b: VarId) {
    g.add_factor(BetweenFactor::pose2(a, b, Pose2::new(0.0, 1.0, 0.0), 0.2));
}

fn looped_chain(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.0)))
        .collect();
    g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
    for w in ids.windows(2) {
        between(&mut g, w[0], w[1]);
    }
    between(&mut g, ids[0], ids[n - 1]);
    g
}

#[test]
fn unconstrained_variable_is_the_error() {
    let mut g = FactorGraph::new();
    let a = g.add_pose2(Pose2::identity());
    let _b = g.add_pose2(Pose2::identity());
    g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
    let mut schedule = EliminationSchedule::for_graph(&g);
    let err = schedule
        .eliminate_all(natural_ordering(&g).as_slice())
        .unwrap_err();
    assert_eq!(err, UnconstrainedVariable(VarId(1)));
    // The steps before the failure stay recorded.
    assert_eq!(schedule.steps().len(), 1);
    assert_eq!(schedule.steps()[0].var, a);
}

#[test]
fn subset_order_eliminates_only_its_variables() {
    let g = looped_chain(6);
    let order: Vec<VarId> = (0..3).map(VarId).collect();
    let mut schedule = EliminationSchedule::for_graph(&g);
    schedule.eliminate_all(&order).unwrap();
    let vars: Vec<VarId> = schedule.steps().iter().map(|s| s.var).collect();
    assert_eq!(vars, order);
    // x2's separator factor is left for the variables outside the order:
    // x3 (the chain) and x5 (the loop closure carried along from x0).
    let last = schedule.steps().last().unwrap();
    assert_eq!(last.seps, vec![VarId(3), VarId(5)]);
    let slot = last.new_slot.expect("remainder keeps rows");
    assert_eq!(schedule.slot_keys(slot), &[VarId(3), VarId(5)]);
    assert_eq!(schedule.producer(slot), Some(2));
}

#[test]
fn separator_slots_are_reserved_and_capped() {
    // x0: three priors and one between — 12 rows over 6 columns, so QR
    // leaves at most 7 rows, 3 of them the conditional: a 4-row slot.
    let mut g = FactorGraph::new();
    let x0 = g.add_pose2(Pose2::identity());
    let x1 = g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
    for _ in 0..3 {
        g.add_factor(PriorFactor::pose2(x0, Pose2::identity(), 0.1));
    }
    between(&mut g, x0, x1);
    let mut schedule = EliminationSchedule::for_graph(&g);
    schedule
        .eliminate_all(natural_ordering(&g).as_slice())
        .unwrap();
    let steps = schedule.steps();
    assert_eq!(schedule.num_base_factors(), 4);
    assert_eq!(steps[0].gather, vec![0, 1, 2, 3]);
    assert_eq!((steps[0].rows, steps[0].cols), (12, 6));
    assert_eq!(steps[0].seps, vec![x1]);
    assert_eq!(steps[0].new_slot, Some(4));
    assert_eq!(schedule.slot_rows(4), 4);
    assert_eq!(schedule.producer(4), Some(0));
    assert_eq!(schedule.producer(3), None, "base factors have no producer");
    // x1 gathers only the separator factor: its base factor is consumed.
    assert_eq!(steps[1].gather, vec![4]);
    assert_eq!((steps[1].rows, steps[1].cols), (4, 3));
    assert_eq!(steps[1].new_slot, None, "no separators, no slot");
}

#[test]
fn no_slot_without_remainder_rows_and_short_steps_are_recorded() {
    // x0's one between factor has exactly dim(x0) rows: nothing is left
    // for x1 beyond its own GPS factor, whose 2 rows are fewer than
    // dim(x1) — recorded as is, since only the numeric phase can tell.
    let mut g = FactorGraph::new();
    let x0 = g.add_pose2(Pose2::identity());
    let x1 = g.add_pose2(Pose2::new(0.0, 1.0, 0.0));
    between(&mut g, x0, x1);
    g.add_factor(GpsFactor::new(x1, &[0.0, 1.0], 0.3));
    let mut schedule = EliminationSchedule::for_graph(&g);
    schedule
        .eliminate_all(natural_ordering(&g).as_slice())
        .unwrap();
    let steps = schedule.steps();
    assert_eq!((steps[0].rows, steps[0].new_slot), (3, None));
    assert_eq!(steps[1].gather, vec![1]);
    assert_eq!((steps[1].rows, steps[1].cols), (2, 3));
}

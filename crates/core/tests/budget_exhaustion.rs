//! Property tests of the deterministic work-budget layer's contract:
//!
//! * an **unlimited** budget is bit-identical to the un-budgeted code
//!   paths (the budget is pure metering until it caps);
//! * budgets are **monotone**: once a budget produces a decisive verdict,
//!   every larger budget — unlimited included — produces the *identical*
//!   analysis (a bigger allowance can only move the exhaustion point
//!   later, never change the answer before it);
//! * **exhaustion is honest**: a refused charge always unwinds to
//!   [`Verdict::Unknown`] carrying a [`Progress`] record whose spend
//!   matches the budget's own counter, and a non-exhausted run never
//!   carries one;
//! * **overload stays exact**: a workload with `U > 1` answers
//!   [`Verdict::Infeasible`] under *any* budget, zero included — the
//!   exact rational utilization comparison and the bounds fix-point
//!   cut-off are free checks, so degradation never costs the service the
//!   cheap certain rejections (the regression guard for the bounds
//!   budget unification).

use edf_analysis::budget::{Progress, ProgressPhase, WorkBudget};
use edf_analysis::tests::{AllApproximatedTest, BoundSelection, ProcessorDemandTest, QpaTest};
use edf_analysis::workload::PreparedWorkload;
use edf_analysis::{all_tests, Analysis, AnalysisScratch, BoxedTest, Verdict};
use edf_model::{Task, TaskSet, Time};
use proptest::prelude::*;

fn arb_task() -> impl Strategy<Value = Task> {
    (1u64..=50, 1u64..=500, 2u64..=400).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_task(), 1..=10).prop_map(TaskSet::from_tasks)
}

/// Task sets whose exact utilization exceeds one (no `c.min(t)` clamp, so
/// single tasks can already overload).
fn arb_overloaded_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(
        (1u64..=60, 1u64..=100, 2u64..=50)
            .prop_filter_map("valid task", |(c, d, t)| Task::from_ticks(c, d, t).ok()),
        1..=6,
    )
    .prop_map(TaskSet::from_tasks)
    .prop_filter("exceeds one", TaskSet::utilization_exceeds_one)
}

/// The exact tests with charging loops in every phase the budget meters
/// (demand walk, QPA descent, refinement frontier, bounds fix points).
fn charging_suite() -> Vec<BoxedTest> {
    vec![
        Box::new(ProcessorDemandTest::new()),
        Box::new(QpaTest::new()),
        Box::new(AllApproximatedTest::new()),
    ]
}

/// Runs `test` on `prepared` under `budget`, returning the analysis and
/// the budget as it came back out of the scratch.
fn run_budgeted(
    test: &BoxedTest,
    prepared: &PreparedWorkload,
    scratch: &mut AnalysisScratch,
    budget: WorkBudget,
) -> (Analysis, WorkBudget) {
    scratch.set_budget(budget);
    let analysis = test.analyze_prepared_with(prepared, scratch);
    (analysis, scratch.take_budget())
}

proptest! {
    /// An unlimited budget never alters an analysis: same verdict, same
    /// iterations, same witnesses, no progress record — only the spent
    /// counter advances.
    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted(ts in arb_set()) {
        let prepared = PreparedWorkload::new(&ts);
        let mut scratch = AnalysisScratch::new();
        for test in all_tests() {
            let plain = test.analyze_prepared(&prepared);
            let (metered, budget) =
                run_budgeted(&test, &prepared, &mut scratch, WorkBudget::unlimited());
            prop_assert_eq!(&metered, &plain, "{} diverged under metering", test.name());
            prop_assert!(!budget.is_exhausted());
            prop_assert!(metered.progress.is_none());
        }
    }

    /// Once decisive, always the same: for every budget on a doubling
    /// grid, a decisive verdict at budget `B` is reproduced identically
    /// at every `B' ≥ B` and by the unlimited run.
    #[test]
    fn decisive_verdicts_are_budget_monotone(ts in arb_set()) {
        let prepared = PreparedWorkload::new(&ts);
        let mut scratch = AnalysisScratch::new();
        for test in charging_suite() {
            let (full, _) =
                run_budgeted(&test, &prepared, &mut scratch, WorkBudget::unlimited());
            let mut decisive: Option<Analysis> = None;
            let mut units = 0u64;
            loop {
                let (analysis, budget) =
                    run_budgeted(&test, &prepared, &mut scratch, WorkBudget::limited(units));
                if let Some(first) = &decisive {
                    prop_assert_eq!(
                        &analysis, first,
                        "{}: decisive answer changed between budgets", test.name()
                    );
                } else if analysis.verdict.is_decisive() {
                    prop_assert!(!budget.is_exhausted());
                    decisive = Some(analysis);
                }
                if !budget.is_exhausted() {
                    // The whole analysis fit: larger budgets charge the
                    // same work, nothing further to probe.
                    break;
                }
                units = if units == 0 { 1 } else { units * 2 };
            }
            let reached = decisive.expect("an uncapped budget always decides");
            prop_assert_eq!(&reached, &full, "{}: grid limit disagrees", test.name());
        }
    }

    /// Exhaustion is honest and self-describing: `Unknown`, with a
    /// progress record whose spend equals the budget's counter; a run
    /// that fit carries no record at all.
    #[test]
    fn exhaustion_answers_unknown_with_progress(
        ts in arb_set(),
        units in 0u64..200,
    ) {
        let prepared = PreparedWorkload::new(&ts);
        let mut scratch = AnalysisScratch::new();
        for test in charging_suite() {
            let (analysis, budget) =
                run_budgeted(&test, &prepared, &mut scratch, WorkBudget::limited(units));
            if budget.is_exhausted() {
                prop_assert_eq!(analysis.verdict, Verdict::Unknown);
                let progress: Progress =
                    analysis.progress.expect("exhaustion carries progress");
                prop_assert_eq!(progress.units_spent, budget.spent());
                prop_assert!(progress.units_spent > units, "spend includes the refusal");
            } else {
                prop_assert!(analysis.progress.is_none());
                prop_assert!(budget.spent() <= units);
            }
        }
    }

    /// The bounds-unification regression guard: `U > 1` is answered
    /// `Infeasible` under any budget — the exact utilization comparison
    /// and the bounds cut-off cost nothing — so overloaded sets are
    /// rejected exactly even by a fully-shedding service.
    #[test]
    fn overload_is_infeasible_under_any_budget(
        ts in arb_overloaded_set(),
        units in 0u64..50,
    ) {
        let prepared = PreparedWorkload::new(&ts);
        let mut scratch = AnalysisScratch::new();
        for test in charging_suite() {
            for budget in [WorkBudget::limited(0), WorkBudget::limited(units)] {
                let (analysis, _) = run_budgeted(&test, &prepared, &mut scratch, budget);
                prop_assert_eq!(
                    analysis.verdict,
                    Verdict::Infeasible,
                    "{}: overload must stay exact under a budget of {} unit(s)",
                    test.name(),
                    budget.limit()
                );
            }
        }
    }
}

/// A zero budget refuses the first charge of every charging loop — the
/// pinned anchor for the grid the proptests walk.
#[test]
fn zero_budget_exhausts_non_trivial_workloads() {
    let ts = TaskSet::from_tasks(vec![
        Task::new(Time::new(3), Time::new(4), Time::new(10)).unwrap(),
        Task::new(Time::new(4), Time::new(6), Time::new(10)).unwrap(),
        Task::new(Time::new(2), Time::new(5), Time::new(12)).unwrap(),
    ]);
    let prepared = PreparedWorkload::new(&ts);
    let mut scratch = AnalysisScratch::new();
    for test in charging_suite() {
        let (analysis, budget) =
            run_budgeted(&test, &prepared, &mut scratch, WorkBudget::limited(0));
        assert!(budget.is_exhausted(), "{}", test.name());
        assert_eq!(analysis.verdict, Verdict::Unknown, "{}", test.name());
        assert!(analysis.progress.is_some(), "{}", test.name());
    }
}

/// A processor-demand walk cut by its budget at any interval, wherever
/// that interval falls among the deadline generator's windows, reports
/// the units it spent (the refused charge included) and the largest
/// interval it certified: at a budget of `B` units, the `B`-th distinct
/// job deadline.  The fixed horizon spans about 20 windows and makes
/// every unit a walk unit.
#[test]
fn demand_walk_exhaustion_certifies_the_deadlines_in_order() {
    let tasks = [(1, 5, 8), (2, 9, 12), (3, 20, 20)];
    let horizon = 2_000;
    let ts = TaskSet::from_tasks(
        tasks
            .iter()
            .map(|&(c, d, p)| Task::from_ticks(c, d, p).unwrap())
            .collect(),
    );
    let mut deadlines: Vec<Time> = tasks
        .iter()
        .flat_map(|&(_, d, p)| (d..=horizon).step_by(p as usize).map(Time::new))
        .collect();
    deadlines.sort_unstable();
    deadlines.dedup();

    let prepared = PreparedWorkload::new(&ts);
    let test: BoxedTest = Box::new(ProcessorDemandTest::with_bound(BoundSelection::Fixed(
        Time::new(horizon),
    )));
    let mut scratch = AnalysisScratch::new();
    for units in 0..=deadlines.len() as u64 {
        let (analysis, budget) =
            run_budgeted(&test, &prepared, &mut scratch, WorkBudget::limited(units));
        if units == deadlines.len() as u64 {
            assert!(!budget.is_exhausted(), "the whole walk fits");
            assert_eq!(analysis.iterations, units);
            break;
        }
        let progress = analysis.progress.expect("exhaustion carries progress");
        assert_eq!(progress.phase, ProgressPhase::DemandWalk);
        assert_eq!(progress.units_spent, units + 1, "budget {units}");
        let certified = units.checked_sub(1).map(|i| deadlines[i as usize]);
        assert_eq!(progress.certified_interval, certified, "budget {units}");
    }
}

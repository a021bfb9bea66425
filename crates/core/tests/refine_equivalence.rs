//! Property tests of the refinement engine's contract: the shared
//! `refine` engine behind [`DynamicErrorTest`] and [`AllApproximatedTest`]
//! (flat frontier queue, incremental comparison aggregates, screened
//! comparisons, batched withdrawals) is **bit-identical** to the plain
//! loops of [`edf_oracle::refine`] — verdicts, iteration counts,
//! examined intervals and overload witnesses — across sporadic task sets,
//! event streams, mixed systems and arrival curves, under every test knob
//! (`with_initial_level`, `with_max_level` / `from_target_error`).

use edf_analysis::budget::WorkBudget;
use edf_analysis::kernel::AnalysisScratch;
use edf_analysis::tests::{AllApproximatedTest, DynamicErrorTest};
use edf_analysis::workload::{DemandComponent, MixedSystem, PreparedWorkload};
use edf_analysis::{DemandOverload, FeasibilityTest, Verdict};
use edf_model::{
    AffineSegment, ArrivalCurve, ArrivalCurveTask, EventStream, EventStreamTask, Task, TaskSet,
    Time,
};
use edf_oracle::refine as reference;
use proptest::prelude::*;

fn arb_task() -> impl Strategy<Value = Task> {
    (1u64..=20, 1u64..=120, 2u64..=100).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_task(), 1..=6).prop_map(TaskSet::from_tasks)
}

fn arb_stream_task() -> impl Strategy<Value = EventStreamTask> {
    (1u64..=3, 1u64..=6, 20u64..=80, 1u64..=4, 2u64..=25).prop_map(|(burst, inner, outer, c, d)| {
        EventStreamTask::new(
            EventStream::bursty(burst, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        )
        .expect("positive parameters")
    })
}

fn arb_mixed() -> impl Strategy<Value = MixedSystem> {
    (arb_set(), prop::collection::vec(arb_stream_task(), 0..=2))
        .prop_map(|(ts, streams)| MixedSystem::new(ts, streams))
}

fn arb_curve_task() -> impl Strategy<Value = ArrivalCurveTask> {
    (1u64..=4, 5u64..=60, 1u64..=4, 2u64..=25, 0u64..=1).prop_filter_map(
        "valid curve task",
        |(burst, distance, c, d, conservative)| {
            let conservative = conservative == 1;
            let curve = ArrivalCurve::from_affine_segments(&[AffineSegment::new(
                burst,
                Time::new(distance),
            )])
            .ok()?;
            let task = ArrivalCurveTask::new(curve, Time::new(c), Time::new(d)).ok()?;
            Some(if conservative {
                task.conservative()
            } else {
                task
            })
        },
    )
}

fn task_set(params: &[(u64, u64, u64)]) -> TaskSet {
    TaskSet::from_tasks(
        params
            .iter()
            .map(|&(c, d, p)| Task::from_ticks(c, d, p).expect("valid task"))
            .collect(),
    )
}

/// Runs analyses that stop part-way on `scratch`, each checked against a
/// fresh scratch: a level-limited FIFO run that drops limit-reached
/// entries from its revision queue and ends feasible with every
/// component still approximated, an infeasible run, and a run whose
/// budget of one unit runs out after the first component is
/// approximated.  The feasible and the exhausted run leave live entries
/// in the revision queue; the infeasible one stops once no term is live,
/// but leaves its frontier and component states behind.
fn leave_partial_runs_in(scratch: &mut AnalysisScratch) {
    let limited = task_set(&[(10, 19, 20), (5, 22, 29), (3, 4, 10)]);
    let infeasible = task_set(&[(3, 4, 10), (4, 6, 10), (2, 5, 12)]);
    let runs = [
        (
            AllApproximatedTest::new().with_max_level(3),
            &limited,
            WorkBudget::unlimited(),
        ),
        (
            AllApproximatedTest::new(),
            &infeasible,
            WorkBudget::unlimited(),
        ),
        (AllApproximatedTest::new(), &limited, WorkBudget::limited(1)),
    ];
    for (test, ts, budget) in runs {
        let prepared = PreparedWorkload::new(ts);
        let mut fresh = AnalysisScratch::new();
        fresh.set_budget(budget);
        scratch.set_budget(budget);
        assert_eq!(
            test.analyze_demand(&prepared, scratch),
            test.analyze_demand(&prepared, &mut fresh),
            "{test:?} on {ts}",
        );
        scratch.take_budget();
    }
}

/// Every dynamic-error knob combination the engine must reproduce: a
/// shifted initial level, hard level limits and target-error-derived
/// limits.
fn dynamic_error_knobs() -> Vec<DynamicErrorTest> {
    let mut knobs = vec![
        DynamicErrorTest::new(),
        DynamicErrorTest::new().with_initial_level(3),
    ];
    for limit in [1, 2, 7] {
        knobs.push(DynamicErrorTest::new().with_max_level(limit));
    }
    for epsilon in [1.0, 0.3, 0.05] {
        knobs.push(DynamicErrorTest::from_target_error(epsilon));
    }
    knobs
}

/// Every all-approximated knob combination: unbounded, hard-limited and
/// target-error-derived refinement limits.
fn all_approximated_knobs() -> Vec<AllApproximatedTest> {
    let mut knobs = vec![AllApproximatedTest::new()];
    for limit in [1, 2, 7] {
        knobs.push(AllApproximatedTest::new().with_max_level(limit));
    }
    for epsilon in [1.0, 0.3, 0.05] {
        knobs.push(AllApproximatedTest::from_target_error(epsilon));
    }
    knobs
}

/// Runs every knob combination of both refining tests on one prepared
/// workload, comparing the engine's raw analysis (`analyze_demand`)
/// against the oracle's plain loop — whole [`Analysis`] values, so
/// verdict, iteration count, max examined interval and overload witness
/// must all match bit for bit.
///
/// [`Analysis`]: edf_analysis::Analysis
fn assert_engine_equals_reference(prepared: &PreparedWorkload) {
    let mut scratch = AnalysisScratch::new();
    for test in dynamic_error_knobs() {
        let engine = test.analyze_demand(prepared, &mut scratch);
        let reference = reference::dynamic_error(&test, prepared);
        assert_eq!(engine, reference, "dynamic-error {test:?} diverges");
    }
    for test in all_approximated_knobs() {
        let engine = test.analyze_demand(prepared, &mut scratch);
        let reference = reference::all_approximated(&test, prepared);
        assert_eq!(engine, reference, "all-approximated {test:?} diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine-vs-reference equivalence on sporadic task sets.
    #[test]
    fn refining_tests_match_reference_on_task_sets(ts in arb_set()) {
        assert_engine_equals_reference(&PreparedWorkload::new(&ts));
    }

    /// ... on event-stream tasks.
    #[test]
    fn refining_tests_match_reference_on_event_streams(task in arb_stream_task()) {
        assert_engine_equals_reference(&PreparedWorkload::new(&task));
    }

    /// ... on mixed systems (periodic + offset + one-shot components in
    /// one frontier).
    #[test]
    fn refining_tests_match_reference_on_mixed_systems(system in arb_mixed()) {
        assert_engine_equals_reference(&PreparedWorkload::new(&system));
    }

    /// ... on arrival-curve tasks (exact and conservative decompositions;
    /// the conservative mode exercises one-shot components, which the
    /// frontier steps without reciprocals).
    #[test]
    fn refining_tests_match_reference_on_arrival_curves(task in arb_curve_task()) {
        assert_engine_equals_reference(&PreparedWorkload::new(&task));
    }

    /// Scratch reuse across workloads never changes a result: analyses
    /// through one shared scratch arena equal fresh-scratch analyses, also
    /// right after runs that stopped part-way (see
    /// `leave_partial_runs_in`).
    #[test]
    fn engine_scratch_reuse_is_observationally_pure(
        systems in prop::collection::vec(arb_mixed(), 1..=3),
    ) {
        let mut scratch = AnalysisScratch::new();
        for system in &systems {
            leave_partial_runs_in(&mut scratch);
            let prepared = PreparedWorkload::new(system);
            let dynamic = DynamicErrorTest::new();
            let all = AllApproximatedTest::new();
            prop_assert_eq!(
                dynamic.analyze_demand(&prepared, &mut scratch),
                dynamic.analyze_demand(&prepared, &mut AnalysisScratch::new()),
            );
            prop_assert_eq!(
                all.analyze_demand(&prepared, &mut scratch),
                all.analyze_demand(&prepared, &mut AnalysisScratch::new()),
            );
        }
    }
}

/// Deterministic spot check: an infeasible set's overload witness (the
/// exact interval and demand of the failing comparison) survives the
/// engine restructuring exactly, for both refining tests.
#[test]
fn overload_witnesses_are_preserved() {
    let ts = TaskSet::from_tasks(vec![
        Task::from_ticks(3, 4, 10).unwrap(),
        Task::from_ticks(4, 6, 10).unwrap(),
        Task::from_ticks(2, 5, 12).unwrap(),
    ]);
    let prepared = PreparedWorkload::new(&ts);
    let mut scratch = AnalysisScratch::new();

    let dynamic = DynamicErrorTest::new();
    let engine = dynamic.analyze_demand(&prepared, &mut scratch);
    let reference = reference::dynamic_error(&dynamic, &prepared);
    assert_eq!(engine, reference);
    let witness = engine.overload.expect("infeasible set has a witness");
    assert!(witness.demand > witness.interval);

    let all = AllApproximatedTest::new();
    let engine = all.analyze_demand(&prepared, &mut scratch);
    let reference = reference::all_approximated(&all, &prepared);
    assert_eq!(engine, reference);
    let witness = engine.overload.expect("infeasible set has a witness");
    assert!(witness.demand > witness.interval);
}

/// Regression: four one-shots of cost 3 due at 4 overload the interval 4
/// at the second pop, while two of the four jobs are still on the
/// frontier.  Both refining tests, engine and reference, must report the
/// full demand `dbf(4) = 12`, not the 6 examined so far.
#[test]
fn witness_reports_the_full_demand_of_an_equal_deadline_run() {
    let one_shot = DemandComponent::one_shot(Time::new(3), Time::new(4), Time::ZERO);
    let prepared = PreparedWorkload::from_components(vec![one_shot; 4]);
    let witness = DemandOverload {
        interval: Time::new(4),
        demand: Time::new(12),
    };
    assert_eq!(prepared.dbf(witness.interval), witness.demand);
    let mut scratch = AnalysisScratch::new();

    let dynamic = DynamicErrorTest::new();
    let engine = dynamic.analyze_demand(&prepared, &mut scratch);
    assert_eq!(engine.verdict, Verdict::Infeasible);
    assert_eq!(engine.overload, Some(witness));
    assert_eq!(reference::dynamic_error(&dynamic, &prepared), engine);

    let all = AllApproximatedTest::new();
    let engine = all.analyze_demand(&prepared, &mut scratch);
    assert_eq!(engine.verdict, Verdict::Infeasible);
    assert_eq!(engine.overload, Some(witness));
    assert_eq!(reference::all_approximated(&all, &prepared), engine);
}

/// The hand-picked sets of the engine's development: tight constrained
/// deadlines, `U = 1`, an overload, equal periods and an empty set.  The
/// next two pin all-approximated branches no generated set reached:
/// under a level limit, the first withdraws one component twice, so its
/// job count after a withdrawal decides whether it can be revised again;
/// the second adds a constrained-deadline set whose failing comparison
/// meets two approximations with equal over-estimations.  Under
/// `with_max_level(3)`, the last two reach the limit on the oldest live
/// approximation while a younger one is still below it, so the FIFO
/// revision queue must drop the oldest entry and withdraw the younger
/// one: the first then answers `Unknown` after 13 comparisons (without
/// the limit check it refines on to its overload at 137), the second
/// `Feasible` after 10 (stopping at the limit-reached entry would answer
/// `Unknown`).
fn hand_picked_sets() -> Vec<TaskSet> {
    let t = |c, d, p| Task::from_ticks(c, d, p).expect("valid task");
    vec![
        TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
        TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
        TaskSet::from_tasks(vec![t(2, 2, 6), t(2, 4, 8), t(1, 7, 12)]),
        TaskSet::from_tasks(vec![t(5, 6, 20), t(7, 11, 25), t(4, 9, 35)]),
        TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
        TaskSet::from_tasks(vec![t(5, 3, 10)]),
        TaskSet::from_tasks(vec![t(1, 1, 4), t(1, 2, 4), t(1, 3, 4), t(1, 4, 4)]),
        TaskSet::from_tasks(vec![t(1, 5, 5), t(2, 10, 10), t(30, 200, 200)]),
        TaskSet::new(),
        TaskSet::from_tasks(vec![t(9, 16, 24), t(5, 40, 29), t(7, 25, 30), t(4, 9, 28)]),
        TaskSet::from_tasks(vec![t(7, 15, 29), t(6, 13, 27), t(8, 25, 19)]),
        TaskSet::from_tasks(vec![t(1, 1, 5), t(12, 21, 28), t(10, 29, 27)]),
        TaskSet::from_tasks(vec![t(10, 19, 20), t(5, 22, 29), t(3, 4, 10)]),
    ]
}

#[test]
fn dynamic_error_engine_matches_reference_on_hand_picked_sets() {
    let tests = [
        DynamicErrorTest::new(),
        DynamicErrorTest::new().with_initial_level(3),
        DynamicErrorTest::new().with_max_level(2),
        DynamicErrorTest::from_target_error(0.25),
    ];
    for ts in hand_picked_sets() {
        let prepared = PreparedWorkload::new(&ts);
        for test in &tests {
            let engine = test.analyze_demand(&prepared, &mut AnalysisScratch::new());
            let reference = reference::dynamic_error(test, &prepared);
            assert_eq!(engine, reference, "{test:?} on {ts}");
        }
    }
}

#[test]
fn all_approximated_engine_matches_reference_on_hand_picked_sets() {
    let tests = [
        AllApproximatedTest::new(),
        AllApproximatedTest::new().with_max_level(2),
        AllApproximatedTest::new().with_max_level(3),
        AllApproximatedTest::from_target_error(0.5),
    ];
    for ts in hand_picked_sets() {
        let prepared = PreparedWorkload::new(&ts);
        for test in &tests {
            let engine = test.analyze_demand(&prepared, &mut AnalysisScratch::new());
            let reference = reference::all_approximated(test, &prepared);
            assert_eq!(engine, reference, "{test:?} on {ts}");
        }
    }
}

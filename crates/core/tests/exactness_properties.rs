//! Property-based tests of the central claims of the paper:
//!
//! * the dynamic-error and all-approximated tests are **exact** — they agree
//!   with the processor demand criterion (and QPA) on every task set;
//! * Devi's test is equivalent to `SuperPos(1)` (Lemma 2);
//! * the superposition tests form a monotone hierarchy of sufficient tests;
//! * every sufficient acceptance implies exact feasibility.

use edf_analysis::demand::dbf_set;
use edf_analysis::exhaustive::exhaustive_check;
use edf_analysis::sensitivity::{breakdown_scaling, wcet_slack};
use edf_analysis::tests::{
    AllApproximatedTest, DensityTest, DeviTest, DynamicErrorTest, LiuLaylandTest,
    ProcessorDemandTest, QpaTest, SuperpositionTest,
};
use edf_analysis::{FeasibilityTest, Verdict};
use edf_model::{Task, TaskSet, Time};
use proptest::prelude::*;

/// Brute-force reference: checks `dbf(I) ≤ I` at every integer interval up
/// to the hyperperiod plus the largest deadline (a valid horizon for every
/// `U ≤ 1` set).  Only usable for small parameters, which the strategies
/// below guarantee.
fn brute_force_feasible(ts: &TaskSet) -> bool {
    if ts.is_empty() {
        return true;
    }
    if ts.utilization_exceeds_one() {
        return false;
    }
    let horizon = ts
        .hyperperiod()
        .and_then(|h| h.checked_add(ts.max_deadline().unwrap_or(Time::ZERO)))
        .expect("small parameters cannot overflow");
    (1..=horizon.as_u64()).all(|i| dbf_set(ts, Time::new(i)) <= Time::new(i))
}

/// Small tasks: periods up to 24 keep the brute-force hyperperiod tractable.
fn arb_small_task() -> impl Strategy<Value = Task> {
    (1u64..=6, 1u64..=30, 2u64..=24).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_small_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_small_task(), 1..=5).prop_map(TaskSet::from_tasks)
}

/// Larger tasks for agreement checks that do not need brute force.
fn arb_medium_task() -> impl Strategy<Value = Task> {
    (1u64..=50, 1u64..=500, 2u64..=400).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_medium_set() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_medium_task(), 1..=10).prop_map(TaskSet::from_tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The headline claim: the new tests are exact.
    #[test]
    fn new_tests_agree_with_brute_force(ts in arb_small_set()) {
        let reference = brute_force_feasible(&ts);
        let pda = ProcessorDemandTest::new().analyze(&ts);
        let qpa = QpaTest::new().analyze(&ts);
        let dynamic = DynamicErrorTest::new().analyze(&ts);
        let all_approx = AllApproximatedTest::new().analyze(&ts);

        prop_assert_eq!(pda.verdict.is_feasible(), reference, "processor demand vs brute force on {}", ts);
        prop_assert_eq!(qpa.verdict.is_feasible(), reference, "qpa vs brute force on {}", ts);
        prop_assert_eq!(dynamic.verdict.is_feasible(), reference, "dynamic-error vs brute force on {}", ts);
        prop_assert_eq!(all_approx.verdict.is_feasible(), reference, "all-approximated vs brute force on {}", ts);
        prop_assert!(pda.verdict.is_decisive());
        prop_assert!(dynamic.verdict.is_decisive());
        prop_assert!(all_approx.verdict.is_decisive());
    }

    /// The exact tests also agree on sets too large for brute force.
    #[test]
    fn exact_tests_agree_pairwise(ts in arb_medium_set()) {
        let pda = ProcessorDemandTest::new().analyze(&ts).verdict;
        let qpa = QpaTest::new().analyze(&ts).verdict;
        let dynamic = DynamicErrorTest::new().analyze(&ts).verdict;
        let all_approx = AllApproximatedTest::new().analyze(&ts).verdict;
        prop_assert_eq!(pda, qpa, "qpa disagrees on {}", ts);
        prop_assert_eq!(pda, dynamic, "dynamic-error disagrees on {}", ts);
        prop_assert_eq!(pda, all_approx, "all-approximated disagrees on {}", ts);
    }

    /// Lemma 2: Devi's test and SuperPos(1) accept exactly the same sets.
    ///
    /// The equivalence proof applies to the constrained-deadline model
    /// (`D ≤ T`) the paper analyses; for `D > T` Devi's formula is strictly
    /// more pessimistic than the superposition, so only the implication
    /// "Devi accepts ⇒ SuperPos(1) accepts" survives.
    #[test]
    fn devi_equals_superpos_one(ts in arb_medium_set()) {
        let devi = DeviTest::new().analyze(&ts).verdict;
        let superpos1 = SuperpositionTest::new(1).analyze(&ts).verdict;
        if ts.all_constrained_or_implicit() {
            prop_assert_eq!(devi, superpos1, "Devi and SuperPos(1) diverge on {}", ts);
        } else if devi.is_feasible() {
            prop_assert!(superpos1.is_feasible(), "Devi accepted but SuperPos(1) rejected {}", ts);
        }
    }

    /// The superposition hierarchy is monotone: a level-x acceptance is kept
    /// by level x+1, and any acceptance implies exact feasibility.
    #[test]
    fn superposition_hierarchy_is_monotone_and_sound(ts in arb_medium_set()) {
        let exact = ProcessorDemandTest::new().analyze(&ts).verdict;
        let mut accepted_before = false;
        for level in 1..=8u64 {
            let verdict = SuperpositionTest::new(level).analyze(&ts).verdict;
            if accepted_before {
                prop_assert!(
                    verdict.is_feasible(),
                    "level {} lost an acceptance of a lower level on {}", level, ts
                );
            }
            if verdict.is_feasible() {
                accepted_before = true;
                prop_assert!(exact.is_feasible(), "unsound acceptance at level {} on {}", level, ts);
            }
            if verdict.is_infeasible() {
                prop_assert!(exact.is_infeasible());
            }
        }
    }

    /// Every sufficient test only accepts genuinely feasible sets.
    #[test]
    fn sufficient_tests_are_sound(ts in arb_small_set()) {
        let reference = brute_force_feasible(&ts);
        for test in [
            Box::new(LiuLaylandTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(DensityTest::new()),
            Box::new(DeviTest::new()),
            Box::new(SuperpositionTest::new(2)),
            Box::new(SuperpositionTest::new(5)),
        ] {
            let verdict = test.analyze(&ts).verdict;
            if verdict.is_feasible() {
                prop_assert!(reference, "{} wrongly accepted {}", test.name(), ts);
            }
            if verdict.is_infeasible() {
                prop_assert!(!reference, "{} wrongly rejected {}", test.name(), ts);
            }
        }
    }

    /// Both refining tests stay sound under a level limit: every decisive
    /// verdict of the bounded test is the exact one.
    #[test]
    fn level_limited_refinement_stays_sound(ts in arb_small_set()) {
        let reference = brute_force_feasible(&ts);
        for limit in [1, 2, 4] {
            for test in [
                Box::new(AllApproximatedTest::new().with_max_level(limit)) as Box<dyn FeasibilityTest>,
                Box::new(DynamicErrorTest::new().with_max_level(limit)),
            ] {
                let verdict = test.analyze(&ts).verdict;
                if verdict.is_decisive() {
                    prop_assert_eq!(verdict.is_feasible(), reference, "{} limit {} on {}", test.name(), limit, ts);
                }
            }
        }
    }

    /// Iteration counts are positive whenever a comparison happened and the
    /// examined intervals never exceed the hyperperiod-based horizon.
    #[test]
    fn iteration_accounting_is_consistent(ts in arb_medium_set()) {
        for test in [
            Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(DynamicErrorTest::new()),
            Box::new(AllApproximatedTest::new()),
            Box::new(QpaTest::new()),
        ] {
            let analysis = test.analyze(&ts);
            if let Some(max) = analysis.max_examined_interval {
                prop_assert!(analysis.iterations > 0);
                prop_assert!(max > Time::ZERO);
            }
            if analysis.verdict == Verdict::Infeasible {
                if let Some(overload) = &analysis.overload {
                    prop_assert!(overload.demand > overload.interval);
                }
            }
        }
    }

    /// Devi acceptance implies the new tests accept with at most one
    /// comparison per task (the "comparable effort" claim of the paper).
    #[test]
    fn devi_acceptance_bounds_new_test_effort(ts in arb_medium_set()) {
        let devi = DeviTest::new().analyze(&ts);
        if devi.verdict.is_feasible() {
            let dynamic = DynamicErrorTest::new().analyze(&ts);
            let all_approx = AllApproximatedTest::new().analyze(&ts);
            prop_assert!(dynamic.verdict.is_feasible());
            prop_assert!(all_approx.verdict.is_feasible());
            prop_assert!(dynamic.iterations <= ts.len() as u64);
            prop_assert!(all_approx.iterations <= ts.len() as u64);
        }
    }

    /// The naive exhaustive oracle agrees with the fast exact tests.
    #[test]
    fn exhaustive_oracle_agrees_with_fast_tests(ts in arb_small_set()) {
        let oracle = exhaustive_check(&ts).verdict;
        if oracle.is_decisive() {
            prop_assert_eq!(oracle, ProcessorDemandTest::new().analyze(&ts).verdict);
            prop_assert_eq!(oracle, AllApproximatedTest::new().analyze(&ts).verdict);
        }
    }

    /// Breakdown scaling never reports a factor whose application breaks
    /// feasibility, and the factor is at least 1 for feasible sets.
    #[test]
    fn breakdown_scaling_is_consistent(ts in arb_small_set()) {
        match breakdown_scaling(&ts, &AllApproximatedTest::new()) {
            Some(result) => {
                prop_assert!(result.factor >= 1.0);
                prop_assert!(result.utilization_at_breakdown <= 1.0 + 1e-9);
                prop_assert!(ProcessorDemandTest::new().analyze(&ts).verdict.is_feasible());
            }
            None => {
                prop_assert!(!ProcessorDemandTest::new().analyze(&ts).verdict.is_feasible()
                    || ts.is_empty());
            }
        }
    }

    /// The per-task WCET slack really is the last feasible inflation: adding
    /// it keeps the set feasible, adding one more tick does not.
    #[test]
    fn wcet_slack_is_tight(ts in arb_small_set(), pick in 0usize..5) {
        let index = pick % ts.len();
        let test = ProcessorDemandTest::new();
        if let Some(slack) = wcet_slack(&ts, index, &test) {
            let inflate = |extra: u64| -> TaskSet {
                ts.iter()
                    .enumerate()
                    .map(|(i, task)| {
                        if i == index {
                            let wcet = (task.wcet() + Time::new(extra)).min(task.period());
                            Task::new(wcet, task.deadline(), task.period()).unwrap()
                        } else {
                            task.clone()
                        }
                    })
                    .collect()
            };
            prop_assert!(test.analyze(&inflate(slack.as_u64())).verdict.is_feasible());
            let headroom = ts[index].period() - ts[index].wcet();
            if slack < headroom {
                prop_assert!(!test.analyze(&inflate(slack.as_u64() + 1)).verdict.is_feasible());
            }
        }
    }

    /// A mixed system whose event-stream part is purely periodic gives the
    /// same verdict as the equivalent sporadic task set.
    #[test]
    fn mixed_system_matches_sporadic_equivalent(ts in arb_small_set(), c in 1u64..5, d in 1u64..30, period in 2u64..25) {
        let stream_task = edf_model::EventStreamTask::new(
            edf_model::EventStream::periodic(Time::new(period)),
            Time::new(c.min(period)),
            Time::new(d),
        ).unwrap();
        let mut as_sporadic = ts.clone();
        as_sporadic.push(stream_task.to_sporadic().unwrap());
        let mixed = MixedSystem::new(ts, vec![stream_task]);
        let mixed_verdict = ProcessorDemandTest::new().analyze_workload(&mixed).verdict;
        let sporadic_verdict = ProcessorDemandTest::new().analyze(&as_sporadic).verdict;
        if mixed_verdict.is_decisive() && sporadic_verdict.is_decisive() {
            prop_assert_eq!(mixed_verdict, sporadic_verdict);
        }
    }
}

// ---------------------------------------------------------------------------
// Workload-model equivalence (the `Workload` refactor's contract).
// ---------------------------------------------------------------------------

use edf_analysis::tests::AllApproximatedTest as AaTest;
use edf_analysis::workload::{MixedSystem, PreparedWorkload};
use edf_model::{EventStream, EventStreamTask};

/// Re-expresses a sporadic task set as periodic event-stream tasks.
fn as_event_streams(ts: &TaskSet) -> Vec<EventStreamTask> {
    ts.iter()
        .map(|task| {
            EventStreamTask::new(
                EventStream::periodic(task.period()),
                task.wcet(),
                task.deadline(),
            )
            .expect("valid task parameters")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// A strictly periodic event-stream workload gets the same verdict and
    /// the same dbf values as the equivalent sporadic task set under every
    /// exact test.
    #[test]
    fn periodic_streams_equal_sporadic_tasks_under_every_exact_test(ts in arb_medium_set()) {
        let streams = as_event_streams(&ts);
        let stream_workload = PreparedWorkload::new(&streams);
        let sporadic_workload = PreparedWorkload::new(&ts);
        for i in (0..500u64).step_by(11) {
            let i = Time::new(i);
            prop_assert_eq!(
                stream_workload.dbf(i),
                dbf_set(&ts, i),
                "dbf mismatch at {} on {}", i, ts
            );
        }
        for test in [
            Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(QpaTest::new()),
            Box::new(DynamicErrorTest::new()),
            Box::new(AaTest::new()),
        ] {
            let sporadic = test.analyze_prepared(&sporadic_workload).verdict;
            let stream = test.analyze_prepared(&stream_workload).verdict;
            prop_assert_eq!(
                sporadic, stream,
                "{} disagrees between models on {}", test.name(), ts
            );
        }
    }

    /// dbf/rbf monotonicity (and dbf ≤ rbf domination) for mixed systems
    /// combining sporadic background load with a bursty stream.
    #[test]
    fn mixed_system_dbf_rbf_monotone(
        ts in arb_small_set(),
        burst_len in 1u64..4,
        inner in 1u64..8,
        outer in 10u64..60,
        c in 1u64..4,
        d in 1u64..20,
    ) {
        let stream = EventStreamTask::new(
            EventStream::bursty(burst_len, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        ).unwrap();
        let mixed = MixedSystem::new(ts, vec![stream]);
        let prepared = PreparedWorkload::new(&mixed);
        let mut last_dbf = Time::ZERO;
        let mut last_rbf = Time::ZERO;
        for i in 0..200u64 {
            let i = Time::new(i);
            let dbf = prepared.dbf(i);
            let rbf = prepared.rbf(i);
            prop_assert!(dbf >= last_dbf, "dbf not monotone at {}", i);
            prop_assert!(rbf >= last_rbf, "rbf not monotone at {}", i);
            prop_assert!(dbf <= rbf, "dbf exceeds rbf at {}", i);
            last_dbf = dbf;
            last_rbf = rbf;
        }
    }

    /// The exact tests agree with each other on event-stream workloads
    /// reached through the common path (not just on task sets).
    #[test]
    fn exact_tests_agree_on_stream_workloads(
        ts in arb_small_set(),
        burst_len in 1u64..3,
        inner in 1u64..6,
        outer in 8u64..40,
        c in 1u64..3,
        d in 1u64..15,
    ) {
        let stream = EventStreamTask::new(
            EventStream::bursty(burst_len, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        ).unwrap();
        let mixed = MixedSystem::new(ts, vec![stream]);
        let prepared = PreparedWorkload::new(&mixed);
        let reference = ProcessorDemandTest::new().analyze_prepared(&prepared).verdict;
        for test in [
            Box::new(QpaTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(DynamicErrorTest::new()),
            Box::new(AaTest::new()),
        ] {
            let verdict = test.analyze_prepared(&prepared).verdict;
            prop_assert_eq!(
                verdict, reference,
                "{} disagrees on a mixed system", test.name()
            );
        }
    }
}

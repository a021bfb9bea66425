//! Workload-model equivalence and oracle cross-validation.
//!
//! The tentpole claim of the `Workload` refactor is that every exact test
//! gives the *same* answer no matter how a workload is expressed:
//!
//! * a strictly periodic event stream is interchangeable with the
//!   equivalent sporadic task set under every test;
//! * event-stream and mixed systems get exact verdicts through the common
//!   path, cross-validated against the exhaustive oracle;
//! * `dbf`/`rbf` monotonicity invariants hold for mixed systems.

use edf_analysis::exhaustive::{exhaustive_check, exhaustive_check_prepared_up_to};
use edf_analysis::tests::{AllApproximatedTest, DynamicErrorTest, ProcessorDemandTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload};
use edf_analysis::{FeasibilityTest, Verdict};
use edf_model::{literature, EventStream, EventStreamTask, Task, TaskSet, Time};

fn exact_tests() -> Vec<Box<dyn FeasibilityTest>> {
    vec![
        Box::new(ProcessorDemandTest::new()),
        Box::new(QpaTest::new()),
        Box::new(DynamicErrorTest::new()),
        Box::new(AllApproximatedTest::new()),
    ]
}

/// Re-expresses a sporadic task set as a collection of periodic
/// event-stream tasks (tuple `(T, 0)`, cost `C`, deadline `D`).
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

/// Every literature set, expressed as an event-stream workload, gets the
/// same verdict and the same dbf as its sporadic form under every exact
/// test — and both agree with the exhaustive oracle.
#[test]
fn literature_sets_are_model_invariant_and_oracle_consistent() {
    let systems = literature::all();
    assert!(systems.len() >= 3, "need at least 3 literature systems");
    for (name, ts) in systems {
        let streams = as_event_streams(&ts);
        let as_stream_workload = PreparedWorkload::new(&streams);
        let as_task_set = PreparedWorkload::new(&ts);

        // Identical demand in both representations.
        for i in (0..2_000u64).step_by(13) {
            let i = Time::new(i);
            assert_eq!(
                as_stream_workload.dbf(i),
                as_task_set.dbf(i),
                "{name}: dbf mismatch at {i}"
            );
        }

        // Identical verdicts under every exact test.
        for test in exact_tests() {
            let sporadic = test.analyze_prepared(&as_task_set);
            let stream = test.analyze_prepared(&as_stream_workload);
            assert_eq!(
                sporadic.verdict,
                stream.verdict,
                "{name}: {} disagrees between models",
                test.name()
            );
            assert!(sporadic.verdict.is_decisive(), "{name}: {}", test.name());
        }

        // Cross-validated against the exhaustive oracle.
        let oracle = exhaustive_check(&streams);
        if oracle.verdict.is_decisive() {
            assert_eq!(
                oracle.verdict,
                ProcessorDemandTest::new()
                    .analyze_prepared(&as_stream_workload)
                    .verdict,
                "{name}: oracle disagrees"
            );
        }
    }
}

/// Genuinely bursty example systems (no sporadic equivalent): every exact
/// test agrees with the exhaustive oracle over the full hyperperiod-based
/// horizon.
#[test]
fn bursty_example_systems_match_the_exhaustive_oracle() {
    let burst = |count, inner, outer, c, d| {
        EventStreamTask::new(
            EventStream::bursty(count, Time::new(inner), Time::new(outer)),
            Time::new(c),
            Time::new(d),
        )
        .expect("valid event stream task")
    };
    let t = |c, d, p| Task::from_ticks(c, d, p).expect("valid task");

    let systems: Vec<(&str, MixedSystem)> = vec![
        (
            "sparse burst over background",
            MixedSystem::new(
                TaskSet::from_tasks(vec![t(2, 8, 10), t(5, 35, 40)]),
                vec![burst(4, 5, 200, 3, 30)],
            ),
        ),
        (
            "dense burst (infeasible)",
            MixedSystem::new(
                TaskSet::from_tasks(vec![t(6, 10, 10)]),
                vec![burst(3, 1, 100, 10, 25)],
            ),
        ),
        (
            "two interleaved bursts",
            MixedSystem::new(
                TaskSet::from_tasks(vec![t(1, 5, 20)]),
                vec![burst(2, 3, 50, 2, 10), burst(2, 7, 80, 1, 15)],
            ),
        ),
        (
            "pure stream system",
            MixedSystem::new(
                TaskSet::new(),
                vec![burst(3, 4, 60, 2, 12), burst(1, 1, 25, 1, 6)],
            ),
        ),
    ];
    assert!(systems.len() >= 3);

    for (name, system) in systems {
        let prepared = PreparedWorkload::new(&system);
        let oracle = exhaustive_check(&system);
        assert!(
            oracle.verdict.is_decisive(),
            "{name}: oracle horizon should be exact for these cycles"
        );
        for test in exact_tests() {
            let analysis = test.analyze_prepared(&prepared);
            assert_eq!(
                analysis.verdict,
                oracle.verdict,
                "{name}: {} disagrees with the exhaustive oracle",
                test.name()
            );
            // Infeasibility witnesses must be genuine violations.
            if let Some(overload) = &analysis.overload {
                assert_eq!(prepared.dbf(overload.interval), overload.demand, "{name}");
                assert!(overload.demand > overload.interval, "{name}");
            }
        }
    }
}

/// The prepared-state cache never changes answers: analyzing through a
/// shared `PreparedWorkload` equals analyzing fresh each time.
#[test]
fn shared_preparation_is_transparent() {
    let system = MixedSystem::new(
        TaskSet::from_tasks(vec![Task::from_ticks(2, 8, 10).unwrap()]),
        vec![EventStreamTask::new(
            EventStream::bursty(3, Time::new(5), Time::new(100)),
            Time::new(4),
            Time::new(20),
        )
        .unwrap()],
    );
    let shared = PreparedWorkload::new(&system);
    for test in exact_tests() {
        assert_eq!(
            test.analyze_prepared(&shared),
            test.analyze_workload(&system),
            "{} changes under prepared-state sharing",
            test.name()
        );
    }
}

/// Mixed-system invariants: dbf and rbf are monotone, dbf never exceeds
/// rbf, and the exhaustive oracle on a truncated horizon is conservative.
#[test]
fn mixed_system_dbf_rbf_invariants() {
    let system = MixedSystem::new(
        TaskSet::from_tasks(vec![
            Task::from_ticks(1, 4, 9).unwrap(),
            Task::from_ticks(2, 11, 17).unwrap(),
        ]),
        vec![EventStreamTask::new(
            EventStream::bursty(3, Time::new(2), Time::new(40)),
            Time::new(1),
            Time::new(7),
        )
        .unwrap()],
    );
    let prepared = PreparedWorkload::new(&system);
    let mut last_dbf = Time::ZERO;
    let mut last_rbf = Time::ZERO;
    for i in 0..500u64 {
        let i = Time::new(i);
        let dbf = prepared.dbf(i);
        let rbf = prepared.rbf(i);
        assert!(dbf >= last_dbf, "dbf not monotone at {i}");
        assert!(rbf >= last_rbf, "rbf not monotone at {i}");
        assert!(dbf <= rbf, "dbf exceeds rbf at {i}");
        last_dbf = dbf;
        last_rbf = rbf;
    }
    // Truncated oracle stays conservative (Unknown, never Feasible).
    let truncated = exhaustive_check_prepared_up_to(&prepared, Time::new(20), false);
    assert_eq!(truncated.verdict, Verdict::Unknown);
}

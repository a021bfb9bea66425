//! Property tests of the incremental sensitivity engine's contract —
//!
//! * a [`ScaledView`] probe produces the same prepared state (components,
//!   exact utilization comparison, §4.3 analysis horizon, deadline order)
//!   and the same [`Analysis`] from every registered test as a cold
//!   re-preparation, for any probe sequence;
//! * `breakdown_scaling` and `wcet_slack` match their
//!   from-scratch reference: the reported scaling or slack is accepted and
//!   one step more is not, judged on cold preparations (scalings) and on
//!   fresh single-component probes (slacks) — across sporadic task sets,
//!   event streams and mixed systems;
//! * `sensitivity_sweep` equals the per-workload searches.
//!
//! [`Analysis`]: edf_analysis::Analysis

use edf_analysis::bounds::FeasibilityBounds;
use edf_analysis::incremental::ScaledView;
use edf_analysis::sensitivity::{breakdown_scaling, sensitivity_sweep, wcet_slack};
use edf_analysis::tests::{AllApproximatedTest, ProcessorDemandTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload, Workload};
use edf_analysis::{all_tests, FeasibilityTest};
use edf_model::{EventStream, EventStreamTask, Task, TaskSet, Time};
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

/// Asserts that a view probe and a cold preparation are observably
/// identical, including the analyses of all registered tests.
fn assert_prepared_identical(view: &PreparedWorkload, cold: &PreparedWorkload) {
    assert_eq!(view.components(), cold.components());
    assert_eq!(view.utilization().to_bits(), cold.utilization().to_bits());
    assert_eq!(
        view.utilization_exceeds_one(),
        cold.utilization_exceeds_one()
    );
    assert_eq!(
        view.analysis_horizon(),
        FeasibilityBounds::for_components(cold.components()).analysis_horizon()
    );
    assert_eq!(
        view.qpa_horizon(),
        FeasibilityBounds::for_components(cold.components()).qpa_horizon()
    );
    assert_eq!(view.deadline_order(), cold.deadline_order());
    for test in all_tests() {
        assert_eq!(
            test.analyze_prepared(view),
            test.analyze_prepared(cold),
            "{} diverges between incremental view and cold preparation",
            test.name()
        );
    }
}

/// Per-mille scaling the breakdown search stops below: `16 000` is never
/// probed.
const SCALE_CAP: u64 = 16_000;

/// The breakdown scaling of `workload` under `test` is tight on cold
/// preparations: the reported per-mille scaling `lo` is accepted, `lo + 1`
/// is rejected unless it reaches the never-probed cap, the search reports
/// nothing exactly when the unscaled workload is rejected, and the
/// reported utilization is the cold one at `lo`.
fn assert_breakdown_tight(workload: &(impl Workload + ?Sized), test: &dyn FeasibilityTest) {
    let base = PreparedWorkload::new(workload);
    let accepts = |numer: u64| {
        test.analyze_prepared(&base.with_scaled_wcets(numer, 1_000))
            .verdict
            .is_feasible()
    };
    let Some(breakdown) = breakdown_scaling(workload, test) else {
        assert!(
            !test.analyze_prepared(&base).verdict.is_feasible(),
            "{}: no breakdown for an accepted workload",
            test.name()
        );
        return;
    };
    assert!(
        test.analyze_prepared(&base).verdict.is_feasible(),
        "{}: breakdown for a rejected workload",
        test.name()
    );
    let lo = (breakdown.factor * 1_000.0).round() as u64;
    assert_eq!(lo as f64 / 1_000.0, breakdown.factor);
    assert!(accepts(lo), "{}: scaling {lo} is rejected", test.name());
    if lo + 1 < SCALE_CAP {
        assert!(
            !accepts(lo + 1),
            "{}: scaling {lo} is not maximal",
            test.name()
        );
    }
    assert_eq!(
        breakdown.utilization_at_breakdown,
        base.with_scaled_wcets(lo, 1_000).utilization(),
        "{}: utilization at scaling {lo}",
        test.name()
    );
}

/// The slack of component `index` is tight: the component at
/// `wcet + slack` is accepted and at `wcet + slack + 1` is rejected unless
/// that passes the component's headroom (its period, or for a one-shot
/// its relative deadline); no slack exactly when the unmodified workload
/// is rejected.
fn assert_slack_tight(
    workload: &(impl Workload + ?Sized),
    index: usize,
    test: &dyn FeasibilityTest,
) {
    let base = PreparedWorkload::new(workload);
    let mut view = ScaledView::new(&base);
    let component = base.components()[index];
    let Some(slack) = wcet_slack(workload, index, test) else {
        assert!(
            !test.analyze_prepared(&base).verdict.is_feasible(),
            "{}: no slack at component {index} of an accepted workload",
            test.name()
        );
        return;
    };
    let accepted = test
        .analyze_prepared(view.with_component_wcet(index, component.wcet() + slack))
        .verdict
        .is_feasible();
    assert!(
        accepted,
        "{}: slack {slack} rejected at component {index}",
        test.name()
    );
    let headroom = match component.period() {
        Some(period) => period.saturating_sub(component.wcet()),
        None => component
            .first_deadline()
            .saturating_sub(component.release_offset())
            .saturating_sub(component.wcet()),
    };
    if slack < headroom {
        let over = test
            .analyze_prepared(view.with_component_wcet(index, component.wcet() + slack + Time::ONE))
            .verdict
            .is_feasible();
        assert!(
            !over,
            "{}: slack {slack} not maximal at component {index}",
            test.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform-scaling probes reproduce `with_scaled_wcets` exactly, for
    /// any probe sequence (the searches probe in data-dependent order).
    #[test]
    fn scaling_probes_equal_cold_preparation(
        system in arb_mixed(),
        numers in prop::collection::vec(0u64..=16_000, 1..=8),
    ) {
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        for numer in numers {
            let probed = view.scale_wcets(numer, 1_000);
            let cold = base.with_scaled_wcets(numer, 1_000);
            assert_prepared_identical(probed, &cold);
        }
    }

    /// Breakdown searches through the view match the cold-preparation
    /// reference (accepted at the reported scaling, rejected one step
    /// above it), on sporadic sets.
    #[test]
    fn breakdown_matches_reference_on_task_sets(ts in arb_set()) {
        for test in [
            Box::new(AllApproximatedTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(QpaTest::new()),
        ] {
            assert_breakdown_tight(&ts, test.as_ref());
        }
    }

    /// ... and on event-stream / mixed systems.
    #[test]
    fn breakdown_matches_reference_on_mixed_systems(system in arb_mixed()) {
        assert_breakdown_tight(&system, &AllApproximatedTest::new());
    }

    /// Breakdown searches are tight on mixed systems for the other exact
    /// tests too.
    #[test]
    fn breakdown_is_tight(system in arb_mixed()) {
        for test in [
            Box::new(QpaTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(ProcessorDemandTest::new()),
        ] {
            assert_breakdown_tight(&system, test.as_ref());
        }
    }

    /// Slack searches through the view match the fresh-probe reference for
    /// every component, report nothing past the last one, and a `TaskSet`
    /// answers exactly as the same tasks in a stream-free `MixedSystem`.
    #[test]
    fn wcet_slack_matches_reference(ts in arb_set()) {
        let test = ProcessorDemandTest::new();
        let system = MixedSystem::new(ts.clone(), Vec::new());
        for index in 0..ts.len() + 1 {
            let slack = wcet_slack(&ts, index, &test);
            if index < ts.len() {
                assert_slack_tight(&ts, index, &test);
            } else {
                prop_assert_eq!(slack, None);
            }
            prop_assert_eq!(slack, wcet_slack(&system, index, &test));
        }
    }

    /// Slack against the reference on mixed systems (stream components
    /// included).
    #[test]
    fn wcet_slack_matches_reference_on_mixed_systems(system in arb_mixed()) {
        let test = AllApproximatedTest::new();
        let components = PreparedWorkload::new(&system).components().len();
        for index in 0..components {
            assert_slack_tight(&system, index, &test);
        }
    }

    /// The batch front end reports exactly what the individual searches
    /// report.
    #[test]
    fn sweep_matches_individual_searches(
        workloads in prop::collection::vec(arb_set(), 1..=4),
    ) {
        let test = AllApproximatedTest::new();
        let reports = sensitivity_sweep(&workloads, &test);
        prop_assert_eq!(reports.len(), workloads.len());
        for (workload, report) in workloads.iter().zip(&reports) {
            prop_assert_eq!(
                report.breakdown,
                breakdown_scaling(workload, &test)
            );
            prop_assert_eq!(report.component_slack.len(), workload.len());
            for (index, slack) in report.component_slack.iter().enumerate() {
                prop_assert_eq!(*slack, wcet_slack(workload, index, &test));
            }
        }
    }

    /// The slack really is the last feasible inflation, stream components
    /// included: applying it keeps the system accepted, one more tick does
    /// not (unless capped by the headroom).
    #[test]
    fn workload_slack_is_tight(system in arb_mixed(), pick in 0usize..16) {
        // `arb_mixed` always carries at least one sporadic task.
        let index = pick % PreparedWorkload::new(&system).components().len();
        assert_slack_tight(&system, index, &ProcessorDemandTest::new());
    }

    /// Regression guard for the removed `.max(Time::ONE)` floor: a zero
    /// scaling through the view yields genuinely zero costs, utilization
    /// and demand (no silent inflation to one tick), on mixed systems
    /// where one stream task spawns several components sharing a cost.
    #[test]
    fn zero_scaling_probes_are_truly_zero(system in arb_mixed()) {
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        let zeroed = view.scale_wcets(0, 1_000);
        prop_assert!(zeroed.components().iter().all(|c| c.wcet().is_zero()));
        prop_assert_eq!(zeroed.utilization(), 0.0);
        prop_assert_eq!(zeroed.dbf(Time::new(100_000)), Time::ZERO);
    }
}

/// A sporadic task beside a bursty stream: both searches are tight for
/// every component.
#[test]
fn searches_are_tight_on_a_mixed_system() {
    let system = MixedSystem::new(
        TaskSet::from_tasks(vec![Task::from_ticks(1, 5, 20).expect("valid task")]),
        vec![EventStreamTask::new(
            EventStream::bursty(2, Time::new(3), Time::new(50)),
            Time::new(2),
            Time::new(10),
        )
        .expect("valid stream task")],
    );
    let test = AllApproximatedTest::new();
    assert_breakdown_tight(&system, &test);
    let components = PreparedWorkload::new(&system).components().len();
    assert!(components > 1);
    for index in 0..components {
        assert_slack_tight(&system, index, &test);
    }
}

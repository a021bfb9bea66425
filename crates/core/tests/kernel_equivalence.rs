//! Property tests of the columnar demand kernel's contract: every demand
//! query answers bit for bit what the saturating folds of the
//! `DemandComponent` methods answer, and the merged deadline streams equal
//! a sorted list of all jobs.
//!
//! `dbf` is constant between consecutive job deadlines and
//! `last_deadline_below` between consecutive `deadline + 1` points, so
//! checking `dbf(d)`, `dbf(d − 1)`, `last_deadline_below(d)`,
//! `last_deadline_below(d + 1)` and every per-component demand at each
//! job deadline `d` up to the analysis horizon (plus 0 and the horizon)
//! covers every interval an analysis can query.  On top of that, every
//! registered test's decisive verdict must agree with the fold oracle's
//! and every overload witness must be an overload of the fold, reporting
//! the fold's demand at its interval.  Covered
//! workload families: sporadic task sets, event streams, mixed systems,
//! arrival curves (exact and conservative), transaction systems and raw
//! component lists straddling 2³², plus `ScaledView`-over-kernel probes
//! against cold preparations and the allocation-free batch path against
//! per-workload preparation.

use edf_analysis::batch::{analyze_many_serial, BoxedTest};
use edf_analysis::incremental::ScaledView;
use edf_analysis::kernel::AnalysisScratch;
use edf_analysis::workload::{DemandComponent, MixedSystem, PreparedWorkload, Workload};
use edf_analysis::{all_tests, FeasibilityTest, Verdict};
use edf_model::{
    AffineSegment, ArrivalCurve, ArrivalCurveTask, EventStream, EventStreamTask, Task, TaskSet,
    Time, Transaction, TransactionPart, TransactionSystem,
};
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

/// `u32::MAX`: the boundary the straddle family's values sit around.
const NEAR_32: u64 = u32::MAX as u64;

/// A parameter value either small or within 40 of `u32::MAX`, on either
/// side of it.
fn arb_straddle_value() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..=120, (NEAR_32 - 40)..=(NEAR_32 + 40)]
}

/// Raw component lists whose deadlines, periods and costs straddle
/// `u32::MAX` in every combination, so products and sums cross 2³² and
/// 2⁶⁴ (generator-backed workload models never reach these magnitudes).
fn arb_straddle_components() -> impl Strategy<Value = Vec<DemandComponent>> {
    prop::collection::vec(
        (
            arb_straddle_value(),
            arb_straddle_value(),
            arb_straddle_value(),
            0u8..3,
        ),
        1..=6,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(wcet, deadline, period, kind)| match kind {
                0 => DemandComponent::one_shot(Time::new(wcet), Time::new(deadline), Time::ZERO),
                1 => DemandComponent::periodic(
                    Time::new(wcet.min(period)),
                    Time::new(deadline),
                    Time::new(period),
                ),
                _ => DemandComponent::periodic_from(
                    Time::new(wcet.min(period)),
                    Time::new(deadline),
                    Time::new(period),
                    Time::new(wcet % 97),
                ),
            })
            .collect()
    })
}

/// Probe intervals for the straddle family: a dense low range, the
/// `u32::MAX` neighbourhood (both sides of it), and the neighbourhood of
/// every component deadline and first period step.
fn straddle_probes(prepared: &PreparedWorkload) -> Vec<Time> {
    let mut probes: Vec<u64> = (0..=64).collect();
    probes.extend([NEAR_32 - 1, NEAR_32, NEAR_32 + 1, 2 * NEAR_32 + 17]);
    for component in prepared.components() {
        let d = component.first_deadline().as_u64();
        probes.extend([d.saturating_sub(1), d, d + 1, d.saturating_add(NEAR_32)]);
        if let Some(p) = component.period() {
            let p = p.as_u64();
            probes.extend([d + p - 1, d + p, d + p + 1, d.saturating_add(3 * p)]);
        }
    }
    probes.into_iter().map(Time::new).collect()
}

fn arb_transaction_system() -> impl Strategy<Value = TransactionSystem> {
    (
        prop::collection::vec(arb_task(), 0..=2),
        prop::collection::vec((0u64..=20, 1u64..=5, 1u64..=25), 1..=3),
        30u64..=60,
    )
        .prop_filter_map("valid transaction", |(sporadic, parts, period)| {
            let parts: Vec<TransactionPart> = parts
                .into_iter()
                .map(|(o, c, d)| {
                    TransactionPart::new(Time::new(o % period), Time::new(c), Time::new(d))
                })
                .collect();
            let transaction = Transaction::new(Time::new(period), parts).ok()?;
            Some(TransactionSystem::new(
                TaskSet::from_tasks(sporadic),
                vec![transaction],
            ))
        })
}

/// The saturating fold of [`DemandComponent::dbf`].
fn fold_dbf(components: &[DemandComponent], interval: Time) -> Time {
    components
        .iter()
        .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(interval)))
}

/// The fold of [`DemandComponent::last_deadline_below`].
fn fold_last_below(components: &[DemandComponent], limit: Time) -> Option<Time> {
    components
        .iter()
        .filter_map(|c| c.last_deadline_below(limit))
        .max()
}

/// Every job `(deadline, component, cost)` with deadline `≤ horizon`,
/// listed per component and sorted as one list: the merge order,
/// computed without windows.
fn sorted_jobs(components: &[DemandComponent], horizon: Time) -> Vec<(Time, usize, Time)> {
    let mut jobs = Vec::new();
    for (idx, component) in components.iter().enumerate() {
        let mut deadline = Some(component.first_deadline());
        while let Some(d) = deadline.filter(|&d| d <= horizon) {
            jobs.push((d, idx, component.wcet()));
            deadline = component.period().and_then(|p| d.checked_add(p));
        }
    }
    jobs.sort_unstable();
    jobs
}

/// Upper end of the job-deadline checks.  The generated `U ≤ 1`
/// workloads' analysis horizons stay far below it (under 1 000 in a
/// sample of 240); a `U > 1` workload's horizon is its hyperperiod, which
/// no test walks.
const CHECK_CAP: Time = Time::new(20_000);

/// What the folds say about the components: `Some(true)` when some
/// interval overloads them, `Some(false)` when none up to the analysis
/// horizon does, `None` when the horizon is unknown or past the checks.
fn fold_oracle(prepared: &PreparedWorkload, jobs: &[(Time, usize, Time)]) -> Option<bool> {
    if prepared.utilization_exceeds_one() {
        return Some(true);
    }
    let components = prepared.components();
    if jobs.iter().any(|&(d, _, _)| fold_dbf(components, d) > d) {
        return Some(true);
    }
    let horizon = prepared.analysis_horizon()?;
    (horizon <= CHECK_CAP).then_some(false)
}

/// Compares every demand query of `prepared` against the folds at each
/// job deadline `≤ horizon`, at 0 and at `horizon`, and the event and step
/// merges against the sorted job list.  Returns the job list.
fn assert_queries_match_folds(
    prepared: &PreparedWorkload,
    horizon: Time,
) -> Vec<(Time, usize, Time)> {
    let components = prepared.components();
    let jobs = sorted_jobs(components, horizon);
    let mut points: Vec<Time> = jobs.iter().map(|&(d, _, _)| d).collect();
    points.extend([Time::ZERO, horizon]);
    points.sort_unstable();
    points.dedup();
    for &d in &points {
        for t in [d, d.saturating_sub(Time::ONE)] {
            assert_eq!(prepared.dbf(t), fold_dbf(components, t), "dbf at {t}");
        }
        for t in [d, d.saturating_add(Time::ONE)] {
            assert_eq!(
                prepared.last_deadline_below(t),
                fold_last_below(components, t),
                "last_deadline_below at {t}"
            );
        }
        for (j, component) in components.iter().enumerate() {
            assert_eq!(
                prepared.kernel().component_demand(j, d),
                component.dbf(d),
                "component {j} demand at {d}"
            );
        }
    }

    assert_merges_equal_jobs(prepared, horizon, &jobs);
    jobs
}

/// The event and step merges up to `horizon` against `jobs`, the sorted
/// job list: events one per job, steps one per distinct deadline with
/// the costs of its jobs summed (saturating).
fn assert_merges_equal_jobs(
    prepared: &PreparedWorkload,
    horizon: Time,
    jobs: &[(Time, usize, Time)],
) {
    let events: Vec<(Time, usize)> = prepared
        .demand_events(horizon)
        .map(|e| (e.interval, e.component))
        .collect();
    let expected: Vec<(Time, usize)> = jobs.iter().map(|&(d, c, _)| (d, c)).collect();
    assert_eq!(events, expected, "demand_events up to {horizon}");

    let mut expected_steps: Vec<(Time, Time)> = Vec::new();
    for &(d, _, cost) in jobs {
        match expected_steps.last_mut() {
            Some((last, demand)) if *last == d => *demand = demand.saturating_add(cost),
            _ => expected_steps.push((d, cost)),
        }
    }
    let mut scratch = AnalysisScratch::new();
    let steps: Vec<(Time, Time)> = prepared.demand_steps(horizon, &mut scratch).collect();
    assert_eq!(steps, expected_steps, "demand_steps up to {horizon}");
}

/// The merges of a raw component list against its sorted job list.
fn assert_component_merges_equal_jobs(components: Vec<DemandComponent>, horizon: Time) {
    let jobs = sorted_jobs(&components, horizon);
    assert_merges_equal_jobs(
        &PreparedWorkload::from_components(components),
        horizon,
        &jobs,
    );
}

/// Every query and merge of the workload's kernel against the folds, then
/// every registered test against the fold oracle: a decisive verdict
/// agrees with it, and an overload witness is an overload of the fold
/// that reports the fold's demand.
fn assert_analyses_match_folds<W: Workload + ?Sized>(workload: &W) {
    let prepared = PreparedWorkload::new(workload);
    let horizon = prepared
        .analysis_horizon()
        .unwrap_or(CHECK_CAP)
        .min(CHECK_CAP);
    let jobs = assert_queries_match_folds(&prepared, horizon);
    let oracle = fold_oracle(&prepared, &jobs);
    let components = prepared.components();
    for test in all_tests() {
        let analysis = test.analyze_prepared(&prepared);
        if let Some(overloaded) = oracle {
            match analysis.verdict {
                Verdict::Feasible => assert!(!overloaded, "{} accepts an overload", test.name()),
                Verdict::Infeasible => {
                    assert!(overloaded, "{} rejects a feasible set", test.name());
                }
                Verdict::Unknown => {}
            }
        }
        if let Some(witness) = analysis.overload {
            let demand = fold_dbf(components, witness.interval);
            assert!(demand > witness.interval, "{} witness", test.name());
            assert_eq!(witness.demand, demand, "{} witness demand", test.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `dbf` and `last_deadline_below` equal the folds at every interval of
    /// a dense range past the analysis horizon, not only at job deadlines:
    /// the premise that the job-deadline checks cover every interval.
    #[test]
    fn primitives_match_scalar_on_mixed_systems(system in arb_mixed()) {
        let prepared = PreparedWorkload::new(&system);
        let components = prepared.components();
        let horizon = prepared
            .analysis_horizon()
            .unwrap_or(Time::new(200))
            .min(Time::new(400));
        for i in 0..=horizon.as_u64() + 2 {
            let i = Time::new(i);
            prop_assert_eq!(prepared.dbf(i), fold_dbf(components, i), "dbf at {}", i);
            prop_assert_eq!(
                prepared.last_deadline_below(i),
                fold_last_below(components, i),
                "last_deadline_below at {}", i
            );
        }
    }

    /// The merged events and coalesced steps equal the sorted job list at
    /// arbitrary horizons, per-job ties in component order included.
    #[test]
    fn demand_events_and_steps_equal_sorted_job_list(
        system in arb_mixed(),
        horizon in 0u64..=400,
    ) {
        assert_queries_match_folds(&PreparedWorkload::new(&system), Time::new(horizon));
    }

    /// Streams of one period `T` generate in windows of `W ≈ 8T`.  First
    /// deadlines drawn from a few clustered values give equal-deadline runs
    /// at every offset from the window edges, so some runs straddle each
    /// window boundary.
    #[test]
    fn equal_deadline_runs_across_window_edges_equal_sorted_job_list(
        period in 1u64..=12,
        firsts in prop::collection::vec(0u64..=24, 2..=7),
        costs in prop::collection::vec(1u64..=5, 7),
        horizon in 0u64..=600,
    ) {
        let components = firsts
            .iter()
            .zip(&costs)
            .map(|(&first, &cost)| {
                let first = first / 3 * period + first % 3;
                DemandComponent::periodic(Time::new(cost), Time::new(first), Time::new(period))
            })
            .collect();
        assert_component_merges_equal_jobs(components, Time::new(horizon));
    }

    /// Queries, merges and analyses against the folds on sporadic task
    /// sets.
    #[test]
    fn analyses_match_on_task_sets(ts in arb_set()) {
        assert_analyses_match_folds(&ts);
    }

    /// ... on event-stream tasks.
    #[test]
    fn analyses_match_on_event_streams(task in arb_stream_task()) {
        assert_analyses_match_folds(&task);
    }

    /// ... on mixed systems.
    #[test]
    fn analyses_match_on_mixed_systems(system in arb_mixed()) {
        assert_analyses_match_folds(&system);
    }

    /// ... on arrival-curve tasks (exact and conservative decompositions;
    /// the conservative mode exercises the one-shot prefix-sum columns).
    #[test]
    fn analyses_match_on_arrival_curves(task in arb_curve_task()) {
        assert_analyses_match_folds(&task);
    }

    /// ... on transaction systems (synchronous-conservative reduction).
    #[test]
    fn analyses_match_on_transaction_systems(system in arb_transaction_system()) {
        assert_analyses_match_folds(&system);
    }
    /// Scratch reuse never changes a result: analyzing many workloads
    /// through one scratch arena equals fresh-scratch analyses.
    #[test]
    fn scratch_reuse_is_observationally_pure(
        systems in prop::collection::vec(arb_mixed(), 1..=4),
    ) {
        let suite = all_tests();
        let mut scratch = AnalysisScratch::new();
        for system in &systems {
            let prepared = PreparedWorkload::new(system);
            for test in &suite {
                prop_assert_eq!(
                    test.analyze_prepared_with(&prepared, &mut scratch),
                    test.analyze_prepared(&prepared),
                    "{} diverges under scratch reuse", test.name()
                );
            }
        }
    }

    /// The allocation-free batch path (recycled preparation + per-worker
    /// scratch) equals per-workload preparation.
    #[test]
    fn recycled_batch_preparation_matches_fresh(
        workloads in prop::collection::vec(arb_set(), 1..=5),
    ) {
        let tests: Vec<BoxedTest> = all_tests();
        let batch = analyze_many_serial(&workloads, &tests);
        for (i, workload) in workloads.iter().enumerate() {
            let prepared = PreparedWorkload::new(workload);
            for (j, test) in tests.iter().enumerate() {
                prop_assert_eq!(
                    &batch[i][j],
                    &test.analyze_prepared(&prepared),
                    "workload {} test {}", i, j
                );
            }
        }
    }

    /// `ScaledView` probes over the kernel equal cold preparations of the
    /// same scaled components — including interleaved overload scalings
    /// (bounds skipped) and the kernel's rebuilt one-shot prefix sums.
    #[test]
    fn scaled_view_over_kernel_matches_cold_preparation(
        system in arb_mixed(),
        numers in prop::collection::vec(0u64..=16_000, 1..=6),
    ) {
        let base = PreparedWorkload::new(&system);
        // Touch the base's kernel before probing: the probes must not
        // depend on whether the base has built one.
        let _ = base.dbf(Time::new(1));
        let mut view = ScaledView::new(&base);
        for numer in numers {
            let probed = view.scale_wcets(numer, 1_000);
            let cold = base.with_scaled_wcets(numer, 1_000);
            prop_assert_eq!(probed.components(), cold.components());
            let horizon = cold.analysis_horizon().unwrap_or(Time::new(120)).min(Time::new(240));
            for i in 0..=horizon.as_u64() {
                let i = Time::new(i);
                prop_assert_eq!(probed.dbf(i), cold.dbf(i), "dbf at {}", i);
                prop_assert_eq!(
                    probed.last_deadline_below(i),
                    cold.last_deadline_below(i),
                    "predecessor at {}", i
                );
            }
            for test in all_tests() {
                prop_assert_eq!(
                    test.analyze_prepared(probed),
                    test.analyze_prepared(&cold),
                    "{} diverges between view-over-kernel and cold preparation",
                    test.name()
                );
            }
        }
    }

    /// `dbf` and `last_deadline_below` on deadlines, periods and costs near
    /// and above 2³², in every combination, equal the folds bit for bit
    /// (saturation included), on probe intervals on both sides of
    /// `u32::MAX`.
    #[test]
    fn dbf_and_predecessor_near_and_above_2_32_match_scalar(
        components in arb_straddle_components(),
    ) {
        let prepared = PreparedWorkload::from_components(components);
        let components = prepared.components();
        for &i in &straddle_probes(&prepared) {
            prop_assert_eq!(prepared.dbf(i), fold_dbf(components, i), "dbf at {}", i);
            prop_assert_eq!(
                prepared.last_deadline_below(i),
                fold_last_below(components, i),
                "predecessor at {}", i
            );
            for (j, component) in components.iter().enumerate() {
                prop_assert_eq!(
                    prepared.kernel().component_demand(j, i),
                    component.dbf(i),
                    "component {} demand at {}", j, i
                );
            }
        }
    }

    /// Cost rewrites across 2³² mid-`ScaledView`: probing a wide-period
    /// component's cost above `u32::MAX` and back below it always equals a
    /// cold preparation of the same components, full analyses included.
    #[test]
    fn cost_rewrites_across_2_32_mid_scaled_view_match_cold(
        ts in arb_set(),
        wcets in prop::collection::vec(
            prop_oneof![1u64..=1_000, (NEAR_32 - 2)..=(NEAR_32 + 1_000)],
            1..=5,
        ),
    ) {
        let wide_period = 4 * NEAR_32;
        let mut components = ts.demand_components();
        components.push(DemandComponent::periodic(
            Time::new(5),
            Time::new(40),
            Time::new(wide_period),
        ));
        let wide_idx = components.len() - 1;
        let base = PreparedWorkload::from_components(components.clone());
        // Touch the base's kernel, as above.
        let _ = base.dbf(Time::new(1));
        let mut view = ScaledView::new(&base);
        let suite = all_tests();
        for wcet in wcets {
            let probed = view.with_component_wcet(wide_idx, Time::new(wcet));
            let mut cold_components = components.clone();
            cold_components[wide_idx] = DemandComponent::periodic(
                Time::new(wcet.min(wide_period)),
                Time::new(40),
                Time::new(wide_period),
            );
            let cold = PreparedWorkload::from_components(cold_components);
            prop_assert_eq!(probed.components(), cold.components());
            for i in (0..=120).chain([NEAR_32 - 1, NEAR_32, NEAR_32 + 40, NEAR_32 + 41]) {
                let i = Time::new(i);
                prop_assert_eq!(probed.dbf(i), cold.dbf(i), "dbf at {}", i);
                prop_assert_eq!(
                    probed.last_deadline_below(i),
                    cold.last_deadline_below(i),
                    "predecessor at {}", i
                );
            }
            for test in &suite {
                prop_assert_eq!(
                    test.analyze_prepared(probed),
                    test.analyze_prepared(&cold),
                    "{} diverges between rewritten view and cold preparation",
                    test.name()
                );
            }
        }
    }
}

/// The windowed merge's edge cases against the sorted job list: a list
/// of one-shots only (zero density, so the window takes its cap), a
/// period-1 stream beside a 10⁹-period one (windows of 16 ticks that the
/// slow stream sits out for many windows), horizons at and near
/// `Time::MAX` where `d + T` overflows, and more than 2¹⁶ components, so
/// the packed keys carry a 17-bit component index.
#[test]
fn window_edges_equal_sorted_job_list() {
    let one_shot =
        |c: u64, d: u64| DemandComponent::one_shot(Time::new(c), Time::new(d), Time::ZERO);
    let periodic = |c: u64, d: u64, p: u64| {
        DemandComponent::periodic(Time::new(c), Time::new(d), Time::new(p))
    };

    let one_shots: Vec<DemandComponent> = (0..50u64)
        .map(|i| one_shot(1 + i % 4, i * 37 % 23))
        .collect();
    for horizon in [0, 11, 22, 1_000, u64::MAX] {
        assert_component_merges_equal_jobs(one_shots.clone(), Time::new(horizon));
    }

    let skewed = vec![
        periodic(1, 1, 1),
        periodic(7, 500, 1_000_000_000),
        one_shot(2, 900),
    ];
    for horizon in [0, 499, 500, 501, 5_000] {
        assert_component_merges_equal_jobs(skewed.clone(), Time::new(horizon));
    }

    const MAX: u64 = u64::MAX;
    let near_max = vec![
        periodic(1, MAX - 10, 3),
        periodic(2, MAX - 4, 4),
        periodic(3, 5, 1 << 62),
        periodic(4, MAX, 1),
        one_shot(5, MAX),
        one_shot(6, MAX - 1),
    ];
    for horizon in [MAX, MAX - 1, MAX - 4, MAX - 7, 1 << 63] {
        assert_component_merges_equal_jobs(near_max.clone(), Time::new(horizon));
    }

    let many: Vec<DemandComponent> = (0..(1u64 << 16) + 100)
        .map(|i| match i % 3 {
            0 => one_shot(1, 1 + i * 7_919 % 1_000),
            _ => periodic(1 + i % 5, 1 + i * 7_919 % 1_000, 400 + i % 97),
        })
        .collect();
    assert_component_merges_equal_jobs(many, Time::new(1_600));
}

/// Deterministic spot check: a feasible `U = 1` set on which `SuperPos(2)`
/// fails at interval 10, where the exact demand is 10.  A witness there
/// would name an interval that is not overloaded, so the level-capped
/// `Unknown` reports none.
#[test]
fn level_capped_unknown_reports_no_witness() {
    let ts = TaskSet::from_tasks(vec![
        Task::from_ticks(1, 1, 5).unwrap(),
        Task::from_ticks(4, 5, 5).unwrap(),
    ]);
    assert_analyses_match_folds(&ts);
}

/// Deterministic spot check: the overload witness of the event-walking
/// and the QPA-style exact tests is an overload of the fold, interval and
/// demand.
#[test]
fn overload_witnesses_are_preserved() {
    use edf_analysis::tests::{ProcessorDemandTest, QpaTest};

    let ts = TaskSet::from_tasks(vec![
        Task::from_ticks(3, 4, 10).unwrap(),
        Task::from_ticks(4, 6, 10).unwrap(),
        Task::from_ticks(2, 5, 12).unwrap(),
    ]);
    let prepared = PreparedWorkload::new(&ts);
    for test in [
        Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
        Box::new(QpaTest::new()),
    ] {
        let analysis = test.analyze_prepared(&prepared);
        assert_eq!(analysis.verdict, Verdict::Infeasible, "{}", test.name());
        let witness = analysis.overload.expect("infeasible set has a witness");
        let demand = fold_dbf(prepared.components(), witness.interval);
        assert_eq!(witness.demand, demand, "{}", test.name());
        assert!(demand > witness.interval, "{}", test.name());
    }
}

//! Property tests of the columnar demand kernel's contract: every analysis
//! through the kernel path is **bit-identical** to the retained scalar
//! reference — verdicts, iteration counts, examined intervals and overload
//! witnesses — and the kernel primitives (`dbf`, `last_deadline_below`,
//! the loser-tree event merge) equal the scalar folds and the heap merge
//! they replaced.  Covered workload families:
//! sporadic task sets, event streams, mixed systems, arrival curves
//! (exact and conservative) and transaction systems, plus
//! `ScaledView`-over-kernel probes against cold preparations and the
//! allocation-free batch path against per-workload preparation.

use edf_analysis::batch::{analyze_many_serial, BoxedTest};
use edf_analysis::incremental::ScaledView;
use edf_analysis::kernel::{reference, AnalysisScratch};
use edf_analysis::workload::{DemandComponent, MixedSystem, PreparedWorkload, Workload};
use edf_analysis::{all_tests, FeasibilityTest};
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

/// Runs every registered test on the kernel-backed preparation and on the
/// scalar-reference oracle, asserting bit-identical analyses (verdict,
/// iteration count, max examined interval, overload witness).
fn assert_kernel_equals_scalar<W: Workload + ?Sized>(workload: &W) {
    let kernel = PreparedWorkload::new(workload);
    let scalar = kernel.scalar_reference();
    for test in all_tests() {
        assert_eq!(
            test.analyze_prepared(&kernel),
            test.analyze_prepared(&scalar),
            "{} diverges between kernel and scalar demand paths",
            test.name()
        );
    }
}

/// Asserts the kernel primitives equal the scalar folds over a dense
/// interval range plus the exact analysis horizon neighbourhood.
fn assert_primitives_equal(prepared: &PreparedWorkload) {
    let scalar = prepared.scalar_reference();
    let horizon = prepared
        .analysis_horizon()
        .unwrap_or(Time::new(200))
        .min(Time::new(400));
    for i in 0..=horizon.as_u64() + 2 {
        let i = Time::new(i);
        assert_eq!(prepared.dbf(i), scalar.dbf(i), "dbf at {i}");
        assert_eq!(
            prepared.last_deadline_below(i),
            scalar.last_deadline_below(i),
            "last_deadline_below at {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel primitives equal the scalar folds on mixed systems (the
    /// richest single decomposition: periodic + offset + one-shot mix).
    #[test]
    fn primitives_match_scalar_on_mixed_systems(system in arb_mixed()) {
        assert_primitives_equal(&PreparedWorkload::new(&system));
    }

    /// The loser-tree merge yields exactly the heap merge's event
    /// sequence, per-job ties in component order included.
    #[test]
    fn loser_tree_merge_equals_heap_merge(system in arb_mixed(), horizon in 1u64..=400) {
        let prepared = PreparedWorkload::new(&system);
        let horizon = Time::new(horizon);
        let tree: Vec<(Time, usize)> = prepared
            .demand_events(horizon)
            .map(|e| (e.interval, e.component))
            .collect();
        let heap: Vec<(Time, usize)> =
            reference::demand_events(prepared.components(), horizon)
                .map(|e| (e.interval, e.component))
                .collect();
        prop_assert_eq!(tree, heap);
    }

    /// Full-analysis equivalence on sporadic task sets.
    #[test]
    fn analyses_match_on_task_sets(ts in arb_set()) {
        assert_kernel_equals_scalar(&ts);
    }

    /// ... on event-stream tasks.
    #[test]
    fn analyses_match_on_event_streams(task in arb_stream_task()) {
        assert_kernel_equals_scalar(&task);
    }

    /// ... on mixed systems.
    #[test]
    fn analyses_match_on_mixed_systems(system in arb_mixed()) {
        assert_kernel_equals_scalar(&system);
    }

    /// ... on arrival-curve tasks (exact and conservative decompositions;
    /// the conservative mode exercises the one-shot prefix-sum columns).
    #[test]
    fn analyses_match_on_arrival_curves(task in arb_curve_task()) {
        assert_kernel_equals_scalar(&task);
    }

    /// ... on transaction systems (synchronous-conservative reduction).
    #[test]
    fn analyses_match_on_transaction_systems(system in arb_transaction_system()) {
        assert_kernel_equals_scalar(&system);
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
    /// (bounds skipped) and the kernel's rewritten one-shot prefix sums.
    #[test]
    fn scaled_view_over_kernel_matches_cold_preparation(
        system in arb_mixed(),
        numers in prop::collection::vec(0u64..=16_000, 1..=6),
    ) {
        let base = PreparedWorkload::new(&system);
        // Touch the kernel before probing so every probe rewrites live
        // columns rather than building fresh ones.
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
    /// and above 2³², in every combination, equal the scalar oracle bit
    /// for bit, on probe intervals on both sides of `u32::MAX`.
    #[test]
    fn dbf_and_predecessor_near_and_above_2_32_match_scalar(
        components in arb_straddle_components(),
    ) {
        let prepared = PreparedWorkload::from_components(components);
        let scalar = prepared.scalar_reference();
        let probes = straddle_probes(&prepared);
        for &i in &probes {
            prop_assert_eq!(prepared.dbf(i), scalar.dbf(i), "dbf at {}", i);
            prop_assert_eq!(
                prepared.last_deadline_below(i),
                scalar.last_deadline_below(i),
                "predecessor at {}", i
            );
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
        // Touch the kernel so every probe rewrites live columns.
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

    /// A `ScaledView` over the scalar oracle runs entirely on the scalar
    /// path and still equals the kernel view — whole probe sequences
    /// compare equal end to end.
    #[test]
    fn scalar_view_probes_match_kernel_view_probes(
        system in arb_mixed(),
        numers in prop::collection::vec(0u64..=8_000, 1..=4),
    ) {
        let kernel_base = PreparedWorkload::new(&system);
        let scalar_base = kernel_base.scalar_reference();
        let mut kernel_view = ScaledView::new(&kernel_base);
        let mut scalar_view = ScaledView::new(&scalar_base);
        let suite = all_tests();
        for numer in numers {
            let kernel_probe = kernel_view.scale_wcets(numer, 1_000);
            let scalar_probe = scalar_view.scale_wcets(numer, 1_000);
            for test in &suite {
                prop_assert_eq!(
                    test.analyze_prepared(kernel_probe),
                    test.analyze_prepared(scalar_probe),
                    "{} diverges between kernel and scalar views", test.name()
                );
            }
        }
    }
}

/// Deterministic spot check: the overload witness survives the kernel
/// rebuild exactly (interval and demand), for both the event-walking and
/// the QPA-style exact tests.
#[test]
fn overload_witnesses_are_preserved() {
    use edf_analysis::tests::{ProcessorDemandTest, QpaTest};

    let ts = TaskSet::from_tasks(vec![
        Task::from_ticks(3, 4, 10).unwrap(),
        Task::from_ticks(4, 6, 10).unwrap(),
        Task::from_ticks(2, 5, 12).unwrap(),
    ]);
    let kernel = PreparedWorkload::new(&ts);
    let scalar = kernel.scalar_reference();
    for test in [
        Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
        Box::new(QpaTest::new()),
    ] {
        let a = test.analyze_prepared(&kernel);
        let b = test.analyze_prepared(&scalar);
        assert_eq!(a, b, "{}", test.name());
        let witness = a.overload.expect("infeasible set has a witness");
        assert!(witness.demand > witness.interval);
    }
}

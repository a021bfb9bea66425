//! Overflow hardening: workloads with parameters at or near `u64::MAX`
//! must never panic, wrap, or produce an unsound verdict anywhere in the
//! pipeline — bound computation (the period-lcm chain saturates to
//! `None`), exact rational utilization sums, demand queries at
//! `Time::MAX`, capped anytime analysis, and the incremental edit path.
//!
//! The soundness contract under saturation is asymmetric: a decisive
//! verdict must still be *correct* (decisive answers from the capped
//! test are exact), while `Unknown` is always acceptable.  These tests
//! therefore pin crash-freedom everywhere and decisiveness only where
//! the ground truth is analytically obvious (`U > 1` is infeasible; a
//! lone component with `C = D = T` is feasible).

use edf_analysis::bounds::{
    baruah_components, busy_period_components, george_components, hyperperiod_components,
    FeasibilityBounds,
};
use edf_analysis::incremental::{EditView, ScaledView};
use edf_analysis::kernel::AnalysisScratch;
use edf_analysis::tests::{AllApproximatedTest, DensityTest, LiuLaylandTest};
use edf_analysis::workload::DemandComponent;
use edf_analysis::{FeasibilityTest, PreparedWorkload, Verdict};
use edf_model::Time;
use proptest::prelude::*;

/// `2^63` and `2^63 - 1` are coprime, so their lcm (`~2^126`) overflows
/// any `u64` chain: the hyperperiod must saturate to `None`, never wrap.
const HUGE_A: u64 = 1 << 63;
const HUGE_B: u64 = (1 << 63) - 1;

fn huge(wcet: u64, deadline: u64, period: u64) -> DemandComponent {
    DemandComponent::periodic(Time::new(wcet), Time::new(deadline), Time::new(period))
}

#[test]
fn period_lcm_saturates_to_none_instead_of_wrapping() {
    let components = vec![huge(1, HUGE_A, HUGE_A), huge(1, HUGE_B, HUGE_B)];
    // A wrapped lcm would come out tiny and produce a (dangerously small)
    // bogus hyperperiod; saturation must report "no bound" instead.
    assert_eq!(hyperperiod_components(&components), None);
    // The other bound families must also survive the magnitudes (they are
    // free to answer None; they must not panic or wrap below max D).
    for bound in [
        baruah_components(&components),
        george_components(&components),
        busy_period_components(&components),
    ]
    .into_iter()
    .flatten()
    {
        assert!(bound >= Time::new(1), "degenerate bound {bound:?}");
    }
    let bounds = FeasibilityBounds::for_components(&components);
    let _ = bounds.analysis_horizon();
    let _ = bounds.qpa_horizon();
}

#[test]
fn bound_refresher_survives_huge_periods_across_wcet_refreshes() {
    // The period-lcm chain a `ScaledView` keeps is saturated (coprime huge
    // periods); its WCET probes must keep the analysis horizon equal to
    // the reference bounds, from near-zero cost through the overloaded
    // regime (`U` near 2) and back.
    let base =
        PreparedWorkload::from_components(vec![huge(1, HUGE_A, HUGE_A), huge(1, HUGE_B, HUGE_B)]);
    let mut view = ScaledView::new(&base);
    for wcet in [1u64, 1 << 40, HUGE_B, 1] {
        // Both costs at `wcet`, then each alone.
        let probed = view.scale_wcets(wcet, 1);
        assert_eq!(
            probed.analysis_horizon(),
            FeasibilityBounds::for_components(probed.components()).analysis_horizon(),
            "wcet {wcet}"
        );
        assert_eq!(
            probed.qpa_horizon(),
            FeasibilityBounds::for_components(probed.components()).qpa_horizon(),
            "wcet {wcet}"
        );
        for index in 0..2 {
            let probed = view.with_component_wcet(index, Time::new(wcet));
            assert_eq!(
                probed.analysis_horizon(),
                FeasibilityBounds::for_components(probed.components()).analysis_horizon(),
                "wcet {wcet} on component {index}"
            );
            assert_eq!(
                probed.qpa_horizon(),
                FeasibilityBounds::for_components(probed.components()).qpa_horizon(),
                "wcet {wcet} on component {index}"
            );
        }
    }
}

#[test]
fn utilization_overload_near_max_is_detected_exactly() {
    // Two components each with C = T = u64::MAX: U = 2 exactly.  The
    // rational sum must overflow-safely conclude U > 1, and every
    // utilization-based test must answer a decisive (exact) Infeasible.
    let components = vec![
        huge(u64::MAX, u64::MAX, u64::MAX),
        huge(u64::MAX, u64::MAX, u64::MAX),
    ];
    let prepared = PreparedWorkload::from_components(components);
    assert!(prepared.utilization_exceeds_one());
    assert_eq!(
        LiuLaylandTest::new().analyze_prepared(&prepared).verdict,
        Verdict::Infeasible
    );
    assert_eq!(
        AllApproximatedTest::new()
            .with_max_level(2)
            .analyze_prepared(&prepared)
            .verdict,
        Verdict::Infeasible
    );
}

#[test]
fn lone_saturated_component_is_feasible_and_queryable_at_time_max() {
    // C = D = T = u64::MAX: dbf(t) <= t for every t, so the workload is
    // feasible, U = 1 exactly, and demand at Time::MAX must not wrap.
    let prepared = PreparedWorkload::from_components(vec![huge(u64::MAX, u64::MAX, u64::MAX)]);
    assert!(!prepared.utilization_exceeds_one());
    assert_eq!(prepared.dbf(Time::MAX), Time::MAX);
    assert_eq!(prepared.dbf(Time::new(u64::MAX - 1)), Time::ZERO);
    let analysis = AllApproximatedTest::new().analyze_prepared(&prepared);
    assert_eq!(analysis.verdict, Verdict::Feasible);
}

#[test]
fn tiny_utilization_with_huge_coprime_periods_is_decided_without_a_bound() {
    // Density is minuscule but the hyperperiod overflows: the sufficient
    // tests must still accept from the utilization/density side alone.
    let components = vec![huge(1, HUGE_A, HUGE_A), huge(1, HUGE_B, HUGE_B)];
    let prepared = PreparedWorkload::from_components(components);
    assert!(!prepared.utilization_exceeds_one());
    assert_eq!(
        DensityTest::new().analyze_prepared(&prepared).verdict,
        Verdict::Feasible
    );
}

#[test]
fn edit_view_survives_saturated_components() {
    let mut scratch = AnalysisScratch::new();
    let base = PreparedWorkload::from_components(vec![huge(1, 9, 10)]);
    let mut view = EditView::new(&base);
    let index = view.insert_component(huge(u64::MAX, u64::MAX, u64::MAX));
    let capped = AllApproximatedTest::new().with_max_level(4);
    let verdict = capped
        .analyze_prepared_with(view.prepared(), &mut scratch)
        .verdict;
    // Aggregate demand exceeds u64::MAX in some intervals; a decisive
    // answer must be Infeasible (the combined U > 1), Unknown is fine.
    assert_ne!(verdict, Verdict::Feasible);
    view.remove_component(index);
    view.commit();
    let verdict = capped
        .analyze_prepared_with(view.prepared(), &mut scratch)
        .verdict;
    assert_eq!(verdict, Verdict::Feasible);
}

/// Near-`u64::MAX` parameter soup: values drawn from the top of the
/// range mixed with small ones.  Nothing may panic, and any decisive
/// verdict must be consistent with the exact `U > 1` overload check.
fn arb_extreme_component() -> impl Strategy<Value = DemandComponent> {
    let extreme = prop_oneof![
        (u64::MAX - 8)..=u64::MAX,
        1u64..=4u64,
        HUGE_A..=HUGE_A,
        HUGE_B..=HUGE_B,
    ];
    (extreme.clone(), extreme.clone(), extreme).prop_map(|(c, d, t)| {
        let period = t.max(1);
        huge(c.min(period).max(1), d.max(1), period)
    })
}

proptest! {
    #[test]
    fn extreme_parameters_never_panic_and_stay_sound(
        components in prop::collection::vec(arb_extreme_component(), 1..=6),
    ) {
        let bounds = FeasibilityBounds::for_components(&components);
        let _ = bounds.analysis_horizon();
        let _ = bounds.qpa_horizon();
        let prepared = PreparedWorkload::from_components(components);
        let overloaded = prepared.utilization_exceeds_one();
        let mut scratch = AnalysisScratch::new();
        let analysis = AllApproximatedTest::new().with_max_level(4)
            .analyze_prepared_with(&prepared, &mut scratch);
        match analysis.verdict {
            // Decisive capped verdicts are exact, so they must agree with
            // the independent overload oracle.
            Verdict::Feasible => prop_assert!(!overloaded),
            Verdict::Infeasible => {
                // Overload is one road to infeasibility, not the only
                // one; a miss here must come from a real demand overrun.
                if !overloaded {
                    let overload = analysis.overload.expect("infeasible needs a witness");
                    prop_assert!(
                        prepared.dbf(overload.interval) > overload.interval,
                        "witness {overload:?}"
                    );
                }
            }
            Verdict::Unknown => {}
        }
        // Demand queries at the extreme of the time axis never wrap into
        // small values that would fake feasibility.
        let _ = prepared.dbf(Time::MAX);
        let _ = prepared.rbf(Time::MAX);
    }
}

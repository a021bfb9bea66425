//! Sensitivity analysis on top of the exact feasibility tests.
//!
//! Once an exact test is cheap (the point of the paper), it becomes
//! practical to answer design-space questions by running it inside a search
//! loop.  This module provides the two most common ones:
//!
//! * [`breakdown_scaling`] — the largest uniform scaling factor that can be
//!   applied to every worst-case execution time while the task set stays
//!   feasible (the classic "breakdown utilization" experiment);
//! * [`wcet_slack`] — how much a *single* task's worst-case execution time
//!   can grow before the set becomes infeasible (per-task robustness
//!   budget).
//!
//! Both searches are exact: they binary-search over integer scalings and
//! re-run an exact feasibility test at every probe.  The probes run through
//! the **incremental engine** of [`crate::incremental`]: one
//! [`ScaledView`] per search re-costs the components through one
//! [`EditView`](crate::incremental::EditView) and refreshes the derived
//! state at finalize, instead of re-preparing the workload ~14 times per
//! search.  The `incremental_equivalence` proptests pin each probe
//! against a cold preparation and each search result as tight: the
//! breakdown scaling and the slack are accepted on a cold preparation and
//! one step more is not.  Every entry point is workload-generic —
//! event streams, arrival curves and mixed systems probe exactly like task
//! sets, because the searches act on the component decomposition.
//!
//! For fleets of workloads, [`sensitivity_sweep`] runs both searches over
//! a whole batch with the multi-core fan-out of [`crate::batch`].

use edf_model::Time;

use crate::analysis::FeasibilityTest;
use crate::batch::parallel_map;
use crate::incremental::ScaledView;
use crate::kernel::AnalysisScratch;
use crate::workload::{DemandComponent, PreparedWorkload, Workload};

/// Precision denominator used for scaling factors: factors are expressed in
/// 1/1000 steps (per-mille).
const SCALE_DENOMINATOR: u64 = 1_000;

/// Result of the breakdown-scaling search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownScaling {
    /// Largest feasible scaling factor (e.g. `1.25` means every WCET can
    /// grow by 25 %), in steps of 1/1000.
    pub factor: f64,
    /// Utilization of the workload at that scaling.
    pub utilization_at_breakdown: f64,
    /// Number of feasibility-test invocations spent by the search.
    pub probes: u32,
}

/// Finds the largest per-mille scaling of every WCET under which `test`
/// still accepts the workload, searching factors in `[0, 16]` with 1/1000
/// resolution.  Any demand-characterized workload qualifies — event
/// streams and mixed systems included, since scaling acts on the
/// component decomposition.
///
/// Returns `None` if the workload is empty, or if the supplied test cannot
/// accept it unscaled (factor 1.0).
///
/// # Examples
///
/// ```
/// use edf_analysis::sensitivity::breakdown_scaling;
/// use edf_analysis::tests::AllApproximatedTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(4), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(8), Time::new(10))?,
/// ]);
/// let breakdown = breakdown_scaling(&ts, &AllApproximatedTest::new()).expect("feasible set");
/// assert!(breakdown.factor >= 1.0);
/// assert!(breakdown.utilization_at_breakdown <= 1.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// The same search on a bursty event stream:
///
/// ```
/// use edf_analysis::sensitivity::breakdown_scaling;
/// use edf_analysis::tests::AllApproximatedTest;
/// use edf_analysis::workload::MixedSystem;
/// use edf_model::{EventStream, EventStreamTask, TaskSet, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let burst = EventStreamTask::new(
///     EventStream::bursty(2, Time::new(10), Time::new(100)),
///     Time::new(5),
///     Time::new(40),
/// )?;
/// let system = MixedSystem::new(TaskSet::new(), vec![burst]);
/// let breakdown = breakdown_scaling(&system, &AllApproximatedTest::new())
///     .expect("feasible system");
/// assert!(breakdown.factor >= 1.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn breakdown_scaling(
    workload: &(impl Workload + ?Sized),
    test: &dyn FeasibilityTest,
) -> Option<BreakdownScaling> {
    let base = PreparedWorkload::new(workload);
    let mut view = ScaledView::new(&base);
    breakdown_with_view(&mut view, test, &mut AnalysisScratch::new())
}

/// The breakdown probe schedule: doubling to an upper bound (capped at
/// 16×, which is never probed), then binary search over per-mille
/// numerators.  Returns the last accepted numerator.
fn breakdown_search(mut accepts: impl FnMut(u64) -> bool) -> Option<u64> {
    if !accepts(SCALE_DENOMINATOR) {
        return None;
    }
    // Find an upper bound by doubling, capped at 16x.
    let cap = SCALE_DENOMINATOR * 16;
    let mut lo = SCALE_DENOMINATOR;
    let mut hi = SCALE_DENOMINATOR * 2;
    while hi < cap && accepts(hi) {
        lo = hi;
        hi *= 2;
    }
    let mut hi = hi.min(cap);
    // Binary search the last accepted numerator in (lo, hi].
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The binary search for the largest accepted extra cost in
/// `[0, headroom]`.
fn slack_search(headroom: u64, mut accepts: impl FnMut(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, headroom);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The breakdown search on an existing view (shared by the public entry
/// points and [`sensitivity_sweep`], which runs several searches over one
/// view).
fn breakdown_with_view(
    view: &mut ScaledView<'_>,
    test: &dyn FeasibilityTest,
    scratch: &mut AnalysisScratch,
) -> Option<BreakdownScaling> {
    if view.base().is_empty() {
        return None;
    }
    let mut probes = 0u32;
    let lo = breakdown_search(|numer| {
        probes += 1;
        test.analyze_prepared_with(view.scale_wcets(numer, SCALE_DENOMINATOR), scratch)
            .verdict
            .is_feasible()
    })?;
    Some(BreakdownScaling {
        factor: lo as f64 / SCALE_DENOMINATOR as f64,
        utilization_at_breakdown: view.base().scaled_utilization(lo, SCALE_DENOMINATOR),
        probes,
    })
}

/// The largest additional execution time (in whole ticks) that can be added
/// to the cost of the demand component at `component_index` while the
/// workload remains accepted by `test`.  For a [`TaskSet`](edf_model::TaskSet)
/// the component order is the task order, so the index is the task index.
///
/// Returns `None` if the index is out of range or the unmodified workload
/// is not accepted.  The result is clamped so that the inflated cost never
/// exceeds the component's period (for a one-shot component, its relative
/// deadline).  The probes perturb the single component in place through a
/// [`ScaledView`] — no rebuild, no re-preparation.
///
/// # Examples
///
/// ```
/// use edf_analysis::sensitivity::wcet_slack;
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(2), Time::new(10), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(20), Time::new(20))?,
/// ]);
/// // Task 0 can grow by 7 ticks (to C=9): U becomes 1.0.
/// assert_eq!(wcet_slack(&ts, 0, &ProcessorDemandTest::new()), Some(Time::new(7)));
/// # Ok(())
/// # }
/// ```
///
/// The slack of one event of a bursty stream:
///
/// ```
/// use edf_analysis::sensitivity::wcet_slack;
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_model::{EventStream, EventStreamTask, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let burst = EventStreamTask::new(
///     EventStream::bursty(2, Time::new(10), Time::new(100)),
///     Time::new(5),
///     Time::new(40),
/// )?;
/// // How much the cost of the first burst event could grow: the slack of
/// // component 0 of the stream's decomposition.
/// let slack = wcet_slack(&burst, 0, &ProcessorDemandTest::new());
/// assert!(slack.expect("feasible stream") > Time::ZERO);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn wcet_slack(
    workload: &(impl Workload + ?Sized),
    component_index: usize,
    test: &dyn FeasibilityTest,
) -> Option<Time> {
    let base = PreparedWorkload::new(workload);
    if component_index >= base.components().len() {
        return None;
    }
    let mut scratch = AnalysisScratch::new();
    if !test
        .analyze_prepared_with(&base, &mut scratch)
        .verdict
        .is_feasible()
    {
        return None;
    }
    let mut view = ScaledView::new(&base);
    Some(wcet_slack_with_view(
        &mut view,
        component_index,
        test,
        &mut scratch,
    ))
}

/// The slack binary search on an existing view; the callers guarantee
/// that the index is in range and the base workload is accepted by
/// `test`.
fn wcet_slack_with_view(
    view: &mut ScaledView<'_>,
    component_index: usize,
    test: &dyn FeasibilityTest,
    scratch: &mut AnalysisScratch,
) -> Time {
    let component = view.base().components()[component_index];
    let headroom = component_headroom(&component);
    if headroom.is_zero() {
        return Time::ZERO;
    }
    let slack = slack_search(headroom.as_u64(), |extra| {
        let probe = view.with_component_wcet(component_index, component.wcet() + Time::new(extra));
        test.analyze_prepared_with(probe, scratch)
            .verdict
            .is_feasible()
    });
    Time::new(slack)
}

/// How far a component's cost can grow at all: up to the period for
/// periodic components (beyond it even an otherwise empty processor is
/// overloaded), up to the relative deadline for one-shots (a single job
/// cannot finish past its own deadline).
fn component_headroom(component: &DemandComponent) -> Time {
    match component.period() {
        Some(period) => period.saturating_sub(component.wcet()),
        None => component
            .first_deadline()
            .saturating_sub(component.release_offset())
            .saturating_sub(component.wcet()),
    }
}

/// The full sensitivity picture of one workload: its breakdown scaling and
/// the per-component WCET slacks.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Result of the breakdown-scaling search (`None` when the workload is
    /// empty or not accepted by the test as given).
    pub breakdown: Option<BreakdownScaling>,
    /// [`wcet_slack`] of every demand component, in component
    /// order (all `None` when the unscaled workload is not accepted).
    pub component_slack: Vec<Option<Time>>,
}

/// The sensitivity report of a single workload: breakdown scaling plus
/// every component slack, all through **one** prepared base and **one**
/// incremental view.
#[must_use]
pub fn sensitivity_report(
    workload: &(impl Workload + ?Sized),
    test: &dyn FeasibilityTest,
) -> SensitivityReport {
    let base = PreparedWorkload::new(workload);
    if base.is_empty() {
        return SensitivityReport {
            breakdown: None,
            component_slack: Vec::new(),
        };
    }
    // The slack searches are gated on the *unscaled* base, not on the
    // breakdown result: the breakdown's first probe clamps costs to the
    // period, so for degenerate components (wcet > period) the two can
    // differ and the per-component contract is the base acceptance.
    // One scratch arena serves the whole report.
    let mut scratch = AnalysisScratch::new();
    let base_accepted = test
        .analyze_prepared_with(&base, &mut scratch)
        .verdict
        .is_feasible();
    let mut view = ScaledView::new(&base);
    let breakdown = breakdown_with_view(&mut view, test, &mut scratch);
    let component_slack = if base_accepted {
        (0..base.components().len())
            .map(|index| Some(wcet_slack_with_view(&mut view, index, test, &mut scratch)))
            .collect()
    } else {
        vec![None; base.components().len()]
    };
    SensitivityReport {
        breakdown,
        component_slack,
    }
}

/// Batch sensitivity: [`sensitivity_report`] for every workload, fanned
/// out across the CPU cores with the same parallel machinery as
/// [`crate::batch::analyze_many`].  `results[i]` belongs to
/// `workloads[i]`.
///
/// # Examples
///
/// ```
/// use edf_analysis::sensitivity::sensitivity_sweep;
/// use edf_analysis::tests::AllApproximatedTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let workloads = vec![
///     TaskSet::from_tasks(vec![Task::new(Time::new(1), Time::new(4), Time::new(8))?]),
///     TaskSet::from_tasks(vec![Task::new(Time::new(3), Time::new(5), Time::new(5))?]),
/// ];
/// let reports = sensitivity_sweep(&workloads, &AllApproximatedTest::new());
/// assert_eq!(reports.len(), 2);
/// assert!(reports[0].breakdown.expect("feasible").factor >= 1.0);
/// assert_eq!(reports[0].component_slack.len(), 1);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn sensitivity_sweep<W: Workload + Sync>(
    workloads: &[W],
    test: &(dyn FeasibilityTest + Sync),
) -> Vec<SensitivityReport> {
    parallel_map(workloads, |workload| sensitivity_report(workload, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{AllApproximatedTest, ProcessorDemandTest};
    use crate::workload::MixedSystem;
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn breakdown_of_implicit_deadline_set_reaches_full_utilization() {
        // U = 0.5: the breakdown factor should be ~2.0 (U -> 1.0).
        let ts = TaskSet::from_tasks(vec![t(1, 4, 4), t(1, 4, 4)]);
        let breakdown = breakdown_scaling(&ts, &AllApproximatedTest::new()).expect("feasible");
        assert!(
            (breakdown.factor - 2.0).abs() < 0.01,
            "factor {}",
            breakdown.factor
        );
        assert!(breakdown.utilization_at_breakdown > 0.99);
        assert!(breakdown.probes > 0);
    }

    #[test]
    fn breakdown_of_constrained_set_stops_before_full_utilization() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let breakdown = breakdown_scaling(&ts, &AllApproximatedTest::new()).expect("feasible");
        // Already tight: dbf(3) = 3 means scaling beyond ~1.0 is impossible.
        assert!(breakdown.factor >= 1.0);
        assert!(breakdown.factor < 1.2);
    }

    #[test]
    fn infeasible_sets_have_no_breakdown() {
        let ts = TaskSet::from_tasks(vec![t(5, 3, 10)]);
        assert_eq!(breakdown_scaling(&ts, &AllApproximatedTest::new()), None);
        assert_eq!(
            breakdown_scaling(&TaskSet::new(), &AllApproximatedTest::new()),
            None
        );
    }

    #[test]
    fn breakdown_agrees_between_exact_tests() {
        let ts = TaskSet::from_tasks(vec![t(2, 7, 10), t(3, 15, 25), t(5, 40, 50)]);
        let a = breakdown_scaling(&ts, &AllApproximatedTest::new()).unwrap();
        let b = breakdown_scaling(&ts, &ProcessorDemandTest::new()).unwrap();
        assert!((a.factor - b.factor).abs() < 1e-9);
    }

    #[test]
    fn wcet_slack_matches_hand_computation() {
        let ts = TaskSet::from_tasks(vec![t(2, 10, 10), t(2, 20, 20)]);
        // U = 0.2 + 0.1; task 0 can grow to C = 9 (U = 1.0).
        assert_eq!(
            wcet_slack(&ts, 0, &ProcessorDemandTest::new()),
            Some(Time::new(7))
        );
        // Task 1 can grow to C = 16 (U = 0.2 + 0.8).
        assert_eq!(
            wcet_slack(&ts, 1, &ProcessorDemandTest::new()),
            Some(Time::new(14))
        );
    }

    #[test]
    fn wcet_slack_edge_cases() {
        let ts = TaskSet::from_tasks(vec![t(2, 10, 10), t(2, 20, 20)]);
        assert_eq!(wcet_slack(&ts, 5, &ProcessorDemandTest::new()), None);
        let infeasible = TaskSet::from_tasks(vec![t(5, 3, 10)]);
        assert_eq!(
            wcet_slack(&infeasible, 0, &ProcessorDemandTest::new()),
            None
        );
        // A task already at C == T has zero slack.
        let saturated = TaskSet::from_tasks(vec![t(10, 10, 10)]);
        assert_eq!(
            wcet_slack(&saturated, 0, &ProcessorDemandTest::new()),
            Some(Time::ZERO)
        );
    }

    #[test]
    fn wcet_slack_respects_constrained_deadlines() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10)]);
        // dbf(3) = C1 + C2 must stay <= 3, so task 1 has no room at all
        // even though utilization is far below 1.
        assert_eq!(
            wcet_slack(&ts, 1, &ProcessorDemandTest::new()),
            Some(Time::ZERO)
        );
        // Task 0 likewise: growing it to 2 would give dbf(2) = 2 <= 2 (ok)
        // but dbf(3) = 4 > 3, so its slack is also 0.
        assert_eq!(
            wcet_slack(&ts, 0, &ProcessorDemandTest::new()),
            Some(Time::ZERO)
        );
    }

    #[test]
    fn task_set_slack_equals_its_stream_free_mixed_system() {
        let ts = TaskSet::from_tasks(vec![t(2, 10, 10), t(2, 20, 20)]);
        let system = MixedSystem::new(ts.clone(), Vec::new());
        let test = ProcessorDemandTest::new();
        for index in 0..ts.len() {
            assert_eq!(
                wcet_slack(&ts, index, &test),
                wcet_slack(&system, index, &test)
            );
        }
    }

    #[test]
    fn one_shot_component_slack_is_capped_by_the_relative_deadline() {
        // A single one-shot job of cost 2 due at 10: it can grow by 8.
        let components = vec![DemandComponent::one_shot(
            Time::new(2),
            Time::new(10),
            Time::ZERO,
        )];
        let base = PreparedWorkload::from_components(components);
        assert_eq!(
            wcet_slack(&base, 0, &ProcessorDemandTest::new()),
            Some(Time::new(8))
        );
    }

    #[test]
    fn report_gates_slack_on_the_unscaled_base() {
        // A degenerate component with wcet > period: the base is rejected
        // (U > 1), but the breakdown's first probe clamps the cost to the
        // period and is accepted — the slacks must still be gated on the
        // base, matching the individual `wcet_slack` calls.
        struct Degenerate;
        impl Workload for Degenerate {
            fn demand_components(&self) -> Vec<DemandComponent> {
                vec![DemandComponent::periodic(
                    Time::new(15),
                    Time::new(20),
                    Time::new(10),
                )]
            }
        }
        let test = ProcessorDemandTest::new();
        let report = sensitivity_report(&Degenerate, &test);
        assert!(report.breakdown.is_some(), "clamped probe is accepted");
        assert_eq!(report.component_slack, vec![None]);
        assert_eq!(report.component_slack[0], wcet_slack(&Degenerate, 0, &test));
    }

    #[test]
    fn sensitivity_sweep_matches_individual_searches() {
        let workloads = vec![
            TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12)]),
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]), // infeasible
            TaskSet::new(),                         // empty
        ];
        let test = AllApproximatedTest::new();
        let reports = sensitivity_sweep(&workloads, &test);
        assert_eq!(reports.len(), workloads.len());
        for (workload, report) in workloads.iter().zip(&reports) {
            assert_eq!(report.breakdown, breakdown_scaling(workload, &test));
            assert_eq!(report.component_slack.len(), workload.len());
            for (index, slack) in report.component_slack.iter().enumerate() {
                assert_eq!(
                    *slack,
                    wcet_slack(workload, index, &test),
                    "component {index}"
                );
            }
        }
        // The infeasible and empty entries are all-None.
        assert_eq!(reports[2].breakdown, None);
        assert!(reports[2].component_slack.iter().all(Option::is_none));
        assert_eq!(reports[3].breakdown, None);
        assert!(reports[3].component_slack.is_empty());
    }
}

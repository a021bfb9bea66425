//! The processor demand test of Baruah et al. (Def. 3, §3.3 of the paper).
//!
//! The exact baseline of the paper: a sporadic task set with `U ≤ 1` is
//! feasible under preemptive EDF if and only if `dbf(I, Γ) ≤ I` for every
//! interval `I` up to a feasibility bound.  The test walks every absolute
//! deadline below the bound in ascending order, accumulating the demand
//! incrementally; its effort therefore grows with the number of deadlines
//! below the bound, which explodes when the task set mixes very small and
//! very large periods (§3.3 and Figure 9 of the paper).

use edf_model::Time;

use crate::analysis::{Analysis, DemandOverload, FeasibilityTest, IterationCounter, Verdict};
use crate::bounds;
use crate::budget::ProgressPhase;
use crate::kernel::AnalysisScratch;
use crate::workload::PreparedWorkload;

/// Which feasibility bound limits the search of the processor demand test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum BoundSelection {
    /// The minimum over every bound that can be computed (default).
    #[default]
    Tightest,
    /// Baruah et al.: `U/(1−U)·max(Tᵢ − Dᵢ)` (Table 1's baseline).  Where
    /// that bound does not apply — no component with `D < T`, a one-shot
    /// component, or `U = 1` — the walk runs to the tightest bound instead.
    Baruah,
    /// A caller-supplied horizon (useful for experiments and for bounding
    /// the worst-case run time at the price of exactness).
    Fixed(Time),
}

/// The exact processor demand test.
///
/// # Examples
///
/// ```
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_analysis::{FeasibilityTest, Verdict};
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let feasible = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
/// ]);
/// assert_eq!(ProcessorDemandTest::new().analyze(&feasible).verdict, Verdict::Feasible);
///
/// let infeasible = TaskSet::from_tasks(vec![
///     Task::new(Time::new(3), Time::new(4), Time::new(10))?,
///     Task::new(Time::new(4), Time::new(6), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(5), Time::new(12))?,
/// ]);
/// assert_eq!(ProcessorDemandTest::new().analyze(&infeasible).verdict, Verdict::Infeasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorDemandTest {
    bound: BoundSelection,
}

impl ProcessorDemandTest {
    /// Creates the test with the default (tightest) bound selection.
    #[must_use]
    pub fn new() -> Self {
        ProcessorDemandTest {
            bound: BoundSelection::Tightest,
        }
    }

    /// Creates the test with an explicit bound selection.
    #[must_use]
    pub fn with_bound(bound: BoundSelection) -> Self {
        ProcessorDemandTest { bound }
    }

    /// The configured bound selection.
    #[must_use]
    pub fn bound(&self) -> BoundSelection {
        self.bound
    }

    fn horizon(&self, workload: &PreparedWorkload) -> Option<Time> {
        match self.bound {
            BoundSelection::Tightest => workload.analysis_horizon(),
            BoundSelection::Baruah => bounds::baruah_components(workload.components())
                .or_else(|| workload.analysis_horizon()),
            BoundSelection::Fixed(limit) => Some(limit),
        }
    }
}

impl FeasibilityTest for ProcessorDemandTest {
    fn name(&self) -> &str {
        "processor-demand"
    }

    fn is_exact(&self) -> bool {
        !matches!(self.bound, BoundSelection::Fixed(_))
    }

    fn analyze_demand(
        &self,
        workload: &PreparedWorkload,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        if workload.is_empty() {
            return Analysis::trivial(Verdict::Feasible);
        }
        if workload.utilization_exceeds_one() {
            return Analysis::trivial(Verdict::Infeasible);
        }
        let Some(horizon) = self.horizon(workload) else {
            // U == 1 with an overflowing hyperperiod: no usable bound.
            return Analysis::trivial(Verdict::Unknown);
        };
        // The budget travels as a local copy: `demand_steps` borrows the
        // scratch for the whole walk, so the spend is written back after
        // the loop ends (the labeled block funnels every exit there).
        let mut budget = scratch.budget();
        let mut counter = IterationCounter::new();
        let analysis = 'walk: {
            let mut demand = Time::ZERO;
            // The deadline merge hands equal-deadline runs over as one
            // coalesced step, so the walk is exactly one comparison per
            // distinct interval — no peek-and-fold loop.
            for (interval, step) in workload.demand_steps(horizon, scratch) {
                if !budget.charge(1) {
                    // Every interval recorded so far satisfied the
                    // comparison, so the largest examined one is certified.
                    break 'walk counter.finish_exhausted(
                        &budget,
                        ProgressPhase::DemandWalk,
                        counter.max_interval(),
                    );
                }
                demand = demand.saturating_add(step);
                counter.record(interval);
                if demand > interval {
                    break 'walk counter.finish(
                        Verdict::Infeasible,
                        Some(DemandOverload { interval, demand }),
                    );
                }
            }
            let verdict = if matches!(self.bound, BoundSelection::Fixed(_)) {
                // A caller-supplied horizon may be shorter than a valid
                // bound.
                Verdict::Unknown
            } else {
                Verdict::Feasible
            };
            counter.finish(verdict, None)
        };
        scratch.set_budget(budget);
        analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::dbf_set;
    use crate::workload::DemandComponent;
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn brute_force_feasible(ts: &TaskSet, horizon: u64) -> bool {
        if ts.utilization_exceeds_one() {
            return false;
        }
        (1..=horizon).all(|i| dbf_set(ts, Time::new(i)) <= Time::new(i))
    }

    #[test]
    fn accepts_simple_feasible_set() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12), t(3, 15, 20)]);
        let analysis = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Feasible);
        assert!(analysis.iterations > 0);
    }

    #[test]
    fn rejects_constrained_overload_with_witness() {
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        let witness = analysis.overload.expect("witness");
        assert!(witness.demand > witness.interval);
        // The earliest violation for this set is at I = 6 (dbf = 9).
        assert_eq!(witness.interval, Time::new(6));
        assert_eq!(witness.demand, Time::new(9));
    }

    #[test]
    fn agrees_with_brute_force_on_small_sets() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(2, 2, 6), t(2, 4, 8), t(1, 7, 12)]),
            TaskSet::from_tasks(vec![t(3, 3, 9), t(3, 5, 9), t(2, 8, 9)]),
            TaskSet::from_tasks(vec![t(1, 1, 4), t(1, 2, 4), t(1, 3, 4), t(1, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 6, 20), t(7, 11, 25), t(4, 9, 35)]),
        ];
        for ts in sets {
            let exact = ProcessorDemandTest::new().analyze(&ts).verdict;
            let brute = brute_force_feasible(&ts, 500);
            assert_eq!(exact.is_feasible(), brute, "disagreement on {ts}");
            assert!(exact.is_decisive());
        }
    }

    #[test]
    fn full_utilization_implicit_deadlines_is_feasible() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]);
        assert_eq!(
            ProcessorDemandTest::new().analyze(&ts).verdict,
            Verdict::Feasible
        );
    }

    #[test]
    fn full_utilization_with_tight_deadline_is_infeasible() {
        let ts = TaskSet::from_tasks(vec![t(1, 1, 2), t(2, 4, 4), t(1, 4, 4)]);
        // U = 0.5 + 0.5 + 0.25 > 1.
        assert_eq!(
            ProcessorDemandTest::new().analyze(&ts).verdict,
            Verdict::Infeasible
        );
        let ts2 = TaskSet::from_tasks(vec![t(1, 1, 2), t(2, 3, 4)]);
        // U = 1, but dbf(3) = 2 + 2 = 4 > 3.
        assert_eq!(
            ProcessorDemandTest::new().analyze(&ts2).verdict,
            Verdict::Infeasible
        );
    }

    #[test]
    fn wcet_above_deadline_is_rejected() {
        let ts = TaskSet::from_tasks(vec![t(5, 3, 10)]);
        let analysis = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        assert_eq!(analysis.overload.unwrap().interval, Time::new(3));
    }

    #[test]
    fn bound_selection_does_not_change_the_verdict() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 5, 11), t(3, 9, 17), t(4, 16, 23)]),
        ];
        for ts in sets {
            let reference = ProcessorDemandTest::new().analyze(&ts).verdict;
            for bound in [
                BoundSelection::Baruah,
                BoundSelection::Fixed(Time::new(1_000)),
            ] {
                let analysis = ProcessorDemandTest::with_bound(bound).analyze(&ts);
                if analysis.verdict.is_decisive() {
                    assert_eq!(analysis.verdict, reference, "bound {bound:?} on {ts}");
                }
            }
        }
    }

    #[test]
    fn baruah_falls_back_to_the_tightest_bound_where_it_does_not_apply() {
        // No `D < T` component, and a one-shot component: Baruah's bound is
        // undefined, yet the selection is exact and must answer.
        let implicit =
            PreparedWorkload::new(&TaskSet::from_tasks(vec![t(1, 10, 10), t(2, 20, 20)]));
        let one_shot = PreparedWorkload::from_components(vec![
            DemandComponent::periodic(Time::new(1), Time::new(4), Time::new(10)),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ]);
        let baruah = ProcessorDemandTest::with_bound(BoundSelection::Baruah);
        assert!(baruah.is_exact());
        for workload in [&implicit, &one_shot] {
            assert_eq!(bounds::baruah_components(workload.components()), None);
            let tightest = ProcessorDemandTest::new().analyze_prepared(workload);
            let analysis = baruah.analyze_prepared(workload);
            assert_eq!(analysis.verdict, Verdict::Feasible);
            assert_eq!(analysis.verdict, tightest.verdict);
        }
    }

    #[test]
    fn tighter_bounds_need_fewer_iterations() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let tightest = ProcessorDemandTest::new().analyze(&ts).iterations;
        let baruah = ProcessorDemandTest::with_bound(BoundSelection::Baruah)
            .analyze(&ts)
            .iterations;
        let wide = ProcessorDemandTest::with_bound(BoundSelection::Fixed(Time::new(1_000)))
            .analyze(&ts)
            .iterations;
        assert!(tightest <= baruah);
        assert!(baruah <= wide);
    }

    #[test]
    fn fixed_bound_reports_unknown_when_it_passes() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let analysis =
            ProcessorDemandTest::with_bound(BoundSelection::Fixed(Time::new(5))).analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Unknown);
        assert!(!ProcessorDemandTest::with_bound(BoundSelection::Fixed(Time::new(5))).is_exact());
        // ... but a violation below the fixed bound is still definitive.
        let bad = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis =
            ProcessorDemandTest::with_bound(BoundSelection::Fixed(Time::new(100))).analyze(&bad);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
    }

    #[test]
    fn iterations_count_distinct_intervals() {
        // Two tasks sharing every deadline: each distinct interval counted once.
        let ts = TaskSet::from_tasks(vec![t(1, 10, 10), t(2, 10, 10)]);
        let analysis =
            ProcessorDemandTest::with_bound(BoundSelection::Fixed(Time::new(40))).analyze(&ts);
        assert_eq!(analysis.iterations, 4); // intervals 10, 20, 30, 40
    }

    #[test]
    fn empty_and_overload_trivial_paths() {
        assert_eq!(
            ProcessorDemandTest::new().analyze(&TaskSet::new()).verdict,
            Verdict::Feasible
        );
        let over = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        let analysis = ProcessorDemandTest::new().analyze(&over);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        assert_eq!(analysis.iterations, 0);
        assert_eq!(ProcessorDemandTest::new().name(), "processor-demand");
        assert!(ProcessorDemandTest::new().is_exact());
        assert_eq!(ProcessorDemandTest::new().bound(), BoundSelection::Tightest);
    }
}

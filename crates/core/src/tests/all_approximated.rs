//! The all-approximated test (§4.2, Figure 7 of the paper) — the second of
//! the two new exact feasibility tests.
//!
//! Instead of tying the approximation of a task to a fixed test border (as
//! the dynamic-error test does), every task is approximated immediately
//! after its *first* examined interval, and an approximation is withdrawn
//! only where a comparison actually fails — one task at a time, until the
//! comparison succeeds or no approximation is left (in which case the
//! comparison is fully exact and the set is infeasible).  Withdrawing an
//! approximation replaces the approximated cost by the exact demand
//! (Lemma 6) and inserts the task's next absolute deadline (Lemma 5) as an
//! additional test interval; the task is then re-approximated from that
//! interval when it is reached.
//!
//! If no comparison ever fails the test degenerates to exactly one check
//! per task — the behaviour (and effort) of Devi's test — while infeasible
//! or borderline sets trigger just enough refinement around the critical
//! intervals to stay exact.  The test needs no explicit feasibility bound:
//! the superposition bound of §4.3 is reached implicitly (this
//! implementation still caps the generated intervals at the tightest known
//! bound, which is needed for guaranteed termination at `U = 1` and never
//! changes a verdict).

use crate::analysis::{Analysis, FeasibilityTest};
use crate::kernel::AnalysisScratch;
use crate::workload::PreparedWorkload;

/// The all-approximated feasibility test.
///
/// # Examples
///
/// ```
/// use edf_analysis::tests::AllApproximatedTest;
/// use edf_analysis::{FeasibilityTest, Verdict};
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
///     Task::new(Time::new(5), Time::new(9), Time::new(10))?,
/// ]);
/// assert_eq!(AllApproximatedTest::new().analyze(&ts).verdict, Verdict::Feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllApproximatedTest {
    pub(crate) max_level: Option<u64>,
}

impl AllApproximatedTest {
    /// Creates the exact test.  A failing comparison withdraws the oldest
    /// approximation first (the paper's FIFO revision order), each pick in
    /// amortized O(1).
    #[must_use]
    pub fn new() -> Self {
        AllApproximatedTest { max_level: None }
    }

    /// Limits how far any single component may be refined: once
    /// `max_level` of a component's jobs have been examined exactly, its
    /// approximation can no longer be withdrawn (the analogue of
    /// [`DynamicErrorTest::with_max_level`](crate::tests::DynamicErrorTest::with_max_level)
    /// for this test).  A failing comparison whose remaining approximations
    /// are all beyond the limit then answers
    /// [`Verdict::Unknown`](crate::Verdict::Unknown) instead of refining further, which bounds the
    /// worst-case number of examined intervals by `max_level` per
    /// component while keeping every *decisive* verdict correct.
    #[must_use]
    pub fn with_max_level(mut self, max_level: u64) -> Self {
        self.max_level = Some(max_level.max(1));
        self
    }

    /// The configured refinement limit, if any.
    #[must_use]
    pub fn max_level(&self) -> Option<u64> {
        self.max_level
    }

    /// The bounded test at a requested relative demand error: the
    /// refinement limit is derived as `⌈1/epsilon⌉` (see
    /// [`level_for_target_error`](crate::superposition::level_for_target_error)).
    /// Every approximation the test refuses to withdraw covers a component
    /// with at least `⌈1/epsilon⌉` exactly examined jobs, so its
    /// over-estimation stays below a factor `1 + epsilon` of the exact
    /// demand — the target-error mode completing the §4 discussion.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not a positive finite number.
    #[must_use]
    pub fn from_target_error(epsilon: f64) -> Self {
        AllApproximatedTest::new()
            .with_max_level(crate::superposition::level_for_target_error(epsilon))
    }
}

impl FeasibilityTest for AllApproximatedTest {
    fn name(&self) -> &str {
        "all-approximated"
    }

    fn is_exact(&self) -> bool {
        self.max_level.is_none()
    }

    fn analyze_demand(
        &self,
        workload: &PreparedWorkload,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        // The analysis loop lives in the shared refinement engine (flat
        // frontier queue, incremental comparison aggregates, FIFO revision
        // queue); see [`crate::refine`] for the structure and the
        // bit-identity argument against the plain loop of `edf-oracle`.
        crate::refine::all_approximated(self, workload, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Verdict;
    use crate::tests::{DeviTest, DynamicErrorTest, ProcessorDemandTest};
    use edf_model::{Task, TaskSet, Time};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn agrees_with_processor_demand_on_hand_picked_sets() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 2, 6), t(2, 4, 8), t(1, 7, 12)]),
            TaskSet::from_tasks(vec![t(5, 6, 20), t(7, 11, 25), t(4, 9, 35)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
            TaskSet::from_tasks(vec![t(1, 1, 4), t(1, 2, 4), t(1, 3, 4), t(1, 4, 4)]),
            TaskSet::from_tasks(vec![t(3, 3, 9), t(3, 5, 9), t(2, 8, 9)]),
        ];
        for ts in sets {
            let all_approx = AllApproximatedTest::new().analyze(&ts);
            let reference = ProcessorDemandTest::new().analyze(&ts);
            assert_eq!(all_approx.verdict, reference.verdict, "on {ts}");
            assert!(all_approx.verdict.is_decisive());
        }
    }

    #[test]
    fn devi_accepted_sets_need_one_check_per_task() {
        // "If the initial test interval is accepted for each task without
        // generating new test intervals, the behaviour and the performance
        // of the test is equal to the test given by Devi." (§4.2)
        let ts = TaskSet::from_tasks(vec![
            t(1, 8, 10),
            t(2, 16, 20),
            t(5, 35, 40),
            t(10, 95, 100),
        ]);
        assert_eq!(DeviTest::new().analyze(&ts).verdict, Verdict::Feasible);
        let analysis = AllApproximatedTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Feasible);
        // At most one comparison per task; the feasibility bound may prune
        // long-deadline tasks away entirely, so the count can be lower.
        assert!(analysis.iterations <= ts.len() as u64);
    }

    #[test]
    fn needs_fewer_iterations_than_processor_demand_on_wide_period_spread() {
        let ts = TaskSet::from_tasks(vec![
            t(1, 5, 5),
            t(2, 10, 10),
            t(3, 15, 15),
            t(30, 200, 200),
            t(190, 950, 1_000),
        ]);
        let all_approx = AllApproximatedTest::new().analyze(&ts);
        let pda = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(all_approx.verdict, pda.verdict);
        assert!(
            all_approx.iterations < pda.iterations,
            "all-approximated ({}) should beat processor demand ({})",
            all_approx.iterations,
            pda.iterations
        );
    }

    #[test]
    fn infeasible_sets_report_exact_overload_witness() {
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis = AllApproximatedTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        let w = analysis.overload.expect("witness");
        assert_eq!(crate::demand::dbf_set(&ts, w.interval), w.demand);
        assert!(w.demand > w.interval);
    }

    #[test]
    fn fifo_revision_agrees_with_processor_demand() {
        // The oldest approximation is withdrawn first (§4.2); with or
        // without a level limit, every decisive verdict is the exact one.
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 5, 11), t(3, 9, 17), t(4, 16, 23)]),
            TaskSet::from_tasks(vec![t(1, 3, 12), t(4, 9, 20), t(6, 25, 50), t(10, 60, 120)]),
        ];
        for ts in sets {
            let exact = ProcessorDemandTest::new().analyze(&ts).verdict;
            assert_eq!(
                AllApproximatedTest::new().analyze(&ts).verdict,
                exact,
                "on {ts}"
            );
            for limit in [1, 2, 7] {
                let limited = AllApproximatedTest::new()
                    .with_max_level(limit)
                    .analyze(&ts)
                    .verdict;
                if limited.is_decisive() {
                    assert_eq!(limited, exact, "limit {limit} on {ts}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_dynamic_error_test() {
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 5, 11), t(3, 9, 17), t(4, 16, 23)]),
            TaskSet::from_tasks(vec![t(1, 5, 5), t(2, 10, 10), t(30, 200, 200)]),
        ];
        for ts in sets {
            assert_eq!(
                AllApproximatedTest::new().analyze(&ts).verdict,
                DynamicErrorTest::new().analyze(&ts).verdict,
                "on {ts}"
            );
        }
    }

    #[test]
    fn trivial_paths_and_accessors() {
        assert_eq!(
            AllApproximatedTest::new().analyze(&TaskSet::new()).verdict,
            Verdict::Feasible
        );
        let over = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        assert_eq!(
            AllApproximatedTest::new().analyze(&over).verdict,
            Verdict::Infeasible
        );
        let test = AllApproximatedTest::new();
        assert_eq!(test.name(), "all-approximated");
        assert!(test.is_exact());
        assert_eq!(test, AllApproximatedTest::default());
    }

    #[test]
    fn target_error_pins_the_refinement_level() {
        assert_eq!(
            AllApproximatedTest::from_target_error(1.0).max_level(),
            Some(1)
        );
        assert_eq!(
            AllApproximatedTest::from_target_error(0.5).max_level(),
            Some(2)
        );
        assert_eq!(
            AllApproximatedTest::from_target_error(0.25).max_level(),
            Some(4)
        );
        assert_eq!(
            AllApproximatedTest::from_target_error(0.1).max_level(),
            Some(10)
        );
        assert!(!AllApproximatedTest::from_target_error(0.1).is_exact());
        assert_eq!(AllApproximatedTest::new().max_level(), None);
        assert_eq!(
            AllApproximatedTest::new().with_max_level(0).max_level(),
            Some(1)
        );
    }

    #[test]
    fn bounded_level_yields_unknown_not_wrong_answers() {
        // Feasible, but needs refinement beyond the first job of each task:
        // the coarsest target error must answer Unknown, a tight one
        // Feasible.
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let coarse = AllApproximatedTest::from_target_error(1.0).analyze(&ts);
        assert_eq!(coarse.verdict, Verdict::Unknown);
        let fine = AllApproximatedTest::from_target_error(1e-6).analyze(&ts);
        assert_eq!(fine.verdict, Verdict::Feasible);
        // Decisive verdicts of the bounded test always match the exact one.
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 5, 11), t(3, 9, 17), t(4, 16, 23)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
        ];
        for ts in sets {
            let exact = AllApproximatedTest::new().analyze(&ts).verdict;
            for epsilon in [1.0, 0.5, 0.2, 0.05, 0.01] {
                let bounded = AllApproximatedTest::from_target_error(epsilon)
                    .analyze(&ts)
                    .verdict;
                if bounded.is_decisive() {
                    assert_eq!(bounded, exact, "epsilon {epsilon} on {ts}");
                }
            }
        }
        // The bounded run examines at most max_level intervals per task.
        let limited = AllApproximatedTest::from_target_error(0.5);
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let analysis = limited.analyze(&ts);
        assert!(analysis.iterations <= 2 * ts.len() as u64 * 2);
    }

    #[test]
    fn full_utilization_sets_terminate() {
        // U = 1 with implicit deadlines: feasible, and the horizon cap keeps
        // the interval generation finite.
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(1, 4, 4), t(1, 4, 4)]);
        assert_eq!(
            AllApproximatedTest::new().analyze(&ts).verdict,
            Verdict::Feasible
        );
        // U = 1 with a constrained deadline: infeasible.
        let bad = TaskSet::from_tasks(vec![t(1, 1, 2), t(2, 3, 4)]);
        assert_eq!(
            AllApproximatedTest::new().analyze(&bad).verdict,
            Verdict::Infeasible
        );
    }

    #[test]
    fn wcet_above_deadline_detected() {
        let ts = TaskSet::from_tasks(vec![t(5, 3, 10), t(1, 50, 100)]);
        let analysis = AllApproximatedTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        assert_eq!(analysis.overload.unwrap().interval, Time::new(3));
    }
}

//! The dynamic-error test (§4.1, Figure 5 of the paper) — the first of the
//! two new exact feasibility tests.
//!
//! The test runs the superposition analysis at a *dynamic* approximation
//! level: it starts at `SuperPos(1)` (every task approximated after its
//! first job, i.e. exactly Devi's test) and only raises the level — doubling
//! it — when the approximated demand exceeds the capacity of the interval
//! under test.  Raising the level withdraws the approximation of the tasks
//! concerned, replaces their approximated cost by their exact demand
//! (Lemma 6) and schedules their next absolute deadline (Lemma 5) as an
//! additional test interval.  The values computed before the switch are
//! reused; nothing is recomputed from scratch.
//!
//! Task sets accepted by Devi's test are therefore processed entirely at
//! level 1 with one comparison per task, while task sets that genuinely
//! need more precision pay only for the intervals where the approximation
//! is too coarse.  With an unbounded maximum level the test is **exact**;
//! bounding the level (`with_max_level`) yields a sufficient test with a
//! strictly limited worst-case run time, as discussed at the end of §4.1.

use crate::analysis::{Analysis, FeasibilityTest, Verdict};
use crate::kernel::AnalysisScratch;
use crate::workload::PreparedWorkload;

/// The dynamic-error feasibility test.
///
/// # Examples
///
/// ```
/// use edf_analysis::tests::DynamicErrorTest;
/// use edf_analysis::{FeasibilityTest, Verdict};
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// // Feasible, but rejected by Devi / SuperPos(1): the dynamic test raises
/// // its level only as far as needed and still answers exactly.
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
///     Task::new(Time::new(5), Time::new(9), Time::new(10))?,
/// ]);
/// assert_eq!(DynamicErrorTest::new().analyze(&ts).verdict, Verdict::Feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicErrorTest {
    pub(crate) initial_level: u64,
    pub(crate) max_level: Option<u64>,
}

impl Default for DynamicErrorTest {
    fn default() -> Self {
        DynamicErrorTest::new()
    }
}

impl DynamicErrorTest {
    /// Creates the exact test with the paper's defaults: initial level 1,
    /// level doubling, no maximum level.
    #[must_use]
    pub fn new() -> Self {
        DynamicErrorTest {
            initial_level: 1,
            max_level: None,
        }
    }

    /// Sets the initial approximation level (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    #[must_use]
    pub fn with_initial_level(mut self, level: u64) -> Self {
        assert!(level >= 1, "approximation level must be at least 1");
        self.initial_level = level;
        self
    }

    /// Limits the maximum approximation level.  With a limit the test is no
    /// longer exact: when the limit is insufficient it answers
    /// [`Verdict::Unknown`](crate::Verdict::Unknown), but its worst-case run time is strictly
    /// bounded (§4.1).
    #[must_use]
    pub fn with_max_level(mut self, max_level: u64) -> Self {
        self.max_level = Some(max_level.max(1));
        self
    }

    /// The bounded test at a requested relative demand error: the maximum
    /// level is derived as `⌈1/epsilon⌉` (see
    /// [`level_for_target_error`](crate::superposition::level_for_target_error)),
    /// so every approximation the test is never allowed to withdraw
    /// over-estimates its component's demand by less than a factor
    /// `1 + epsilon` — the target-error mode completing the §4 discussion.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not a positive finite number.
    #[must_use]
    pub fn from_target_error(epsilon: f64) -> Self {
        DynamicErrorTest::new()
            .with_max_level(crate::superposition::level_for_target_error(epsilon))
    }

    /// The level the analysis starts at.
    #[must_use]
    pub fn initial_level(&self) -> u64 {
        self.initial_level
    }

    /// The configured maximum level, if any.
    #[must_use]
    pub fn max_level(&self) -> Option<u64> {
        self.max_level
    }
}

impl FeasibilityTest for DynamicErrorTest {
    fn name(&self) -> &str {
        "dynamic-error"
    }

    fn is_exact(&self) -> bool {
        self.max_level.is_none()
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
        let Some(horizon) = workload.analysis_horizon() else {
            return Analysis::trivial(Verdict::Unknown);
        };
        // The analysis loop lives in the shared refinement engine (flat
        // frontier queue, incremental comparison aggregates, batched
        // withdrawals); see [`crate::refine`] for the structure and the
        // bit-identity argument against the plain loop of `edf-oracle`.
        crate::refine::dynamic_error(self, workload, horizon, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{DeviTest, ProcessorDemandTest};
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn exact_reference(ts: &TaskSet) -> Verdict {
        ProcessorDemandTest::new().analyze(ts).verdict
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
            let dynamic = DynamicErrorTest::new().analyze(&ts);
            assert_eq!(dynamic.verdict, exact_reference(&ts), "on {ts}");
            assert!(dynamic.verdict.is_decisive());
        }
    }

    #[test]
    fn devi_accepted_sets_run_at_level_one() {
        // Devi accepts => one comparison per task, exactly like Table 1's
        // Burns and GAP rows.
        let ts = TaskSet::from_tasks(vec![
            t(1, 8, 10),
            t(2, 16, 20),
            t(5, 35, 40),
            t(10, 95, 100),
        ]);
        assert_eq!(DeviTest::new().analyze(&ts).verdict, Verdict::Feasible);
        let dynamic = DynamicErrorTest::new().analyze(&ts);
        assert_eq!(dynamic.verdict, Verdict::Feasible);
        // At most one comparison per task; the feasibility bound may prune
        // long-deadline tasks away entirely, so the count can be lower.
        assert!(dynamic.iterations <= ts.len() as u64);
    }

    #[test]
    fn needs_fewer_iterations_than_processor_demand_on_tight_sets() {
        // High utilization with a wide period spread: the processor demand
        // test has to walk every small-period deadline below the bound while
        // the dynamic test approximates them away.
        let ts = TaskSet::from_tasks(vec![
            t(1, 5, 5),
            t(2, 10, 10),
            t(3, 15, 15),
            t(30, 200, 200),
            t(190, 950, 1_000),
        ]);
        let dynamic = DynamicErrorTest::new().analyze(&ts);
        let pda = ProcessorDemandTest::new().analyze(&ts);
        assert_eq!(dynamic.verdict, pda.verdict);
        assert!(
            dynamic.iterations < pda.iterations,
            "dynamic ({}) should beat processor demand ({})",
            dynamic.iterations,
            pda.iterations
        );
    }

    #[test]
    fn infeasible_set_reports_real_overload() {
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let analysis = DynamicErrorTest::new().analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        let w = analysis.overload.expect("witness");
        assert_eq!(crate::demand::dbf_set(&ts, w.interval), w.demand);
        assert!(w.demand > w.interval);
    }

    #[test]
    fn level_limit_yields_unknown_not_wrong_answers() {
        // Feasible but needs a deep level: with max level 1 the test must
        // answer Unknown (never Infeasible).
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        let limited = DynamicErrorTest::new().with_max_level(1).analyze(&ts);
        assert_eq!(limited.verdict, Verdict::Unknown);
        assert!(!DynamicErrorTest::new().with_max_level(1).is_exact());
        // A genuinely infeasible set is still rejected (the failing
        // comparison becomes fully exact once every task is revised —
        // impossible here, so Unknown is also acceptable; exactness is only
        // guaranteed without a level limit).
        let unlimited = DynamicErrorTest::new().analyze(&ts);
        assert_eq!(unlimited.verdict, Verdict::Feasible);
    }

    #[test]
    fn level_doubling_agrees_with_processor_demand() {
        // Doubling from level 1 (1, 2, 4, …) and from level 3 (3, 6, 12, …)
        // walks different level sequences to the same exact verdict.
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 5, 11), t(3, 9, 17), t(4, 16, 23)]),
        ];
        for ts in sets {
            for level in [1, 3] {
                let analysis = DynamicErrorTest::new()
                    .with_initial_level(level)
                    .analyze(&ts);
                assert_eq!(
                    analysis.verdict,
                    exact_reference(&ts),
                    "level {level} on {ts}"
                );
            }
        }
    }

    #[test]
    fn higher_initial_level_still_exact() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        for level in [1, 2, 4, 8] {
            let analysis = DynamicErrorTest::new()
                .with_initial_level(level)
                .analyze(&ts);
            assert_eq!(analysis.verdict, Verdict::Feasible);
        }
    }

    #[test]
    fn trivial_paths_and_accessors() {
        assert_eq!(
            DynamicErrorTest::new().analyze(&TaskSet::new()).verdict,
            Verdict::Feasible
        );
        let over = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        assert_eq!(
            DynamicErrorTest::new().analyze(&over).verdict,
            Verdict::Infeasible
        );
        let test = DynamicErrorTest::new();
        assert_eq!(test.name(), "dynamic-error");
        assert!(test.is_exact());
        assert_eq!(test.max_level(), None);
        assert_eq!(test, DynamicErrorTest::default());
        assert_eq!(
            DynamicErrorTest::new().with_max_level(0).max_level(),
            Some(1)
        );
    }

    #[test]
    #[should_panic]
    fn zero_initial_level_panics() {
        let _ = DynamicErrorTest::new().with_initial_level(0);
    }

    #[test]
    fn target_error_pins_the_max_level() {
        assert_eq!(
            DynamicErrorTest::from_target_error(1.0).max_level(),
            Some(1)
        );
        assert_eq!(
            DynamicErrorTest::from_target_error(0.5).max_level(),
            Some(2)
        );
        assert_eq!(
            DynamicErrorTest::from_target_error(0.25).max_level(),
            Some(4)
        );
        assert_eq!(
            DynamicErrorTest::from_target_error(0.125).max_level(),
            Some(8)
        );
        assert_eq!(
            DynamicErrorTest::from_target_error(2.0).max_level(),
            Some(1)
        );
        assert!(!DynamicErrorTest::from_target_error(0.25).is_exact());
        // A fine target error behaves like the exact test on a set needing
        // refinement; a coarse one stays sound (Unknown, never wrong).
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        assert_eq!(
            DynamicErrorTest::from_target_error(1e-6)
                .analyze(&ts)
                .verdict,
            Verdict::Feasible
        );
        assert_eq!(
            DynamicErrorTest::from_target_error(1.0)
                .analyze(&ts)
                .verdict,
            Verdict::Unknown
        );
    }

    #[test]
    fn full_utilization_implicit_deadline_set() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(1, 4, 4), t(1, 4, 4)]);
        assert_eq!(
            DynamicErrorTest::new().analyze(&ts).verdict,
            Verdict::Feasible
        );
    }
}

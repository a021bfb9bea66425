//! The superposition test `SuperPos(x)` (Def. 6, §3.4 of the paper).
//!
//! `SuperPos(x)` examines the deadlines of the first `x` jobs of every
//! demand component exactly and covers all later intervals by the linear
//! approximation of Def. 4 (see [`crate::superposition`]).  It is a
//! sufficient test whose pessimism shrinks as `x` grows; `SuperPos(1)` is
//! exactly Devi's test (Lemma 2) and `SuperPos(∞)` is the processor demand
//! test.
//!
//! §4.1 describes the dynamic-error test as this analysis with a growing
//! level, and bounding that level gives a sufficient test.  `SuperPos(x)`
//! is that bounded test with its level held at `x`: it runs the
//! dynamic-error driver of [`crate::refine`] with initial and maximum
//! level `x` and no horizon.  Every periodic component is approximated
//! after its `x`-th deadline, so the frontier empties by itself.
//!
//! The engine counts one comparison per examined `(interval, component)`
//! pair, so components sharing a deadline count once each, and it charges
//! one [`WorkBudget`](crate::budget::WorkBudget) unit per comparison.

use edf_model::Time;

use crate::analysis::{Analysis, FeasibilityTest, Verdict};
use crate::kernel::AnalysisScratch;
use crate::tests::DynamicErrorTest;
use crate::workload::PreparedWorkload;

/// The superposition test at a fixed approximation level.
///
/// # Examples
///
/// ```
/// use edf_analysis::tests::SuperpositionTest;
/// use edf_analysis::{FeasibilityTest, Verdict};
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
///     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
/// ]);
/// // Devi (= SuperPos(1)) cannot accept this set, but SuperPos(3) can.
/// assert_eq!(SuperpositionTest::new(1).analyze(&ts).verdict, Verdict::Unknown);
/// assert_eq!(SuperpositionTest::new(3).analyze(&ts).verdict, Verdict::Feasible);
/// // Levels can also be requested as a relative demand error.
/// assert_eq!(SuperpositionTest::from_target_error(0.25).level(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperpositionTest {
    level: u64,
    name: String,
}

impl SuperpositionTest {
    /// Creates a superposition test with the given level (`x ≥ 1`): the
    /// number of jobs of each task whose deadlines are examined exactly.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    #[must_use]
    pub fn new(level: u64) -> Self {
        assert!(level >= 1, "superposition level must be at least 1");
        SuperpositionTest {
            level,
            name: format!("superpos({level})"),
        }
    }

    /// The approximation level `x`.
    #[must_use]
    pub fn level(&self) -> u64 {
        self.level
    }

    /// The test at a requested relative demand error: the level is derived
    /// as `⌈1/epsilon⌉` (see
    /// [`level_for_target_error`](crate::superposition::level_for_target_error)),
    /// so the approximated demand the test compares never over-estimates
    /// the exact demand by more than a factor `1 + epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not a positive finite number.
    #[must_use]
    pub fn from_target_error(epsilon: f64) -> Self {
        SuperpositionTest::new(crate::superposition::level_for_target_error(epsilon))
    }
}

impl FeasibilityTest for SuperpositionTest {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_exact(&self) -> bool {
        false
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
        let capped = DynamicErrorTest::new()
            .with_initial_level(self.level)
            .with_max_level(self.level);
        let mut analysis = crate::refine::dynamic_error(&capped, workload, Time::MAX, scratch);
        // A failed comparison with approximations left ends in `Unknown`
        // at the level cap, without a witness.  A failed fully exact
        // comparison is a genuine overload, whose exact witness the
        // sufficient test keeps while it answers `Unknown`.
        if analysis.verdict == Verdict::Infeasible {
            analysis.verdict = Verdict::Unknown;
        }
        analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::dbf_set;
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    /// Exhaustive reference feasibility check over a brute-force horizon.
    fn brute_force_feasible(ts: &TaskSet, horizon: u64) -> bool {
        if ts.utilization_exceeds_one() {
            return false;
        }
        (1..=horizon).all(|i| dbf_set(ts, Time::new(i)) <= Time::new(i))
    }

    #[test]
    fn level_one_counts_one_interval_per_distinct_deadline() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 8), t(1, 6, 12), t(1, 9, 18)]);
        let analysis = SuperpositionTest::new(1).analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Feasible);
        assert_eq!(analysis.iterations, 3);
    }

    #[test]
    fn rejects_overload_immediately() {
        let ts = TaskSet::from_tasks(vec![t(9, 9, 10), t(9, 9, 10)]);
        let analysis = SuperpositionTest::new(4).analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        assert_eq!(analysis.iterations, 0);
    }

    #[test]
    fn higher_levels_accept_more_sets() {
        // Feasible set with tight deadlines relative to periods: low levels
        // reject it, high levels accept it.
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        assert!(brute_force_feasible(&ts, 1_000));
        let verdicts: Vec<Verdict> = (1..=6)
            .map(|x| SuperpositionTest::new(x).analyze(&ts).verdict)
            .collect();
        // Monotone: once accepted, stays accepted.
        let first_accept = verdicts.iter().position(|v| v.is_feasible());
        assert!(first_accept.is_some(), "a high enough level must accept");
        for (i, v) in verdicts.iter().enumerate() {
            if Some(i) >= first_accept {
                assert!(v.is_feasible());
            }
        }
    }

    #[test]
    fn acceptance_implies_brute_force_feasibility() {
        // Soundness on a few hand-picked sets.
        let sets = vec![
            TaskSet::from_tasks(vec![t(1, 3, 7), t(2, 9, 11), t(1, 5, 13)]),
            TaskSet::from_tasks(vec![t(2, 4, 10), t(3, 8, 15), t(1, 2, 6)]),
            TaskSet::from_tasks(vec![t(3, 5, 9), t(2, 11, 14)]),
        ];
        for ts in sets {
            for level in 1..=5u64 {
                let analysis = SuperpositionTest::new(level).analyze(&ts);
                if analysis.verdict.is_feasible() {
                    assert!(brute_force_feasible(&ts, 2_000));
                }
            }
        }
    }

    #[test]
    fn unknown_verdict_reports_witness_interval() {
        // Feasible, but too coarse at level 1: the level cap answers
        // `Unknown` and names no interval, since none is overloaded.
        let ts = TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]);
        assert!(brute_force_feasible(&ts, 1_000));
        let analysis = SuperpositionTest::new(1).analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Unknown);
        assert_eq!(analysis.overload, None);

        // At level 2 both jobs due by 4 are examined exactly and overload
        // it: the answer stays `Unknown`, with the exact witness `dbf(4)`.
        let ts = TaskSet::from_tasks(vec![t(3, 3, 10), t(3, 4, 10)]);
        let analysis = SuperpositionTest::new(2).analyze(&ts);
        assert_eq!(analysis.verdict, Verdict::Unknown);
        let overload = analysis.overload.expect("exact overload has a witness");
        assert_eq!(overload.interval, Time::new(4));
        assert_eq!(overload.demand, dbf_set(&ts, Time::new(4)));
        assert_eq!(overload.demand, Time::new(6));
        // At level 1 the first task is approximated by 4, so the failure
        // is the level cap's and carries no witness.
        assert_eq!(SuperpositionTest::new(1).analyze(&ts).overload, None);
    }

    #[test]
    fn iteration_count_grows_with_level() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 8), t(1, 6, 12), t(1, 9, 18)]);
        let mut last = 0;
        for level in 1..=5u64 {
            let analysis = SuperpositionTest::new(level).analyze(&ts);
            assert!(analysis.iterations >= last);
            last = analysis.iterations;
        }
        assert!(last > 3);
    }

    #[test]
    fn level_accessor_and_name() {
        let test = SuperpositionTest::new(4);
        assert_eq!(test.level(), 4);
        assert_eq!(test.name(), "superpos(4)");
        assert!(!test.is_exact());
    }

    #[test]
    #[should_panic]
    fn zero_level_panics() {
        let _ = SuperpositionTest::new(0);
    }

    #[test]
    fn empty_set_is_feasible() {
        assert_eq!(
            SuperpositionTest::new(2).analyze(&TaskSet::new()).verdict,
            Verdict::Feasible
        );
    }
}

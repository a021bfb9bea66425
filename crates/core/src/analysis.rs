//! Common result and reporting types shared by all feasibility tests.
//!
//! Every test in this crate implements [`FeasibilityTest`] and returns an
//! [`Analysis`]: the verdict, the number of examined test intervals (the
//! paper's §5 effort metric), and — when the test found a violation — a
//! [`DemandOverload`] witness identifying the interval whose demand exceeds
//! the capacity.

use core::fmt;

use edf_model::{TaskSet, Time};

use crate::budget::{Progress, ProgressPhase, WorkBudget};
use crate::kernel::AnalysisScratch;
use crate::workload::{PreparedWorkload, Workload};

/// Outcome of a feasibility test.
///
/// Sufficient tests (Liu & Layland, density, Devi, `SuperPos(x)`) can only
/// ever answer [`Verdict::Feasible`] or [`Verdict::Unknown`]; the exact
/// tests (processor demand, QPA, dynamic-error, all-approximated) answer
/// [`Verdict::Feasible`] or [`Verdict::Infeasible`] for every valid input.
///
/// # Examples
///
/// ```
/// use edf_analysis::Verdict;
///
/// assert!(Verdict::Feasible.is_feasible());
/// assert!(!Verdict::Unknown.is_decisive());
/// assert!(Verdict::Infeasible.is_decisive());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every deadline is guaranteed to be met under preemptive EDF.
    Feasible,
    /// Some synchronous arrival pattern misses a deadline under any
    /// scheduler (EDF is optimal on a uniprocessor).
    Infeasible,
    /// The (sufficient) test could not establish feasibility; the set may
    /// or may not be schedulable.
    Unknown,
}

impl Verdict {
    /// `true` if the verdict is [`Verdict::Feasible`].
    #[must_use]
    pub fn is_feasible(self) -> bool {
        matches!(self, Verdict::Feasible)
    }

    /// `true` if the verdict is [`Verdict::Infeasible`].
    #[must_use]
    pub fn is_infeasible(self) -> bool {
        matches!(self, Verdict::Infeasible)
    }

    /// `true` if the test reached a definitive answer (feasible or
    /// infeasible).
    #[must_use]
    pub fn is_decisive(self) -> bool {
        !matches!(self, Verdict::Unknown)
    }

    /// `true` if the verdict is [`Verdict::Unknown`].
    #[must_use]
    pub fn is_unknown(self) -> bool {
        matches!(self, Verdict::Unknown)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Verdict::Feasible => "feasible",
            Verdict::Infeasible => "infeasible",
            Verdict::Unknown => "unknown",
        };
        f.write_str(text)
    }
}

/// Witness of a capacity violation: an interval whose cumulated demand
/// exceeds its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandOverload {
    /// Interval length at which the violation was established.
    pub interval: Time,
    /// Exact demand `dbf(interval, Γ)` at that interval.
    pub demand: Time,
}

impl fmt::Display for DemandOverload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "demand {} exceeds capacity in interval of length {}",
            self.demand, self.interval
        )
    }
}

/// Full result of running a feasibility test on a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// The verdict.
    pub verdict: Verdict,
    /// Number of demand/capacity comparisons performed — the paper's
    /// "iterations" metric (§5).
    pub iterations: u64,
    /// Largest interval examined by the test, if any interval was examined.
    pub max_examined_interval: Option<Time>,
    /// Violation witness, present when the verdict is
    /// [`Verdict::Infeasible`] and the test identifies a concrete interval.
    /// A sufficient test answers `Unknown` even where it finds a real
    /// overload, and may report that exact witness
    /// ([`SuperpositionTest`](crate::tests::SuperpositionTest) does); an
    /// approximation that is merely too coarse gets no witness.
    pub overload: Option<DemandOverload>,
    /// Present **if and only if** a [`WorkBudget`](crate::budget::WorkBudget)
    /// ran out before the test could finish: the verdict is then an honest
    /// [`Verdict::Unknown`] and this records how far the analysis got
    /// (units spent, phase reached, largest certified interval).  Always
    /// `None` under the default unlimited budget.
    pub progress: Option<Progress>,
}

impl Analysis {
    /// A zero-effort analysis with the given verdict (used for trivial
    /// early exits such as an empty task set or `U > 1`).
    #[must_use]
    pub fn trivial(verdict: Verdict) -> Self {
        Analysis {
            verdict,
            iterations: 0,
            max_examined_interval: None,
            overload: None,
            progress: None,
        }
    }

    /// Convenience accessor mirroring [`Verdict::is_feasible`].
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.verdict.is_feasible()
    }

    /// `true` when this analysis stopped because its
    /// [`WorkBudget`](crate::budget::WorkBudget) ran out (equivalent to
    /// `self.progress.is_some()`).
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.progress.is_some()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {} iteration(s)", self.verdict, self.iterations)?;
        if let Some(overload) = &self.overload {
            write!(f, " ({overload})")?;
        }
        if let Some(progress) = &self.progress {
            write!(f, " [{progress}]")?;
        }
        Ok(())
    }
}

/// Interface implemented by every feasibility test in this crate.
///
/// Tests consume a [`PreparedWorkload`] — the cached canonical form of any
/// [`Workload`](crate::workload::Workload) — so the same implementations
/// serve sporadic task sets, Gresser event streams and mixed systems.  The
/// convenience entry points [`FeasibilityTest::analyze`] (task sets) and
/// [`FeasibilityTest::analyze_workload`] (any workload) prepare on the
/// fly; batch callers prepare once and use
/// [`FeasibilityTest::analyze_prepared`] directly.
///
/// The trait is object-safe so heterogeneous collections of tests can be
/// iterated by the experiment harness:
///
/// ```
/// use edf_analysis::tests::{DeviTest, ProcessorDemandTest};
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![Task::new(Time::new(1), Time::new(4), Time::new(8))?]);
/// let suite: Vec<Box<dyn FeasibilityTest>> = vec![
///     Box::new(DeviTest::new()),
///     Box::new(ProcessorDemandTest::new()),
/// ];
/// for test in &suite {
///     assert!(test.analyze(&ts).is_feasible());
/// }
/// # Ok(())
/// # }
/// ```
pub trait FeasibilityTest {
    /// Short human-readable name of the test (used in reports and benches).
    fn name(&self) -> &str;

    /// `true` if the test is exact (necessary and sufficient); `false` for
    /// purely sufficient tests.
    fn is_exact(&self) -> bool;

    /// Runs the test treating the prepared component demand as the true
    /// demand of the workload (the per-test implementation; call
    /// [`FeasibilityTest::analyze_prepared`] or
    /// [`FeasibilityTest::analyze_prepared_with`] instead).
    ///
    /// `scratch` provides the reusable transient buffers (merge state,
    /// pending-interval queues, approximation terms); a test may ignore it.
    /// The analysis result never depends on the scratch's buffer contents
    /// — the one deliberate exception is the scratch's
    /// [`WorkBudget`](crate::budget::WorkBudget), an explicit input that
    /// can cap the work a budget-aware test performs (see
    /// [`AnalysisScratch::set_budget`]).
    fn analyze_demand(
        &self,
        workload: &PreparedWorkload,
        scratch: &mut AnalysisScratch,
    ) -> Analysis;

    /// Runs the test on a prepared workload with a fresh scratch — see
    /// [`FeasibilityTest::analyze_prepared_with`] for the
    /// allocation-reusing batch entry point (results are identical).
    fn analyze_prepared(&self, workload: &PreparedWorkload) -> Analysis {
        self.analyze_prepared_with(workload, &mut AnalysisScratch::new())
    }

    /// Runs the test on a prepared workload (the core entry point; the
    /// prepared state is shared when several tests analyze one workload,
    /// and the scratch is reused across analyses by the batch front end).
    ///
    /// When the workload's decomposition **over-approximates** its demand
    /// (a conservative arrival-curve mode, the synchronous reduction of an
    /// offset transaction — see
    /// [`PreparedWorkload::demand_is_exact`]), a rejection only means "the
    /// over-approximation does not fit": the workload itself may still be
    /// feasible, so [`Verdict::Infeasible`] is demoted to
    /// [`Verdict::Unknown`] (and the witness dropped — it violates the
    /// over-approximation, not the workload).  Feasible verdicts are sound
    /// either way, and so is a `U > 1` rejection whenever the
    /// decomposition preserves the long-run utilization
    /// ([`PreparedWorkload::utilization_is_exact`]) — that one is kept.
    fn analyze_prepared_with(
        &self,
        workload: &PreparedWorkload,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        let analysis = self.analyze_demand(workload, scratch);
        if analysis.verdict == Verdict::Infeasible
            && !workload.demand_is_exact()
            && !(workload.utilization_exceeds_one() && workload.utilization_is_exact())
        {
            return Analysis {
                verdict: Verdict::Unknown,
                overload: None,
                ..analysis
            };
        }
        analysis
    }

    /// Runs the test on a sporadic task set.
    fn analyze(&self, task_set: &TaskSet) -> Analysis {
        self.analyze_prepared(&PreparedWorkload::new(task_set))
    }

    /// Runs the test on any demand-characterized workload (event streams,
    /// mixed systems, custom models).
    fn analyze_workload(&self, workload: &dyn Workload) -> Analysis {
        self.analyze_prepared(&PreparedWorkload::new(workload))
    }
}

/// Mutable counter for the effort metric, shared by the test
/// implementations.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IterationCounter {
    count: u64,
    max_interval: Option<Time>,
}

impl IterationCounter {
    pub(crate) fn new() -> Self {
        IterationCounter::default()
    }

    /// Records one demand/capacity comparison at `interval`.
    pub(crate) fn record(&mut self, interval: Time) {
        self.count += 1;
        self.max_interval = Some(match self.max_interval {
            Some(current) => current.max(interval),
            None => interval,
        });
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The largest interval examined so far (the demand walk's certified
    /// prefix when every examined comparison was satisfied).
    pub(crate) fn max_interval(&self) -> Option<Time> {
        self.max_interval
    }

    pub(crate) fn finish(self, verdict: Verdict, overload: Option<DemandOverload>) -> Analysis {
        Analysis {
            verdict,
            iterations: self.count,
            max_examined_interval: self.max_interval,
            overload,
            progress: None,
        }
    }

    /// Finishes a budget-exhausted run: an honest [`Verdict::Unknown`]
    /// carrying the [`Progress`] record.  `certified_interval` is the
    /// largest interval the loop *completed* a satisfied comparison for
    /// (not merely examined — a comparison interrupted mid-refinement
    /// certifies nothing).
    pub(crate) fn finish_exhausted(
        self,
        budget: &WorkBudget,
        phase: ProgressPhase,
        certified_interval: Option<Time>,
    ) -> Analysis {
        Analysis {
            verdict: Verdict::Unknown,
            iterations: self.count,
            max_examined_interval: self.max_interval,
            overload: None,
            progress: Some(Progress {
                units_spent: budget.spent(),
                phase,
                certified_interval,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Feasible.is_feasible());
        assert!(!Verdict::Feasible.is_infeasible());
        assert!(Verdict::Infeasible.is_infeasible());
        assert!(Verdict::Feasible.is_decisive());
        assert!(Verdict::Infeasible.is_decisive());
        assert!(!Verdict::Unknown.is_decisive());
        assert_eq!(Verdict::Feasible.to_string(), "feasible");
        assert_eq!(Verdict::Infeasible.to_string(), "infeasible");
        assert_eq!(Verdict::Unknown.to_string(), "unknown");
    }

    #[test]
    fn analysis_display_and_trivial() {
        let a = Analysis::trivial(Verdict::Feasible);
        assert!(a.is_feasible());
        assert_eq!(a.iterations, 0);
        assert!(a.to_string().contains("feasible"));

        let b = Analysis {
            verdict: Verdict::Infeasible,
            iterations: 3,
            max_examined_interval: Some(Time::new(17)),
            overload: Some(DemandOverload {
                interval: Time::new(17),
                demand: Time::new(20),
            }),
            progress: None,
        };
        let text = b.to_string();
        assert!(text.contains("infeasible"));
        assert!(text.contains("17"));
        assert!(text.contains("20"));
    }

    #[test]
    fn iteration_counter_tracks_count_and_max() {
        let mut c = IterationCounter::new();
        assert_eq!(c.count(), 0);
        c.record(Time::new(5));
        c.record(Time::new(3));
        c.record(Time::new(9));
        assert_eq!(c.count(), 3);
        let analysis = c.finish(Verdict::Feasible, None);
        assert_eq!(analysis.iterations, 3);
        assert_eq!(analysis.max_examined_interval, Some(Time::new(9)));
        assert_eq!(analysis.overload, None);
    }

    #[test]
    fn overload_display() {
        let o = DemandOverload {
            interval: Time::new(10),
            demand: Time::new(12),
        };
        assert!(o.to_string().contains("12"));
    }
}

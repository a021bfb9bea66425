//! Deterministic work budgets: cooperative cancellation for the analysis
//! loops.
//!
//! The paper's exact tests are worst-case unbounded in practice — the
//! number of test intervals explodes with utilization and period spread —
//! so a service built on them needs a way to interrupt a runaway analysis
//! *mid-loop*.  Wall-clock deadlines can do that, but the resulting
//! degradation behavior is irreproducible: whether a request is shed
//! depends on machine speed and scheduling jitter, which makes load
//! shedding impossible to property-test or fault-inject deterministically.
//!
//! [`WorkBudget`] replaces the clock with a count of **deterministic work
//! units** — demand-merge events consumed, QPA descent iterations,
//! refinement-frontier comparison steps, candidate combinations.  Every
//! long-running loop in the crate charges one unit per step at a cheap
//! checkpoint (one saturating add and one compare) and, when the budget
//! is exhausted, unwinds cleanly to an honest
//! [`Verdict::Unknown`](crate::Verdict::Unknown) carrying a [`Progress`]
//! record of how far the analysis got.  Two runs with the same workload
//! and the same budget always stop at the same step with the same answer.
//!
//! The budget travels in [`AnalysisScratch`](crate::AnalysisScratch)
//! (every budget-aware loop already receives the scratch): install one
//! with [`AnalysisScratch::set_budget`](crate::AnalysisScratch::set_budget),
//! run any analysis, then inspect
//! [`Analysis::progress`](crate::Analysis::progress) — `Some` if and only
//! if the budget ran out — and recover the spent count with
//! [`AnalysisScratch::take_budget`](crate::AnalysisScratch::take_budget).
//! The default budget is [`WorkBudget::unlimited`], under which every
//! analysis is bit-identical to the un-budgeted code paths.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::budget::WorkBudget;
//! use edf_analysis::tests::ProcessorDemandTest;
//! use edf_analysis::workload::PreparedWorkload;
//! use edf_analysis::{AnalysisScratch, FeasibilityTest};
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(3), Time::new(4), Time::new(10))?,
//!     Task::new(Time::new(4), Time::new(6), Time::new(10))?,
//!     Task::new(Time::new(2), Time::new(5), Time::new(12))?,
//! ]);
//! let prepared = PreparedWorkload::new(&ts);
//! let mut scratch = AnalysisScratch::new();
//!
//! // Two units are not enough to walk this workload's demand events.
//! scratch.set_budget(WorkBudget::limited(2));
//! let analysis = ProcessorDemandTest::new().analyze_prepared_with(&prepared, &mut scratch);
//! let progress = analysis.progress.expect("budget must exhaust");
//! assert!(analysis.verdict.is_unknown());
//! assert!(progress.units_spent >= 2);
//!
//! // An unlimited budget reproduces the plain analysis bit-for-bit.
//! scratch.set_budget(WorkBudget::unlimited());
//! let full = ProcessorDemandTest::new().analyze_prepared_with(&prepared, &mut scratch);
//! assert_eq!(full, ProcessorDemandTest::new().analyze_prepared(&prepared));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use edf_model::Time;

/// A deterministic work budget: a limit on the number of work units an
/// analysis may consume before it must stop and answer
/// [`Verdict::Unknown`](crate::Verdict::Unknown).
///
/// A unit is one checkpointed loop step — see the [module docs](self) for
/// the exact loops that charge.  The token is a plain counter pair, so
/// copying it out of a scratch, threading it through a loop as a local,
/// and storing it back is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkBudget {
    limit: u64,
    spent: u64,
}

impl WorkBudget {
    /// A budget that never exhausts.  Analyses run under an unlimited
    /// budget are bit-identical to the un-budgeted code paths (the spent
    /// counter still advances, which is how callers can *measure* work
    /// without capping it).
    #[must_use]
    pub const fn unlimited() -> Self {
        WorkBudget {
            limit: u64::MAX,
            spent: 0,
        }
    }

    /// A budget of exactly `units` work units.
    #[must_use]
    pub const fn limited(units: u64) -> Self {
        WorkBudget {
            limit: units,
            spent: 0,
        }
    }

    /// Charges `units` units and reports whether the budget still holds.
    ///
    /// Returns `false` once total spend exceeds the limit; the caller must
    /// then stop **before** performing the step it was about to charge
    /// for.  This is the per-iteration checkpoint, kept to one saturating
    /// add and one compare so hot loops can afford it.
    #[inline]
    #[must_use]
    pub fn charge(&mut self, units: u64) -> bool {
        self.spent = self.spent.saturating_add(units);
        self.spent <= self.limit
    }

    /// The configured limit (`u64::MAX` for [`WorkBudget::unlimited`]).
    #[must_use]
    pub const fn limit(&self) -> u64 {
        self.limit
    }

    /// Units charged so far (including the charge that exhausted the
    /// budget, if any).
    #[must_use]
    pub const fn spent(&self) -> u64 {
        self.spent
    }

    /// Units left before exhaustion.
    #[must_use]
    pub const fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent)
    }

    /// `true` once a [`WorkBudget::charge`] has been refused.
    #[must_use]
    pub const fn is_exhausted(&self) -> bool {
        self.spent > self.limit
    }
}

impl Default for WorkBudget {
    /// The default budget is unlimited — scratch reuse without
    /// [`set_budget`](crate::AnalysisScratch::set_budget) never caps work.
    fn default() -> Self {
        WorkBudget::unlimited()
    }
}

/// The analysis phase a budget-exhausted run had reached; coarse, but
/// enough to tell "never got past the feasibility bounds" from "was deep
/// in the refinement loop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressPhase {
    /// Before any analysis loop started: the admission service's one-unit
    /// request-entry charge was refused (no test interval was examined).
    Bounds,
    /// Walking the merged demand events of the processor demand test.
    DemandWalk,
    /// QPA's downward descent from the initial upper bound.
    QpaDescent,
    /// The refining tests' frontier loop (dynamic-error or
    /// all-approximated).
    Refinement,
    /// The candidate-product sweep of the transaction analysis.
    CandidateSweep,
}

impl fmt::Display for ProgressPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProgressPhase::Bounds => "bounds",
            ProgressPhase::DemandWalk => "demand-walk",
            ProgressPhase::QpaDescent => "qpa-descent",
            ProgressPhase::Refinement => "refinement",
            ProgressPhase::CandidateSweep => "candidate-sweep",
        };
        f.write_str(name)
    }
}

/// What a budget-exhausted analysis managed to establish before it was
/// cancelled — attached to [`Analysis::progress`](crate::Analysis::progress)
/// **only** when a [`WorkBudget`] ran out, so equality of budgeted and
/// un-budgeted results keeps meaning "same answer, same work".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Work units charged before the analysis stopped (includes the
    /// refused charge).
    pub units_spent: u64,
    /// The loop the analysis was cancelled in.
    pub phase: ProgressPhase,
    /// The largest test interval certified violation-free before the
    /// cancellation: every examined interval `≤` this one had
    /// `demand ≤ interval`.  `None` when no interval comparison had
    /// completed (or the phase, like QPA's descent, certifies downward
    /// rather than upward).
    pub certified_interval: Option<Time>,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted after {} unit(s) in {}",
            self.units_spent, self.phase
        )?;
        if let Some(interval) = self.certified_interval {
            write!(f, ", certified ≤ {interval}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut budget = WorkBudget::unlimited();
        for _ in 0..1000 {
            assert!(budget.charge(u64::MAX / 2));
        }
        assert!(!budget.is_exhausted());
        assert_eq!(budget.spent(), u64::MAX);
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn limited_exhausts_at_the_boundary() {
        let mut budget = WorkBudget::limited(3);
        assert!(budget.charge(1));
        assert!(budget.charge(1));
        assert!(budget.charge(1));
        assert!(!budget.is_exhausted());
        assert_eq!(budget.remaining(), 0);
        assert!(!budget.charge(1));
        assert!(budget.is_exhausted());
        assert_eq!(budget.spent(), 4);
    }

    #[test]
    fn zero_budget_refuses_the_first_charge() {
        let mut budget = WorkBudget::limited(0);
        assert!(!budget.charge(1));
        assert!(budget.is_exhausted());
    }

    #[test]
    fn progress_display_is_readable() {
        let progress = Progress {
            units_spent: 42,
            phase: ProgressPhase::Refinement,
            certified_interval: Some(Time::new(99)),
        };
        let text = progress.to_string();
        assert!(text.contains("42 unit(s)"));
        assert!(text.contains("refinement"));
        assert!(text.contains("99"));
    }
}

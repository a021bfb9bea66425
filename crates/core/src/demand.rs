//! The demand and request bound functions of sporadic tasks (Def. 2).
//!
//! For a sporadic task `τ = (C, D, T)` released synchronously, the jobs
//! whose release *and* absolute deadline lie inside an interval of length
//! `I` are the first `⌊(I − D)/T⌋ + 1` jobs (for `I ≥ D`), giving the
//! classic demand bound function
//!
//! ```text
//! dbf(I, τ) = (⌊(I − D)/T⌋ + 1) · C      if I ≥ D
//!           = 0                           otherwise
//! ```
//!
//! The processor demand criterion (Def. 3) compares `dbf(I, Γ) = Σ dbf(I, τ)`
//! against the available capacity `I` at every interval where `dbf`
//! changes, i.e. at the absolute deadlines of jobs.  The tests evaluate
//! demand on the columnar [`kernel`](crate::kernel), whose windowed
//! deadline merge enumerates those deadlines; the per-task closed forms
//! here are the reference the tests of that machinery compare against.

use edf_model::{Task, TaskSet, Time};

/// Demand bound function of a single task for interval length `interval`
/// (Def. 2, split per task).
///
/// Saturates at `u64::MAX` ticks instead of overflowing; intervals anywhere
/// near that magnitude are far beyond any feasibility bound used by the
/// analyses.
///
/// # Examples
///
/// ```
/// use edf_analysis::demand::dbf_task;
/// use edf_model::{Task, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let tau = Task::new(Time::new(2), Time::new(4), Time::new(10))?;
/// assert_eq!(dbf_task(&tau, Time::new(3)), Time::ZERO);
/// assert_eq!(dbf_task(&tau, Time::new(4)), Time::new(2));
/// assert_eq!(dbf_task(&tau, Time::new(14)), Time::new(4));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn dbf_task(task: &Task, interval: Time) -> Time {
    if interval < task.deadline() {
        return Time::ZERO;
    }
    let jobs = (interval - task.deadline()).div_floor(task.period()) + 1;
    task.wcet().saturating_mul(jobs)
}

/// Demand bound function of a whole task set.
///
/// # Examples
///
/// ```
/// use edf_analysis::demand::dbf_set;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     Task::new(Time::new(1), Time::new(2), Time::new(4))?,
///     Task::new(Time::new(2), Time::new(6), Time::new(8))?,
/// ]);
/// assert_eq!(dbf_set(&ts, Time::new(6)), Time::new(4)); // 2 jobs of τ1 + 1 job of τ2
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn dbf_set(task_set: &TaskSet, interval: Time) -> Time {
    task_set.iter().fold(Time::ZERO, |acc, t| {
        acc.saturating_add(dbf_task(t, interval))
    })
}

/// Request bound function of a single task: cumulative execution time of
/// jobs *released* within an interval of length `interval` (used by the
/// synchronous busy period computation).
///
/// `rbf(I, τ) = ⌈I / T⌉ · C` for `I > 0` and `C` for `I = 0` (the job
/// released at the interval start).
#[must_use]
pub fn rbf_task(task: &Task, interval: Time) -> Time {
    let jobs = if interval.is_zero() {
        1
    } else {
        interval.div_ceil(task.period())
    };
    task.wcet().saturating_mul(jobs)
}

/// Request bound function of a task set.
#[must_use]
pub fn rbf_set(task_set: &TaskSet, interval: Time) -> Time {
    task_set.iter().fold(Time::ZERO, |acc, t| {
        acc.saturating_add(rbf_task(t, interval))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DemandComponent, DemandEventIter};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn dbf_single_task_staircase() {
        let tau = t(2, 4, 10);
        let expect = |i: u64| -> u64 {
            if i < 4 {
                0
            } else {
                ((i - 4) / 10 + 1) * 2
            }
        };
        for i in 0..60 {
            assert_eq!(dbf_task(&tau, Time::new(i)).as_u64(), expect(i), "I = {i}");
        }
    }

    #[test]
    fn dbf_set_is_sum_of_tasks() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 4), t(2, 6, 8), t(3, 10, 20)]);
        for i in (0..100).step_by(3) {
            let i = Time::new(i);
            let total: u64 = ts.iter().map(|task| dbf_task(task, i).as_u64()).sum();
            assert_eq!(dbf_set(&ts, i).as_u64(), total);
        }
    }

    #[test]
    fn dbf_handles_wcet_above_deadline() {
        // A task with C > D is trivially infeasible; dbf must reflect that.
        let tau = t(5, 3, 10);
        assert_eq!(dbf_task(&tau, Time::new(3)), Time::new(5));
        assert!(dbf_task(&tau, Time::new(3)) > Time::new(3));
    }

    #[test]
    fn dbf_saturates_instead_of_overflowing() {
        let big = 1u64 << 63;
        let tau = t(big, 1, big);
        // At interval u64::MAX two jobs fit, and 2 * 2^63 overflows u64.
        assert_eq!(dbf_task(&tau, Time::MAX), Time::MAX);
    }

    #[test]
    fn job_count_matches_dbf() {
        let tau = t(3, 7, 12);
        for i in 0..100u64 {
            // Jobs released at k*12 whose deadline k*12 + 7 falls within [0, i].
            let jobs = (0..=i / 12).filter(|k| k * 12 + 7 <= i).count() as u64;
            assert_eq!(dbf_task(&tau, Time::new(i)).as_u64(), jobs * 3, "I = {i}");
        }
    }

    #[test]
    fn rbf_staircase() {
        let tau = t(2, 4, 10);
        assert_eq!(rbf_task(&tau, Time::ZERO), Time::new(2));
        assert_eq!(rbf_task(&tau, Time::new(1)), Time::new(2));
        assert_eq!(rbf_task(&tau, Time::new(10)), Time::new(2));
        assert_eq!(rbf_task(&tau, Time::new(11)), Time::new(4));
        let ts = TaskSet::from_tasks(vec![t(2, 4, 10), t(1, 1, 3)]);
        assert_eq!(rbf_set(&ts, Time::new(11)), Time::new(4 + 4));
    }

    #[test]
    fn rbf_dominates_dbf() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 4), t(2, 6, 8), t(3, 10, 20)]);
        for i in 0..200 {
            let i = Time::new(i);
            assert!(rbf_set(&ts, i) >= dbf_set(&ts, i));
        }
    }

    /// Lemma 5's `NextInt` of a task's component: the first job deadline
    /// strictly after the interval.
    fn next_int(task: &Task, interval: Time) -> Option<Time> {
        DemandComponent::from_task(task).next_deadline_after(interval)
    }

    /// Every job deadline `≤ horizon` of the task set's components, as
    /// `(deadline, task index)` in the merge's order.
    fn deadlines(task_set: &TaskSet, horizon: Time) -> Vec<(Time, usize)> {
        let components: Vec<DemandComponent> =
            task_set.iter().map(DemandComponent::from_task).collect();
        DemandEventIter::new(&components, horizon)
            .map(|event| (event.interval, event.component))
            .collect()
    }

    #[test]
    fn next_deadline_after_matches_enumeration() {
        let tau = t(1, 4, 10);
        // deadlines: 4, 14, 24, ...
        assert_eq!(next_int(&tau, Time::ZERO), Some(Time::new(4)));
        assert_eq!(next_int(&tau, Time::new(3)), Some(Time::new(4)));
        assert_eq!(next_int(&tau, Time::new(4)), Some(Time::new(14)));
        assert_eq!(next_int(&tau, Time::new(13)), Some(Time::new(14)));
        assert_eq!(next_int(&tau, Time::new(14)), Some(Time::new(24)));
    }

    #[test]
    fn next_deadline_is_strictly_greater_and_dbf_increases_there() {
        let tau = t(2, 5, 7);
        let mut at = Time::ZERO;
        for _ in 0..50 {
            let next = next_int(&tau, at).unwrap();
            assert!(next > at);
            assert!(dbf_task(&tau, next) > dbf_task(&tau, next - Time::ONE));
            at = next;
        }
    }

    #[test]
    fn deadline_iter_sorted_and_complete() {
        let ts = TaskSet::from_tasks(vec![t(1, 3, 5), t(1, 4, 10), t(1, 20, 25)]);
        let horizon = Time::new(50);
        let mut got = deadlines(&ts, horizon);
        // Sorted.
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Complete: every job deadline <= horizon appears exactly once.
        let mut expected = Vec::new();
        for (idx, task) in ts.iter().enumerate() {
            let mut k = 0;
            while let Some(d) = task.job_deadline(k) {
                if d > horizon {
                    break;
                }
                expected.push((d, idx));
                k += 1;
            }
        }
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn deadline_iter_empty_cases() {
        assert!(deadlines(&TaskSet::new(), Time::new(100)).is_empty());
        let ts = TaskSet::from_tasks(vec![t(1, 50, 60)]);
        assert!(deadlines(&ts, Time::new(10)).is_empty());
    }

    #[test]
    fn deadline_iter_counts_ties_per_task() {
        let ts = TaskSet::from_tasks(vec![t(1, 10, 10), t(2, 10, 10)]);
        let events = deadlines(&ts, Time::new(10));
        assert_eq!(events, vec![(Time::new(10), 0), (Time::new(10), 1)]);
    }
}

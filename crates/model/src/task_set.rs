//! Collections of sporadic tasks (`Γ = {τ₁, …, τₙ}`).
//!
//! [`TaskSet`] owns a vector of [`Task`]s and provides the aggregate
//! quantities every feasibility test needs: total utilization, density,
//! hyperperiod, deadline ordering and simple structural statistics.
//!
//! # Examples
//!
//! ```
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(1), Time::new(4), Time::new(8))?,
//!     Task::new(Time::new(2), Time::new(6), Time::new(12))?,
//! ]);
//! assert_eq!(ts.len(), 2);
//! assert!((ts.utilization() - (1.0 / 8.0 + 2.0 / 12.0)).abs() < 1e-12);
//! assert_eq!(ts.hyperperiod(), Some(Time::new(24)));
//! # Ok(())
//! # }
//! ```

use core::fmt;
use core::ops::Index;
use core::slice;

use crate::task::Task;
use crate::time::Time;

/// An owned collection of sporadic tasks.
///
/// The collection deliberately does not enforce any particular ordering; the
/// analyses that require deadline-monotonic order (e.g. Devi's test) sort a
/// copy via [`TaskSet::sorted_by_deadline`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty task set.
    #[must_use]
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Creates a task set from a vector of tasks.
    #[must_use]
    pub fn from_tasks(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }

    /// Number of tasks in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set contains no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task to the set.
    pub fn push(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Borrowing iterator over the tasks.
    pub fn iter(&self) -> slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// The tasks as a slice.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Returns the task at `index`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Task> {
        self.tasks.get(index)
    }

    /// Total utilization `U = Σ Cᵢ/Tᵢ` as `f64`.
    ///
    /// For an exact comparison against 1 (needed by the feasibility tests)
    /// use [`TaskSet::utilization_exceeds_one`].
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Total density `Σ Cᵢ/min(Dᵢ, Tᵢ)` as `f64`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.tasks.iter().map(Task::density).sum()
    }

    /// Exact test whether `U > 1`, performed in integer arithmetic.
    ///
    /// `Σ Cᵢ/Tᵢ > 1` is evaluated by accumulating `Cᵢ·L/Tᵢ` style products in
    /// `u128` pairwise (numerator over a running common denominator, reduced
    /// by the gcd at every step).  If an intermediate product would overflow
    /// `u128` the comparison conservatively falls back to checking the `f64`
    /// utilization against `1 + 1e-9` (never wrongly claims `U ≤ 1` for
    /// massively overloaded sets, and in practice unreachable for realistic
    /// periods).
    ///
    /// # Examples
    ///
    /// ```
    /// use edf_model::{Task, TaskSet, Time};
    /// # fn main() -> Result<(), edf_model::TaskError> {
    /// let ts = TaskSet::from_tasks(vec![
    ///     Task::new(Time::new(1), Time::new(2), Time::new(2))?,
    ///     Task::new(Time::new(1), Time::new(2), Time::new(2))?,
    /// ]);
    /// assert!(!ts.utilization_exceeds_one()); // exactly 1.0
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn utilization_exceeds_one(&self) -> bool {
        // Running sum num/den with den the lcm of the periods seen so far.
        let mut num: u128 = 0;
        let mut den: u128 = 1;
        for task in &self.tasks {
            let c = task.wcet().as_u128();
            let t = task.period().as_u128();
            let g = gcd_u128(den, t);
            let Some(new_den) = den.checked_mul(t / g) else {
                return self.utilization() > 1.0 + 1e-9;
            };
            let Some(scaled_num) = num.checked_mul(new_den / den) else {
                return self.utilization() > 1.0 + 1e-9;
            };
            let Some(term) = c.checked_mul(new_den / t) else {
                return self.utilization() > 1.0 + 1e-9;
            };
            let Some(new_num) = scaled_num.checked_add(term) else {
                return self.utilization() > 1.0 + 1e-9;
            };
            num = new_num;
            den = new_den;
            // Early exit: already above 1.
            if num > den {
                return true;
            }
            // Keep the fraction small.
            let g2 = gcd_u128(num, den);
            if g2 > 1 {
                num /= g2;
                den /= g2;
            }
        }
        num > den
    }

    /// The hyperperiod `lcm(T₁, …, Tₙ)`, or `None` if it overflows `u64`
    /// or the set is empty.
    #[must_use]
    pub fn hyperperiod(&self) -> Option<Time> {
        if self.tasks.is_empty() {
            return None;
        }
        let mut acc = Time::ONE;
        for task in &self.tasks {
            acc = acc.lcm(task.period())?;
        }
        Some(acc)
    }

    /// Largest relative deadline in the set, or `None` for an empty set.
    #[must_use]
    pub fn max_deadline(&self) -> Option<Time> {
        self.tasks.iter().map(Task::deadline).max()
    }

    /// Smallest relative deadline in the set, or `None` for an empty set.
    #[must_use]
    pub fn min_deadline(&self) -> Option<Time> {
        self.tasks.iter().map(Task::deadline).min()
    }

    /// Largest period, or `None` for an empty set.
    #[must_use]
    pub fn max_period(&self) -> Option<Time> {
        self.tasks.iter().map(Task::period).max()
    }

    /// Smallest period, or `None` for an empty set.
    #[must_use]
    pub fn min_period(&self) -> Option<Time> {
        self.tasks.iter().map(Task::period).min()
    }

    /// The ratio `Tmax/Tmin` (the x-axis of Figure 9), or `None` for an
    /// empty set.
    #[must_use]
    pub fn period_ratio(&self) -> Option<f64> {
        let max = self.max_period()?;
        let min = self.min_period()?;
        Some(max.as_f64() / min.as_f64())
    }

    /// Average deadline gap (see [`Task::deadline_gap`]), or `None` for an
    /// empty set.
    #[must_use]
    pub fn average_deadline_gap(&self) -> Option<f64> {
        if self.tasks.is_empty() {
            return None;
        }
        Some(self.tasks.iter().map(Task::deadline_gap).sum::<f64>() / self.tasks.len() as f64)
    }

    /// `true` if every task has `D == T` (the restricted Liu & Layland
    /// model of §3.1).
    #[must_use]
    pub fn all_implicit_deadlines(&self) -> bool {
        self.tasks.iter().all(Task::is_implicit_deadline)
    }

    /// `true` if every task has `D ≤ T` (constrained-deadline model).
    #[must_use]
    pub fn all_constrained_or_implicit(&self) -> bool {
        self.tasks.iter().all(|t| t.deadline() <= t.period())
    }

    /// A copy of the set sorted by non-decreasing relative deadline
    /// (the ordering Devi's test is defined on).
    #[must_use]
    pub fn sorted_by_deadline(&self) -> TaskSet {
        let mut tasks = self.tasks.clone();
        tasks.sort_by_key(Task::deadline);
        TaskSet { tasks }
    }

    /// A copy of the set in which every worst-case execution time is
    /// inflated by `2 · switch_time`, the standard way of accounting for
    /// context-switch overhead in demand-based analysis (each job causes at
    /// most two context switches).  This is one of the practical extensions
    /// of Devi's test that the paper notes carry over to the superposition
    /// approach (§3.5).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TaskError`](crate::TaskError) if an inflated
    /// execution time would exceed the task's period (the overhead alone
    /// overloads that task).
    pub fn with_context_switch_overhead(
        &self,
        switch_time: Time,
    ) -> Result<TaskSet, crate::TaskError> {
        let overhead = switch_time.saturating_mul(2);
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let inflated = task.wcet().saturating_add(overhead);
            let mut builder = crate::TaskBuilder::new(inflated, task.deadline(), task.period())
                .phase(task.phase());
            if let Some(name) = task.name() {
                builder = builder.name(name);
            }
            tasks.push(builder.build()?);
        }
        Ok(TaskSet { tasks })
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "task set: {} tasks, U = {:.4}",
            self.tasks.len(),
            self.utilization()
        )?;
        for task in &self.tasks {
            writeln!(f, "  {task}")?;
        }
        Ok(())
    }
}

impl Index<usize> for TaskSet {
    type Output = Task;

    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl From<Vec<Task>> for TaskSet {
    fn from(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn sample() -> TaskSet {
        TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12), t(3, 10, 24)])
    }

    #[test]
    fn len_iter_index() {
        let ts = sample();
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts[1].wcet(), Time::new(2));
        assert_eq!(ts.get(2).unwrap().period(), Time::new(24));
        assert!(ts.get(3).is_none());
        assert_eq!(ts.iter().count(), 3);
        assert_eq!((&ts).into_iter().count(), 3);
        assert_eq!(ts.clone().into_iter().count(), 3);
        assert_eq!(ts.tasks().len(), 3);
    }

    #[test]
    fn push_extend_collect() {
        let mut ts = TaskSet::new();
        assert!(ts.is_empty());
        ts.push(t(1, 2, 4));
        ts.extend(vec![t(1, 3, 6)]);
        assert_eq!(ts.len(), 2);
        let collected: TaskSet = vec![t(1, 2, 4), t(2, 4, 8)].into_iter().collect();
        assert_eq!(collected.len(), 2);
        let from_vec: TaskSet = vec![t(1, 2, 4)].into();
        assert_eq!(from_vec.len(), 1);
    }

    #[test]
    fn aggregate_quantities() {
        let ts = sample();
        let expected_u = 1.0 / 8.0 + 2.0 / 12.0 + 3.0 / 24.0;
        assert!((ts.utilization() - expected_u).abs() < 1e-12);
        let expected_density = 1.0 / 4.0 + 2.0 / 6.0 + 3.0 / 10.0;
        assert!((ts.density() - expected_density).abs() < 1e-12);
        assert_eq!(ts.hyperperiod(), Some(Time::new(24)));
        assert_eq!(ts.max_deadline(), Some(Time::new(10)));
        assert_eq!(ts.min_deadline(), Some(Time::new(4)));
        assert_eq!(ts.max_period(), Some(Time::new(24)));
        assert_eq!(ts.min_period(), Some(Time::new(8)));
        assert!((ts.period_ratio().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_aggregates() {
        let ts = TaskSet::new();
        assert_eq!(ts.hyperperiod(), None);
        assert_eq!(ts.max_deadline(), None);
        assert_eq!(ts.min_period(), None);
        assert_eq!(ts.period_ratio(), None);
        assert_eq!(ts.average_deadline_gap(), None);
        assert_eq!(ts.utilization(), 0.0);
        assert!(!ts.utilization_exceeds_one());
        assert!(ts.all_implicit_deadlines());
    }

    #[test]
    fn exact_utilization_comparison() {
        // Exactly 1: 1/2 + 1/3 + 1/6.
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(1, 3, 3), t(1, 6, 6)]);
        assert!(!ts.utilization_exceeds_one());
        // Slightly above 1: 1/2 + 1/3 + 1/6 + 1/1000.
        let mut over = ts.clone();
        over.push(t(1, 1000, 1000));
        assert!(over.utilization_exceeds_one());
        // Comfortably below.
        let under = TaskSet::from_tasks(vec![t(1, 10, 10), t(1, 10, 10)]);
        assert!(!under.utilization_exceeds_one());
    }

    #[test]
    fn exact_utilization_with_coprime_large_periods() {
        // Primes near 10^4..10^5: exercises the reduction path without
        // overflowing u128.
        let ts = TaskSet::from_tasks(vec![
            t(9973, 99991, 99991),
            t(99990, 99991, 99991),
            t(1, 99991, 99991),
        ]);
        // 9973/99991 + 99990/99991 + 1/99991 = 109964/99991 > 1.
        assert!(ts.utilization_exceeds_one());
    }

    #[test]
    fn deadline_classification() {
        let implicit = TaskSet::from_tasks(vec![t(1, 8, 8), t(2, 12, 12)]);
        assert!(implicit.all_implicit_deadlines());
        assert!(implicit.all_constrained_or_implicit());
        let constrained = sample();
        assert!(!constrained.all_implicit_deadlines());
        assert!(constrained.all_constrained_or_implicit());
        let arbitrary = TaskSet::from_tasks(vec![t(1, 20, 8)]);
        assert!(!arbitrary.all_constrained_or_implicit());
    }

    #[test]
    fn sorting() {
        let ts = TaskSet::from_tasks(vec![t(1, 10, 20), t(1, 4, 30), t(1, 7, 10)]);
        let by_d = ts.sorted_by_deadline();
        let deadlines: Vec<u64> = by_d.iter().map(|t| t.deadline().as_u64()).collect();
        assert_eq!(deadlines, vec![4, 7, 10]);
        // Original untouched.
        assert_eq!(ts[0].deadline(), Time::new(10));
    }

    #[test]
    fn average_gap() {
        let ts = TaskSet::from_tasks(vec![t(1, 5, 10), t(1, 10, 10)]);
        // gaps: 0.5 and 0.0
        assert!((ts.average_deadline_gap().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn context_switch_overhead_inflates_every_wcet() {
        let ts = TaskSet::from_tasks(vec![t(2, 8, 10), t(3, 15, 20)]);
        let inflated = ts.with_context_switch_overhead(Time::new(1)).unwrap();
        assert_eq!(inflated[0].wcet(), Time::new(4));
        assert_eq!(inflated[1].wcet(), Time::new(5));
        assert_eq!(inflated[0].deadline(), Time::new(8));
        assert!(inflated.utilization() > ts.utilization());
        // Zero overhead is the identity.
        assert_eq!(ts.with_context_switch_overhead(Time::ZERO).unwrap(), ts);
        // Too much overhead is rejected (2·5 pushes task 0 past its period).
        assert!(ts.with_context_switch_overhead(Time::new(5)).is_err());
    }

    #[test]
    fn hyperperiod_overflow_reported() {
        let ts = TaskSet::from_tasks(vec![
            t(1, u64::MAX - 1, u64::MAX - 1),
            t(1, u64::MAX - 2, u64::MAX - 2),
        ]);
        assert_eq!(ts.hyperperiod(), None);
    }

    #[test]
    fn display_lists_tasks() {
        let text = sample().to_string();
        assert!(text.contains("3 tasks"));
        assert!(text.contains("C=1"));
    }
}

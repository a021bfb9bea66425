//! The sporadic task abstraction of the analysis model (§2 of the paper).
//!
//! A sporadic task `τ` is described by
//!
//! * a worst-case execution time `C` ([`Task::wcet`]),
//! * a relative deadline `D` measured from the release time
//!   ([`Task::deadline`]),
//! * a minimum inter-arrival distance (period) `T` ([`Task::period`]), and
//! * an initial release time / phase `φ` ([`Task::phase`], only relevant for
//!   simulation of asynchronous arrival patterns — the feasibility tests of
//!   this workspace analyse the synchronous case, which is the critical one).
//!
//! # Examples
//!
//! ```
//! use edf_model::{Task, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let tau = Task::new(Time::new(2), Time::new(8), Time::new(10))?;
//! assert_eq!(tau.wcet(), Time::new(2));
//! assert!(tau.deadline() < tau.period());
//! assert!((tau.utilization() - 0.2).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use core::fmt;

use crate::time::Time;

/// Errors produced when constructing or validating a [`Task`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskError {
    /// The worst-case execution time is zero.
    ZeroWcet,
    /// The relative deadline is zero.
    ZeroDeadline,
    /// The period (minimum inter-arrival time) is zero.
    ZeroPeriod,
    /// The worst-case execution time exceeds the period, so a single task
    /// already overloads the processor (`C > T` implies `U > 1`).
    WcetExceedsPeriod {
        /// Offending worst-case execution time.
        wcet: Time,
        /// Period it exceeds.
        period: Time,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::ZeroWcet => write!(f, "worst-case execution time must be positive"),
            TaskError::ZeroDeadline => write!(f, "relative deadline must be positive"),
            TaskError::ZeroPeriod => write!(f, "period must be positive"),
            TaskError::WcetExceedsPeriod { wcet, period } => write!(
                f,
                "worst-case execution time {wcet} exceeds period {period} (task alone overloads the processor)"
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// A sporadic (or, with `phase`, periodic) real-time task.
///
/// Invariants enforced at construction:
///
/// * `wcet > 0`, `deadline > 0`, `period > 0`;
/// * `wcet ≤ period` (otherwise the task alone exceeds the processor
///   capacity and every analysis trivially rejects — constructing such a
///   task is almost always a modelling error).
///
/// Note that `wcet > deadline` **is** allowed: such a task is trivially
/// unschedulable and the exact tests must report that correctly, which the
/// test-suite exercises.
///
/// # Examples
///
/// ```
/// use edf_model::{Task, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// // A task with an implicit deadline (D = T).
/// let tau = Task::new(Time::new(3), Time::new(12), Time::new(12))?;
/// assert!(tau.is_implicit_deadline());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Task {
    wcet: Time,
    deadline: Time,
    period: Time,
    phase: Time,
    name: Option<String>,
}

impl Task {
    /// Creates a task from its worst-case execution time, relative deadline
    /// and period, with phase 0 and no name.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskError`] if any parameter is zero or if
    /// `wcet > period`.
    ///
    /// # Examples
    ///
    /// ```
    /// use edf_model::{Task, Time};
    /// # fn main() -> Result<(), edf_model::TaskError> {
    /// let tau = Task::new(Time::new(1), Time::new(4), Time::new(5))?;
    /// assert_eq!(tau.period(), Time::new(5));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(wcet: Time, deadline: Time, period: Time) -> Result<Self, TaskError> {
        TaskBuilder::new(wcet, deadline, period).build()
    }

    /// Convenience constructor from raw `u64` ticks.
    ///
    /// # Errors
    ///
    /// Same as [`Task::new`].
    pub fn from_ticks(wcet: u64, deadline: u64, period: u64) -> Result<Self, TaskError> {
        Task::new(Time::new(wcet), Time::new(deadline), Time::new(period))
    }

    /// Worst-case execution time `C`.
    #[inline]
    #[must_use]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// Relative deadline `D`.
    #[inline]
    #[must_use]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Minimum inter-arrival time (period) `T`.
    #[inline]
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Initial release time (phase) `φ`.
    #[inline]
    #[must_use]
    pub fn phase(&self) -> Time {
        self.phase
    }

    /// Optional human-readable task name.
    #[inline]
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The specific utilization `U(τ) = C/T` as a floating point number.
    ///
    /// # Examples
    ///
    /// ```
    /// use edf_model::{Task, Time};
    /// # fn main() -> Result<(), edf_model::TaskError> {
    /// let tau = Task::new(Time::new(1), Time::new(3), Time::new(4))?;
    /// assert!((tau.utilization() - 0.25).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet.as_f64() / self.period.as_f64()
    }

    /// The density `C / min(D, T)` as a floating point number.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.wcet.as_f64() / self.deadline.min(self.period).as_f64()
    }

    /// The deadline *gap* `(T − min(D, T)) / T ∈ [0, 1]`: the relative amount
    /// by which the deadline is shorter than the period (0 for implicit or
    /// arbitrary deadlines with `D ≥ T`).
    ///
    /// This is the quantity the paper's experiments sweep ("average gap of
    /// 20%, 30% and 40%").
    #[must_use]
    pub fn deadline_gap(&self) -> f64 {
        let effective = self.deadline.min(self.period);
        (self.period - effective).as_f64() / self.period.as_f64()
    }

    /// `true` if `D == T` (implicit deadline).
    #[must_use]
    pub fn is_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }

    /// Absolute deadline of the `k`-th job (0-based) under synchronous
    /// release: `k·T + D`.
    ///
    /// Returns `None` on overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use edf_model::{Task, Time};
    /// # fn main() -> Result<(), edf_model::TaskError> {
    /// let tau = Task::new(Time::new(1), Time::new(4), Time::new(10))?;
    /// assert_eq!(tau.job_deadline(0), Some(Time::new(4)));
    /// assert_eq!(tau.job_deadline(2), Some(Time::new(24)));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn job_deadline(&self, k: u64) -> Option<Time> {
        self.period.checked_mul(k)?.checked_add(self.deadline)
    }

    /// Returns a copy of this task with a new name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Returns a copy of this task with the given phase (initial release
    /// offset).
    #[must_use]
    pub fn with_phase(mut self, phase: Time) -> Self {
        self.phase = phase;
        self
    }

    /// Returns a copy with the worst-case execution time scaled by
    /// `numer/denom` (rounded up, minimum 1). Useful for sensitivity
    /// analysis ("how much can this task grow before the set becomes
    /// infeasible?").
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn with_scaled_wcet(&self, numer: u64, denom: u64) -> Self {
        assert!(denom > 0, "scaling denominator must be positive");
        let scaled = (self.wcet.as_u128() * u128::from(numer)).div_ceil(u128::from(denom));
        let scaled = Time::new(scaled.min(u128::from(u64::MAX)) as u64).max(Time::ONE);
        Task {
            wcet: scaled.min(self.period),
            ..self.clone()
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(
                f,
                "{name}(C={}, D={}, T={})",
                self.wcet, self.deadline, self.period
            ),
            None => write!(
                f,
                "task(C={}, D={}, T={})",
                self.wcet, self.deadline, self.period
            ),
        }
    }
}

/// Builder for [`Task`] values with optional phase and name.
///
/// # Examples
///
/// ```
/// use edf_model::{TaskBuilder, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let tau = TaskBuilder::new(Time::new(2), Time::new(9), Time::new(10))
///     .name("sensor_fusion")
///     .phase(Time::new(3))
///     .build()?;
/// assert_eq!(tau.name(), Some("sensor_fusion"));
/// assert_eq!(tau.phase(), Time::new(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    wcet: Time,
    deadline: Time,
    period: Time,
    phase: Time,
    name: Option<String>,
}

impl TaskBuilder {
    /// Starts a builder with the three mandatory parameters.
    #[must_use]
    pub fn new(wcet: Time, deadline: Time, period: Time) -> Self {
        TaskBuilder {
            wcet,
            deadline,
            period,
            phase: Time::ZERO,
            name: None,
        }
    }

    /// Sets the initial release offset (phase).
    #[must_use]
    pub fn phase(mut self, phase: Time) -> Self {
        self.phase = phase;
        self
    }

    /// Sets a human-readable name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Validates the parameters and builds the task.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskError`] if a parameter is zero or `wcet > period`.
    pub fn build(self) -> Result<Task, TaskError> {
        if self.wcet.is_zero() {
            return Err(TaskError::ZeroWcet);
        }
        if self.deadline.is_zero() {
            return Err(TaskError::ZeroDeadline);
        }
        if self.period.is_zero() {
            return Err(TaskError::ZeroPeriod);
        }
        if self.wcet > self.period {
            return Err(TaskError::WcetExceedsPeriod {
                wcet: self.wcet,
                period: self.period,
            });
        }
        Ok(Task {
            wcet: self.wcet,
            deadline: self.deadline,
            period: self.period,
            phase: self.phase,
            name: self.name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn construction_happy_path() {
        let tau = t(2, 8, 10);
        assert_eq!(tau.wcet(), Time::new(2));
        assert_eq!(tau.deadline(), Time::new(8));
        assert_eq!(tau.period(), Time::new(10));
        assert_eq!(tau.phase(), Time::ZERO);
        assert_eq!(tau.name(), None);
    }

    #[test]
    fn construction_rejects_zero_parameters() {
        assert_eq!(Task::from_ticks(0, 5, 10), Err(TaskError::ZeroWcet));
        assert_eq!(Task::from_ticks(1, 0, 10), Err(TaskError::ZeroDeadline));
        assert_eq!(Task::from_ticks(1, 5, 0), Err(TaskError::ZeroPeriod));
    }

    #[test]
    fn construction_rejects_wcet_above_period() {
        assert_eq!(
            Task::from_ticks(11, 20, 10),
            Err(TaskError::WcetExceedsPeriod {
                wcet: Time::new(11),
                period: Time::new(10)
            })
        );
    }

    #[test]
    fn wcet_above_deadline_is_allowed() {
        // Trivially unschedulable, but a legal model the exact tests must
        // reject analytically rather than at construction.
        let tau = t(5, 3, 10);
        assert!(tau.wcet() > tau.deadline());
    }

    #[test]
    fn error_display_is_informative() {
        let msg = TaskError::WcetExceedsPeriod {
            wcet: Time::new(4),
            period: Time::new(2),
        }
        .to_string();
        assert!(msg.contains('4') && msg.contains('2'));
        assert!(!TaskError::ZeroWcet.to_string().is_empty());
        assert!(!TaskError::ZeroDeadline.to_string().is_empty());
        assert!(!TaskError::ZeroPeriod.to_string().is_empty());
    }

    #[test]
    fn utilization_density_gap() {
        let tau = t(2, 5, 10);
        assert!((tau.utilization() - 0.2).abs() < 1e-12);
        assert!((tau.density() - 0.4).abs() < 1e-12);
        assert!((tau.deadline_gap() - 0.5).abs() < 1e-12);

        let implicit = t(2, 10, 10);
        assert!(implicit.is_implicit_deadline());
        assert!((implicit.deadline_gap()).abs() < 1e-12);

        // D > T: gap clamps at 0 (effective deadline is the period).
        let arbitrary = t(2, 20, 10);
        assert!((arbitrary.deadline_gap()).abs() < 1e-12);
    }

    #[test]
    fn job_deadlines_and_releases() {
        let tau = t(1, 4, 10);
        assert_eq!(tau.job_deadline(0), Some(Time::new(4)));
        assert_eq!(tau.job_deadline(3), Some(Time::new(34)));
        assert_eq!(tau.job_deadline(u64::MAX), None, "overflow is reported");
    }

    #[test]
    fn builder_sets_all_fields() {
        let tau = TaskBuilder::new(Time::new(1), Time::new(2), Time::new(3))
            .name("tau_1")
            .phase(Time::new(7))
            .build()
            .unwrap();
        assert_eq!(tau.name(), Some("tau_1"));
        assert_eq!(tau.phase(), Time::new(7));
        assert!(tau.to_string().contains("tau_1"));
    }

    #[test]
    fn named_and_with_phase_copies() {
        let tau = t(1, 2, 3).named("x").with_phase(Time::new(4));
        assert_eq!(tau.name(), Some("x"));
        assert_eq!(tau.phase(), Time::new(4));
    }

    #[test]
    fn scaled_wcet_rounds_up_and_clamps() {
        let tau = t(3, 10, 10);
        assert_eq!(tau.with_scaled_wcet(1, 2).wcet(), Time::new(2)); // ceil(1.5)
        assert_eq!(tau.with_scaled_wcet(10, 1).wcet(), Time::new(10)); // clamp at T
        assert_eq!(tau.with_scaled_wcet(1, 100).wcet(), Time::new(1)); // minimum 1
    }

    #[test]
    fn display_without_name() {
        assert!(t(1, 2, 3).to_string().contains("C=1"));
    }
}

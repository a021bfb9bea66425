//! # `edf-bench` — shared fixtures for the Criterion benchmarks
//!
//! The benchmark targets of this crate (one per figure/table of the paper's
//! evaluation, plus the kernel, service and batch lanes) need identical,
//! reproducible workloads so that the measured wall-clock differences
//! reflect the algorithms rather than the inputs.  This small library
//! provides those fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use edf_gen::{ArrivalCurveConfig, PeriodDistribution, TaskSetConfig, TransactionConfig};
use edf_model::{
    ArrivalCurveTask, EventStream, EventStreamTask, EventTuple, TaskSet, Time, TransactionSystem,
};

/// Task sets with the Figure 8 character: 5–50 tasks, the given target
/// utilization (percent), periods uniform in `[1_000, 1_000_000]`, average
/// gap 30 %.
#[must_use]
pub fn utilization_fixture(percent: u32, count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(5..=50)
        .fixed_utilization(f64::from(percent) / 100.0)
        .average_gap(0.3)
        .seed(8_000 + u64::from(percent))
        .generate_many(count)
}

/// Task sets with the Figure 9 character: the requested `Tmax/Tmin` ratio,
/// utilization 90–99 %, average gap 30 %.
#[must_use]
pub fn ratio_fixture(ratio: u64, count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(5..=50)
        .utilization(0.90..=0.99)
        .average_gap(0.3)
        .periods(PeriodDistribution::RatioControlled { min: 100, ratio })
        .seed(9_000 + ratio)
        .generate_many(count)
}

/// Task sets with the Figure 1 character: moderate utilization sweep inputs
/// used by the acceptance-rate benchmark.
#[must_use]
pub fn acceptance_fixture(percent: u32, count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(5..=30)
        .fixed_utilization(f64::from(percent) / 100.0)
        .average_gap(0.3)
        .seed(1_000 + u64::from(percent))
        .generate_many(count)
}

/// Task sets for the WCET-slack sensitivity benchmark: ratio-10 periods
/// at a moderate fixed utilization (the robustness-budgeting regime —
/// probing a heavily loaded set is dominated by the exact test itself,
/// see the `sensitivity` bench).
#[must_use]
pub fn slack_fixture(percent: u32, count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(5..=50)
        .fixed_utilization(f64::from(percent) / 100.0)
        .average_gap(0.3)
        .periods(PeriodDistribution::RatioControlled {
            min: 100,
            ratio: 10,
        })
        .seed(7_000 + u64::from(percent))
        .generate_many(count)
}

/// Bursty event-stream workloads for the model-zoo benchmark: `count`
/// tasks, each a 3-event burst with task-dependent spacing and cost.
#[must_use]
pub fn stream_fixture(count: usize) -> Vec<EventStreamTask> {
    (0..count as u64)
        .map(|i| {
            EventStreamTask::new(
                EventStream::bursty(3, Time::new(4 + i % 5), Time::new(120 + 30 * i)),
                Time::new(1 + i % 3),
                Time::new(10 + 5 * i),
            )
            .expect("positive parameters")
        })
        .collect()
}

/// Task sets with a heavily skewed period spread (`Tmax/Tmin = 100_000`)
/// for the demand-kernel `dbf` benchmarks: short probe intervals cut off
/// most of the deadline-sorted columns while long ones sweep them whole,
/// so the column loop runs over prefixes of every length instead of the
/// whole-column regime of [`ratio_fixture`].
#[must_use]
pub fn skewed_period_fixture(count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(20..=50)
        .utilization(0.90..=0.99)
        .average_gap(0.3)
        .periods(PeriodDistribution::RatioControlled {
            min: 10,
            ratio: 100_000,
        })
        .seed(6_500)
        .generate_many(count)
}

/// Event-stream tasks mixing periodic tuples with one-shot start-up
/// transients, for the demand-kernel `dbf` benchmarks: the prepared
/// workload carries both column families at once, so `dbf` pays the
/// one-shot prefix lookup *and* the periodic column loop on every probe —
/// the regime where neither column family can be specialised away.
#[must_use]
pub fn mixed_mode_fixture(count: usize) -> Vec<EventStreamTask> {
    (0..count as u64)
        .map(|i| {
            let mut tuples = vec![
                EventTuple::periodic(Time::new(90 + 17 * i), Time::ZERO),
                EventTuple::periodic(Time::new(140 + 23 * i), Time::new(6 + i % 9)),
            ];
            for k in 0..=(i % 3) {
                tuples.push(EventTuple::single(Time::new(3 + 11 * k + i)));
            }
            EventStreamTask::new(
                EventStream::new(tuples).expect("non-empty tuple list"),
                Time::new(1 + i % 4),
                Time::new(12 + 4 * i),
            )
            .expect("positive parameters")
        })
        .collect()
}

/// Task sets engineered to stress the refining tests' withdrawal
/// bookkeeping: many tasks (30–50) in a *narrow* period band
/// (`Tmax/Tmin = 4`) at near-critical utilization.  The tight band makes
/// the approximated deadlines `Im = level · T` cluster, so each level
/// increase of the dynamic-error test crosses many terms' exactness
/// thresholds at once — batched withdrawal passes over a long-lived live
/// list — while the near-critical utilization keeps refinement deep
/// before the §4.3 bound cuts the analysis off.
#[must_use]
pub fn withdrawal_storm_fixture(count: usize) -> Vec<TaskSet> {
    TaskSetConfig::new()
        .task_count(30..=50)
        .utilization(0.97..=0.995)
        .average_gap(0.3)
        .periods(PeriodDistribution::RatioControlled {
            min: 1_000,
            ratio: 4,
        })
        .seed(6_600)
        .generate_many(count)
}

/// Arrival-curve workloads for the model-zoo benchmark (reproducible
/// piecewise-linear specifications via `edf-gen`).
#[must_use]
pub fn curve_fixture(count: usize) -> Vec<ArrivalCurveTask> {
    ArrivalCurveConfig::new()
        .task_count(count..=count)
        .segment_count(1..=3)
        .burst(1..=4)
        .distance(40..=400)
        .wcet(1..=4)
        .deadline(10..=80)
        .seed(4_000 + count as u64)
        .generate()
}

/// An offset-transaction system for the model-zoo benchmark.
#[must_use]
pub fn transaction_fixture(transactions: usize) -> TransactionSystem {
    TransactionConfig::new()
        .transaction_count(transactions..=transactions)
        .part_count(2..=4)
        .period(50..=400)
        .wcet(1..=4)
        .seed(5_000 + transactions as u64)
        .generate_system(TaskSet::new())
}

/// An offset-transaction system with a precisely dialed candidate product
/// for the `transactions` benchmark: one transaction per entry of `shape`
/// with exactly that many parts (product = the shape's product), WCETs
/// sized for `util_percent` % total utilization, and — when
/// `offset_choices > 0` — at most that many distinct release offsets per
/// transaction (the dominance-pruning regime; `0` spreads the parts).
#[must_use]
pub fn transaction_product_fixture(
    shape: &[usize],
    util_percent: u32,
    offset_choices: usize,
    seed: u64,
) -> TransactionSystem {
    TransactionConfig::new()
        .product_shape(shape.to_vec())
        .period(100..=1_000)
        .target_utilization(f64::from(util_percent) / 100.0)
        .offset_choices(offset_choices)
        .seed(seed)
        .generate_system(TaskSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_fixtures_are_reproducible_and_sized() {
        assert_eq!(stream_fixture(5).len(), 5);
        assert_eq!(curve_fixture(6), curve_fixture(6));
        assert_eq!(curve_fixture(6).len(), 6);
        let system = transaction_fixture(3);
        assert_eq!(system.transactions().len(), 3);
        assert!(system.candidate_count() >= 8);
    }

    #[test]
    fn fixtures_are_reproducible_and_sized() {
        assert_eq!(utilization_fixture(95, 4), utilization_fixture(95, 4));
        assert_eq!(utilization_fixture(95, 4).len(), 4);
        assert_eq!(ratio_fixture(1_000, 3).len(), 3);
        assert_eq!(acceptance_fixture(85, 2).len(), 2);
    }

    #[test]
    fn lane_fixtures_are_reproducible_and_mixed() {
        assert_eq!(skewed_period_fixture(3), skewed_period_fixture(3));
        assert_eq!(skewed_period_fixture(3).len(), 3);
        let mixed = mixed_mode_fixture(8);
        assert_eq!(mixed.len(), 8);
        assert_eq!(mixed, mixed_mode_fixture(8));
        // Every task carries at least one one-shot and one periodic tuple.
        for task in &mixed {
            assert!(task.stream().tuples().iter().any(|t| t.cycle.is_none()));
            assert!(task.stream().tuples().iter().any(|t| t.cycle.is_some()));
        }
    }

    #[test]
    fn withdrawal_storm_fixture_is_reproducible_and_tight() {
        let storm = withdrawal_storm_fixture(3);
        assert_eq!(storm, withdrawal_storm_fixture(3));
        assert_eq!(storm.len(), 3);
        for ts in &storm {
            assert!(ts.len() >= 30);
            assert!(ts.period_ratio().unwrap() <= 4.0);
            assert!(ts.utilization() > 0.9);
        }
    }

    #[test]
    fn ratio_fixture_respects_the_ratio() {
        for ts in ratio_fixture(10_000, 3) {
            assert!(ts.period_ratio().unwrap() <= 10_000.0);
        }
    }
}

//! The dynamic-error (§4.1, Figure 5) and all-approximated (§4.2,
//! Figure 7) analysis loops in their plain form.
//!
//! Both loops pop the next pending test interval from a `BinaryHeap`
//! (ties broken by component index), account the owning component's newly
//! examined job, and compare the approximated demand against the
//! interval's capacity.  The comparison is rebuilt at every step from the
//! per-component state records: the exact part sums the examined
//! demand of every unapproximated component, and every approximated
//! component contributes its [`ApproxTerm`] to [`approx_demand_within`].
//! A failed comparison withdraws approximations — by doubling the level
//! (dynamic-error) or oldest first (all-approximated) — until it succeeds
//! or turns fully exact.
//!
//! Each function answers exactly what the matching test's
//! [`FeasibilityTest::analyze_demand`](edf_analysis::FeasibilityTest::analyze_demand)
//! answers, including the empty, `U > 1` and unbounded-horizon exits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edf_analysis::superposition::ApproxTerm;
use edf_analysis::tests::{AllApproximatedTest, DynamicErrorTest};
use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_analysis::{Analysis, DemandOverload, Verdict};
use edf_model::Time;

use crate::superposition::approx_demand_within;

/// What the loops know about one demand component.
#[derive(Debug, Clone, Copy, Default)]
struct State {
    /// Exact demand of the component's jobs examined so far; while the
    /// component is approximated, its demand at the start `Im`.
    examined_demand: Time,
    /// `Some(Im)` while the component's demand beyond `Im` is approximated
    /// by its line.
    approximated_from: Option<Time>,
    /// Jobs examined exactly (all-approximated test: the refinement level
    /// reached, compared against the level limit).
    examined_jobs: u64,
    /// Approximation sequence number (all-approximated test: the FIFO
    /// revision order).
    approx_seq: u64,
}

/// The comparison count and the largest compared interval — the
/// iteration metric of an [`Analysis`].
#[derive(Debug, Default)]
struct Counter {
    count: u64,
    max_interval: Option<Time>,
}

impl Counter {
    fn record(&mut self, interval: Time) {
        self.count += 1;
        self.max_interval = self.max_interval.max(Some(interval));
    }

    fn finish(self, verdict: Verdict, overload: Option<DemandOverload>) -> Analysis {
        Analysis {
            verdict,
            iterations: self.count,
            max_examined_interval: self.max_interval,
            overload,
            progress: None,
        }
    }
}

/// The early exits every refining test takes before its loop, or the
/// horizon the loop examines deadlines up to.
fn horizon_or_exit(workload: &PreparedWorkload) -> Result<Time, Analysis> {
    if workload.is_empty() {
        return Err(Analysis::trivial(Verdict::Feasible));
    }
    if workload.utilization_exceeds_one() {
        return Err(Analysis::trivial(Verdict::Infeasible));
    }
    workload
        .analysis_horizon()
        .ok_or_else(|| Analysis::trivial(Verdict::Unknown))
}

/// The pending queue seeded with every first deadline within `horizon`.
fn first_deadlines(
    components: &[DemandComponent],
    horizon: Time,
) -> BinaryHeap<Reverse<(Time, usize)>> {
    components
        .iter()
        .enumerate()
        .filter(|(_, component)| component.first_deadline() <= horizon)
        .map(|(idx, component)| Reverse((component.first_deadline(), idx)))
        .collect()
}

/// Schedules the next deadline of component `idx` after `interval`, if it
/// exists and lies within `horizon`.
fn push_next(
    pending: &mut BinaryHeap<Reverse<(Time, usize)>>,
    components: &[DemandComponent],
    idx: usize,
    interval: Time,
    horizon: Time,
) {
    if let Some(next) = components[idx].next_deadline_after(interval) {
        if next <= horizon {
            pending.push(Reverse((next, idx)));
        }
    }
}

/// Accounts the newly examined job of component `idx`.
fn examine(states: &mut [State], components: &[DemandComponent], idx: usize) {
    states[idx].examined_demand = states[idx]
        .examined_demand
        .saturating_add(components[idx].wcet());
}

/// The Def. 5 comparison at `interval`, rebuilt from the state records.
fn demand_within(states: &[State], components: &[DemandComponent], interval: Time) -> bool {
    let exact: u128 = states
        .iter()
        .filter(|s| s.approximated_from.is_none())
        .map(|s| s.examined_demand.as_u128())
        .sum();
    let terms: Vec<ApproxTerm> = states
        .iter()
        .zip(components)
        .filter_map(|(s, component)| {
            s.approximated_from
                .map(|im| ApproxTerm::for_component(component, im, s.examined_demand))
        })
        .collect();
    let exact = Time::new(exact.min(u128::from(u64::MAX)) as u64);
    approx_demand_within(exact, &terms, interval)
}

/// Whether any component is still approximated.
fn any_approximated(states: &[State]) -> bool {
    states.iter().any(|s| s.approximated_from.is_some())
}

/// The fully exact comparison at `interval` failed: the overload witness
/// reports the full demand there (jobs due at `interval` may still be
/// pending).
fn overload(workload: &PreparedWorkload, counter: Counter, interval: Time) -> Analysis {
    let demand = workload.dbf(interval);
    counter.finish(
        Verdict::Infeasible,
        Some(DemandOverload { interval, demand }),
    )
}

/// Withdraws the approximation of component `j` at `interval`: its
/// examined demand becomes its exact demand there.
fn withdraw(states: &mut [State], components: &[DemandComponent], j: usize, interval: Time) {
    states[j].approximated_from = None;
    states[j].examined_demand = components[j].dbf(interval);
}

/// The dynamic-error analysis (§4.1, Figure 5).
#[must_use]
pub fn dynamic_error(test: &DynamicErrorTest, workload: &PreparedWorkload) -> Analysis {
    let horizon = match horizon_or_exit(workload) {
        Ok(horizon) => horizon,
        Err(exit) => return exit,
    };
    let components = workload.components();
    let mut states = vec![State::default(); components.len()];
    let mut pending = first_deadlines(components, horizon);
    let mut level = test.initial_level();
    let mut counter = Counter::default();

    while let Some(Reverse((interval, idx))) = pending.pop() {
        // A pending interval is an exact deadline of component `idx`,
        // which is never approximated while it has a pending entry.
        debug_assert!(states[idx].approximated_from.is_none());
        examine(&mut states, components, idx);

        // Compare; raise the level and withdraw approximations until the
        // demand fits or no approximation is left.
        loop {
            counter.record(interval);
            if demand_within(&states, components, interval) {
                break;
            }
            if !any_approximated(&states) {
                return overload(workload, counter, interval);
            }
            let mut revised_any = false;
            while !revised_any {
                let raised = level.saturating_mul(2);
                if let Some(limit) = test.max_level() {
                    if raised > limit && level >= limit {
                        return counter.finish(Verdict::Unknown, None);
                    }
                    level = raised.min(limit);
                } else {
                    level = raised;
                }
                // Withdraw, in ascending component order, every
                // approximation that the new level would not have made.
                for j in 0..states.len() {
                    let Some(im) = states[j].approximated_from else {
                        continue;
                    };
                    if components[j].max_test_interval(level) > im {
                        withdraw(&mut states, components, j, interval);
                        push_next(&mut pending, components, j, interval, horizon);
                        revised_any = true;
                    }
                }
                if level == u64::MAX {
                    // Every border has saturated; the level cannot grow.
                    break;
                }
            }
            if !revised_any {
                return counter.finish(Verdict::Unknown, None);
            }
        }

        // A periodic component continues exactly below its test border
        // and is approximated from its border on; a one-shot component
        // has no further demand and stays exact.
        if components[idx].period().is_none() {
            continue;
        }
        if interval < components[idx].max_test_interval(level) {
            push_next(&mut pending, components, idx, interval, horizon);
        } else {
            states[idx].approximated_from = Some(interval);
        }
    }
    counter.finish(Verdict::Feasible, None)
}

/// Number of jobs of `component` with deadlines inside `interval`.
fn jobs_within(component: &DemandComponent, interval: Time) -> u64 {
    if interval < component.first_deadline() {
        return 0;
    }
    match component.period() {
        None => 1,
        Some(period) => (interval - component.first_deadline()).div_floor(period) + 1,
    }
}

/// The approximated component whose approximation the all-approximated
/// test withdraws next — the oldest one below the level limit — or `None`
/// when every approximated component has reached the limit.
fn pick_revision(test: &AllApproximatedTest, states: &[State]) -> Option<usize> {
    states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.approximated_from.is_some())
        .filter(|(_, s)| test.max_level().is_none_or(|limit| s.examined_jobs < limit))
        .min_by_key(|(_, s)| s.approx_seq)
        .map(|(j, _)| j)
}

/// The all-approximated analysis (§4.2, Figure 7).
#[must_use]
pub fn all_approximated(test: &AllApproximatedTest, workload: &PreparedWorkload) -> Analysis {
    let horizon = match horizon_or_exit(workload) {
        Ok(horizon) => horizon,
        Err(exit) => return exit,
    };
    let components = workload.components();
    let mut states = vec![State::default(); components.len()];
    let mut pending = first_deadlines(components, horizon);
    let mut approx_seq: u64 = 0;
    let mut counter = Counter::default();

    while let Some(Reverse((interval, idx))) = pending.pop() {
        // A component is approximated right after its own interval is
        // examined and re-enters the queue only through a withdrawal.
        debug_assert!(states[idx].approximated_from.is_none());
        examine(&mut states, components, idx);
        states[idx].examined_jobs += 1;

        loop {
            counter.record(interval);
            if demand_within(&states, components, interval) {
                break;
            }
            if !any_approximated(&states) {
                return overload(workload, counter, interval);
            }
            // Every remaining approximation is at the level limit: its
            // over-estimation is within the target error, so the failure
            // is inconclusive.
            let Some(revise) = pick_revision(test, &states) else {
                return counter.finish(Verdict::Unknown, None);
            };
            withdraw(&mut states, components, revise, interval);
            states[revise].examined_jobs = jobs_within(&components[revise], interval);
            push_next(&mut pending, components, revise, interval, horizon);
        }

        // The examined component is approximated from here on; a one-shot
        // component has no further demand and stays exact.
        if components[idx].period().is_some() {
            states[idx].approximated_from = Some(interval);
            states[idx].approx_seq = approx_seq;
            approx_seq += 1;
        }
    }
    counter.finish(Verdict::Feasible, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edf_analysis::exhaustive::exhaustive_check;
    use edf_analysis::workload::MixedSystem;
    use edf_model::{EventStream, EventStreamTask, Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    /// Feasible and infeasible sets, `U = 1`, an overload, a bursty
    /// stream and four one-shots due together.
    fn workloads() -> Vec<PreparedWorkload> {
        let sets = [
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]),
            TaskSet::from_tasks(vec![t(2, 2, 6), t(2, 4, 8), t(1, 7, 12)]),
            TaskSet::from_tasks(vec![t(5, 6, 20), t(7, 11, 25), t(4, 9, 35)]),
            TaskSet::from_tasks(vec![t(1, 2, 2), t(2, 4, 4)]),
            TaskSet::from_tasks(vec![t(5, 3, 10)]),
        ];
        let mut workloads: Vec<PreparedWorkload> = sets.iter().map(PreparedWorkload::new).collect();
        let burst = EventStreamTask::new(
            EventStream::bursty(3, Time::new(5), Time::new(100)),
            Time::new(4),
            Time::new(20),
        )
        .expect("valid stream task");
        workloads.push(PreparedWorkload::new(&MixedSystem::new(
            TaskSet::from_tasks(vec![t(2, 8, 10)]),
            vec![burst],
        )));
        let one_shot = DemandComponent::one_shot(Time::new(3), Time::new(4), Time::ZERO);
        workloads.push(PreparedWorkload::from_components(vec![one_shot; 4]));
        workloads
    }

    /// The loops are exact tests in their own right: their verdicts equal
    /// the naive exhaustive demand sweep's, and every overload witness is
    /// a genuine `dbf(I) > I`.
    #[test]
    fn unlimited_loops_match_the_exhaustive_check() {
        for workload in workloads() {
            let exhaustive = exhaustive_check(&workload);
            assert!(exhaustive.verdict.is_decisive());
            for analysis in [
                dynamic_error(&DynamicErrorTest::new(), &workload),
                all_approximated(&AllApproximatedTest::new(), &workload),
            ] {
                assert_eq!(analysis.verdict, exhaustive.verdict);
                if let Some(overload) = analysis.overload {
                    assert_eq!(workload.dbf(overload.interval), overload.demand);
                    assert!(overload.demand > overload.interval);
                }
            }
        }
    }

    /// Capped at level 1 both loops are Devi's test: a feasible set
    /// whose first-job approximation overshoots answers `Unknown`, never
    /// `Infeasible`.
    #[test]
    fn level_one_answers_unknown_where_devi_overshoots() {
        let workload = PreparedWorkload::new(&TaskSet::from_tasks(vec![
            t(1, 2, 10),
            t(2, 3, 10),
            t(5, 9, 10),
        ]));
        assert_eq!(
            dynamic_error(&DynamicErrorTest::new().with_max_level(1), &workload).verdict,
            Verdict::Unknown
        );
        assert_eq!(
            all_approximated(&AllApproximatedTest::new().with_max_level(1), &workload).verdict,
            Verdict::Unknown
        );
        assert_eq!(
            dynamic_error(&DynamicErrorTest::new(), &workload).verdict,
            Verdict::Feasible
        );
    }
}

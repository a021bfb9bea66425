//! The shared refinement engine of the superposition-family feasibility
//! tests: the dynamic-error test (§4.1), the all-approximated test (§4.2)
//! and the superposition test `SuperPos(x)` (§3.4), which runs the
//! dynamic-error driver with its level held at `x` and no horizon (see
//! [`SuperpositionTest`](crate::tests::SuperpositionTest)).
//!
//! The refining tests share one skeleton: pop the next pending exact test
//! interval, account the owning component's newly examined job, compare
//! the approximated demand against the interval's capacity, and refine
//! (withdraw approximations) until the comparison succeeds or turns fully
//! exact.  The PR 6 profile showed that this *bookkeeping* — not demand
//! evaluation — dominates the exact suite's wall clock, so the engine
//! restructures it four ways while keeping every observable output
//! **bit-identical** to the plain loops of the dev-only `edf-oracle`
//! crate (verdict, overload witness and iteration counts, pinned by the
//! `refine_equivalence` proptests):
//!
//! 1. **Incremental comparison aggregates.**  The running `Σ dbf(Imⱼ)` of
//!    live approximation terms is maintained exactly in `u128` on term
//!    push / swap-remove (like `exact_sum` already was), so a comparison
//!    no longer re-sums every term's base.  On top of it, incrementally
//!    maintained `f64` slope/offset aggregates give a proven-margin
//!    *screen* (below) that answers clearly-within / clearly-violating
//!    comparisons without walking the terms at all.
//! 2. **Flat frontier queue.**  The `BinaryHeap` of pending intervals is
//!    replaced by `kernel::FrontierQueue`, a tournament tree in the
//!    scratch arena with one slot per component (the refining tests keep
//!    at most one pending interval per component).  Next deadlines are
//!    stepped with the preparation's period `arith::Reciprocal`s
//!    instead of `next_deadline_after`'s per-pop hardware division.
//! 3. **Batched withdrawal passes.**  The dynamic-error level-raise scan
//!    runs over the engine's compact live-term list instead of all
//!    component states, collects the whole pass, and then applies it in
//!    ascending component order (reproducing the plain loop's scan over
//!    every component bit for bit) with one `component_demand` gather per
//!    withdrawal.
//! 4. **FIFO revision queue.**  The all-approximated test withdraws the
//!    oldest live approximation (§4.2's `getAndRemoveFirstTask`).  It
//!    keeps the live approximations' owners in a `VecDeque` in
//!    approximation order and withdraws only the front one, so a pick is
//!    amortized O(1) instead of a scan over every live term.  With
//!    [`AllApproximatedTest::with_max_level`], an entry whose component
//!    has reached the limit leaves the queue for good: its term is not on
//!    the frontier, so its job count cannot change and it can never be
//!    picked again; the first entry below the limit is the oldest eligible
//!    term.
//!
//! # Soundness of the screened comparison
//!
//! After the integer base comparison, the exact decision is whether the
//! rational sum `V = Σⱼ Cⱼ·(I − Imⱼ)/Tⱼ` over the live terms satisfies
//! `V ≤ slack` (with `slack = I − base ≤ I`, the compared interval).  The
//! screen estimates `V` as `est = S·I − K` from two running `f64`
//! aggregates
//!
//! ```text
//! S = Σⱼ rate(j)          rate(j) = wcet(j) / period(j)   (one f64 division)
//! K = Σⱼ rate(j)·Im(j)
//! ```
//!
//! and answers `Some(true)` iff `est + margin ≤ slack`, `Some(false)` iff
//! `est − margin > slack`, and `None` (fall through to the exact rational
//! walk) otherwise.  The margin is `(16·ops + 64)·2⁻⁵³·I`, where `ops`
//! counts every aggregate update (term push or removal) since the
//! analysis started.  It dominates the accumulated floating-point error:
//!
//! * The frontier pops intervals in non-decreasing order, and every push
//!   and removal happens at the interval compared at that time, so every
//!   interval at which an aggregate was updated is `≤ I`.  The margin
//!   therefore needs no a-priori horizon: it holds unchanged when the
//!   caller passes `Time::MAX`.
//! * The engine only runs after the exact rational utilization check, so
//!   `Σ rate(j) ≤ 1` over **all** components, hence each `rate(j) ≤ 1`
//!   and `S ≤ 1` up to rounding.  Each computed `rate(j)` carries at most
//!   three roundings (two `u64 → f64` conversions and one division), i.e.
//!   a relative error `≤ 4·2⁻⁵³`.
//! * A term is pushed at `Im(j)` and compared only at `I ≥ Im(j)`, so
//!   every product `rate(j)·Im(j) ≤ Im(j) ≤ I` and, at every update, the
//!   true `K ≤ (Σ rate(j))·I ≤ I`.  One push adds `≤ 6·2⁻⁵³·I` of
//!   absolute error to `K` (rate error, `Im` conversion, product and
//!   accumulation roundings) and `≤ 5·2⁻⁵³` to `S`.
//! * A removal recomputes the *identical* `f64` contribution from the
//!   same inputs (floating-point arithmetic is deterministic), so the
//!   incremental subtraction cancels the pushed value exactly, leaving
//!   only the subtraction rounding: `≤ 2⁻⁵³·I` per removal for `K`,
//!   `≤ 2⁻⁵³` for `S`.
//! * At the comparison, `est = S·I − K` adds the `I` conversion, one
//!   product and one subtraction (each `≤ 2⁻⁵³·I` absolute, using
//!   `S ≤ 1 + ε`), and `slack ≤ I` converts to `f64` with `≤ 2⁻⁵³·I`
//!   absolute error.
//!
//! Summing: `|est − V| ≤ (6·ops + 8)·2⁻⁵³·I` — the margin keeps more than
//! a 2× headroom on every term.  A `Some(true)`/`Some(false)` answer is
//! therefore mathematically certain, and an uncertain comparison falls
//! through to the exact walk — the screen can skip work, never flip a
//! comparison.
//!
//! One documented corner keeps the screen from being *literally* the
//! plain decision procedure: [`fracs_parts_le_integer_iter`]'s exact
//! accumulator can overflow `u128` when the live terms' periods are
//! coprime with a product beyond `2¹²⁸`, in which case the exact walk
//! answers conservatively (`false` unless the value is at least `1e-6`
//! below the slack).  A screen answer of `Some(true)` in that corner
//! would diverge.  Reaching it needs both the astronomical periods *and*
//! a value within the screen margin of the capacity; no finite workload
//! family in the test generators (periods far below `2⁶⁴`) can construct
//! it, and the ±1e-3 float screen inside the exact walk has carried the
//! same corner since it was introduced.
//!
//! [`fracs_parts_le_integer_iter`]: crate::arith

use std::collections::VecDeque;

use edf_model::Time;

use crate::analysis::{Analysis, DemandOverload, IterationCounter, Verdict};
use crate::arith::{fracs_parts_le_integer_iter, Reciprocal};
use crate::budget::ProgressPhase;
use crate::kernel::{AnalysisScratch, FrontierQueue, RefinementState};
use crate::superposition::ApproxTerm;
use crate::tests::{AllApproximatedTest, DynamicErrorTest};
use crate::workload::{DemandComponent, PreparedWorkload};

/// One unit in the last place of the `f64` mantissa: `2⁻⁵³`.
const EPS: f64 = 1.0 / 9_007_199_254_740_992.0;

/// The `f64` contribution of one approximation term to the screen
/// aggregates: `(rate, rate·Im)` with `rate = C/T`.
///
/// Push and removal both call this helper on the same stored term, so the
/// computed values are bit-identical and the incremental subtraction
/// cancels the addition exactly (up to one rounding, covered by the
/// margin).
#[inline]
fn term_rates(term: &ApproxTerm) -> (f64, f64) {
    let rate = term.wcet.as_f64() / term.period.as_f64();
    (rate, rate * term.im.as_f64())
}

/// The shared mutable state of one refining analysis, borrowed from the
/// [`AnalysisScratch`] arena — both drivers run allocation-free after
/// warm-up.
struct Engine<'a> {
    workload: &'a PreparedWorkload,
    components: &'a [DemandComponent],
    horizon: Time,
    states: &'a mut Vec<RefinementState>,
    frontier: &'a mut FrontierQueue,
    terms: &'a mut Vec<ApproxTerm>,
    owners: &'a mut Vec<u32>,
    /// The live terms' owners in approximation order, kept by the
    /// all-approximated test only.
    revision_queue: &'a mut VecDeque<u32>,
    withdrawn: &'a mut Vec<u32>,
    /// The preparation's period reciprocals, one per component.
    rcp: &'a [Reciprocal],
    /// Running `Σ examined_demand` over the unapproximated components,
    /// exact in `u128` (clamped to the `Time` range only at comparisons).
    exact_sum: u128,
    /// Running `Σ dbf(Imⱼ)` over the live approximation terms, exact in
    /// `u128` — the incremental replacement of the per-comparison base
    /// re-summation.
    base_sum: u128,
    /// Screen aggregate `S = Σ rate(j)` (see the module docs).
    slope: f64,
    /// Screen aggregate `K = Σ rate(j)·Im(j)`.
    offset: f64,
    /// Number of aggregate updates so far — the screen margin grows with
    /// it so the accumulated rounding error always stays covered.
    screen_ops: u64,
}

impl<'a> Engine<'a> {
    fn new(
        workload: &'a PreparedWorkload,
        horizon: Time,
        scratch: &'a mut AnalysisScratch,
    ) -> Self {
        let components = workload.components();
        let AnalysisScratch {
            frontier,
            refine,
            approx_terms,
            term_owner,
            revision_queue,
            withdrawn,
            ..
        } = scratch;
        refine.clear();
        refine.resize(components.len(), RefinementState::default());
        approx_terms.clear();
        term_owner.clear();
        revision_queue.clear();
        withdrawn.clear();
        frontier.reset(components.len());
        for (idx, component) in components.iter().enumerate() {
            if component.first_deadline() <= horizon {
                frontier.seed(idx, component.first_deadline());
            }
        }
        frontier.rebuild();
        Engine {
            workload,
            components,
            horizon,
            states: refine,
            frontier,
            terms: approx_terms,
            owners: term_owner,
            revision_queue,
            withdrawn,
            rcp: workload.reciprocals(),
            exact_sum: 0,
            base_sum: 0,
            slope: 0.0,
            offset: 0.0,
            screen_ops: 0,
        }
    }

    /// Accounts the newly examined job of component `idx` at one of its
    /// exact deadlines (every popped frontier entry is one).
    fn examine(&mut self, idx: usize) {
        let examined = self.states[idx]
            .examined_demand
            .saturating_add(self.components[idx].wcet());
        self.exact_sum += u128::from((examined - self.states[idx].examined_demand).as_u64());
        self.states[idx].examined_demand = examined;
    }

    /// The screened `demand ≤ capacity` comparison of Def. 5 (the exact
    /// part plus every live term's line, decided in exact rational
    /// arithmetic), restructured around the incremental aggregates (see
    /// the module docs for the bit-identity argument).
    fn demand_within(&self, interval: Time) -> bool {
        #[cfg(debug_assertions)]
        for term in self.terms.iter() {
            debug_assert!(
                interval >= term.im,
                "approximation queried before its start"
            );
        }
        let base = self.exact_sum.min(u128::from(u64::MAX)) + self.base_sum;
        let capacity = interval.as_u128();
        if base > capacity {
            return false;
        }
        if self.terms.is_empty() {
            return true;
        }
        let slack = capacity - base;
        if let Some(answer) = self.screen(interval, slack) {
            return answer;
        }
        fracs_parts_le_integer_iter(
            self.terms.iter().filter_map(|t| t.linear_parts(interval)),
            slack,
        )
    }

    /// The proven-margin fast path: `Some(answer)` when the `f64`
    /// estimate of the terms' rational sum is farther from the slack than
    /// the accumulated-rounding margin, `None` when the comparison is
    /// marginal and needs the exact walk.
    #[inline]
    fn screen(&self, interval: Time, slack: u128) -> Option<bool> {
        let scale = interval.as_f64();
        let est = self.slope * scale - self.offset;
        let margin = (16.0 * self.screen_ops as f64 + 64.0) * EPS * scale;
        let slack_f = slack as f64;
        if est + margin <= slack_f {
            Some(true)
        } else if est - margin > slack_f {
            Some(false)
        } else {
            None
        }
    }

    /// Swap-removes the approximation term of component `withdrawn`,
    /// patching the moved term's owner slot and downdating every
    /// incremental aggregate.
    fn remove_term(&mut self, withdrawn: usize) {
        let slot = self.states[withdrawn].term_slot as usize;
        let term = self.terms[slot];
        self.base_sum -= u128::from(term.dbf_at_im.as_u64());
        let (rate, off) = term_rates(&term);
        self.slope -= rate;
        self.offset -= off;
        self.screen_ops += 1;
        self.terms.swap_remove(slot);
        self.owners.swap_remove(slot);
        if slot < self.terms.len() {
            self.states[self.owners[slot] as usize].term_slot = slot as u32;
        }
    }

    /// (Re-)approximates component `idx` from `interval` on: pushes its
    /// term (reusing the cached period reciprocal — no division) and
    /// updates every incremental aggregate.
    fn approximate(&mut self, idx: usize, interval: Time) {
        let dbf_at_im = self.states[idx].examined_demand;
        let term =
            ApproxTerm::with_reciprocal(&self.components[idx], interval, dbf_at_im, self.rcp[idx]);
        self.states[idx].approximated_from = Some(interval);
        self.states[idx].term_slot = self.terms.len() as u32;
        self.base_sum += u128::from(dbf_at_im.as_u64());
        let (rate, off) = term_rates(&term);
        self.slope += rate;
        self.offset += off;
        self.screen_ops += 1;
        self.terms.push(term);
        self.owners.push(idx as u32);
        self.exact_sum -= u128::from(dbf_at_im.as_u64());
    }

    /// The next exact deadline of component `idx` strictly after
    /// `interval` — [`DemandComponent::next_deadline_after`] evaluated
    /// through the cached period reciprocal (no hardware division),
    /// bit-identical including the overflow (`None`) behaviour.
    fn next_deadline(&self, idx: usize, interval: Time) -> Option<Time> {
        let deadline = self.components[idx].first_deadline();
        if interval < deadline {
            return Some(deadline);
        }
        let period = self.components[idx].period()?;
        let k = self.rcp[idx].divide((interval - deadline).as_u64()) + 1;
        period.checked_mul(k)?.checked_add(deadline)
    }

    /// Schedules the next deadline of `idx` after one of its own exact
    /// deadlines: on the continue path the next deadline is simply
    /// `interval + period` (popped intervals are exact deadlines of their
    /// component), which matches `next_deadline_after` including its
    /// overflow behaviour — `deadline + (m+1)·T` exceeds `u64` in both
    /// formulations under exactly the same condition.
    fn advance(&mut self, idx: usize, interval: Time) {
        let period = self.components[idx]
            .period()
            .expect("advance is only called for periodic components");
        if let Some(next) = interval.checked_add(period) {
            if next <= self.horizon {
                self.frontier.push(idx, next);
            }
        }
    }

    /// Number of jobs of component `idx` with deadlines inside
    /// `interval` — `⌊(interval − D')/T⌋ + 1` through the cached
    /// reciprocal.
    fn jobs_within(&self, idx: usize, interval: Time) -> u64 {
        let first = self.components[idx].first_deadline();
        if interval < first {
            return 0;
        }
        match self.components[idx].period() {
            None => 1,
            Some(_) => self.rcp[idx].divide((interval - first).as_u64()) + 1,
        }
    }

    /// Withdraws the approximation of component `j` at `interval`:
    /// removes its term, re-evaluates its exact demand (one
    /// `component_demand` slot gather) and schedules its next deadline on
    /// the frontier.
    fn withdraw(&mut self, j: usize, interval: Time, track_jobs: bool) {
        self.remove_term(j);
        self.states[j].approximated_from = None;
        let demand = self.workload.component_demand(j, interval);
        self.states[j].examined_demand = demand;
        if track_jobs {
            self.states[j].examined_jobs = self.jobs_within(j, interval);
        }
        self.exact_sum += u128::from(demand.as_u64());
        if let Some(next) = self.next_deadline(j, interval) {
            if next <= self.horizon {
                self.frontier.push(j, next);
            }
        }
    }

    /// The dynamic-error test's batched withdrawal pass: collects every
    /// live term whose component would not be approximated at the new
    /// `level`, then applies the withdrawals in ascending component order
    /// (one `component_demand` gather each) — the same set, in the same
    /// order, as a scan over all component states.  Returns whether
    /// anything was withdrawn.
    fn withdraw_below_level(&mut self, level: u64, interval: Time) -> bool {
        self.withdrawn.clear();
        for &owner in self.owners.iter() {
            let j = owner as usize;
            let im = self.states[j]
                .approximated_from
                .expect("live terms belong to approximated components");
            if self.components[j].max_test_interval(level) > im {
                self.withdrawn.push(owner);
            }
        }
        if self.withdrawn.is_empty() {
            return false;
        }
        self.withdrawn.sort_unstable();
        for i in 0..self.withdrawn.len() {
            let j = self.withdrawn[i] as usize;
            self.withdraw(j, interval, false);
        }
        true
    }

    /// The all-approximated test's revision pick: pops the revision
    /// queue's front entries until one is below the level limit (the
    /// caller withdraws it; see the module docs).
    fn pick_revision(&mut self, max_level: Option<u64>) -> Option<usize> {
        while let Some(owner) = self.revision_queue.pop_front() {
            let s = &self.states[owner as usize];
            debug_assert!(s.approximated_from.is_some());
            if max_level.is_none_or(|l| s.examined_jobs < l) {
                return Some(owner as usize);
            }
        }
        None
    }
}

/// The dynamic-error analysis loop (§4.1, Figure 5) on the shared
/// engine, examining the deadlines up to `horizon`.  The caller has
/// already answered the empty and `U > 1` workloads:
/// [`DynamicErrorTest`] passes the analysis horizon, [`SuperpositionTest`]
/// passes `Time::MAX` with its level capped, which stops the frontier by
/// itself.
///
/// [`SuperpositionTest`]: crate::tests::SuperpositionTest
pub(crate) fn dynamic_error(
    test: &DynamicErrorTest,
    workload: &PreparedWorkload,
    horizon: Time,
    scratch: &mut AnalysisScratch,
) -> Analysis {
    debug_assert!(!workload.is_empty() && !workload.utilization_exceeds_one());
    let mut budget = scratch.budget();
    let mut counter = IterationCounter::new();
    let mut level = test.initial_level;
    // The largest interval whose comparison *completed* satisfied — a
    // comparison interrupted mid-refinement certifies nothing.
    let mut certified: Option<Time> = None;
    let mut engine = Engine::new(workload, horizon, scratch);

    let analysis = 'drive: {
        while let Some((interval, idx)) = engine.frontier.pop() {
            // The popped interval is an exact deadline of component `idx`
            // (which is never approximated while it has a frontier entry).
            debug_assert!(engine.states[idx].approximated_from.is_none());
            engine.examine(idx);

            // Compare the approximated demand against the capacity; refine
            // (raise the level, withdraw approximations) until it fits or no
            // approximation is left.
            loop {
                // One work unit per demand/capacity comparison.
                if !budget.charge(1) {
                    break 'drive counter.finish_exhausted(
                        &budget,
                        ProgressPhase::Refinement,
                        certified,
                    );
                }
                counter.record(interval);
                if engine.demand_within(interval) {
                    break;
                }
                if engine.terms.is_empty() {
                    // Fully exact comparison failed: genuine overload.  The
                    // exact part omits jobs due at `interval` that the
                    // frontier has not popped yet, so the witness reports
                    // the full demand there.
                    let demand = workload.dbf(interval);
                    break 'drive counter.finish(
                        Verdict::Infeasible,
                        Some(DemandOverload { interval, demand }),
                    );
                }
                // Raise the level until at least one approximation can be
                // withdrawn for this interval.
                let mut revised_any = false;
                while !revised_any {
                    let raised = level.saturating_mul(2);
                    if let Some(limit) = test.max_level {
                        if raised > limit && level >= limit {
                            break 'drive counter.finish(Verdict::Unknown, None);
                        }
                        level = raised.min(limit);
                    } else {
                        level = raised;
                    }
                    revised_any = engine.withdraw_below_level(level, interval);
                    if level == u64::MAX {
                        // Cannot grow further; every border has saturated.
                        break;
                    }
                }
                if !revised_any {
                    // No approximation could be withdrawn even at the maximum
                    // representable level; treat the (over-)approximated
                    // failure as inconclusive.
                    break 'drive counter.finish(Verdict::Unknown, None);
                }
            }
            certified = Some(interval);

            // Decide how component `idx` continues: exactly (next deadline)
            // while below its test border, approximated from here on
            // otherwise.  One-shot components have no future demand — they
            // simply stay in the exact part.
            if engine.components[idx].period().is_none() {
                continue;
            }
            let border = engine.components[idx].max_test_interval(level);
            if interval < border {
                engine.advance(idx, interval);
            } else {
                engine.approximate(idx, interval);
            }
        }

        counter.finish(Verdict::Feasible, None)
    };
    scratch.set_budget(budget);
    analysis
}

/// The all-approximated analysis loop (§4.2, Figure 7) on the shared
/// engine — called by
/// [`AllApproximatedTest::analyze_demand`](crate::analysis::FeasibilityTest::analyze_demand).
pub(crate) fn all_approximated(
    test: &AllApproximatedTest,
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
    let mut budget = scratch.budget();
    let mut counter = IterationCounter::new();
    // As in `dynamic_error`: only a *completed* satisfied comparison
    // certifies its interval.
    let mut certified: Option<Time> = None;
    let mut engine = Engine::new(workload, horizon, scratch);

    let analysis = 'drive: {
        while let Some((interval, idx)) = engine.frontier.pop() {
            // Popped components are never approximated: approximation happens
            // right after a component's own interval is examined (without
            // scheduling a next one), and only a withdrawal — which also
            // clears the approximation — re-enters it into the frontier.
            debug_assert!(engine.states[idx].approximated_from.is_none());
            engine.examine(idx);
            engine.states[idx].examined_jobs += 1;

            loop {
                // One work unit per demand/capacity comparison.
                if !budget.charge(1) {
                    break 'drive counter.finish_exhausted(
                        &budget,
                        ProgressPhase::Refinement,
                        certified,
                    );
                }
                counter.record(interval);
                if engine.demand_within(interval) {
                    break;
                }
                if engine.terms.is_empty() {
                    break 'drive counter.finish(
                        Verdict::Infeasible,
                        Some(DemandOverload {
                            interval,
                            demand: workload.dbf(interval),
                        }),
                    );
                }
                // Withdraw the oldest approximation; components refined up
                // to the level limit are no longer candidates.
                let Some(revise) = engine.pick_revision(test.max_level) else {
                    // Every remaining approximation is beyond the limit — its
                    // over-estimation is within the target error, so the
                    // failure is inconclusive (see `with_max_level`).
                    break 'drive counter.finish(Verdict::Unknown, None);
                };
                engine.withdraw(revise, interval, true);
            }
            certified = Some(interval);

            // The examined component is (re-)approximated from this interval
            // on.  One-shot components have no future demand, so they stay in
            // the exact part instead.
            if engine.components[idx].period().is_some() {
                engine.approximate(idx, interval);
                engine.revision_queue.push_back(idx as u32);
            }
        }

        counter.finish(Verdict::Feasible, None)
    };
    scratch.set_budget(budget);
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use edf_model::{Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    #[test]
    fn engine_jobs_within_matches_reference_div_floor() {
        let ts = TaskSet::from_tasks(vec![t(2, 7, 9), t(1, 3, 5), t(4, 11, 11)]);
        let prepared = PreparedWorkload::new(&ts);
        let horizon = prepared.analysis_horizon().expect("bounded horizon");
        let mut scratch = AnalysisScratch::new();
        let engine = Engine::new(&prepared, horizon, &mut scratch);
        for idx in 0..engine.components.len() {
            for i in 0..200u64 {
                let i = Time::new(i);
                let expected = {
                    let c = &engine.components[idx];
                    if i < c.first_deadline() {
                        0
                    } else {
                        (i - c.first_deadline()).div_floor(c.period().unwrap()) + 1
                    }
                };
                assert_eq!(
                    engine.jobs_within(idx, i),
                    expected,
                    "component {idx} at {i}"
                );
            }
        }
    }

    #[test]
    fn engine_next_deadline_matches_component_walk() {
        let ts = TaskSet::from_tasks(vec![t(2, 7, 9), t(1, 3, 5), t(4, 11, 11)]);
        let prepared = PreparedWorkload::new(&ts);
        let horizon = prepared.analysis_horizon().expect("bounded horizon");
        let mut scratch = AnalysisScratch::new();
        let engine = Engine::new(&prepared, horizon, &mut scratch);
        for idx in 0..engine.components.len() {
            for i in 0..200u64 {
                let i = Time::new(i);
                assert_eq!(
                    engine.next_deadline(idx, i),
                    engine.components[idx].next_deadline_after(i),
                    "component {idx} at {i}"
                );
            }
        }
    }
}

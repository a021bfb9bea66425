//! The columnar demand kernel: data-oriented storage and merge machinery
//! behind every hot demand query.
//!
//! The feasibility tests of this crate ultimately spin on three inner
//! loops — evaluating the demand bound function `dbf(I)`, finding the
//! largest job deadline below an interval (the QPA step function), and
//! merging the per-component deadline streams in ascending order.  The
//! scalar implementations of PR 1 walked the
//! [`DemandComponent`] array-of-structs with an enum match per element and
//! paid a binary-heap operation per merged job deadline.  This module
//! replaces those loops with a data-oriented kernel:
//!
//! * [`DemandKernel`] — a **structure-of-arrays** view of a prepared
//!   component list: `wcet[]`, `deadline[]` and `period[]` columns stored
//!   in ascending first-deadline order (the ordering
//!   [`PreparedWorkload::deadline_order`](crate::workload::PreparedWorkload::deadline_order)
//!   already caches), with one-shot components segregated from periodic
//!   ones.  The one-shot contribution to `dbf(t)` collapses to a binary
//!   search plus a precomputed (saturating) prefix sum of costs; the
//!   periodic contribution is a tight loop over contiguous columns with no
//!   per-element enum branch — the deadline cutoff is found by **one**
//!   binary search and the loop body is pure arithmetic.  The columns
//!   copy their period reciprocals from the preparation, which derives
//!   each once (an edit only for an inserted or re-periodized component),
//!   so no build divides.  The kernel has one build,
//!   `DemandKernel::rebuild(components, order, reciprocals)`: on the
//!   first demand query of a cold preparation, and in place, into the
//!   existing allocations, when a recycled preparation or a view's
//!   finalize installs a new component list.
//! * [`MergeState`] — the merge of the per-component deadline streams by
//!   **windowed generation**: every stream writes its deadlines in the
//!   next window `[lo, lo + W)` into one reused buffer as packed
//!   `(offset, component)` keys, one small `sort_unstable` orders the
//!   window, and one sweep reads it out — per job event, or with
//!   equal-deadline runs coalesced into **one demand step**
//!   ([`DemandSteps`]) so the processor-demand walk performs exactly one
//!   capacity comparison per distinct interval.  No per-event queue
//!   operation remains.
//! * [`AnalysisScratch`] — a reusable arena holding the merge state and
//!   every transient buffer the seven feasibility tests need (pending
//!   interval queues, refinement states, approximation terms).  One scratch
//!   per batch worker makes high-throughput
//!   [`batch::analyze_many`](crate::batch::analyze_many) perform no
//!   per-workload transient allocations after warm-up.
//!
//! Every demand query answers exactly what the saturating folds of
//! [`DemandComponent::dbf`] and [`DemandComponent::last_deadline_below`]
//! answer; the `kernel_equivalence` property tests compare the two at
//! every job deadline of generated workloads.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::workload::{PreparedWorkload, Workload};
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(1), Time::new(4), Time::new(8))?,
//!     Task::new(Time::new(2), Time::new(6), Time::new(12))?,
//! ]);
//! let prepared = PreparedWorkload::new(&ts);
//! // `PreparedWorkload::dbf` answers through the columnar kernel, bit
//! // for bit what the saturating fold over the components answers.
//! for i in 0..40u64 {
//!     let i = Time::new(i);
//!     let fold = prepared
//!         .components()
//!         .iter()
//!         .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(i)));
//!     assert_eq!(prepared.dbf(i), fold);
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use edf_model::Time;

use crate::arith::Reciprocal;
use crate::budget::WorkBudget;
use crate::superposition::ApproxTerm;
use crate::workload::DemandComponent;

/// Where a component's cost lives inside the kernel columns.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `true` → `periodic` columns, `false` → `one_shot` columns.
    periodic: bool,
    /// Index within the column family.
    index: u32,
}

/// The columnar (structure-of-arrays) form of a prepared component list.
///
/// Built once per [`PreparedWorkload`](crate::workload::PreparedWorkload)
/// (lazily, on the first demand query) from its ascending-deadline order
/// and period reciprocals; see the [module documentation](self) for the
/// layout.
#[derive(Debug, Clone, Default)]
pub struct DemandKernel {
    /// Periodic columns, ascending first deadline (ties keep component
    /// order — the deadline sort is stable).
    p_deadline: Vec<u64>,
    p_period: Vec<u64>,
    p_wcet: Vec<u64>,
    /// Per-column period reciprocals (see [`crate::arith`]'s `Reciprocal`).
    p_rcp: Vec<Reciprocal>,
    /// One-shot columns, ascending deadline.
    o_deadline: Vec<u64>,
    o_wcet: Vec<u64>,
    /// Saturating prefix sums of `o_wcet` (`prefix[i] = min(Σ₀..=i, MAX)`).
    o_prefix: Vec<u64>,
    /// Component index → column slot (the refining tests' per-component
    /// `component_demand` gathers).
    slot_of: Vec<Slot>,
}

impl DemandKernel {
    /// (Re)builds the columns from `components`, walking `deadline_order`
    /// (the indices sorted by ascending first deadline), with the period
    /// reciprocals of the preparation (`reciprocals[i]` belongs to
    /// component `i`; one-shot entries are ignored), so no rebuild divides.
    /// All column allocations are reused.
    pub(crate) fn rebuild(
        &mut self,
        components: &[DemandComponent],
        deadline_order: &[usize],
        reciprocals: &[Reciprocal],
    ) {
        debug_assert_eq!(components.len(), deadline_order.len());
        debug_assert_eq!(components.len(), reciprocals.len());
        self.p_deadline.clear();
        self.p_period.clear();
        self.p_wcet.clear();
        self.p_rcp.clear();
        self.o_deadline.clear();
        self.o_wcet.clear();
        // Every slot is written below: `deadline_order` is a permutation.
        self.slot_of.resize(components.len(), Slot::default());
        for &idx in deadline_order {
            let component = &components[idx];
            match component.period() {
                Some(period) => {
                    self.slot_of[idx] = Slot {
                        periodic: true,
                        index: self.p_deadline.len() as u32,
                    };
                    self.p_deadline.push(component.first_deadline().as_u64());
                    self.p_period.push(period.as_u64());
                    debug_assert_eq!(reciprocals[idx], Reciprocal::new(period.as_u64()));
                    self.p_rcp.push(reciprocals[idx]);
                    self.p_wcet.push(component.wcet().as_u64());
                }
                None => {
                    self.slot_of[idx] = Slot {
                        periodic: false,
                        index: self.o_deadline.len() as u32,
                    };
                    self.o_deadline.push(component.first_deadline().as_u64());
                    self.o_wcet.push(component.wcet().as_u64());
                }
            }
        }
        // Saturating prefix sums, so the clamp semantics of the scalar
        // fold are preserved exactly.
        self.o_prefix.clear();
        let mut acc: u64 = 0;
        for &wcet in &self.o_wcet {
            acc = acc.saturating_add(wcet);
            self.o_prefix.push(acc);
        }
    }

    /// The one-shot contribution to `dbf(t)`: a binary search into the
    /// sorted one-shot deadlines plus one prefix-sum lookup.
    #[inline]
    fn one_shot_demand(&self, t: u64) -> u64 {
        match self.o_deadline.partition_point(|&d| d <= t) {
            0 => 0,
            hit => self.o_prefix[hit - 1],
        }
    }

    /// Total demand bound function, bit-identical to the scalar
    /// saturating fold over [`DemandComponent::dbf`]: one binary search
    /// for the deadline cutoff, then a tight loop over the columns below
    /// it.
    #[must_use]
    pub fn dbf(&self, interval: Time) -> Time {
        let t = interval.as_u64();
        let cut = self.p_deadline.partition_point(|&d| d <= t);
        let mut total = self.one_shot_demand(t);
        for ((&deadline, &rcp), &wcet) in self.p_deadline[..cut]
            .iter()
            .zip(&self.p_rcp[..cut])
            .zip(&self.p_wcet[..cut])
        {
            let jobs = rcp.divide(t - deadline) + 1;
            total = total.saturating_add(wcet.saturating_mul(jobs));
        }
        Time::new(total)
    }

    /// The largest job deadline strictly below `limit`, answered from the
    /// sorted columns instead of a full component scan: the one-shot part
    /// is one binary search; the periodic part visits only the prefix of
    /// components whose first deadline is below `limit`.
    #[must_use]
    pub fn last_deadline_below(&self, limit: Time) -> Option<Time> {
        let limit = limit.as_u64();
        let mut best: Option<u64> = None;
        let o_cut = self.o_deadline.partition_point(|&d| d < limit);
        if o_cut > 0 {
            best = Some(self.o_deadline[o_cut - 1]);
        }
        let p_cut = self.p_deadline.partition_point(|&d| d < limit);
        if p_cut > 0 {
            let mut periodic_best = 0u64;
            for ((&deadline, &period), &rcp) in self.p_deadline[..p_cut]
                .iter()
                .zip(&self.p_period[..p_cut])
                .zip(&self.p_rcp[..p_cut])
            {
                // No overflow: k·period ≤ limit − 1 − deadline by
                // construction, matching the checked
                // `DemandComponent::last_deadline_below` exactly.
                let k = rcp.divide(limit - 1 - deadline);
                periodic_best = periodic_best.max(deadline + k * period);
            }
            best = Some(best.map_or(periodic_best, |b| b.max(periodic_best)));
        }
        best.map(Time::new)
    }

    /// The demand contribution of one component at `interval`, gathered
    /// straight from its column slot — bit-identical to
    /// [`DemandComponent::dbf`] on the corresponding component, with the
    /// period reciprocal replacing the hardware division.  This is the
    /// kernel-side form of the refining tests' withdrawal evaluations.
    #[must_use]
    pub fn component_demand(&self, component: usize, interval: Time) -> Time {
        let t = interval.as_u64();
        let slot = self.slot_of[component];
        let index = slot.index as usize;
        if slot.periodic {
            let deadline = self.p_deadline[index];
            if deadline > t {
                return Time::ZERO;
            }
            let jobs = self.p_rcp[index].divide(t - deadline) + 1;
            Time::new(self.p_wcet[index].saturating_mul(jobs))
        } else if self.o_deadline[index] > t {
            Time::ZERO
        } else {
            Time::new(self.o_wcet[index])
        }
    }

    /// The cost and period reciprocal of every periodic column — what the
    /// busy-period fix-point behind
    /// [`PreparedWorkload::analysis_horizon`](crate::workload::PreparedWorkload::analysis_horizon)
    /// iterates over.
    pub(crate) fn periodic_costs(&self) -> impl Iterator<Item = (Time, Reciprocal)> + Clone + '_ {
        self.p_wcet
            .iter()
            .map(|&wcet| Time::new(wcet))
            .zip(self.p_rcp.iter().copied())
    }

    /// Number of periodic columns (for the benchmarks and tests).
    #[must_use]
    pub fn periodic_len(&self) -> usize {
        self.p_deadline.len()
    }

    /// Number of one-shot columns (for the benchmarks and tests).
    #[must_use]
    pub fn one_shot_len(&self) -> usize {
        self.o_deadline.len()
    }
}

/// Encodes a pending deadline and its component index into one totally
/// ordered key: `(deadline, component)` lexicographically.  `u128::MAX`
/// is the exhausted sentinel (strictly larger than every real key, whose
/// top 32 bits are zero).
#[inline]
fn merge_key(deadline: u64, component: u32) -> u128 {
    (u128::from(deadline) << 32) | u128::from(component)
}

const EXHAUSTED: u128 = u128::MAX;

/// Target jobs per window, per live stream.  Targets of 2n, 4n and 8n
/// measured 24.4, 22.8 and 20.8 ns per processor-demand interval on the
/// Fig. 8/9 ratio sets (2-CPU x86-64 host).
const WINDOW_EVENTS_PER_STREAM: usize = 8;

/// One component's deadline stream: its next job deadline (`≤` the
/// horizon) and its period, 0 for a one-shot.
#[derive(Debug, Clone, Copy)]
struct Stream {
    next: u64,
    period: u64,
    component: usize,
}

/// The merge of all component deadline streams: the one generator behind
/// [`PreparedWorkload::demand_events`](crate::workload::PreparedWorkload::demand_events)
/// and [`DemandSteps`].
///
/// Deadlines are generated in windows of `W ≈ 8n / Σ 1/Tᵢ` time units
/// (about `8n` jobs), each starting at the smallest pending deadline `lo`.
/// Every live stream writes its deadlines in `[lo, lo + W)` into one reused
/// buffer as `(deadline − lo) << c | component`, with `c` the bit width of
/// a component index, and one `sort_unstable` gives `(deadline, component)`
/// order, ties included.  As every stream writes all its deadlines below
/// the window's end, an equal-deadline run never splits across windows.
/// `W` is capped so the offset fits in `64 − c` bits; one-shots only (zero
/// density) make one window.  A stream writes at most `W/Tᵢ + 1` keys per
/// window, so `init` reserves `9n` and a batch worker stops allocating once
/// it has merged its largest workload.
#[derive(Debug, Clone, Default)]
pub struct MergeState {
    /// The streams with a pending deadline `≤ horizon`.
    streams: Vec<Stream>,
    /// Cost per job, by component (for coalesced demand steps).
    wcet: Vec<u64>,
    horizon: u64,
    /// `c`: the bit width of a component index.
    shift: u32,
    /// `W − 1`: the largest deadline offset inside one window.
    span: u64,
    /// The start of the current window, and the smallest pending deadline
    /// once the window is generated (the next window's start).
    lo: u64,
    next_lo: u64,
    /// The current window's sorted keys and the read position in them.
    window: Vec<u64>,
    pos: usize,
}

impl MergeState {
    /// Prepares the merge over all component deadline streams `≤ horizon`.
    pub(crate) fn init(&mut self, components: &[DemandComponent], horizon: Time) {
        self.streams.clear();
        self.wcet.clear();
        self.window.clear();
        self.pos = 0;
        self.horizon = horizon.as_u64();
        self.next_lo = u64::MAX;
        let mut density = 0.0;
        for (component, c) in components.iter().enumerate() {
            self.wcet.push(c.wcet().as_u64());
            if c.first_deadline() > horizon {
                continue;
            }
            let period = c.period().map_or(0, Time::as_u64);
            if period != 0 {
                density += 1.0 / period as f64;
            }
            let next = c.first_deadline().as_u64();
            self.next_lo = self.next_lo.min(next);
            self.streams.push(Stream {
                next,
                period,
                component,
            });
        }
        let live = self.streams.len();
        self.shift = usize::BITS - components.len().saturating_sub(1).leading_zeros();
        // Zero density (one-shots only) makes the width infinite, and the
        // float-to-integer cast saturates: the cap then bounds it.
        let width = (WINDOW_EVENTS_PER_STREAM * live) as f64 / density;
        self.span = ((width as u64).max(1) - 1).min(u64::MAX >> self.shift);
        self.window.reserve((WINDOW_EVENTS_PER_STREAM + 1) * live);
    }

    /// Generates and sorts the next window; `false` once every stream is
    /// exhausted.
    fn refill(&mut self) -> bool {
        if self.streams.is_empty() {
            return false;
        }
        let lo = self.next_lo;
        let hi = lo.saturating_add(self.span).min(self.horizon);
        let (shift, horizon) = (self.shift, self.horizon);
        let window = &mut self.window;
        window.clear();
        let mut next_lo = u64::MAX;
        self.streams.retain_mut(|stream| {
            while stream.next <= hi {
                window.push(((stream.next - lo) << shift) | stream.component as u64);
                match stream.next.checked_add(stream.period) {
                    Some(next) if stream.period != 0 && next <= horizon => stream.next = next,
                    _ => return false,
                }
            }
            next_lo = next_lo.min(stream.next);
            true
        });
        window.sort_unstable();
        self.lo = lo;
        self.next_lo = next_lo;
        self.pos = 0;
        true
    }

    /// Pops the next `(deadline, component)` event in ascending
    /// `(deadline, component)` order.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Time, usize)> {
        if self.pos == self.window.len() && !self.refill() {
            return None;
        }
        let key = self.window[self.pos];
        self.pos += 1;
        let component = (key & ((1 << self.shift) - 1)) as usize;
        Some((Time::new(self.lo + (key >> self.shift)), component))
    }

    /// Pops the next distinct deadline with the saturating sum of the
    /// costs of its jobs.  A run never splits across windows, so it ends
    /// in the current one.
    #[inline]
    pub(crate) fn pop_step(&mut self) -> Option<(Time, Time)> {
        let (deadline, component) = self.pop()?;
        let mut demand = self.wcet[component];
        let offset = deadline.as_u64() - self.lo;
        while let Some(&key) = self.window.get(self.pos) {
            if key >> self.shift != offset {
                break;
            }
            demand = demand.saturating_add(self.wcet[(key & ((1 << self.shift) - 1)) as usize]);
            self.pos += 1;
        }
        Some((deadline, Time::new(demand)))
    }
}

/// A flat winner (tournament) tree over **one pending deadline per
/// component**: the refining tests' frontier of pending exact test
/// intervals (see [`crate::refine`]).
///
/// The refining tests keep at most one outstanding deadline per component
/// (its next unexamined deadline), so the queue is a fixed frontier of `n`
/// slots keyed by [`merge_key`]
/// (`(deadline, component)` lexicographically; keys are unique because the
/// component index is part of the key).  Empty slots hold the
/// [`EXHAUSTED`] sentinel.
///
/// The internal nodes store the **winning leaf of every subtree**, so an
/// arbitrary slot update (a component advancing, or a withdrawal
/// re-entering a component mid-frontier) replays one leaf-to-root path of
/// `⌈log₂ n⌉` two-child comparisons and stays correct.  Pop, push and
/// replace are a slot write plus one such replay; no sift with
/// data-dependent branching, no per-pop allocation.
///
/// Layout: `k = n` leaves are the virtual nodes `k..2k` (leaf `j` is node
/// `k + j`), internal nodes `1..k` hold the winning slot index of their
/// subtree, and the overall winner is the winner of node 1 (for `k = 1`
/// node 1 *is* the single leaf).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontierQueue {
    /// Current key per component slot ([`merge_key`], or [`EXHAUSTED`]).
    key: Vec<u128>,
    /// `tree[node]` = slot index winning the subtree rooted at `node`.
    tree: Vec<u32>,
}

impl FrontierQueue {
    /// Clears the queue to `n` exhausted slots.  Callers [`seed`] the
    /// initial frontier and then [`rebuild`] once — `O(n)` total, versus
    /// `O(n log n)` for heapifying by repeated pushes.
    ///
    /// [`seed`]: FrontierQueue::seed
    /// [`rebuild`]: FrontierQueue::rebuild
    pub(crate) fn reset(&mut self, n: usize) {
        self.key.clear();
        self.key.resize(n, EXHAUSTED);
    }

    /// Sets slot `component`'s pending interval without replaying the
    /// tree; call [`FrontierQueue::rebuild`] once after seeding.
    pub(crate) fn seed(&mut self, component: usize, deadline: Time) {
        self.key[component] = merge_key(deadline.as_u64(), component as u32);
    }

    /// Rebuilds the whole tournament in `O(n)` (children before parents).
    pub(crate) fn rebuild(&mut self) {
        let k = self.key.len();
        self.tree.clear();
        self.tree.resize(k.max(1), 0);
        for node in (1..k).rev() {
            self.tree[node] = self.winner_of(node);
        }
    }

    /// The winning slot of the subtree rooted at `node`, reading its two
    /// children (which must already be up to date).
    #[inline]
    fn winner_of(&self, node: usize) -> u32 {
        let left = self.child_winner(2 * node);
        let right = self.child_winner(2 * node + 1);
        if self.key[left as usize] <= self.key[right as usize] {
            left
        } else {
            right
        }
    }

    /// The winning slot stored at `node`, resolving virtual leaf nodes.
    #[inline]
    fn child_winner(&self, node: usize) -> u32 {
        let k = self.key.len();
        if node >= k {
            (node - k) as u32
        } else {
            self.tree[node]
        }
    }

    /// Replays the leaf-to-root path of slot `component` after its key
    /// changed (in either direction — the two-child recomputation per
    /// level is what makes arbitrary-slot updates sound).
    #[inline]
    fn replay(&mut self, component: usize) {
        let k = self.key.len();
        let mut node = (component + k) / 2;
        while node >= 1 {
            self.tree[node] = self.winner_of(node);
            node /= 2;
        }
    }

    /// The minimum pending `(interval, component)` entry, left in place,
    /// or `None` when every slot is empty.
    #[inline]
    fn peek(&self) -> Option<(Time, usize)> {
        if self.key.is_empty() {
            return None;
        }
        let slot = self.child_winner(1) as usize;
        let key = self.key[slot];
        (key != EXHAUSTED).then(|| (Time::new((key >> 32) as u64), slot))
    }

    /// Writes slot `component`'s pending interval (`None` empties the
    /// slot) and replays its path.
    #[inline]
    fn replace(&mut self, component: usize, deadline: Option<Time>) {
        self.key[component] =
            deadline.map_or(EXHAUSTED, |d| merge_key(d.as_u64(), component as u32));
        self.replay(component);
    }

    /// Pops the minimum `(interval, component)` entry, or `None` when
    /// every slot is empty.
    pub(crate) fn pop(&mut self) -> Option<(Time, usize)> {
        let (deadline, slot) = self.peek()?;
        self.replace(slot, None);
        Some((deadline, slot))
    }

    /// Schedules `deadline` as slot `component`'s pending interval.  The
    /// slot must currently be empty (the refining tests' one-outstanding-
    /// interval-per-component invariant).
    pub(crate) fn push(&mut self, component: usize, deadline: Time) {
        debug_assert_eq!(
            self.key[component], EXHAUSTED,
            "component {component} already has a pending interval"
        );
        self.replace(component, Some(deadline));
    }
}

/// Coalesced demand steps: one `(interval, demand increment)` pair per
/// **distinct** job deadline `≤ horizon`, in ascending order, with
/// equal-deadline runs pre-summed (saturating).  A run sits in one window
/// of the [`MergeState`], so a step is one sweep over adjacent sorted keys,
/// and the processor-demand walk performs exactly one comparison per
/// interval.
///
/// Construct via
/// [`PreparedWorkload::demand_steps`](crate::workload::PreparedWorkload::demand_steps),
/// which runs it on the scratch's reusable [`MergeState`].
#[derive(Debug)]
pub struct DemandSteps<'a> {
    merge: &'a mut MergeState,
}

impl<'a> DemandSteps<'a> {
    pub(crate) fn new(merge: &'a mut MergeState) -> Self {
        DemandSteps { merge }
    }
}

impl Iterator for DemandSteps<'_> {
    /// `(interval, total cost of the jobs due exactly at it)`.
    type Item = (Time, Time);

    fn next(&mut self) -> Option<(Time, Time)> {
        self.merge.pop_step()
    }
}

/// Shared per-component bookkeeping of the refining tests
/// (dynamic-error and all-approximated), pooled in [`AnalysisScratch`] so
/// batch workers reuse one state vector across workloads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefinementState {
    /// Exact demand of the deadlines of this component examined so far.
    pub examined_demand: Time,
    /// Number of jobs examined exactly (the all-approximated level limit).
    pub examined_jobs: u64,
    /// `Some(im)` when the component is approximated from `im` on.
    pub approximated_from: Option<Time>,
    /// Position of this component's term inside the incrementally
    /// maintained approximation-term list (valid while approximated).
    pub term_slot: u32,
}

/// Reusable scratch space for one analysis worker: the deadline merge
/// and every transient buffer the feasibility tests need.
///
/// Creating a scratch is free (no allocation until first use); reusing one
/// across many analyses — as
/// [`batch::analyze_many`](crate::batch::analyze_many) does with one
/// scratch per worker thread — eliminates all per-workload transient
/// allocations from the test loops.  Pass it to
/// [`FeasibilityTest::analyze_prepared_with`](crate::FeasibilityTest::analyze_prepared_with);
/// the plain `analyze_prepared` entry point simply runs with a fresh
/// scratch.
///
/// # Examples
///
/// ```
/// use edf_analysis::kernel::AnalysisScratch;
/// use edf_analysis::tests::QpaTest;
/// use edf_analysis::workload::PreparedWorkload;
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let ts = TaskSet::from_tasks(vec![Task::new(Time::new(1), Time::new(4), Time::new(8))?]);
/// let prepared = PreparedWorkload::new(&ts);
/// let mut scratch = AnalysisScratch::new();
/// let with_scratch = QpaTest::new().analyze_prepared_with(&prepared, &mut scratch);
/// assert_eq!(with_scratch, QpaTest::new().analyze_prepared(&prepared));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// The windowed deadline merge of the processor-demand walk.
    pub(crate) merge: MergeState,
    /// The refining tests' flat frontier of pending exact test intervals
    /// (one slot per component; see [`FrontierQueue`] and
    /// [`crate::refine`]).
    pub(crate) frontier: FrontierQueue,
    /// Per-component refinement states of the refining tests.
    pub(crate) refine: Vec<RefinementState>,
    /// Approximated demand terms — maintained incrementally by the
    /// refining tests (one push per approximation, one swap-remove per
    /// withdrawal) instead of being rebuilt every comparison.
    pub(crate) approx_terms: Vec<ApproxTerm>,
    /// Component index owning each entry of `approx_terms` (keeps
    /// [`RefinementState::term_slot`] consistent across swap-removes).
    pub(crate) term_owner: Vec<u32>,
    /// The all-approximated test's FIFO revision queue: the live
    /// approximations' owners in approximation order (see
    /// [`crate::refine`]).
    pub(crate) revision_queue: VecDeque<u32>,
    /// Indices of the components a refining test withdraws in one
    /// level-raise pass — collected first, then evaluated as one batch of
    /// kernel column gathers ([`DemandKernel`]'s `component_demand`).
    pub(crate) withdrawn: Vec<u32>,
    /// Devi's per-prefix rational terms.
    pub(crate) devi_terms: Vec<(u128, u128)>,
    /// The deterministic work budget the next analysis runs under
    /// (unlimited by default; see [`crate::budget`]).
    pub(crate) budget: WorkBudget,
}

impl AnalysisScratch {
    /// Creates an empty scratch (allocation-free; buffers grow on first
    /// use and are then reused) with an unlimited work budget.
    #[must_use]
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// Installs the [`WorkBudget`] the next budget-aware analysis runs
    /// under.
    ///
    /// The budget is the one piece of scratch state that **is** an input:
    /// a limited budget can turn a decisive verdict into an honest
    /// [`Unknown`](crate::Verdict::Unknown) carrying a
    /// [`Progress`](crate::budget::Progress) record.  It persists across
    /// analyses (spent units accumulate) until replaced by `set_budget` or
    /// drained by [`take_budget`](AnalysisScratch::take_budget), which is
    /// how a test suite meters several runs against one allowance.  Every
    /// other scratch field remains a pure buffer with no
    /// influence on results.
    pub fn set_budget(&mut self, budget: WorkBudget) {
        self.budget = budget;
    }

    /// The current budget state (limit and spent units).
    #[must_use]
    pub fn budget(&self) -> WorkBudget {
        self.budget
    }

    /// Removes the installed budget, replacing it with
    /// [`WorkBudget::unlimited`], and returns its final state — call after
    /// a budgeted analysis to read the spend and make the scratch safe to
    /// reuse without a stale cap.
    pub fn take_budget(&mut self) -> WorkBudget {
        std::mem::take(&mut self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PreparedWorkload, Workload};
    use edf_model::{Task, TaskSet};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn sample_components() -> Vec<DemandComponent> {
        vec![
            DemandComponent::periodic(Time::new(2), Time::new(20), Time::new(40)),
            DemandComponent::one_shot(Time::new(3), Time::new(7), Time::ZERO),
            DemandComponent::periodic(Time::new(1), Time::new(3), Time::new(9)),
            DemandComponent::one_shot(Time::new(1), Time::new(3), Time::ZERO),
            DemandComponent::periodic_from(Time::new(2), Time::new(4), Time::new(10), Time::new(5)),
        ]
    }

    fn kernel_of(components: &[DemandComponent]) -> DemandKernel {
        PreparedWorkload::from_components(components.to_vec())
            .kernel()
            .clone()
    }

    fn scalar_dbf(components: &[DemandComponent], t: Time) -> Time {
        components
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.dbf(t)))
    }

    fn scalar_last_below(components: &[DemandComponent], limit: Time) -> Option<Time> {
        components
            .iter()
            .filter_map(|c| c.last_deadline_below(limit))
            .max()
    }

    #[test]
    fn columns_segregate_and_sort() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        assert_eq!(kernel.periodic_len(), 3);
        assert_eq!(kernel.one_shot_len(), 2);
        assert!(kernel.p_deadline.windows(2).all(|w| w[0] <= w[1]));
        assert!(kernel.o_deadline.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dbf_matches_scalar_fold_everywhere() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for i in 0..200u64 {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
        }
    }

    #[test]
    fn dbf_saturates_like_the_scalar_fold() {
        let big = 1u64 << 63;
        let components = vec![
            DemandComponent::periodic(Time::new(big), Time::ONE, Time::new(big)),
            DemandComponent::one_shot(Time::new(big), Time::ONE, Time::ZERO),
            DemandComponent::one_shot(Time::new(big), Time::ONE, Time::ZERO),
        ];
        let kernel = kernel_of(&components);
        assert_eq!(kernel.dbf(Time::MAX), Time::MAX);
        assert_eq!(kernel.dbf(Time::MAX), scalar_dbf(&components, Time::MAX));
    }

    #[test]
    fn last_deadline_below_matches_scalar_scan() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for limit in 0..200u64 {
            let limit = Time::new(limit);
            assert_eq!(
                kernel.last_deadline_below(limit),
                scalar_last_below(&components, limit),
                "limit {limit}"
            );
        }
    }

    fn drain(merge: &mut MergeState) -> Vec<(Time, usize)> {
        std::iter::from_fn(|| merge.pop()).collect()
    }

    /// Every job `(deadline, component)` with deadline `≤ horizon`, sorted.
    fn sorted_jobs(components: &[DemandComponent], horizon: Time) -> Vec<(Time, usize)> {
        let mut jobs = Vec::new();
        for (idx, component) in components.iter().enumerate() {
            let mut deadline = Some(component.first_deadline());
            while let Some(d) = deadline.filter(|&d| d <= horizon) {
                jobs.push((d, idx));
                deadline = component.period().and_then(|p| d.checked_add(p));
            }
        }
        jobs.sort_unstable();
        jobs
    }

    /// The merge's events equal the sorted job list, and its steps equal
    /// the list with equal deadlines coalesced.
    fn assert_merge_matches_sorted_jobs(components: &[DemandComponent], horizon: Time) {
        let jobs = sorted_jobs(components, horizon);
        let mut merge = MergeState::default();
        merge.init(components, horizon);
        assert_eq!(drain(&mut merge), jobs, "events up to {horizon}");
        let mut expected_steps: Vec<(Time, Time)> = Vec::new();
        for &(d, c) in &jobs {
            let cost = components[c].wcet();
            match expected_steps.last_mut() {
                Some((last, demand)) if *last == d => *demand = demand.saturating_add(cost),
                _ => expected_steps.push((d, cost)),
            }
        }
        merge.init(components, horizon);
        let steps: Vec<(Time, Time)> = DemandSteps::new(&mut merge).collect();
        assert_eq!(steps, expected_steps, "steps up to {horizon}");
    }

    /// Re-initializing one merge yields exactly what a fresh merge yields.
    #[test]
    fn merge_state_is_reusable_across_workloads() {
        let mut reused = MergeState::default();
        for components in [
            sample_components(),
            vec![DemandComponent::periodic(
                Time::new(1),
                Time::new(5),
                Time::new(5),
            )],
            Vec::new(),
            sample_components(),
        ] {
            let horizon = Time::new(60);
            reused.init(&components, horizon);
            let mut fresh = MergeState::default();
            fresh.init(&components, horizon);
            assert_eq!(drain(&mut reused), drain(&mut fresh));
        }
    }

    #[test]
    fn coalesced_steps_sum_equal_deadlines() {
        let ts = TaskSet::from_tasks(vec![t(1, 10, 10), t(2, 10, 10), t(3, 5, 20)]);
        let components = ts.demand_components();
        let mut merge = MergeState::default();
        merge.init(&components, Time::new(30));
        let steps: Vec<(Time, Time)> = DemandSteps::new(&mut merge).collect();
        assert_eq!(
            steps,
            vec![
                (Time::new(5), Time::new(3)),
                (Time::new(10), Time::new(3)),
                (Time::new(20), Time::new(3)),
                (Time::new(25), Time::new(3)),
                (Time::new(30), Time::new(3)),
            ]
        );
    }

    #[test]
    fn empty_and_single_stream_merges() {
        let mut merge = MergeState::default();
        merge.init(&[], Time::new(100));
        assert_eq!(merge.pop(), None);
        let single = vec![DemandComponent::periodic(
            Time::new(1),
            Time::new(4),
            Time::new(10),
        )];
        merge.init(&single, Time::new(25));
        let got: Vec<(u64, usize)> = drain(&mut merge)
            .into_iter()
            .map(|(d, c)| (d.as_u64(), c))
            .collect();
        assert_eq!(got, vec![(4, 0), (14, 0), (24, 0)]);
        // Beyond-horizon first deadlines never enter the merge.
        merge.init(&single, Time::new(3));
        assert_eq!(merge.pop(), None);
    }

    /// Four period-8 streams: `W = 8·4 / (4/8) = 64`, so the first window
    /// is `[1, 64]`.  Equal-deadline runs sit on its last offset (64:
    /// streams 1 and 2) and on the next window's first (65: streams 0 and
    /// 3), and neither run splits.
    #[test]
    fn equal_deadline_runs_at_the_window_edge_stay_whole() {
        let components = vec![
            DemandComponent::periodic(Time::new(1), Time::new(1), Time::new(8)),
            DemandComponent::periodic(Time::new(2), Time::new(64), Time::new(8)),
            DemandComponent::periodic(Time::new(3), Time::new(64), Time::new(8)),
            DemandComponent::periodic(Time::new(4), Time::new(65), Time::new(8)),
        ];
        let mut merge = MergeState::default();
        merge.init(&components, Time::new(400));
        assert_eq!(merge.span, 63);
        assert!(merge.refill());
        assert_eq!(merge.next_lo, 65, "the next window starts at 65");
        for horizon in [63, 64, 65, 66, 128, 129, 400] {
            assert_merge_matches_sorted_jobs(&components, Time::new(horizon));
        }
    }

    /// One-shots only: zero density, so the window width takes its cap
    /// and the whole list is one window.
    #[test]
    fn one_shot_lists_form_one_window() {
        let components: Vec<DemandComponent> = (0..40u64)
            .map(|i| {
                DemandComponent::one_shot(Time::new(i % 5 + 1), Time::new(i % 7 * 3), Time::ZERO)
            })
            .collect();
        let mut merge = MergeState::default();
        merge.init(&components, Time::MAX);
        assert_eq!(merge.span, u64::MAX >> merge.shift);
        assert!(merge.refill());
        assert_eq!(merge.window.len(), 40);
        assert!(
            !merge.refill(),
            "every stream is exhausted after one window"
        );
        for horizon in [0, 5, 18, 100, u64::MAX] {
            assert_merge_matches_sorted_jobs(&components, Time::new(horizon));
        }
    }

    /// The batch path's allocation-free contract: a scratch that walked
    /// the largest workload of a batch never grows its window buffer on
    /// the others, whatever their order.
    #[test]
    fn window_buffer_stops_growing_after_the_largest_workload() {
        let workload = |n: u64| {
            let tasks: Vec<Task> = (0..n)
                .map(|i| t(1 + i % 3, 5 + (i * 7) % 40, 20 + (i * 13) % 90))
                .collect();
            PreparedWorkload::new(&TaskSet::from_tasks(tasks))
        };
        let batch: Vec<PreparedWorkload> = [3, 12, 40, 7, 25, 40, 1, 33].map(workload).into();
        let horizon = Time::new(5_000);
        let mut scratch = AnalysisScratch::new();
        let mut capacity = None;
        for (i, prepared) in batch.iter().enumerate() {
            let steps = prepared.demand_steps(horizon, &mut scratch).count();
            assert!(steps > 0);
            if i == 2 {
                capacity = Some(scratch.merge.window.capacity());
            } else if let Some(capacity) = capacity {
                assert_eq!(scratch.merge.window.capacity(), capacity, "workload {i}");
            }
        }
    }

    #[test]
    fn prepared_workload_kernel_accessor() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 8), t(2, 6, 12)]);
        let prepared = PreparedWorkload::new(&ts);
        assert_eq!(prepared.kernel().periodic_len(), 2);
        assert_eq!(prepared.kernel().one_shot_len(), 0);
    }

    const ABOVE_32: u64 = u32::MAX as u64 + 5;

    /// Columns straddling `u32::MAX` and intervals on both sides of it
    /// match the scalar folds.
    #[test]
    fn straddling_columns_match_scalar_folds() {
        let components = vec![
            DemandComponent::periodic(Time::new(2), Time::new(20), Time::new(40)),
            DemandComponent::periodic(Time::new(3), Time::new(ABOVE_32), Time::new(ABOVE_32 + 7)),
            DemandComponent::periodic(Time::new(ABOVE_32), Time::new(9), Time::new(ABOVE_32 * 2)),
            DemandComponent::one_shot(Time::new(5), Time::new(ABOVE_32 + 1), Time::ZERO),
        ];
        let kernel = kernel_of(&components);
        let probes = [
            0,
            19,
            20,
            u32::MAX as u64,
            ABOVE_32,
            ABOVE_32 + 1,
            ABOVE_32 * 3 + 11,
        ];
        for &i in &probes {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
            assert_eq!(
                kernel.last_deadline_below(i),
                scalar_last_below(&components, i),
                "predecessor at {i}"
            );
        }
    }

    /// Columns whose values all fit `u32`, queried at intervals at and
    /// above `u32::MAX`, match the scalar folds.
    #[test]
    fn narrow_columns_with_wide_intervals_match_scalar_folds() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for &i in &[u32::MAX as u64, ABOVE_32, ABOVE_32 + 13] {
            let i = Time::new(i);
            assert_eq!(kernel.dbf(i), scalar_dbf(&components, i), "dbf at {i}");
            assert_eq!(
                kernel.last_deadline_below(i),
                scalar_last_below(&components, i),
                "predecessor at {i}"
            );
        }
    }

    #[test]
    fn component_demand_gathers_match_component_dbf() {
        let components = sample_components();
        let kernel = kernel_of(&components);
        for (idx, component) in components.iter().enumerate() {
            for i in 0..120u64 {
                let i = Time::new(i);
                assert_eq!(
                    kernel.component_demand(idx, i),
                    component.dbf(i),
                    "component {idx} at {i}"
                );
            }
        }
    }

    /// The preparation holds one reciprocal per component, of its period
    /// (the divisor-1 sentinel for a one-shot), and the kernel's periodic
    /// columns carry exactly the periodic components' ones, in deadline
    /// order.
    #[test]
    fn period_reciprocal_exists_exactly_for_periodic_components() {
        let components = sample_components();
        let prepared = PreparedWorkload::from_components(components.clone());
        for (idx, component) in components.iter().enumerate() {
            let period = component.period().map_or(1, Time::as_u64);
            assert_eq!(
                prepared.reciprocals()[idx],
                Reciprocal::new(period),
                "component {idx}"
            );
        }
        let periodic: Vec<Reciprocal> = prepared
            .deadline_order()
            .iter()
            .filter(|&&idx| components[idx].period().is_some())
            .map(|&idx| prepared.reciprocals()[idx])
            .collect();
        let columns: Vec<Reciprocal> = prepared
            .kernel()
            .periodic_costs()
            .map(|(_, rcp)| rcp)
            .collect();
        assert_eq!(columns, periodic);
    }

    /// Drives a [`FrontierQueue`] and a `BinaryHeap<Reverse<(Time, usize)>>`
    /// through the same deterministic seed / pop / re-push schedule and
    /// asserts identical pop order. The refining tests keep at most one
    /// pending interval per component, which both structures model here.
    fn assert_frontier_matches_heap(n: usize, seeds: &[(usize, u64)], steps: u32) {
        let mut frontier = FrontierQueue::default();
        frontier.reset(n);
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        for &(component, deadline) in seeds {
            frontier.seed(component, Time::new(deadline));
            heap.push(Reverse((Time::new(deadline), component)));
        }
        frontier.rebuild();
        let mut tick = 0u64;
        for step in 0..steps {
            let expected = heap.pop().map(|Reverse(pair)| pair);
            let got = frontier.pop();
            assert_eq!(got, expected, "step {step} of n={n}");
            let Some((deadline, component)) = got else {
                break;
            };
            // A deterministic mix of "advance this component" and "let it
            // drop out, then re-enter later" keeps arbitrary slots cycling
            // between live and exhausted.
            tick += 1;
            if !tick.is_multiple_of(3) {
                let next = deadline.saturating_add(Time::new(1 + (tick % 7)));
                frontier.push(component, next);
                heap.push(Reverse((next, component)));
            } else if tick.is_multiple_of(6) {
                let revived = (component + 1) % n;
                let next = deadline.saturating_add(Time::new(tick % 11));
                if frontier.key[revived] == EXHAUSTED {
                    frontier.push(revived, next);
                    heap.push(Reverse((next, revived)));
                }
            }
        }
    }

    #[test]
    fn frontier_queue_matches_binary_heap_pop_order() {
        assert_frontier_matches_heap(1, &[(0, 9)], 40);
        assert_frontier_matches_heap(2, &[(0, 5), (1, 5)], 64);
        assert_frontier_matches_heap(5, &[(0, 40), (2, 3), (4, 3)], 200);
        assert_frontier_matches_heap(8, &[(7, 1), (3, 2), (0, 2), (5, 9), (1, 100)], 300);
        // Odd widths exercise the half-leaf tree levels.
        assert_frontier_matches_heap(7, &[(6, 2), (5, 2), (4, 2), (3, 2), (2, 2)], 250);
    }

    #[test]
    fn frontier_queue_handles_empty_and_exhausted_states() {
        let mut frontier = FrontierQueue::default();
        frontier.reset(0);
        frontier.rebuild();
        assert_eq!(frontier.pop(), None);

        frontier.reset(3);
        frontier.rebuild();
        assert_eq!(frontier.pop(), None, "all slots exhausted");

        frontier.seed(1, Time::new(17));
        frontier.rebuild();
        assert_eq!(frontier.pop(), Some((Time::new(17), 1)));
        assert_eq!(frontier.pop(), None);
        frontier.push(2, Time::new(4));
        assert_eq!(frontier.pop(), Some((Time::new(4), 2)));
        assert_eq!(frontier.pop(), None);
    }
}

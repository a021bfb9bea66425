//! The candidate-product engine: fast exact analysis of offset-transaction
//! systems.
//!
//! The exact analysis of a [`TransactionSystem`] checks `dbf(I) ≤ I` for
//! **every combination** of per-transaction critical-instant candidates
//! (see [`crate::transactions`]), and the combination count is the product
//! of the transaction sizes — the one analysis in this crate whose cost is
//! exponential in system size.  This module attacks the product on three
//! layers:
//!
//! 1. **Shrink the product before enumerating** — *dominance pruning*
//!    ([`dominant_candidates`]).  All candidates of one transaction carry
//!    the same multiset of `(cost, relative deadline)` parts and differ
//!    only in the phases; a component's demand bound function is
//!    non-increasing in its first deadline and non-decreasing in its cost.
//!    So if the deadline-sorted component block of candidate `a` is
//!    pointwise no later and no cheaper than that of candidate `b`
//!    (`D'ₐ[m] ≤ D'ᵦ[m]` and `Cₐ[m] ≥ Cᵦ[m]` at every position `m`), then
//!    `dbf_a(I) ≥ dbf_b(I)` for every interval — every combination
//!    containing `b` is demand-dominated by the same combination with `a`
//!    substituted, and `b` can be dropped without changing the verdict of
//!    an exact test.  Transactions whose parts share release offsets (the
//!    common "burst of messages" shape) collapse to one candidate per
//!    distinct offset; symmetric parts collapse further.  A cheap
//!    per-combination *density screen* rides on top: every component
//!    satisfies `dbf(I) ≤ C·I / min(D', T)`, so a combination with
//!    `Σ C / min(D', T) ≤ 1` (evaluated exactly, in rational arithmetic)
//!    is feasible without running the exact test at all.  Since the screen
//!    also implies `U ≤ 1`, the George bound exists and an exact test
//!    would have been decisive — the screen never converts an honest
//!    `Unknown` into `Feasible` for the stock exact tests.  Pruning and
//!    the screen engage only when [`FeasibilityTest::is_exact`] holds: a
//!    merely *sufficient* test is not demand-monotone, so dominated
//!    combinations must still be examined to reproduce its verdict.
//!
//! 2. **Make each combination nearly free** — mixed-radix **Gray-code
//!    enumeration** ([`MixedRadixGray`]) visits the product so that
//!    adjacent combinations differ in exactly *one* transaction's
//!    candidate, and [`CandidateView`] exploits it: one scratch
//!    [`PreparedWorkload`] is patched per step (the changed transaction's
//!    component block only), the sporadic prefix is prepared once and
//!    shared, the cached deadline order is repaired by *merging* the
//!    re-sorted block instead of a full re-sort, the kernel columns are
//!    rebuilt in place into their existing allocations, and the §4.3
//!    QPA horizon is re-derived from folds that keep the
//!    period lcm and re-fold only the timing terms.  A candidate swap
//!    never moves a cost or a period, so the utilization and the exact
//!    `U > 1` comparison are computed once for the whole sweep.  Gray
//!    order is what makes the incremental swap *sound*: the view's state
//!    after any swap sequence is property-tested bit-identical to a cold
//!    preparation of the same combination, and because only one block
//!    moves per step the repair work per combination is `O(n)` with no
//!    allocation.
//!
//! 3. **Sweep in parallel** — [`analyze`] splits the (pruned) Gray
//!    sequence into contiguous rank ranges via Gray-code *unranking*
//!    ([`MixedRadixGray::at_rank`]), fans them out over the CPU cores
//!    through [`crate::batch::parallel_map_with`] with one view and one
//!    [`AnalysisScratch`] per worker, and stops every worker through an
//!    atomic early-exit flag as soon as any combination is infeasible (the
//!    lowest-ranked discovered witness is reported; iterations are summed
//!    over all examined combinations).
//!
//! The `candidate_equivalence` property tests pin the engine against
//! [`exhaustive_transaction_check`](crate::transactions::exhaustive_transaction_check)
//! (exact verdicts), against cold preparations of each witnessing
//! combination (genuine witnesses) and of every [`CandidateView`] swap
//! sequence (bit-identical prepared state), and the parallel sweep
//! against the serial one.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::candidates;
//! use edf_analysis::tests::QpaTest;
//! use edf_analysis::Verdict;
//! use edf_model::{TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
//!
//! # fn main() -> Result<(), edf_model::TransactionError> {
//! // Three parts, two of them released together: dominance pruning drops
//! // one of the duplicate candidates before the sweep even starts.
//! let transaction = Transaction::new(
//!     Time::new(30),
//!     vec![
//!         TransactionPart::new(Time::new(0), Time::new(3), Time::new(9)),
//!         TransactionPart::new(Time::new(0), Time::new(2), Time::new(8)),
//!         TransactionPart::new(Time::new(15), Time::new(4), Time::new(10)),
//!     ],
//! )?;
//! let system = TransactionSystem::new(TaskSet::new(), vec![transaction]);
//! let result = candidates::analyze(&QpaTest::new(), &system);
//! assert_eq!(result.analysis.verdict, Verdict::Feasible);
//! assert_eq!(result.stats.candidate_product, 3);
//! assert_eq!(result.stats.pruned_product, 2);
//! # Ok(())
//! # }
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use edf_model::{Time, Transaction, TransactionSystem};

use crate::analysis::{Analysis, FeasibilityTest, Verdict};
use crate::arith::fracs_parts_le_integer_iter;
use crate::batch::parallel_map_with;
use crate::budget::{Progress, ProgressPhase, WorkBudget};
use crate::kernel::AnalysisScratch;
use crate::transactions::{candidate_components, combination_components};
use crate::workload::{DemandComponent, PreparedWorkload};

/// Minimum pruned product before [`analyze`] bothers fanning the sweep
/// out over worker threads.
const PARALLEL_MIN_PRODUCT: u128 = 128;

/// Chunks handed out per worker thread (more than one, so an early exit in
/// one region does not leave the other workers grinding long ranges).
const CHUNKS_PER_WORKER: u128 = 4;

// ---------------------------------------------------------------------------
// Mixed-radix enumeration
// ---------------------------------------------------------------------------

/// A reflected mixed-radix Gray-code counter: every call to
/// [`MixedRadixGray::advance`] changes exactly **one** digit by ±1, and the
/// sequence visits every combination of the radices exactly once.
///
/// Digit 0 varies fastest.  Radix-1 digits are legal (they simply never
/// move), so a transaction with a single candidate needs no special
/// casing.  [`MixedRadixGray::at_rank`] *unranks* the sequence — it
/// reconstructs the digits and sweep directions at an arbitrary position —
/// which is what lets [`analyze`] hand disjoint contiguous ranges of one
/// global Gray sequence to parallel workers, each continuing delta-wise
/// from its seed.
///
/// # Examples
///
/// ```
/// use edf_analysis::candidates::MixedRadixGray;
///
/// let mut gray = MixedRadixGray::new(&[2, 3]);
/// let mut seen = vec![gray.digits().to_vec()];
/// while let Some(changed) = gray.advance() {
///     assert!(changed < 2);
///     seen.push(gray.digits().to_vec());
/// }
/// assert_eq!(seen.len(), 6);
/// seen.sort_unstable();
/// seen.dedup();
/// assert_eq!(seen.len(), 6, "every combination visited exactly once");
/// ```
#[derive(Debug, Clone)]
pub struct MixedRadixGray {
    radices: Vec<usize>,
    digits: Vec<usize>,
    /// Current sweep direction per digit (`true` = ascending).
    ascending: Vec<bool>,
    rank: u128,
    total: u128,
}

impl MixedRadixGray {
    /// Starts the sequence at rank 0 (all digits zero).
    ///
    /// # Panics
    ///
    /// Panics if any radix is zero.
    #[must_use]
    pub fn new(radices: &[usize]) -> Self {
        MixedRadixGray::at_rank(radices, 0)
    }

    /// Reconstructs the counter at position `rank` of the sequence.
    ///
    /// The reflected construction: write `rank` in the mixed radix (digit 0
    /// least significant) as `n₀, n₁, …`.  Digit `i`'s sweep reverses once
    /// per step of the counter formed by the digits above it, so its
    /// reflection parity is the parity of `Nᵢ = ⌊rank / Πⱼ≤ᵢ mⱼ⌋` — the
    /// running quotient of the radix decomposition: Gray digit `i` is `nᵢ`
    /// (sweeping upward) when `Nᵢ` is even and `mᵢ − 1 − nᵢ` (sweeping
    /// downward) when odd.  Consecutive ranks differ in one Gray digit by
    /// ±1, so iterating from any unranked seed continues the same global
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics if any radix is zero or `rank` is not below the product of
    /// the radices.
    #[must_use]
    pub fn at_rank(radices: &[usize], rank: u128) -> Self {
        assert!(
            radices.iter().all(|&m| m >= 1),
            "every radix must be positive"
        );
        let total = radices
            .iter()
            .fold(1u128, |acc, &m| acc.saturating_mul(m as u128));
        assert!(rank < total, "rank must be below the radix product");
        let mut digits = vec![0usize; radices.len()];
        let mut ascending = vec![true; radices.len()];
        let mut quotient = rank;
        for (i, &m) in radices.iter().enumerate() {
            let natural = (quotient % m as u128) as usize;
            quotient /= m as u128;
            let reflected = quotient % 2 == 1;
            digits[i] = if reflected { m - 1 - natural } else { natural };
            ascending[i] = !reflected;
        }
        MixedRadixGray {
            radices: radices.to_vec(),
            digits,
            ascending,
            rank,
            total,
        }
    }

    /// The current combination.
    #[must_use]
    pub fn digits(&self) -> &[usize] {
        &self.digits
    }

    /// Position of the current combination within the sequence.
    #[must_use]
    pub fn rank(&self) -> u128 {
        self.rank
    }

    /// Product of the radices (the sequence length), saturating at
    /// `u128::MAX`.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Steps to the next combination, returning the index of the single
    /// digit that changed (by ±1), or `None` after the last combination.
    ///
    /// In place and allocation-free: the lowest digit that can still move
    /// in its sweep direction moves, and all lower digits (which sit at
    /// their extremes) reverse direction.
    pub fn advance(&mut self) -> Option<usize> {
        for j in 0..self.digits.len() {
            let up = self.ascending[j];
            let movable = if up {
                self.digits[j] + 1 < self.radices[j]
            } else {
                self.digits[j] > 0
            };
            if movable {
                if up {
                    self.digits[j] += 1;
                } else {
                    self.digits[j] -= 1;
                }
                for lower in self.ascending[..j].iter_mut() {
                    *lower = !*lower;
                }
                self.rank += 1;
                return Some(j);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Dominance pruning and the density screen
// ---------------------------------------------------------------------------

/// The critical-instant candidates of `transaction` that survive dominance
/// pruning, as ascending original candidate indices (never empty).
///
/// Candidate `a` *dominates* candidate `b` when, after sorting both
/// component blocks by `(first deadline, cost)`, every position of `a` has
/// a deadline no later and a cost no smaller than the same position of
/// `b`: the positionwise pairing then witnesses `dbf_a(I) ≥ dbf_b(I)` for
/// every `I` (a component's demand is non-increasing in its first deadline
/// and non-decreasing in its cost, with costs and the shared period fixed
/// across candidates).  Substituting `a` for `b` in any combination can
/// therefore only raise the demand, so an **exact** test's verdict over
/// the pruned product equals its verdict over the full product:
/// feasibility of all kept combinations implies feasibility of all dropped
/// ones, and any violation found is genuine.  Candidates with identical
/// blocks (duplicate release offsets) keep only the lowest index.
///
/// Keeping a *superset* of the necessary candidates is always sound, so
/// the quadratic strict-dominance filter is applied only while the
/// deduplicated candidate set is small (≤ 64); for very wide transactions
/// only the near-linear duplicate collapse runs, keeping the pruning
/// pre-pass asymptotically cheaper than the sweep it shortens.
#[must_use]
pub fn dominant_candidates(transaction: &Transaction) -> Vec<usize> {
    let count = transaction.candidate_count();
    let parts = transaction.parts();
    let keys: Vec<Vec<(Time, Time)>> = (0..count)
        .map(|candidate| {
            let mut block: Vec<(Time, Time)> = parts
                .iter()
                .enumerate()
                .map(|(part, p)| {
                    (
                        transaction
                            .candidate_phase(candidate, part)
                            .saturating_add(p.deadline()),
                        p.wcet(),
                    )
                })
                .collect();
            block.sort_unstable();
            block
        })
        .collect();
    // First collapse exact duplicates (the overwhelmingly common win —
    // parts sharing a release offset anchor identical blocks) in
    // `O(p² log p)`: sort candidate indices by block, keep the lowest
    // index of each run.  Keeping *more* candidates than strictly
    // necessary is always sound, so the quadratic strict-dominance filter
    // below is applied only while the deduplicated set is small; past the
    // threshold its `O(c²·p)` cost would rival the sweep it prunes.
    let mut by_block: Vec<usize> = (0..count).collect();
    by_block.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    let mut kept: Vec<usize> = Vec::with_capacity(count);
    for (position, &candidate) in by_block.iter().enumerate() {
        if position == 0 || keys[by_block[position - 1]] != keys[candidate] {
            kept.push(candidate);
        }
    }
    kept.sort_unstable();
    const STRICT_DOMINANCE_MAX_CANDIDATES: usize = 64;
    if kept.len() > STRICT_DOMINANCE_MAX_CANDIDATES {
        return kept;
    }
    let dominates = |a: &[(Time, Time)], b: &[(Time, Time)]| {
        a.iter()
            .zip(b)
            .all(|(&(da, ca), &(db, cb))| da <= db && ca >= cb)
    };
    kept.iter()
        .copied()
        .filter(|&candidate| {
            !kept
                .iter()
                .any(|&other| other != candidate && dominates(&keys[other], &keys[candidate]))
        })
        .collect()
}

/// The per-component capacity denominator of the density screen:
/// `min(D', T)` for periodic components, `D'` for one-shots.
fn screen_denominator(component: &DemandComponent) -> Time {
    match component.period() {
        Some(period) => period.min(component.first_deadline()),
        None => component.first_deadline(),
    }
}

/// The cheap per-combination screen: `true` proves the combination
/// feasible without the exact test.
///
/// Every periodic component satisfies `dbf(I) ≤ C·I / min(D', T)` (for
/// `D' < T` there are at most `(I − D')/T + 1 ≤ I/D'` jobs in `I`; for
/// `D' ≥ T` at most `I/T`) and every one-shot satisfies `dbf(I) ≤ C·I/D'`,
/// so `Σ C / min(D', T) ≤ 1` — evaluated **exactly** with the crate's
/// rational arithmetic — implies `dbf(I) ≤ I` everywhere.  Components with
/// a zero first deadline fail the screen conservatively.
fn density_screen_feasible(components: &[DemandComponent]) -> bool {
    if components.iter().any(|c| screen_denominator(c).is_zero()) {
        return false;
    }
    // Pre-divide in 64-bit (costs and deadlines are `Time`s, so the
    // quotients fit) — the screen runs on *every* combination and a
    // 128-bit division per term would rival the work it saves.
    fracs_parts_le_integer_iter(
        components.iter().map(|c| {
            let num = c.wcet().as_u64();
            let den = screen_denominator(c).as_u64();
            (
                u128::from(num / den),
                u128::from(num % den),
                u128::from(den),
            )
        }),
        1,
    )
}

// ---------------------------------------------------------------------------
// The incremental candidate view
// ---------------------------------------------------------------------------

/// One pre-built candidate block of one transaction: the components in
/// part order plus their in-block ascending-deadline permutation.
#[derive(Debug)]
struct CandidateBlock {
    components: Vec<DemandComponent>,
    /// In-block positions sorted by `(first deadline, position)` — merged
    /// into the global deadline order when this candidate is selected.
    sorted: Vec<u32>,
}

/// The component layout of one transaction inside the combination vector,
/// with every candidate's block pre-computed.
#[derive(Debug)]
struct TransactionSlot {
    start: usize,
    len: usize,
    candidates: Vec<CandidateBlock>,
}

impl TransactionSlot {
    fn contains(&self, index: usize) -> bool {
        index >= self.start && index < self.start + self.len
    }
}

/// A re-phasable view of a transaction system's candidate combinations:
/// one scratch [`PreparedWorkload`], patched in place per
/// [`CandidateView::set_candidate`] swap, sharing everything that is
/// invariant across the product.
///
/// The sibling of [`ScaledView`](crate::incremental::ScaledView), but for
/// *timing* perturbations instead of cost perturbations: a candidate swap
/// rewrites one transaction's offsets and first deadlines while costs and
/// periods stay put.  Consequently the component allocation, the sporadic
/// prefix, the utilization and the exact `U > 1` comparison are shared
/// across the whole sweep, and so are the scratch preparation's period
/// reciprocals, which no swap touches; the deadline order is repaired by
/// merging the swapped block's pre-sorted run into the unchanged
/// remainder (`O(n)`, not a re-sort) and handed back to the scratch,
/// which refolds its own folds (keeping the period lcm), rebuilds the
/// kernel columns in place from the order and the reciprocals, and
/// re-derives the §4.3 QPA horizon on first read, on the one path every
/// preparation uses (see [`crate::bounds`]).  The view holds no copy of
/// any of it.  The repaired order is installed on the same path as an
/// [`EditView`](crate::incremental::EditView) finalize; the view is not an
/// `EditView` itself, whose per-edit order repair the sweep would pay even
/// on the combinations the density screen decides.
///
/// Swaps are *lazy*: consecutive [`CandidateView::set_candidate`] calls
/// only patch the component vector, and the order/kernel/horizon repair
/// runs once inside [`CandidateView::prepared`] — so a combination decided
/// by the density screen (which reads only
/// [`CandidateView::components`]) never pays for state it does not use.
/// The prepared state after any swap sequence is bit-identical to a cold
/// [`PreparedWorkload`] of the same combination (property-tested in
/// `candidate_equivalence`).
///
/// # Examples
///
/// ```
/// use edf_analysis::candidates::CandidateView;
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
///
/// # fn main() -> Result<(), edf_model::TransactionError> {
/// let transaction = Transaction::new(
///     Time::new(20),
///     vec![
///         TransactionPart::new(Time::new(0), Time::new(4), Time::new(4)),
///         TransactionPart::new(Time::new(10), Time::new(4), Time::new(4)),
///     ],
/// )?;
/// let system = TransactionSystem::new(TaskSet::new(), vec![transaction]);
/// let mut view = CandidateView::new(&system);
/// let test = ProcessorDemandTest::new();
/// for candidate in [0, 1, 0] {
///     view.set_candidate(0, candidate);
///     assert!(test.analyze_prepared(view.prepared()).is_feasible());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CandidateView {
    slots: Vec<TransactionSlot>,
    scratch: PreparedWorkload,
    choice: Vec<usize>,
    /// Transactions patched since the last finalize.
    dirty: Vec<usize>,
    /// Reused repair buffers (previous order minus dirty blocks; the dirty
    /// blocks' merged run).
    order_rest: Vec<usize>,
    merge_buf: Vec<usize>,
}

impl CandidateView {
    /// Builds the view over `system`, positioned at candidate 0 of every
    /// transaction with its prepared state finalized.
    #[must_use]
    pub fn new(system: &TransactionSystem) -> Self {
        let transactions = system.transactions();
        let choice = vec![0usize; transactions.len()];
        let scratch = PreparedWorkload::from_components(combination_components(system, &choice));
        let mut slots = Vec::with_capacity(transactions.len());
        let mut start =
            scratch.components().len() - transactions.iter().map(Transaction::len).sum::<usize>();
        for transaction in transactions {
            let candidates = (0..transaction.candidate_count())
                .map(|candidate| {
                    let components = candidate_components(transaction, candidate);
                    let mut sorted: Vec<u32> = (0..components.len() as u32).collect();
                    sorted.sort_by_key(|&pos| (components[pos as usize].first_deadline(), pos));
                    CandidateBlock { components, sorted }
                })
                .collect();
            slots.push(TransactionSlot {
                start,
                len: transaction.len(),
                candidates,
            });
            start += transaction.len();
        }
        CandidateView {
            slots,
            scratch,
            choice,
            dirty: Vec::new(),
            order_rest: Vec::new(),
            merge_buf: Vec::new(),
        }
    }

    /// The current candidate choice (one original candidate index per
    /// transaction).
    #[must_use]
    pub fn choice(&self) -> &[usize] {
        &self.choice
    }

    /// The component vector of the current combination — always up to
    /// date, even between [`CandidateView::set_candidate`] and
    /// [`CandidateView::prepared`] (the density screen reads this without
    /// forcing the order/kernel/horizon repair).
    #[must_use]
    pub fn components(&self) -> &[DemandComponent] {
        self.scratch.components()
    }

    /// Exact `U > 1` comparison — **combination-invariant** (candidate
    /// swaps never move a cost or period), hence readable without
    /// finalizing.
    #[must_use]
    pub fn utilization_exceeds_one(&self) -> bool {
        self.scratch.utilization_exceeds_one()
    }

    /// Swaps transaction `transaction` to candidate `candidate`, patching
    /// only that transaction's component block.  A no-op when the
    /// candidate is already selected.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_candidate(&mut self, transaction: usize, candidate: usize) {
        if self.choice[transaction] == candidate {
            return;
        }
        self.choice[transaction] = candidate;
        self.patch(transaction, candidate);
        if !self.dirty.contains(&transaction) {
            self.dirty.push(transaction);
        }
    }

    /// Writes `candidate`'s block over transaction `transaction`'s
    /// components.  A swap moves only offsets and first deadlines, never a
    /// cost or a period.
    fn patch(&mut self, transaction: usize, candidate: usize) {
        let slot = &self.slots[transaction];
        for (position, component) in slot.candidates[candidate].components.iter().enumerate() {
            let old = self
                .scratch
                .replace_component_at(slot.start + position, *component);
            debug_assert_eq!(
                (old.wcet(), old.period()),
                (component.wcet(), component.period())
            );
        }
    }

    /// The prepared state of the current combination, finalizing any
    /// pending swaps (order merge-repair, in-place kernel rebuild, horizon
    /// refresh).  Observably identical to a cold
    /// `PreparedWorkload::from_components` of the same combination.
    pub fn prepared(&mut self) -> &PreparedWorkload {
        if !self.dirty.is_empty() {
            self.finalize();
        }
        &self.scratch
    }

    /// Repairs the derived state after one or more block swaps: the dirty
    /// blocks' indices are dropped from the previous deadline order (their
    /// relative order among the untouched components is still valid) and
    /// the blocks' pre-sorted runs are merged back in by
    /// `(first deadline, index)` — reproducing a stable full sort in
    /// `O(n)` — before the kernel columns and the §4.3 QPA horizon are refreshed.
    fn finalize(&mut self) {
        self.merge_buf.clear();
        for &transaction in &self.dirty {
            let slot = &self.slots[transaction];
            let block = &slot.candidates[self.choice[transaction]];
            self.merge_buf
                .extend(block.sorted.iter().map(|&pos| slot.start + pos as usize));
        }
        let mut order = self.scratch.take_deadline_order();
        {
            let components = self.scratch.components();
            if self.dirty.len() > 1 {
                self.merge_buf
                    .sort_by_key(|&i| (components[i].first_deadline(), i));
            }
            let slots = &self.slots;
            let dirty = &self.dirty;
            self.order_rest.clear();
            self.order_rest.extend(
                order
                    .iter()
                    .copied()
                    .filter(|&i| !dirty.iter().any(|&tr| slots[tr].contains(i))),
            );
            order.clear();
            let key = |i: usize| (components[i].first_deadline(), i);
            let (rest, fresh) = (&self.order_rest, &self.merge_buf);
            let (mut r, mut f) = (0, 0);
            while r < rest.len() && f < fresh.len() {
                if key(rest[r]) <= key(fresh[f]) {
                    order.push(rest[r]);
                    r += 1;
                } else {
                    order.push(fresh[f]);
                    f += 1;
                }
            }
            order.extend_from_slice(&rest[r..]);
            order.extend_from_slice(&fresh[f..]);
        }
        // No swap moves a period: the scratch refolds its folds, keeping
        // the period lcm, and rebuilds the kernel from its reciprocals.
        self.scratch.install_edited_state(order, None);
        self.dirty.clear();
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Work accounting of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Full candidate product of the system (saturating at `u128::MAX`).
    pub candidate_product: u128,
    /// Product remaining after dominance pruning.
    pub pruned_product: u128,
    /// Combinations actually visited (early exit and pruning make this
    /// less than the full product).
    pub combinations_examined: u64,
    /// Visited combinations decided by the density screen alone.
    pub combinations_screened: u64,
}

/// Result of a candidate-engine run: the combined [`Analysis`] plus the
/// witnessing combination and the work accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAnalysis {
    /// The combined analysis (semantics of
    /// [`crate::transactions::analyze_transaction_system`]: infeasible on
    /// the first violated combination, unknown if any combination was
    /// inconclusive, iterations summed over the examined combinations;
    /// a screen-decided combination counts as one iteration).
    pub analysis: Analysis,
    /// The candidate combination (original candidate indices, one per
    /// transaction) whose analysis produced the infeasibility witness;
    /// `None` unless the verdict is infeasible.
    pub witness_choice: Option<Vec<usize>>,
    /// Work accounting.
    pub stats: EngineStats,
}

/// Outcome of one contiguous Gray-rank range.
struct ChunkOutcome {
    iterations: u64,
    max_examined: Option<Time>,
    all_decisive: bool,
    examined: u64,
    screened: u64,
    /// `(global rank, analysis, original candidate choice)` of the first
    /// infeasible combination found in this range.
    infeasible: Option<(u128, Analysis, Vec<usize>)>,
    /// The sweep's [`WorkBudget`] ran out before the range was covered.
    exhausted: bool,
}

/// The shared read-only context of one sweep.
struct Sweep<'a, T: ?Sized> {
    test: &'a T,
    /// Kept (pruned) candidate indices per transaction.
    kept: &'a [Vec<usize>],
    /// Radices of the pruned product (`kept[i].len()`).
    radices: &'a [usize],
    stop: &'a AtomicBool,
    /// Run the density screen first (exact tests only).
    screen: bool,
}

impl<T: FeasibilityTest + ?Sized> Sweep<'_, T> {
    /// Sweeps Gray ranks `start..end`, seeding the view by unranking.
    fn run(
        &self,
        view: &mut CandidateView,
        scratch: &mut AnalysisScratch,
        start: u128,
        end: u128,
    ) -> ChunkOutcome {
        let mut out = ChunkOutcome {
            iterations: 0,
            max_examined: None,
            all_decisive: true,
            examined: 0,
            screened: 0,
            infeasible: None,
            exhausted: false,
        };
        let mut gray = MixedRadixGray::at_rank(self.radices, start);
        for (transaction, &digit) in gray.digits().iter().enumerate() {
            view.set_candidate(transaction, self.kept[transaction][digit]);
        }
        let mut rank = start;
        while rank < end && !self.stop.load(Ordering::Relaxed) {
            // One work unit per candidate combination, charged against
            // the scratch's budget; the inner analysis meters its own
            // demand-walk/refinement units against the same budget
            // through the shared scratch.
            let mut budget = scratch.budget();
            let admitted = budget.charge(1);
            scratch.set_budget(budget);
            if !admitted {
                out.exhausted = true;
                out.all_decisive = false;
                break;
            }
            out.examined += 1;
            if self.screen && density_screen_feasible(view.components()) {
                out.screened += 1;
                out.iterations = out.iterations.saturating_add(1);
            } else {
                let analysis = self.test.analyze_prepared_with(view.prepared(), scratch);
                out.iterations = out.iterations.saturating_add(analysis.iterations);
                out.max_examined = out.max_examined.max(analysis.max_examined_interval);
                match analysis.verdict {
                    Verdict::Infeasible => {
                        out.infeasible = Some((rank, analysis, view.choice().to_vec()));
                        self.stop.store(true, Ordering::Relaxed);
                        break;
                    }
                    Verdict::Unknown => {
                        out.all_decisive = false;
                        if analysis.budget_exhausted() {
                            out.exhausted = true;
                            break;
                        }
                    }
                    Verdict::Feasible => {}
                }
            }
            rank += 1;
            if rank < end {
                let changed = gray.advance().expect("rank below the pruned product");
                view.set_candidate(changed, self.kept[changed][gray.digits()[changed]]);
            }
        }
        out
    }
}

/// Runs `test` on the candidate combinations of `system` through the full
/// engine: dominance pruning and the density screen (both for exact tests
/// only), Gray-code incremental swaps, and — on more than one CPU, for a
/// pruned product of at least 128 and `U ≤ 1` — the parallel early-exit
/// sweep.
///
/// Exact verdicts equal the
/// [`exhaustive_transaction_check`](crate::transactions::exhaustive_transaction_check)
/// oracle's — asserted by the `candidate_equivalence` property suite — and
/// the reported witness is genuine: re-analyzing
/// [`CandidateAnalysis::witness_choice`] from scratch reproduces the
/// overload bit for bit.
#[must_use]
pub fn analyze(
    test: &(impl FeasibilityTest + Sync + ?Sized),
    system: &TransactionSystem,
) -> CandidateAnalysis {
    analyze_budgeted(test, system, &mut WorkBudget::unlimited())
}

/// [`analyze`] under a [`WorkBudget`]: every candidate combination
/// charges one work unit, and the per-combination analyses meter their
/// own loop units against the same budget.  Exhaustion unwinds to an
/// honest [`Verdict::Unknown`] carrying a [`Progress`] record
/// ([`ProgressPhase::CandidateSweep`]); an infeasibility witness found
/// before the budget ran out is still reported (it is exact regardless
/// of what was left unexamined).
///
/// A **limited** budget forces the serial sweep: exhaustion must cut the
/// sweep at a deterministic combination, and the racy early-exit of the
/// parallel sweep cannot guarantee that.  An unlimited budget sweeps as
/// [`analyze`] does.
#[must_use]
pub fn analyze_budgeted(
    test: &(impl FeasibilityTest + Sync + ?Sized),
    system: &TransactionSystem,
    budget: &mut WorkBudget,
) -> CandidateAnalysis {
    let exact = test.is_exact();
    let kept: Vec<Vec<usize>> = system
        .transactions()
        .iter()
        .map(|transaction| {
            if exact {
                dominant_candidates(transaction)
            } else {
                (0..transaction.candidate_count()).collect()
            }
        })
        .collect();
    let radices: Vec<usize> = kept.iter().map(Vec::len).collect();
    let candidate_product = system.transactions().iter().fold(1u128, |acc, t| {
        acc.saturating_mul(t.candidate_count() as u128)
    });
    let pruned_product = radices
        .iter()
        .fold(1u128, |acc, &r| acc.saturating_mul(r as u128));
    let sweep = Sweep {
        test,
        kept: &kept,
        radices: &radices,
        stop: &AtomicBool::new(false),
        screen: exact,
    };

    let workers = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1) as u128;
    // One view is always needed; its combination-invariant `U > 1` flag
    // also decides the dispatch (an overloaded system is rejected by the
    // test at the very first combination — never worth the parallel
    // spin-up).
    let mut first_view = CandidateView::new(system);
    let limited = budget.limit() != u64::MAX;
    let outcomes: Vec<ChunkOutcome> = if limited
        || workers <= 1
        || pruned_product < PARALLEL_MIN_PRODUCT
        || first_view.utilization_exceeds_one()
    {
        let mut scratch = AnalysisScratch::new();
        scratch.set_budget(*budget);
        let outcome = sweep.run(&mut first_view, &mut scratch, 0, pruned_product);
        *budget = scratch.take_budget();
        vec![outcome]
    } else {
        drop(first_view);
        let chunk_count = (workers * CHUNKS_PER_WORKER).min(pruned_product);
        let chunk_len = pruned_product.div_ceil(chunk_count);
        let ranges: Vec<(u128, u128)> = (0..chunk_count)
            .map(|i| {
                let start = i * chunk_len;
                (start, (start + chunk_len).min(pruned_product))
            })
            .filter(|&(start, end)| start < end)
            .collect();
        parallel_map_with(
            &ranges,
            || (CandidateView::new(system), AnalysisScratch::new()),
            |(view, scratch), &(start, end)| sweep.run(view, scratch, start, end),
        )
    };

    let mut stats = EngineStats {
        candidate_product,
        pruned_product,
        ..EngineStats::default()
    };
    let mut iterations: u64 = 0;
    let mut max_examined: Option<Time> = None;
    let mut all_decisive = true;
    let mut exhausted = false;
    let mut witness: Option<(u128, Analysis, Vec<usize>)> = None;
    for outcome in outcomes {
        iterations = iterations.saturating_add(outcome.iterations);
        max_examined = max_examined.max(outcome.max_examined);
        all_decisive &= outcome.all_decisive;
        exhausted |= outcome.exhausted;
        stats.combinations_examined += outcome.examined;
        stats.combinations_screened += outcome.screened;
        if let Some(found) = outcome.infeasible {
            if witness.as_ref().is_none_or(|best| found.0 < best.0) {
                witness = Some(found);
            }
        }
    }
    match witness {
        Some((_, found, choice)) => CandidateAnalysis {
            analysis: Analysis {
                verdict: Verdict::Infeasible,
                iterations,
                max_examined_interval: max_examined,
                overload: found.overload,
                progress: None,
            },
            witness_choice: Some(choice),
            stats,
        },
        None => CandidateAnalysis {
            analysis: Analysis {
                verdict: if all_decisive {
                    Verdict::Feasible
                } else {
                    Verdict::Unknown
                },
                iterations,
                max_examined_interval: max_examined,
                overload: None,
                progress: exhausted.then(|| Progress {
                    units_spent: budget.spent(),
                    phase: ProgressPhase::CandidateSweep,
                    certified_interval: None,
                }),
            },
            witness_choice: None,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::FeasibilityBounds;
    use crate::tests::{DeviTest, ProcessorDemandTest, QpaTest};
    use edf_model::{Task, TaskSet, TransactionPart};

    fn part(o: u64, c: u64, d: u64) -> TransactionPart {
        TransactionPart::new(Time::new(o), Time::new(c), Time::new(d))
    }

    fn tr(period: u64, parts: Vec<TransactionPart>) -> Transaction {
        Transaction::new(Time::new(period), parts).expect("valid transaction")
    }

    #[test]
    fn gray_sequence_covers_the_product_with_unit_steps() {
        for radices in [
            vec![1usize],
            vec![2, 3],
            vec![3, 1, 2],
            vec![1, 1, 1],
            vec![4, 2, 3, 2],
        ] {
            let product: usize = radices.iter().product();
            let mut gray = MixedRadixGray::new(&radices);
            assert_eq!(gray.total(), product as u128);
            let mut seen = vec![gray.digits().to_vec()];
            while let Some(changed) = gray.advance() {
                let previous = seen.last().unwrap().clone();
                let current = gray.digits().to_vec();
                let diffs: Vec<usize> = (0..radices.len())
                    .filter(|&i| previous[i] != current[i])
                    .collect();
                assert_eq!(diffs, vec![changed], "exactly one digit changes");
                assert_eq!(
                    previous[changed].abs_diff(current[changed]),
                    1,
                    "the changed digit moves by one"
                );
                seen.push(current);
            }
            assert_eq!(gray.rank(), product as u128 - 1);
            assert_eq!(seen.len(), product);
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), product, "no combination repeats");
        }
    }

    #[test]
    fn gray_unranking_continues_the_global_sequence() {
        let radices = vec![3usize, 2, 4];
        let mut gray = MixedRadixGray::new(&radices);
        let mut full = vec![gray.digits().to_vec()];
        while gray.advance().is_some() {
            full.push(gray.digits().to_vec());
        }
        for start in 0..full.len() {
            let mut seeded = MixedRadixGray::at_rank(&radices, start as u128);
            assert_eq!(seeded.digits(), full[start].as_slice(), "seed at {start}");
            let mut walked = vec![seeded.digits().to_vec()];
            while seeded.advance().is_some() {
                walked.push(seeded.digits().to_vec());
            }
            assert_eq!(walked.as_slice(), &full[start..], "suffix from {start}");
        }
    }

    #[test]
    #[should_panic]
    fn gray_rejects_out_of_range_ranks() {
        let _ = MixedRadixGray::at_rank(&[2, 2], 4);
    }

    #[test]
    fn duplicate_offsets_are_pruned_to_one_candidate() {
        let transaction = tr(30, vec![part(0, 3, 9), part(0, 2, 8), part(15, 4, 10)]);
        assert_eq!(dominant_candidates(&transaction), vec![0, 2]);
        // All parts released together: the classic burst collapses to one
        // candidate.
        let burst = tr(30, vec![part(5, 1, 4), part(5, 2, 9), part(5, 3, 12)]);
        assert_eq!(dominant_candidates(&burst), vec![0]);
        // Symmetric parts: identical (C, D) spaced half a period apart
        // yield identical sorted blocks.
        let symmetric = tr(20, vec![part(0, 2, 5), part(10, 2, 5)]);
        assert_eq!(dominant_candidates(&symmetric), vec![0]);
        // Distinct offsets with asymmetric parts keep every candidate.
        let distinct = tr(20, vec![part(0, 2, 5), part(7, 3, 9)]);
        assert_eq!(dominant_candidates(&distinct), vec![0, 1]);
    }

    #[test]
    fn density_screen_is_exact_on_the_boundary() {
        // Σ C/min(D', T) == 1 exactly: the screen must accept.
        let boundary = vec![
            DemandComponent::periodic(Time::new(1), Time::new(2), Time::new(4)),
            DemandComponent::periodic(Time::new(1), Time::new(2), Time::new(4)),
        ];
        assert!(density_screen_feasible(&boundary));
        // One tick more and it must refuse.
        let over = vec![
            DemandComponent::periodic(Time::new(1), Time::new(2), Time::new(4)),
            DemandComponent::periodic(Time::new(2), Time::new(3), Time::new(4)),
        ];
        assert!(!density_screen_feasible(&over));
        // Zero-deadline components are refused conservatively.
        let degenerate = vec![DemandComponent::one_shot(
            Time::new(1),
            Time::ZERO,
            Time::ZERO,
        )];
        assert!(!density_screen_feasible(&degenerate));
    }

    #[test]
    fn view_swaps_match_cold_preparations() {
        let system = TransactionSystem::new(
            TaskSet::from_tasks(vec![Task::from_ticks(1, 5, 10).unwrap()]),
            vec![
                tr(12, vec![part(0, 2, 6), part(6, 2, 6)]),
                tr(15, vec![part(2, 1, 3), part(9, 2, 5), part(11, 1, 4)]),
            ],
        );
        let mut view = CandidateView::new(&system);
        let swaps = [(0, 1), (1, 2), (1, 0), (0, 0), (1, 1), (0, 1), (1, 2)];
        let mut choice = vec![0usize, 0];
        for (transaction, candidate) in swaps {
            choice[transaction] = candidate;
            view.set_candidate(transaction, candidate);
            let cold = PreparedWorkload::from_components(combination_components(&system, &choice));
            let probed = view.prepared();
            assert_eq!(probed.components(), cold.components());
            assert_eq!(probed.deadline_order(), cold.deadline_order());
            assert_eq!(
                probed.analysis_horizon(),
                FeasibilityBounds::for_components(cold.components()).analysis_horizon()
            );
            assert_eq!(
                probed.qpa_horizon(),
                FeasibilityBounds::for_components(cold.components()).qpa_horizon()
            );
            assert_eq!(probed.utilization().to_bits(), cold.utilization().to_bits());
            for test in [
                Box::new(ProcessorDemandTest::new()) as crate::BoxedTest,
                Box::new(QpaTest::new()),
            ] {
                assert_eq!(
                    test.analyze_prepared(probed),
                    test.analyze_prepared(&cold),
                    "{} diverges after swap ({transaction}, {candidate})",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn lazy_swaps_coalesce_across_screened_combinations() {
        // Two consecutive swaps without an intervening prepared() call:
        // the finalize must repair both blocks at once.
        let system = TransactionSystem::new(
            TaskSet::new(),
            vec![
                tr(10, vec![part(0, 2, 4), part(5, 2, 4)]),
                tr(15, vec![part(2, 1, 3), part(9, 2, 5)]),
            ],
        );
        let mut view = CandidateView::new(&system);
        view.set_candidate(0, 1);
        view.set_candidate(1, 1);
        let cold = PreparedWorkload::from_components(combination_components(&system, &[1, 1]));
        let probed = view.prepared();
        assert_eq!(probed.components(), cold.components());
        assert_eq!(probed.deadline_order(), cold.deadline_order());
        assert_eq!(
            probed.analysis_horizon(),
            FeasibilityBounds::for_components(cold.components()).analysis_horizon()
        );
        assert_eq!(
            probed.qpa_horizon(),
            FeasibilityBounds::for_components(cold.components()).qpa_horizon()
        );
    }

    #[test]
    fn screen_skips_exact_tests_but_never_sufficient_ones() {
        let system = TransactionSystem::new(
            TaskSet::new(),
            vec![tr(
                40,
                vec![part(0, 1, 20), part(13, 1, 20), part(27, 1, 20)],
            )],
        );
        let exact = analyze(&QpaTest::new(), &system);
        assert_eq!(exact.analysis.verdict, Verdict::Feasible);
        assert_eq!(
            exact.stats.combinations_screened, exact.stats.combinations_examined,
            "a low-density system is decided entirely by the screen"
        );
        let sufficient = analyze(&DeviTest::new(), &system);
        assert_eq!(sufficient.stats.combinations_screened, 0);
        assert_eq!(
            sufficient.stats.pruned_product, sufficient.stats.candidate_product,
            "pruning is withheld from sufficient tests"
        );
    }
}

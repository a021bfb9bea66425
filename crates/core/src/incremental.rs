//! Incremental re-analysis: prepared-workload views mutated in place.
//!
//! The point of the paper is an exact feasibility test cheap enough to run
//! *inside a search loop* — and a search loop perturbs one workload over
//! and over.  Re-running [`PreparedWorkload::new`] (or
//! [`PreparedWorkload::with_scaled_wcets`]) per probe throws away state
//! that the probe does not move: the component and kernel-column
//! allocations, the deadline order and the period reciprocals.
//!
//! That state is the [`PreparedWorkload`]'s own: every view edits one
//! scratch preparation through its crate-internal primitives, which keep
//! the period reciprocals in step, and hands the repaired deadline order
//! back at finalize, where the preparation refreshes its folds and kernel
//! columns itself.  No view keeps a copy.  [`EditView`] carries its
//! scratch across structural edits (insert, remove, replace) and repairs
//! the rest at finalize.  [`ScaledView`] is the
//! sensitivity searches' face of it: a probe —
//! [`ScaledView::scale_wcets`] (uniform scaling, breakdown searches) or
//! [`ScaledView::with_component_wcet`] (one perturbed component, slack
//! searches) — replaces each component whose cost it changes.  A cost
//! edit moves no deadline and no period, so it skips the order repair and
//! keeps the reciprocal, and the finalize keeps the period lcm.  Every probe
//! returns an ordinary [`&PreparedWorkload`](PreparedWorkload) whose
//! observable state is **bit-identical** to a from-scratch preparation of
//! the same components, so every
//! [`FeasibilityTest`](crate::FeasibilityTest) runs on a view unchanged.
//! [`crate::sensitivity`] is built on top of this module.
//!
//! # The view family
//!
//! Every view mutates one scratch preparation in place and installs the
//! repaired deadline order through the same crate-internal path, where
//! the preparation derives its folds, `U > 1` decision and kernel columns
//! from its own stored state:
//!
//! | view | may mutate | order repair | folds at finalize | refresh cost |
//! |------|-----------|--------------|-------------------|--------------|
//! | [`ScaledView`] | WCETs only | none ([`EditView`] replaces that keep deadlines and periods) | the stored folds refolded (period lcm kept) | `O(n)` |
//! | [`CandidateView`](crate::candidates::CandidateView) | one transaction's offsets/deadlines | merge of the swapped blocks' pre-sorted runs | the stored folds refolded (period lcm kept) | `O(n)` |
//! | [`EditView`] | the component **set** (insert/remove/replace) | per-edit binary insertion/removal | the committed folds extended by the appended components; after a remove or replace the stored folds refolded, or a full fold once a period moved | `O(log n)` per edit + `O(n)` per finalize (kernel), `O(1)` aggregate work per appended component |
//!
//! Every finalize rebuilds the kernel columns into their allocations and
//! resets both horizons: the QPA horizon is re-derived from the folds on
//! its first read, and the busy-period fix-point behind the tightest
//! [analysis horizon](PreparedWorkload::analysis_horizon) runs lazily,
//! once per refresh, for the tests that read it.
//!
//! Each view hands its prepared state to the tests as an ordinary
//! [`&PreparedWorkload`](PreparedWorkload), through
//! [`FeasibilityTest::analyze_prepared_with`](crate::FeasibilityTest::analyze_prepared_with).
//! [`EditView`] is the admission-control member: a long-running service
//! holds one per tenant and answers admit / evict / what-if requests
//! through structural edits plus delta re-analysis instead of cold
//! preparation (see the `edf-serve` crate).  Its rollback and poison
//! hooks form the [`WorkloadView`] trait.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::incremental::ScaledView;
//! use edf_analysis::tests::AllApproximatedTest;
//! use edf_analysis::workload::PreparedWorkload;
//! use edf_analysis::FeasibilityTest;
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(7), Time::new(10))?,
//!     Task::new(Time::new(3), Time::new(9), Time::new(25))?,
//! ]);
//! let base = PreparedWorkload::new(&ts);
//! let mut view = ScaledView::new(&base);
//! let test = AllApproximatedTest::new();
//! // Probe a range of uniform scalings without re-preparing anything.
//! for numer in [500u64, 1_000, 2_000, 3_000] {
//!     let scaled = view.scale_wcets(numer, 1_000);
//!     let _ = test.analyze_prepared(scaled);
//! }
//! # Ok(())
//! # }
//! ```

use edf_model::Time;

use crate::bounds::ComponentFolds;
use crate::workload::{DemandComponent, PreparedWorkload};

/// The rollback and poison hooks of an [`EditView`], the methods the
/// admission service calls on a tenant's view.
pub trait WorkloadView {
    /// Discards the edits since the last [`EditView::commit`], returning
    /// the view to that commit point.
    fn revert(&mut self);

    /// `true` once the view has been [poisoned](WorkloadView::mark_poisoned):
    /// a panic unwound through a mutation or an analysis of this view, so
    /// its scratch state can no longer be trusted and must be rebuilt from
    /// a known-good source before further use.
    fn is_poisoned(&self) -> bool;

    /// Marks the view poisoned (see [`WorkloadView::is_poisoned`]).  A
    /// fault-isolating caller ([`catch_unwind`](std::panic::catch_unwind)
    /// around per-request analysis) calls this when a panic unwinds while
    /// the view's scratch state may be mid-mutation; the owner then
    /// replaces the view with a fresh one built from its last committed
    /// source of truth.
    fn mark_poisoned(&mut self);
}

/// A re-costable view of a [`PreparedWorkload`]: one [`EditView`] over
/// the base.
///
/// A probe replaces each component whose cost it changes and finalizes;
/// a cost edit moves neither a deadline nor a period, so the edits skip
/// the order repair and keep the period reciprocals (see
/// [`EditView::replace_component`]) and the finalize refolds the stored
/// folds, keeping the period lcm.  See [`ScaledView::scale_wcets`] /
/// [`ScaledView::with_component_wcet`] for the probe operations.
#[derive(Debug)]
pub struct ScaledView<'a> {
    base: &'a PreparedWorkload,
    edits: EditView,
}

impl<'a> ScaledView<'a> {
    /// Creates a view over `base`: an [`EditView::new`] copy of it.
    #[must_use]
    pub fn new(base: &'a PreparedWorkload) -> Self {
        ScaledView {
            base,
            edits: EditView::new(base),
        }
    }

    /// The base workload the view scales.
    #[must_use]
    pub fn base(&self) -> &PreparedWorkload {
        self.base
    }

    /// The prepared state of the most recent probe (initially an identical
    /// copy of the base).
    #[must_use]
    pub fn prepared(&self) -> &PreparedWorkload {
        self.edits.finalized()
    }

    /// Probes a uniform scaling: every **base** cost is scaled by
    /// `numer/denom` (semantics of [`DemandComponent::scaled_wcet`] —
    /// successive probes do not compound).  Returns the refreshed prepared
    /// workload, observably identical to
    /// `base.with_scaled_wcets(numer, denom)` but without re-preparation.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn scale_wcets(&mut self, numer: u64, denom: u64) -> &PreparedWorkload {
        assert!(denom > 0, "scaling denominator must be positive");
        self.probe(|_, component| component.scaled_wcet(numer, denom))
    }

    /// Probes a single-component perturbation: every component keeps its
    /// **base** cost except `index`, which is set to `wcet` (clamped to
    /// the component's period, mirroring [`DemandComponent::scaled_wcet`];
    /// probes do not compound).  This is the `wcet_slack` workhorse.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_component_wcet(&mut self, index: usize, wcet: Time) -> &PreparedWorkload {
        assert!(
            index < self.base.components().len(),
            "component index out of range"
        );
        self.probe(|i, component| {
            if i == index {
                component.clamp_wcet(wcet)
            } else {
                component.wcet()
            }
        })
    }

    /// Gives every component the cost `wcet(index, base component)`,
    /// replacing only the components whose current cost differs, and
    /// finalizes.  The edits are then committed, so the next probe starts
    /// from this one's costs and the undo log never outgrows one probe.
    fn probe(&mut self, wcet: impl Fn(usize, &DemandComponent) -> Time) -> &PreparedWorkload {
        for (index, base) in self.base.components().iter().enumerate() {
            let wcet = wcet(index, base);
            if self.edits.components()[index].wcet() != wcet {
                let mut component = *base;
                component.set_wcet(wcet);
                self.edits.replace_component(index, component);
            }
        }
        // Finalize before the commit: with replaces in the undo log the
        // refresh refolds the previous folds (lcm kept) instead of folding
        // the committed list from scratch.
        self.edits.prepared();
        self.edits.commit();
        self.edits.finalized()
    }
}

/// The inverse of one structural edit, recorded by [`EditView`] for
/// [`EditView::revert`].
#[derive(Debug, Clone, Copy)]
enum EditOp {
    /// Undoes an [`EditView::insert_component`] (which always appends).
    RemoveLast,
    /// Undoes an [`EditView::remove_component`]: re-insert the removed
    /// component at its old index.
    InsertAt(usize, DemandComponent),
    /// Undoes an [`EditView::replace_component`]: write the old component
    /// back.
    WriteAt(usize, DemandComponent),
}

/// A structurally editable prepared workload: insert, remove or replace
/// components of one scratch [`PreparedWorkload`], with the derived state
/// repaired incrementally instead of re-prepared from cold.
///
/// The third member of the view family (see the [module
/// documentation](self)), and the one production admission control needs:
/// where [`ScaledView`] perturbs costs and
/// [`CandidateView`](crate::candidates::CandidateView) re-phases one
/// transaction, `EditView` changes the component **set** itself — the
/// admit / evict / what-if loop of a long-running service.  Unlike the
/// other two it owns its state outright (no borrow of a base workload),
/// so a service can hold thousands of them, one per tenant, indefinitely.
///
/// What is incremental about an edit:
///
/// * the **deadline order** is repaired per edit by binary
///   insertion/removal of the touched index — the degenerate (single-run)
///   case of the [`CandidateView`](crate::candidates::CandidateView)
///   merge-of-sorted-runs repair, `O(log n)` search plus one `memmove`
///   instead of a re-sort — and not at all by a replacement that keeps
///   the first deadline;
/// * the **period reciprocals** feeding the kernel columns, the bound
///   searches and the refining tests are kept in step by the scratch's
///   edit primitives: computed for an inserted component and recomputed
///   for a replacement only when its period moves (a 128-bit division
///   each; the others are kept);
/// * the **kernel columns** are rebuilt in place into their existing
///   allocations from the scratch's order and reciprocals, except at
///   `U > 1`, which every test rejects before reading demand;
/// * the **aggregates** — the `f64` utilization and George numerator, the
///   deadline extremes, the one-shot/offset/degenerate flags and the
///   period lcm — are folds of the committed components, taken from the
///   preparation the view starts from, extended at [`EditView::commit`],
///   dropped by any remove or replace and rebuilt at the next finalize
///   whose undo log holds only inserts; without
///   them, a finalize refolds the scratch's own folds, keeping the lcm,
///   unless an edit since the last finalize moved a period.  A probe's
///   finalize extends a copy of the committed folds by the appended
///   components and decides `U > 1` from the folded sum behind the
///   proven `10⁻³` screen (the exact rational check inside the margin);
/// * only the **QPA horizon** — `min(George, hyperperiod)`, all QPA
///   reads — is re-derived, on its first read after the finalize, by the
///   crate-internal `bounds::qpa_horizon`:
///   the George bound read in closed form from the folds (the
///   estimate-seeded search only where the closed form cannot certify
///   its answer) and the hyperperiod from the folded lcm.  The
///   busy-period fix-point behind the tightest
///   [analysis horizon](PreparedWorkload::analysis_horizon) runs lazily,
///   for a test that reads it (processor demand, the refining tests), and
///   the full [`FeasibilityBounds`](crate::bounds::FeasibilityBounds) of
///   an edited snapshot are computed cold on first
///   [`PreparedWorkload::bounds`] call; no service path makes either;
/// * shrinking edits (remove/replace) **reuse the column capacity** —
///   debug assertions pin that an admit/evict cycle never churns the
///   allocator (the `recycled`-style buffer-reuse contract).
///
/// Repair is *lazy*: edits only patch the component vector, its
/// reciprocals and the order, and the aggregate/kernel/bound refresh runs
/// once inside
/// [`EditView::prepared`], so a burst of edits pays for one refresh.  The
/// finalized state is **bit-identical** to a cold [`PreparedWorkload`] of
/// the same component list (property-tested in `edit_equivalence`).
///
/// Edits accumulate in an undo log until [`EditView::commit`] accepts
/// them or [`EditView::revert`] rolls them back — the admit (analyze,
/// then commit or revert by verdict) and what-if (analyze, always revert)
/// primitives of an admission service.
///
/// # Examples
///
/// ```
/// use edf_analysis::incremental::EditView;
/// use edf_analysis::tests::ProcessorDemandTest;
/// use edf_analysis::workload::{DemandComponent, PreparedWorkload};
/// use edf_analysis::FeasibilityTest;
/// use edf_model::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), edf_model::TaskError> {
/// let base = PreparedWorkload::new(&TaskSet::from_tasks(vec![
///     Task::new(Time::new(2), Time::new(7), Time::new(10))?,
/// ]));
/// let mut view = EditView::new(&base);
/// let test = ProcessorDemandTest::new();
/// // Admit a task: insert, analyze the delta, commit on acceptance.
/// view.insert_component(DemandComponent::periodic(
///     Time::new(3),
///     Time::new(9),
///     Time::new(25),
/// ));
/// if test.analyze_prepared(view.prepared()).is_feasible() {
///     view.commit();
/// } else {
///     use edf_analysis::incremental::WorkloadView;
///     view.revert();
/// }
/// assert_eq!(view.components().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EditView {
    scratch: PreparedWorkload,
    /// The [`ComponentFolds`] of the committed components (a prefix of the
    /// component vector while the undo log holds only inserts).  Taken
    /// from the scratch when the view is created, extended at
    /// [`EditView::commit`], dropped by any remove or replace and rebuilt
    /// at the next finalize whose undo log holds only inserts.
    committed_folds: Option<ComponentFolds>,
    /// The deadline order under maintenance while dirty (taken out of the
    /// scratch on the first edit, handed back at finalize); empty while
    /// clean.
    order: Vec<usize>,
    /// `true` while the scratch's derived state (aggregates, order,
    /// kernel, bounds) lags behind the component vector.
    dirty: bool,
    /// Inverses of the edits since the last [`EditView::commit`], newest
    /// last.
    undo: Vec<EditOp>,
    /// Set by [`WorkloadView::mark_poisoned`] after a panic unwound
    /// through a mutation or analysis of this view; never cleared (the
    /// owner replaces a poisoned view).
    poisoned: bool,
}

impl EditView {
    /// Creates an editable copy of `base`.  The scratch starts
    /// bit-identical: it copies the base's components and their derived
    /// state (reciprocals, folds, `U > 1` comparison, deadline order)
    /// rather than deriving them again.  A caller that owns a fresh
    /// preparation hands it over with [`EditView::from`] instead, without
    /// the copy.
    #[must_use]
    pub fn new(base: &PreparedWorkload) -> Self {
        EditView::from(PreparedWorkload::copy_of(base))
    }

    /// The current component vector — always up to date, even between an
    /// edit and the finalize (a screening heuristic can read this without
    /// forcing the refresh).
    #[must_use]
    pub fn components(&self) -> &[DemandComponent] {
        self.scratch.components()
    }

    /// Appends `component`, returning its index (stable until a
    /// [`EditView::remove_component`] of a lower index shifts it).
    pub fn insert_component(&mut self, component: DemandComponent) -> usize {
        self.begin_edit();
        let index = self.scratch.components().len();
        self.scratch.insert_component_at(index, component);
        self.order_insert_entry(index);
        self.undo.push(EditOp::RemoveLast);
        index
    }

    /// Removes and returns the component at `index`; components above it
    /// shift down by one (the deadline order is repaired in place, no
    /// re-sort).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_component(&mut self, index: usize) -> DemandComponent {
        self.begin_edit();
        self.committed_folds = None;
        self.order_remove_entry(index);
        for entry in &mut self.order {
            *entry -= usize::from(*entry > index);
        }
        let removed = self.scratch.remove_component_at(index);
        self.undo.push(EditOp::InsertAt(index, removed));
        removed
    }

    /// Replaces the component at `index` wholesale (cost, timing *and*
    /// period may change), returning the old component.  A replacement
    /// that keeps the first deadline skips the order repair; one that
    /// keeps the period keeps the period reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_component(
        &mut self,
        index: usize,
        component: DemandComponent,
    ) -> DemandComponent {
        self.committed_folds = None;
        let old = self.write_component(index, component);
        self.undo.push(EditOp::WriteAt(index, old));
        old
    }

    /// Accepts the edits since the last commit: [`EditView::revert`] can
    /// no longer roll them back.
    pub fn commit(&mut self) {
        if let Some(folds) = &mut self.committed_folds {
            folds.extend(&self.scratch.components()[folds.len()..]);
        }
        self.undo.clear();
    }

    /// The prepared state of the current component list, applying any
    /// pending repair (aggregate recomputation, order hand-back, in-place
    /// kernel rebuild, horizon refresh).  Observably identical to a
    /// cold [`PreparedWorkload`] of the same components.
    ///
    /// # Panics
    ///
    /// Panics if the view is [poisoned](WorkloadView::is_poisoned) — a
    /// poisoned scratch cannot be trusted again; replace the view with a
    /// fresh one.
    pub fn prepared(&mut self) -> &PreparedWorkload {
        assert!(
            !self.poisoned,
            "EditView is poisoned (a panic unwound mid-mutation); rebuild it from a committed base"
        );
        if self.dirty {
            self.refresh();
        }
        &self.scratch
    }

    /// The finalized prepared state, without finalizing — a shared-borrow
    /// accessor for callers that finalized the view earlier and now hold
    /// it behind `&`.
    ///
    /// # Panics
    ///
    /// Panics if the view is dirty (call [`EditView::prepared`] first).
    #[must_use]
    pub fn finalized(&self) -> &PreparedWorkload {
        assert!(
            !self.dirty,
            "EditView::finalized requires a finalized view (call prepared() first)"
        );
        &self.scratch
    }

    /// Takes the deadline order into local maintenance on the first edit
    /// of a burst.
    fn begin_edit(&mut self) {
        if !self.dirty {
            self.order = self.scratch.take_deadline_order();
            debug_assert_eq!(self.order.len(), self.scratch.components().len());
            self.dirty = true;
        }
    }

    /// Binary-inserts `index` (whose component is already written) into
    /// the maintained order by its `(first deadline, index)` key.
    fn order_insert_entry(&mut self, index: usize) {
        let components = self.scratch.components();
        let key = (components[index].first_deadline(), index);
        let position = self
            .order
            .partition_point(|&i| (components[i].first_deadline(), i) < key);
        self.order.insert(position, index);
    }

    /// Binary-removes `index` from the maintained order by its current
    /// `(first deadline, index)` key.
    fn order_remove_entry(&mut self, index: usize) {
        let components = self.scratch.components();
        let key = (components[index].first_deadline(), index);
        let position = self
            .order
            .partition_point(|&i| (components[i].first_deadline(), i) < key);
        debug_assert_eq!(self.order[position], index);
        self.order.remove(position);
    }

    /// The shared write path of [`EditView::replace_component`] and the
    /// [`EditOp::WriteAt`] rollback: the component is written (the scratch
    /// recomputes its period reciprocal only when the period moves) and
    /// the order entry moves only when the first deadline does — a cost
    /// edit touches neither.
    fn write_component(&mut self, index: usize, component: DemandComponent) -> DemandComponent {
        self.begin_edit();
        let old = self.scratch.components()[index];
        let moves = old.first_deadline() != component.first_deadline();
        if moves {
            self.order_remove_entry(index);
        }
        self.scratch.replace_component_at(index, component);
        if moves {
            self.order_insert_entry(index);
        }
        old
    }

    /// Hands the maintained order back to the scratch with the committed
    /// folds, rebuilt here after a remove or replace dropped them once the
    /// undo log holds only inserts: the scratch extends them by the appended components, or
    /// without them refolds or folds its own (each bit-identical to a cold
    /// preparation's `f64` sums), and derives the screened `U > 1`
    /// decision and the kernel columns from them.
    fn refresh(&mut self) {
        if self.committed_folds.is_none()
            && self.undo.iter().all(|op| matches!(op, EditOp::RemoveLast))
        {
            let components = self.scratch.components();
            let committed = components.len() - self.undo.len();
            self.committed_folds = Some(ComponentFolds::of(&components[..committed]));
        }
        let order = std::mem::take(&mut self.order);
        self.scratch
            .install_edited_state(order, self.committed_folds);
        self.dirty = false;
    }
}

impl From<PreparedWorkload> for EditView {
    /// An editable view that takes the preparation over as its scratch,
    /// with no copy: the constructor for a caller that prepares a fresh
    /// workload only to edit it, such as a service recovering a tenant.
    fn from(scratch: PreparedWorkload) -> Self {
        EditView {
            committed_folds: Some(scratch.folds()),
            scratch,
            order: Vec::new(),
            dirty: false,
            undo: Vec::new(),
            poisoned: false,
        }
    }
}

impl WorkloadView for EditView {
    fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn mark_poisoned(&mut self) {
        self.poisoned = true;
    }

    /// Rolls back every edit since the last [`EditView::commit`] by
    /// replaying the undo log in reverse; the repair runs lazily at the
    /// next finalize.
    fn revert(&mut self) {
        if !self.undo.is_empty() {
            // The edits may already be finalized (admit-then-reject flows
            // analyze before deciding); re-enter edit mode so the order is
            // under local maintenance again.
            self.begin_edit();
        }
        while let Some(op) = self.undo.pop() {
            match op {
                EditOp::RemoveLast => {
                    let index = self.scratch.components().len() - 1;
                    self.order_remove_entry(index);
                    let _ = self.scratch.remove_component_at(index);
                }
                EditOp::InsertAt(index, component) => {
                    for entry in &mut self.order {
                        *entry += usize::from(*entry >= index);
                    }
                    self.scratch.insert_component_at(index, component);
                    self.order_insert_entry(index);
                }
                EditOp::WriteAt(index, component) => {
                    let _ = self.write_component(index, component);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::FeasibilityBounds;
    use crate::tests::{AllApproximatedTest, ProcessorDemandTest, QpaTest};
    use crate::workload::MixedSystem;
    use crate::FeasibilityTest;
    use edf_model::{EventStream, EventStreamTask, Task, TaskSet};

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn sample_system() -> MixedSystem {
        MixedSystem::new(
            TaskSet::from_tasks(vec![t(1, 2, 10), t(2, 3, 10), t(5, 9, 10)]),
            vec![EventStreamTask::new(
                EventStream::bursty(2, Time::new(4), Time::new(60)),
                Time::new(1),
                Time::new(12),
            )
            .expect("valid stream task")],
        )
    }

    /// Full observable-state comparison between a view probe and a cold
    /// re-preparation.
    fn assert_matches_cold(view: &PreparedWorkload, cold: &PreparedWorkload) {
        assert_eq!(view.components(), cold.components());
        assert_eq!(view.task_count(), cold.task_count());
        assert_eq!(view.utilization().to_bits(), cold.utilization().to_bits());
        assert_eq!(
            view.utilization_exceeds_one(),
            cold.utilization_exceeds_one()
        );
        assert_eq!(view.demand_is_exact(), cold.demand_is_exact());
        assert_eq!(view.utilization_is_exact(), cold.utilization_is_exact());
        assert_eq!(view.analysis_horizon(), cold.analysis_horizon());
        assert_eq!(
            view.analysis_horizon(),
            FeasibilityBounds::for_components(view.components()).analysis_horizon()
        );
        assert_eq!(
            view.qpa_horizon(),
            FeasibilityBounds::for_components(view.components()).qpa_horizon()
        );
        assert_eq!(view.deadline_order(), cold.deadline_order());
        for test in [
            Box::new(ProcessorDemandTest::new()) as Box<dyn FeasibilityTest>,
            Box::new(QpaTest::new()),
            Box::new(AllApproximatedTest::new()),
        ] {
            assert_eq!(
                test.analyze_prepared(view),
                test.analyze_prepared(cold),
                "{} diverges between view and cold preparation",
                test.name()
            );
        }
    }

    #[test]
    fn scaling_probes_match_cold_preparation() {
        let system = sample_system();
        let base = PreparedWorkload::new(&system);
        let mut view = ScaledView::new(&base);
        // Includes overload scalings (bounds skipped) sandwiched between
        // feasible ones, so stale-bound leakage would be caught.
        for numer in [1_000u64, 500, 2_000, 1_250, 0, 1_000, 4_000, 900] {
            let probed = view.scale_wcets(numer, 1_000);
            let cold = base.with_scaled_wcets(numer, 1_000);
            assert_matches_cold(probed, &cold);
        }
    }

    #[test]
    fn component_probes_match_cold_preparation() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = ScaledView::new(&base);
        for index in 0..base.components().len() {
            for wcet in [0u64, 1, 3, 7, 100] {
                let probed = view.with_component_wcet(index, Time::new(wcet));
                let mut components = base.components().to_vec();
                let clamped = match components[index].period() {
                    Some(period) => Time::new(wcet).min(period),
                    None => Time::new(wcet),
                };
                components[index].set_wcet(clamped);
                let cold = PreparedWorkload::from_parts(
                    components,
                    base.task_count(),
                    base.demand_is_exact(),
                    base.utilization_is_exact(),
                );
                assert_matches_cold(probed, &cold);
            }
        }
    }

    #[test]
    fn probe_kinds_interleave_without_leakage() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = ScaledView::new(&base);
        view.scale_wcets(3_000, 1_000);
        // A component probe after a scaling probe starts from base costs,
        // not from the scaled ones.
        let probed = view.with_component_wcet(0, Time::new(2));
        assert_eq!(probed.components()[1], base.components()[1]);
        view.with_component_wcet(2, Time::new(6));
        // And a scaling probe resets the component perturbation.
        let rescaled = view.scale_wcets(1_000, 1_000);
        assert_eq!(rescaled.components(), base.components());
    }

    #[test]
    fn view_accessors_and_empty_workload() {
        let base = PreparedWorkload::new(&TaskSet::new());
        let mut view = ScaledView::new(&base);
        assert!(view.base().is_empty());
        assert!(view.prepared().is_empty());
        assert!(view.scale_wcets(2_000, 1_000).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_component_probe_panics() {
        let base = PreparedWorkload::new(&TaskSet::from_tasks(vec![t(1, 4, 8)]));
        let mut view = ScaledView::new(&base);
        let _ = view.with_component_wcet(1, Time::new(2));
    }

    /// Cold preparation of an edit view's current components, carrying the
    /// view's metadata so the full observable state is comparable.
    fn cold_of(view: &mut EditView) -> PreparedWorkload {
        let prepared = view.prepared();
        PreparedWorkload::from_parts(
            prepared.components().to_vec(),
            prepared.task_count(),
            prepared.demand_is_exact(),
            prepared.utilization_is_exact(),
        )
    }

    #[test]
    fn edit_sequence_matches_cold_preparation() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        // Untouched view is already bit-identical.
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Insert a periodic and a one-shot component.
        let count = base.components().len();
        let periodic = DemandComponent::periodic(Time::new(2), Time::new(5), Time::new(30));
        let one_shot = DemandComponent::one_shot(Time::new(1), Time::new(3), Time::new(7));
        assert_eq!(view.insert_component(periodic), count);
        assert_eq!(view.insert_component(one_shot), count + 1);
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Remove from the middle (indices shift), replace with a different
        // period, edit again without an intervening finalize.
        let removed = view.remove_component(1);
        assert_eq!(removed, base.components()[1]);
        let replaced = view.replace_component(
            0,
            DemandComponent::periodic(Time::new(3), Time::new(4), Time::new(11)),
        );
        assert_eq!(replaced, base.components()[0]);
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        view.commit();
    }

    #[test]
    fn edit_revert_rolls_back_to_last_commit() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        let admitted = view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(9),
            Time::new(40),
        ));
        view.prepared();
        view.commit();
        let committed: Vec<DemandComponent> = view.components().to_vec();
        // A rejected admit: insert, analyze (finalize), then revert.
        view.insert_component(DemandComponent::periodic(
            Time::new(30),
            Time::new(30),
            Time::new(30),
        ));
        assert!(view.prepared().utilization_exceeds_one());
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Reverting a mixed uncommitted batch (remove + replace + insert).
        view.remove_component(admitted);
        view.replace_component(
            1,
            DemandComponent::one_shot(Time::new(2), Time::new(6), Time::new(0)),
        );
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(3),
        ));
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        // Revert with nothing pending is a no-op.
        view.revert();
        assert_eq!(view.components(), committed.as_slice());
    }

    #[test]
    fn shrinking_edits_reuse_column_capacity() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        // Grow once, then cycle admit/evict pairs: after the initial
        // growth the component column's capacity must never move again
        // (the `recycled`-style reuse contract; the pub(crate) mutators
        // debug-assert the per-edit half of this).
        for _ in 0..4 {
            view.insert_component(DemandComponent::periodic(
                Time::new(1),
                Time::new(8),
                Time::new(50),
            ));
        }
        view.prepared();
        view.commit();
        let capacity = view.scratch.component_capacity();
        for round in 0..8 {
            let index = view.insert_component(DemandComponent::periodic(
                Time::new(1 + round % 2),
                Time::new(6),
                Time::new(20),
            ));
            view.prepared();
            view.remove_component(index);
            view.replace_component(
                0,
                DemandComponent::periodic(
                    Time::new(2),
                    Time::new(5 + round),
                    Time::new(10 + round),
                ),
            );
            view.prepared();
            view.commit();
            assert_eq!(view.scratch.component_capacity(), capacity);
        }
    }

    #[test]
    fn edit_view_from_empty_base_admits() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        assert!(view.prepared().is_empty());
        view.insert_component(DemandComponent::periodic(
            Time::new(2),
            Time::new(4),
            Time::new(8),
        ));
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        assert_eq!(view.prepared().task_count(), 1);
    }

    #[test]
    fn poisoned_view_rebuilds_from_committed_base() {
        let base = PreparedWorkload::new(&sample_system());
        let mut view = EditView::new(&base);
        assert!(!view.is_poisoned());
        // Simulate a panic unwinding mid-edit: the component vector has
        // been mutated but the poison forbids trusting any repair of it.
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(4),
        ));
        view.mark_poisoned();
        assert!(view.is_poisoned());
        view = EditView::new(&base);
        assert!(!view.is_poisoned());
        let cold = cold_of(&mut view);
        assert_matches_cold(view.prepared(), &cold);
        assert_eq!(view.components(), base.components());
    }

    #[test]
    #[should_panic]
    fn prepared_on_poisoned_view_panics() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        view.mark_poisoned();
        let _ = view.prepared();
    }

    #[test]
    #[should_panic]
    fn finalized_on_dirty_view_panics() {
        let base = PreparedWorkload::from_components(Vec::new());
        let mut view = EditView::new(&base);
        view.insert_component(DemandComponent::periodic(
            Time::new(1),
            Time::new(2),
            Time::new(4),
        ));
        let _ = view.finalized();
    }
}

//! Feasibility bounds: upper limits on the intervals a demand-based test
//! has to examine (§4.3 of the paper).
//!
//! If the utilization is below 100 %, the demand bound function eventually
//! falls below the capacity line forever; a *feasibility bound* is any
//! interval length beyond which no violation can occur, so the exact tests
//! only need to examine deadlines below it.  This module implements the
//! bounds discussed in the paper and its references:
//!
//! * [`baruah_components`] — Baruah et al.: `U/(1−U) · max(Tᵢ − Dᵢ)`;
//! * [`george_components`] — George et al.:
//!   `Σ_{Dᵢ≤Tᵢ} (1 − Dᵢ/Tᵢ)·Cᵢ / (1 − U)`;
//! * [`busy_period_components`] — length of the synchronous processor
//!   busy period;
//! * [`hyperperiod_components`] — `lcm(Tᵢ) + max Dᵢ` (always valid, often
//!   huge);
//! * [`FeasibilityBounds::superposition`] — the bound implicitly reached
//!   by the all-approximated test (§4.3), `max(Dmax, George)`; the paper
//!   proves it coincides with the George bound whenever `Cτ ≤ Dτ`.
//!
//! Every bound is defined on [`DemandComponent`] lists (the canonical form
//! of any [`Workload`]), which is how the §4.3
//! derivations carry over to event-stream and mixed systems: a component
//! with cost `C`, first deadline `D'` and cycle `z` satisfies
//! `dbf(I) ≤ I·C/z + C·max(0, 1 − D'/z)`, exactly the per-task inequality
//! behind the George bound.  The sporadic-only bounds (Baruah needs every
//! component periodic; the busy period and hyperperiod arguments need the
//! classic synchronous pattern) return `None` for workloads outside their
//! domain, and [`FeasibilityBounds::analysis_horizon`] picks the tightest
//! of whatever is available ([`FeasibilityBounds::qpa_horizon`] the
//! tightest short of the busy period).
//!
//! All bounds are rounded **up** to the next integer so that using them as
//! a search horizon can never cut off a violating deadline.
//!
//! The analyses read two numbers, split by what each test needs.  QPA
//! needs only *some* valid bound to start its descent, so it reads the
//! QPA horizon `min(George, hyperperiod)` (the busy period only when both
//! are undefined: `U = 1` with an overflowing lcm).  The processor-demand
//! walk and the refining tests examine every deadline below their
//! horizon, so they read the analysis horizon, the minimum of all bounds:
//! `min(QPA horizon, busy period)`.  Every preparation derives the QPA
//! horizon on one path, on first use, from the aggregates and period
//! reciprocals its [`PreparedWorkload`](crate::workload::PreparedWorkload)
//! stores: folded one component at a time by a cold preparation, refolded
//! (keeping the period lcm) by a
//! [`CandidateView`](crate::candidates::CandidateView) finalize after every
//! re-phasing, and extended from the committed folds or refolded by an
//! [`EditView`](crate::incremental::EditView) finalize — the
//! [`ScaledView`](crate::incremental::ScaledView) probes included.  Baruah and superposition are
//! never below George, and a `U > 1` list reads its hyperperiod.  The
//! analysis horizon is derived lazily from the QPA horizon, once per
//! component list and only when a test asks for it: a busy-period
//! fix-point over the kernel's periodic columns that stops once it can no
//! longer lower the QPA horizon.  The George bound is read in closed
//! form, `max(1, ⌈N/(1 − U)⌉)`, from the `f64` sums the folds carry,
//! under a proven error window: an estimate whose window holds no integer
//! is usually the answer outright, one holding a single integer costs one
//! or two exact predicate evaluations, and inexact inputs (values ≥ 2⁵³),
//! `U` within 2⁻⁹ of one, an estimate past 2⁵² or a window that two
//! evaluations cannot settle fall back to the search seeded with the
//! estimate.  The result always equals the plain
//! binary search of [`george_components`].
//! [`FeasibilityBounds::for_components`] computes every bound by its
//! standalone search and stays the independent reference both horizons
//! are tested against.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::bounds;
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(2), Time::new(4), Time::new(10))?,
//!     Task::new(Time::new(3), Time::new(6), Time::new(15))?,
//!     Task::new(Time::new(4), Time::new(20), Time::new(40))?,
//! ]);
//! let all = bounds::FeasibilityBounds::compute(&ts);
//! // George 10, busy period 9: QPA starts from George, the
//! // processor-demand walk stops at the busy period.
//! assert_eq!(all.qpa_horizon(), Some(Time::new(10)));
//! assert_eq!(all.analysis_horizon(), Some(Time::new(9)));
//! # Ok(())
//! # }
//! ```

use edf_model::{TaskSet, Time};

use crate::arith::{
    fracs_parts_le_integer_iter, Reciprocal, FLOAT_SCREEN_MARGIN, FLOAT_SCREEN_MAX_TERMS,
};
use crate::budget::WorkBudget;
use crate::workload::{components_exceed_one, DemandComponent, Workload};

/// Convergence allowance of the busy-period fix-point, expressed as a
/// [`WorkBudget`] limit so bounds work is metered in the same units as
/// every other analysis loop: an overloaded set whose iteration diverges
/// is cut off after this many work units and reports "no bound"
/// (`None`), exactly as before the budget unification.
const BUSY_PERIOD_CONVERGENCE_UNITS: u64 = 100_000;

/// The collection of all implemented feasibility bounds for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityBounds {
    /// Baruah et al. bound, `None` if `U ≥ 1`, the workload has one-shot
    /// components, or no component has `D < T` (in which case the Liu &
    /// Layland argument applies instead).
    pub baruah: Option<Time>,
    /// George et al. bound, `None` if `U ≥ 1`.
    pub george: Option<Time>,
    /// Synchronous busy period, `None` outside the sporadic model or if the
    /// fix-point does not converge within the iteration budget (`U > 1`).
    pub busy_period: Option<Time>,
    /// `lcm(Tᵢ) + max Dᵢ`, `None` on overflow, one-shot components or an
    /// empty workload.
    pub hyperperiod: Option<Time>,
    /// Superposition bound of §4.3, `None` if `U ≥ 1`.
    pub superposition: Option<Time>,
}

impl FeasibilityBounds {
    /// Computes every bound for a sporadic task set.
    #[must_use]
    pub fn compute(task_set: &TaskSet) -> Self {
        FeasibilityBounds::for_components(&task_set.demand_components())
    }

    /// Computes every bound for an arbitrary component decomposition, each
    /// by the plain binary search of its standalone function (the
    /// superposition bound as `max(George, Dmax)` from the George value
    /// just found).  This is the independent reference the analysis
    /// horizon of a [`PreparedWorkload`](crate::workload::PreparedWorkload)
    /// is tested against; no analysis reads it.
    #[must_use]
    pub fn for_components(components: &[DemandComponent]) -> Self {
        let george = george_components(components);
        let dmax = components.iter().map(DemandComponent::first_deadline).max();
        FeasibilityBounds {
            baruah: baruah_components(components),
            george,
            busy_period: busy_period_components(components),
            hyperperiod: hyperperiod_components(components),
            superposition: george.zip(dmax).map(|(g, d)| g.max(d)),
        }
    }

    /// The horizon QPA descends from: `min(George, hyperperiod)`, or the
    /// busy period when neither is defined (`U = 1` with an overflowing
    /// hyperperiod), or `None` when no bound is.  Any valid bound is a
    /// correct start for the descent, so QPA skips the busy-period
    /// fix-point wherever a cheaper bound exists.
    #[must_use]
    pub fn qpa_horizon(&self) -> Option<Time> {
        [self.george, self.hyperperiod]
            .into_iter()
            .flatten()
            .min()
            .or(self.busy_period)
    }

    /// The tightest available bound: the minimum over all bounds that could
    /// be computed, or `None` if none could (utilization ≥ 1 with an
    /// overflowing or undefined hyperperiod).
    #[must_use]
    pub fn analysis_horizon(&self) -> Option<Time> {
        [
            self.baruah,
            self.george,
            self.busy_period,
            self.hyperperiod,
            self.superposition,
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

/// The timing-dependent (deadline/period-shape) aggregates of the
/// §4.3 bound machinery — the half that stays fixed under WCET
/// perturbations but moves under re-phasing and structural edits, folded
/// one component at a time into [`ComponentFolds`].
#[derive(Debug, Clone, Copy)]
struct TimingAggregates {
    /// Every component is periodic with `D' ≥ T` (vacuously true when
    /// empty): the George numerator is then zero.
    george_degenerate: bool,
    min_first_deadline: Option<Time>,
    max_first_deadline: Option<Time>,
}

impl TimingAggregates {
    const EMPTY: TimingAggregates = TimingAggregates {
        george_degenerate: true,
        min_first_deadline: None,
        max_first_deadline: None,
    };

    fn push(&mut self, component: &DemandComponent) {
        let deadline = component.first_deadline();
        self.george_degenerate &= component.period().is_some_and(|p| deadline >= p);
        self.min_first_deadline = Some(
            self.min_first_deadline
                .map_or(deadline, |d| d.min(deadline)),
        );
        self.max_first_deadline = Some(
            self.max_first_deadline
                .map_or(deadline, |d| d.max(deadline)),
        );
    }
}

/// Largest integer below which every `u64` converts to `f64` exactly.
const EXACT_F64_LIMIT: u64 = 1 << 53;

/// The WCET-dependent `f64` folds of the George bound, accumulated in
/// component order: the utilization `Û = Σ Cᵢ/Tᵢ`, bit-identical to a
/// cold `sum()` of [`DemandComponent::utilization`] (the views install it
/// as the prepared utilization), and the numerator
/// `N̂ = Σ_periodic Cᵢ·max(0, Tᵢ − D'ᵢ)/Tᵢ + Σ_one-shot Cᵢ`.
#[derive(Debug, Clone, Copy)]
struct GeorgeFolds {
    count: usize,
    utilization: f64,
    numerator: f64,
    /// Every cost, first deadline and period is below 2⁵³, so each
    /// converts to `f64` exactly.
    exact_inputs: bool,
}

impl GeorgeFolds {
    fn new() -> Self {
        GeorgeFolds {
            count: 0,
            // `Iterator::sum`'s starting value (−0.0), so the fold equals a
            // cold `sum()` bit for bit, on an empty list too.
            utilization: std::iter::empty::<f64>().sum(),
            numerator: 0.0,
            exact_inputs: true,
        }
    }

    fn push(&mut self, component: &DemandComponent) {
        let wcet = component.wcet();
        let deadline = component.first_deadline();
        self.count += 1;
        self.utilization += component.utilization();
        let widest = match component.period() {
            Some(period) => {
                let slack = period.as_f64() - deadline.as_f64();
                if slack > 0.0 {
                    self.numerator += wcet.as_f64() * slack / period.as_f64();
                }
                wcet.max(deadline).max(period)
            }
            None => {
                self.numerator += wcet.as_f64();
                wcet.max(deadline)
            }
        };
        self.exact_inputs &= widest.as_u64() < EXACT_F64_LIMIT;
    }
}

/// Every aggregate the analysis horizon of a component list depends on,
/// folded one component at a time: the [`TimingAggregates`], the
/// [`GeorgeFolds`] and the period lcm.  A
/// [`PreparedWorkload`](crate::workload::PreparedWorkload) stores the folds
/// of its list: a cold preparation folds it once; an
/// [`EditView`](crate::incremental::EditView) keeps these for its
/// committed components and extends a copy by a probe's appended ones, so
/// a finalize pays `O(1)` aggregate work per appended component instead
/// of a pass over the whole list; a finalize after edits that move no
/// period — every [`CandidateView`](crate::candidates::CandidateView)
/// finalize — [refolds](ComponentFolds::refold) the stored folds, all but
/// the lcm.  The
/// `f64` sums are order-sensitive, which is why only appends extend them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComponentFolds {
    timing: TimingAggregates,
    george: GeorgeFolds,
    /// `lcm` of the periods folded so far; `None` once a one-shot
    /// component appears or the lcm overflows (an overflow is final, since
    /// every partial lcm divides the full one).
    period_lcm: Option<Time>,
}

impl ComponentFolds {
    /// The folds of `components`, in order.
    pub(crate) fn of(components: &[DemandComponent]) -> Self {
        let mut folds = ComponentFolds {
            timing: TimingAggregates::EMPTY,
            george: GeorgeFolds::new(),
            period_lcm: Some(Time::ONE),
        };
        folds.extend(components);
        folds
    }

    /// Folds `components` in after the ones already covered.
    pub(crate) fn extend(&mut self, components: &[DemandComponent]) {
        for component in components {
            self.timing.push(component);
            self.george.push(component);
            self.period_lcm = self.period_lcm.and_then(|lcm| lcm.lcm(component.period()?));
        }
    }

    /// Re-folds the timing and George terms from `components`, a list
    /// whose periods equal, one for one, those of the list these folds
    /// were built from (costs, deadlines and offsets may differ), so the
    /// period lcm is kept and no gcd chain runs.
    pub(crate) fn refold(&mut self, components: &[DemandComponent]) {
        debug_assert_eq!(components.len(), self.len());
        self.timing = TimingAggregates::EMPTY;
        self.george = GeorgeFolds::new();
        for component in components {
            self.timing.push(component);
            self.george.push(component);
        }
    }

    /// Number of components folded.
    pub(crate) fn len(&self) -> usize {
        self.george.count
    }

    /// `Σ Cᵢ/Tᵢ` in component order, bit-identical to
    /// [`PreparedWorkload::utilization`](crate::workload::PreparedWorkload::utilization)
    /// of a cold preparation.
    pub(crate) fn utilization(&self) -> f64 {
        self.george.utilization
    }

    /// The exact `U > 1` of `components`, the list these folds cover.
    ///
    /// Each utilization term carries at most three roundings (two
    /// conversions and a division) and the sum `n − 1` more, so
    /// `|Û − U| ≤ γ_{n+2}·U < 2⁻³²·U` for `n ≤ 2²⁰` components
    /// (`γₖ = ku/(1 − ku)`, `u = 2⁻⁵³`).  Hence `Û > 1 + 10⁻³` proves
    /// `U > 1` and `Û < 1 − 10⁻³` proves `U ≤ 1`, the same margin as the
    /// screen of the exact comparison itself; inside it, or beyond 2²⁰
    /// components, the exact rational check decides.
    pub(crate) fn exceeds_one(&self, components: &[DemandComponent]) -> bool {
        debug_assert_eq!(components.len(), self.len());
        let utilization = self.george.utilization;
        if self.len() <= FLOAT_SCREEN_MAX_TERMS {
            if utilization > 1.0 + FLOAT_SCREEN_MARGIN {
                return true;
            }
            if utilization < 1.0 - FLOAT_SCREEN_MARGIN {
                return false;
            }
        }
        components_exceed_one(components)
    }

    /// `lcm + max D'` (`None` when empty: there is no `max D'`).
    fn hyperperiod(&self) -> Option<Time> {
        hyperperiod_from(self.period_lcm, self.timing.max_first_deadline)
    }
}

/// The QPA horizon of `components`: equal to
/// `FeasibilityBounds::for_components(components).qpa_horizon()` on every
/// list.  The one path every preparation derives it on:
/// [`PreparedWorkload::qpa_horizon`](crate::workload::PreparedWorkload::qpa_horizon),
/// from its stored state, on first use after a preparation or a view
/// finalize.
///
/// Every aggregate comes from `folds`, the [`ComponentFolds`] of
/// exactly `components`; `reciprocals` holds one period reciprocal per
/// component (the divisor-1 sentinel for one-shots), and `exceeds_one` is
/// the exact `U > 1` of the list.  The George bound is read in closed form
/// from the folds (see [`george_closed_form`]); where that cannot certify
/// its answer, the search seeded with the folds' estimate takes over.
///
/// * **`U > 1` reads the hyperperiod.**  George, Baruah and superposition
///   are undefined there, and the busy period has no fixed point: one
///   would need `L ≥ U·L > L`.
/// * **Otherwise `min(George, hyperperiod)`.**  Baruah's predicate
///   `Σ Cᵢ·(L + maxⱼ(Tⱼ ⊖ Dⱼ))/Tᵢ ≤ L` implies George's
///   `Σ Cᵢ·(L + (Tᵢ ⊖ Dᵢ))/Tᵢ ≤ L` term by term, because
///   `Tᵢ ⊖ Dᵢ ≤ maxⱼ(Tⱼ ⊖ Dⱼ)`; so George ≤ Baruah whenever Baruah
///   exists.  The superposition bound is `max(George, Dmax)`, so it is
///   never below George either.
/// * **The busy period only when both are undefined** (`U = 1` with an
///   overflowing lcm), under the same convergence cut-off as
///   [`busy_period_components`] — and without running the fix-point
///   where [`busy_period_has_no_fixed_point`] proves it would answer
///   `None`.
pub(crate) fn qpa_horizon(
    components: &[DemandComponent],
    reciprocals: &[Reciprocal],
    folds: &ComponentFolds,
    exceeds_one: bool,
) -> Option<Time> {
    debug_assert_eq!(components.len(), reciprocals.len());
    debug_assert_eq!(components.len(), folds.len());
    debug_assert_eq!(exceeds_one, components_exceed_one(components));
    if exceeds_one {
        return folds.hyperperiod();
    }
    let george = george_from_folds(components, reciprocals, folds);
    let minimum = [george, folds.hyperperiod()].into_iter().flatten().min();
    if minimum.is_some()
        || !synchronous_periodic(components)
        || busy_period_has_no_fixed_point(components)
    {
        return minimum;
    }
    let costs = components.iter().map(DemandComponent::wcet);
    busy_period_below(costs.zip(reciprocals.iter().copied()), None)
}

/// The analysis horizon of a list with exact `U ≤ 1` to which the
/// busy-period argument applies ([`synchronous_periodic`]), given its
/// [`qpa_horizon`]: `min(qpa, busy period)`, equal to
/// `FeasibilityBounds::for_components(components).analysis_horizon()`.
/// `periodic_costs` yields the cost and period reciprocal of every
/// component, in any order (the fix-point's saturating sums do not depend
/// on it).
///
/// The fix-point stops at the QPA horizon: its iterates rise
/// monotonically to the least fixed point, so an iterate at or above it
/// proves the busy period cannot lower the minimum.  A `None` QPA horizon
/// already went through the busy period, so it is the answer as it is.
pub(crate) fn analysis_horizon(
    qpa_horizon: Option<Time>,
    periodic_costs: impl Iterator<Item = (Time, Reciprocal)> + Clone,
) -> Option<Time> {
    let qpa = qpa_horizon?;
    Some(busy_period_below(periodic_costs, Some(qpa)).unwrap_or(qpa))
}

/// `true` when the busy-period fix-point of a purely periodic list with
/// exact `U ≤ 1` provably has no fixed point in `u64`, so that
/// [`busy_period_components`] answers `None` on it: `U = 1` exactly and
/// the lcm of the nonzero-cost periods overflows.
///
/// At `U = 1`, `rbf(t) = Σ Cᵢ·⌈t/Tᵢ⌉ ≥ Σ Cᵢ·t/Tᵢ = t` for `t > 0`, with
/// equality only where every nonzero-cost period divides `t`: a fixed
/// point is a common multiple of those periods.  When their lcm
/// overflows there is none, and the iterates can only saturate or be
/// cut off after [`BUSY_PERIOD_CONVERGENCE_UNITS`] passes.  `U ≥ 1` is
/// read as `Σ (Tᵢ − Cᵢ)/Tᵢ ≤ m − 1` over the `m` nonzero-cost
/// components (each `Cᵢ ≤ Tᵢ` under `U ≤ 1`); that comparison errs only
/// towards "exceeds", so a `true` here is always exact.
fn busy_period_has_no_fixed_point(components: &[DemandComponent]) -> bool {
    debug_assert!(synchronous_periodic(components));
    let loaded = || components.iter().filter(|c| !c.wcet().is_zero());
    let lcm_overflows = loaded()
        .try_fold(Time::ONE, |lcm, c| lcm.lcm(c.period()?))
        .is_none();
    lcm_overflows
        && crate::arith::fracs_le_integer_iter(
            loaded().filter_map(|c| {
                let period = c.period()?;
                Some((period.saturating_sub(c.wcet()).as_u128(), period.as_u128()))
            }),
            loaded().count() as u128 - 1,
        )
}

/// `true` when the synchronous busy-period argument applies to
/// `components`: non-empty, purely periodic, all released at the window
/// start.
pub(crate) fn synchronous_periodic(components: &[DemandComponent]) -> bool {
    !components.is_empty()
        && components
            .iter()
            .all(|c| c.period().is_some() && c.release_offset().is_zero())
}

/// The George bound of a list with exact `U ≤ 1`, equal to
/// [`george_components`]: the degenerate case, else the closed form of
/// [`george_closed_form`], else the search seeded with the `f64` estimate.
fn george_from_folds(
    components: &[DemandComponent],
    reciprocals: &[Reciprocal],
    folds: &ComponentFolds,
) -> Option<Time> {
    if folds.timing.george_degenerate {
        // The numerator is zero: any positive horizon works; report the
        // smallest deadline so the caller has a non-trivial bound.
        return folds.timing.min_first_deadline;
    }
    let predicate = |l| george_predicate_rcp(components, reciprocals, l);
    let george = &folds.george;
    george_closed_form(george, predicate).ok().or_else(|| {
        let estimate = george.numerator / (1.0 - george.utilization);
        smallest_satisfying_hinted(predicate, hint_from_estimate(estimate))
    })
}

/// Why [`george_closed_form`] handed the George bound to the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GeorgeFallback {
    /// A cost, deadline or period is at least 2⁵³, or the list has more
    /// than 2²⁰ components.
    InexactInputs,
    /// `1 − Û < 2⁻⁹`; this includes `U = 1`.
    NearFullUtilization,
    /// The estimate exceeds 2⁵².
    EstimateTooLarge,
    /// Two predicate evaluations left the answer open: the error window
    /// holds several integers, or the predicate answered conservatively.
    Undecided,
}

/// Smallest `1 − Û` the closed form accepts.  Above it every integer
/// `L ≥ x + 1` has a certified predicate margin (see
/// [`george_closed_form`]).
const GEORGE_MIN_HEADROOM: f64 = 1.0 / 512.0;

/// Largest estimate the closed form accepts, so every candidate and the
/// window around it stay exactly representable integers.
const GEORGE_MAX_ESTIMATE: f64 = (1u64 << 52) as f64;

/// A margin `(L − hi)·(1 − Û)` of at least this certifies that the George
/// predicate's `f64` screen answers "true" at `L`: it implies a true margin
/// above `FLOAT_SCREEN_MARGIN + 2⁻¹²`, the screen's margin plus its
/// proven error.
const GEORGE_CERTIFIED_MARGIN: f64 = 1.3e-3;

const _: () = assert!(GEORGE_CERTIFIED_MARGIN > FLOAT_SCREEN_MARGIN + 1.0 / 4096.0);
const _: () = assert!(GEORGE_MIN_HEADROOM > GEORGE_CERTIFIED_MARGIN);

/// The George bound `max(1, ⌈x⌉)`, `x = N/(1 − U)`, read from the `f64`
/// folds `N̂` and `Û` — or the reason it cannot be certified.
///
/// The bound is the smallest integer `L ≥ 1` satisfying the exact
/// predicate `P(L)`: `U·L + N ≤ L`, true exactly for `L ≥ x` when `U < 1`.
/// Its implementation `predicate` ([`george_predicate_rcp`]) is *sound*:
/// it answers "false" when unsure, never "true", and is unsure only where
/// its `f64` screen cannot decide and the exact rational path overflows.
///
/// **Error window.**  With every input below 2⁵³ each conversion is exact,
/// so each numerator term carries two roundings and each utilization term
/// one, and the sums `n − 1` more: `|N̂ − N| ≤ γ_{n+1}·N` and
/// `|Û − U| ≤ γ_n·U ≤ γ_n` (`γₖ = ku/(1 − ku)`, `u = 2⁻⁵³`, `U ≤ 1` on
/// entry).  With `g = 2(n + 2)u ≥ 2γ_{n+1}`, `D̂ = fl(1 − Û) ≥ 2⁻⁹` and
/// `n ≤ 2²⁰`, `1 − U` lies within a relative `2⁻²²` of `D̂`, and
/// `|x − ê| ≤ 1.03·(g·(1 + 1/D̂) + 2u)·ê` for `ê = fl(N̂/D̂)`.  The
/// window `[lo, hi] = ê ∓ 2·(g·(1 + 1/D̂) + 4u)·ê` doubles that, and the
/// slack absorbs the roundings in forming it, so it contains `x`.
///
/// **Certificates.**  Below `lo`, `P` is false, so `predicate` is too.  At
/// `L ≥ x` the margin `L − (U·L + N) = (1 − U)(L − x)` grows with `L`,
/// and once it exceeds `FLOAT_SCREEN_MARGIN + 2⁻¹²` the screen of
/// [`fracs_parts_le_integer_iter`] answers "true" itself — `predicate`
/// then equals `P`.  `(L − hi)·D̂ ≥ GEORGE_CERTIFIED_MARGIN` certifies that
/// margin, and so does `L ≥ x + 1`, since `1 − U > GEORGE_MIN_HEADROOM·(1
/// − 2⁻²²) > GEORGE_CERTIFIED_MARGIN`.
///
/// **The read.**  From `max(1, ⌈lo⌉)` upward, a certified integer is the
/// answer; otherwise `predicate` is evaluated there: "true" makes it the
/// answer (every larger `L` is `≥ x + 1`), "false" moves one up.  A window
/// without an integer usually certifies its ceiling outright; a window
/// holding one integer costs an evaluation there, and one more when the
/// next integer's margin is thin.  `predicate` is then false below the
/// answer and certainly true from it on, so the answer is the one every
/// search returns.  A third evaluation, or a failed precondition, returns
/// the reason instead.
fn george_closed_form(
    folds: &GeorgeFolds,
    mut predicate: impl FnMut(u64) -> bool,
) -> Result<Time, GeorgeFallback> {
    if !folds.exact_inputs || folds.count > FLOAT_SCREEN_MAX_TERMS {
        return Err(GeorgeFallback::InexactInputs);
    }
    let headroom = 1.0 - folds.utilization;
    if headroom < GEORGE_MIN_HEADROOM {
        return Err(GeorgeFallback::NearFullUtilization);
    }
    let estimate = folds.numerator / headroom;
    if estimate > GEORGE_MAX_ESTIMATE {
        return Err(GeorgeFallback::EstimateTooLarge);
    }
    let g = (folds.count + 2) as f64 * f64::EPSILON;
    let width = 2.0 * (g * (1.0 + 1.0 / headroom) + 2.0 * f64::EPSILON) * estimate;
    let (lo, hi) = (estimate - width, estimate + width);
    let certified = |l: u64| (l as f64 - hi) * headroom >= GEORGE_CERTIFIED_MARGIN;
    let mut candidate = (lo.ceil() as u64).max(1);
    let mut evaluations = 0;
    while !certified(candidate) {
        if evaluations == 2 {
            return Err(GeorgeFallback::Undecided);
        }
        evaluations += 1;
        if predicate(candidate) {
            break;
        }
        candidate += 1;
    }
    Ok(Time::new(candidate))
}

/// `lcm` of the component periods — the WCET- **and** deadline-invariant
/// half of the hyperperiod bound.  `None` when the list is empty, contains
/// a one-shot component, or the lcm overflows (mirroring
/// [`hyperperiod_components`], which equals `period_lcm + max D'`).
fn period_lcm(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() {
        return None;
    }
    let mut lcm = Time::ONE;
    for component in components {
        lcm = lcm.lcm(component.period()?)?;
    }
    Some(lcm)
}

/// Converts a floating-point bound estimate into a search hint; `None`
/// when the estimate is useless (non-finite or outside the search range,
/// e.g. because `U ≥ 1` crept into the prediction).
fn hint_from_estimate(estimate: f64) -> Option<Time> {
    if estimate.is_finite() && (1.0..=BOUND_SEARCH_CAP as f64).contains(&estimate) {
        Some(Time::new(estimate.ceil() as u64))
    } else {
        None
    }
}

/// The Baruah bound's defining inequality
/// `Σ Cᵢ·(L + max(Tⱼ − Dⱼ))/Tᵢ ≤ L`, evaluated exactly and without
/// allocation.
fn baruah_predicate(components: &[DemandComponent], max_diff: Time, l: u64) -> bool {
    crate::arith::fracs_le_integer_iter(
        components.iter().map(|c| {
            (
                c.wcet().as_u128() * (u128::from(l) + max_diff.as_u128()),
                c.period()
                    .expect("Baruah applies to purely periodic workloads")
                    .as_u128(),
            )
        }),
        u128::from(l),
    )
}

/// The George bound's defining inequality
/// `Σᵢ Cᵢ·(L + slackᵢ)/Tᵢ + Σ_oneshot Cᵢ ≤ L`, evaluated exactly and
/// without allocation.
fn george_predicate(components: &[DemandComponent], l: u64) -> bool {
    crate::arith::fracs_le_integer_iter(
        components.iter().map(|c| match c.period() {
            Some(period) => {
                let slack = period.saturating_sub(c.first_deadline()).as_u128();
                (
                    c.wcet().as_u128() * (u128::from(l) + slack),
                    period.as_u128(),
                )
            }
            None => (c.wcet().as_u128(), 1),
        }),
        u128::from(l),
    )
}

/// [`george_predicate`] evaluated through precomputed period reciprocals
/// (identical decisions; the pre-divided parts are exact).
fn george_predicate_rcp(
    components: &[DemandComponent],
    reciprocals: &[Reciprocal],
    l: u64,
) -> bool {
    fracs_parts_le_integer_iter(
        components
            .iter()
            .zip(reciprocals)
            .map(|(c, &rcp)| match c.period() {
                Some(period) => {
                    let slack = period.saturating_sub(c.first_deadline()).as_u128();
                    let num = c.wcet().as_u128() * (u128::from(l) + slack);
                    rcp.divided_parts(num, period.as_u64())
                }
                None => (c.wcet().as_u128(), 0, 1),
            }),
        u128::from(l),
    )
}

/// [`busy_period_components`] for a purely periodic component list
/// released at zero, given as the `(cost, period reciprocal)` pair of
/// every component ([`Reciprocal::divide`] is exact for every `u64`), and
/// abandoned as soon as an iterate reaches `ceiling`: the iterates rise
/// monotonically to the least fixed point, so such an iterate proves the
/// busy period is at least `ceiling`.  Returns the busy period when it
/// converges below `ceiling`; `None` when abandoned, cut off after
/// [`BUSY_PERIOD_CONVERGENCE_UNITS`] iterations, or saturated.
fn busy_period_below(
    costs: impl Iterator<Item = (Time, Reciprocal)> + Clone,
    ceiling: Option<Time>,
) -> Option<Time> {
    let mut convergence = WorkBudget::limited(BUSY_PERIOD_CONVERGENCE_UNITS);
    let mut length = costs
        .clone()
        .fold(Time::ZERO, |acc, (wcet, _)| acc.saturating_add(wcet));
    loop {
        if ceiling.is_some_and(|m| length >= m) || !convergence.charge(1) {
            return None;
        }
        // `rbf` of a component released at zero: one job at `L = 0`,
        // `⌊(L − 1)/T⌋ + 1` jobs after.
        let next = costs.clone().fold(Time::ZERO, |acc, (wcet, rcp)| {
            let jobs = match length.as_u64() {
                0 => 1,
                l => rcp.divide(l - 1) + 1,
            };
            acc.saturating_add(wcet.saturating_mul(jobs))
        });
        if next == length {
            return Some(length);
        }
        if next == Time::MAX {
            return None;
        }
        length = next;
    }
}

/// Upper limit of the bound binary searches (far beyond any realistic
/// feasibility bound; reaching it means the bound is undefined, e.g. U = 1).
const BOUND_SEARCH_CAP: u64 = 1 << 62;

/// Smallest `L ≥ 1` satisfying the monotone predicate, or `None` if even
/// `BOUND_SEARCH_CAP` does not satisfy it.
fn smallest_satisfying(mut predicate: impl FnMut(u64) -> bool) -> Option<Time> {
    if !predicate(BOUND_SEARCH_CAP) {
        return None;
    }
    let (mut lo, mut hi) = (1u64, BOUND_SEARCH_CAP);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if predicate(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Time::new(lo))
}

/// [`smallest_satisfying`] seeded with a hint (an `f64` estimate of the
/// answer): a bracket around the
/// answer is found by galloping out from the hint, so a hint close to the
/// answer replaces the 62-step cold binary search with a handful of
/// predicate evaluations.  Returns the same value as
/// [`smallest_satisfying`] for every monotone predicate.
fn smallest_satisfying_hinted(
    mut predicate: impl FnMut(u64) -> bool,
    hint: Option<Time>,
) -> Option<Time> {
    let Some(hint) = hint else {
        return smallest_satisfying(predicate);
    };
    let hint = hint.as_u64().clamp(1, BOUND_SEARCH_CAP);
    let (lo, hi) = if predicate(hint) {
        // The answer is in [1, hint]: gallop downward for an excluded point.
        let mut hi = hint;
        let mut lo = 0u64;
        let mut width = 1u64;
        loop {
            let candidate = hint.saturating_sub(width).max(1);
            if candidate >= hi {
                break;
            }
            if predicate(candidate) {
                hi = candidate;
                width = width.saturating_mul(2);
            } else {
                lo = candidate;
                break;
            }
        }
        (lo, hi)
    } else {
        // The answer is above the hint: gallop upward for a satisfying one.
        let mut lo = hint;
        let mut width = 1u64;
        let hi = loop {
            let candidate = hint.saturating_add(width).min(BOUND_SEARCH_CAP);
            if candidate <= lo {
                return None; // saturated at the cap without satisfying
            }
            if predicate(candidate) {
                break candidate;
            }
            if candidate == BOUND_SEARCH_CAP {
                return None;
            }
            lo = candidate;
            width = width.saturating_mul(2);
        };
        (lo, hi)
    };
    let (mut lo, mut hi) = (lo, hi);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if predicate(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Time::new(hi))
}

/// Baruah et al. feasibility bound `U/(1−U) · max(Tᵢ − Dᵢ)` (Def. 3),
/// rounded up.
///
/// Internally the bound is found as the smallest integer `L` with
/// `Σ Cᵢ·(L + max(Tⱼ − Dⱼ))/Tᵢ ≤ L`, which is algebraically the same
/// inequality but can be evaluated exactly with
/// [`fracs_le_integer`](crate::arith::fracs_le_integer) — no common
/// denominator of all periods is ever formed, so the computation cannot
/// overflow for realistic task sets.  The per-task inequality
/// `dbf(I, τ) ≤ Uτ·(I + (T − D))` holds for any periodic component
/// (offsets are folded into the first deadline), but not for one-shots.
///
/// Returns `None` when the bound is undefined: `U ≥ 1`, a one-shot
/// component, or every component has `D' ≥ T` (the bound degenerates to
/// zero; callers should rely on another bound).
#[must_use]
pub fn baruah_components(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() || components_exceed_one(components) {
        return None;
    }
    let mut max_diff = Time::ZERO;
    for component in components {
        let period = component.period()?; // one-shot: bound not applicable
        max_diff = max_diff.max(period.saturating_sub(component.first_deadline()));
    }
    if max_diff.is_zero() {
        return None;
    }
    smallest_satisfying(|l| baruah_predicate(components, max_diff, l))
}

/// George et al. feasibility bound `Σ_{Dᵢ≤Tᵢ} (1 − Dᵢ/Tᵢ)·Cᵢ / (1 − U)`,
/// rounded up.
///
/// Internally the bound is found as the smallest integer `L` with
/// `Σᵢ Cᵢ·L/Tᵢ + Σ_{Dᵢ≤Tᵢ} (Tᵢ − Dᵢ)·Cᵢ/Tᵢ ≤ L`, evaluated exactly with
/// [`fracs_le_integer`](crate::arith::fracs_le_integer).  Periodic
/// components contribute the `(T − D')·C/T` slack term (clamped at zero),
/// one-shot components a constant `C`.
///
/// The superposition bound of §4.3, the interval from which on the
/// all-approximated test can approximate every task and still stay below
/// the capacity, is `max(Dmax, George)`
/// ([`FeasibilityBounds::superposition`]); for `Cτ ≤ Dτ` it equals this
/// bound, which is the paper's point: the George bound is implied by —
/// and checked implicitly in — the new test.
///
/// Returns `None` when `U ≥ 1`.
#[must_use]
pub fn george_components(components: &[DemandComponent]) -> Option<Time> {
    if components.is_empty() || components_exceed_one(components) {
        return None;
    }
    let degenerate = components.iter().all(|c| match c.period() {
        Some(period) => c.first_deadline() >= period,
        None => false,
    });
    if degenerate {
        // The numerator is zero: any positive horizon works; report the
        // smallest deadline so the caller has a non-trivial bound.
        return components.iter().map(DemandComponent::first_deadline).min();
    }
    smallest_satisfying(|l| george_predicate(components, l))
}

/// Length of the synchronous processor busy period: the smallest fix-point
/// of `L = Σ ⌈L/Tᵢ⌉·Cᵢ` starting from `L₀ = Σ Cᵢ`.
///
/// Any EDF deadline miss of the synchronous arrival pattern happens inside
/// the first busy period, so its length is a valid feasibility bound.  The
/// synchronous-pattern argument is specific to the sporadic model, so this
/// returns `None` whenever a component is one-shot or released after the
/// window start, and when the iteration does not converge within 100 000
/// iterations (which happens for overloaded sets).
#[must_use]
pub fn busy_period_components(components: &[DemandComponent]) -> Option<Time> {
    if !synchronous_periodic(components) {
        return None;
    }
    let mut convergence = WorkBudget::limited(BUSY_PERIOD_CONVERGENCE_UNITS);
    let mut length = components
        .iter()
        .fold(Time::ZERO, |acc, c| acc.saturating_add(c.wcet()));
    loop {
        if !convergence.charge(1) {
            return None;
        }
        let next = components
            .iter()
            .fold(Time::ZERO, |acc, c| acc.saturating_add(c.rbf(length)));
        if next == length {
            return Some(length);
        }
        if next == Time::MAX {
            return None;
        }
        length = next;
    }
}

/// `lcm(Tᵢ) + max D'ᵢ`: a bound that is always valid (the demand pattern
/// of periodic components, offsets included, repeats with the lcm of the
/// cycles), but typically far larger than the others.  `None` if the
/// hyperperiod overflows, and for one-shot components, which break the
/// periodicity.
#[must_use]
pub fn hyperperiod_components(components: &[DemandComponent]) -> Option<Time> {
    hyperperiod_from(
        period_lcm(components),
        components.iter().map(DemandComponent::first_deadline).max(),
    )
}

/// Combines the two halves of the hyperperiod bound (`None` when either is
/// undefined or the sum overflows).
fn hyperperiod_from(period_lcm: Option<Time>, max_first_deadline: Option<Time>) -> Option<Time> {
    period_lcm?.checked_add(max_first_deadline?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::dbf_set;
    use crate::workload::{period_reciprocal, PreparedWorkload};
    use edf_model::{EventStream, EventStreamTask, Task};
    use proptest::prelude::*;

    fn t(c: u64, d: u64, p: u64) -> Task {
        Task::from_ticks(c, d, p).expect("valid task")
    }

    fn periodic(c: u64, d: u64, p: u64) -> DemandComponent {
        DemandComponent::periodic(Time::new(c), Time::new(d), Time::new(p))
    }

    fn reciprocals_of(components: &[DemandComponent]) -> Vec<Reciprocal> {
        components.iter().map(period_reciprocal).collect()
    }

    fn constrained_set() -> TaskSet {
        TaskSet::from_tasks(vec![t(2, 4, 10), t(3, 6, 15), t(4, 20, 40)])
    }

    #[test]
    fn baruah_matches_hand_computation() {
        let ts = constrained_set();
        // U = 0.2 + 0.2 + 0.1 = 0.5; max(T-D) = 20; bound = 0.5/0.5*20 = 20.
        assert_eq!(
            baruah_components(&ts.demand_components()),
            Some(Time::new(20))
        );
    }

    #[test]
    fn george_matches_hand_computation() {
        let ts = constrained_set();
        // numerator = (6/10)*2 + (9/15)*3 + (20/40)*4 = 1.2 + 1.8 + 2 = 5
        // bound = 5 / 0.5 = 10
        assert_eq!(
            george_components(&ts.demand_components()),
            Some(Time::new(10))
        );
    }

    #[test]
    fn george_never_exceeds_baruah() {
        // Known analytic relation for constrained-deadline sets.
        let sets = vec![
            constrained_set(),
            TaskSet::from_tasks(vec![t(1, 3, 8), t(2, 5, 12), t(3, 9, 30), t(1, 2, 5)]),
            TaskSet::from_tasks(vec![t(5, 10, 100), t(30, 80, 100)]),
        ];
        for ts in sets {
            let g = george_components(&ts.demand_components()).unwrap();
            let b = baruah_components(&ts.demand_components()).unwrap();
            assert!(g <= b, "George {g} must be <= Baruah {b}");
        }
    }

    #[test]
    fn implicit_deadline_set_bounds() {
        let ts = TaskSet::from_tasks(vec![t(1, 4, 4), t(1, 6, 6)]);
        // No task with D < T: Baruah degenerates.
        assert_eq!(baruah_components(&ts.demand_components()), None);
        // George falls back to the smallest deadline.
        assert_eq!(
            george_components(&ts.demand_components()),
            Some(Time::new(4))
        );
        assert_eq!(
            FeasibilityBounds::compute(&ts).superposition,
            Some(Time::new(6))
        );
        assert_eq!(
            busy_period_components(&ts.demand_components()),
            Some(Time::new(2))
        );
        assert_eq!(
            hyperperiod_components(&ts.demand_components()),
            Some(Time::new(12 + 6))
        );
    }

    #[test]
    fn overloaded_set_has_no_utilization_bounds() {
        let ts = TaskSet::from_tasks(vec![t(5, 5, 5), t(1, 10, 10)]);
        assert!(ts.utilization_exceeds_one());
        assert_eq!(baruah_components(&ts.demand_components()), None);
        assert_eq!(george_components(&ts.demand_components()), None);
        assert_eq!(FeasibilityBounds::compute(&ts).superposition, None);
        assert_eq!(
            busy_period_components(&ts.demand_components()),
            None,
            "busy period diverges"
        );
        // The hyperperiod bound still exists.
        assert!(hyperperiod_components(&ts.demand_components()).is_some());
        // And the combined horizon falls back to it.
        let all = FeasibilityBounds::compute(&ts);
        assert_eq!(
            all.analysis_horizon(),
            hyperperiod_components(&ts.demand_components())
        );
    }

    #[test]
    fn full_utilization_set() {
        let ts = TaskSet::from_tasks(vec![t(1, 2, 2), t(1, 2, 2)]);
        assert_eq!(baruah_components(&ts.demand_components()), None);
        // All deadlines are implicit, so no interval ever needs checking and
        // the George bound degenerates to the smallest deadline.
        assert_eq!(
            george_components(&ts.demand_components()),
            Some(Time::new(2))
        );
        // Busy period exists and equals 2 (the processor is never idle but
        // the fix-point converges at the hyperperiod).
        assert_eq!(
            busy_period_components(&ts.demand_components()),
            Some(Time::new(2))
        );
        assert!(FeasibilityBounds::compute(&ts).analysis_horizon().is_some());
    }

    #[test]
    fn busy_period_fixpoint_examples() {
        let ts = constrained_set();
        // L0 = 9; rbf(9) = 2+3+4 = 9 -> converges at 9.
        assert_eq!(
            busy_period_components(&ts.demand_components()),
            Some(Time::new(9))
        );

        let ts2 = TaskSet::from_tasks(vec![t(3, 5, 5), t(2, 10, 10)]);
        // L0=5, rbf(5)=3+2=5 ... converges at 5? rbf(5)=ceil(5/5)*3+ceil(5/10)*2=3+2=5. yes.
        assert_eq!(
            busy_period_components(&ts2.demand_components()),
            Some(Time::new(5))
        );
    }

    #[test]
    fn busy_period_dominates_any_violation() {
        // For feasible sets the busy period is a valid horizon: no violation
        // can exist beyond it. We check the weaker sanity property that dbf
        // never exceeds the interval after the busy period for this set.
        let ts = constrained_set();
        let bp = busy_period_components(&ts.demand_components()).unwrap();
        for i in bp.as_u64()..bp.as_u64() + 100 {
            assert!(dbf_set(&ts, Time::new(i)) <= Time::new(i));
        }
    }

    #[test]
    fn empty_set_has_no_bounds() {
        let ts = TaskSet::new();
        let all = FeasibilityBounds::compute(&ts);
        assert_eq!(all.baruah, None);
        assert_eq!(all.george, None);
        assert_eq!(all.busy_period, None);
        assert_eq!(all.hyperperiod, None);
        assert_eq!(all.superposition, None);
        assert_eq!(all.analysis_horizon(), None);
    }

    #[test]
    fn horizon_is_minimum_of_available_bounds() {
        let ts = constrained_set();
        let all = FeasibilityBounds::compute(&ts);
        let horizon = all.analysis_horizon().unwrap();
        for candidate in [
            all.baruah,
            all.george,
            all.busy_period,
            all.hyperperiod,
            all.superposition,
        ]
        .into_iter()
        .flatten()
        {
            assert!(horizon <= candidate);
        }
        assert_eq!(horizon, Time::new(9)); // busy period is tightest here
    }

    #[test]
    fn superposition_is_max_of_george_and_dmax() {
        let ts = constrained_set();
        assert_eq!(
            FeasibilityBounds::compute(&ts).superposition,
            Some(
                george_components(&ts.demand_components())
                    .unwrap()
                    .max(ts.max_deadline().unwrap())
            )
        );
    }

    #[test]
    fn bounds_are_safe_horizons_for_feasible_and_infeasible_sets() {
        // An infeasible constrained-deadline set: the first violation must
        // lie below every computed bound.
        let ts = TaskSet::from_tasks(vec![t(3, 4, 10), t(4, 6, 10), t(2, 5, 12)]);
        let mut first_violation = None;
        for i in 1..2_000u64 {
            if dbf_set(&ts, Time::new(i)) > Time::new(i) {
                first_violation = Some(Time::new(i));
                break;
            }
        }
        let violation = first_violation.expect("set is infeasible");
        let all = FeasibilityBounds::compute(&ts);
        for bound in [
            all.baruah,
            all.george,
            all.busy_period,
            all.hyperperiod,
            all.superposition,
        ]
        .into_iter()
        .flatten()
        {
            assert!(
                violation <= bound,
                "violation at {violation} must not exceed bound {bound}"
            );
        }
    }

    #[test]
    fn stream_workload_bounds_are_safe_horizons() {
        // A mixed workload: the George-style bound must dominate every
        // demand violation-free region boundary; check dbf <= I beyond the
        // horizon over a window.
        let stream = EventStreamTask::new(
            EventStream::bursty(3, Time::new(5), Time::new(100)),
            Time::new(4),
            Time::new(20),
        )
        .unwrap();
        let prepared = PreparedWorkload::new(&stream);
        let bounds = FeasibilityBounds::for_components(prepared.components());
        // Baruah and busy period do not apply to offset components.
        assert_eq!(bounds.busy_period, None);
        let george = bounds.george.expect("utilization far below 1");
        let hyper = bounds.hyperperiod.expect("purely periodic tuples");
        assert_eq!(hyper, Time::new(100 + 30));
        for i in george.as_u64()..george.as_u64() + 200 {
            assert!(prepared.dbf(Time::new(i)) <= Time::new(i));
        }
    }

    #[test]
    fn hinted_search_matches_cold_search_for_monotone_predicates() {
        for threshold in [1u64, 2, 3, 10, 57, 1_000, 1 << 40, BOUND_SEARCH_CAP] {
            let pred = |l: u64| l >= threshold;
            let cold = smallest_satisfying(pred);
            assert_eq!(cold, Some(Time::new(threshold)));
            assert_eq!(smallest_satisfying_hinted(pred, None), cold);
            for hint in [
                1u64,
                2,
                threshold.saturating_sub(7).max(1),
                threshold.saturating_sub(1).max(1),
                threshold,
                threshold.saturating_add(1),
                threshold.saturating_add(123),
                1 << 45,
                BOUND_SEARCH_CAP,
            ] {
                assert_eq!(
                    smallest_satisfying_hinted(pred, Some(Time::new(hint))),
                    cold,
                    "threshold {threshold}, hint {hint}"
                );
            }
        }
        // Unsatisfiable predicate: both searches report None.
        let never = |_: u64| false;
        assert_eq!(smallest_satisfying(never), None);
        for hint in [1u64, 100, BOUND_SEARCH_CAP] {
            assert_eq!(
                smallest_satisfying_hinted(never, Some(Time::new(hint))),
                None
            );
        }
    }

    #[test]
    fn one_shot_components_disable_periodic_bounds() {
        let components = vec![
            DemandComponent::periodic(Time::new(1), Time::new(4), Time::new(10)),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ];
        let bounds = FeasibilityBounds::for_components(&components);
        assert_eq!(bounds.baruah, None);
        assert_eq!(bounds.busy_period, None);
        assert_eq!(bounds.hyperperiod, None);
        // George absorbs the one-shot as a constant: L = 0.1·L + 0.6 + 2.
        let george = bounds.george.expect("defined");
        assert_eq!(george, Time::new(3)); // ceil(2.6 / 0.9) = 3
                                          // Safe: no violation at or beyond the bound for this workload.
        let prepared = PreparedWorkload::from_components(components);
        for i in george.as_u64()..george.as_u64() + 100 {
            assert!(prepared.dbf(Time::new(i)) <= Time::new(i));
        }
    }

    /// [`qpa_horizon`] on `components`, from `folds`.
    fn folded_qpa_horizon(components: &[DemandComponent], folds: &ComponentFolds) -> Option<Time> {
        qpa_horizon(
            components,
            &reciprocals_of(components),
            folds,
            components_exceed_one(components),
        )
    }

    /// The `(cost, period reciprocal)` pairs [`busy_period_below`] takes,
    /// in component order.
    fn costs_of(components: &[DemandComponent]) -> Vec<(Time, Reciprocal)> {
        components
            .iter()
            .map(|c| (c.wcet(), period_reciprocal(c)))
            .collect()
    }

    /// Both horizons of `components` against the reference: the QPA
    /// horizon from fresh folds and from `base`'s folds refolded to
    /// `components` (`base` has the same periods), and the analysis
    /// horizon of a cold preparation, which derives it from its QPA
    /// horizon.
    fn assert_horizons_match_reference(base: &[DemandComponent], components: &[DemandComponent]) {
        let reference = FeasibilityBounds::for_components(components);
        let fresh = ComponentFolds::of(components);
        assert_eq!(
            folded_qpa_horizon(components, &fresh),
            reference.qpa_horizon(),
            "{components:?}"
        );
        let mut refolded = ComponentFolds::of(base);
        refolded.refold(components);
        assert_eq!(
            folded_qpa_horizon(components, &refolded),
            reference.qpa_horizon(),
            "refolded {components:?}"
        );
        let prepared = PreparedWorkload::from_components(components.to_vec());
        assert_eq!(
            prepared.qpa_horizon(),
            reference.qpa_horizon(),
            "{components:?}"
        );
        assert_eq!(
            prepared.analysis_horizon(),
            reference.analysis_horizon(),
            "{components:?}"
        );
    }

    /// `base` with every cost scaled by `numer/denom`.
    fn scaled(base: &[DemandComponent], numer: u64, denom: u64) -> Vec<DemandComponent> {
        base.iter()
            .map(|c| {
                let mut c = *c;
                c.set_wcet(c.scaled_wcet(numer, denom));
                c
            })
            .collect()
    }

    #[test]
    fn edited_horizon_matches_cold_horizon() {
        const HUGE_A: u64 = 1 << 63;
        const HUGE_B: u64 = (1 << 63) - 1;
        // `p` and `q = p + 2` are odd, hence coprime, so `lcm(2p, 2q)`
        // overflows; at `U = 1` the busy-period iterates then rise by less
        // than `p + q` per step towards that lcm and are cut off first.
        let (p, q) = ((1u64 << 32) + 15, (1u64 << 32) + 17);
        let cut_off = vec![periodic(p, 2 * p - 1, 2 * p), periodic(q, 2 * q, 2 * q)];
        assert_eq!(busy_period_components(&cut_off), None);
        assert_eq!(hyperperiod_components(&cut_off), None);
        // The cut-off is foreseen: the QPA horizon skips the fix-point
        // and still answers what the reference does.
        assert!(busy_period_has_no_fixed_point(&cut_off));
        assert_eq!(
            folded_qpa_horizon(&cut_off, &ComponentFolds::of(&cut_off)),
            FeasibilityBounds::for_components(&cut_off).qpa_horizon()
        );

        // Busy period 9 below George 10, Baruah 20 and the hyperperiod.
        let busy_minimum = constrained_set().demand_components();
        let bounds = FeasibilityBounds::for_components(&busy_minimum);
        assert_eq!(bounds.busy_period, Some(Time::new(9)));
        assert!([
            bounds.baruah,
            bounds.george,
            bounds.hyperperiod,
            bounds.superposition
        ]
        .into_iter()
        .flatten()
        .all(|b| b > Time::new(9)));

        // George degenerates to the smallest deadline 3, while the busy
        // period is 6: the fix-point is abandoned at its first iterate 4.
        let early_exit = vec![periodic(2, 3, 3), periodic(2, 7, 7)];
        assert_eq!(george_components(&early_exit), Some(Time::new(3)));
        assert_eq!(busy_period_components(&early_exit), Some(Time::new(6)));
        let costs = costs_of(&early_exit);
        assert_eq!(
            busy_period_below(costs.iter().copied(), None),
            Some(Time::new(6))
        );
        assert_eq!(
            busy_period_below(costs.iter().copied(), Some(Time::new(3))),
            None
        );

        let cases = [
            ("empty", vec![]),
            (
                "one-shot",
                vec![
                    periodic(1, 4, 10),
                    DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
                ],
            ),
            ("all D >= T", vec![periodic(1, 12, 10), periodic(2, 8, 8)]),
            (
                "mixed D > T",
                vec![periodic(1, 15, 10), periodic(2, 3, 8), periodic(1, 20, 7)],
            ),
            (
                "U = 1",
                vec![periodic(1, 2, 2), periodic(1, 3, 4), periodic(1, 4, 4)],
            ),
            (
                "lcm overflow",
                vec![
                    periodic(1, HUGE_A / 2, HUGE_A),
                    periodic(1, HUGE_B - 9, HUGE_B),
                ],
            ),
            (
                "U > 1",
                vec![periodic(3, 4, 4), periodic(2, 5, 6), periodic(1, 9, 12)],
            ),
            (
                "U > 1, lcm overflow",
                vec![
                    periodic(HUGE_A / 2 + 1, HUGE_A, HUGE_A),
                    periodic(HUGE_B / 2 + 1, HUGE_B, HUGE_B),
                ],
            ),
            (
                "U > 1, one-shot",
                vec![
                    periodic(2, 3, 3),
                    periodic(2, 3, 3),
                    DemandComponent::one_shot(Time::new(1), Time::new(2), Time::ZERO),
                ],
            ),
            ("zero costs", vec![periodic(0, 3, 5), periodic(0, 7, 7)]),
            (
                "one zero cost",
                vec![periodic(0, 3, 5), periodic(2, 4, 10), periodic(1, 12, 12)],
            ),
            ("busy period cut off", cut_off),
            (
                "huge periods",
                vec![periodic(1, HUGE_A, HUGE_A), periodic(1, HUGE_B, HUGE_B)],
            ),
            ("busy period strict minimum", busy_minimum),
            ("early exit", early_exit),
            (
                "offsets",
                vec![
                    DemandComponent::periodic_from(
                        Time::new(2),
                        Time::new(4),
                        Time::new(10),
                        Time::new(3),
                    ),
                    periodic(3, 6, 15),
                ],
            ),
        ];
        for (name, components) in cases {
            assert_eq!(
                components_exceed_one(&components),
                name.starts_with("U > 1"),
                "{name}"
            );
            assert_horizons_match_reference(&components, &components);
        }

        // Lists that differ from a base only in costs (the `EditView`
        // cost edits) or only in phases (the `CandidateView` swaps): the
        // refolded base folds, which keep the base's period lcm, give the
        // same horizon as fresh folds and as the reference.
        let mut probes = Vec::new();
        let base = constrained_set().demand_components();
        let scalings = [
            (1, 1),
            (2, 1),
            (1, 2),
            (3, 1),
            (7, 2),
            (1, 10),
            (0, 1),
            (1, 1),
        ];
        for (numer, denom) in scalings {
            probes.push((base.clone(), scaled(&base, numer, denom)));
        }
        for extra in [0u64, 1, 3, 5, 30] {
            let mut perturbed = base.clone();
            let inflated = perturbed[1].wcet() + Time::new(extra);
            perturbed[1].set_wcet(inflated);
            probes.push((base.clone(), perturbed));
        }
        let mixed = vec![
            periodic(1, 4, 10),
            DemandComponent::one_shot(Time::new(2), Time::new(5), Time::ZERO),
        ];
        for wcet in [1u64, 2, 4, 9] {
            let mut perturbed = mixed.clone();
            perturbed[0].set_wcet(Time::new(wcet));
            probes.push((mixed.clone(), perturbed));
        }
        let phased = vec![
            DemandComponent::periodic_from(Time::new(2), Time::new(4), Time::new(10), Time::ZERO),
            DemandComponent::periodic_from(Time::new(3), Time::new(6), Time::new(15), Time::new(2)),
            DemandComponent::periodic_from(
                Time::new(4),
                Time::new(20),
                Time::new(40),
                Time::new(7),
            ),
        ];
        for offsets in [[0u64, 0, 0], [3, 9, 11], [9, 14, 39], [0, 14, 0], [5, 5, 5]] {
            let retimed = phased
                .iter()
                .zip(offsets)
                .map(|(c, offset)| {
                    let relative = c.first_deadline() - c.release_offset();
                    DemandComponent::periodic_from(
                        c.wcet(),
                        relative,
                        c.period().unwrap(),
                        Time::new(offset),
                    )
                })
                .collect();
            probes.push((phased.clone(), retimed));
        }
        for (base, probe) in probes {
            assert_horizons_match_reference(&base, &probe);
        }
    }

    /// [`busy_period_has_no_fixed_point`] holds only at exact `U = 1` with
    /// an overflowing lcm of the nonzero-cost periods; wherever it holds,
    /// the fix-point it replaces answers `None`.
    #[test]
    fn busy_period_fixed_point_predicate() {
        let (p, q) = ((1u64 << 32) + 15, (1u64 << 32) + 17);
        let cases = [
            (
                "U = 1, lcm overflow",
                vec![periodic(p, 2 * p, 2 * p), periodic(q, 2 * q, 2 * q)],
                true,
            ),
            (
                "U = 1, lcm defined",
                vec![periodic(1, 2, 2), periodic(1, 3, 4), periodic(1, 4, 4)],
                false,
            ),
            // Only zero-cost periods overflow the lcm: the busy period is 2.
            (
                "U = 1, zero-cost lcm overflow",
                vec![
                    periodic(1, 1, 2),
                    periodic(1, 2, 2),
                    periodic(0, p, p),
                    periodic(0, q, q),
                ],
                false,
            ),
            (
                "U < 1, lcm overflow",
                vec![periodic(p - 1, 2 * p, 2 * p), periodic(q, 2 * q, 2 * q)],
                false,
            ),
        ];
        for (name, components, expected) in cases {
            assert_eq!(
                busy_period_has_no_fixed_point(&components),
                expected,
                "{name}"
            );
            if expected {
                assert_eq!(busy_period_components(&components), None, "{name}");
            }
            assert_eq!(
                folded_qpa_horizon(&components, &ComponentFolds::of(&components)),
                FeasibilityBounds::for_components(&components).qpa_horizon(),
                "{name}"
            );
        }
    }

    /// The QPA horizon at its edges: `U > 1` reads the hyperperiod, `U ≤ 1`
    /// reads `min(George, hyperperiod)`, and only `U = 1` with an
    /// overflowing lcm falls back to the busy period — from fresh folds
    /// and from refolded ones, against the reference.
    #[test]
    fn qpa_horizon_matches_reference_at_the_edges() {
        let (p, q) = ((1u64 << 32) + 15, (1u64 << 32) + 17);
        let one_shot =
            |c: u64, d: u64| DemandComponent::one_shot(Time::new(c), Time::new(d), Time::ZERO);
        let cases: [(&str, Vec<DemandComponent>, Option<Time>); 9] = [
            // lcm 12 + max D' 9.
            (
                "U > 1",
                vec![periodic(3, 4, 4), periodic(2, 5, 6), periodic(1, 9, 12)],
                Some(Time::new(21)),
            ),
            (
                "U > 1, lcm overflow",
                vec![periodic(p, p, p), periodic(q, q, q)],
                None,
            ),
            // George is undefined at `U = 1`; lcm 4 + max D' 4.
            (
                "U = 1, lcm defined",
                vec![periodic(1, 2, 2), periodic(1, 3, 4), periodic(1, 4, 4)],
                Some(Time::new(8)),
            ),
            // The zero-cost components push the lcm past `u64` but leave
            // the fix-point `L = ⌈L/2⌉ + ⌈L/2⌉` at 2.
            (
                "U = 1, lcm overflow",
                vec![
                    periodic(1, 1, 2),
                    periodic(1, 2, 2),
                    periodic(0, p, p),
                    periodic(0, q, q),
                ],
                Some(Time::new(2)),
            ),
            // The busy-period iterates are cut off before converging.
            (
                "U = 1, lcm overflow, busy period cut off",
                vec![periodic(p, 2 * p - 1, 2 * p), periodic(q, 2 * q, 2 * q)],
                None,
            ),
            // George only: ⌈2.6 / 0.9⌉.
            (
                "one-shot",
                vec![periodic(1, 4, 10), one_shot(2, 5)],
                Some(Time::new(3)),
            ),
            (
                "one-shots only",
                vec![one_shot(2, 5), one_shot(3, 9)],
                Some(Time::new(5)),
            ),
            // `U = 0`: George is 1.
            (
                "zero costs",
                vec![periodic(0, 3, 5), periodic(0, 7, 7)],
                Some(Time::new(1)),
            ),
            ("empty", vec![], None),
        ];
        for (name, components, expected) in cases {
            let reference = FeasibilityBounds::for_components(&components);
            assert_eq!(reference.qpa_horizon(), expected, "{name}");
            if name == "U = 1, lcm overflow" {
                assert_eq!((reference.george, reference.hyperperiod), (None, None));
                assert_eq!(reference.busy_period, expected);
            }
            // A base with the same periods and every cost one higher.
            let base: Vec<DemandComponent> = components
                .iter()
                .map(|c| {
                    let mut c = *c;
                    c.set_wcet(c.wcet() + Time::ONE);
                    c
                })
                .collect();
            assert_horizons_match_reference(&base, &components);
        }
    }

    /// [`george_from_folds`] on `components` (which must have `U ≤ 1`).
    fn refreshed_george(components: &[DemandComponent]) -> Option<Time> {
        george_from_folds(
            components,
            &reciprocals_of(components),
            &ComponentFolds::of(components),
        )
    }

    /// The closed form on `components`, with the number of predicate
    /// evaluations it made.
    fn closed_form(components: &[DemandComponent]) -> (Result<Time, GeorgeFallback>, usize) {
        let reciprocals = reciprocals_of(components);
        let mut evaluations = 0;
        let read = george_closed_form(&ComponentFolds::of(components).george, |l| {
            evaluations += 1;
            george_predicate_rcp(components, &reciprocals, l)
        });
        (read, evaluations)
    }

    #[test]
    fn george_closed_form_takes_and_reports_each_branch() {
        const EXACT_LIMIT: u64 = 1 << 53;
        let one_shot = |c: u64| DemandComponent::one_shot(Time::new(c), Time::new(c), Time::ZERO);
        let cases = [
            // x = 2/3: the window holds no integer and 1 is certified.
            ("below one", vec![periodic(1, 3, 7)], Ok(Time::new(1)), 0),
            // x = (1.4 + 7/9)/(1 − 0.2 − 1/9) ≈ 3.16.
            (
                "certified ceiling",
                vec![periodic(2, 3, 10), periodic(1, 2, 9)],
                Ok(Time::new(4)),
                0,
            ),
            // x = 5/0.5 = 10 exactly: one evaluation at 10.
            (
                "integer estimate",
                constrained_set().demand_components(),
                Ok(Time::new(10)),
                1,
            ),
            (
                "period 2^53",
                vec![periodic(1, 3, EXACT_LIMIT), periodic(1, 2, 5)],
                Err(GeorgeFallback::InexactInputs),
                0,
            ),
            (
                "cost 2^53",
                vec![one_shot(EXACT_LIMIT), periodic(1, 2, 5)],
                Err(GeorgeFallback::InexactInputs),
                0,
            ),
            (
                "U = 1 - 1e-9",
                vec![periodic(999_999_999, 10, 1_000_000_000)],
                Err(GeorgeFallback::NearFullUtilization),
                0,
            ),
            (
                "U = 1",
                vec![periodic(1, 1, 2), periodic(1, 2, 2)],
                Err(GeorgeFallback::NearFullUtilization),
                0,
            ),
            // x = 2·(2⁵² + 0.5) ≈ 2⁵³.
            (
                "estimate past 2^52",
                vec![one_shot((1 << 52) - 1), periodic(1, 1, 2)],
                Err(GeorgeFallback::EstimateTooLarge),
                0,
            ),
            // x = 2⁴¹·256 = 2⁴⁹ with 1 − U = 2⁻⁸: the window spans about
            // 515 integers, and the two lowest fail the predicate.
            (
                "wide window",
                vec![one_shot(1 << 41), periodic(255, 256, 256)],
                Err(GeorgeFallback::Undecided),
                2,
            ),
        ];
        for (name, components, read, evaluations) in cases {
            assert!(!components_exceed_one(&components), "{name}");
            assert_eq!(closed_form(&components), (read, evaluations), "{name}");
            let oracle = george_components(&components);
            if let Ok(bound) = read {
                assert_eq!(Some(bound), oracle, "{name}");
            }
            assert_eq!(refreshed_george(&components), oracle, "{name}");
        }
    }

    /// A component list from one of the closed form's adversarial
    /// families, built from raw draws: `0` random periodic and one-shot
    /// components, `1` a common period near 10⁹ with `U = 1` or
    /// `U = 1 − 1/P`, `2` values at or above 2⁵³, `3` mostly one-shots,
    /// `4` every `D ≥ T`, `5` a common period with `N/(1 − U)` an exact
    /// integer, `6` a huge one-shot beside a near-full periodic load
    /// (estimates up to 2⁶⁰, so windows holding many integers
    /// and estimates past 2⁵²).
    fn george_family(family: u8, raw: &[(u64, u64, u64)], pick: u64) -> Vec<DemandComponent> {
        let n = raw.len() as u64;
        match family {
            0 | 3 => raw
                .iter()
                .map(|&(a, b, c)| {
                    if a % 4 == 0 || (family == 3 && a % 4 != 1) {
                        DemandComponent::one_shot(
                            Time::new(1 + b % 40),
                            Time::new(1 + c % 90),
                            Time::new(a % 30),
                        )
                    } else {
                        let period = 2 + c % 500;
                        let wcet = (period * (b % 100) / (100 * n)).max(1);
                        periodic(wcet, 1 + a % (2 * period), period)
                    }
                })
                .collect(),
            1 => {
                let period = 1_000_000_007 + pick % 1_000;
                let total = period - pick % 2;
                let weight: u64 = raw.iter().map(|&(_, b, _)| 1 + b).sum();
                let mut left = total;
                let mut components: Vec<DemandComponent> = raw
                    .iter()
                    .map(|&(a, b, _)| {
                        let wcet = (total * (1 + b) / weight).clamp(1, left.max(1));
                        left -= wcet.min(left);
                        periodic(wcet, 1 + a % (2 * period), period)
                    })
                    .collect();
                if left > 0 {
                    components.push(periodic(left, 1 + pick % period, period));
                }
                components
            }
            2 => raw
                .iter()
                .map(|&(a, b, c)| {
                    let period = (1 << 53) + c * (1 << 20);
                    let wcet = (period / (4 * n)) * (1 + b % 3) / 3;
                    periodic(wcet.max(1), 1 + a * (1 << 34), period)
                })
                .collect(),
            4 => raw
                .iter()
                .map(|&(a, b, c)| {
                    let period = 2 + c % 500;
                    periodic(
                        (period / n).max(1).min(1 + b % period),
                        period + a % period,
                        period,
                    )
                })
                .collect(),
            5 => {
                let period = 100 + pick % 10_000;
                let cap = (period / (2 * n)).max(1);
                let costs: Vec<u64> = raw.iter().map(|&(_, b, _)| 1 + b % cap).collect();
                let headroom = period - costs.iter().sum::<u64>();
                raw.iter()
                    .zip(costs)
                    .map(|(&(a, _, _), wcet)| {
                        let multiple = a % ((period - 1) / headroom + 1);
                        periodic(wcet, period - multiple * headroom, period)
                    })
                    .collect()
            }
            _ => {
                let mut components = vec![DemandComponent::one_shot(
                    Time::new((1 << (10 + pick % 43)) + pick % 1_000),
                    Time::new(1),
                    Time::ZERO,
                )];
                components.extend(raw.iter().map(|&(a, _, c)| {
                    let period = 256 + c % 256;
                    periodic((period - period / 128) / n, 1 + a % period, period)
                }));
                components
            }
        }
    }

    /// One periodic component with `D < T`, `D = T` or `D > T`, light
    /// enough that short lists often stay below `U = 1`.
    fn arb_periodic() -> impl Strategy<Value = DemandComponent> {
        (2u64..200, 1u64..=100, 0u64..3, 0u64..=100).prop_map(|(period, cost, shape, spread)| {
            let wcet = (period * cost / 400).max(1);
            let deadline = match shape {
                0 => wcet + (period - 1 - wcet) * spread / 100,
                1 => period,
                _ => period + period * spread / 50,
            };
            periodic(wcet, deadline.max(1), period)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn george_never_exceeds_baruah_on_periodic_lists(
            components in prop::collection::vec(arb_periodic(), 1..=6),
        ) {
            if let Some(baruah) = baruah_components(&components) {
                let george = george_components(&components);
                prop_assert!(
                    george.is_some_and(|g| g <= baruah),
                    "George {george:?} above Baruah {baruah} on {components:?}"
                );
            }
        }

        /// The closed-form George read (and the screened `U > 1` of the
        /// folds) against the plain binary search and the exact rational
        /// check, on every adversarial family.
        #[test]
        fn closed_form_george_matches_the_plain_search(
            family in 0u8..7,
            raw in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000), 1..=6),
            pick in 0u64..1_000_000,
        ) {
            let components = george_family(family, &raw, pick);
            let folds = ComponentFolds::of(&components);
            let cold_utilization: f64 = components.iter().map(DemandComponent::utilization).sum();
            prop_assert_eq!(folds.utilization().to_bits(), cold_utilization.to_bits());
            let exceeds_one = components_exceed_one(&components);
            prop_assert_eq!(folds.exceeds_one(&components), exceeds_one);
            if !exceeds_one {
                prop_assert_eq!(
                    refreshed_george(&components),
                    george_components(&components),
                    "family {} on {:?}",
                    family,
                    components
                );
            }
        }
    }
}

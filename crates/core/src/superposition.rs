//! The superposition approximation of the demand bound function
//! (Def. 4–5 of the paper) and the helper quantities of §4.
//!
//! The approximation examines only the first `x` jobs of each demand
//! component exactly (up to the *maximum test interval* `Im`, the
//! absolute deadline of the `x`-th job, see
//! [`DemandComponent::max_test_interval`]) and replaces the remaining
//! staircase by a line of slope `C/T` starting at `(Im, dbf(Im))`:
//!
//! ```text
//! dbf'(I, τ) = dbf(I, τ)                            for I ≤ Im(τ)
//!            = dbf(Im, τ) + C·(I − Im)/T            for I > Im(τ)
//! ```
//!
//! An [`ApproxTerm`] is one such line.  Def. 5 compares the real-valued
//! superposition of the lines and the exact part against the capacity in
//! exact rational arithmetic.  The tests of the superposition family —
//! `SuperPos(x)`, the dynamic-error and the all-approximated test — all
//! run on the shared engine of [`crate::refine`], which keeps the terms
//! and their sums incrementally and makes that comparison from them, so
//! the integer form of a line, with its linear part rounded up to
//! `⌈C·(I − Im)/T⌉`, is never needed.

use edf_model::Time;

use crate::arith::Reciprocal;
use crate::workload::DemandComponent;

/// The smallest approximation level whose relative demand error is bounded
/// by `epsilon` — the §4 discussion's target-error knob.
///
/// A demand source approximated after its `k`-th examined job over-counts
/// its demand by less than one job's cost, out of at least `k` exactly
/// accounted jobs, so its relative error is below `1/k`.  The level
/// guaranteeing a requested relative error `ε` is therefore `⌈1/ε⌉`
/// (clamped to at least 1; any `ε ≥ 1` is satisfied by level 1).  This is
/// the mapping behind the `from_target_error` constructors of
/// [`SuperpositionTest`](crate::tests::SuperpositionTest),
/// [`DynamicErrorTest`](crate::tests::DynamicErrorTest) and
/// [`AllApproximatedTest`](crate::tests::AllApproximatedTest).
///
/// # Panics
///
/// Panics if `epsilon` is not a positive finite number.
///
/// # Examples
///
/// ```
/// use edf_analysis::superposition::level_for_target_error;
///
/// assert_eq!(level_for_target_error(1.0), 1);
/// assert_eq!(level_for_target_error(0.5), 2);
/// assert_eq!(level_for_target_error(0.1), 10);
/// assert_eq!(level_for_target_error(0.3), 4); // ⌈1/0.3⌉
/// ```
#[must_use]
pub fn level_for_target_error(epsilon: f64) -> u64 {
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "target error must be a positive finite number"
    );
    if epsilon >= 1.0 {
        return 1;
    }
    let level = (1.0 / epsilon).ceil();
    if level >= u64::MAX as f64 {
        u64::MAX
    } else {
        (level as u64).max(1)
    }
}

/// One approximated demand source inside a demand comparison: the linear
/// slope parameters (`C`, `T`) and the interval `Im` from which the demand
/// is approximated linearly.
///
/// The term is model-agnostic — built from any periodic
/// [`DemandComponent`] ([`ApproxTerm::for_component`]), which is how the
/// superposition machinery serves every workload model.  One-shot
/// components are never approximated (their demand is constant beyond the
/// single deadline, so keeping them exact is free).
#[derive(Debug, Clone, Copy)]
pub struct ApproxTerm {
    /// Cost per job — the numerator of the approximation slope `C/T`.
    pub wcet: Time,
    /// Job distance — the denominator of the approximation slope `C/T`.
    pub period: Time,
    /// Start of the approximation (`dbf` is exact up to and including `Im`).
    pub im: Time,
    /// Exact demand `dbf(Im, τ)` of the source at `Im`.
    pub dbf_at_im: Time,
    /// Precomputed reciprocal of `period`: the refining tests keep terms
    /// alive across many comparisons, so each comparison divides by the
    /// period via two multiplies instead of a hardware division.
    pub(crate) rcp: Reciprocal,
}

impl ApproxTerm {
    /// The approximation term of a periodic demand component.
    ///
    /// # Panics
    ///
    /// Panics if the component is one-shot — one-shots have no linear tail
    /// and must stay exact.
    #[must_use]
    pub fn for_component(component: &DemandComponent, im: Time, dbf_at_im: Time) -> Self {
        let period = component
            .period()
            .expect("one-shot components are never approximated");
        ApproxTerm {
            wcet: component.wcet(),
            period,
            im,
            dbf_at_im,
            rcp: Reciprocal::new(period.as_u64()),
        }
    }

    /// [`ApproxTerm::for_component`] with an already-computed period
    /// reciprocal.  The refining tests read every periodic component's
    /// reciprocal from the prepared workload, which derives it once, so
    /// re-approximating a popped interval costs no `u128` division.
    ///
    /// # Panics
    ///
    /// Panics if the component is one-shot; debug assertions also check
    /// that `rcp` really is the reciprocal of the component's period.
    #[must_use]
    pub(crate) fn with_reciprocal(
        component: &DemandComponent,
        im: Time,
        dbf_at_im: Time,
        rcp: Reciprocal,
    ) -> Self {
        let period = component
            .period()
            .expect("one-shot components are never approximated");
        debug_assert_eq!(
            rcp,
            Reciprocal::new(period.as_u64()),
            "cached reciprocal must match the component period"
        );
        ApproxTerm {
            wcet: component.wcet(),
            period,
            im,
            dbf_at_im,
            rcp,
        }
    }

    /// The pre-divided linear part `(⌊C·δ/T⌋, C·δ mod T, T)` of this term
    /// at `interval` (`δ = interval − Im`), or `None` when the linear part
    /// is still zero — computed through the precomputed reciprocal
    /// whenever the numerator fits `u64` (virtually always).
    #[inline]
    pub(crate) fn linear_parts(&self, interval: Time) -> Option<(u128, u128, u128)> {
        let delta = interval.saturating_sub(self.im);
        if delta.is_zero() {
            return None;
        }
        let num = self.wcet.as_u128() * delta.as_u128();
        Some(self.rcp.divided_parts(num, self.period.as_u64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ceil_div_u128;

    fn c(wcet: u64, deadline: u64, period: u64) -> DemandComponent {
        DemandComponent::periodic(Time::new(wcet), Time::new(deadline), Time::new(period))
    }

    /// The ceiling-division linear part `⌈C·(interval − Im)/T⌉` of `term`,
    /// clamped to the `Time` range, from the pre-divided parts the
    /// refining engine compares.
    fn ceil_linear(term: &ApproxTerm, interval: Time) -> Time {
        let Some((quotient, remainder, _)) = term.linear_parts(interval) else {
            return Time::ZERO;
        };
        let value = quotient + u128::from(remainder != 0);
        Time::new(value.min(u128::from(u64::MAX)) as u64)
    }

    /// Def. 4 on one component in its integer (ceiling) form, through the
    /// term API the refining engine uses.
    fn dbf_approx(component: &DemandComponent, level: u64, interval: Time) -> Time {
        let im = component.max_test_interval(level);
        if interval <= im || component.period().is_none() {
            return component.dbf(interval);
        }
        let term = ApproxTerm::for_component(component, im, component.dbf(im));
        term.dbf_at_im.saturating_add(ceil_linear(&term, interval))
    }

    #[test]
    fn max_test_interval_is_kth_deadline() {
        let tau = c(2, 7, 10);
        for level in 1..=10u64 {
            assert_eq!(
                tau.max_test_interval(level),
                Time::new(7 + 10 * (level - 1))
            );
        }
    }

    #[test]
    #[should_panic]
    fn level_zero_is_rejected() {
        let _ = c(1, 2, 3).max_test_interval(0);
    }

    #[test]
    fn target_error_level_mapping() {
        for (epsilon, level) in [
            (2.0, 1),
            (1.0, 1),
            (0.5, 2),
            (0.34, 3),
            (0.25, 4),
            (0.2, 5),
            (0.125, 8),
            (0.1, 10),
            (0.01, 100),
        ] {
            assert_eq!(level_for_target_error(epsilon), level, "epsilon {epsilon}");
        }
        // The derived level always meets the requested error: 1/level ≤ ε.
        for epsilon in [0.9, 0.51, 0.3, 0.17, 0.003] {
            let level = level_for_target_error(epsilon);
            assert!(1.0 / level as f64 <= epsilon + 1e-12, "epsilon {epsilon}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_target_error_is_rejected() {
        let _ = level_for_target_error(0.0);
    }

    #[test]
    #[should_panic]
    fn nan_target_error_is_rejected() {
        let _ = level_for_target_error(f64::NAN);
    }

    #[test]
    fn approx_equals_exact_below_border() {
        let tau = c(3, 5, 12);
        for level in 1..=4u64 {
            let im = tau.max_test_interval(level);
            for i in 0..=im.as_u64() {
                let i = Time::new(i);
                assert_eq!(
                    dbf_approx(&tau, level, i),
                    tau.dbf(i),
                    "level {level}, I = {i}"
                );
            }
        }
    }

    #[test]
    fn approx_dominates_exact_everywhere() {
        let tau = c(3, 5, 12);
        for level in 1..=5u64 {
            for i in 0..300u64 {
                let i = Time::new(i);
                assert!(
                    dbf_approx(&tau, level, i) >= tau.dbf(i),
                    "dbf' must over-approximate dbf (level {level}, I = {i})"
                );
            }
        }
    }

    #[test]
    fn approx_overestimate_is_below_one_job() {
        // The ceiling-division over-estimate stays strictly below C + 1 per
        // task (C from the real-valued superposition bound, +1 from ceiling).
        let tau = c(4, 6, 15);
        for level in 1..=3u64 {
            for i in 0..400u64 {
                let i = Time::new(i);
                let err = dbf_approx(&tau, level, i).saturating_sub(tau.dbf(i));
                assert!(err <= tau.wcet(), "error {err} at level {level}, I = {i}");
            }
        }
    }

    #[test]
    fn higher_level_is_tighter() {
        let tau = c(3, 5, 12);
        for i in 0..400u64 {
            let i = Time::new(i);
            for level in 1..=6u64 {
                assert!(
                    dbf_approx(&tau, level + 1, i) <= dbf_approx(&tau, level, i),
                    "raising the level can only tighten the approximation"
                );
            }
        }
    }

    #[test]
    fn approx_is_monotone_in_interval() {
        let tau = c(2, 9, 10);
        for level in 1..=3u64 {
            for i in 0..200u64 {
                assert!(
                    dbf_approx(&tau, level, Time::new(i + 1))
                        >= dbf_approx(&tau, level, Time::new(i))
                );
            }
        }
    }

    #[test]
    fn set_approx_is_superposition_of_tasks() {
        // Def. 5 sums the per-component Def. 4 lines (scaled by
        // lcm(T) = 60, the real-valued sum is an integer).  The integer
        // form of each line rounds up by less than one unit.
        let set = [c(1, 3, 6), c(2, 5, 10), c(3, 12, 20)];
        let level = 2;
        for i in 0..150u64 {
            let interval = Time::new(i);
            let (mut real_60, mut integer) = (0u64, 0u64);
            for component in &set {
                let im = component.max_test_interval(level);
                integer += dbf_approx(component, level, interval).as_u64();
                if interval <= im {
                    real_60 += 60 * component.dbf(interval).as_u64();
                } else {
                    let period = component.period().expect("periodic").as_u64();
                    real_60 += 60 * component.dbf(im).as_u64()
                        + component.wcet().as_u64() * (i - im.as_u64()) * (60 / period);
                }
            }
            assert!(
                60 * integer >= real_60 && 60 * integer < real_60 + 60 * 3,
                "I = {i}"
            );
        }
    }

    #[test]
    fn approx_contribution_at_start_is_exact() {
        let tau = c(3, 5, 12);
        let im = Time::new(17); // deadline of 2nd job
        let term = ApproxTerm::for_component(&tau, im, tau.dbf(im));
        assert_eq!(ceil_linear(&term, im), Time::ZERO);
        assert_eq!(term.linear_parts(im), None);
        assert_eq!(dbf_approx(&tau, 2, im), tau.dbf(im));
    }

    #[test]
    fn term_ceil_linear_matches_wide_ceiling() {
        let tau = c(3, 5, 12);
        let im = tau.max_test_interval(2);
        let term = ApproxTerm::for_component(&tau, im, tau.dbf(im));
        for i in im.as_u64()..im.as_u64() + 150 {
            let expected = ceil_div_u128(3 * u128::from(i - im.as_u64()), 12);
            assert_eq!(
                ceil_linear(&term, Time::new(i)).as_u128(),
                expected,
                "I = {i}"
            );
        }
        // A cost·delta product past `u64` stays exact in `u128`, and a
        // quotient past `u64` clamps to the `Time` range.
        let wide = c(u64::MAX, 1, u64::MAX);
        let wide_term = ApproxTerm::for_component(&wide, Time::new(1), Time::new(u64::MAX));
        assert_eq!(ceil_linear(&wide_term, Time::MAX), Time::new(u64::MAX - 1));
        let steep = c(u64::MAX, 1, 1);
        let steep_term = ApproxTerm::for_component(&steep, Time::new(1), Time::new(u64::MAX));
        assert_eq!(ceil_linear(&steep_term, Time::MAX), Time::MAX);
    }

    #[test]
    fn with_reciprocal_matches_for_component() {
        let component = DemandComponent::periodic(Time::new(3), Time::new(5), Time::new(12));
        let rcp = Reciprocal::new(12);
        let a = ApproxTerm::for_component(&component, Time::new(5), Time::new(3));
        let b = ApproxTerm::with_reciprocal(&component, Time::new(5), Time::new(3), rcp);
        for i in 5..120u64 {
            let i = Time::new(i);
            assert_eq!(a.linear_parts(i), b.linear_parts(i), "I = {i}");
        }
    }

    #[test]
    fn ceiling_variant_matches_real_value_at_multiples() {
        // When (I - Im) is a multiple of T the ceiling and the real-valued
        // approximation coincide, and both equal the exact dbf at the next
        // deadline position.
        let tau = c(4, 7, 9);
        let im = tau.max_test_interval(1);
        for k in 1..10u64 {
            let i = im + Time::new(9 * k);
            let approx = dbf_approx(&tau, 1, i);
            assert_eq!(approx, tau.dbf(im) + Time::new(4 * k));
            assert_eq!(approx, tau.dbf(i));
        }
    }
}

//! The exact superposition comparison (Def. 5), as the [`crate::refine`]
//! loops evaluate it.
//!
//! An [`ApproxTerm`] is the line `dbf(Im) + C·(I − Im)/T` that replaces a
//! component's demand staircase beyond its maximum test interval `Im`.
//! [`approx_demand_within`] decides the real-valued sum of such lines in
//! exact rational arithmetic.

use edf_analysis::arith::fracs_le_integer_iter;
use edf_analysis::superposition::ApproxTerm;
use edf_model::Time;

/// Exactly decides whether the approximated demand
/// `exact_demand + Σⱼ [dbf(Imⱼ, τⱼ) + Cⱼ·(I − Imⱼ)/Tⱼ]` stays within the
/// capacity `interval`, evaluating the real-valued linear terms with exact
/// rational arithmetic (no ceiling pessimism).
///
/// Returns `true` when the demand is certainly within the capacity.  In
/// the (astronomically rare) case where even the remainder-based rational
/// comparison overflows, the answer degrades conservatively to `false`,
/// which at worst triggers one extra refinement — never a wrong verdict.
#[must_use]
pub fn approx_demand_within(
    exact_demand: Time,
    approx_terms: &[ApproxTerm],
    interval: Time,
) -> bool {
    let mut base = exact_demand.as_u128();
    for term in approx_terms {
        debug_assert!(
            interval >= term.im,
            "approximation queried before its start"
        );
        base += term.dbf_at_im.as_u128();
    }
    let capacity = interval.as_u128();
    if base > capacity {
        return false;
    }
    fracs_le_integer_iter(
        approx_terms.iter().filter_map(|term| {
            let delta = interval.saturating_sub(term.im);
            (!delta.is_zero())
                .then(|| (term.wcet.as_u128() * delta.as_u128(), term.period.as_u128()))
        }),
        capacity - base,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edf_analysis::workload::DemandComponent;

    fn c(wcet: u64, deadline: u64, period: u64) -> DemandComponent {
        DemandComponent::periodic(Time::new(wcet), Time::new(deadline), Time::new(period))
    }

    #[test]
    fn approx_demand_within_matches_real_valued_superposition() {
        // τ = (3, 5, 12) approximated from its first deadline (Im = 5):
        // real-valued dbf'(I) = 3 + 3·(I − 5)/12.
        let term = ApproxTerm::for_component(&c(3, 5, 12), Time::new(5), Time::new(3));
        for i in 5..200u64 {
            let real = 3.0 + 3.0 * (i as f64 - 5.0) / 12.0;
            let within = approx_demand_within(Time::ZERO, &[term], Time::new(i));
            assert_eq!(within, real <= i as f64, "I = {i}");
        }
    }

    #[test]
    fn approx_demand_within_includes_exact_part() {
        let term = ApproxTerm::for_component(&c(2, 4, 10), Time::new(4), Time::new(2));
        // Demand at I = 12 is exact + dbf(4) + 2*(12-4)/10 = exact + 3.6.
        assert!(approx_demand_within(Time::new(8), &[term], Time::new(12)));
        assert!(!approx_demand_within(Time::new(9), &[term], Time::new(12)));
        // No approximated tasks at all: plain integer comparison.
        assert!(approx_demand_within(Time::new(12), &[], Time::new(12)));
        assert!(!approx_demand_within(Time::new(13), &[], Time::new(12)));
    }

    #[test]
    fn approx_demand_within_decides_the_real_valued_set_sum() {
        // Def. 5 over a whole set: scaled by lcm(T) = 60, the real-valued
        // sum of the exact parts and the lines is an integer, so the
        // comparison must agree with integer arithmetic at every interval.
        let set = [c(1, 3, 6), c(2, 5, 10), c(3, 12, 20)];
        let level = 2;
        for i in 0..150u64 {
            let interval = Time::new(i);
            let mut exact = Time::ZERO;
            let mut terms = Vec::new();
            let mut real_60 = 0u64;
            for component in &set {
                let im = component.max_test_interval(level);
                if interval <= im {
                    exact += component.dbf(interval);
                    real_60 += 60 * component.dbf(interval).as_u64();
                } else {
                    terms.push(ApproxTerm::for_component(component, im, component.dbf(im)));
                    let period = component.period().expect("periodic").as_u64();
                    real_60 += 60 * component.dbf(im).as_u64()
                        + component.wcet().as_u64() * (i - im.as_u64()) * (60 / period);
                }
            }
            assert_eq!(
                approx_demand_within(exact, &terms, interval),
                real_60 <= 60 * i,
                "I = {i}"
            );
        }
    }
}

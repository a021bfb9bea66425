//! Exact analysis of offset-transaction systems via critical-instant
//! candidates.
//!
//! The demand of an offset [`Transaction`] in a window of length `I` is
//! maximized when the window starts at the release of one of its parts
//! (the *critical-instant candidates*); anchoring at part `c` shifts part
//! `j` to phase `(oⱼ − o_c) mod T`.  Transactions release independently of
//! each other, so the system's demand bound is
//!
//! ```text
//! dbf(I) = Σ_sporadic dbf(I)  +  Σ_tr max_c dbf_tr,c(I)
//! ```
//!
//! and `dbf(I) ≤ I` for all `I` holds **iff it holds for every
//! combination** of per-transaction candidates.  Each combination is an
//! ordinary component list, so the unchanged feasibility tests analyze it
//! through [`FeasibilityTest::analyze_prepared`] — no per-test
//! special-casing, which is the point of the [`Workload`] abstraction.
//! The combination count is the product of the transaction sizes
//! ([`TransactionSystem::candidate_count`]).
//!
//! [`analyze_transaction_system`] runs the product through the
//! [`candidate engine`](crate::candidates): dominance-pruned candidate
//! sets, a density screen, Gray-code incremental re-preparation and a
//! parallel early-exit sweep — see that module for how each layer stays
//! verdict-preserving.  [`exhaustive_transaction_check`] pushes every
//! combination of the full product, in [`CombinationIter`] order, through
//! the naive exhaustive demand sweep as an independent oracle.
//!
//! The plain [`Workload`] impl of [`TransactionSystem`] is the synchronous
//! conservative over-approximation (offsets dropped); use it when even the
//! pruned candidate product is too large and a sufficient answer is
//! enough.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::tests::ProcessorDemandTest;
//! use edf_analysis::transactions::analyze_transaction_system;
//! use edf_analysis::{FeasibilityTest, Verdict, Workload};
//! use edf_model::{TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
//!
//! # fn main() -> Result<(), edf_model::TransactionError> {
//! // Two heavy parts that are feasible *because* their offsets keep them
//! // apart: the synchronous over-approximation cannot prove feasibility
//! // (its rejection is demoted to unknown), the candidate-exact analysis
//! // accepts.
//! let transaction = Transaction::new(
//!     Time::new(20),
//!     vec![
//!         TransactionPart::new(Time::new(0), Time::new(4), Time::new(4)),
//!         TransactionPart::new(Time::new(10), Time::new(4), Time::new(4)),
//!     ],
//! )?;
//! let system = TransactionSystem::new(TaskSet::new(), vec![transaction]);
//! let test = ProcessorDemandTest::new();
//! assert_eq!(test.analyze_workload(&system).verdict, Verdict::Unknown);
//! assert_eq!(analyze_transaction_system(&test, &system).verdict, Verdict::Feasible);
//! # Ok(())
//! # }
//! ```

use edf_model::{Time, Transaction, TransactionSystem};

use crate::analysis::{Analysis, FeasibilityTest, Verdict};
use crate::candidates;
use crate::exhaustive::exhaustive_check;
use crate::workload::{DemandComponent, PreparedWorkload, Workload};

/// The component list of one critical-instant candidate of a transaction:
/// part `j` at phase `(oⱼ − o_candidate) mod T`, repeating every period.
///
/// # Panics
///
/// Panics if `candidate` is out of range.
#[must_use]
pub fn candidate_components(transaction: &Transaction, candidate: usize) -> Vec<DemandComponent> {
    assert!(
        candidate < transaction.candidate_count(),
        "candidate index out of range"
    );
    transaction
        .parts()
        .iter()
        .enumerate()
        .map(|(part, p)| {
            DemandComponent::periodic_from(
                p.wcet(),
                p.deadline(),
                transaction.period(),
                transaction.candidate_phase(candidate, part),
            )
        })
        .collect()
}

/// The component list of one candidate *combination* (`choice[i]` picks
/// the candidate of transaction `i`), including the sporadic tasks.
///
/// # Panics
///
/// Panics if `choice` has the wrong length or an index is out of range.
#[must_use]
pub fn combination_components(
    system: &TransactionSystem,
    choice: &[usize],
) -> Vec<DemandComponent> {
    assert_eq!(
        choice.len(),
        system.transactions().len(),
        "one candidate index per transaction"
    );
    let mut components = Workload::demand_components(system.sporadic());
    for (transaction, &candidate) in system.transactions().iter().zip(choice) {
        components.extend(candidate_components(transaction, candidate));
    }
    components
}

/// Iterator over every candidate combination of a system in lexicographic
/// order (the last transaction's candidate varies fastest).
///
/// The counter advances one digit in place, and the only allocation per
/// step is the `Vec` this iterator must hand out by its signature.  The
/// candidate engine walks its own Gray-code order and never materializes
/// choice vectors; this type drives [`exhaustive_transaction_check`] and
/// serves callers that want to drive the enumeration themselves.
///
/// # Examples
///
/// ```
/// use edf_analysis::transactions::CombinationIter;
/// use edf_model::{TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
///
/// # fn main() -> Result<(), edf_model::TransactionError> {
/// let tr = |offsets: &[u64]| {
///     Transaction::new(
///         Time::new(10),
///         offsets
///             .iter()
///             .map(|&o| TransactionPart::new(Time::new(o), Time::new(1), Time::new(3)))
///             .collect(),
///     )
/// };
/// let system = TransactionSystem::new(TaskSet::new(), vec![tr(&[0, 4])?, tr(&[0, 3, 6])?]);
/// assert_eq!(CombinationIter::new(&system).count(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CombinationIter {
    radices: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl CombinationIter {
    /// Starts the enumeration at the all-zero combination.
    #[must_use]
    pub fn new(system: &TransactionSystem) -> Self {
        let radices: Vec<usize> = system
            .transactions()
            .iter()
            .map(Transaction::candidate_count)
            .collect();
        CombinationIter {
            current: vec![0; radices.len()],
            radices,
            done: false,
        }
    }
}

impl Iterator for CombinationIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let item = self.current.clone();
        self.done = !advance_lex(&mut self.current, &self.radices);
        Some(item)
    }
}

/// Advances `digits` to the lexicographic successor under `radices` (the
/// **last** digit varies fastest, the [`CombinationIter`] order); returns
/// `false` when `digits` was the last combination.
fn advance_lex(digits: &mut [usize], radices: &[usize]) -> bool {
    debug_assert_eq!(digits.len(), radices.len());
    for (digit, &radix) in digits.iter_mut().zip(radices).rev() {
        *digit += 1;
        if *digit < radix {
            return true;
        }
        *digit = 0;
    }
    false
}

/// Runs `test` on every candidate combination of `system` and combines the
/// verdicts: the system is feasible iff **every** combination is.
///
/// The sweep runs through the [`candidate engine`](crate::candidates):
/// dominance-pruned candidate sets and a density screen (both engaged only
/// for exact tests, where they are verdict-preserving), Gray-code
/// incremental re-preparation, and a parallel early-exit fan-out for large
/// pruned products.  The enumeration stops at the first infeasible
/// combination (its overload witness is reported; use
/// [`crate::candidates::analyze`] directly to also obtain the witnessing
/// combination); an inconclusive combination demotes a feasible outcome to
/// [`Verdict::Unknown`].  Iterations are summed over the combinations
/// examined, counting a screen-decided combination as one.  With an exact
/// test the result is the exact verdict of the offset-transaction system;
/// with a sufficient test it is sufficient.
#[must_use]
pub fn analyze_transaction_system(
    test: &(impl FeasibilityTest + Sync + ?Sized),
    system: &TransactionSystem,
) -> Analysis {
    candidates::analyze(test, system).analysis
}

/// The exhaustive reference oracle for transaction systems: every
/// candidate combination is checked by the naive
/// [`exhaustive_check`] sweep.  Deliberately slow; exists to
/// cross-validate [`analyze_transaction_system`] on small systems.
#[must_use]
pub fn exhaustive_transaction_check(system: &TransactionSystem) -> Analysis {
    let mut iterations: u64 = 0;
    let mut max_examined: Option<Time> = None;
    let mut all_decisive = true;
    for choice in CombinationIter::new(system) {
        let prepared = PreparedWorkload::from_components(combination_components(system, &choice));
        let analysis = exhaustive_check(&prepared);
        iterations += analysis.iterations;
        max_examined = max_examined.max(analysis.max_examined_interval);
        match analysis.verdict {
            Verdict::Infeasible => {
                return Analysis {
                    verdict: Verdict::Infeasible,
                    iterations,
                    max_examined_interval: max_examined,
                    overload: analysis.overload,
                    progress: None,
                };
            }
            Verdict::Unknown => all_decisive = false,
            Verdict::Feasible => {}
        }
    }
    Analysis {
        verdict: if all_decisive {
            Verdict::Feasible
        } else {
            Verdict::Unknown
        },
        iterations,
        max_examined_interval: max_examined,
        overload: None,
        progress: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BoxedTest;
    use crate::tests::{DeviTest, ProcessorDemandTest, QpaTest};
    use edf_model::{Task, TaskSet, TransactionPart};

    fn part(o: u64, c: u64, d: u64) -> TransactionPart {
        TransactionPart::new(Time::new(o), Time::new(c), Time::new(d))
    }

    fn tr(period: u64, parts: Vec<TransactionPart>) -> Transaction {
        Transaction::new(Time::new(period), parts).expect("valid transaction")
    }

    #[test]
    fn candidate_components_rephase_the_parts() {
        let t = tr(20, vec![part(0, 2, 5), part(8, 3, 6)]);
        let anchored_at_1 = candidate_components(&t, 1);
        assert_eq!(anchored_at_1.len(), 2);
        // Part 1 sits at the window start, part 0 wraps to phase 12.
        assert_eq!(anchored_at_1[0].release_offset(), Time::new(12));
        assert_eq!(anchored_at_1[0].first_deadline(), Time::new(17));
        assert_eq!(anchored_at_1[1].release_offset(), Time::ZERO);
        assert_eq!(anchored_at_1[1].first_deadline(), Time::new(6));
    }

    #[test]
    fn combinations_cover_the_product() {
        let system = TransactionSystem::new(
            TaskSet::new(),
            vec![
                tr(10, vec![part(0, 1, 3), part(4, 1, 3)]),
                tr(15, vec![part(0, 1, 4), part(5, 1, 4), part(9, 1, 4)]),
            ],
        );
        let combos: Vec<Vec<usize>> = CombinationIter::new(&system).collect();
        assert_eq!(combos.len(), system.candidate_count());
        assert_eq!(combos.len(), 6);
        let mut unique = combos.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 6);
        assert_eq!(CombinationIter::new(&system).count(), 6);
    }

    #[test]
    fn no_transactions_means_one_empty_combination() {
        let sporadic = TaskSet::from_tasks(vec![Task::from_ticks(1, 4, 8).unwrap()]);
        let system = TransactionSystem::new(sporadic.clone(), vec![]);
        let test = ProcessorDemandTest::new();
        assert_eq!(
            analyze_transaction_system(&test, &system).verdict,
            test.analyze(&sporadic).verdict
        );
        let empty = TransactionSystem::new(TaskSet::new(), vec![]);
        assert_eq!(
            analyze_transaction_system(&test, &empty).verdict,
            Verdict::Feasible
        );
    }

    #[test]
    fn offsets_can_rescue_a_synchronously_infeasible_system() {
        // Two 4/4 parts 10 apart in a period of 20: feasible thanks to the
        // offsets; the synchronous over-approximation cannot tell (its
        // internal rejection is demoted to Unknown, never Infeasible).
        let system = TransactionSystem::new(
            TaskSet::new(),
            vec![tr(20, vec![part(0, 4, 4), part(10, 4, 4)])],
        );
        let test = ProcessorDemandTest::new();
        assert_eq!(
            test.analyze_workload(&system).verdict,
            Verdict::Unknown,
            "pessimistic rejection must be demoted, not reported as Infeasible"
        );
        assert_eq!(
            analyze_transaction_system(&test, &system).verdict,
            Verdict::Feasible
        );
        assert_eq!(
            exhaustive_transaction_check(&system).verdict,
            Verdict::Feasible
        );
    }

    #[test]
    fn overutilized_systems_stay_infeasible_even_on_the_synchronous_path() {
        // U = 1.2 regardless of offsets, so the cheap synchronous path may
        // (and should) keep its definitive rejection: dropping offsets
        // preserves utilization.
        let system = TransactionSystem::new(
            TaskSet::new(),
            vec![tr(10, vec![part(0, 6, 6), part(5, 6, 6)])],
        );
        let test = ProcessorDemandTest::new();
        assert_eq!(test.analyze_workload(&system).verdict, Verdict::Infeasible);
        assert_eq!(
            analyze_transaction_system(&test, &system).verdict,
            Verdict::Infeasible
        );
        // U > 1 is combination-invariant, so the candidate engine rejects at
        // the first combination even when the product is 12^8.
        let wide = tr(24, (0..12).map(|o| part(2 * o, 1, 2)).collect());
        let huge = TransactionSystem::new(TaskSet::new(), vec![wide; 8]);
        assert!(huge.utilization() > 1.0);
        assert_eq!(
            analyze_transaction_system(&QpaTest::new(), &huge).verdict,
            Verdict::Infeasible
        );
    }

    #[test]
    fn genuinely_infeasible_systems_are_rejected_with_a_witness() {
        // U = 1 exactly, so the trivial utilization exit does not fire;
        // the demand violation at I = 3 must be found and witnessed.
        let system = TransactionSystem::new(
            TaskSet::from_tasks(vec![Task::from_ticks(2, 2, 8).unwrap()]),
            vec![tr(8, vec![part(0, 3, 3), part(4, 3, 3)])],
        );
        let analysis = analyze_transaction_system(&ProcessorDemandTest::new(), &system);
        assert_eq!(analysis.verdict, Verdict::Infeasible);
        let overload = analysis.overload.expect("witness reported");
        assert!(overload.demand > overload.interval);
        assert_eq!(
            exhaustive_transaction_check(&system).verdict,
            Verdict::Infeasible
        );
    }

    #[test]
    fn exact_tests_agree_with_the_exhaustive_oracle() {
        let systems = vec![
            TransactionSystem::new(
                TaskSet::from_tasks(vec![Task::from_ticks(1, 5, 10).unwrap()]),
                vec![tr(12, vec![part(0, 2, 6), part(6, 2, 6)])],
            ),
            TransactionSystem::new(
                TaskSet::new(),
                vec![
                    tr(10, vec![part(0, 2, 4), part(5, 2, 4)]),
                    tr(15, vec![part(2, 1, 3), part(9, 2, 5)]),
                ],
            ),
            TransactionSystem::new(
                TaskSet::new(),
                vec![tr(6, vec![part(0, 2, 3), part(3, 2, 3)])],
            ),
        ];
        for system in systems {
            let oracle = exhaustive_transaction_check(&system);
            assert!(oracle.verdict.is_decisive(), "oracle decisive on {system}");
            for test in [
                Box::new(ProcessorDemandTest::new()) as BoxedTest,
                Box::new(QpaTest::new()),
            ] {
                assert_eq!(
                    analyze_transaction_system(test.as_ref(), &system).verdict,
                    oracle.verdict,
                    "{} disagrees on {system}",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn sufficient_tests_demote_to_unknown_not_infeasible() {
        // Devi cannot prove this tight system feasible; the combination
        // must be Unknown, never a false Infeasible.
        let system = TransactionSystem::new(
            TaskSet::from_tasks(vec![
                Task::from_ticks(1, 2, 10).unwrap(),
                Task::from_ticks(2, 3, 10).unwrap(),
                Task::from_ticks(5, 9, 10).unwrap(),
            ]),
            vec![tr(20, vec![part(0, 1, 9), part(7, 1, 9)])],
        );
        let devi = analyze_transaction_system(&DeviTest::new(), &system);
        assert_eq!(devi.verdict, Verdict::Unknown);
        let exact = analyze_transaction_system(&ProcessorDemandTest::new(), &system);
        assert!(exact.verdict.is_decisive());
    }
}

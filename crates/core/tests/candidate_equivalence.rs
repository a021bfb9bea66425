//! Property tests of the candidate engine's contract: the full engine
//! (dominance pruning + density screen + Gray-code incremental swaps +
//! parallel early-exit sweep) produces verdicts identical to the retained
//! naive reference and to the exhaustive oracle, its infeasibility
//! witnesses are genuine (replaying the witnessing combination from a cold
//! preparation reproduces the overload bit for bit), the Gray-code
//! enumeration covers the exact product in unit steps and unranks
//! consistently, and [`CandidateView`] swap sequences leave prepared state
//! bit-identical to cold preparation.

use edf_analysis::bounds::FeasibilityBounds;
use edf_analysis::candidates::{self, CandidateView, EngineConfig, MixedRadixGray};
use edf_analysis::tests::{DeviTest, ProcessorDemandTest, QpaTest};
use edf_analysis::transactions::{
    analyze_transaction_system, combination_components, exhaustive_transaction_check,
};
use edf_analysis::workload::PreparedWorkload;
use edf_analysis::{BoxedTest, Verdict};
use edf_model::{Task, TaskSet, Time, Transaction, TransactionPart, TransactionSystem};
use proptest::prelude::*;

fn arb_task() -> impl Strategy<Value = Task> {
    (1u64..=4, 1u64..=40, 4u64..=40).prop_filter_map("valid task", |(c, d, t)| {
        Task::from_ticks(c.min(t), d, t).ok()
    })
}

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        12u64..=48,
        prop::collection::vec((0u64..=47, 1u64..=4, 1u64..=20), 1..=3),
    )
        .prop_filter_map("valid transaction", |(period, parts)| {
            let parts: Vec<TransactionPart> = parts
                .into_iter()
                .map(|(o, c, d)| {
                    TransactionPart::new(Time::new(o % period), Time::new(c), Time::new(d))
                })
                .collect();
            Transaction::new(Time::new(period), parts).ok()
        })
}

/// Systems with a few transactions — products up to 27 combinations, small
/// enough for the naive reference and (with the bounded periods) for the
/// exhaustive oracle's horizon to stay exact.
fn arb_system() -> impl Strategy<Value = TransactionSystem> {
    (
        prop::collection::vec(arb_task(), 0..=2),
        prop::collection::vec(arb_transaction(), 1..=3),
    )
        .prop_map(|(sporadic, transactions)| {
            TransactionSystem::new(TaskSet::from_tasks(sporadic), transactions)
        })
}

/// The suite of the acceptance criteria: two exact tests plus a sufficient
/// one (which exercises the engine's prune/screen bypass).
fn suite() -> Vec<BoxedTest> {
    vec![
        Box::new(QpaTest::new()),
        Box::new(ProcessorDemandTest::new()),
        Box::new(DeviTest::new()),
    ]
}

/// Replays `choice` from a cold preparation and asserts it reproduces the
/// engine's reported overload exactly.
fn assert_witness_genuine(
    test: &BoxedTest,
    system: &TransactionSystem,
    run: &candidates::CandidateAnalysis,
) {
    if let Some(choice) = &run.witness_choice {
        let cold = PreparedWorkload::from_components(combination_components(system, choice));
        let replay = test.analyze_prepared(&cold);
        assert_eq!(replay.verdict, Verdict::Infeasible, "witness combination");
        assert_eq!(replay.overload, run.analysis.overload, "witness overload");
    } else {
        assert!(!run.analysis.verdict.is_infeasible(), "witness missing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's verdict equals the naive reference's for exact and
    /// sufficient tests alike, and both sides' witnesses are genuine.
    #[test]
    fn engine_matches_reference_and_witnesses_are_genuine(system in arb_system()) {
        for test in suite() {
            let engine = candidates::analyze(test.as_ref(), &system);
            let naive = candidates::reference(test.as_ref(), &system);
            prop_assert_eq!(
                engine.analysis.verdict,
                naive.analysis.verdict,
                "{} diverges from the reference on {}", test.name(), &system
            );
            prop_assert_eq!(
                analyze_transaction_system(test.as_ref(), &system).verdict,
                engine.analysis.verdict,
                "front end out of sync with the engine"
            );
            prop_assert!(engine.stats.pruned_product <= engine.stats.candidate_product);
            prop_assert!(
                u128::from(engine.stats.combinations_examined) <= engine.stats.pruned_product
            );
            assert_witness_genuine(&test, &system, &engine);
            assert_witness_genuine(&test, &system, &naive);
        }
    }

    /// Exact engine verdicts equal the independent exhaustive oracle.
    #[test]
    fn engine_matches_the_exhaustive_oracle(system in arb_system()) {
        let oracle = exhaustive_transaction_check(&system);
        prop_assert!(
            oracle.verdict.is_decisive(),
            "small cycles keep the oracle horizon exact"
        );
        for test in [
            Box::new(QpaTest::new()) as BoxedTest,
            Box::new(ProcessorDemandTest::new()),
        ] {
            prop_assert_eq!(
                candidates::analyze(test.as_ref(), &system).analysis.verdict,
                oracle.verdict,
                "{} disagrees with the exhaustive oracle on {}", test.name(), &system
            );
        }
    }

    /// Neither dominance pruning, the density screen, nor the parallel
    /// fan-out changes a verdict relative to the all-off configuration.
    #[test]
    fn engine_knobs_preserve_verdicts(system in arb_system()) {
        let test = QpaTest::new();
        let baseline = candidates::analyze_with(
            &test,
            &system,
            &EngineConfig { prune: false, screen: false, parallel: false },
        );
        for prune in [false, true] {
            for screen in [false, true] {
                for parallel in [false, true] {
                    let config = EngineConfig { prune, screen, parallel };
                    let run = candidates::analyze_with(&test, &system, &config);
                    prop_assert_eq!(
                        run.analysis.verdict,
                        baseline.analysis.verdict,
                        "verdict changed under {:?} on {}", config, &system
                    );
                    prop_assert!(run.stats.pruned_product <= run.stats.candidate_product);
                }
            }
        }
    }

    /// The Gray sequence enumerates the exact mixed-radix product: every
    /// combination exactly once, adjacent combinations differing in one
    /// digit by one.
    #[test]
    fn gray_code_covers_the_exact_product(
        radices in prop::collection::vec(1usize..=5, 1..=5),
    ) {
        let product: usize = radices.iter().product();
        let mut gray = MixedRadixGray::new(&radices);
        prop_assert_eq!(gray.total(), product as u128);
        let mut seen = vec![gray.digits().to_vec()];
        while let Some(changed) = gray.advance() {
            let previous = &seen[seen.len() - 1];
            let current = gray.digits().to_vec();
            for (i, (&was, &is)) in previous.iter().zip(&current).enumerate() {
                if i == changed {
                    prop_assert_eq!(was.abs_diff(is), 1, "changed digit steps by one");
                } else {
                    prop_assert_eq!(was, is, "untouched digit moved");
                }
            }
            seen.push(current);
        }
        prop_assert_eq!(seen.len(), product);
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), product, "a combination repeated");
    }

    /// Unranked chunks concatenate to the full sequence — the property the
    /// parallel sweep's range split relies on.
    #[test]
    fn gray_chunks_concatenate_to_the_full_sequence(
        radices in prop::collection::vec(1usize..=4, 1..=4),
        chunk_len in 1u64..=7,
    ) {
        let mut gray = MixedRadixGray::new(&radices);
        let mut full = vec![gray.digits().to_vec()];
        while gray.advance().is_some() {
            full.push(gray.digits().to_vec());
        }
        let mut walked = Vec::new();
        let mut start = 0u128;
        while start < full.len() as u128 {
            let end = (start + u128::from(chunk_len)).min(full.len() as u128);
            let mut chunk = MixedRadixGray::at_rank(&radices, start);
            prop_assert_eq!(chunk.rank(), start);
            walked.push(chunk.digits().to_vec());
            for _ in start + 1..end {
                prop_assert!(chunk.advance().is_some(), "sequence ended early");
                walked.push(chunk.digits().to_vec());
            }
            start = end;
        }
        prop_assert_eq!(walked, full);
    }

    /// A [`CandidateView`] is bit-identical to a cold preparation after an
    /// arbitrary swap sequence: components, deadline order, §4.3 analysis horizon,
    /// cached utilization bits, and the analyses of exact tests.
    #[test]
    fn candidate_view_matches_cold_preparation(
        system in arb_system(),
        swaps in prop::collection::vec((0usize..8, 0usize..8), 1..=10),
    ) {
        let mut view = CandidateView::new(&system);
        let mut choice = vec![0usize; system.transactions().len()];
        for (transaction, candidate) in swaps {
            let transaction = transaction % system.transactions().len();
            let candidate = candidate % system.transactions()[transaction].candidate_count();
            choice[transaction] = candidate;
            view.set_candidate(transaction, candidate);
            let cold =
                PreparedWorkload::from_components(combination_components(&system, &choice));
            let probed = view.prepared();
            prop_assert_eq!(probed.components(), cold.components());
            prop_assert_eq!(probed.deadline_order(), cold.deadline_order());
            prop_assert_eq!(
                probed.analysis_horizon(),
                FeasibilityBounds::for_components(cold.components()).analysis_horizon()
            );
            prop_assert_eq!(
                probed.qpa_horizon(),
                FeasibilityBounds::for_components(cold.components()).qpa_horizon()
            );
            prop_assert_eq!(
                probed.utilization().to_bits(),
                cold.utilization().to_bits()
            );
            prop_assert_eq!(
                probed.utilization_exceeds_one(),
                cold.utilization_exceeds_one()
            );
            for test in [
                Box::new(QpaTest::new()) as BoxedTest,
                Box::new(ProcessorDemandTest::new()),
            ] {
                prop_assert_eq!(
                    test.analyze_prepared(probed),
                    test.analyze_prepared(&cold),
                    "{} diverges between view and cold preparation", test.name()
                );
            }
        }
    }

    /// Lazy swaps (no finalize in between, the screened-combination
    /// pattern) coalesce correctly: only the last candidate per
    /// transaction matters.
    #[test]
    fn deferred_swaps_coalesce(
        system in arb_system(),
        swaps in prop::collection::vec((0usize..8, 0usize..8), 2..=6),
    ) {
        let mut view = CandidateView::new(&system);
        let mut choice = vec![0usize; system.transactions().len()];
        for (transaction, candidate) in swaps {
            let transaction = transaction % system.transactions().len();
            let candidate = candidate % system.transactions()[transaction].candidate_count();
            choice[transaction] = candidate;
            view.set_candidate(transaction, candidate);
        }
        let cold = PreparedWorkload::from_components(combination_components(&system, &choice));
        let probed = view.prepared();
        prop_assert_eq!(probed.components(), cold.components());
        prop_assert_eq!(probed.deadline_order(), cold.deadline_order());
        prop_assert_eq!(
            probed.analysis_horizon(),
            FeasibilityBounds::for_components(cold.components()).analysis_horizon()
        );
        prop_assert_eq!(
            probed.qpa_horizon(),
            FeasibilityBounds::for_components(cold.components()).qpa_horizon()
        );
    }
}

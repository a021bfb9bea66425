//! Property tests of the candidate engine's contract: the full engine
//! (dominance pruning + density screen + Gray-code incremental swaps +
//! parallel early-exit sweep) produces exact verdicts identical to the
//! exhaustive oracle, its infeasibility witnesses are genuine (replaying
//! the witnessing combination from a cold preparation reproduces the
//! overload bit for bit), the parallel sweep agrees with the serial one,
//! the Gray-code enumeration covers the exact product in unit steps and
//! unranks consistently, and [`CandidateView`] swap sequences leave
//! prepared state bit-identical to cold preparation — for exact and
//! sufficient tests alike.

use edf_analysis::bounds::FeasibilityBounds;
use edf_analysis::candidates::{self, CandidateView, MixedRadixGray};
use edf_analysis::tests::{DeviTest, ProcessorDemandTest, QpaTest};
use edf_analysis::transactions::{
    analyze_transaction_system, combination_components, exhaustive_transaction_check,
};
use edf_analysis::workload::PreparedWorkload;
use edf_analysis::{BoxedTest, FeasibilityTest, Verdict, WorkBudget};
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
/// enough for the exhaustive oracle, whose horizon stays exact with the
/// bounded periods.
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
    test: &dyn FeasibilityTest,
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

    /// For exact and sufficient tests alike the front end reports the
    /// engine's verdict, the work accounting is consistent and every
    /// witness is genuine.
    #[test]
    fn engine_witnesses_are_genuine(system in arb_system()) {
        for test in suite() {
            let engine = candidates::analyze(test.as_ref(), &system);
            prop_assert_eq!(
                analyze_transaction_system(test.as_ref(), &system).verdict,
                engine.analysis.verdict,
                "front end out of sync with the engine"
            );
            prop_assert!(engine.stats.pruned_product <= engine.stats.candidate_product);
            prop_assert!(
                u128::from(engine.stats.combinations_examined) <= engine.stats.pruned_product
            );
            assert_witness_genuine(test.as_ref(), &system, &engine);
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
    /// arbitrary swap sequence: components, deadline order, §4.3 analysis
    /// horizon, cached utilization bits, and the analyses of the exact
    /// tests and of the sufficient one (whose combinations the engine
    /// neither prunes nor screens).
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
            for test in suite() {
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

fn part(o: u64, c: u64, d: u64) -> TransactionPart {
    TransactionPart::new(Time::new(o), Time::new(c), Time::new(d))
}

fn tr(period: u64, parts: Vec<TransactionPart>) -> Transaction {
    Transaction::new(Time::new(period), parts).expect("valid transaction")
}

/// Exact verdicts equal the exhaustive oracle's on fixed systems — a
/// sporadic task beside a transaction, two transactions, a `U = 1` burst
/// and an overload — and every test's witness is genuine.  The
/// sufficient test never accepts what the oracle rejects.
#[test]
fn engine_matches_the_exhaustive_oracle_on_hand_picked_systems() {
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
        // Infeasible (U = 1 with a concentrated burst).
        TransactionSystem::new(
            TaskSet::from_tasks(vec![Task::from_ticks(2, 2, 8).unwrap()]),
            vec![tr(8, vec![part(0, 3, 3), part(4, 3, 3)])],
        ),
        // Overloaded.
        TransactionSystem::new(
            TaskSet::new(),
            vec![tr(10, vec![part(0, 6, 6), part(5, 6, 6)])],
        ),
    ];
    for system in &systems {
        let oracle = exhaustive_transaction_check(system);
        assert!(oracle.verdict.is_decisive(), "oracle undecided on {system}");
        for test in suite() {
            let engine = candidates::analyze(test.as_ref(), system);
            if test.is_exact() {
                assert_eq!(
                    engine.analysis.verdict,
                    oracle.verdict,
                    "{} diverges on {system}",
                    test.name()
                );
            } else if oracle.verdict.is_infeasible() {
                assert!(
                    !engine.analysis.verdict.is_feasible(),
                    "{} on {system}",
                    test.name()
                );
            }
            assert_witness_genuine(test.as_ref(), system, &engine);
        }
    }
}

/// Dominance pruning collapses a duplicate-offset transaction and drops a
/// dominated anchor (product 6 → 2) without changing the exact verdict.
#[test]
fn pruning_keeps_the_exact_verdict() {
    let system = TransactionSystem::new(
        TaskSet::from_tasks(vec![Task::from_ticks(1, 4, 8).unwrap()]),
        vec![
            tr(12, vec![part(0, 2, 6), part(0, 2, 6), part(6, 2, 6)]),
            tr(15, vec![part(2, 1, 3), part(9, 2, 5)]),
        ],
    );
    let test = QpaTest::new();
    let run = candidates::analyze(&test, &system);
    assert_eq!(
        run.analysis.verdict,
        exhaustive_transaction_check(&system).verdict
    );
    // The duplicate-offset candidates collapse and the burst anchor (both
    // deadline-6 parts at the window start) additionally dominates the
    // lone deadline-12 anchor.
    assert_eq!(run.stats.candidate_product, 6);
    assert_eq!(run.stats.pruned_product, 2);
    assert_witness_genuine(&test, &system, &run);
}

/// Four four-part transactions with distinct offsets: nothing is pruned
/// or screened, so the product is 256 — above the threshold where
/// `candidates::analyze` fans the sweep out over the cores.  `scale` sets
/// the cost of one part per transaction: 1 is feasible, 2 overloads a
/// combination deep inside the Gray sequence.
fn parallel_fixture(scale: u64) -> TransactionSystem {
    TransactionSystem::new(
        TaskSet::new(),
        vec![
            tr(
                40,
                vec![
                    part(0, scale, 6),
                    part(7, 1, 5),
                    part(19, 2, 11),
                    part(28, 1, 4),
                ],
            ),
            tr(
                48,
                vec![
                    part(0, 2, 9),
                    part(5, scale, 4),
                    part(21, 1, 13),
                    part(33, 2, 7),
                ],
            ),
            tr(
                60,
                vec![
                    part(0, 1, 3),
                    part(11, 2, 8),
                    part(26, scale, 10),
                    part(40, 1, 6),
                ],
            ),
            tr(
                36,
                vec![
                    part(0, 1, 7),
                    part(9, 1, 3),
                    part(17, scale, 9),
                    part(30, 2, 5),
                ],
            ),
        ],
    )
}

/// The chunked parallel sweep agrees with the serial sweep, which a
/// limited [`WorkBudget`] forces: equal verdicts and genuine witnesses,
/// and on the feasible system (every combination examined on both sides)
/// equal iteration counts and work accounting.  On a single-CPU host both
/// sides run serially.
#[test]
fn parallel_sweep_matches_the_serial_sweep() {
    let test = QpaTest::new();
    for (scale, verdict) in [(1, Verdict::Feasible), (2, Verdict::Infeasible)] {
        let system = parallel_fixture(scale);
        let parallel = candidates::analyze(&test, &system);
        let serial =
            candidates::analyze_budgeted(&test, &system, &mut WorkBudget::limited(u64::MAX - 1));
        assert_eq!(parallel.stats.pruned_product, 256);
        assert_eq!(parallel.analysis.verdict, verdict, "scale {scale}");
        assert_eq!(serial.analysis.verdict, verdict, "scale {scale}");
        assert_eq!(
            exhaustive_transaction_check(&system).verdict,
            verdict,
            "scale {scale}"
        );
        assert_witness_genuine(&test, &system, &parallel);
        assert_witness_genuine(&test, &system, &serial);
        if verdict.is_feasible() {
            assert_eq!(parallel.analysis, serial.analysis);
            assert_eq!(parallel.stats, serial.stats);
            assert_eq!(parallel.stats.combinations_examined, 256);
        }
    }
}

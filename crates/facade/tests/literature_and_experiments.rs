//! Integration tests of the literature task sets and the experiment
//! harness: the Table 1 character must hold end to end, and the experiment
//! entry points must produce consistent, well-shaped results.

use edf_feasibility::experiments::{
    acceptance_table, literature_table, run_acceptance, run_literature, run_ratio_effort,
    run_utilization_effort, AcceptanceConfig, RatioEffortConfig, UtilizationEffortConfig,
};
use edf_feasibility::model::literature;
use edf_feasibility::{
    simulate_edf_feasibility, AllApproximatedTest, DeviTest, DynamicErrorTest, FeasibilityTest,
    OracleVerdict, ProcessorDemandTest, TaskSetConfig, Verdict,
};

/// Every literature set is feasible, and the exact tests agree with each
/// other and (where tractable) with the simulation oracle.
#[test]
fn literature_sets_are_feasible_and_consistent() {
    for (name, ts) in literature::all() {
        let pda = ProcessorDemandTest::new().analyze(&ts);
        let dynamic = DynamicErrorTest::new().analyze(&ts);
        let all_approx = AllApproximatedTest::new().analyze(&ts);
        assert_eq!(pda.verdict, Verdict::Feasible, "{name} must be feasible");
        assert_eq!(dynamic.verdict, Verdict::Feasible, "{name}: dynamic-error");
        assert_eq!(
            all_approx.verdict,
            Verdict::Feasible,
            "{name}: all-approximated"
        );
        match simulate_edf_feasibility(&ts) {
            OracleVerdict::Schedulable | OracleVerdict::Inconclusive => {}
            OracleVerdict::MissAt(at) => panic!("{name}: simulator found a miss at {at}"),
        }
    }
}

/// The Table 1 character: Devi accepts Burns and GAP, fails on the other
/// three, and the new tests never need more intervals than the processor
/// demand baseline.
#[test]
fn table_1_shape_is_reproduced() {
    let rows = run_literature();
    assert_eq!(rows.len(), 5);
    let by_name = |name: &str| rows.iter().find(|r| r.name == name).expect("row exists");

    assert!(by_name("Burns").devi.is_some());
    assert!(by_name("GAP").devi.is_some());
    assert!(by_name("Ma & Shin").devi.is_none());
    assert!(by_name("Gresser 1").devi.is_none());
    assert!(by_name("Gresser 2").devi.is_none());

    for row in &rows {
        assert!(row.feasible, "{} is feasible in Table 1", row.name);
        assert!(row.processor_demand >= row.all_approximated);
        assert!(row.processor_demand_baruah >= row.processor_demand);
        // Devi acceptance implies the new tests stay at one check per task.
        if row.devi.is_some() {
            assert!(row.dynamic <= row.tasks as u64);
            assert!(row.all_approximated <= row.tasks as u64);
        }
    }

    // The rendered table mirrors the paper's FAILED entries.
    let rendered = literature_table(&rows).to_ascii();
    assert_eq!(rendered.matches("FAILED").count(), 3);
}

/// The Table 1 iteration counts, pinned exactly: dynamic-error,
/// all-approximated, processor demand (tightest bound) and processor
/// demand under the Baruah bound.  The refining tests and the
/// processor-demand walk read the tightest analysis horizon, so a change
/// that hands them a looser one moves these counts.
#[test]
fn table_1_counts_are_pinned() {
    let rows = run_literature();
    let counts: Vec<(&str, u64, u64, u64, u64)> = rows
        .iter()
        .map(|r| {
            (
                r.name.as_str(),
                r.dynamic,
                r.all_approximated,
                r.processor_demand,
                r.processor_demand_baruah,
            )
        })
        .collect();
    assert_eq!(
        counts,
        [
            ("Burns", 7, 7, 23, 405),
            ("Ma & Shin", 24, 23, 33, 220),
            ("GAP", 16, 16, 223, 1351),
            ("Gresser 1", 10, 7, 33, 124),
            ("Gresser 2", 8, 6, 26, 190),
        ]
    );
}

/// Figure 1 shape: acceptance rates fall with utilization, higher
/// superposition levels dominate lower ones, and the exact test dominates
/// everything.
#[test]
fn figure_1_shape_is_reproduced() {
    let config = AcceptanceConfig {
        utilization_percent: 75..=95,
        sets_per_point: 12,
        superposition_levels: vec![2, 5, 10],
        generator: TaskSetConfig::new()
            .task_count(5..=20)
            .average_gap(0.3)
            .seed(11),
    };
    let rows = run_acceptance(&config);
    assert_eq!(rows.len(), 21);
    let rate_of = |row: &edf_feasibility::experiments::AcceptanceRow, label: &str| {
        row.rates
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| *r)
            .expect("label present")
    };
    for row in &rows {
        let devi = rate_of(row, "Devi");
        let sp2 = rate_of(row, "SuperPos(2)");
        let sp10 = rate_of(row, "SuperPos(10)");
        let exact = rate_of(row, "Processor Demand");
        assert!(sp2 >= devi - 1e-9);
        assert!(sp10 >= sp2 - 1e-9);
        assert!(exact >= sp10 - 1e-9);
    }
    // At 75 % utilization (nearly) everything is accepted by the exact test;
    // at 95 % the sufficient tests have visibly fallen behind it.
    let first = &rows[0];
    let last = rows.last().unwrap();
    assert!(rate_of(first, "Processor Demand") > 0.9);
    assert!(rate_of(last, "Processor Demand") >= rate_of(last, "Devi"));
    // The acceptance table renders every series.
    let table = acceptance_table(&rows);
    assert!(table.to_ascii().contains("SuperPos(10)"));
}

/// Figure 8 shape: effort grows towards 100 % utilization and the new tests
/// stay well below the processor demand test.
#[test]
fn figure_8_shape_is_reproduced() {
    let config = UtilizationEffortConfig {
        utilization_percent: 92..=98,
        sets_per_point: 8,
        generator: TaskSetConfig::new()
            .task_count(5..=30)
            .average_gap(0.3)
            .seed(21),
    };
    let rows = run_utilization_effort(&config);
    assert_eq!(rows.len(), 7);
    let mean_of = |row: &edf_feasibility::experiments::EffortRow<u32>, label: &str| {
        row.stats
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s.mean)
            .expect("label present")
    };
    // Aggregate comparison over the sweep (single points are noisy).
    let total_pda: f64 = rows.iter().map(|r| mean_of(r, "Processor Demand")).sum();
    let total_dynamic: f64 = rows.iter().map(|r| mean_of(r, "Dynamic")).sum();
    let total_all: f64 = rows.iter().map(|r| mean_of(r, "All Approximated")).sum();
    assert!(
        total_dynamic < total_pda,
        "dynamic {total_dynamic} vs pda {total_pda}"
    );
    assert!(
        total_all < total_pda,
        "all-approx {total_all} vs pda {total_pda}"
    );
    // Effort at 98 % exceeds effort at 92 % for the processor demand test.
    assert!(mean_of(&rows[6], "Processor Demand") > mean_of(&rows[0], "Processor Demand"));
}

/// Figure 9 shape: the processor demand effort grows steeply with the
/// period ratio while the new tests stay (nearly) flat.
#[test]
fn figure_9_shape_is_reproduced() {
    let config = RatioEffortConfig {
        ratios: vec![100, 10_000, 100_000],
        min_period: 100,
        sets_per_point: 6,
        generator: TaskSetConfig::new()
            .task_count(5..=30)
            .utilization(0.92..=0.98)
            .average_gap(0.3)
            .seed(33),
    };
    let rows = run_ratio_effort(&config);
    assert_eq!(rows.len(), 3);
    let mean_of = |row: &edf_feasibility::experiments::EffortRow<u64>, label: &str| {
        row.stats
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s.mean)
            .expect("label present")
    };
    let pda_small = mean_of(&rows[0], "Processor Demand");
    let pda_large = mean_of(&rows[2], "Processor Demand");
    assert!(
        pda_large > pda_small * 5.0,
        "PDA effort must explode with the ratio ({pda_small} -> {pda_large})"
    );
    let all_large = mean_of(&rows[2], "All Approximated");
    let dynamic_large = mean_of(&rows[2], "Dynamic");
    assert!(
        all_large * 5.0 < pda_large,
        "all-approximated stays far below PDA"
    );
    assert!(
        dynamic_large * 5.0 < pda_large,
        "dynamic stays far below PDA"
    );
}

/// Devi's verdict equals SuperPos(1) on the (constrained-deadline)
/// literature sets — Lemma 2 end to end.
#[test]
fn devi_equals_superpos1_on_literature_sets() {
    use edf_feasibility::SuperpositionTest;
    for (name, ts) in literature::all() {
        assert!(
            ts.all_constrained_or_implicit(),
            "{name} is constrained-deadline"
        );
        let devi = DeviTest::new().analyze(&ts).verdict;
        let sp1 = SuperpositionTest::new(1).analyze(&ts).verdict;
        assert_eq!(devi, sp1, "Lemma 2 violated on {name}");
    }
}

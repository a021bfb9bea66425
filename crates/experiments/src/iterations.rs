//! Experiments E2–E4: the effort (number of examined test intervals) of the
//! exact tests — Figure 8 (utilization sweep), Figure 9 (period-ratio
//! sweep) and Table 1 (literature task sets).

use edf_analysis::batch::{analyze_many, BoxedTest};
use edf_analysis::tests::{
    AllApproximatedTest, BoundSelection, DeviTest, DynamicErrorTest, ProcessorDemandTest,
};
use edf_analysis::workload::PreparedWorkload;
use edf_analysis::{FeasibilityTest, Verdict};
use edf_gen::{period_ratio_sweep, utilization_sweep, TaskSetConfig};
use edf_model::{literature, TaskSet};

use crate::report::{fmt_f64, Table};
use crate::stats::IterationStats;

/// The tests compared by the effort experiments, in the paper's order;
/// the processor demand test (the exact baseline) comes last.
fn effort_tests() -> (Vec<String>, Vec<BoxedTest>) {
    (
        vec![
            "Dynamic".to_owned(),
            "All Approximated".to_owned(),
            "Processor Demand".to_owned(),
        ],
        vec![
            Box::new(DynamicErrorTest::new()),
            Box::new(AllApproximatedTest::new()),
            Box::new(ProcessorDemandTest::new()),
        ],
    )
}

/// Effort statistics of every test at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortRow<P> {
    /// The swept parameter (utilization percent or period ratio).
    pub parameter: P,
    /// `(test label, statistics)` in presentation order.
    pub stats: Vec<(String, IterationStats)>,
}

/// Configuration of the Figure 8 effort-over-utilization experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationEffortConfig {
    /// Utilization sweep in percent (the paper uses 90–99 %).
    pub utilization_percent: std::ops::RangeInclusive<u32>,
    /// Task sets per utilization point.
    pub sets_per_point: usize,
    /// Base generator configuration.
    pub generator: TaskSetConfig,
}

impl Default for UtilizationEffortConfig {
    fn default() -> Self {
        UtilizationEffortConfig::quick()
    }
}

impl UtilizationEffortConfig {
    /// Laptop-scale configuration.
    #[must_use]
    pub fn quick() -> Self {
        UtilizationEffortConfig {
            utilization_percent: 90..=99,
            sets_per_point: 30,
            generator: TaskSetConfig::new()
                .task_count(5..=50)
                .average_gap(0.3)
                .seed(82),
        }
    }

    /// Paper-scale configuration (Figure 8 aggregates 18,000 task sets).
    #[must_use]
    pub fn full() -> Self {
        UtilizationEffortConfig {
            sets_per_point: 1_800,
            generator: TaskSetConfig::new()
                .task_count(5..=100)
                .average_gap(0.3)
                .seed(82),
            ..UtilizationEffortConfig::quick()
        }
    }
}

/// Runs the Figure 8 experiment: iteration statistics per utilization point.
#[must_use]
pub fn run_utilization_effort(config: &UtilizationEffortConfig) -> Vec<EffortRow<u32>> {
    let (labels, tests) = effort_tests();
    let sweep = utilization_sweep(
        &config.generator,
        config.utilization_percent.clone(),
        config.sets_per_point,
    );
    sweep
        .into_iter()
        .map(|point| EffortRow {
            parameter: point.parameter,
            stats: collect_stats(&labels, &tests, &point.task_sets, point.parameter),
        })
        .collect()
}

/// Configuration of the Figure 9 effort-over-period-ratio experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioEffortConfig {
    /// The `Tmax/Tmin` ratios to sweep (the paper uses 100 … 1,000,000).
    pub ratios: Vec<u64>,
    /// Smallest period.
    pub min_period: u64,
    /// Task sets per ratio.
    pub sets_per_point: usize,
    /// Base generator configuration (utilization and gap ranges).
    pub generator: TaskSetConfig,
}

impl Default for RatioEffortConfig {
    fn default() -> Self {
        RatioEffortConfig::quick()
    }
}

impl RatioEffortConfig {
    /// Laptop-scale configuration: ratios up to 100,000.
    #[must_use]
    pub fn quick() -> Self {
        RatioEffortConfig {
            ratios: vec![100, 1_000, 10_000, 100_000],
            min_period: 100,
            sets_per_point: 20,
            generator: TaskSetConfig::new()
                .task_count(5..=50)
                .utilization(0.90..=0.999)
                .average_gap(0.3)
                .seed(93),
        }
    }

    /// Paper-scale configuration: ratios up to 1,000,000, more sets, the
    /// full 5–100 task range and gaps between 10 % and 50 %.
    #[must_use]
    pub fn full() -> Self {
        RatioEffortConfig {
            ratios: vec![100, 1_000, 10_000, 100_000, 500_000, 1_000_000],
            min_period: 100,
            sets_per_point: 200,
            generator: TaskSetConfig::new()
                .task_count(5..=100)
                .utilization(0.90..=0.999)
                .average_gap(0.3)
                .seed(93),
        }
    }
}

/// Runs the Figure 9 experiment: iteration statistics per period ratio.
#[must_use]
pub fn run_ratio_effort(config: &RatioEffortConfig) -> Vec<EffortRow<u64>> {
    let (labels, tests) = effort_tests();
    let sweep = period_ratio_sweep(
        &config.generator,
        config.min_period,
        &config.ratios,
        config.sets_per_point,
    );
    sweep
        .into_iter()
        .map(|point| EffortRow {
            parameter: point.parameter,
            stats: collect_stats(&labels, &tests, &point.task_sets, point.parameter),
        })
        .collect()
}

/// One [`analyze_many`] batch: each task set is prepared once (bounds and
/// all) and shared by every test, with the sets fanned out across cores.
///
/// # Panics
///
/// Panics, naming the sweep point and the set index, if a test's verdict
/// differs from the processor demand test's: the new tests are exact, so
/// their counts only compare when their verdicts agree.
fn collect_stats<P: std::fmt::Display>(
    labels: &[String],
    tests: &[BoxedTest],
    task_sets: &[TaskSet],
    point: P,
) -> Vec<(String, IterationStats)> {
    let analyses = analyze_many(task_sets, tests);
    for (set, per_set) in analyses.iter().enumerate() {
        let (baseline, others) = per_set.split_last().expect("the effort suite is not empty");
        for (label, analysis) in labels.iter().zip(others) {
            assert_eq!(
                analysis.verdict, baseline.verdict,
                "{label} disagrees with processor demand at sweep point {point}, set {set}"
            );
        }
    }
    labels
        .iter()
        .enumerate()
        .map(|(j, label)| {
            let iterations: Vec<u64> = analyses
                .iter()
                .map(|per_set| per_set[j].iterations)
                .collect();
            (label.clone(), IterationStats::from_samples(&iterations))
        })
        .collect()
}

/// Renders effort rows as two tables (average and maximum iterations),
/// matching the two panels of Figures 8 and 9.
#[must_use]
pub fn effort_tables<P: std::fmt::Display>(
    title: &str,
    parameter_name: &str,
    rows: &[EffortRow<P>],
) -> (Table, Table) {
    let mut headers: Vec<String> = vec![parameter_name.to_owned()];
    if let Some(first) = rows.first() {
        headers.extend(first.stats.iter().map(|(label, _)| label.clone()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut avg = Table::new(&format!("{title} — average iterations"), &header_refs);
    let mut max = Table::new(&format!("{title} — maximum iterations"), &header_refs);
    for row in rows {
        let mut avg_cells = vec![row.parameter.to_string()];
        let mut max_cells = vec![row.parameter.to_string()];
        for (_, stats) in &row.stats {
            avg_cells.push(fmt_f64(stats.mean, 1));
            max_cells.push(stats.max.to_string());
        }
        avg.add_row(avg_cells);
        max.add_row(max_cells);
    }
    (avg, max)
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteratureRow {
    /// Name of the task set (Burns, Ma & Shin, GAP, Gresser 1, Gresser 2).
    pub name: String,
    /// Number of tasks.
    pub tasks: usize,
    /// Devi's test: `Some(iterations)` if it accepts, `None` if it fails.
    pub devi: Option<u64>,
    /// Iterations of the dynamic-error test.
    pub dynamic: u64,
    /// Iterations of the all-approximated test.
    pub all_approximated: u64,
    /// Iterations of the processor demand test (tightest bound).
    pub processor_demand: u64,
    /// Iterations of the processor demand test when limited only by the
    /// Baruah et al. bound — the configuration closest to the paper's
    /// Table 1 baseline.
    pub processor_demand_baruah: u64,
    /// Verdict of the exact tests (they all agree).
    pub feasible: bool,
}

/// Runs the Table 1 experiment on the literature task sets.
#[must_use]
pub fn run_literature() -> Vec<LiteratureRow> {
    literature::all()
        .into_iter()
        .map(|(name, ts)| {
            // One shared preparation per literature set for all five runs.
            let prepared = PreparedWorkload::new(&ts);
            let devi = DeviTest::new().analyze_prepared(&prepared);
            let dynamic = DynamicErrorTest::new().analyze_prepared(&prepared);
            let all_approx = AllApproximatedTest::new().analyze_prepared(&prepared);
            let pda = ProcessorDemandTest::new().analyze_prepared(&prepared);
            let pda_baruah =
                ProcessorDemandTest::with_bound(BoundSelection::Baruah).analyze_prepared(&prepared);
            assert_eq!(dynamic.verdict, pda.verdict, "{name}: dynamic-error");
            assert_eq!(all_approx.verdict, pda.verdict, "{name}: all-approximated");
            LiteratureRow {
                name: name.to_owned(),
                tasks: ts.len(),
                devi: match devi.verdict {
                    Verdict::Feasible => Some(devi.iterations),
                    _ => None,
                },
                dynamic: dynamic.iterations,
                all_approximated: all_approx.iterations,
                processor_demand: pda.iterations,
                processor_demand_baruah: pda_baruah.iterations,
                feasible: pda.verdict == Verdict::Feasible,
            }
        })
        .collect()
}

/// Renders the literature rows as a table shaped like the paper's Table 1.
#[must_use]
pub fn literature_table(rows: &[LiteratureRow]) -> Table {
    let mut table = Table::new(
        "Table 1 — iterations for example task graphs",
        &[
            "Test",
            "Tasks",
            "Devi",
            "Dyn.",
            "All Appr.",
            "Proc. Dem.",
            "Proc. Dem. (Baruah bound)",
            "Verdict",
        ],
    );
    for row in rows {
        table.add_row(vec![
            row.name.clone(),
            row.tasks.to_string(),
            row.devi.map_or("FAILED".to_owned(), |i| i.to_string()),
            row.dynamic.to_string(),
            row.all_approximated.to_string(),
            row.processor_demand.to_string(),
            row.processor_demand_baruah.to_string(),
            if row.feasible {
                "feasible"
            } else {
                "infeasible"
            }
            .to_owned(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_utilization_config() -> UtilizationEffortConfig {
        UtilizationEffortConfig {
            utilization_percent: 95..=96,
            sets_per_point: 5,
            generator: TaskSetConfig::new()
                .task_count(4..=10)
                .average_gap(0.3)
                .seed(17),
        }
    }

    #[test]
    fn utilization_effort_produces_rows_with_all_tests() {
        let rows = run_utilization_effort(&tiny_utilization_config());
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.stats.len(), 3);
            for (_, stats) in &row.stats {
                assert_eq!(stats.count, 5);
                assert!(stats.max >= 1);
            }
        }
    }

    #[test]
    fn new_tests_do_not_exceed_processor_demand_effort_on_average() {
        let rows = run_utilization_effort(&tiny_utilization_config());
        for row in &rows {
            let lookup = |label: &str| {
                row.stats
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, s)| s.mean)
                    .expect("label present")
            };
            // On average the approximating tests are at least as cheap as
            // the plain processor demand walk (usually far cheaper).
            assert!(lookup("All Approximated") <= lookup("Processor Demand") * 1.5 + 5.0);
            assert!(lookup("Dynamic") <= lookup("Processor Demand") * 1.5 + 5.0);
        }
    }

    #[test]
    fn ratio_effort_runs_and_keeps_new_tests_flat() {
        let config = RatioEffortConfig {
            ratios: vec![100, 10_000],
            min_period: 100,
            sets_per_point: 4,
            generator: TaskSetConfig::new()
                .task_count(4..=10)
                .utilization(0.92..=0.97)
                .average_gap(0.3)
                .seed(5),
        };
        let rows = run_ratio_effort(&config);
        assert_eq!(rows.len(), 2);
        let lookup = |row: &EffortRow<u64>, label: &str| {
            row.stats
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| s.mean)
                .expect("label present")
        };
        // The processor demand effort grows with the ratio...
        assert!(lookup(&rows[1], "Processor Demand") > lookup(&rows[0], "Processor Demand"));
        // ...while the all-approximated test stays orders of magnitude below.
        assert!(lookup(&rows[1], "All Approximated") < lookup(&rows[1], "Processor Demand"));
    }

    #[test]
    fn effort_tables_have_matching_shapes() {
        let rows = run_utilization_effort(&tiny_utilization_config());
        let (avg, max) = effort_tables("Figure 8", "U (%)", &rows);
        assert_eq!(avg.row_count(), rows.len());
        assert_eq!(max.row_count(), rows.len());
        assert!(avg.to_ascii().contains("All Approximated"));
        assert!(max.to_ascii().contains("Processor Demand"));
    }

    #[test]
    fn literature_rows_match_table_1_structure() {
        let rows = run_literature();
        assert_eq!(rows.len(), 5);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Burns", "Ma & Shin", "GAP", "Gresser 1", "Gresser 2"]
        );
        for row in &rows {
            assert!(
                row.feasible,
                "{} must be feasible like in the paper",
                row.name
            );
            assert!(
                row.processor_demand >= row.all_approximated,
                "{}: the all-approximated test must not need more intervals than PDA",
                row.name
            );
            assert!(
                row.processor_demand_baruah >= row.processor_demand,
                "{}: the Baruah-bound PDA cannot be cheaper than the tightest-bound PDA",
                row.name
            );
        }
        // Burns and GAP are accepted by Devi; the reconstructed Ma & Shin and
        // Gresser sets are not (as in Table 1).
        assert!(rows[0].devi.is_some(), "Burns accepted by Devi");
        assert!(rows[2].devi.is_some(), "GAP accepted by Devi");
        assert!(rows[1].devi.is_none(), "Ma & Shin rejected by Devi");
        assert!(rows[3].devi.is_none(), "Gresser 1 rejected by Devi");
        assert!(rows[4].devi.is_none(), "Gresser 2 rejected by Devi");
    }

    #[test]
    fn literature_table_renders_failed_entries() {
        let table = literature_table(&run_literature());
        let text = table.to_ascii();
        assert!(text.contains("FAILED"));
        assert!(text.contains("Burns"));
        assert_eq!(table.row_count(), 5);
    }
}

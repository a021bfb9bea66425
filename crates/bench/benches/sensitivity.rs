//! Benchmark of the incremental sensitivity engine
//! (`edf_analysis::incremental` + `edf_analysis::sensitivity`): breakdown
//! scaling and WCET slack searches through one `ScaledView` per search
//! (each probe replaces the re-costed components of one `EditView`,
//! keeping the deadline order and the period reciprocals, and finalizes
//! it), and the batch sweep.  The `incremental_equivalence` proptests pin
//! every probe against a cold preparation and every search result as
//! tight.
//!
//! The QPA series isolate the probe overhead (QPA's own analysis is
//! cheap); the all-approximated series show a test whose analysis
//! dominates near the breakdown point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use edf_analysis::sensitivity::{breakdown_scaling, sensitivity_sweep, wcet_slack};
use edf_analysis::tests::{AllApproximatedTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload};
use edf_bench::{ratio_fixture, slack_fixture, stream_fixture};
use edf_model::{Task, TaskSet, Time};

/// A feasible mixed sporadic + bursty-stream system (the paper's §3.6
/// scenario): a ratio-controlled sporadic set at roughly half load plus
/// four bursty interrupt sources.
fn mixed_system() -> MixedSystem {
    let sporadic: TaskSet = ratio_fixture(10, 1)
        .remove(0)
        .iter()
        .map(|t| {
            Task::new(
                Time::new((t.wcet().as_u64() / 2).max(1)),
                t.deadline(),
                t.period(),
            )
            .expect("halved cost stays valid")
        })
        .collect();
    MixedSystem::new(sporadic, stream_fixture(4))
}

fn bench_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensitivity_breakdown");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let qpa = QpaTest::new();
    for &ratio in &[10u64, 100] {
        let sets = ratio_fixture(ratio, 8);
        group.bench_with_input(
            BenchmarkId::new("incremental_qpa", ratio),
            &sets,
            |b, sets| {
                b.iter(|| {
                    sets.iter()
                        .filter_map(|ts| breakdown_scaling(ts, &qpa))
                        .count()
                })
            },
        );
    }

    // Analysis-heavy variant: the all-approximated test near its breakdown
    // point dominates the probe cost.
    let all_approx = AllApproximatedTest::new();
    let sets = ratio_fixture(10, 4);
    group.bench_function("incremental_all_approx/10", |b| {
        b.iter(|| {
            sets.iter()
                .filter_map(|ts| breakdown_scaling(ts, &all_approx))
                .count()
        })
    });

    let mixed = mixed_system();
    group.bench_function("incremental_qpa/mixed", |b| {
        b.iter(|| breakdown_scaling(&mixed, &qpa))
    });
    group.finish();
}

fn bench_wcet_slack(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensitivity_wcet_slack");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let qpa = QpaTest::new();
    let slack_all = |ts: &TaskSet| -> usize {
        (0..ts.len())
            .filter_map(|index| wcet_slack(ts, index, &qpa))
            .count()
    };
    // Headline series: the robustness-budgeting regime (moderate load).
    let sets = slack_fixture(60, 4);
    group.bench_with_input(
        BenchmarkId::new("incremental_qpa", "sets"),
        &sets,
        |b, sets| b.iter(|| sets.iter().map(slack_all).sum::<usize>()),
    );
    // Hard case: 90–99 % load, where the exact test's own work at the
    // feasibility edge dominates the probe cost.
    let tight = ratio_fixture(10, 4);
    group.bench_with_input(
        BenchmarkId::new("incremental_qpa", "tight"),
        &tight,
        |b, sets| b.iter(|| sets.iter().map(slack_all).sum::<usize>()),
    );

    let mixed = mixed_system();
    let components = PreparedWorkload::new(&mixed).components().len();
    group.bench_function("incremental_qpa/mixed", |b| {
        b.iter(|| {
            (0..components)
                .filter_map(|index| wcet_slack(&mixed, index, &qpa))
                .count()
        })
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensitivity_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let qpa = QpaTest::new();
    let sets = ratio_fixture(10, 8);
    group.bench_function("batch_qpa", |b| {
        b.iter(|| sensitivity_sweep(&sets, &qpa).len())
    });
    group.finish();
}

criterion_group!(benches, bench_breakdown, bench_wcet_slack, bench_sweep);
criterion_main!(benches);

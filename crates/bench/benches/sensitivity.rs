//! Benchmark of the incremental sensitivity engine
//! (`edf_analysis::incremental` + `edf_analysis::sensitivity`): breakdown
//! scaling and WCET slack searches, incremental (one `ScaledView`: each
//! probe replaces the re-costed components of one `EditView`, keeping the
//! deadline order and the period reciprocals, and finalizes it) versus
//! the from-scratch reference (a full re-preparation per probe — the
//! pre-incremental behaviour, see `sensitivity::reference`).  Both
//! variants run identical probe sequences and produce bit-identical
//! results — asserted per fixture before any lane is timed — so the
//! wall-clock gap is pure preparation overhead.
//!
//! The QPA series isolate that overhead (QPA's own analysis is cheap);
//! the all-approximated series show the dilution on a test whose
//! analysis dominates near the breakdown point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use edf_analysis::sensitivity::{
    breakdown_scaling_workload, reference, sensitivity_sweep, wcet_slack_workload,
};
use edf_analysis::tests::{AllApproximatedTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload, Workload};
use edf_analysis::FeasibilityTest;
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

/// Asserts that the incremental and from-scratch breakdown searches give
/// the same answer on every workload of fixture `name`.
fn assert_breakdown_parity<W: Workload>(name: &str, workloads: &[W], test: &dyn FeasibilityTest) {
    for (i, workload) in workloads.iter().enumerate() {
        assert_eq!(
            breakdown_scaling_workload(workload, test),
            reference::breakdown_scaling_workload(workload, test),
            "breakdown search diverges from the reference on {name}[{i}]"
        );
    }
}

/// Asserts that the incremental and from-scratch slack searches give the
/// same answer for every component of every workload of fixture `name`.
fn assert_slack_parity<W: Workload>(name: &str, workloads: &[W], test: &dyn FeasibilityTest) {
    for (i, workload) in workloads.iter().enumerate() {
        for index in 0..PreparedWorkload::new(workload).components().len() {
            assert_eq!(
                wcet_slack_workload(workload, index, test),
                reference::wcet_slack_workload(workload, index, test),
                "slack search diverges from the reference on {name}[{i}], component {index}"
            );
        }
    }
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
        assert_breakdown_parity(&format!("ratio_fixture({ratio}, 8)"), &sets, &qpa);
        group.bench_with_input(
            BenchmarkId::new("incremental_qpa", ratio),
            &sets,
            |b, sets| {
                b.iter(|| {
                    sets.iter()
                        .filter_map(|ts| breakdown_scaling_workload(ts, &qpa))
                        .count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("from_scratch_qpa", ratio),
            &sets,
            |b, sets| {
                b.iter(|| {
                    sets.iter()
                        .filter_map(|ts| reference::breakdown_scaling_workload(ts, &qpa))
                        .count()
                })
            },
        );
    }

    // Analysis-heavy variant: the all-approximated test near its breakdown
    // point dominates the probe cost, diluting the preparation savings.
    let all_approx = AllApproximatedTest::new();
    let sets = ratio_fixture(10, 4);
    assert_breakdown_parity("ratio_fixture(10, 4)", &sets, &all_approx);
    group.bench_function("incremental_all_approx/10", |b| {
        b.iter(|| {
            sets.iter()
                .filter_map(|ts| breakdown_scaling_workload(ts, &all_approx))
                .count()
        })
    });
    group.bench_function("from_scratch_all_approx/10", |b| {
        b.iter(|| {
            sets.iter()
                .filter_map(|ts| reference::breakdown_scaling_workload(ts, &all_approx))
                .count()
        })
    });

    let mixed = mixed_system();
    assert_breakdown_parity("mixed_system", std::slice::from_ref(&mixed), &qpa);
    group.bench_function("incremental_qpa/mixed", |b| {
        b.iter(|| breakdown_scaling_workload(&mixed, &qpa))
    });
    group.bench_function("from_scratch_qpa/mixed", |b| {
        b.iter(|| reference::breakdown_scaling_workload(&mixed, &qpa))
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
            .filter_map(|index| wcet_slack_workload(ts, index, &qpa))
            .count()
    };
    let slack_all_reference = |ts: &TaskSet| -> usize {
        (0..ts.len())
            .filter_map(|index| reference::wcet_slack_workload(ts, index, &qpa))
            .count()
    };
    // Headline series: the robustness-budgeting regime (moderate load).
    let sets = slack_fixture(60, 4);
    assert_slack_parity("slack_fixture(60, 4)", &sets, &qpa);
    group.bench_with_input(
        BenchmarkId::new("incremental_qpa", "sets"),
        &sets,
        |b, sets| b.iter(|| sets.iter().map(slack_all).sum::<usize>()),
    );
    group.bench_with_input(
        BenchmarkId::new("from_scratch_qpa", "sets"),
        &sets,
        |b, sets| b.iter(|| sets.iter().map(slack_all_reference).sum::<usize>()),
    );
    // Hard case: 90–99 % load, where the exact test's own work at the
    // feasibility edge dominates the probe cost on both paths.
    let tight = ratio_fixture(10, 4);
    assert_slack_parity("ratio_fixture(10, 4)", &tight, &qpa);
    group.bench_with_input(
        BenchmarkId::new("incremental_qpa", "tight"),
        &tight,
        |b, sets| b.iter(|| sets.iter().map(slack_all).sum::<usize>()),
    );
    group.bench_with_input(
        BenchmarkId::new("from_scratch_qpa", "tight"),
        &tight,
        |b, sets| b.iter(|| sets.iter().map(slack_all_reference).sum::<usize>()),
    );

    let mixed = mixed_system();
    assert_slack_parity("mixed_system", std::slice::from_ref(&mixed), &qpa);
    let components = PreparedWorkload::new(&mixed).components().len();
    group.bench_function("incremental_qpa/mixed", |b| {
        b.iter(|| {
            (0..components)
                .filter_map(|index| wcet_slack_workload(&mixed, index, &qpa))
                .count()
        })
    });
    group.bench_function("from_scratch_qpa/mixed", |b| {
        b.iter(|| {
            (0..components)
                .filter_map(|index| reference::wcet_slack_workload(&mixed, index, &qpa))
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

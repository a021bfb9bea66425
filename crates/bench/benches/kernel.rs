//! Benchmark of the columnar demand kernel: `dbf`-evaluation throughput,
//! throughput of the windowed deadline merge (per job event and per
//! coalesced demand step), the refining-test engine
//! against the plain loops of `edf-oracle`, and `analyze_many` workloads/sec with
//! and without scratch reuse.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use edf_analysis::batch::{analyze_many_serial, BoxedTest};
use edf_analysis::kernel::AnalysisScratch;
use edf_analysis::tests::{AllApproximatedTest, DynamicErrorTest, ProcessorDemandTest, QpaTest};
use edf_analysis::workload::{MixedSystem, PreparedWorkload};
use edf_analysis::FeasibilityTest;
use edf_bench::{
    mixed_mode_fixture, ratio_fixture, skewed_period_fixture, stream_fixture, utilization_fixture,
    withdrawal_storm_fixture,
};
use edf_model::{TaskSet, Time};
use edf_oracle::refine;

fn exact_suite() -> Vec<BoxedTest> {
    vec![
        Box::new(DynamicErrorTest::new()),
        Box::new(AllApproximatedTest::new()),
        Box::new(QpaTest::new()),
        Box::new(ProcessorDemandTest::new()),
    ]
}

/// Probe intervals spanning the workload's analysis horizon (the range the
/// exact tests sweep).
fn probe_intervals(prepared: &PreparedWorkload, count: u64) -> Vec<Time> {
    let horizon = prepared
        .analysis_horizon()
        .unwrap_or(Time::new(1_000))
        .as_u64()
        .max(count);
    (1..=count)
        .map(|i| Time::new(i * horizon / count))
        .collect()
}

/// dbf-evaluation throughput: the kernel's binary-search + prefix-sum +
/// tight-loop evaluation over several fixture shapes.
fn bench_dbf_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let sets = ratio_fixture(100, 8);
    let prepared: Vec<PreparedWorkload> = sets.iter().map(PreparedWorkload::new).collect();
    let probes: Vec<Vec<Time>> = prepared.iter().map(|p| probe_intervals(p, 64)).collect();

    group.bench_function(BenchmarkId::new("dbf", "columnar"), |b| {
        b.iter(|| {
            let mut acc = Time::ZERO;
            for (p, probes) in prepared.iter().zip(&probes) {
                for &t in probes {
                    acc = acc.saturating_add(p.dbf(black_box(t)));
                }
            }
            acc
        })
    });

    // Large component counts (a 64-stream bursty mixed system).
    let system = MixedSystem::new(TaskSet::new(), stream_fixture(64));
    let large = PreparedWorkload::new(&system);
    let large_probes: Vec<Time> = (1..=256u64).map(|i| Time::new(i * 5_000 / 256)).collect();
    group.bench_function(BenchmarkId::new("dbf_large", "columnar"), |b| {
        b.iter(|| {
            let mut acc = Time::ZERO;
            for &t in &large_probes {
                acc = acc.saturating_add(large.dbf(black_box(t)));
            }
            acc
        })
    });

    // Skewed period spreads (Tmax/Tmin = 100_000): probes cut the sorted
    // columns at wildly different depths, so the column loop runs over
    // prefixes of every length instead of the whole column set.
    let skew_sets = skewed_period_fixture(8);
    let skew: Vec<PreparedWorkload> = skew_sets.iter().map(PreparedWorkload::new).collect();
    let skew_probes: Vec<Vec<Time>> = skew.iter().map(|p| probe_intervals(p, 64)).collect();
    group.bench_function(BenchmarkId::new("dbf_skew", "columnar"), |b| {
        b.iter(|| {
            let mut acc = Time::ZERO;
            for (p, probes) in skew.iter().zip(&skew_probes) {
                for &t in probes {
                    acc = acc.saturating_add(p.dbf(black_box(t)));
                }
            }
            acc
        })
    });

    // Mixed one-shot/periodic columns: every probe pays the one-shot
    // prefix lookup *and* the periodic column loop.
    let mixed_system = MixedSystem::new(TaskSet::new(), mixed_mode_fixture(48));
    let mixed = PreparedWorkload::new(&mixed_system);
    let mixed_probes: Vec<Time> = probe_intervals(&mixed, 128);
    group.bench_function(BenchmarkId::new("dbf_mixed", "columnar"), |b| {
        b.iter(|| {
            let mut acc = Time::ZERO;
            for &t in &mixed_probes {
                acc = acc.saturating_add(mixed.dbf(black_box(t)));
            }
            acc
        })
    });

    group.finish();
}

/// Throughput of the windowed deadline merge on the Fig. 8/9 ratio
/// fixture, walking every job deadline up to each workload's analysis
/// horizon: `merge/events` per job (`demand_events`), `merge/steps` per
/// distinct interval (`demand_steps`, the processor-demand walk without
/// its comparisons), reported with its interval count and the median
/// time per interval.
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let sets = ratio_fixture(1_000, 4);
    let prepared: Vec<PreparedWorkload> = sets.iter().map(PreparedWorkload::new).collect();
    let horizons: Vec<Time> = prepared
        .iter()
        .map(|p| p.analysis_horizon().unwrap_or(Time::new(10_000)))
        .collect();

    group.bench_function(BenchmarkId::new("merge", "events"), |b| {
        b.iter(|| {
            let mut events = 0usize;
            for (p, &horizon) in prepared.iter().zip(&horizons) {
                events += p.demand_events(black_box(horizon)).count();
            }
            events
        })
    });

    let mut scratch = AnalysisScratch::new();
    let intervals: usize = prepared
        .iter()
        .zip(&horizons)
        .map(|(p, &horizon)| p.demand_steps(horizon, &mut scratch).count())
        .sum();
    group.throughput(Throughput::Elements(intervals as u64));
    group.bench_function(BenchmarkId::new("merge", "steps"), |b| {
        b.iter(|| {
            let mut demand = Time::ZERO;
            for (p, &horizon) in prepared.iter().zip(&horizons) {
                for (_, step) in p.demand_steps(black_box(horizon), &mut scratch) {
                    demand = demand.saturating_add(step);
                }
            }
            demand
        })
    });
    group.finish();
}

/// Refining-test engine throughput: the shared `refine` engine (flat
/// frontier queue, incremental comparison aggregates with the f64
/// proven-margin screen, batched withdrawal passes) against the plain
/// reference loops of `edf_oracle::refine`, on the two fixtures
/// where the bookkeeping dominates — the hot ratio-100 high-utilization
/// sets of the Figure 9 regime and the withdrawal-storm sets whose
/// narrow period band makes every level increase cross many exactness
/// thresholds at once.  Both sides produce bit-identical analyses (the
/// `refine_equivalence` proptests pin this), so the delta is the cost of
/// the plain loops' per-comparison re-summation and `DemandComponent::dbf`
/// evaluations against the engine's incremental state.  Each lane
/// reports per comparison (`Throughput::Elements` is its summed iteration
/// count); `all_approximated` runs that test alone on the engine, the lane
/// of its FIFO revision queue.
fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let lanes = [
        ("ratio100", ratio_fixture(100, 8)),
        ("storm", withdrawal_storm_fixture(8)),
    ];
    for (lane, sets) in &lanes {
        let prepared: Vec<PreparedWorkload> = sets.iter().map(PreparedWorkload::new).collect();
        let dynamic = DynamicErrorTest::new();
        let all = AllApproximatedTest::new();

        let mut scratch = AnalysisScratch::new();
        let mut comparisons = |test: &dyn FeasibilityTest| -> u64 {
            prepared
                .iter()
                .map(|p| test.analyze_demand(p, &mut scratch).iterations)
                .sum()
        };
        let all_iterations = comparisons(&all);
        let suite_iterations = comparisons(&dynamic) + all_iterations;
        group.throughput(Throughput::Elements(suite_iterations));
        group.bench_function(BenchmarkId::new(format!("refine_{lane}"), "engine"), |b| {
            b.iter(|| {
                let mut iterations = 0u64;
                for p in &prepared {
                    iterations += dynamic.analyze_demand(p, &mut scratch).iterations;
                    iterations += all.analyze_demand(p, &mut scratch).iterations;
                }
                iterations
            })
        });
        group.bench_function(
            BenchmarkId::new(format!("refine_{lane}"), "reference"),
            |b| {
                b.iter(|| {
                    let mut iterations = 0u64;
                    for p in &prepared {
                        iterations += refine::dynamic_error(&dynamic, p).iterations;
                        iterations += refine::all_approximated(&all, p).iterations;
                    }
                    iterations
                })
            },
        );
        group.throughput(Throughput::Elements(all_iterations));
        group.bench_function(
            BenchmarkId::new(format!("refine_{lane}"), "all_approximated"),
            |b| {
                b.iter(|| {
                    let mut iterations = 0u64;
                    for p in &prepared {
                        iterations += all.analyze_demand(p, &mut scratch).iterations;
                    }
                    iterations
                })
            },
        );
    }
    group.finish();
}

/// Batch throughput over the exact suite: the allocation-free path (one
/// recycled preparation + one scratch arena) vs. fresh per-workload state
/// — the headline `analyze_many` number.
///
/// **History of this series:** before the refinement engine it tracked
/// far behind the raw `dbf` speedups (`scratch_reuse/16` once sat at
/// parity with the since-deleted scalar demand path, 819 µs vs 795 µs)
/// because a
/// per-test profile showed ~60 % of the suite's wall clock inside the
/// two refining tests (dynamic-error, all-approximated), whose inner
/// loops were approximation *bookkeeping* — per-interval heap
/// maintenance and exact-rational error-threshold comparisons —
/// identical code on both preparations.  Moving the demand-side work
/// onto the kernel columns (QPA/PDT walks, batched component-demand
/// withdrawals) first pushed `scratch_reuse/16` ~7 % ahead; the shared
/// `refine` engine (flat frontier queue, incremental aggregates,
/// screened comparisons — see `bench_refine` above for the isolated
/// series) now attacks the bookkeeping share itself, which is exactly
/// the restructuring that note called for.
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for &batch_size in &[16usize, 32] {
        let sets = utilization_fixture(95, batch_size);
        let tests = exact_suite();
        group.bench_with_input(
            BenchmarkId::new("analyze_many/scratch_reuse", batch_size),
            &sets,
            |b, sets| b.iter(|| analyze_many_serial(sets, &tests).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("analyze_many/fresh_state", batch_size),
            &sets,
            |b, sets| {
                b.iter(|| {
                    sets.iter()
                        .map(|ts| {
                            let prepared = PreparedWorkload::new(ts);
                            tests
                                .iter()
                                .map(|t| t.analyze_prepared(&prepared))
                                .collect::<Vec<_>>()
                        })
                        .count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dbf_eval,
    bench_merge,
    bench_refine,
    bench_batch
);
criterion_main!(benches);

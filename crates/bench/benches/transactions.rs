//! Benchmark of the candidate-product transaction engine
//! (`edf_analysis::candidates`) across candidate-product sizes,
//! utilizations and offset shapes.
//!
//! Lanes per fixture: `engine_serial` (dominance pruning, density screen
//! and Gray-code incremental swaps, single-threaded: `analyze_budgeted`
//! under a limited `WorkBudget` too large to run out, which forces the
//! serial sweep) and `engine` (`analyze`, including the parallel
//! early-exit sweep).  Pruned-product and screened-combination counts are
//! printed per fixture so every run records how much of the work each
//! layer removed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use edf_analysis::candidates::{self, CandidateAnalysis};
use edf_analysis::tests::QpaTest;
use edf_analysis::WorkBudget;
use edf_bench::transaction_product_fixture;
use edf_model::TransactionSystem;

/// The serial engine: every algorithmic layer on, the parallel fan-out
/// off (a limited budget forces the serial sweep).
fn serial(test: &QpaTest, system: &TransactionSystem) -> CandidateAnalysis {
    candidates::analyze_budgeted(test, system, &mut WorkBudget::limited(u64::MAX - 1))
}

fn fixtures() -> Vec<(&'static str, TransactionSystem)> {
    vec![
        // The headline fixture of the acceptance criterion: product ≥ 10³
        // at a moderate load.
        (
            "product_1024_util60",
            transaction_product_fixture(&[4; 5], 60, 0, 42),
        ),
        // Heavy load: the screen decides little, the win must come from
        // pruning and the incremental swaps.
        (
            "product_1024_util90",
            transaction_product_fixture(&[4; 5], 90, 0, 44),
        ),
        // Duplicate release offsets: the dominance-pruning regime.
        (
            "product_1024_dup_offsets",
            transaction_product_fixture(&[4; 5], 60, 2, 41),
        ),
        // A wider product.
        (
            "product_4096_util75",
            transaction_product_fixture(&[8, 8, 8, 8], 75, 0, 42),
        ),
    ]
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("transactions");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let test = QpaTest::new();
    for (name, system) in &fixtures() {
        // Sanity check once per fixture, and record how much each layer
        // removed (the numbers land in the bench log next to the timings).
        let engine = serial(&test, system);
        eprintln!(
            "transactions/{name}: verdict {}, product {} -> pruned {}, \
             examined {}, screened {}",
            engine.analysis.verdict,
            engine.stats.candidate_product,
            engine.stats.pruned_product,
            engine.stats.combinations_examined,
            engine.stats.combinations_screened,
        );
        group.bench_with_input(
            BenchmarkId::new("engine_serial", name),
            system,
            |b, system| b.iter(|| serial(&test, black_box(system)).analysis.iterations),
        );
        group.bench_with_input(BenchmarkId::new("engine", name), system, |b, system| {
            b.iter(|| {
                candidates::analyze(&test, black_box(system))
                    .analysis
                    .iterations
            })
        });
    }
    group.finish();
}

/// Scaling lane: a 10⁵ product (a cold re-preparation per combination
/// would prepare a hundred thousand workloads per iteration).
fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("transactions");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let test = QpaTest::new();
    let system = transaction_product_fixture(&[10; 5], 60, 0, 46);
    let stats = serial(&test, &system).stats;
    eprintln!(
        "transactions/product_100000_util60: product {} -> pruned {}, examined {}, screened {}",
        stats.candidate_product,
        stats.pruned_product,
        stats.combinations_examined,
        stats.combinations_screened,
    );
    group.bench_with_input(
        BenchmarkId::new("engine_serial", "product_100000_util60"),
        &system,
        |b, system| b.iter(|| serial(&test, black_box(system)).analysis.iterations),
    );
    group.finish();
}

criterion_group!(benches, bench_engine, bench_engine_scaling);
criterion_main!(benches);

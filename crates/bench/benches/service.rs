//! Benchmark of the `edf-serve` admission-control service: the cost of one
//! admission decision through the [`EditView`] delta path (structural
//! edit, deadline-order repair, in-place kernel rebuild, horizon refresh)
//! versus a cold re-preparation of the edited component list, the
//! budgeted anytime lane, and the restart cost of journal recovery.
//!
//! Both decision paths run the service's exact test ([`SERVICE_TEST`], QPA
//! descent from the §4.3 horizon), so the `whatif_*` gap is pure
//! preparation overhead — exactly what an admission server pays per
//! request on its committed systems.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_analysis::{AnalysisScratch, FeasibilityTest, Workload};
use edf_bench::ratio_fixture;
use edf_model::{TaskSet, Time};
use edf_serve::journal::{Journal, JournalRecord};
use edf_serve::{AdmissionService, SlaMode, SERVICE_TEST};

/// The committed base system of one tenant: a ratio-controlled sporadic
/// set, taken apart into demand components.
fn tenant_base(ratio: u64, seed_offset: usize) -> Vec<DemandComponent> {
    let sets: Vec<TaskSet> = ratio_fixture(ratio, seed_offset + 1);
    let mut components = Vec::new();
    sets[seed_offset].append_components(&mut components);
    components
}

/// The probe component every benchmark admits hypothetically: light
/// enough to keep the edited system feasible, so the analysis always runs
/// to a decisive verdict instead of an early `U > 1` exit.
fn probe() -> DemandComponent {
    DemandComponent::periodic(Time::new(1), Time::new(900), Time::new(1_000))
}

/// A large consolidation tenant: `n` light components with spread
/// deadlines and periods (total utilization `n`/2048 ≪ 1).  The exact
/// analysis decides such high-slack systems quickly, so the request cost
/// is dominated by preparation — the regime where the delta path's reuse
/// of the committed sort/bounds/kernel state matters most.
fn light_tenant(n: u64) -> Vec<DemandComponent> {
    (0..n)
        .map(|index| {
            DemandComponent::periodic(
                Time::new(1),
                Time::new(40 + (index * 13) % 400),
                Time::new(2_048 + 7 * index),
            )
        })
        .collect()
}

/// One what-if decision per request: the `editview` series answers it
/// through the service's delta path over the committed [`EditView`]; the
/// `cold_prepare` series re-prepares the edited component list from
/// scratch, which is what a view-less server would have to do.  The
/// parameter is the period ratio for the sporadic fixtures (10, 100) and
/// the component count for the light consolidation tenants (256, 1024).
fn bench_admission_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let bases: Vec<(u64, Vec<DemandComponent>)> = vec![
        (10, tenant_base(10, 0)),
        (100, tenant_base(100, 0)),
        (256, light_tenant(256)),
        (1024, light_tenant(1024)),
    ];
    for (ratio, base) in bases {
        let mut service = AdmissionService::new();
        service
            .register_tenant("tenant", &PreparedWorkload::from_components(base.clone()))
            .expect("valid fixture base");
        // Warm the view's lazy state once so the loop measures steady
        // service operation, not first-touch preparation.
        service.what_if("tenant", probe()).expect("valid probe");
        group.bench_with_input(
            BenchmarkId::new("whatif_editview", ratio),
            &base,
            |b, _base| {
                b.iter(|| {
                    black_box(service.what_if("tenant", probe()))
                        .expect("valid probe")
                        .analysis
                })
            },
        );

        let mut scratch = AnalysisScratch::new();
        group.bench_with_input(
            BenchmarkId::new("whatif_cold_prepare", ratio),
            &base,
            |b, base| {
                b.iter(|| {
                    let mut edited = base.clone();
                    edited.push(probe());
                    let prepared = PreparedWorkload::from_components(edited);
                    black_box(SERVICE_TEST.analyze_prepared_with(&prepared, &mut scratch))
                })
            },
        );
    }
    group.finish();
}

/// The budgeted lanes against the exact lane on the same tenant, each
/// allowance in deterministic work units ([`SlaMode::BudgetedUnits`]):
/// `units_zero` answers immediately with `Unknown`, `units_exhaust`
/// measures the exhaustion-answer latency (how fast a shed request
/// unwinds through the budget checkpoints to its honest `Unknown`), and
/// `units_generous` the fully-metered decisive path.  The exact probe takes 45 units (the
/// entry charge plus 44 descent steps), so the 16-unit lane sheds
/// mid-descent; setup asserts that it does.
fn bench_budgeted(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_budget");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let base = tenant_base(100, 0);
    let mut service = AdmissionService::new();
    service
        .register_tenant("tenant", &PreparedWorkload::from_components(base))
        .expect("valid fixture base");
    service.what_if("tenant", probe()).expect("valid probe");

    for (label, mode) in [
        ("exact", SlaMode::Exact),
        ("units_zero", SlaMode::BudgetedUnits { units: 0 }),
        ("units_exhaust", SlaMode::BudgetedUnits { units: 16 }),
        (
            "units_generous",
            SlaMode::BudgetedUnits { units: 1_000_000 },
        ),
    ] {
        service.set_mode(mode).expect("no journal attached");
        if label == "units_exhaust" {
            let reply = service.what_if("tenant", probe()).expect("valid probe");
            assert!(
                reply.analysis.budget_exhausted(),
                "{label} must shed: {:?}",
                reply.analysis
            );
        }
        group.bench_function(BenchmarkId::new(label, 100u64), |b| {
            b.iter(|| {
                black_box(service.what_if("tenant", probe()))
                    .expect("valid probe")
                    .analysis
            })
        });
    }
    group.finish();
}

/// The restart cost: [`AdmissionService::recover`] over a journal with the
/// tenant shape of the perfbench serve workloads — 128 near-critical
/// tenants of 5–50 components, each written as one `Tenant` record and
/// one `Admit` per component under consecutive ids.  Each iteration
/// opens, replays and builds every tenant's view from the same file;
/// throughput is counted in journal records.
fn bench_recover(c: &mut Criterion) {
    const TENANTS: usize = 128;
    let path = std::env::temp_dir().join(format!(
        "edf-bench-service-recover-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut records = 0u64;
    {
        let (mut journal, _) = Journal::open(&path).expect("create the journal");
        let mut id = 0u64;
        for (index, set) in ratio_fixture(100, TENANTS).iter().enumerate() {
            let tenant = format!("tenant-{index:03}");
            journal
                .append(&JournalRecord::Tenant {
                    tenant: tenant.clone(),
                })
                .expect("append");
            records += 1;
            let mut components = Vec::new();
            set.append_components(&mut components);
            for component in components {
                journal
                    .append(&JournalRecord::Admit {
                        tenant: tenant.clone(),
                        id,
                        component,
                    })
                    .expect("append");
                id += 1;
                records += 1;
            }
        }
    }

    let mut group = c.benchmark_group("service_recover");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(records));
    group.bench_function(BenchmarkId::new("recover", TENANTS), |b| {
        b.iter(|| {
            let service = AdmissionService::recover(&path).expect("recover");
            assert_eq!(service.tenant_count(), TENANTS);
            black_box(service)
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    benches,
    bench_admission_paths,
    bench_budgeted,
    bench_recover
);
criterion_main!(benches);

//! Deterministic fault-injection harness: drive the full admission
//! protocol while a seeded [`FaultPlan`] injects analysis panics,
//! watchdog fires, work-budget exhaustions and journal write faults
//! (torn short-writes and bit flips) through the service's *production*
//! fault paths, and assert the core robustness invariants:
//!
//! 1. **Exactly one reply per request** — never dropped, never
//!    duplicated, faults included.
//! 2. **Never a wrong verdict** — every decisive reply is re-verified by
//!    running an independent exact test (the paper's all-approximated
//!    test, not the service's QPA) against a shadow model of the
//!    committed state; degradation is always an honest `Unknown` (or a
//!    coded error), never a fabricated verdict.
//! 3. **State always recoverable** — after the faulted session, the
//!    journal's valid prefix replays into exactly the state implied by
//!    the acknowledged commits up to the first corrupted append
//!    ([`FaultReport::first_faulty_append`] is the ground-truth
//!    boundary).
//!
//! Every case derives from one seed, so a failure replays exactly.

use std::path::PathBuf;
use std::time::Duration;

use edf_analysis::tests::AllApproximatedTest;
use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_analysis::{FeasibilityTest, Verdict};
use edf_model::Time;
use edf_serve::fault::{FaultPlan, FaultReport, InjectedFault};
use edf_serve::journal::{Journal, JournalState};
use edf_serve::{AdmissionDecision, AdmissionService, RequestError, SlaMode, WatchdogConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Keeps injected-panic backtraces out of the test output (hundreds fire
/// per run); every other panic still reports through the default hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|message| message.contains("injected analysis panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// A deterministic request stream derived from `seed` (disjoint from the
/// fault plan's stream, which uses `seed ^ !0`).
#[derive(Debug, Clone, Copy)]
enum Request {
    Admit {
        tenant: usize,
        component: DemandComponent,
    },
    WhatIf {
        tenant: usize,
        component: DemandComponent,
    },
    Evict {
        tenant: usize,
        selector: usize,
    },
}

fn component_from(rng: &mut StdRng) -> DemandComponent {
    let period = rng.gen_range(2u64..40);
    let cost = rng.gen_range(1u64..12).min(period);
    let deadline = rng.gen_range(1u64..40);
    DemandComponent::periodic(Time::new(cost), Time::new(deadline), Time::new(period))
}

fn request_stream(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let tenant = rng.gen_range(0u64..TENANTS.len() as u64) as usize;
            match rng.gen_range(0u32..10) {
                0..=5 => Request::Admit {
                    tenant,
                    component: component_from(&mut rng),
                },
                6 | 7 => Request::WhatIf {
                    tenant,
                    component: component_from(&mut rng),
                },
                _ => Request::Evict {
                    tenant,
                    selector: rng.gen_range(0u64..8) as usize,
                },
            }
        })
        .collect()
}

/// The shadow model: per-tenant committed `(id, component)` lists built
/// exclusively from the service's *acknowledged replies*, plus the
/// append sequence the journal should contain.  Divergence between this
/// and the service would surface as a wrong re-verified verdict or a
/// recovery mismatch.
#[derive(Debug, Default)]
struct Shadow {
    committed: Vec<Vec<(u64, DemandComponent)>>,
    /// Journal appends implied by acknowledged replies, in order:
    /// `(tenant index or usize::MAX for mode records, admitted id or 0)`.
    appends: u64,
}

fn journal_path(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edf-serve-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{seed}.journal"))
}

/// Runs the paper's all-approximated exact test (uncapped) on the shadow
/// committed state of `tenant` plus `component`, returning the
/// ground-truth verdict.  The service decides with QPA, so this oracle
/// is an exact test independent of the one under test.
fn ground_truth(shadow: &Shadow, tenant: usize, component: DemandComponent) -> Verdict {
    let mut components: Vec<DemandComponent> = shadow.committed[tenant]
        .iter()
        .map(|&(_, component)| component)
        .collect();
    components.push(component);
    let prepared = PreparedWorkload::from_components(components);
    AllApproximatedTest::new()
        .analyze_prepared(&prepared)
        .verdict
}

/// Drives one faulted session end to end and checks invariants 1 and 2;
/// returns the shadow model and the fault report for the recovery check.
fn run_faulted_session(
    service: &mut AdmissionService,
    requests: &[Request],
) -> (Shadow, FaultReport) {
    let mut shadow = Shadow {
        committed: vec![Vec::new(); TENANTS.len()],
        appends: 0,
    };
    // Tenant-creation records are journaled on first touch; track which
    // tenants the service has seen so the shadow counts those appends.
    let mut seen = [false; TENANTS.len()];
    for (index, request) in requests.iter().enumerate() {
        // Invariant 1 (one reply per request) is structural here: every
        // arm produces exactly one Result and we assert on it.
        match *request {
            Request::Admit { tenant, component } => {
                let name = TENANTS[tenant];
                if !seen[tenant] {
                    // The service journals the Tenant record before the
                    // analysis can panic, so creation counts an append
                    // whatever the outcome.
                    shadow.appends += 1;
                    seen[tenant] = true;
                }
                match service.admit(name, component) {
                    Ok(response) => {
                        match response.decision {
                            AdmissionDecision::Admitted(id) => {
                                // Invariant 2: an acknowledged admission
                                // must be exactly-feasible against the
                                // shadow state.
                                assert_eq!(
                                    ground_truth(&shadow, tenant, component),
                                    Verdict::Feasible,
                                    "request {index}: admitted but ground truth disagrees"
                                );
                                shadow.committed[tenant].push((id, component));
                                shadow.appends += 1;
                            }
                            AdmissionDecision::Rejected => {
                                assert_eq!(
                                    ground_truth(&shadow, tenant, component),
                                    Verdict::Infeasible,
                                    "request {index}: rejected but ground truth disagrees"
                                );
                            }
                            // Honest degradation: never verified wrong,
                            // never committed.
                            AdmissionDecision::Undetermined => {
                                assert_eq!(response.analysis.verdict, Verdict::Unknown);
                            }
                        }
                    }
                    Err(RequestError::AnalysisPanic { .. }) => {
                        // Isolated; no verdict fabricated, no commit.
                    }
                    Err(error) => panic!("request {index}: unexpected error {error}"),
                }
            }
            Request::WhatIf { tenant, component } => {
                let name = TENANTS[tenant];
                match service.what_if(name, component) {
                    Ok(response) => match response.decision {
                        AdmissionDecision::Admitted(_) => assert_eq!(
                            ground_truth(&shadow, tenant, component),
                            Verdict::Feasible,
                            "request {index}: what-if admit but ground truth disagrees"
                        ),
                        AdmissionDecision::Rejected => assert_eq!(
                            ground_truth(&shadow, tenant, component),
                            Verdict::Infeasible,
                            "request {index}: what-if reject but ground truth disagrees"
                        ),
                        AdmissionDecision::Undetermined => {
                            assert_eq!(response.analysis.verdict, Verdict::Unknown);
                        }
                    },
                    Err(RequestError::AnalysisPanic { .. }) => {}
                    Err(error) => panic!("request {index}: unexpected error {error}"),
                }
            }
            Request::Evict { tenant, selector } => {
                let name = TENANTS[tenant];
                if shadow.committed[tenant].is_empty() {
                    match service.evict(name, u64::MAX) {
                        Err(
                            RequestError::UnknownTenant { .. }
                            | RequestError::UnknownComponent { .. },
                        ) => {}
                        other => panic!("request {index}: expected unknown target, got {other:?}"),
                    }
                } else {
                    let position = selector % shadow.committed[tenant].len();
                    let (id, _) = shadow.committed[tenant][position];
                    service.evict(name, id).expect("shadow-live id");
                    shadow.committed[tenant].remove(position);
                    shadow.appends += 1;
                }
            }
        }
    }
    let report = service
        .take_fault_plan()
        .expect("plan attached")
        .report()
        .clone();
    (shadow, report)
}

/// Invariant 3: the journal's valid prefix replays into exactly the
/// acknowledged state up to the first corrupted append.
fn assert_recoverable(path: &PathBuf, shadow: &Shadow, report: &FaultReport) {
    let (_journal, records) = Journal::open(path).expect("reopen journal");
    let mut state = JournalState::default();
    for record in &records {
        state.apply(record);
    }
    match report.first_faulty_append() {
        None => {
            // No write faults: recovery must be the full acknowledged
            // state, tenant by tenant, id for id.
            assert_eq!(records.len() as u64, shadow.appends, "append count");
            for (index, name) in TENANTS.iter().enumerate() {
                let recovered: &[(u64, DemandComponent)] = state
                    .tenants
                    .iter()
                    .find(|(tenant, _)| tenant == name)
                    .map(|(_, committed)| committed.as_slice())
                    .unwrap_or(&[]);
                assert_eq!(
                    recovered,
                    shadow.committed[index].as_slice(),
                    "tenant {name} recovered committed list"
                );
            }
        }
        Some(boundary) => {
            // A torn or flipped append ends the valid prefix: replay
            // recovers at least the records before it and nothing after
            // a corrupt frame can resurrect (the reader stops at the
            // first bad frame, so the record count is bounded by the
            // boundary).
            assert!(
                records.len() as u64 <= boundary,
                "replay read past the first corrupted append ({} > {boundary})",
                records.len()
            );
            // The plan caps a short write's `keep` below the 12-byte
            // frame header, so the boundary is always a real loss point;
            // everything before it must survive.
            let clean_prefix = report
                .injected
                .iter()
                .filter_map(|fault| match fault {
                    InjectedFault::Write { append, .. } => Some(*append),
                    _ => None,
                })
                .min()
                .expect("boundary implies a write fault");
            assert_eq!(clean_prefix, boundary);
            assert_eq!(
                records.len() as u64,
                boundary,
                "the clean prefix before the first fault must replay in full"
            );
        }
    }
}

/// One full faulted scenario for a given seed and fault rates.
fn faulted_scenario(seed: u64, panics: u32, fires: u32, exhausts: u32, writes: u32) {
    silence_injected_panics();
    let path = journal_path("session", seed);
    let _ = std::fs::remove_file(&path);
    let mut service = AdmissionService::recover(&path).expect("fresh journal");
    service.set_watchdog(Some(WatchdogConfig::with_guard(Duration::from_secs(5))));
    service.set_work_rate(25);
    service.set_fault_plan(
        FaultPlan::from_seed(seed ^ !0, panics, fires, writes)
            .with_budget_exhaust_per_mille(exhausts),
    );
    let requests = request_stream(seed, 60);
    let (shadow, report) = run_faulted_session(&mut service, &requests);
    drop(service);
    assert_recoverable(&path, &shadow, &report);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Analysis panics and watchdog fires only: every reply is honest,
    /// the journal (never corrupted) recovers the full acknowledged
    /// state.
    #[test]
    fn panics_and_fires_never_fabricate_verdicts(seed in 0u64..u64::MAX) {
        faulted_scenario(seed, 150, 150, 0, 0);
    }

    /// Seeded work-budget exhaustions unwound through the production
    /// checkpoints: every shed request is an honest `Unknown`, nothing
    /// exhausted ever commits, and the journal recovers in full.
    #[test]
    fn budget_exhaustions_stay_honest_and_uncommitted(seed in 0u64..u64::MAX) {
        faulted_scenario(seed, 0, 0, 400, 0);
    }

    /// Torn and bit-flipped journal appends: the valid prefix replays
    /// exactly, decisions stay verified-correct throughout.
    #[test]
    fn torn_journal_writes_recover_the_clean_prefix(seed in 0u64..u64::MAX) {
        faulted_scenario(seed, 0, 0, 0, 60);
    }

    /// Everything at once — the full storm.
    #[test]
    fn combined_fault_storm_holds_all_invariants(seed in 0u64..u64::MAX) {
        faulted_scenario(seed, 100, 100, 100, 40);
    }
}

/// Exact-mode requests are wrong-verdict-free even while the watchdog is
/// degrading and recovering around them (mode changes under fire).
#[test]
fn degradation_is_honest_under_sustained_fires() {
    let mut service = AdmissionService::with_mode(SlaMode::Exact);
    service.set_watchdog(Some(WatchdogConfig {
        guard: Duration::from_secs(5),
        trip_threshold: 2,
        recovery_threshold: 2,
        degraded_deadline: Duration::from_millis(20),
    }));
    service.set_work_rate(25);
    service.set_fault_plan(FaultPlan::from_seed(21, 0, 1000, 0));
    let component = DemandComponent::periodic(Time::new(2), Time::new(9), Time::new(10));
    for _ in 0..6 {
        let response = service
            .admit("alpha", component)
            .expect("no panics injected");
        assert_eq!(
            response.analysis.verdict,
            Verdict::Unknown,
            "a fired guard answers Unknown, never a guess"
        );
        assert_eq!(response.decision, AdmissionDecision::Undetermined);
    }
    assert!(service.is_degraded(), "sustained fires shed load");
    assert_eq!(
        service.stat("alpha").expect("tenant created").components,
        0,
        "no unknown ever admitted"
    );
    service.take_fault_plan();
    for _ in 0..2 {
        service.admit("alpha", component).expect("clean request");
    }
    assert!(!service.is_degraded(), "clean requests recover the mode");
}

/// A re-registration is journaled as one record, so a write fault on it
/// (a crash mid-append) recovers the previous registration whole, never
/// a mix of the two; without a fault the journal recovers what memory
/// holds.
#[test]
fn a_torn_registration_recovers_whole_or_not_at_all() {
    const SEEDS: u64 = 32;
    let periodic = |cost, deadline, period| {
        DemandComponent::periodic(Time::new(cost), Time::new(deadline), Time::new(period))
    };
    let old = PreparedWorkload::from_components(vec![periodic(1, 9, 10), periodic(2, 14, 20)]);
    let new = PreparedWorkload::from_components(vec![periodic(3, 9, 10)]);
    let mut torn = 0;
    for seed in 0..SEEDS {
        let path = journal_path("register", seed);
        let _ = std::fs::remove_file(&path);
        let mut service = AdmissionService::recover(&path).expect("fresh journal");
        service
            .register_tenant("t", &old)
            .expect("clean registration");
        let before = service.stat("t");
        service.set_fault_plan(FaultPlan::from_seed(seed, 0, 0, 400));
        service
            .register_tenant("t", &new)
            .expect("a torn write goes unobserved");
        let report = service
            .take_fault_plan()
            .expect("plan attached")
            .report()
            .clone();
        let expected = match report.first_faulty_append() {
            Some(_) => {
                torn += 1;
                before
            }
            None => service.stat("t"),
        };
        drop(service);
        let recovered = AdmissionService::recover(&path).expect("replay journal");
        assert_eq!(
            recovered.stat("t"),
            expected,
            "seed {seed}: faults {:?}",
            report.injected
        );
        let _ = std::fs::remove_file(&path);
    }
    assert!(
        0 < torn && torn < SEEDS,
        "{torn} of {SEEDS} registrations torn"
    );
}

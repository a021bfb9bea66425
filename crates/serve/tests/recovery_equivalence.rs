//! Replay-equivalence property tests: any sequence of journaled service
//! operations (admits, evictions, mode changes, snapshots), recovered by
//! replaying the journal, yields a service whose observable state —
//! `STAT` summaries (bit-identical utilization), mode, id allocator and
//! the verdict of every subsequent analysis — matches the live pre-crash
//! service exactly.
//!
//! This extends the `edit_equivalence` argument one layer up: that suite
//! proves the *view's* delta path is bit-identical to a cold
//! preparation; this one proves the journal's replay (which rebuilds
//! each tenant cold, in committed insertion order) lands on the same
//! state the live service reached incrementally, so a crash-restart can
//! never drift from the pre-crash answers.

use std::path::{Path, PathBuf};

use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_model::Time;
use edf_serve::journal::{Journal, JournalRecord};
use edf_serve::{protocol, AdmissionDecision, AdmissionService, SlaMode};
use proptest::prelude::*;

/// A fresh per-case journal path under the target-adjacent temp dir.
fn journal_path(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edf-serve-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{case}.journal"))
}

/// One service operation.  Selector operands are reduced modulo the live
/// state at application time, so every generated sequence is valid.
#[derive(Debug, Clone)]
enum Op {
    Admit {
        tenant: usize,
        component: DemandComponent,
    },
    Evict {
        tenant: usize,
        selector: usize,
    },
    Mode {
        budget_micros: Option<u64>,
    },
    Snapshot,
}

/// Valid components only: the journal records committed state, which the
/// front door already validated.
fn arb_component() -> impl Strategy<Value = DemandComponent> {
    (0u8..=1, 1u64..=9, 1u64..=60, 2u64..=80).prop_map(|(kind, c, d, x)| {
        if kind == 0 {
            DemandComponent::periodic(Time::new(c.min(x)), Time::new(d), Time::new(x))
        } else {
            DemandComponent::one_shot(Time::new(c.min(6)), Time::new(d.max(1)), Time::new(x % 21))
        }
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..=9, 0usize..4, arb_component(), 0usize..8, 0u64..=2).prop_map(
        |(kind, tenant, component, selector, mode)| match kind {
            // Admissions weighted up so journals accumulate real state.
            0..=5 => Op::Admit { tenant, component },
            6 | 7 => Op::Evict { tenant, selector },
            8 => Op::Mode {
                budget_micros: match mode {
                    0 => None,
                    1 => Some(0),
                    _ => Some(100_000),
                },
            },
            _ => Op::Snapshot,
        },
    )
}

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Drives `ops` against a journaled service, tracking the committed ids
/// per tenant so evictions target live components.
fn drive(service: &mut AdmissionService, ops: &[Op]) {
    let mut live: Vec<Vec<u64>> = vec![Vec::new(); TENANTS.len()];
    for op in ops {
        match op {
            Op::Admit { tenant, component } => {
                let name = TENANTS[tenant % TENANTS.len()];
                let response = service.admit(name, *component).expect("valid component");
                if let AdmissionDecision::Admitted(id) = response.decision {
                    live[tenant % TENANTS.len()].push(id);
                }
            }
            Op::Evict { tenant, selector } => {
                let index = tenant % TENANTS.len();
                if live[index].is_empty() {
                    continue;
                }
                let position = selector % live[index].len();
                let id = live[index].remove(position);
                service.evict(TENANTS[index], id).expect("live id");
            }
            Op::Mode { budget_micros } => {
                let request = match budget_micros {
                    None => "MODE exact".to_owned(),
                    Some(micros) => format!("MODE budget {micros}"),
                };
                let reply = protocol::dispatch(service, &request);
                assert!(reply.starts_with("MODE "), "{request}: {reply}");
            }
            Op::Snapshot => {
                service.snapshot().expect("journal compaction");
            }
        }
    }
}

/// Asserts the recovered service is observably identical to the live
/// one: per-tenant `STAT` (components and bit-identical utilization),
/// mode, and the decision + analysis of a post-recovery what-if probe on
/// every tenant (exact mode, so analyses are deterministic).
fn assert_equivalent(live: &mut AdmissionService, recovered: &mut AdmissionService) {
    assert_eq!(live.tenant_count(), recovered.tenant_count());
    assert_eq!(live.mode(), recovered.mode());
    for tenant in TENANTS {
        let live_stat = live.stat(tenant);
        let recovered_stat = recovered.stat(tenant);
        match (live_stat, recovered_stat) {
            (None, None) => continue,
            (Some(a), Some(b)) => {
                assert_eq!(a.components, b.components, "tenant {tenant}");
                assert_eq!(
                    a.utilization.to_bits(),
                    b.utilization.to_bits(),
                    "tenant {tenant} utilization must be bit-identical"
                );
            }
            (a, b) => panic!("tenant {tenant} presence diverged: {a:?} vs {b:?}"),
        }
        // Drive both through the same exact-mode probes: committed state
        // equivalence must extend to every subsequent verdict.
        live.set_mode(SlaMode::Exact).expect("no journal errors");
        recovered
            .set_mode(SlaMode::Exact)
            .expect("no journal errors");
        for probe in [
            DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10)),
            DemandComponent::periodic(Time::new(7), Time::new(8), Time::new(10)),
        ] {
            let a = live.what_if(tenant, probe).expect("valid probe");
            let b = recovered.what_if(tenant, probe).expect("valid probe");
            assert_eq!(a.decision, b.decision, "tenant {tenant}");
            assert_eq!(a.analysis, b.analysis, "tenant {tenant}");
        }
    }
}

proptest! {
    /// Live service → journal → recovered service: observably identical.
    #[test]
    fn recovery_is_bit_identical(ops in prop::collection::vec(arb_op(), 1..=24), case in 0u64..u64::MAX) {
        let path = journal_path("replay", case);
        let _ = std::fs::remove_file(&path);
        let mut live = AdmissionService::recover(&path).expect("fresh journal");
        drive(&mut live, &ops);
        let mut recovered = AdmissionService::recover(&path).expect("replay journal");
        assert_equivalent(&mut live, &mut recovered);
        let _ = std::fs::remove_file(&path);
    }

    /// Recovery composes: crash → recover → more ops → crash → recover
    /// still matches a service that lived through everything.
    #[test]
    fn recovery_composes_across_restarts(
        first in prop::collection::vec(arb_op(), 1..=12),
        second in prop::collection::vec(arb_op(), 1..=12),
        case in 0u64..u64::MAX,
    ) {
        let path = journal_path("restart", case);
        let _ = std::fs::remove_file(&path);
        {
            let mut service = AdmissionService::recover(&path).expect("fresh journal");
            drive(&mut service, &first);
            // Dropped without any shutdown: the journal alone carries the state.
        }
        let mut resumed = AdmissionService::recover(&path).expect("replay journal");
        drive(&mut resumed, &second);
        let mut recovered = AdmissionService::recover(&path).expect("second replay");
        assert_equivalent(&mut resumed, &mut recovered);
        let _ = std::fs::remove_file(&path);
    }
}

/// A journal written before the wall-clock mode record was retired: the
/// records of two admissions to `alpha`, a registration of `t` with two
/// components, a `MODE budget 1500` record holding the deadline in
/// nanoseconds, the re-registration of `t` with one component (`Evict`,
/// `Evict`, `Tenant`, `Admit`) and a `NextId` floor of 9.  It still
/// recovers; the deadline converts at the default work rate of
/// 9 units/µs.
#[test]
fn a_journal_in_the_previous_format_recovers() {
    let path = journal_path("fixture", 0);
    std::fs::write(&path, include_bytes!("fixtures/journal_v1.bin")).expect("copy fixture");
    let mut service = AdmissionService::recover(&path).expect("replay fixture");
    assert_eq!(service.mode(), SlaMode::BudgetedUnits { units: 13_500 });
    assert_eq!(service.tenant_count(), 2);
    let alpha = service.stat("alpha").expect("alpha recovered");
    assert_eq!(alpha.components, 2);
    assert_eq!(alpha.utilization.to_bits(), 0.4f64.to_bits());
    let t = service.stat("t").expect("t recovered");
    assert_eq!(t.components, 1);
    assert_eq!(t.utilization.to_bits(), 0.3f64.to_bits());
    // The surviving component of `t` is id 4; the ids replaced by the
    // re-registration are gone.
    assert!(service.evict("t", 2).is_err());
    service.evict("t", 4).expect("id 4 is live");
    let next = DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10));
    assert_eq!(
        service.admit("alpha", next).expect("valid").decision,
        AdmissionDecision::Admitted(9),
        "the allocator resumes at the NextId floor"
    );
    let _ = std::fs::remove_file(&path);
}

/// Writes `records` as a fresh journal at `path`.
fn write_journal(path: &Path, records: &[JournalRecord]) {
    let _ = std::fs::remove_file(path);
    let (mut journal, _) = Journal::open(path).expect("create journal");
    for record in records {
        journal.append(record).expect("append");
    }
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("journal exists").len()
}

/// A service whose allocator floor is `u64::MAX` — lifted there by a
/// `NextId` or by a `Register` whose ids end just below it — has no id
/// left to hand out: `ADMIT` and `register_tenant` answer
/// `ids-exhausted`, append nothing and never wrap the allocator, also
/// after a restart.  A what-if needs no id and still answers.
#[test]
fn exhausted_ids_are_refused_without_a_journal_append() {
    let component = DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10));
    let floors = [
        ("next-id", JournalRecord::NextId(u64::MAX)),
        (
            "register",
            JournalRecord::Register {
                tenant: "r".into(),
                first_id: u64::MAX - 2,
                components: vec![component, component],
            },
        ),
    ];
    for (tag, floor) in floors {
        let path = journal_path(tag, 0);
        write_journal(&path, &[floor]);
        let len = journal_len(&path);
        for _restart in 0..2 {
            let mut service = AdmissionService::recover(&path).expect("replay");
            let tenants = service.tenant_count();
            let reply = protocol::dispatch(&mut service, "ADMIT t 1 9 10");
            assert!(
                reply.starts_with("ERR code=ids-exhausted"),
                "{tag}: {reply}"
            );
            let error = service
                .register_tenant("u", &PreparedWorkload::from_components(vec![component]))
                .expect_err("no id left for the base");
            assert_eq!(error.code(), "ids-exhausted", "{tag}");
            let reply = protocol::dispatch(&mut service, "WHATIF t 1 9 10");
            assert!(reply.starts_with("WHATIF admit "), "{tag}: {reply}");
            assert_eq!(service.tenant_count(), tenants, "{tag}: no tenant created");
            assert_eq!(journal_len(&path), len, "{tag}: nothing appended");
        }
        let _ = std::fs::remove_file(&path);
    }
}

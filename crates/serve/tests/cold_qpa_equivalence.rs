//! The service's decision is QPA on a cold preparation: drive generated
//! admit / what-if / evict sequences through an Exact-mode service and
//! pin every analysed reply's whole [`Analysis`] — verdict, iteration
//! count, largest examined interval, overload witness — to
//! [`QpaTest::analyze_prepared`] on a cold
//! [`PreparedWorkload::from_components`] of the tenant's committed list
//! plus the probed component.
//!
//! The committed lists come from the service's acknowledged replies
//! alone, so the property covers the `EditView` delta path (edits,
//! reverts, lazy finalize), the request pipeline around the analysis and
//! the choice of test in one statement.

use edf_analysis::tests::QpaTest;
use edf_analysis::workload::{DemandComponent, PreparedWorkload};
use edf_analysis::{Analysis, FeasibilityTest};
use edf_model::Time;
use edf_serve::{AdmissionDecision, AdmissionService, RequestError};
use proptest::prelude::*;

const TENANTS: [&str; 2] = ["alpha", "beta"];

#[derive(Debug, Clone, Copy)]
enum Op {
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

/// Mostly periodic components of 2–30 units over a 60–400 period band,
/// some one-shots: a tenant fills up over several admissions, so late
/// requests land near `U = 1`, where QPA descends for several steps and
/// overloads leave witnesses.
fn arb_component() -> impl Strategy<Value = DemandComponent> {
    (0u64..8, 2u64..=30, 0u64..=400, 60u64..=400).prop_map(|(family, cost, slack, period)| {
        let deadline = cost + slack % period;
        if family == 0 {
            DemandComponent::one_shot(Time::new(cost), Time::new(deadline), Time::new(slack % 50))
        } else {
            DemandComponent::periodic(Time::new(cost), Time::new(deadline), Time::new(period))
        }
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..10, 0usize..TENANTS.len(), arb_component(), 0usize..16).prop_map(
        |(kind, tenant, component, selector)| match kind {
            0..=5 => Op::Admit { tenant, component },
            6 | 7 => Op::WhatIf { tenant, component },
            _ => Op::Evict { tenant, selector },
        },
    )
}

/// QPA on a cold preparation of `committed` plus `component`.
fn cold_qpa(committed: &[(u64, DemandComponent)], component: DemandComponent) -> Analysis {
    let mut components: Vec<DemandComponent> = committed.iter().map(|&(_, c)| c).collect();
    components.push(component);
    QpaTest::new().analyze_prepared(&PreparedWorkload::from_components(components))
}

proptest! {
    #[test]
    fn every_reply_is_cold_qpa(ops in prop::collection::vec(arb_op(), 1..=60)) {
        let mut service = AdmissionService::new();
        let mut committed: Vec<Vec<(u64, DemandComponent)>> = vec![Vec::new(); TENANTS.len()];
        for (index, op) in ops.into_iter().enumerate() {
            match op {
                Op::Admit { tenant, component } | Op::WhatIf { tenant, component } => {
                    let expected = cold_qpa(&committed[tenant], component);
                    let response = match op {
                        Op::Admit { .. } => service.admit(TENANTS[tenant], component),
                        _ => service.what_if(TENANTS[tenant], component),
                    }
                    .expect("valid component, no faults");
                    prop_assert_eq!(
                        &response.analysis, &expected,
                        "op {}: the reply's analysis is not cold QPA", index
                    );
                    if let (Op::Admit { .. }, AdmissionDecision::Admitted(id)) =
                        (op, response.decision)
                    {
                        committed[tenant].push((id, component));
                    }
                }
                Op::Evict { tenant, selector } => {
                    let live = &mut committed[tenant];
                    if live.is_empty() {
                        prop_assert!(matches!(
                            service.evict(TENANTS[tenant], u64::MAX),
                            Err(RequestError::UnknownTenant { .. }
                                | RequestError::UnknownComponent { .. })
                        ));
                    } else {
                        let (id, _) = live.remove(selector % live.len());
                        service.evict(TENANTS[tenant], id).expect("live id");
                    }
                }
            }
        }
        for (tenant, name) in TENANTS.iter().enumerate() {
            let components = service.stat(name).map_or(0, |stat| stat.components);
            prop_assert_eq!(components, committed[tenant].len(), "tenant {}", name);
        }
    }
}

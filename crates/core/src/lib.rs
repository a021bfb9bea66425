//! # `edf-analysis` — fast exact EDF feasibility tests
//!
//! A Rust implementation of the feasibility analysis framework of
//!
//! > K. Albers, F. Slomka. *Efficient Feasibility Analysis for Real-Time
//! > Systems with EDF Scheduling.* DATE 2005.
//!
//! The crate answers the question "does this workload meet all of its
//! deadlines on a uniprocessor under preemptive EDF?" for **any demand
//! characterized workload** — sporadic task sets, Gresser event streams,
//! real-time-calculus arrival curves, offset transactions, and mixed
//! systems — behind two central abstractions:
//!
//! * [`workload::Workload`] — the demand interface (`dbf`, `rbf`,
//!   utilization, demand change points).  Every workload decomposes into
//!   elementary [`workload::DemandComponent`]s, which is how the paper's
//!   §3.6 observation ("the extension for the event stream model is easy")
//!   becomes structural: an event-stream tuple *is* a component, so every
//!   test below runs on event streams unchanged and stays exact;
//! * [`FeasibilityTest`] — the test interface.  Tests consume a
//!   [`workload::PreparedWorkload`], a cached snapshot (components, exact
//!   `U > 1` comparison, §4.3 feasibility bounds, deadline ordering)
//!   computed once and shared across a whole test suite.
//!
//! The implemented spectrum, all registered in [`registered_tests`]:
//!
//! * classic sufficient tests — [`tests::LiuLaylandTest`],
//!   [`tests::DensityTest`], [`tests::DeviTest`];
//! * the exact but slow baseline — [`tests::ProcessorDemandTest`]
//!   (plus [`tests::QpaTest`] as a newer exact baseline);
//! * the adjustable sufficient superposition test —
//!   [`tests::SuperpositionTest`], the dynamic-error test below with its
//!   level held at `x` (§4.1's bounded form);
//! * the paper's two **new exact tests** — [`tests::DynamicErrorTest`] and
//!   [`tests::AllApproximatedTest`] — which accept exactly the same
//!   workloads as the processor demand test while examining orders of
//!   magnitude fewer test intervals on hard (high-utilization, wide period
//!   spread) inputs.
//!
//! Supporting modules expose the building blocks: the demand bound
//! function ([`demand`]), the columnar demand kernel and windowed
//! deadline merge every demand query runs on ([`kernel`]), the
//! superposition approximation ([`superposition`]), the refinement engine
//! the superposition-family tests share ([`refine`]), the feasibility
//! bounds of §4.3 ([`bounds`]) and exact rational helpers ([`arith`]).
//! On top of the exact tests,
//! [`sensitivity`] answers breakdown-utilization and WCET-slack questions
//! through the [`incremental`] engine ([`ScaledView`] probes WCET
//! perturbations of one prepared workload without re-preparation),
//! [`batch`] fans a workload batch out across the CPU cores with one
//! shared preparation per workload, [`transactions`] analyzes
//! offset-transaction systems through the [`candidates`] engine
//! (dominance-pruned critical-instant candidates, Gray-code incremental
//! re-preparation, parallel early-exit sweep), and [`exhaustive`]
//! provides a naive reference oracle for validation.  The plain loops the refinement
//! engine is tested against live in the dev-only `edf-oracle` crate, not
//! in this one.
//!
//! # Quick start
//!
//! ```
//! use edf_analysis::tests::{AllApproximatedTest, DeviTest, ProcessorDemandTest};
//! use edf_analysis::{FeasibilityTest, Verdict};
//! use edf_model::{Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! // A feasible set that the sufficient test by Devi cannot accept.
//! let ts = TaskSet::from_tasks(vec![
//!     Task::new(Time::new(1), Time::new(2), Time::new(10))?,
//!     Task::new(Time::new(2), Time::new(3), Time::new(10))?,
//!     Task::new(Time::new(5), Time::new(9), Time::new(10))?,
//! ]);
//!
//! assert_eq!(DeviTest::new().analyze(&ts).verdict, Verdict::Unknown);
//!
//! let exact = AllApproximatedTest::new().analyze(&ts);
//! assert_eq!(exact.verdict, Verdict::Feasible);
//!
//! // Same verdict as the exact processor demand baseline.  On large,
//! // highly utilized task sets the new test examines orders of magnitude
//! // fewer intervals (see the `edf-experiments` crate).
//! let baseline = ProcessorDemandTest::new().analyze(&ts);
//! assert_eq!(baseline.verdict, Verdict::Feasible);
//! # Ok(())
//! # }
//! ```
//!
//! # Beyond sporadic tasks
//!
//! ```
//! use edf_analysis::tests::DynamicErrorTest;
//! use edf_analysis::workload::{MixedSystem, PreparedWorkload};
//! use edf_analysis::{FeasibilityTest, Verdict};
//! use edf_model::{EventStream, EventStreamTask, Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = MixedSystem::new(
//!     TaskSet::from_tasks(vec![Task::new(Time::new(2), Time::new(8), Time::new(10))?]),
//!     vec![EventStreamTask::new(
//!         EventStream::bursty(3, Time::new(5), Time::new(100)),
//!         Time::new(4),
//!         Time::new(20),
//!     )?],
//! );
//! // Prepare once, analyze with anything — here the paper's dynamic-error
//! // exact test, directly on the bursty event-stream system.
//! let prepared = PreparedWorkload::new(&system);
//! assert_eq!(
//!     DynamicErrorTest::new().analyze_prepared(&prepared).verdict,
//!     Verdict::Feasible
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
pub mod arith;
pub mod batch;
pub mod bounds;
pub mod budget;
pub mod candidates;
pub mod demand;
pub mod exhaustive;
pub mod incremental;
pub mod kernel;
pub mod refine;
pub mod sensitivity;
pub mod superposition;
pub mod tests;
pub mod transactions;
pub mod workload;

pub use analysis::{Analysis, DemandOverload, FeasibilityTest, Verdict};
pub use batch::BoxedTest;
pub use budget::{Progress, ProgressPhase, WorkBudget};
pub use incremental::{EditView, ScaledView, WorkloadView};
pub use kernel::AnalysisScratch;
pub use workload::{MixedSystem, PreparedWorkload, Workload};

/// One entry of the test registry: the test's canonical name and its
/// constructor.
#[derive(Debug, Clone, Copy)]
pub struct TestRegistration {
    /// Canonical name, equal to
    /// [`FeasibilityTest::name`] of the constructed test.
    pub name: &'static str,
    /// Builds a fresh boxed instance of the test.
    pub build: fn() -> BoxedTest,
}

/// A `(name, constructor)` registry row.
type RegistryRow = (&'static str, fn() -> BoxedTest);

/// The registry, as one constant table: `(name, constructor)` in
/// presentation order.  This is the **single source of truth** — the
/// superposition levels of Figure 1 are the `superpos(…)` rows, and
/// [`SUPERPOSITION_SUITE_LEVELS`] is derived from (not feeding) it.
const TEST_REGISTRY: [RegistryRow; 16] = [
    ("liu-layland", || Box::new(tests::LiuLaylandTest::new())),
    ("density", || Box::new(tests::DensityTest::new())),
    ("devi", || Box::new(tests::DeviTest::new())),
    ("processor-demand", || {
        Box::new(tests::ProcessorDemandTest::new())
    }),
    ("qpa", || Box::new(tests::QpaTest::new())),
    ("dynamic-error", || Box::new(tests::DynamicErrorTest::new())),
    ("all-approximated", || {
        Box::new(tests::AllApproximatedTest::new())
    }),
    ("superpos(2)", || Box::new(tests::SuperpositionTest::new(2))),
    ("superpos(3)", || Box::new(tests::SuperpositionTest::new(3))),
    ("superpos(4)", || Box::new(tests::SuperpositionTest::new(4))),
    ("superpos(5)", || Box::new(tests::SuperpositionTest::new(5))),
    ("superpos(6)", || Box::new(tests::SuperpositionTest::new(6))),
    ("superpos(7)", || Box::new(tests::SuperpositionTest::new(7))),
    ("superpos(8)", || Box::new(tests::SuperpositionTest::new(8))),
    ("superpos(9)", || Box::new(tests::SuperpositionTest::new(9))),
    ("superpos(10)", || {
        Box::new(tests::SuperpositionTest::new(10))
    }),
];

/// The approximation levels instantiated for the superposition test family
/// in [`all_tests`] (the levels of Figure 1 of the paper).  To change the
/// suite, edit the `superpos(…)` rows of the registry table — this range
/// follows along.
pub const SUPERPOSITION_SUITE_LEVELS: std::ops::RangeInclusive<u64> = 2..=10;

/// The registry of every test in the crate, in presentation order — the
/// single source of truth behind [`all_tests`], so adding a test here is
/// all it takes for the experiment harnesses (and the suite-size
/// assertions) to pick it up.
#[must_use]
pub fn registered_tests() -> Vec<TestRegistration> {
    TEST_REGISTRY
        .iter()
        .map(|&(name, build)| TestRegistration { name, build })
        .collect()
}

/// A ready-made collection of every registered test, boxed behind the
/// [`FeasibilityTest`] trait — convenient for experiment harnesses and the
/// [`batch`] front end.
///
/// The superposition tests are instantiated at the levels used in Figure 1
/// of the paper ([`SUPERPOSITION_SUITE_LEVELS`]).
#[must_use]
pub fn all_tests() -> Vec<BoxedTest> {
    registered_tests()
        .into_iter()
        .map(|entry| (entry.build)())
        .collect()
}

#[cfg(test)]
mod crate_tests {
    use super::*;
    use edf_model::{Task, TaskSet, Time};

    #[test]
    fn all_tests_runs_every_registered_test() {
        let ts = TaskSet::from_tasks(vec![
            Task::from_ticks(1, 8, 8).unwrap(),
            Task::from_ticks(2, 16, 16).unwrap(),
        ]);
        let suite = all_tests();
        // The expected size derives from the registry itself — adding a
        // test to `registered_tests` can never silently desynchronize this.
        assert_eq!(suite.len(), registered_tests().len());
        for test in &suite {
            let analysis = test.analyze(&ts);
            assert!(
                analysis.verdict.is_feasible(),
                "{} should accept the easy set",
                test.name()
            );
        }
    }

    #[test]
    fn superposition_levels_constant_matches_the_registry_rows() {
        let expected: Vec<String> = SUPERPOSITION_SUITE_LEVELS
            .map(|level| format!("superpos({level})"))
            .collect();
        let actual: Vec<&str> = registered_tests()
            .iter()
            .map(|e| e.name)
            .filter(|n| n.starts_with("superpos("))
            .collect();
        assert_eq!(actual, expected, "SUPERPOSITION_SUITE_LEVELS out of sync");
    }

    #[test]
    fn registry_names_match_test_names_and_are_unique() {
        let registry = registered_tests();
        for entry in &registry {
            assert_eq!(
                (entry.build)().name(),
                entry.name,
                "registry name out of sync"
            );
        }
        let mut names: Vec<&str> = registry.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry.len(), "duplicate registry names");
    }

    #[test]
    fn exact_tests_are_flagged() {
        let suite = all_tests();
        let exact: Vec<String> = suite
            .iter()
            .filter(|t| t.is_exact())
            .map(|t| t.name().to_owned())
            .collect();
        assert!(exact.iter().any(|n| n == "processor-demand"));
        assert!(exact.iter().any(|n| n == "qpa"));
        assert!(exact.iter().any(|n| n == "dynamic-error"));
        assert!(exact.iter().any(|n| n == "all-approximated"));
        assert!(!exact.iter().any(|n| n == "devi"));
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Analysis>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<tests::AllApproximatedTest>();
        assert_send_sync::<tests::DynamicErrorTest>();
        assert_send_sync::<PreparedWorkload>();
        assert_send_sync::<Time>();
    }
}

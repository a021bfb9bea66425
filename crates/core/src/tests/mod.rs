//! The feasibility tests.
//!
//! | Test | Kind | Paper reference |
//! |---|---|---|
//! | [`LiuLaylandTest`] | exact for `D ≥ T`, otherwise inapplicable | §3.1 |
//! | [`DensityTest`] | sufficient | folklore baseline |
//! | [`DeviTest`] | sufficient | Def. 1, §3.2 |
//! | [`ProcessorDemandTest`] | exact | Def. 3, §3.3 |
//! | [`QpaTest`] | exact (extension, Zhang & Burns 2009) | — |
//! | [`SuperpositionTest`] | sufficient, adjustable level (the dynamic-error engine, level held at `x`) | Def. 4–6, §3.4, §4.1 |
//! | [`DynamicErrorTest`] | **exact** (new) | §4.1, Fig. 5 |
//! | [`AllApproximatedTest`] | **exact** (new) | §4.2, Fig. 7 |
//!
//! All tests implement [`FeasibilityTest`](crate::FeasibilityTest) and report
//! the number of examined test intervals in
//! [`Analysis::iterations`](crate::Analysis::iterations).

mod all_approximated;
mod devi;
mod dynamic_error;
mod processor_demand;
mod qpa;
mod superposition_test;
mod utilization;

pub use all_approximated::AllApproximatedTest;
pub use devi::DeviTest;
pub use dynamic_error::DynamicErrorTest;
pub use processor_demand::{BoundSelection, ProcessorDemandTest};
pub use qpa::QpaTest;
pub use superposition_test::SuperpositionTest;
pub use utilization::{DensityTest, LiuLaylandTest};

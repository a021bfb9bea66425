//! # `edf-oracle` — reference loops for the refining feasibility tests
//!
//! The paper's dynamic-error (§4.1) and all-approximated (§4.2) tests run
//! in `edf-analysis` on one shared refinement engine: a tournament-tree
//! frontier, incrementally maintained comparison sums with a proven-margin
//! `f64` screen, and batched withdrawal passes.  This crate keeps the
//! plain form of the two loops — a `BinaryHeap` of pending intervals, one
//! state record per demand component, and every demand comparison
//! re-summed from those records ([`refine`]) — together with the exact
//! Def. 5 comparison they are written in ([`superposition`]).
//!
//! It is the only oracle for the refining tests' iteration counts under
//! every knob (initial level, level limit):
//! the `refine_equivalence` proptests of `edf-analysis` require the
//! engine's whole [`Analysis`](edf_analysis::Analysis) — verdict,
//! iteration count, largest examined interval and overload witness — to
//! equal these loops' bit for bit, and the `kernel` benchmark times the
//! engine against them.
//!
//! The oracle reads only the public API of `edf-analysis`.  It keeps its
//! own state vectors and iteration counter, evaluates a component's exact
//! demand with [`DemandComponent::dbf`](edf_analysis::workload::DemandComponent::dbf)
//! rather than the kernel columns, and shares no scratch arena, period
//! reciprocal or screened sum with the engine it checks.  Nothing that
//! ships depends on it: `edf-analysis` and `edf-bench` reach it through
//! their `[dev-dependencies]` only.
//!
//! # Examples
//!
//! ```
//! use edf_analysis::tests::DynamicErrorTest;
//! use edf_analysis::workload::PreparedWorkload;
//! use edf_analysis::{AnalysisScratch, FeasibilityTest};
//! use edf_model::{Task, TaskSet};
//!
//! # fn main() -> Result<(), edf_model::TaskError> {
//! let ts = TaskSet::from_tasks(vec![
//!     Task::from_ticks(1, 2, 10)?,
//!     Task::from_ticks(2, 3, 10)?,
//!     Task::from_ticks(5, 9, 10)?,
//! ]);
//! let prepared = PreparedWorkload::new(&ts);
//! let test = DynamicErrorTest::new();
//! let engine = test.analyze_demand(&prepared, &mut AnalysisScratch::new());
//! // The whole analysis agrees: verdict, iterations, witness.
//! assert_eq!(edf_oracle::refine::dynamic_error(&test, &prepared), engine);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod refine;
pub mod superposition;

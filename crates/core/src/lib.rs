//! # langeq-core
//!
//! The heart of the reproduction of *Efficient Solution of Language
//! Equations Using Partitioned Representations* (DATE 2005): solvers for
//! the language equation `F ∘ X ⊆ S` when both the fixed component `F` and
//! the specification `S` are prefix-closed FSMs derived from multi-level
//! sequential networks.
//!
//! Two flows are provided, mirroring the paper's Table-1 comparison:
//!
//! * [`solver::partitioned`] — the paper's contribution: everything is done
//!   in one modified subset construction driven by partitioned image
//!   computation (completion, complementation, product and hiding are all
//!   folded in; see the module docs for the formulas),
//! * [`solver::monolithic`] — the baseline: monolithic `TO` relations,
//!   explicit completion of `S` (extra state bit), product, hiding by
//!   quantification, traditional subset construction.
//!
//! A third, explicit-automaton reference pipeline ([`algorithm1`])
//! implements the paper's generic Algorithm 1 literally with
//! `langeq-automata` operations; it is used to cross-validate the symbolic
//! solvers on small instances.
//!
//! The solution produced is the **most general prefix-closed solution**, and
//! the **Complete Sequential Flexibility** (CSF) — the largest prefix-closed
//! input-progressive sub-automaton — together with the intermediate
//! automata and run statistics. [`verify`] implements the paper's two
//! checks: `X_P ⊆ X` and `F ∘ X ⊆ S`. [`extract`] goes one step beyond the
//! paper and commits the CSF to a concrete deterministic Mealy
//! implementation (the conclusion's "future work" step).
//!
//! ## Quickstart
//!
//! Every flow is described by one [`SolveConfig`] (flow, DCN trimming,
//! reordering, limits — decoded from `key=value` text by
//! [`SolveConfig::set`]), configured by the [`SolveRequest`] builder and
//! executed against a [`Control`] carrying a [`CancelToken`], a deadline,
//! and a progress observer.
//!
//! ```
//! use langeq_core::{LatchSplitProblem, SolveRequest};
//! use langeq_logic::gen;
//!
//! // The paper's Figure-3 circuit, latch-split like the Table-1 benchmarks.
//! let network = gen::figure3();
//! let problem = LatchSplitProblem::new(&network, &[1]).unwrap();
//! let outcome = SolveRequest::partitioned()
//!     .node_limit(1_000_000)
//!     .on_progress(|event| { let _ = event; /* stream to a UI or log */ })
//!     .run(&problem.equation);
//! let solution = outcome.into_result().expect("figure 3 solves");
//! assert!(solution.csf.initial().is_some());
//! let report = langeq_core::verify::verify_latch_split(&problem, &solution.csf);
//! assert!(report.all_passed());
//! ```
//!
//! Cancellation is cooperative: clone the request's [`CancelToken`], hand it
//! to another thread (or a Ctrl-C handler), and `cancel()` makes the solve
//! return [`Outcome::Cnc`]`(`[`CncReason::Cancelled`]`)` — nothing panics,
//! and the BDD manager is immediately reusable.
//!
//! ## Sweeps
//!
//! Above the single-solve API sits the [`batch`] layer: a declarative
//! [`SuitePlan`] crossing problem instances with solver configurations,
//! executed on a work-stealing worker pool with a shared wall-clock budget,
//! a JSONL journal, and resumability — the engine behind `langeq sweep` and
//! the Table-1 harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod batch;
mod equation;
pub mod extract;
mod fsm;
pub mod reencode;
pub mod retry;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod sig;
pub mod solver;
mod universe;
pub mod verify;

pub use batch::store::{JournalStore, LocalFileStore, SharedDirStore};
pub use batch::{
    CellOutcome, CellReport, CellStats, ConfigSpec, InstanceSpec, KernelSample, SuiteError,
    SuiteEvent, SuiteOptions, SuitePlan, SuiteReport,
};
pub use equation::{LanguageEquation, LatchSplitProblem};
pub use fsm::{FsmLatch, FsmOutput, PartitionedFsm, StateOrder};
pub use langeq_bdd::ReorderPolicy;
pub use retry::{Disposition, RetryPolicy};
pub use solver::{
    CancelToken, CncReason, ConfigError, Control, Outcome, Solution, SolveConfig, SolveEvent,
    SolveRequest, SolverKind, SolverLimits, SolverStats, DEFAULT_MAX_STATES,
};
pub use universe::{UniverseSizes, VarUniverse};

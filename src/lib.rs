//! # langeq — language equation solving with partitioned representations
//!
//! This is the facade crate of the workspace reproducing
//! *Efficient Solution of Language Equations Using Partitioned
//! Representations* (Mishchenko, Brayton, Jiang, Villa, Yevtushenko —
//! DATE 2005). It re-exports the member crates:
//!
//! * [`bdd`] — the ROBDD engine (complemented edges, GC, relational product),
//! * [`image`] — partitioned image computation with quantification scheduling,
//! * [`logic`] — sequential gate-level networks, `.bench`/BLIF/KISS2 I/O,
//!   latch splitting, explicit Mealy FSMs and circuit generators,
//! * [`automata`] — explicit automata with BDD-labelled transitions and the
//!   classic operation set (complete, determinize, complement, product, hide,
//!   prefix-close, progressive),
//! * [`core`] — the paper's contribution: the partitioned and monolithic
//!   language-equation solvers computing the Complete Sequential Flexibility,
//!   plus sub-solution extraction and the §2 re-encoding experiment,
//! * [`report`] — dependency-free JSON/JSONL records (bench results, sweep
//!   journals, the serve API),
//! * [`obs`] — observability: structured spans, log-bucketed latency
//!   histograms, the Prometheus text exposition registry, and the
//!   slow-solve log,
//! * [`serve`] — the persistent solve service: HTTP/JSON job API, bounded
//!   worker pool, content-addressed result cache.
//!
//! A command-line front end (`langeq`, in `crates/cli`) exposes the
//! BALM-style workflow over `.bench`/`.blif`/`.kiss`/`.aut` files.
//!
//! See the workspace `README.md` for a tour and `DESIGN.md` for the mapping
//! from the paper to the code.

pub use langeq_automata as automata;
pub use langeq_bdd as bdd;
pub use langeq_core as core;
pub use langeq_image as image;
pub use langeq_logic as logic;
pub use langeq_obs as obs;
pub use langeq_report as report;
pub use langeq_serve as serve;

/// Convenient glob-import surface: `use langeq::prelude::*;`.
pub mod prelude {
    pub use langeq_automata::{Automaton, StateId};
    pub use langeq_bdd::{Bdd, BddManager, VarId};
    pub use langeq_core::extract::SelectionStrategy;
    pub use langeq_core::{
        CancelToken, CellOutcome, CellReport, CellStats, CncReason, ConfigError, ConfigSpec,
        Control, InstanceSpec, KernelSample, LanguageEquation, LatchSplitProblem, Outcome,
        PartitionedFsm, Solution, SolveConfig, SolveEvent, SolveRequest, SolverKind, SolverLimits,
        StateOrder, SuiteError, SuiteEvent, SuiteOptions, SuitePlan, SuiteReport, VarUniverse,
    };
    pub use langeq_image::{ImageComputer, QuantSchedule};
    pub use langeq_logic::kiss::MealyFsm;
    pub use langeq_logic::{Gate, GateKind, Network};
}

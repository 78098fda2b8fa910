//! A full Table-1-style experiment on one circuit: latch splitting, CSF
//! computation with **both** flows, cross-checking, and the paper's
//! verification.
//!
//! ```text
//! cargo run --release --example latch_split_csf [-- <name>]
//! ```
//!
//! where `<name>` is one of the Table-1 stand-ins (default `sim_s208`).

use std::time::Duration;

use langeq::prelude::*;
use langeq_core::verify::verify_latch_split;
use langeq_core::SolverLimits;
use langeq_logic::gen;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "sim_s208".into());
    let instances = gen::table1();
    let inst = instances
        .iter()
        .find(|i| i.name == which)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown instance `{which}`; available: {}",
                instances
                    .iter()
                    .map(|i| i.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        });
    println!(
        "instance {}: {} PIs / {} POs / {} latches, unknown latches {:?}",
        inst.name,
        inst.network.num_inputs(),
        inst.network.num_outputs(),
        inst.network.num_latches(),
        inst.unknown_latches
    );

    let limits = SolverLimits {
        node_limit: Some(8_000_000),
        time_limit: Some(Duration::from_secs(120)),
        max_states: None,
    };

    // Both flows as plain configurations, solved on one shared problem
    // (one manager), so the computed CSFs can be compared directly. (For
    // timing-faithful standalone runs the bench harness uses a fresh
    // manager per run instead; this example favours the cross-check.)
    let configs = [SolverKind::Partitioned, SolverKind::Monolithic].map(|flow| SolveConfig {
        flow,
        limits,
        ..SolveConfig::default()
    });
    let problem = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
    let mut outcomes = Vec::new();
    for config in &configs {
        let t0 = std::time::Instant::now();
        let outcome = config.solve(&problem.equation, &Control::default());
        let elapsed = t0.elapsed();
        let label = format!("{}:", config.flow);
        match &outcome {
            Outcome::Solved(sol) => println!(
                "{label:<12} {:.2}s, {} subset states, CSF has {} states",
                elapsed.as_secs_f64(),
                sol.stats.subset_states,
                sol.csf.num_states()
            ),
            Outcome::Cnc(r) => println!("{label:<12} {r}"),
        }
        outcomes.push(outcome);
    }
    let (mono, part) = (outcomes.pop().unwrap(), outcomes.pop().unwrap());

    // Corollary 1: the two flows compute the same language.
    if let (Some(p), Some(m)) = (part.solution(), mono.solution()) {
        assert!(
            p.csf.equivalent(&m.csf),
            "partitioned and monolithic CSF must agree (Corollary 1)"
        );
        println!("cross-check: partitioned ≡ monolithic — ok");
    }

    // The paper's verification: X_P ⊆ X and F ∘ X ⊆ S.
    if let Some(sol) = part.solution() {
        let report = verify_latch_split(&problem, &sol.csf);
        println!("verification: {report}");
        assert!(report.all_passed());
    }
}

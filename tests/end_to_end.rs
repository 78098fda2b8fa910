//! End-to-end flows through the whole stack: netlist text in (.bench /
//! BLIF), CSF out, including the Table-1 stand-in instances at reduced
//! limits.

use std::time::Duration;

use langeq::prelude::*;
use langeq_core::verify::verify_latch_split;
use langeq_core::SolverLimits;
use langeq_logic::{bench_fmt, blif, gen};

#[test]
fn bench_text_to_csf() {
    // A toggle-with-enable circuit written as ISCAS .bench text.
    let text = "\
INPUT(en)
OUTPUT(q0)
q = DFF(d)
d = XOR(en, q)
q0 = BUFF(q)
";
    let net = bench_fmt::parse(text).expect("parses");
    let p = LatchSplitProblem::new(&net, &[0]).expect("split");
    let sol = SolveRequest::partitioned()
        .run(&p.equation)
        .into_result()
        .expect("bench circuit solves");
    assert!(sol.csf.initial().is_some());
    assert!(verify_latch_split(&p, &sol.csf).all_passed());
}

#[test]
fn blif_text_to_csf() {
    let text = "\
.model gated
.inputs a b
.outputs y
.latch d q 0
.names a q d
11 1
01 1
.names q b y
11 1
.end
";
    let net = blif::parse(text).expect("parses");
    let p = LatchSplitProblem::new(&net, &[0]).expect("split");
    let sol = SolveRequest::partitioned()
        .run(&p.equation)
        .into_result()
        .expect("blif circuit solves");
    assert!(verify_latch_split(&p, &sol.csf).all_passed());
}

#[test]
fn table1_smallest_instance_solves_and_verifies() {
    let instances = gen::table1();
    let inst = instances.iter().find(|i| i.name == "sim_s510").unwrap();
    let p = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
    let config = SolveConfig {
        limits: SolverLimits {
            node_limit: Some(4_000_000),
            time_limit: Some(Duration::from_secs(120)),
            max_states: Some(500_000),
        },
        ..SolveConfig::default()
    };
    let sol = config
        .solve(&p.equation, &Control::default())
        .into_result()
        .expect("sim_s510 solves within the limits");
    assert!(sol.csf.initial().is_some(), "flexibility must be nonempty");
    assert!(verify_latch_split(&p, &sol.csf).all_passed());
}

#[test]
fn round_trip_through_blif_preserves_csf() {
    // Writing a network to BLIF and reading it back must give the same
    // flexibility.
    let net = gen::figure3();
    let text = blif::write(&net);
    let net2 = blif::parse(&text).expect("round trip parses");
    let p1 = LatchSplitProblem::new(&net, &[1]).unwrap();
    let p2 = LatchSplitProblem::new(&net2, &[1]).unwrap();
    let a = SolveRequest::partitioned()
        .run(&p1.equation)
        .into_result()
        .expect("original solves");
    let b = SolveRequest::partitioned()
        .run(&p2.equation)
        .into_result()
        .expect("round-tripped network solves");
    // Different managers: compare structurally via state counts and via
    // acceptance on sampled words mapped through each universe.
    assert_eq!(a.csf.num_states(), b.csf.num_states());
    assert_eq!(a.general.num_states(), b.general.num_states());
    assert_eq!(a.stats.subset_states, b.stats.subset_states);
}

#[test]
fn timeout_limit_reports_cnc() {
    let instances = gen::table1();
    let inst = instances.iter().find(|i| i.name == "sim_s298").unwrap();
    let p = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
    let config = SolveConfig {
        limits: SolverLimits {
            time_limit: Some(Duration::ZERO),
            ..Default::default()
        },
        ..SolveConfig::default()
    };
    match config.solve(&p.equation, &Control::default()) {
        Outcome::Cnc(langeq::core::CncReason::Timeout(_)) => {}
        other => panic!("expected timeout CNC, got {other:?}"),
    }
}

//! Cross-implementation equivalence: the partitioned solver (the paper's
//! contribution), the monolithic baseline, and the explicit Algorithm-1
//! pipeline must agree on the language of the most general prefix-closed
//! solution and of the CSF — Corollary 1 of the paper's appendix, checked
//! end-to-end over a family of circuits.

use langeq::prelude::*;
use langeq_core::{algorithm1, verify};
use langeq_logic::{bench_fmt, gen};
use proptest::prelude::*;

/// Compares the partitioned and monolithic solvers; when `with_generic` is
/// set, also the explicit Algorithm-1 pipeline (which materialises every
/// intermediate automaton, so it is reserved for the small structured
/// circuits).
fn check(net: &Network, unknown: &[usize], with_generic: bool) {
    let p = LatchSplitProblem::new(net, unknown).expect("split");
    let part = SolveRequest::partitioned()
        .run(&p.equation)
        .into_result()
        .expect("partitioned solves");
    let mono = SolveRequest::monolithic()
        .run(&p.equation)
        .into_result()
        .expect("monolithic solves");
    let label = format!("{} / {:?}", net.name(), unknown);
    assert!(
        part.prefix_closed.equivalent(&mono.prefix_closed),
        "part vs mono prefix-closed: {label}"
    );
    assert!(part.csf.equivalent(&mono.csf), "part vs mono CSF: {label}");
    if with_generic {
        let generic = algorithm1::solve_generic(&p.equation);
        assert!(
            part.prefix_closed.equivalent(&generic.prefix_closed),
            "part vs generic prefix-closed: {label}"
        );
        assert!(
            part.csf.equivalent(&generic.csf),
            "part vs generic CSF: {label}"
        );
    }
    // Sanity on the result shape.
    assert!(part.general.is_complete());
    assert!(part.general.is_deterministic());
}

fn check_all(net: &Network, unknown: &[usize]) {
    check(net, unknown, true);
}

#[test]
fn figure3_all_splits() {
    let net = gen::figure3();
    for unknown in [vec![0], vec![1], vec![0, 1]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn counter_splits() {
    let net = gen::counter("c3", 3);
    for unknown in [vec![0], vec![2], vec![0, 1], vec![1, 2]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn shift_register_splits() {
    let net = gen::shift_register("sr3", 3);
    for unknown in [vec![0], vec![1], vec![2], vec![0, 2]] {
        check_all(&net, &unknown);
    }
}

#[test]
fn gray_counter_split() {
    let net = gen::gray_counter("gray3", 3);
    check_all(&net, &[1]);
    check_all(&net, &[0, 2]);
}

#[test]
fn sequence_detector_split() {
    let net = gen::sequence_detector("det", &[true, false, true]);
    check_all(&net, &[0]);
    check_all(&net, &[1, 2]);
}

#[test]
fn lfsr_split() {
    let net = gen::lfsr("lfsr3", 3, &[2, 1]);
    check_all(&net, &[0]);
    check_all(&net, &[1, 2]);
}

#[test]
fn small_random_controllers() {
    // Random logic: the explicit Algorithm-1 pipeline blows up here, so
    // compare the two symbolic solvers only (the generic pipeline is
    // covered by the structured circuits above). One representative
    // seed/split; the wider sweep is `random_controllers_heavy`.
    let net = gen::random_controller(&gen::ControllerCfg::new("rc3", 3, 2, 2, 4));
    check(&net, &[3], false);
}

#[test]
#[ignore = "about 18 s in debug builds, 2 s in release; CI runs it with --release --include-ignored"]
fn random_controllers_heavy() {
    // The wider sweep: more seeds and the harder half/half splits, where
    // the monolithic baseline grinds through large intermediate relations.
    for seed in [3, 17] {
        let net = gen::random_controller(&gen::ControllerCfg::new(
            &format!("rc{seed}"),
            seed,
            2,
            2,
            4,
        ));
        check(&net, &[0, 1], false);
        check(&net, &[3], false);
    }
}

/// Solves `p` with one configuration, failing the case on a CNC.
fn solve(p: &LatchSplitProblem, words: &str, bench: &str) -> Result<Solution, TestCaseError> {
    let mut config = SolveConfig::default();
    for word in words.split(' ') {
        let (key, value) = word.split_once('=').expect("key=value");
        config.set(key, value).expect("valid setting");
    }
    config
        .solve(&p.equation, &Control::default())
        .into_result()
        .map_err(|r| TestCaseError::fail(format!("{words} did not complete ({r}) on\n{bench}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Random controllers and random latch splits: the trimmed, untrimmed
    /// and monolithic flows, each with and without sifting, agree on the
    /// prefix-closed solution and the CSF; the untrimmed and monolithic
    /// general solutions coincide; and the CSF passes the verifier.
    #[test]
    fn random_controllers_agree_across_flows(
        (seed, inputs, outputs, latches) in (any::<u64>(), 1usize..=2, 1usize..=2, 2usize..=3),
        mask in any::<u64>(),
    ) {
        let cfg = gen::ControllerCfg::new("rand", seed, inputs, outputs, latches);
        let net = gen::random_controller(&cfg);
        // A non-empty proper subset of the latches.
        let mask = 1 + mask % ((1 << latches) - 2);
        let split: Vec<usize> = (0..latches).filter(|k| (mask >> k) & 1 == 1).collect();
        let bench = format!("split {split:?} of\n{}", bench_fmt::write(&net).expect("writable"));
        let p = LatchSplitProblem::new(&net, &split).expect("split");

        let mut all = Vec::new();
        for reorder in ["reorder=none", "reorder=sifting:50"] {
            let trimmed = solve(&p, &format!("flow=partitioned {reorder}"), &bench)?;
            let untrimmed = solve(&p, &format!("flow=partitioned trim=off {reorder}"), &bench)?;
            let mono = solve(&p, &format!("flow=monolithic {reorder}"), &bench)?;
            prop_assert!(
                untrimmed.general.equivalent(&mono.general),
                "untrimmed vs mono general ({reorder}) on {bench}"
            );
            all.extend([trimmed, untrimmed, mono]);
        }
        for (k, s) in all.iter().enumerate().skip(1) {
            prop_assert!(all[0].csf.equivalent(&s.csf), "CSF of run {k} on {bench}");
            prop_assert!(
                all[0].prefix_closed.equivalent(&s.prefix_closed),
                "prefix-closed solution of run {k} on {bench}"
            );
        }
        let report = verify::verify_latch_split(&p, &all[0].csf);
        prop_assert!(report.all_passed(), "{report:?} on {bench}");
    }
}

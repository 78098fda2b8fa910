//! Criterion benchmark over the Table-1 instances: each of the smaller
//! circuits is solved by the partitioned and the monolithic flow. The large
//! instances (sim_s349, sim_s444, sim_s526) are excluded here — they take
//! minutes / CNC by design; use the `table1` binary for the full table.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use langeq_core::{Control, LatchSplitProblem, SolveConfig, SolverKind, SolverLimits};
use langeq_logic::gen;

fn limits() -> SolverLimits {
    SolverLimits {
        node_limit: Some(8_000_000),
        time_limit: Some(Duration::from_secs(60)),
        max_states: Some(1_000_000),
    }
}

fn bench_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    // The solver workloads are machine-noise-bound (PR-2 measurements put
    // run-to-run spread well above the partitioned-vs-monolithic gap on the
    // small instances), so they get more samples than the micro benches;
    // see BENCHMARKING.md for the full low-variance protocol
    // (LANGEQ_BENCH_SAMPLES raises this further without editing benches).
    group.sample_size(25);
    // Both flows run through the same `SolveConfig::solve` dispatch.
    let configs = [SolverKind::Partitioned, SolverKind::Monolithic].map(|flow| SolveConfig {
        flow,
        limits: limits(),
        ..SolveConfig::default()
    });
    for inst in gen::table1() {
        if matches!(inst.name, "sim_s349" | "sim_s444" | "sim_s526") {
            continue;
        }
        for config in &configs {
            group.bench_function(format!("{}/{}", inst.name, config.flow), |b| {
                b.iter(|| {
                    let p = LatchSplitProblem::new(&inst.network, &inst.unknown_latches).unwrap();
                    std::hint::black_box(config.solve(&p.equation, &Control::default()))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pairs);
criterion_main!(benches);

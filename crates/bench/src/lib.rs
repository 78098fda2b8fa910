//! # langeq-bench
//!
//! The evaluation harness reproducing the DATE'05 paper's experiments:
//!
//! * [`run_table1`] — the Table-1 comparison (partitioned vs monolithic
//!   runtimes, CSF sizes, CNC outcomes) on the six stand-in circuits,
//! * [`run_table1_suite`] — the same comparison driven through
//!   `langeq-core`'s batch engine, one solve per worker thread,
//! * [`run_sweep`] — a scaling sweep (extension) backing the paper's claim
//!   that the partitioned method's advantage grows with problem size,
//! * formatting helpers producing the paper-style tables, and
//! * criterion micro-benchmarks (see `benches/`; the measurement protocol
//!   is documented in `BENCHMARKING.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use langeq_core::verify::verify_latch_split;
use langeq_core::{
    CellOutcome, CncReason, ConfigSpec, Control, InstanceSpec, LatchSplitProblem, Outcome,
    SolveConfig, SolverKind, SolverLimits, SuiteOptions, SuitePlan,
};
use langeq_logic::gen::{self, Table1Instance};

/// Outcome of one solver run inside the harness.
#[derive(Debug, Clone)]
pub enum RunResult {
    /// Completed: wall-clock time and CSF state count.
    Done {
        /// Wall-clock duration of the solve.
        time: Duration,
        /// States of the computed CSF.
        csf_states: usize,
        /// Subset states explored.
        subset_states: usize,
    },
    /// Could not complete within the limits.
    Cnc(CncReason),
}

impl RunResult {
    /// Seconds, if completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            RunResult::Done { time, .. } => Some(time.as_secs_f64()),
            RunResult::Cnc(_) => None,
        }
    }
}

/// One measured row of the Table-1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Instance name (`sim_s298`, …).
    pub name: String,
    /// `i/o/cs` of the circuit.
    pub io_cs: String,
    /// `Fcs/Xcs` split sizes.
    pub fcs_xcs: String,
    /// Partitioned-run result.
    pub partitioned: RunResult,
    /// Monolithic-run result.
    pub monolithic: RunResult,
    /// Did both verification checks pass on the partitioned CSF? `None`
    /// when the partitioned run did not complete, and for rows of
    /// [`run_table1_suite`], which keeps counters rather than solutions.
    pub verified: Option<bool>,
    /// The values the paper reports for the original ISCAS circuit.
    pub paper: gen::PaperRow,
}

impl Table1Row {
    /// `Mono/Part` runtime ratio, when both completed.
    pub fn ratio(&self) -> Option<f64> {
        match (self.partitioned.seconds(), self.monolithic.seconds()) {
            (Some(p), Some(m)) if p > 0.0 => Some(m / p),
            _ => None,
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Per-run wall-clock limit (the CNC threshold).
    pub time_limit: Duration,
    /// Per-run live-node limit.
    pub node_limit: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            time_limit: Duration::from_secs(120),
            node_limit: 8_000_000,
        }
    }
}

fn limits(opts: &HarnessOptions) -> SolverLimits {
    SolverLimits {
        node_limit: Some(opts.node_limit),
        time_limit: Some(opts.time_limit),
        ..SolverLimits::default()
    }
}

/// Runs one configuration on a fresh problem built from `inst` (fresh
/// problem = fresh manager, so runs do not share caches; as in the paper,
/// each method runs standalone). Returns the problem, the outcome, and the
/// wall-clock time.
pub fn run_solver(
    inst: &Table1Instance,
    config: &SolveConfig,
) -> (LatchSplitProblem, Outcome, Duration) {
    let problem =
        LatchSplitProblem::new(&inst.network, &inst.unknown_latches).expect("instance must split");
    let t0 = Instant::now();
    let outcome = config.solve(&problem.equation, &Control::default());
    let elapsed = t0.elapsed();
    (problem, outcome, elapsed)
}

fn to_run_result(outcome: &Outcome, time: Duration) -> RunResult {
    match outcome {
        Outcome::Solved(sol) => RunResult::Done {
            time,
            csf_states: sol.csf.num_states(),
            subset_states: sol.stats.subset_states,
        },
        Outcome::Cnc(r) => RunResult::Cnc(*r),
    }
}

/// Runs both symbolic solvers on one instance and checks the partitioned
/// CSF with both of the paper's verification checks.
pub fn run_instance(inst: &Table1Instance, opts: &HarnessOptions) -> Table1Row {
    let part = SolveConfig {
        limits: limits(opts),
        ..SolveConfig::default()
    };
    let mono = SolveConfig {
        flow: SolverKind::Monolithic,
        ..part
    };

    let (problem, part_outcome, part_time) = run_solver(inst, &part);
    let verified = match &part_outcome {
        Outcome::Solved(sol) => Some(verify_latch_split(&problem, &sol.csf).all_passed()),
        Outcome::Cnc(_) => None,
    };
    let partitioned = to_run_result(&part_outcome, part_time);
    drop(part_outcome);
    drop(problem);

    let (_, mono_outcome, mono_time) = run_solver(inst, &mono);
    let monolithic = to_run_result(&mono_outcome, mono_time);

    let n = &inst.network;
    Table1Row {
        name: inst.name.to_string(),
        io_cs: format!("{}/{}/{}", n.num_inputs(), n.num_outputs(), n.num_latches()),
        fcs_xcs: format!(
            "{}/{}",
            n.num_latches() - inst.unknown_latches.len(),
            inst.unknown_latches.len()
        ),
        partitioned,
        monolithic,
        verified,
        paper: inst.paper,
    }
}

/// Runs the full Table-1 reproduction.
pub fn run_table1(opts: &HarnessOptions) -> Vec<Table1Row> {
    gen::table1()
        .iter()
        .map(|inst| run_instance(inst, opts))
        .collect()
}

/// Builds the Table-1 sweep plan: the six stand-in instances crossed with
/// the `part` / `mono` configurations under the harness limits.
pub fn table1_plan(opts: &HarnessOptions) -> SuitePlan {
    let mut plan = SuitePlan::new();
    for inst in gen::table1() {
        plan = plan.instance(InstanceSpec::new(
            inst.name,
            inst.network,
            inst.unknown_latches,
        ));
    }
    plan.config(ConfigSpec::new("part", SolverKind::Partitioned).limits(limits(opts)))
        .config(ConfigSpec::new("mono", SolverKind::Monolithic).limits(limits(opts)))
}

fn cell_to_run_result(report: &langeq_core::CellReport) -> RunResult {
    match &report.outcome {
        CellOutcome::Solved(stats) => RunResult::Done {
            time: report.duration,
            csf_states: stats.csf_states,
            subset_states: stats.subset_states,
        },
        CellOutcome::Cnc(reason) => RunResult::Cnc(*reason),
        // The built-in Table-1 instances always split; a Failed cell means
        // the generator and the plan disagree — a bug, not a measurement.
        CellOutcome::Failed(msg) => panic!("table1 cell {} failed: {msg}", report.instance),
    }
}

/// Runs the Table-1 reproduction through the batch engine with `jobs`
/// worker threads (one solve per worker; managers stay thread-confined).
///
/// Measured times per cell are comparable with [`run_table1`]'s — each cell
/// solves a fresh problem standalone, as in the paper — but a parallel run
/// shares the machine, so use `jobs = 1` (or the sequential harness) for
/// publication-grade timings and higher job counts for quick shape checks.
/// Verification is not available here ([`Table1Row::verified`] is `None`):
/// the sweep engine keeps counters, not solutions.
pub fn run_table1_suite(opts: &HarnessOptions, jobs: usize) -> Vec<Table1Row> {
    let plan = table1_plan(opts);
    let report = plan
        .execute(SuiteOptions::new().jobs(jobs))
        .expect("table1 plan executes");
    gen::table1()
        .iter()
        .map(|inst| {
            let cell = |config: &str| {
                report
                    .get(inst.name, config)
                    .unwrap_or_else(|| panic!("missing cell {}/{config}", inst.name))
            };
            let n = &inst.network;
            Table1Row {
                name: inst.name.to_string(),
                io_cs: format!("{}/{}/{}", n.num_inputs(), n.num_outputs(), n.num_latches()),
                fcs_xcs: format!(
                    "{}/{}",
                    n.num_latches() - inst.unknown_latches.len(),
                    inst.unknown_latches.len()
                ),
                partitioned: cell_to_run_result(cell("part")),
                monolithic: cell_to_run_result(cell("mono")),
                verified: None,
                paper: inst.paper,
            }
        })
        .collect()
}

/// Formats measured rows in the paper's column layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>10} {:>9} {:>9} {:>7}  Verified",
        "Name", "i/o/cs", "Fcs/Xcs", "States(X)", "Part,s", "Mono,s", "Ratio"
    );
    for r in rows {
        let states = match &r.partitioned {
            RunResult::Done { csf_states, .. } => csf_states.to_string(),
            RunResult::Cnc(_) => "-".into(),
        };
        let part = r
            .partitioned
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let mono = r
            .monolithic
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let ratio = r
            .ratio()
            .map(|x| format!("{x:.1}"))
            .unwrap_or_else(|| "-".into());
        let verified = match r.verified {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>10} {:>9} {:>9} {:>7}  {}",
            r.name, r.io_cs, r.fcs_xcs, states, part, mono, ratio, verified
        );
    }
    out
}

/// Formats the paper-reported values alongside the measurements (for
/// EXPERIMENTS.md).
pub fn format_comparison(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Instance | paper States(X) | ours | paper Part,s | ours | paper Mono,s | ours | paper Ratio | ours |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let states = match &r.partitioned {
            RunResult::Done { csf_states, .. } => csf_states.to_string(),
            RunResult::Cnc(_) => "CNC".into(),
        };
        let part = r
            .partitioned
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let mono = r
            .monolithic
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let ratio = r
            .ratio()
            .map(|x| format!("{x:.1}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.name,
            r.paper.states_x,
            states,
            r.paper.part_s,
            part,
            r.paper.mono_s,
            mono,
            r.paper.ratio,
            ratio
        );
    }
    out
}

/// One point of the scaling sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Total latches of the generated circuit.
    pub latches: usize,
    /// Partitioned result.
    pub partitioned: RunResult,
    /// Monolithic result.
    pub monolithic: RunResult,
}

/// Scaling sweep (extension experiment): structured controllers (the
/// convergent counter + shift-chain family of the Table-1 stand-ins) of
/// growing size, split in half, solved by both flows. Pure random state
/// logic is *not* used here — its sequential flexibility explodes and both
/// flows CNC almost immediately (see DESIGN.md §6), which would hide the
/// partitioned-vs-monolithic trend the sweep is meant to expose.
pub fn run_sweep(sizes: &[usize], opts: &HarnessOptions) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&l| {
            let shift = l / 3;
            let cfg = gen::HybridCfg {
                name: format!("sweep{l}"),
                seed: 9000 + l as u64,
                num_inputs: 3,
                num_outputs: 2,
                count_bits: l - shift,
                shift_bits: shift,
                rand_bits: 0,
                window: 2,
                depth: 2,
                out_extra: 0,
                rand_first: false,
            };
            let net = gen::hybrid_controller(&cfg);
            let unknown: Vec<usize> = (l / 2..l).collect();
            let inst = Table1Instance {
                name: "sweep",
                network: net,
                unknown_latches: unknown,
                paper: gen::PaperRow {
                    io_cs: "",
                    fcs_xcs: "",
                    states_x: "",
                    part_s: "",
                    mono_s: "",
                    ratio: "",
                },
            };
            let row = run_instance(&inst, opts);
            SweepPoint {
                latches: l,
                partitioned: row.partitioned,
                monolithic: row.monolithic,
            }
        })
        .collect()
}

/// Formats the sweep as a series (the shape behind the paper's "efficiency
/// increasing as the problem size increases").
pub fn format_sweep(points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>8}",
        "latches", "Part,s", "Mono,s", "Ratio"
    );
    for p in points {
        let part = p
            .partitioned
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let mono = p
            .monolithic
            .seconds()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "CNC".into());
        let ratio = match (p.partitioned.seconds(), p.monolithic.seconds()) {
            (Some(a), Some(b)) if a > 0.0 => format!("{:.1}", b / a),
            _ => "-".into(),
        };
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>8}",
            p.latches, part, mono, ratio
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_plan_enumerates_six_instances_by_two_configs() {
        let plan = table1_plan(&HarnessOptions::default());
        assert_eq!(plan.num_cells(), 12);
        plan.validate().unwrap();
        assert_eq!(plan.configs()[0].name, "part");
        assert_eq!(plan.configs()[1].name, "mono");
        assert_eq!(
            plan.configs()[0].config.limits.time_limit,
            Some(HarnessOptions::default().time_limit)
        );
    }

    #[test]
    fn suite_cells_agree_with_the_sequential_harness() {
        // One instance through both paths: the batch engine must report the
        // same deterministic counters as the sequential Table-1 harness.
        let instances = gen::table1();
        let inst = &instances[0]; // sim_s510
        let opts = HarnessOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 4_000_000,
        };
        let plan = SuitePlan::new()
            .instance(InstanceSpec::new(
                inst.name,
                inst.network.clone(),
                inst.unknown_latches.clone(),
            ))
            .config(ConfigSpec::new("part", SolverKind::Partitioned).limits(limits(&opts)))
            .config(ConfigSpec::new("mono", SolverKind::Monolithic).limits(limits(&opts)));
        let report = plan.execute(SuiteOptions::new().jobs(2)).unwrap();
        let row = run_instance(inst, &opts);
        for (config, sequential) in [("part", &row.partitioned), ("mono", &row.monolithic)] {
            let suite = cell_to_run_result(report.get(inst.name, config).unwrap());
            match (sequential, &suite) {
                (
                    RunResult::Done {
                        csf_states: a,
                        subset_states: sa,
                        ..
                    },
                    RunResult::Done {
                        csf_states: b,
                        subset_states: sb,
                        ..
                    },
                ) => {
                    assert_eq!(a, b, "{config} CSF sizes differ");
                    assert_eq!(sa, sb, "{config} subset counts differ");
                }
                other => panic!("{config}: outcomes diverge: {other:?}"),
            }
        }
    }

    #[test]
    fn smallest_instance_runs_end_to_end() {
        let instances = gen::table1();
        let inst = &instances[0]; // sim_s510
        let row = run_instance(
            inst,
            &HarnessOptions {
                time_limit: Duration::from_secs(60),
                node_limit: 4_000_000,
            },
        );
        assert!(matches!(row.partitioned, RunResult::Done { .. }));
        assert_eq!(row.verified, Some(true));
        let table = format_table1(std::slice::from_ref(&row));
        assert!(table.contains("sim_s510"));
        let md = format_comparison(&[row]);
        assert!(md.contains("| sim_s510 |"));
    }
}

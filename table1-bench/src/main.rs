//! The Table-1 benchmark: verified end-to-end solve time per flow, with the
//! subset-construction fixpoint split into layers from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path table1-bench/Cargo.toml -- \
//!     --workload t1_static --seed 1 --seconds 50 --trace 0
//! ```
//!
//! A run repeats passes over the workload's cells (one (instance, flow)
//! solve each, in an order drawn from the seed) until `--seconds` are
//! spent, checks every output, and prints a human-readable report followed
//! by one JSON line. `--trace 0` reports the end-to-end metrics from passes
//! with no observer attached; `--trace 1` alternates untraced passes with
//! traced ones and reports the per-layer metrics. See NOTES.md.

mod cells;
mod layers;
mod report;
mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use langeq_logic::gen::{self, Table1Instance};

use cells::{run_cell, CellRun, Flow, Workload};

/// Standalone set-ups timed before every pass and after the last, so
/// `setup_s` is a median of many samples spread over the whole run even
/// when only two passes fit in it.
const SETUPS_BETWEEN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    verify_all: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: table1-bench --workload <t1_static|t1_sift> --seed N \
         --seconds N --trace <0|1> [--verify-all]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        verify_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--verify-all" {
            args.verify_all = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number(),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument `{flag}`")),
        }
    }
    args
}

/// splitmix64: the seed's stream of cell orders.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            let j = (self.next() % (k as u64 + 1)) as usize;
            order.swap(k, j);
        }
        order
    }
}

/// One pass: every cell of the workload, solved once.
pub struct Pass {
    pub traced: bool,
    /// Wall clock of the pass minus its output checks.
    pub wall_s: f64,
    /// Instance generation plus every `LatchSplitProblem::new`.
    pub setup_s: f64,
    pub cells: Vec<CellRun>,
}

/// The workload's instances, freshly generated.
fn generate(workload: &Workload) -> BTreeMap<&'static str, Table1Instance> {
    gen::table1()
        .into_iter()
        .filter(|inst| workload.cells.iter().any(|c| c.instance == inst.name))
        .map(|inst| (inst.name, inst))
        .collect()
}

/// Set-up alone: generation plus one problem per cell, built and dropped.
fn setup_once(workload: &Workload) -> f64 {
    let t = Instant::now();
    let instances = generate(workload);
    for spec in &workload.cells {
        let inst = &instances[spec.instance];
        let problem = langeq_core::LatchSplitProblem::new(&inst.network, &inst.unknown_latches)
            .expect("Table-1 instances split at their unknown latches");
        std::hint::black_box(&problem);
    }
    t.elapsed().as_secs_f64()
}

fn run_pass(workload: &Workload, order: &[usize], traced: bool, verify_all: bool) -> Pass {
    let t_pass = Instant::now();
    let instances = generate(workload);
    let mut setup_s = t_pass.elapsed().as_secs_f64();
    let mut cells = Vec::with_capacity(order.len());
    for &k in order {
        let mut spec = workload.cells[k];
        if verify_all {
            spec.verify = cells::Verify::Full;
        }
        let run = run_cell(&spec, &instances[spec.instance], workload.sifting, traced);
        setup_s += run.setup_s;
        eprintln!(
            "  {:<14} solve {:>8.4} s  verify {:>8.4} + {:>8.4} s  {}  {}",
            spec.name(),
            run.solve_s,
            run.xp_s,
            run.compose_s,
            run.exact.csf.map_or("csf -".to_string(), |r| format!(
                "csf {}/{}/{}",
                r.csf_states, r.csf_transitions, r.min_states
            )),
            run.failure.as_deref().unwrap_or("ok"),
        );
        cells.push(run);
    }
    let checks: f64 = cells.iter().map(|c| c.check_s).sum();
    let wall_s = t_pass.elapsed().as_secs_f64() - checks;
    let mut pass = Pass {
        traced,
        wall_s,
        setup_s,
        cells,
    };
    check_flows_agree(&mut pass);
    pass
}

/// The partitioned and monolithic CSFs of one instance must minimize to
/// the same number of states.
fn check_flows_agree(pass: &mut Pass) {
    let min_states = |flow: Flow, inst: &str| {
        pass.cells
            .iter()
            .find(|c| c.spec.flow == flow && c.spec.instance == inst)
            .and_then(|c| c.exact.csf)
            .map(|r| r.min_states)
    };
    let verdicts: Vec<Option<String>> = pass
        .cells
        .iter()
        .map(|c| {
            let inst = c.spec.instance;
            match (min_states(Flow::Part, inst), min_states(Flow::Mono, inst)) {
                (Some(p), Some(m)) if p != m => Some(format!(
                    "minimized CSF: partitioned {p} states, monolithic {m}"
                )),
                _ => None,
            }
        })
        .collect();
    for (cell, verdict) in pass.cells.iter_mut().zip(verdicts) {
        if let Some(msg) = verdict {
            eprintln!("  {}: {msg}", cell.spec.name());
            cell.failure.get_or_insert(msg);
        }
    }
}

fn main() {
    let args = parse_args();
    let workloads = cells::workloads();
    let Some(workload) = workloads.iter().find(|w| w.name == args.workload) else {
        usage(&format!("unknown workload `{}`", args.workload));
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);

    let mut setup_samples: Vec<f64> = Vec::new();
    let setups = |samples: &mut Vec<f64>| {
        samples.extend((0..SETUPS_BETWEEN_PASSES).map(|_| setup_once(workload)));
    };
    let mut rng = Rng(args.seed);
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    loop {
        let n = passes.len();
        // At least two passes (a traced run needs one of each kind); then
        // another while at least half of it fits.
        if n >= 2 {
            let estimate = Duration::from_secs_f64(stats::median(&pass_walls) / 2.0);
            if Instant::now() + estimate > deadline {
                break;
            }
        }
        setups(&mut setup_samples);
        let traced = args.trace && n % 2 == 1;
        let order = rng.permutation(workload.cells.len());
        eprintln!(
            "pass {} ({})",
            n + 1,
            if traced { "traced" } else { "untraced" }
        );
        let t = Instant::now();
        let pass = run_pass(workload, &order, traced, args.verify_all);
        pass_walls.push(t.elapsed().as_secs_f64());
        eprintln!("  pass {:.4} s, set-up {:.4} s", pass.wall_s, pass.setup_s);
        setup_samples.push(pass.setup_s);
        passes.push(pass);
    }
    setups(&mut setup_samples);

    let determinism = report::check_determinism(workload.name, &passes);
    let metrics = if args.trace {
        report::per_layer(&workloads, &passes)
    } else {
        report::end_to_end(&passes, &setup_samples)
    };
    report::print(&args.workload, args.seed, &passes, &metrics, &determinism);
}

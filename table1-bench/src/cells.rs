//! The workloads, their cells, the reference values each cell's output is
//! checked against, and the code that runs one cell.

use std::time::{Duration, Instant};

use langeq_bdd::BddStats;
use langeq_core::verify::{composition_contained_in_spec, xp_contained_in};
use langeq_core::{LatchSplitProblem, Outcome, ReorderPolicy, SolveRequest};
use langeq_logic::gen::Table1Instance;

use crate::layers::{Recorder, Split};

/// The harness's live-node ceiling (as in `table1`).
const NODE_LIMIT: usize = 8_000_000;
/// Per-cell wall-clock ceiling; the slowest cell takes under 10 s.
const TIME_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Part,
    Mono,
}

impl Flow {
    pub fn name(self) -> &'static str {
        match self {
            Flow::Part => "part",
            Flow::Mono => "mono",
        }
    }
}

/// What a cell's CSF must look like: its state and transition counts, and
/// the state count of its minimized form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub csf_states: usize,
    pub csf_transitions: usize,
    pub min_states: usize,
}

/// Which of the paper's two checks a cell's CSF gets on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// `X_P ⊆ X` and `F∘X ⊆ S` (`verify_latch_split`).
    Full,
    /// `X_P ⊆ X` only.
    XpOnly,
}

/// One (instance, flow) solve of a workload.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub instance: &'static str,
    pub flow: Flow,
    pub verify: Verify,
    pub reference: Reference,
}

impl CellSpec {
    pub fn name(&self) -> String {
        format!("{}.{}", self.instance, self.flow.name())
    }
}

pub struct Workload {
    pub name: &'static str,
    pub sifting: bool,
    pub cells: Vec<CellSpec>,
}

const fn cell(
    instance: &'static str,
    flow: Flow,
    verify: Verify,
    [csf_states, csf_transitions, min_states]: [usize; 3],
) -> CellSpec {
    CellSpec {
        instance,
        flow,
        verify,
        reference: Reference {
            csf_states,
            csf_transitions,
            min_states,
        },
    }
}

/// The two workloads. The references come from runs whose every CSF
/// passed both of the paper's checks (`--verify-all`; see NOTES.md).
pub fn workloads() -> Vec<Workload> {
    use Flow::{Mono, Part};
    use Verify::{Full, XpOnly};
    vec![
        // Static order: the small instances (many subset states, mid-size
        // BDDs) and the large ones (few states, BDDs of millions of nodes).
        // `F∘X ⊆ S` takes 50-120 s per large cell at static order, so those
        // check `X_P ⊆ X` and the references each pass; the full check was
        // run once with `--verify-all`.
        Workload {
            name: "t1_static",
            sifting: false,
            cells: vec![
                cell("sim_s510", Part, Full, [65, 209, 65]),
                cell("sim_s510", Mono, Full, [65, 209, 65]),
                cell("sim_s208", Part, Full, [99, 299, 1]),
                cell("sim_s208", Mono, Full, [99, 299, 1]),
                cell("sim_s298", Part, Full, [644, 1375, 320]),
                cell("sim_s298", Mono, Full, [644, 1375, 320]),
                cell("sim_s444", Part, XpOnly, [18, 35, 1]),
                cell("sim_s444", Mono, XpOnly, [18, 35, 1]),
                cell("sim_s526", Part, XpOnly, [18, 35, 18]),
            ],
        },
        Workload {
            name: "t1_sift",
            sifting: true,
            cells: vec![
                cell("sim_s349", Part, Full, [32769, 99329, 2049]),
                cell("sim_s444", Part, Full, [18, 35, 1]),
                cell("sim_s444", Mono, Full, [18, 35, 1]),
                cell("sim_s526", Part, Full, [18, 35, 18]),
                cell("sim_s526", Mono, Full, [18, 35, 18]),
            ],
        },
    ]
}

/// Kernel work of one solve: deltas of `BddManager::stats()` across it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernel {
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub unique_lookups: u64,
    pub unique_probes: u64,
    pub allocated_nodes: u64,
    pub gc_runs: u64,
    pub reorder_swaps: u64,
    pub reorder_s: f64,
}

impl Kernel {
    fn delta(before: &BddStats, after: &BddStats) -> Self {
        Kernel {
            cache_lookups: after.cache_lookups - before.cache_lookups,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_evictions: after.cache_evictions - before.cache_evictions,
            unique_lookups: after.unique_lookups - before.unique_lookups,
            unique_probes: after.unique_probes - before.unique_probes,
            allocated_nodes: after.allocated_nodes - before.allocated_nodes,
            gc_runs: after.gc_runs - before.gc_runs,
            reorder_swaps: after.reorder_swaps - before.reorder_swaps,
            reorder_s: (after.reorder_time - before.reorder_time).as_secs_f64(),
        }
    }

    pub fn add(&mut self, other: &Kernel) {
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_evictions += other.cache_evictions;
        self.unique_lookups += other.unique_lookups;
        self.unique_probes += other.unique_probes;
        self.allocated_nodes += other.allocated_nodes;
        self.gc_runs += other.gc_runs;
        self.reorder_swaps += other.reorder_swaps;
        self.reorder_s += other.reorder_s;
    }
}

/// The exact counters of one cell: the same code must reproduce them on
/// every pass and every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    pub setup_live_nodes: usize,
    pub states: usize,
    pub images: usize,
    pub peak_nodes: usize,
    pub kernel: Kernel,
    pub csf: Option<Reference>,
}

impl Exact {
    /// One line of every exact counter (reorder time excluded).
    pub fn fingerprint(&self) -> String {
        let k = &self.kernel;
        let csf = self.csf.map_or("none".to_string(), |r| {
            format!("{}/{}/{}", r.csf_states, r.csf_transitions, r.min_states)
        });
        format!(
            "live={} states={} images={} peak={} lookups={} hits={} evictions={} \
             unique={} probes={} allocated={} gc={} swaps={} csf={}",
            self.setup_live_nodes,
            self.states,
            self.images,
            self.peak_nodes,
            k.cache_lookups,
            k.cache_hits,
            k.cache_evictions,
            k.unique_lookups,
            k.unique_probes,
            k.allocated_nodes,
            k.gc_runs,
            k.reorder_swaps,
            csf
        )
    }
}

/// One cell's measurements in one pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub spec: CellSpec,
    pub setup_s: f64,
    pub solve_s: f64,
    pub xp_s: f64,
    pub compose_s: f64,
    /// Time spent checking outputs; taken out of the pass's wall time.
    pub check_s: f64,
    pub exact: Exact,
    /// Layer split of the solve (traced passes only).
    pub split: Option<Split>,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
}

/// Builds, solves, verifies and checks one cell.
pub fn run_cell(
    spec: &CellSpec,
    instance: &Table1Instance,
    sifting: bool,
    traced: bool,
) -> CellRun {
    let t_setup = Instant::now();
    let problem = LatchSplitProblem::new(&instance.network, &instance.unknown_latches)
        .expect("Table-1 instances split at their unknown latches");
    let setup_s = t_setup.elapsed().as_secs_f64();
    let mgr = problem.equation.manager().clone();
    let before = mgr.stats();

    let mut request = match spec.flow {
        Flow::Part => SolveRequest::partitioned(),
        Flow::Mono => SolveRequest::monolithic(),
    }
    .node_limit(NODE_LIMIT)
    .time_limit(TIME_LIMIT);
    if sifting {
        request = request.reorder(ReorderPolicy::sifting());
    }
    let recorder = Recorder::new();
    if traced {
        request = request.on_progress(recorder.observer());
    }
    let t_solve = Instant::now();
    let outcome = request.run(&problem.equation);
    let t_done = Instant::now();
    let solve_s = t_done.duration_since(t_solve).as_secs_f64();
    let after = mgr.stats();
    let split = traced.then(|| recorder.split(t_solve, t_done));

    let mut run = CellRun {
        spec: *spec,
        setup_s,
        solve_s,
        xp_s: 0.0,
        compose_s: 0.0,
        check_s: 0.0,
        exact: Exact {
            setup_live_nodes: before.live_nodes,
            kernel: Kernel::delta(&before, &after),
            ..Exact::default()
        },
        split,
        failure: None,
    };
    let solution = match outcome {
        Outcome::Solved(solution) => solution,
        Outcome::Cnc(reason) => {
            run.failure = Some(reason.to_string());
            return run;
        }
    };
    run.exact.states = solution.stats.subset_states;
    run.exact.images = solution.stats.images;
    run.exact.peak_nodes = solution.stats.peak_live_nodes;

    let mut failures = Vec::new();
    let t = Instant::now();
    if !xp_contained_in(&problem, &solution.csf) {
        failures.push("X_P ⊆ X failed".to_string());
    }
    run.xp_s = t.elapsed().as_secs_f64();
    if spec.verify == Verify::Full {
        let t = Instant::now();
        if !composition_contained_in_spec(&problem.equation, &solution.csf) {
            failures.push("F∘X ⊆ S failed".to_string());
        }
        run.compose_s = t.elapsed().as_secs_f64();
    }

    let t_check = Instant::now();
    let got = Reference {
        csf_states: solution.csf.num_states(),
        csf_transitions: solution.csf.num_transitions(),
        min_states: solution.csf.minimize().num_states(),
    };
    run.exact.csf = Some(got);
    if got != spec.reference {
        failures.push(format!(
            "CSF {}/{}/{} (states/transitions/minimized), reference {}/{}/{}",
            got.csf_states,
            got.csf_transitions,
            got.min_states,
            spec.reference.csf_states,
            spec.reference.csf_transitions,
            spec.reference.min_states
        ));
    }
    run.check_s = t_check.elapsed().as_secs_f64();
    if !failures.is_empty() {
        run.failure = Some(failures.join("; "));
    }
    run
}

//! Metrics from a run's passes, the determinism self-check, and the
//! report: human-readable lines, then one JSON line.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::cells::{Flow, Kernel, Workload};
use crate::stats::{describe, geomean, median, percentile};
use crate::Pass;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed without a fraction (exact counts).
    pub integer: bool,
    /// Sample statistics for the human-readable report.
    pub detail: String,
    /// Also in the JSON line. Times that read 0 on some workload (a cell
    /// the workload does not run, reordering at static order) appear in the
    /// human-readable report only: every JSON metric must be present on
    /// every workload, and a time there must be measured, not a constant.
    pub json: bool,
}

/// `m`, kept out of the JSON line.
fn report_only(m: Metric) -> Metric {
    Metric { json: false, ..m }
}

fn timing(name: &str, samples: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        value: median(samples),
        unit: "s",
        integer: false,
        detail: describe(samples),
        json: true,
    }
}

fn count(name: &str, value: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value: value as f64,
        unit: "count",
        integer: true,
        detail: "exact".to_string(),
        json: true,
    }
}

fn ratio(name: &str, value: f64, detail: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: "ratio",
        integer: false,
        detail,
        json: true,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per pass, the sum of `f` over the pass's cells of `flow` (all flows when
/// `None`).
fn per_pass<'a>(
    passes: impl Iterator<Item = &'a Pass>,
    flow: Option<Flow>,
    f: impl Fn(&crate::cells::CellRun) -> f64,
) -> Vec<f64> {
    passes
        .map(|p| {
            p.cells
                .iter()
                .filter(|c| flow.is_none_or(|fl| c.spec.flow == fl))
                .map(&f)
                .sum()
        })
        .collect()
}

/// The end-to-end metrics of untraced passes.
pub fn end_to_end(passes: &[Pass], setup_samples: &[f64]) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let flow_geomean = |flow: Flow| -> Vec<f64> {
        passes
            .iter()
            .map(|p| {
                let times: Vec<f64> = p
                    .cells
                    .iter()
                    .filter(|c| c.spec.flow == flow)
                    .map(|c| c.solve_s)
                    .collect();
                geomean(&times)
            })
            .collect()
    };
    let verify = per_pass(passes.iter(), None, |c| c.xp_s + c.compose_s);
    let peak = passes
        .iter()
        .flat_map(|p| &p.cells)
        .map(|c| c.exact.peak_nodes)
        .max()
        .unwrap_or(0);
    let rss = peak_rss_mb();
    let mut peak_metric = count("peak_nodes", peak as u64);
    peak_metric.detail = "exact, max over cells".to_string();
    vec![
        timing("setup_s", setup_samples),
        timing("pass_s", &walls),
        timing("part_s", &flow_geomean(Flow::Part)),
        timing("mono_s", &flow_geomean(Flow::Mono)),
        timing("verify_s", &verify),
        peak_metric,
        Metric {
            name: "peak_rss_mb".to_string(),
            value: rss,
            unit: "MB",
            integer: false,
            detail: "VmHWM of the process".to_string(),
            json: true,
        },
    ]
}

/// Every cell name of every workload, in a fixed order.
fn all_cell_names(workloads: &[Workload]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for w in workloads {
        for c in &w.cells {
            let name = c.name();
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// The per-layer metrics of a traced run: layer splits from the traced
/// passes, cell rows and the tracing base from the untraced ones.
pub fn per_layer(workloads: &[Workload], passes: &[Pass]) -> Vec<Metric> {
    let traced = || passes.iter().filter(|p| p.traced);
    let untraced = || passes.iter().filter(|p| !p.traced);
    let first = &passes[0];
    let mut out = vec![
        timing(
            "setup.problem_s",
            &per_pass(passes.iter(), None, |c| c.setup_s),
        ),
        count(
            "setup.live_nodes",
            first
                .cells
                .iter()
                .map(|c| c.exact.setup_live_nodes as u64)
                .sum(),
        ),
    ];
    for flow in [Flow::Part, Flow::Mono] {
        let f = flow.name();
        let layer = |piece: fn(&crate::layers::Split) -> f64| {
            per_pass(traced(), Some(flow), move |c| {
                c.split.as_ref().map_or(0.0, piece)
            })
        };
        out.push(timing(
            &format!("{f}.solve_s"),
            &per_pass(traced(), Some(flow), |c| c.solve_s),
        ));
        out.push(timing(&format!("{f}.compile_s"), &layer(|s| s.compile)));
        if flow == Flow::Part {
            out.push(timing(&format!("{f}.q_s"), &layer(|s| s.q)));
        }
        out.push(timing(&format!("{f}.p_s"), &layer(|s| s.p)));
        out.push(timing(&format!("{f}.classes_s"), &layer(|s| s.classes)));
        out.push(timing(&format!("{f}.extract_s"), &layer(|s| s.extract)));
        out.push(timing(&format!("{f}.residual_s"), &layer(|s| s.residual)));
        let state_secs: Vec<f64> = traced()
            .flat_map(|p| &p.cells)
            .filter(|c| c.spec.flow == flow)
            .flat_map(|c| c.split.iter().flat_map(|s| s.state_secs.iter().copied()))
            .collect();
        for p in [50.0, 99.0] {
            out.push(Metric {
                name: format!("{f}.state_us_p{p}"),
                value: percentile(&state_secs, p) * 1e6,
                unit: "us",
                integer: false,
                detail: format!("pooled over traced passes (n={})", state_secs.len()),
                json: true,
            });
        }
        let cells = || first.cells.iter().filter(|c| c.spec.flow == flow);
        out.push(count(
            &format!("{f}.states"),
            cells().map(|c| c.exact.states as u64).sum(),
        ));
        out.push(count(
            &format!("{f}.images"),
            cells().map(|c| c.exact.images as u64).sum(),
        ));
        let mut k = Kernel::default();
        for c in cells() {
            k.add(&c.exact.kernel);
        }
        let b = |name: &str| format!("{f}.bdd.{name}");
        out.push(count(&b("cache_lookups"), k.cache_lookups));
        out.push(ratio(
            &b("cache_hit_rate"),
            k.cache_hits as f64 / k.cache_lookups.max(1) as f64,
            format!("{} hits / {} lookups", k.cache_hits, k.cache_lookups),
        ));
        out.push(count(&b("cache_evictions"), k.cache_evictions));
        out.push(count(&b("unique_lookups"), k.unique_lookups));
        out.push(Metric {
            name: b("probe_len"),
            value: k.unique_probes as f64 / k.unique_lookups.max(1) as f64,
            unit: "probes/lookup",
            integer: false,
            detail: format!("{} probes / {} lookups", k.unique_probes, k.unique_lookups),
            json: true,
        });
        out.push(count(&b("allocated_nodes"), k.allocated_nodes));
        out.push(count(&b("gc_runs"), k.gc_runs));
        out.push(count(&b("reorder_swaps"), k.reorder_swaps));
        out.push(report_only(timing(
            &b("reorder_s"),
            &per_pass(passes.iter(), Some(flow), |c| c.exact.kernel.reorder_s),
        )));
    }
    out.push(timing(
        "verify.xp_s",
        &per_pass(passes.iter(), None, |c| c.xp_s),
    ));
    out.push(timing(
        "verify.compose_s",
        &per_pass(passes.iter(), None, |c| c.compose_s),
    ));
    for name in all_cell_names(workloads) {
        let samples: Vec<f64> = untraced()
            .flat_map(|p| &p.cells)
            .filter(|c| c.spec.name() == name)
            .map(|c| c.solve_s)
            .collect();
        let mut m = report_only(timing(&format!("cell.{name}_s"), &samples));
        if samples.is_empty() {
            m.detail = "not in this workload".to_string();
        }
        out.push(m);
    }
    let traced_walls: Vec<f64> = traced().map(|p| p.wall_s).collect();
    let untraced_walls: Vec<f64> = untraced().map(|p| p.wall_s).collect();
    out.push(ratio(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        format!(
            "traced pass {}; untraced pass {}",
            describe(&traced_walls),
            describe(&untraced_walls)
        ),
    ));
    let (attempted, failed) = attempted_failed(passes);
    out.push(ratio(
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted} cells"),
    ));
    out
}

fn attempted_failed(passes: &[Pass]) -> (usize, usize) {
    let cells = || passes.iter().flat_map(|p| &p.cells);
    (
        cells().count(),
        cells().filter(|c| c.failure.is_some()).count(),
    )
}

/// FNV-1a over this executable's bytes: counters recorded by a run of the
/// same build are comparable with this run's.
fn build_id() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Some(format!("{hash:016x}"))
}

/// Where runs of this build keep the exact counters of `workload`: beside
/// the executable, in the build directory.
fn counters_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.with_file_name(format!("table1-bench-{workload}.counters")))
}

/// The exact counters (states, images, every kernel count, CSF sizes) must
/// repeat on every pass of the run and on every earlier run of the same
/// build. Returns one message per difference.
pub fn check_determinism(workload: &str, passes: &[Pass]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for (k, pass) in passes.iter().enumerate() {
        for c in &pass.cells {
            let fp = c.exact.fingerprint();
            let name = c.spec.name();
            match seen.get(&name) {
                Some(prev) if *prev != fp => errors.push(format!(
                    "{name}: pass {} counters differ from pass 1: {fp} vs {prev}",
                    k + 1
                )),
                Some(_) => {}
                None => {
                    seen.insert(name, fp);
                }
            }
        }
    }
    let (Some(id), Some(path)) = (build_id(), counters_path(workload)) else {
        return errors;
    };
    let current: String = std::iter::once(format!("build {id}"))
        .chain(seen.iter().map(|(n, fp)| format!("{n} {fp}")))
        .collect::<Vec<_>>()
        .join("\n");
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.lines().next() == current.lines().next() => {
            for line in current.lines().skip(1) {
                let name = line.split(' ').next().unwrap_or_default();
                let before = previous.lines().find(|l| l.split(' ').next() == Some(name));
                if before != Some(line) {
                    errors.push(format!(
                        "{name}: counters differ from an earlier run of this build: {line} vs {}",
                        before.unwrap_or("(absent)")
                    ));
                }
            }
        }
        _ => {
            if errors.is_empty() {
                if let Err(e) = std::fs::write(&path, current) {
                    eprintln!("warning: cannot record counters at {}: {e}", path.display());
                }
            }
        }
    }
    errors
}

fn json_number(m: &Metric) -> String {
    if m.integer {
        format!("{}", m.value as u64)
    } else {
        format!("{}", m.value)
    }
}

/// Prints the report: the cells' failures, every metric with its unit and
/// sample statistics, the determinism verdict, and the JSON line last.
pub fn print(
    workload: &str,
    seed: u64,
    passes: &[Pass],
    metrics: &[Metric],
    determinism: &[String],
) {
    let (attempted, failed) = attempted_failed(passes);
    println!(
        "workload {workload}, seed {seed}: {} passes ({} traced), {attempted} cells, {failed} failed",
        passes.len(),
        passes.iter().filter(|p| p.traced).count()
    );
    for (k, p) in passes.iter().enumerate() {
        for c in &p.cells {
            if let Some(why) = &c.failure {
                println!("FAILED pass {} {}: {why}", k + 1, c.spec.name());
            }
        }
    }
    for m in metrics {
        let value = json_number(m);
        let only = if m.json { "" } else { "  [report only]" };
        println!(
            "{:<28} {value:>22} {:<14} {}{only}",
            m.name, m.unit, m.detail
        );
    }
    if determinism.is_empty() {
        println!("determinism: exact counters repeat across passes and runs of this build");
    } else {
        for e in determinism {
            println!("DETERMINISM ERROR {e}");
        }
    }
    let correct = failed == 0 && determinism.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

//! The service commands: `langeq serve` (the daemon) and `langeq submit`
//! (the client).
//!
//! `serve` binds the `langeq-serve` HTTP/JSON job API, runs jobs on a
//! bounded worker pool, and answers repeated identical requests from the
//! content-addressed result cache — persistent across restarts via
//! `--cache-journal`. Ctrl-C drains: in-flight solves cancel
//! cooperatively, the bound socket closes, and the process exits cleanly.
//!
//! `submit` sends one solve (a network file or a `gen:` builtin) or one
//! sweep (a manifest file) to a running daemon, polls the job to
//! completion, and prints the result.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use langeq_core::{CellReport, SolveConfig};
use langeq_report::Json;
use langeq_serve::{Client, ServeOptions, Server};

use crate::cliargs::{scan, Parsed};
use crate::commands::{solve_config, with_config_keys, CliError};

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

const SERVE_VALUE_KEYS: &[&str] = &[
    "addr",
    "jobs",
    "queue",
    "max-body",
    "cache-journal",
    "store",
    "peers",
    "advertise",
    "auth-token",
    "rate-limit",
    "probe-ms",
    "fail-threshold",
    "slow-ms",
    "slow-log",
];

/// `langeq serve [--addr HOST:PORT] [--jobs N] [--queue N]
/// [--max-body BYTES] [--cache-journal PATH | --store DIR]
/// [--peers A:P,B:P,...] [--advertise HOST:PORT] [--auth-token TOKEN]
/// [--rate-limit PER_SEC] [--probe-ms N] [--fail-threshold N]
/// [--slow-ms MS [--slow-log PATH]]`.
pub fn serve(args: &[String]) -> Result<ExitCode, CliError> {
    let p = scan(args, SERVE_VALUE_KEYS)?;
    p.reject_unknown(SERVE_VALUE_KEYS)?;
    if !p.positionals().is_empty() {
        return Err(CliError::Usage(
            "serve takes no positional arguments".into(),
        ));
    }
    if p.value("store").is_some() && p.value("cache-journal").is_some() {
        return Err(CliError::Usage(
            "--store (shared directory) and --cache-journal (private file) conflict; \
             pick one cache backend"
                .into(),
        ));
    }

    let mut opts = ServeOptions::new()
        .addr(p.value("addr").unwrap_or(DEFAULT_ADDR))
        .jobs(p.number::<usize>("jobs")?.unwrap_or(0))
        .cancel_token(crate::sigint::install());
    if let Some(cap) = p.number::<usize>("queue")? {
        opts = opts.queue_cap(cap);
    }
    if let Some(bytes) = p.number::<usize>("max-body")? {
        opts = opts.max_body(bytes);
    }
    if let Some(path) = p.value("cache-journal") {
        opts = opts.cache_journal(path);
    }
    if let Some(dir) = p.value("store") {
        opts = opts.store_dir(dir);
    }
    if let Some(peers) = p.value("peers") {
        opts = opts.peers(peers.split(',').map(str::trim).filter(|s| !s.is_empty()));
    }
    if let Some(addr) = p.value("advertise") {
        opts = opts.advertise(addr);
    }
    if let Some(token) = p.value("auth-token") {
        opts = opts.auth_token(token);
    }
    if let Some(rate) = p.number::<f64>("rate-limit")? {
        opts = opts.rate_limit(rate);
    }
    if let Some(ms) = p.number::<u64>("probe-ms")? {
        opts = opts.probe_interval(Duration::from_millis(ms));
    }
    if let Some(probes) = p.number::<u32>("fail-threshold")? {
        opts = opts.fail_threshold(probes);
    }
    if let Some(ms) = p.number::<u64>("slow-ms")? {
        opts = opts.slow_ms(ms);
    }
    if let Some(path) = p.value("slow-log") {
        if p.value("slow-ms").is_none() {
            return Err(CliError::Usage(
                "--slow-log needs --slow-ms to set the threshold".into(),
            ));
        }
        opts = opts.slow_log(path);
    }

    let server = Server::start(opts).map_err(|e| CliError::Run(format!("starting server: {e}")))?;
    // The address line goes to stdout so scripts (and the CI smoke test)
    // can bind port 0 and read the port back.
    println!("listening on http://{}", server.addr());
    eprintln!(
        "[serve] {} cache entr{} warmed from the store; Ctrl-C drains and exits",
        server.warm_cache_entries(),
        if server.warm_cache_entries() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    server.wait();
    eprintln!("[serve] drained, bye");
    Ok(ExitCode::SUCCESS)
}

/// Value-taking submit options besides the config keys.
const SUBMIT_VALUE_KEYS: &[&str] = &[
    "addr",
    "split",
    "name",
    "poll-ms",
    "wait-secs",
    "cancel",
    "token",
    "snapshot-out",
];

/// `langeq submit <net.bench|net.blif|gen:NAME|manifest.sweep>
/// [--addr HOST:PORT] [--token TOKEN] [--split K,K,...] [CONFIG FLAGS]
/// [--name NAME] [--no-wait]
/// [--poll-ms N] [--wait-secs N] [--snapshot-out PATH] [--json]
/// [--no-retry]` — or `langeq submit --cancel <job> [--addr HOST:PORT]` to
/// fire a queued/running job's cancel token. A fleet daemon may forward
/// the solve to its ring owner: the ack then carries the owner's address,
/// and submit polls (and fetches the snapshot from) the owner
/// automatically. Transport failures are retried (3 attempts, 250 ms
/// backoff) unless `--no-retry` is given.
pub fn submit(args: &[String]) -> Result<ExitCode, CliError> {
    let values = with_config_keys(SUBMIT_VALUE_KEYS);
    let p = scan(args, &values)?;
    let mut known = values.clone();
    known.extend(["no-wait", "json", "no-retry"]);
    p.reject_unknown(&known)?;

    // One constructor for every daemon this invocation talks to (the
    // submission address and a possible ring owner): same bearer token,
    // same transport-retry policy.
    let make_client = |addr: &str| {
        let mut client = Client::new(addr.to_string());
        if let Some(token) = p.value("token") {
            client = client.with_token(token);
        }
        if !p.flag("no-retry") {
            client = client.with_retry(Client::default_retry());
        }
        client
    };

    if let Some(id_text) = p.value("cancel") {
        if !p.positionals().is_empty() {
            return Err(CliError::Usage(
                "--cancel takes a job id and no source positional".into(),
            ));
        }
        let job: u64 = id_text
            .parse()
            .map_err(|_| CliError::Usage(format!("bad job id `{id_text}` for --cancel")))?;
        let client = make_client(p.value("addr").unwrap_or(DEFAULT_ADDR));
        let cancelled = client
            .cancel(job)
            .map_err(|e| CliError::Run(format!("{}: {e}", client.addr())))?;
        println!(
            "{}",
            Json::obj().set("job", job).set("cancelled", cancelled)
        );
        eprintln!(
            "[submit] job {job} {}",
            if cancelled {
                "cancel requested"
            } else {
                "already done; nothing to cancel"
            }
        );
        return Ok(ExitCode::SUCCESS);
    }

    let [source] = p.positionals() else {
        return Err(CliError::Usage(
            "submit needs one source: a network file, gen:NAME, or a manifest".into(),
        ));
    };

    let client = make_client(p.value("addr").unwrap_or(DEFAULT_ADDR));
    let is_manifest = matches!(
        Path::new(source.as_str())
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
            .as_deref(),
        Some("sweep" | "manifest")
    );

    let ack = if is_manifest {
        for opt in ["split", "name"].into_iter().chain(SolveConfig::KEYS) {
            if p.value(opt).is_some() {
                return Err(CliError::Usage(format!(
                    "--{opt} conflicts with a manifest; declare it in `{source}` instead"
                )));
            }
        }
        let manifest = std::fs::read_to_string(source)
            .map_err(|e| CliError::Run(format!("reading {source}: {e}")))?;
        client.submit_sweep(&manifest)
    } else {
        client.submit_solve(&solve_body(&p, source)?)
    }
    .map_err(|e| CliError::Run(format!("{}: {e}", client.addr())))?;

    eprintln!(
        "[submit] job {} is {}{}{}{}",
        ack.job,
        ack.state,
        if ack.cached { " (cache hit)" } else { "" },
        match &ack.owner {
            Some(owner) => format!(" (forwarded to {owner})"),
            None => String::new(),
        },
        match &ack.trace {
            Some(trace) => format!(" [trace {trace}]"),
            None => String::new(),
        }
    );
    // A forwarded solve lives on the ring owner: the job id in the ack is
    // the owner's, so all further calls must go there.
    let client = match &ack.owner {
        Some(owner) if owner != client.addr() => make_client(owner),
        _ => client,
    };
    if p.flag("no-wait") {
        let mut body = Json::obj()
            .set("job", ack.job)
            .set("state", ack.state.as_str())
            .set("cached", ack.cached);
        if let Some(owner) = &ack.owner {
            body = body.set("owner", owner.as_str());
        }
        if let Some(trace) = &ack.trace {
            body = body.set("trace", trace.as_str());
        }
        println!("{body}");
        return Ok(ExitCode::SUCCESS);
    }

    let poll = Duration::from_millis(p.number::<u64>("poll-ms")?.unwrap_or(200));
    let wait = Duration::from_secs(p.number::<u64>("wait-secs")?.unwrap_or(3600));
    let result = client
        .wait(ack.job, poll, wait)
        .map_err(|e| CliError::Run(format!("{}: {e}", client.addr())))?;

    if let Some(out) = p.value("snapshot-out") {
        match client
            .snapshot(ack.job)
            .map_err(|e| CliError::Run(format!("{}: {e}", client.addr())))?
        {
            Some(bytes) => {
                std::fs::write(out, &bytes)
                    .map_err(|e| CliError::Run(format!("writing {out}: {e}")))?;
                eprintln!("[submit] snapshot: {} bytes -> {out}", bytes.len());
            }
            None => eprintln!("[submit] no snapshot available for job {}", ack.job),
        }
    }

    let cells: Vec<CellReport> = result
        .get("cells")
        .and_then(Json::as_arr)
        .map(|cells| cells.iter().filter_map(CellReport::from_json).collect())
        .unwrap_or_default();
    if p.flag("json") {
        println!("{result}");
    } else {
        for cell in &cells {
            let detail = match cell.stats() {
                Some(stats) => format!("csf {} states", stats.csf_states),
                None => "-".into(),
            };
            println!(
                "{:<12} {:<12} {:<10} {} ({detail}, {:.2}s{})",
                cell.instance,
                cell.config,
                cell.status(),
                cell.kind,
                cell.duration.as_secs_f64(),
                if cell.resumed { ", cached" } else { "" }
            );
        }
    }
    Ok(
        if !cells.is_empty() && cells.iter().all(CellReport::solved) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        },
    )
}

const TRACE_VALUE_KEYS: &[&str] = &["addr", "token"];

/// `langeq trace <id> [--addr HOST:PORT] [--token TOKEN] [--json]` —
/// fetches `GET /v1/trace/{id}` from a running daemon and renders the
/// merged span tree: one indented line per span with its duration and
/// `key=value` fields. The daemon fans the query out to its live ring
/// peers, so any fleet member shows the whole cross-daemon trace. `--json`
/// prints the raw merged view instead.
pub fn trace(args: &[String]) -> Result<ExitCode, CliError> {
    let p = scan(args, TRACE_VALUE_KEYS)?;
    let mut known: Vec<&str> = TRACE_VALUE_KEYS.to_vec();
    known.push("json");
    p.reject_unknown(&known)?;
    let [id] = p.positionals() else {
        return Err(CliError::Usage(
            "trace needs one trace id (the 16-hex id a submit ack prints)".into(),
        ));
    };

    let mut client = Client::new(p.value("addr").unwrap_or(DEFAULT_ADDR).to_string());
    if let Some(token) = p.value("token") {
        client = client.with_token(token);
    }
    let view = client
        .trace(id)
        .map_err(|e| CliError::Run(format!("{}: {e}", client.addr())))?;
    if p.flag("json") {
        println!("{view}");
        return Ok(ExitCode::SUCCESS);
    }

    let members = view.get("members").and_then(Json::as_arr).unwrap_or(&[]);
    let contributing = members
        .iter()
        .filter(|m| m.get("spans").and_then(Json::as_u64).unwrap_or(0) > 0)
        .count();
    eprintln!(
        "[trace] {id}: {} member{} answered, {} with spans",
        members.len(),
        if members.len() == 1 { "" } else { "s" },
        contributing,
    );
    let tree = view.get("tree").and_then(Json::as_arr).unwrap_or(&[]);
    if tree.is_empty() {
        println!("no spans recorded for trace {id} (expired from the ring buffers, or never seen)");
        return Ok(ExitCode::from(1));
    }
    print_spans(tree, 0);
    Ok(ExitCode::SUCCESS)
}

/// One line per span, depth-first: `name  <dur> ms  k=v ...`, children
/// indented under their parent.
fn print_spans(nodes: &[Json], depth: usize) {
    for node in nodes {
        let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
        let dur_ms = node.get("dur_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6;
        let mut line = format!("{:indent$}{name}  {dur_ms:.3} ms", "", indent = depth * 2);
        if let Some(Json::Obj(fields)) = node.get("fields") {
            for (key, value) in fields {
                let value = match value.as_str() {
                    Some(text) => text.to_string(),
                    None => value.to_string(),
                };
                line.push_str(&format!("  {key}={value}"));
            }
        }
        println!("{line}");
        if let Some(children) = node.get("children").and_then(Json::as_arr) {
            print_spans(children, depth + 1);
        }
    }
}

/// Builds the `POST /v1/solve` body from the CLI options.
fn solve_body(p: &Parsed, source: &str) -> Result<Json, CliError> {
    let mut body = Json::obj();
    if source.starts_with("gen:") {
        body = body.set("source", source);
    } else {
        let text = std::fs::read_to_string(source)
            .map_err(|e| CliError::Run(format!("reading {source}: {e}")))?;
        let ext = Path::new(source)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("")
            .to_ascii_lowercase();
        if !matches!(ext.as_str(), "bench" | "blif") {
            return Err(CliError::Usage(format!(
                "`{source}`: submit solves .bench/.blif networks, gen:NAME builtins, \
                 or .sweep manifests"
            )));
        }
        let stem = Path::new(source)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(source);
        body = body
            .set("network", text)
            .set("format", ext.as_str())
            .set("name", stem);
    }
    if let Some(split) = p.usize_list("split")? {
        body = body.set(
            "split",
            split.iter().map(|&k| Json::from(k)).collect::<Vec<Json>>(),
        );
    }
    // Checked here with the daemon's own codec, then sent as text under
    // the body's underscore spelling.
    solve_config(p)?;
    for key in SolveConfig::KEYS {
        if let Some(value) = p.value(key) {
            body = body.set(&key.replace('-', "_"), value);
        }
    }
    if let Some(name) = p.value("name") {
        body = body.set("name", name);
    }
    Ok(body)
}

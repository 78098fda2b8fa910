//! Fault-tolerance integration tests: deterministic fault injection on
//! the client transport, contained solver panics, readiness probes, and
//! the acceptance scenario of the fault-tolerance PR — a three-daemon
//! ring surviving the scripted kill and revival of a member.
//!
//! Everything here runs under the `fault-inject` feature (enabled for
//! test targets by the crate's self dev-dependency); faults are
//! counter-based and seeded, so a failing run replays identically.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use langeq_core::batch::manifest::resolve_source;
use langeq_core::batch::CellOutcome;
use langeq_core::sig::cell_signature;
use langeq_core::{CellReport, ConfigSpec, InstanceSpec, RetryPolicy, SolverKind, SolverLimits};
use langeq_report::Json;
use langeq_serve::fault::{self, FaultPlan};
use langeq_serve::ring::Ring;
use langeq_serve::{http, Client, ClientError, ServeOptions, Server};

const POLL: Duration = Duration::from_millis(20);
const WAIT: Duration = Duration::from_secs(60);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("langeq-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserves an ephemeral port so daemons can be started with a peer list
/// known *before* any of them binds.
fn reserve_port() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    listener.local_addr().expect("local addr").to_string()
}

/// The solve request the chaos fleet works on: `timeout` varies the cell
/// signature (it is part of the content address), minting as many
/// distinct keys as the test needs from one tiny builtin network.
fn chaos_request(timeout: u64) -> Json {
    Json::obj()
        .set("source", "gen:figure3")
        .set("name", "chaos")
        .set("timeout", timeout)
}

/// The cell signature the server derives for [`chaos_request`] — computed
/// locally so the test can consult the ring about ownership *without*
/// submitting anything.
fn chaos_sig(timeout: u64) -> String {
    let (network, default_split) =
        resolve_source("gen:figure3", Path::new(".")).expect("builtin source resolves");
    let instance = InstanceSpec::new(
        "chaos".to_string(),
        network,
        default_split.expect("figure3 has a canonical split"),
    );
    let kind = SolverKind::Partitioned;
    let limits = SolverLimits {
        time_limit: Some(Duration::from_secs(timeout)),
        ..Default::default()
    };
    let config = ConfigSpec::new(kind.to_string(), kind).limits(limits);
    cell_signature(&instance, &config.config)
}

/// Cells of a result with the run-dependent fields (slot index, cache
/// provenance, wall-clock) normalized away — what "byte-identical result"
/// means across two independent solves of the same signature.
fn comparable_cells(result: &Json) -> Vec<String> {
    result
        .get("cells")
        .and_then(Json::as_arr)
        .expect("result has cells")
        .iter()
        .map(|cell| {
            let mut report = CellReport::from_json(cell).expect("cell parses");
            report.cell = 0;
            report.resumed = false;
            report.duration = Duration::ZERO;
            report.trace = None;
            report.to_json().to_string()
        })
        .collect()
}

/// Polls a `/metrics` value on `client` until it reaches `want`.
fn wait_for_metric(client: &Client, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if client.metric(name).ok() == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{} never reached {want} on {}",
            name,
            client.addr()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The acceptance scenario: a three-member ring with a shared store. The
/// owner of a key is killed; a forwarded solve for a fresh key of its
/// still completes promptly via deterministic failover (no multi-second
/// stall), byte-identical to a single-daemon solve. The owner is then
/// revived on the same address: the ring routes the key back to it, and
/// it answers from the cache it warm-loaded out of the shared store —
/// the failover solve was journaled there, so recovery costs no re-solve.
#[test]
fn killed_owner_fails_over_and_recovers_with_a_warm_cache() {
    let dir = scratch_dir("ring");
    let peers: Vec<String> = (0..3).map(|_| reserve_port()).collect();
    let start = |addr: &str| {
        Server::start(
            ServeOptions::new()
                .addr(addr)
                .advertise(addr)
                .jobs(1)
                .peers(peers.clone())
                .store_dir(&dir)
                .probe_interval(Duration::from_millis(50))
                .fail_threshold(2),
        )
        .expect("ring daemon starts")
    };
    let mut fleet: Vec<Option<Server>> = peers.iter().map(|a| Some(start(a))).collect();
    let client = |addr: &str| Client::new(addr.to_string());

    // Consult the ring locally: the victim owns both keys; `hop` is some
    // other member the test submits through.
    let ring = Ring::new(&peers, "");
    let t0 = 100u64;
    let victim = ring
        .owner(&chaos_sig(t0))
        .expect("ring has an owner")
        .to_string();
    let mut victims_keys =
        (t0 + 1..t0 + 256).filter(|&t| ring.owner(&chaos_sig(t)) == Some(victim.as_str()));
    let t1 = victims_keys.next().expect("the victim owns a second key");
    let t2 = victims_keys.next().expect("the victim owns a third key");
    let hop = peers
        .iter()
        .find(|a| **a != victim)
        .expect("two members survive")
        .clone();
    let victim_index = peers
        .iter()
        .position(|a| *a == victim)
        .expect("victim is a member");

    // Healthy baseline: a forwarded solve through `hop`, timed.
    let healthy_started = Instant::now();
    let ack = client(&hop)
        .submit_solve(&chaos_request(t0))
        .expect("healthy submit");
    assert_eq!(
        ack.owner.as_deref(),
        Some(victim.as_str()),
        "the victim owns t0"
    );
    client(&victim)
        .wait(ack.job, POLL, WAIT)
        .expect("owner solves");
    let healthy = healthy_started.elapsed();

    // Kill the owner; wait until `hop`'s prober has marked it down.
    fleet[victim_index]
        .take()
        .expect("victim is alive")
        .shutdown();
    wait_for_metric(&client(&hop), "langeq_fleet_peers_up", 2);
    let ring_view = http::call(&hop, "GET", "/v1/ring", "text/plain", b"")
        .expect("/v1/ring answers")
        .1;
    let view = Json::parse(&ring_view).expect("ring view is JSON");
    assert_eq!(view.get("peers_up").and_then(Json::as_u64), Some(2));
    let down: Vec<String> = view
        .get("members")
        .and_then(Json::as_arr)
        .expect("members listed")
        .iter()
        .filter(|m| m.get("up").and_then(Json::as_bool) == Some(false))
        .filter_map(|m| m.get("addr").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(down, vec![victim.clone()], "exactly the victim is down");

    // A fresh key of the dead owner: the submission must complete via
    // failover without stalling on the corpse.
    let failover_started = Instant::now();
    let ack = client(&hop)
        .submit_solve(&chaos_request(t1))
        .expect("failover submit");
    assert_ne!(
        ack.owner.as_deref(),
        Some(victim.as_str()),
        "no forward to the corpse"
    );
    let solver = ack.owner.clone().unwrap_or_else(|| hop.clone());
    let result = client(&solver)
        .wait(ack.job, POLL, WAIT)
        .expect("failover solve");
    let failover = failover_started.elapsed();
    let budget = (healthy * 2).max(Duration::from_secs(1));
    assert!(
        failover < budget,
        "failover took {failover:?}, over the {budget:?} budget (healthy: {healthy:?})"
    );

    // Byte-identical to a single-daemon solve of the same request.
    let solo_dir = scratch_dir("solo");
    let solo = Server::start(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .jobs(1)
            .store_dir(&solo_dir),
    )
    .expect("solo daemon starts");
    let solo_client = Client::new(solo.addr().to_string());
    let solo_ack = solo_client
        .submit_solve(&chaos_request(t1))
        .expect("solo submit");
    let solo_result = solo_client
        .wait(solo_ack.job, POLL, WAIT)
        .expect("solo solve");
    assert_eq!(
        comparable_cells(&result),
        comparable_cells(&solo_result),
        "failover must not change the answer"
    );
    solo.shutdown();
    let _ = std::fs::remove_dir_all(&solo_dir);

    // Revive the owner on its old address and wait until the fleet sees
    // it. A *fresh* key of its is forwarded to it again — the ring routed
    // the keys back — and asked directly about the failed-over key, it
    // answers from the cache it warm-loaded out of the shared store: the
    // failover solve was journaled there, so recovery cost no re-solve.
    fleet[victim_index] = Some(start(&victim));
    wait_for_metric(&client(&hop), "langeq_fleet_peers_up", 3);
    let routed = client(&hop)
        .submit_solve(&chaos_request(t2))
        .expect("fresh submit");
    assert_eq!(
        routed.owner.as_deref(),
        Some(victim.as_str()),
        "fresh keys route to the recovered owner again"
    );
    client(&victim)
        .wait(routed.job, POLL, WAIT)
        .expect("owner solves again");
    let warm = client(&victim)
        .submit_solve(&chaos_request(t1))
        .expect("direct resubmit");
    assert!(
        warm.cached,
        "the revived owner warm-loaded the failover result from the shared store"
    );

    for server in fleet.into_iter().flatten() {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Client-transport fault injection: refused connects and a torn response
/// are absorbed by the retry policy; without one, the same fault surfaces.
#[test]
fn client_retry_survives_refused_connects_and_torn_responses() {
    let server =
        Server::start(ServeOptions::new().addr("127.0.0.1:0").jobs(1)).expect("daemon starts");
    let addr = server.addr().to_string();
    let retrying = Client::new(addr.clone())
        .with_retry(RetryPolicy::new(3, Duration::from_millis(10)).jitter_seed(42));
    let request = Json::obj().set("source", "gen:figure3");

    let plan = FaultPlan::new(7);
    let _guard = fault::install_client(plan.clone());

    // Two refused connects: attempts 1 and 2 fail, attempt 3 lands.
    plan.refuse_next_connects(2);
    let ack = retrying
        .submit_solve(&request)
        .expect("retries through refusals");
    retrying.wait(ack.job, POLL, WAIT).expect("job finishes");

    // A response cut after 12 bytes is a malformed reply: classified
    // retryable, and the clean second attempt answers from the cache.
    plan.drop_next_response_after(12);
    let again = retrying
        .submit_solve(&request)
        .expect("retries through the torn reply");
    assert!(again.cached, "the repeat is a cache hit");

    // Without a retry policy the injected refusal surfaces as transport
    // failure — proving the fault fired at all.
    plan.refuse_next_connects(1);
    let bare = Client::new(addr).submit_solve(&request);
    assert!(
        matches!(bare, Err(ClientError::Io(_))),
        "an unretried refusal must surface: {bare:?}"
    );

    server.shutdown();
}

/// A panicking solve is contained by the worker loop: the job completes
/// as failed (with the panic text), the panic is never cached, the worker
/// survives to run the next job, and the panic counter ticks.
#[test]
fn a_panicking_solve_fails_the_job_but_not_the_worker() {
    let plan = FaultPlan::new(3);
    let server = Server::start(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .jobs(1)
            .fault_plan(plan.clone()),
    )
    .expect("daemon starts");
    let client = Client::new(server.addr().to_string());
    let request = Json::obj().set("source", "gen:figure3");

    plan.panic_next_solves(1);
    let ack = client.submit_solve(&request).expect("accepted");
    let result = client
        .wait(ack.job, POLL, WAIT)
        .expect("the job still completes");
    let report = result
        .get("cells")
        .and_then(Json::as_arr)
        .and_then(|cells| cells.first())
        .and_then(CellReport::from_json)
        .expect("one report");
    assert!(
        matches!(&report.outcome, CellOutcome::Failed(m) if m.contains("solver panicked")),
        "the report must carry the panic: {:?}",
        report.outcome
    );
    assert_eq!(client.metric("langeq_worker_panics_total").unwrap(), 1);
    assert_eq!(
        client.metric("langeq_live_workers").unwrap(),
        1,
        "the worker survived the panic"
    );

    // A panicked result is retryable, so it was neither cached nor
    // journaled: the same request now solves cleanly on the same worker.
    let retry = client.submit_solve(&request).expect("accepted again");
    assert!(!retry.cached, "a panic must never be cached");
    let result = client.wait(retry.job, POLL, WAIT).expect("clean solve");
    let report = result
        .get("cells")
        .and_then(Json::as_arr)
        .and_then(|cells| cells.first())
        .and_then(CellReport::from_json)
        .expect("one report");
    assert!(report.solved(), "the retry succeeds: {:?}", report.outcome);

    server.shutdown();
}

/// Readiness and fleet-view endpoints on a daemon without a ring: ready
/// immediately (live workers, empty queue, no store trouble), and
/// `/v1/ring` honestly reports there is no fleet.
#[test]
fn readyz_reports_ready_and_ring_requires_a_fleet() {
    let server =
        Server::start(ServeOptions::new().addr("127.0.0.1:0").jobs(2)).expect("daemon starts");
    let addr = server.addr().to_string();

    let (status, body) =
        http::call(&addr, "GET", "/readyz", "text/plain", b"").expect("/readyz answers");
    assert_eq!(status, 200);
    let body = Json::parse(&body).expect("readiness is JSON");
    assert_eq!(body.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(body.get("live_workers").and_then(Json::as_u64), Some(2));
    assert_eq!(body.get("store_ok").and_then(Json::as_bool), Some(true));

    let (status, _) =
        http::call(&addr, "GET", "/v1/ring", "text/plain", b"").expect("/v1/ring answers");
    assert_eq!(status, 404, "no fleet, no ring view");

    server.shutdown();
}

//! Chaos soak for elastic fleet membership: real `prophet serve` and
//! `prophet router` binaries over loopback, with the fleet reshaped
//! *while client traffic runs*.
//!
//! The scenario pinned here is the PR's acceptance criterion in one
//! story: 4×8 concurrent clients hammer a three-shard fleet through the
//! router while a fourth shard joins (`POST /v1/shards {"add": …}`) and
//! the first shard leaves (`{"remove": …}`) mid-traffic. Afterwards:
//!
//! - **zero** non-200 responses — the epoch-swapped ring plus the
//!   warm-before-swap / evict-after-swap handoff makes both membership
//!   changes invisible to clients;
//! - fleet-wide `session_compiles` stays within `models + handoff
//!   primes` — rebalance must not trigger wholesale recompiles;
//! - every response's `X-Prophet-Trace` appears in **exactly one**
//!   shard's `/v1/requests` journal — requests are routed once, not
//!   duplicated or lost across epochs.
//!
//! A failing run prints its evidence before the test reports: every
//! non-200 answer with its trace ID, each shard's `/v1/requests`, the
//! router's `/v1/shards` and `/v1/metrics`, and every process's
//! stderr.

use prophet::serve::client::{self, Connection};
use prophet::serve::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A spawned `prophet` binary with a parsed listen address. Killed on
/// drop so a failing test never leaks server processes.
struct Proc {
    child: Child,
    addr: SocketAddr,
    /// Everything the process has written to stderr so far.
    stderr: Arc<Mutex<Vec<u8>>>,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `prophet <args>` and parse the `listening on http://ADDR`
/// line both `serve` and `router` print first.
fn spawn(args: &[&str]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable listen line: {line:?}"));
    std::thread::spawn(move || std::io::copy(&mut stdout.into_inner(), &mut std::io::sink()));
    let stderr = Arc::new(Mutex::new(Vec::new()));
    let mut pipe = child.stderr.take().unwrap();
    let sink = Arc::clone(&stderr);
    std::thread::spawn(move || {
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = pipe.read(&mut chunk) {
            sink.lock().unwrap().extend_from_slice(&chunk[..n]);
        }
    });
    Proc {
        child,
        addr,
        stderr,
    }
}

/// What a failing run saw, printed while the test unwinds so a flake
/// leaves evidence behind. Declared after the processes it describes,
/// so it drops (and queries them) while they still run.
struct Evidence {
    router: SocketAddr,
    shards: Vec<SocketAddr>,
    stderr: Vec<(String, Arc<Mutex<Vec<u8>>>)>,
    /// Every non-200 answer or transport error, with its trace ID.
    failures: Mutex<Vec<String>>,
}

impl Evidence {
    fn new(router: &Proc, shards: &[Proc]) -> Self {
        let mut stderr = vec![(
            format!("router {}", router.addr),
            Arc::clone(&router.stderr),
        )];
        for shard in shards {
            stderr.push((format!("shard {}", shard.addr), Arc::clone(&shard.stderr)));
        }
        Self {
            router: router.addr,
            shards: shards.iter().map(|s| s.addr).collect(),
            stderr,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Note a non-200 answer (or a transport error) before asserting.
    fn failure(&self, what: String) {
        self.failures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(what);
    }
}

/// One raw GET with a timeout, as a printable string; never panics.
fn fetch(addr: SocketAddr, path: &str) -> String {
    let mut conn = Connection::new(addr);
    conn.set_io_timeout(Some(Duration::from_secs(5)));
    match conn.send("GET", path, None, &[]) {
        Ok(r) => format!("{} {}", r.status, r.body),
        Err(e) => format!("transport error: {e}"),
    }
}

impl Drop for Evidence {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let failures = self.failures.lock().unwrap_or_else(|e| e.into_inner());
        eprintln!("==== chaos evidence: {} failed request(s)", failures.len());
        for failure in failures.iter() {
            eprintln!("{failure}");
        }
        for &shard in &self.shards {
            eprintln!(
                "==== shard {shard} /v1/requests\n{}",
                fetch(shard, "/v1/requests")
            );
        }
        for path in ["/v1/shards", "/v1/metrics"] {
            eprintln!(
                "==== router {} {path}\n{}",
                self.router,
                fetch(self.router, path)
            );
        }
        for (name, stderr) in &self.stderr {
            let bytes = stderr.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!("==== {name} stderr\n{}", String::from_utf8_lossy(&bytes));
        }
    }
}

const TOKEN: &str = "chaos-s3cret";

fn spawn_shard() -> Proc {
    // Each serve worker owns one connection at a time, and the router
    // keeps a pool of keep-alive connections per shard (one per router
    // worker) — plus health probes, handoff warms, and this test's
    // direct metric reads all dial in. Size the shard worker pool above
    // that sum, or probe connections starve behind pooled keep-alives,
    // shards get spuriously marked down, and traffic fails over to
    // non-owners (which recompiles and blurs the compile bound).
    spawn(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "8",
        "--token",
        TOKEN,
    ])
}

/// POST an operator-token-authenticated body and return the parsed
/// response.
fn post_op(addr: SocketAddr, path: &str, body: &Json) -> (u16, Json) {
    let raw = Connection::connect(addr)
        .unwrap()
        .send(
            "POST",
            path,
            Some(&body.encode()),
            &[("authorization", &format!("Bearer {TOKEN}"))],
        )
        .unwrap();
    let parsed = prophet::serve::json::parse(&raw.body).unwrap_or(Json::Null);
    (raw.status, parsed)
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing `{key}` in {v}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("non-number at {path:?} in {v}"))
}

/// All ten bundled demo models: the 4×8 worker schedule below covers
/// every one, so "model count" in the compile bound is exactly 10.
const MODELS: [&str; 10] = [
    "sample",
    "kernel6",
    "jacobi",
    "lapw0",
    "pipeline",
    "master_worker",
    "task_farm",
    "branching_pipeline",
    "halo_ring",
    "mapreduce",
];

#[test]
fn join_and_leave_under_concurrent_traffic_lose_nothing() {
    // Three founding shards, one standby that will join, one router.
    let shards: Vec<Proc> = (0..4).map(|_| spawn_shard()).collect();
    let founding = format!("{},{},{}", shards[0].addr, shards[1].addr, shards[2].addr);
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "4",
        "--shards",
        &founding,
        "--token",
        TOKEN,
    ]);
    let router_addr = router.addr;
    let evidence = Evidence::new(&router, &shards);

    // Steady state first: one pass over every model, so each digest is
    // compiled on its ring owner and known to the router's recipe cache
    // before the fleet is reshaped — the handoff can then warm every
    // moved key (a digest first seen *during* a reshape may legally
    // compile on both the old and the new owner, which would blur the
    // compile-economy bound below).
    let traces: Mutex<Vec<String>> = Mutex::new(Vec::new());
    for model in MODELS {
        let body = Json::object([
            ("model_name", Json::from(model)),
            ("nodes", Json::from(2usize)),
            ("backend", Json::from("analytic")),
        ]);
        let r = client::post(router_addr, "/v1/estimate", &body)
            .inspect_err(|e| evidence.failure(format!("{model} warmup: {e}")))
            .unwrap();
        if r.status != 200 {
            evidence.failure(format!(
                "{model} warmup: trace {:?}: {} {}",
                r.trace, r.status, r.body
            ));
        }
        assert_eq!(r.status, 200, "{model} warmup: {}", r.body);
        traces.lock().unwrap().push(r.trace.expect("trace id"));
    }
    let (join_report, leave_report) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|worker| {
                let traces = &traces;
                let evidence = &evidence;
                scope.spawn(move || {
                    for i in 0..8usize {
                        let model = MODELS[(worker + 2 * i) % MODELS.len()];
                        let body = Json::object([
                            ("model_name", Json::from(model)),
                            ("nodes", Json::from(2usize)),
                            ("backend", Json::from("analytic")),
                        ]);
                        let r = client::post(router_addr, "/v1/estimate", &body)
                            .inspect_err(|e| evidence.failure(format!("{model} mid-reshape: {e}")))
                            .unwrap_or_else(|e| panic!("{model} mid-reshape: {e}"));
                        if r.status != 200 {
                            evidence.failure(format!(
                                "{model} mid-reshape: trace {:?}: {} {}",
                                r.trace, r.status, r.body
                            ));
                        }
                        assert_eq!(
                            r.status, 200,
                            "{model} must survive the reshape: {}",
                            r.body
                        );
                        let trace = r.trace.unwrap_or_else(|| panic!("{model}: no trace id"));
                        traces.lock().unwrap().push(trace);
                        std::thread::sleep(Duration::from_millis(8));
                    }
                })
            })
            .collect();

        // Mid-traffic: shard 3 joins, then shard 0 leaves. Both are
        // operator mutations through the router's elastic endpoint.
        std::thread::sleep(Duration::from_millis(15));
        let add = Json::object([(
            "add",
            Json::Array(vec![Json::from(shards[3].addr.to_string())]),
        )]);
        let (status, join_report) = post_op(router_addr, "/v1/shards", &add);
        if status != 200 {
            evidence.failure(format!("join: {status} {join_report}"));
        }
        assert_eq!(status, 200, "join: {join_report}");
        assert_eq!(num(&join_report, &["epoch"]), 1.0, "{join_report}");

        std::thread::sleep(Duration::from_millis(10));
        let remove = Json::object([(
            "remove",
            Json::Array(vec![Json::from(shards[0].addr.to_string())]),
        )]);
        let (status, leave_report) = post_op(router_addr, "/v1/shards", &remove);
        if status != 200 {
            evidence.failure(format!("leave: {status} {leave_report}"));
        }
        assert_eq!(status, 200, "leave: {leave_report}");
        assert_eq!(num(&leave_report, &["epoch"]), 2.0, "{leave_report}");

        for worker in workers {
            worker.join().expect("no client-visible failure");
        }
        (join_report, leave_report)
    });

    // The fleet settled on shards 1..4 at epoch 2.
    let routing = client::get(router_addr, "/v1/shards").unwrap().body;
    assert_eq!(num(&routing, &["routing", "epoch"]), 2.0, "{routing}");
    assert_eq!(num(&routing, &["routing", "shards"]), 3.0, "{routing}");

    // Compile-economy bound: every model compiles once where it is
    // first routed, plus once per handoff prime (the router warms the
    // new owner of every moved digest). Nothing else may compile.
    let primes = num(&join_report, &["primed"]) + num(&leave_report, &["primed"]);
    let fleet_compiles: f64 = shards
        .iter()
        .map(|s| {
            let m = client::get(s.addr, "/v1/metrics").unwrap().body;
            num(&m, &["session_pool", "compiles"])
        })
        .sum();
    assert!(
        fleet_compiles <= MODELS.len() as f64 + primes,
        "fleet compiled {fleet_compiles} times for {} models + {primes} primes \
         (join {join_report}, leave {leave_report})",
        MODELS.len(),
    );

    // Journal audit: every client-visible trace landed in exactly one
    // shard's request journal — the leaver's included (its process is
    // still up; it just left the ring).
    let mut seen: HashMap<String, usize> = HashMap::new();
    for shard in &shards {
        let journal = client::get(shard.addr, "/v1/requests").unwrap().body;
        for entry in journal.get("requests").unwrap().as_array().unwrap() {
            let id = entry.get("trace_id").unwrap().as_str().unwrap();
            *seen.entry(id.to_string()).or_default() += 1;
        }
    }
    let traces = traces.into_inner().unwrap();
    assert_eq!(
        traces.len(),
        MODELS.len() + 32,
        "every request yields a trace id"
    );
    for trace in &traces {
        assert_eq!(
            seen.get(trace).copied().unwrap_or(0),
            1,
            "trace {trace} must appear in exactly one shard journal"
        );
    }

    // Drain the fleet through the router; the leaver is shut down
    // directly (the router no longer knows it).
    let (status, _) = post_op(router_addr, "/v1/shutdown", &Json::object::<&str>([]));
    assert_eq!(status, 200);
    let (status, _) = post_op(shards[0].addr, "/v1/shutdown", &Json::object::<&str>([]));
    assert_eq!(status, 200);
    let mut procs = shards;
    procs.push(router);
    for proc in &mut procs {
        let status = proc.child.wait().expect("process exits");
        assert!(status.success(), "graceful drain must exit 0: {status:?}");
    }
}

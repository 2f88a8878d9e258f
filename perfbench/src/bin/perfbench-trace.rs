//! `perfbench-trace`: the traced run behind `perfbench --trace 1`.
//!
//! It measures the workload end to end (untraced) twice — on its own
//! fleet, and with the router hop added or removed — then replays the
//! same seeded stream in process, timing the public call of each layer
//! from outside: framing, JSON, model parsing, content key, pool
//! checkout, elaboration, evaluation, encoding, and the router's
//! resolve and ring lookup. Spans are kept in memory and written to
//! `perfbench/out/spans-<workload>-<seed>.jsonl` when the run ends.
//! Layers a workload's requests never reach are timed by probes: the
//! same public calls on the workload's own models, outside any request.
//!
//! This binary links library internals on purpose; the end-to-end
//! binary does not, so a change to them can break only this one.

use perfbench::args::{Args, Workload};
use perfbench::e2e;
use perfbench::fleet::{self, Layout};
use perfbench::json;
use perfbench::plan::{self, Backend, ModelRef, Plan, References, Request};
use perfbench::stats::{self, Interval};
use prophet::check::{check_model, McfConfig};
use prophet::core::{
    to_cpp, to_program, transform_invocations, ArtifactKey, ArtifactStore, Scenario, Session,
    SweepConfig, SweepPoint,
};
use prophet::estimator::{BatchProgram, BatchScratch, EstimatorOptions};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::router::{route_key, Ring};
use prophet::serve::api::{self, AppState};
use prophet::serve::http;
use prophet::serve::{Json, SessionPool};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// The checkout's internal recomputation of the content key, already
/// timed as `store.key`: subtracted from the pool's self time, and
/// counted once in the reconciliation.
const KEY_REPEAT: &str = "pool.key_repeat";

/// The second, warm timing of the content key: tracing's own work,
/// left out of the reconciliation.
const KEY_PROBE: &str = "trace.key_probe";

/// Traced requests that time the content key as a call of its own.
const KEY_SAMPLE: u32 = 8;

/// One recorded span.
struct Span {
    name: &'static str,
    req: u32,
    parent: u32,
    start: u64,
    end: u64,
}

/// In-memory span recorder; records nothing while `on` is false.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u32, parent: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if id != NONE {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    fn rename(&mut self, id: u32, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// A child known only by its duration (the pool's own store-load
    /// and compile times, or its internal repeat of the content key),
    /// placed at its parent's start.
    fn reported(&mut self, name: &'static str, req: u32, parent: u32, ns: u64) {
        if parent != NONE && ns > 0 {
            let start = self.spans[parent as usize].start;
            self.spans.push(Span {
                name,
                req,
                parent,
                start,
                end: start + ns,
            });
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// A replayed request's index and its status and body, or the error
/// that replaced them.
type Output = (usize, Result<(u16, String), String>);

/// What the in-process replay produced.
#[derive(Default)]
struct Counts {
    requests: usize,
    elab_hits: u64,
    elab_misses: u64,
    /// Per sampled request: checkout time minus the content key, store
    /// load and compile inside it (signed: noise can make it negative).
    checkout_self_us: Vec<f64>,
    /// Responses to check once the references exist.
    outputs: Vec<Output>,
}

/// The in-process replay: the shard's request path, call by call.
struct Replay<'a> {
    plan: &'a Plan,
    pool: SessionPool,
    state: AppState,
    ring: Ring,
    routed: bool,
    counts: Counts,
}

impl Replay<'_> {
    /// One request through the pipeline. With tracing on, every
    /// [`KEY_SAMPLE`]th request also computes the content key as its
    /// own call, before and after the pool's checkout (which computes
    /// it again inside); those extra calls are most of the tracing
    /// overhead.
    fn request(&mut self, t: &mut Tracer, r: usize, rid: u32) {
        let req = &self.plan.requests[r];
        let bytes = req.wire.concat();
        let root = t.open("request", rid, NONE);
        let result = self.pipeline(t, req, &bytes, rid, root);
        t.close(root);
        self.counts.requests += 1;
        self.counts.outputs.push((r, result));
    }

    fn pipeline(
        &mut self,
        t: &mut Tracer,
        req: &Request,
        bytes: &[u8],
        rid: u32,
        root: u32,
    ) -> Result<(u16, String), String> {
        let s = t.open("http.read_request", rid, root);
        let http_req =
            http::read_request(&mut &bytes[..]).map_err(|e| format!("framing: {e:?}"))?;
        t.close(s);
        if self.routed {
            let s = t.open("router.resolve", rid, root);
            let key = router_resolve(&http_req.body)?;
            t.close(s);
            let s = t.open("router.ring", rid, root);
            std::hint::black_box(self.ring.route(route_key(key)));
            t.close(s);
        }
        let s = t.open("json.parse", rid, root);
        let body = prophet::serve::json::parse(&http_req.body).map_err(|e| e.to_string())?;
        t.close(s);
        let s = t.open(
            if req.inline {
                "uml.model_from_xml"
            } else {
                "serve.demo_model"
            },
            rid,
            root,
        );
        let model = api::resolve_model(&body).map_err(|r| r.body)?;
        let mcf = api::resolve_mcf(&body).map_err(|r| r.body)?;
        t.close(s);
        let mut key_ns = 0;
        let sampled = t.on && rid.is_multiple_of(KEY_SAMPLE);
        if sampled {
            let s = t.open("store.key", rid, root);
            std::hint::black_box(ArtifactKey::of(&model, &mcf));
            t.close(s);
            key_ns = t.spans[s as usize].end - t.spans[s as usize].start;
        }
        let s = t.open("pool.checkout", rid, root);
        let (session, reused, timing) = self.pool.checkout_timed(&model, &mcf)?;
        t.close(s);
        if sampled {
            // The checkout's own key call runs between a cold and a warm
            // one of ours; the mean of the two stands in for it.
            let warm = t.open(KEY_PROBE, rid, root);
            std::hint::black_box(ArtifactKey::of(&model, &mcf));
            t.close(warm);
            key_ns = (key_ns + t.spans[warm as usize].end - t.spans[warm as usize].start) / 2;
            let span = &t.spans[s as usize];
            let checkout_ns = (span.end - span.start) as f64;
            let inner_ns = (key_ns + (timing.store_us + timing.compile_us) * 1000) as f64;
            self.counts
                .checkout_self_us
                .push((checkout_ns - inner_ns) / 1e3);
        }
        t.reported(KEY_REPEAT, rid, s, key_ns);
        t.reported("store.load", rid, s, timing.store_us * 1000);
        t.reported("core.compile", rid, s, timing.compile_us * 1000);
        let before = session.elab_stats();
        let encoded = if req.sweep {
            let points: Vec<SweepPoint> = req
                .nodes
                .iter()
                .map(|&n| SweepPoint {
                    sp: SystemParams::flat_mpi(n, 1),
                })
                .collect();
            let config = SweepConfig {
                backend: req.backend.core(),
                ..Default::default()
            };
            let s = t.open(
                match req.backend {
                    Backend::Analytic => "core.sweep.analytic",
                    Backend::Simulation => "core.sweep.simulation",
                },
                rid,
                root,
            );
            let report = session.sweep_with(&points, &config, |_, _| {});
            t.close(s);
            let s = t.open("json.encode", rid, root);
            let rows: Vec<Json> = report
                .points
                .iter()
                .map(|p| {
                    let time = p.outcome.as_ref().map_or(f64::NAN, |t| *t);
                    Json::object([
                        ("nodes", Json::from(p.sp.nodes)),
                        ("time", Json::from(time)),
                    ])
                })
                .collect();
            let encoded = Json::object([
                ("model", Json::from(session.program().name.as_str())),
                ("backend", Json::from(req.backend.name())),
                ("points", Json::Array(rows)),
                ("session", Json::object([("reused", Json::from(reused))])),
            ])
            .encode();
            t.close(s);
            encoded
        } else {
            let sp = SystemParams::flat_mpi(req.nodes[0], 1);
            let scenario = Scenario::new(sp)
                .with_backend(req.backend.core())
                .without_trace();
            let machine =
                MachineModel::new(sp, CommParams::default()).map_err(|e| e.to_string())?;
            let limits = EstimatorOptions::default().limits;
            let s = t.open("estimator.flatten", rid, root);
            session
                .elab_cache()
                .get_or_flatten(session.program(), &machine, limits)
                .map_err(|e| e.to_string())?;
            t.close(s);
            if session.elab_stats().misses == before.misses {
                // A cache hit: a lookup, not a flatten.
                t.rename(s, "estimator.elab_lookup");
            }
            let s = t.open(
                match req.backend {
                    Backend::Analytic => "core.evaluate.analytic",
                    Backend::Simulation => "core.evaluate.simulation",
                },
                rid,
                root,
            );
            let evaluation = session.evaluate(&scenario).map_err(|e| e.to_string())?;
            t.close(s);
            let s = t.open("json.encode", rid, root);
            let encoded = Json::object([
                ("model", Json::from(session.program().name.as_str())),
                ("backend", Json::from(req.backend.name())),
                ("predicted_time", Json::from(evaluation.predicted_time)),
                (
                    "events_processed",
                    Json::from(evaluation.report.events_processed),
                ),
                ("session", Json::object([("reused", Json::from(reused))])),
            ])
            .encode();
            t.close(s);
            encoded
        };
        let after = session.elab_stats();
        self.counts.elab_hits += after.hits - before.hits;
        self.counts.elab_misses += after.misses - before.misses;
        Ok((200, encoded))
    }

    /// The same request through the shard's own handler, in process.
    fn handle(&mut self, t: &mut Tracer, r: usize, rid: u32) {
        let bytes = self.plan.requests[r].wire.concat();
        let result = http::read_request(&mut &bytes[..])
            .map_err(|e| format!("framing: {e:?}"))
            .map(|http_req| {
                let s = t.open("serve.handle", rid, NONE);
                let (response, _) = api::handle(&self.state, &http_req);
                t.close(s);
                (response.status, response.body)
            });
        self.counts.outputs.push((r, result));
    }
}

/// The router's resolve step: parse, resolve model and MCF, key.
fn router_resolve(body: &str) -> Result<ArtifactKey, String> {
    let body = prophet::serve::json::parse(body).map_err(|e| e.to_string())?;
    let model = api::resolve_model(&body).map_err(|r| r.body)?;
    let mcf = api::resolve_mcf(&body).map_err(|r| r.body)?;
    Ok(ArtifactKey::of(&model, &mcf))
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Medians of the public calls no request of the workload reaches, on
/// the workload's own models.
#[derive(Default)]
struct Probes {
    samples: BTreeMap<&'static str, Vec<f64>>,
    store_writes: u64,
    store_disk_hits: u64,
}

impl Probes {
    fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(f64::NAN, |v| stats::median(v))
    }
}

/// The probe set: each layer's public call, per model of the workload.
fn probe(plan: &Plan, store: &ArtifactStore, cores: usize) -> Result<Probes, String> {
    let mut probes = Probes::default();
    let mut models: Vec<ModelRef> = Vec::new();
    for r in plan.warmup.iter().chain(&plan.jobs) {
        let m = plan.requests[*r as usize].model;
        if !models.contains(&m) {
            models.push(m);
        }
        if models.len() >= plan::MODELS.len() {
            break;
        }
    }
    let grids: Vec<(Backend, Vec<usize>)> = if plan.workload == Workload::SweepExplore {
        plan::sweep_classes()
            .into_iter()
            .map(|(b, g, _)| (b, g))
            .collect()
    } else {
        vec![
            (Backend::Analytic, plan::ESTIMATE_NODES.to_vec()),
            (Backend::Simulation, plan::ESTIMATE_NODES.to_vec()),
        ]
    };
    let mcf = McfConfig::default();
    let limits = EstimatorOptions::default().limits;
    for _round in 0..3 {
        for &m in &models {
            let xml = plan.xml_of(m);
            let t = Instant::now();
            let model = prophet::uml::xmi::model_from_xml(&xml).map_err(|e| e.to_string())?;
            probes.add("uml.model_from_xml_us", us_since(t));
            let t = Instant::now();
            std::hint::black_box(check_model(&model, &mcf));
            probes.add("check.check_model_us", us_since(t));
            let t = Instant::now();
            std::hint::black_box(to_program(&model).map_err(|e| e.to_string())?);
            probes.add("core.to_program_us", us_since(t));
            let t = Instant::now();
            std::hint::black_box(to_cpp(&model).map_err(|e| e.to_string())?);
            probes.add("codegen.to_cpp_us", us_since(t));
            let t = Instant::now();
            let key = ArtifactKey::of(&model, &mcf);
            probes.add("store.key_us", us_since(t));
            let ring = Ring::new(&["127.0.0.1:1", "127.0.0.1:2"]);
            let t = Instant::now();
            std::hint::black_box(ring.route(route_key(key)));
            probes.add("router.ring_us", us_since(t));
            let body = json::object([("model", json::string(&xml))]);
            let t = Instant::now();
            std::hint::black_box(router_resolve(&body)?);
            probes.add("router.resolve_us", us_since(t));
            let t = Instant::now();
            let session = Session::compile(model, mcf.clone()).map_err(|e| e.to_string())?;
            probes.add("core.compile_us", us_since(t));
            let t = Instant::now();
            store.save_session(&session).map_err(|e| e.to_string())?;
            probes.add("store.save_us", us_since(t));
            let t = Instant::now();
            let loaded = store
                .load_session(key)
                .ok_or("probe store lost an artifact")?;
            probes.add("store.load_us", us_since(t));
            drop(loaded);
            for (backend, grid) in &grids {
                let mut scratch = BatchScratch::new();
                for &n in grid {
                    let sp = SystemParams::flat_mpi(n, 1);
                    let machine =
                        MachineModel::new(sp, CommParams::default()).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    let ops = session
                        .elab_cache()
                        .get_or_flatten(session.program(), &machine, limits)
                        .map_err(|e| e.to_string())?;
                    let flatten = us_since(t);
                    if *backend == Backend::Analytic {
                        probes.add("estimator.flatten_us", flatten);
                        let t = Instant::now();
                        let batch =
                            BatchProgram::prepare(&ops, &machine).map_err(|e| e.to_string())?;
                        probes.add("estimator.batch_prepare_us", us_since(t));
                        let t = Instant::now();
                        std::hint::black_box(
                            batch
                                .evaluate(&session.program().name, &mut scratch)
                                .map_err(|e| e.to_string())?,
                        );
                        probes.add("estimator.batch_eval_us", us_since(t));
                    }
                    let scenario = Scenario::new(sp)
                        .with_backend(backend.core())
                        .without_trace();
                    let t = Instant::now();
                    let evaluation = session.evaluate(&scenario).map_err(|e| e.to_string())?;
                    let took = us_since(t);
                    match backend {
                        Backend::Analytic => probes.add("core.evaluate_analytic_us", took),
                        Backend::Simulation => {
                            probes.add("core.evaluate_simulation_us", took);
                            probes.add(
                                "sim.events_per_s",
                                evaluation.report.events_processed as f64 / (took / 1e6),
                            );
                        }
                    }
                }
                let points: Vec<SweepPoint> = grid
                    .iter()
                    .map(|&n| SweepPoint {
                        sp: SystemParams::flat_mpi(n, 1),
                    })
                    .collect();
                // A first sweep builds the grid's batch programs, so the
                // timed ones measure replay and dispatch.
                std::hint::black_box(session.sweep_with(
                    &points,
                    &SweepConfig {
                        backend: backend.core(),
                        ..Default::default()
                    },
                    |_, _| {},
                ));
                for (threads, name) in [(1, "t1"), (cores, "tN")] {
                    let config = SweepConfig {
                        backend: backend.core(),
                        threads,
                        ..Default::default()
                    };
                    let t = Instant::now();
                    std::hint::black_box(session.sweep_with(&points, &config, |_, _| {}));
                    let pps = points.len() as f64 / (us_since(t) / 1e6);
                    probes.add(
                        match (backend, name) {
                            (Backend::Analytic, "t1") => "core.sweep_analytic_pps_t1",
                            (Backend::Analytic, _) => "core.sweep_analytic_pps_tN",
                            (Backend::Simulation, "t1") => "core.sweep_simulation_pps_t1",
                            (Backend::Simulation, _) => "core.sweep_simulation_pps_tN",
                        },
                        pps,
                    );
                }
            }
        }
    }
    let st = store.stats();
    probes.store_writes = st.writes;
    probes.store_disk_hits = st.disk_hits;
    Ok(probes)
}

/// Per-request self time of every span name, from the recorded spans.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push(Interval {
                start: s.start,
                end: s.end,
            });
        }
    }
    // Sum same-named spans of one request, then collect per name.
    let mut per_request: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = stats::self_time(
            Interval {
                start: s.start,
                end: s.end,
            },
            &children[i],
        );
        *per_request.entry((s.name, s.req)).or_default() += own as f64 / 1e3;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), us) in per_request {
        out.entry(name).or_default().push(us);
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let bin = PathBuf::from(args.prophet.as_deref().ok_or("missing --prophet")?);
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let cores = perfbench::available_parallelism();
    let plan = Plan::new(args.workload, args.seed, cores);

    // End to end, untraced: the workload's own fleet (A), then the same
    // stream with the router hop removed (routed workload) or added.
    let own = e2e::layout(args.workload, cores);
    let mut hop_layout: Layout = e2e::layout(Workload::EstimateWarm, cores);
    hop_layout.router = !own.router;
    let short = Args {
        seconds: args.seconds * 0.3,
        ..args.clone()
    };
    let a = e2e::run(&bin, &short, &plan, &own)?;
    let b = e2e::run(&bin, &short, &plan, &hop_layout)?;
    let (routed, direct) = if own.router { (&a, &b) } else { (&b, &a) };
    let hop_us = (routed.summary.p50_ms - direct.summary.p50_ms) * 1e3;
    let failovers = routed.router_retries.unwrap_or(0);

    // In process: warm the replay's pool and the handler's pool alike.
    let mut replay = Replay {
        plan: &plan,
        pool: SessionPool::default(),
        state: AppState::default(),
        ring: Ring::new(&["127.0.0.1:1", "127.0.0.1:2"]),
        routed: own.router,
        counts: Counts::default(),
    };
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        on: false,
    };
    for &r in &plan.warmup {
        replay.request(&mut tracer, r as usize, NONE);
        replay.handle(&mut tracer, r as usize, NONE);
    }
    replay.counts = Counts::default();
    let pool_before = replay.pool.stats();
    let transforms_before = transform_invocations();

    // Alternate traced, untraced and handler blocks over the stream.
    const BLOCK: usize = 64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * 0.3);
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut rid = 0u32;
    let mut job = 0usize;
    let next_job = |job: &mut usize| {
        let j = *job % plan.job_count();
        *job += 1;
        plan.job(j).to_vec()
    };
    while Instant::now() < deadline {
        for traced in [true, false] {
            tracer.on = traced;
            let t = Instant::now();
            let mut n = 0;
            for _ in 0..BLOCK {
                for r in next_job(&mut job) {
                    replay.request(&mut tracer, r as usize, rid);
                    rid += 1;
                    n += 1;
                }
            }
            let per = t.elapsed().as_nanos() as f64 / n as f64;
            if traced {
                traced_ns.push(per);
            } else {
                untraced_ns.push(per);
            }
        }
        tracer.on = true;
        for _ in 0..BLOCK {
            for r in next_job(&mut job) {
                replay.handle(&mut tracer, r as usize, rid);
                rid += 1;
            }
        }
    }
    tracer.on = false;
    let pool_after = replay.pool.stats();
    let transforms = transform_invocations() - transforms_before;
    let outputs = std::mem::take(&mut replay.counts.outputs);
    let refs = References::compute(&plan, outputs.iter().map(|(r, _)| *r))?;
    let replay_failures: Vec<String> = outputs
        .iter()
        .filter_map(|(r, result)| {
            let req = &plan.requests[*r];
            result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|(status, body)| refs.check(req, *status, body.as_bytes()))
                .err()
        })
        .collect();

    let dir = root.join("perfbench").join("out").join(format!(
        "store-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let store = ArtifactStore::open(dir.join("store")).map_err(|e| format!("probe store: {e}"))?;
    let store_fs = fleet::filesystem_type(&dir);
    let probes = probe(&plan, &store, cores);
    let _ = std::fs::remove_dir_all(&dir);
    let probes = probes?;

    let span_path = root
        .join("perfbench")
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write(&span_path)
        .map_err(|e| format!("write {}: {e}", span_path.display()))?;

    let layers = self_times(&tracer.spans);
    let layer = |name: &str| layers.get(name).map(|v| stats::median(v));
    let path = |span: &str| layer(span).unwrap_or(f64::NAN);
    let path_or_probe =
        |span: &str, probe: &str| layer(span).unwrap_or_else(|| probes.median(probe));
    let handle_us = path("serve.handle");
    let e2e_p50_us = a.summary.p50_ms * 1e3;
    let checkout_self_us = stats::median(&replay.counts.checkout_self_us);
    // Every layer of the request path, once: the key as its own call,
    // the checkout without the key it repeats. Alternatives (backends,
    // inline or named models, elaboration hit or miss) count by the
    // share of requests that took them; the key, timed on a sample,
    // counts for every request.
    let traced = layers.get("request").map_or(1, |v| v.len()) as f64;
    let request_layers: Vec<(String, f64, f64)> = layers
        .iter()
        .filter(|(name, _)| !["serve.handle", KEY_REPEAT, KEY_PROBE].contains(*name))
        .map(|(name, v)| {
            let share = if *name == "store.key" {
                1.0
            } else {
                v.len() as f64 / traced
            };
            let median = match *name {
                "pool.checkout" => checkout_self_us,
                _ => stats::median(v),
            };
            (name.to_string(), median, share)
        })
        .collect();
    let weighted: Vec<(String, f64)> = request_layers
        .iter()
        .map(|(name, median, share)| (name.clone(), median * share))
        .collect();
    let reconcile_us = stats::reconcile(e2e_p50_us, &weighted);
    let overhead = stats::overhead_pct(stats::median(&traced_ns), stats::median(&untraced_ns));
    let d_reuses = pool_after.reuses - pool_before.reuses;
    let d_compiles = pool_after.compiles - pool_before.compiles;
    let d_bypasses = pool_after.bypasses - pool_before.bypasses;
    let c = &replay.counts;
    let lookups = (c.elab_hits + c.elab_misses).max(1);

    let metrics: Vec<(&str, f64, &str)> = vec![
        ("http.read_request_us", path("http.read_request"), "us"),
        ("json.parse_us", path("json.parse"), "us"),
        ("json.encode_us", path("json.encode"), "us"),
        (
            "uml.model_from_xml_us",
            path_or_probe("uml.model_from_xml", "uml.model_from_xml_us"),
            "us",
        ),
        (
            "store.key_us",
            path_or_probe("store.key", "store.key_us"),
            "us",
        ),
        ("pool.checkout_self_us", checkout_self_us, "us"),
        (
            "pool.reuse_ratio",
            d_reuses as f64 / (d_reuses + d_compiles + d_bypasses).max(1) as f64,
            "ratio",
        ),
        ("pool.compiles", d_compiles as f64, "count"),
        ("pool.bypasses", d_bypasses as f64, "count"),
        (
            "check.check_model_us",
            probes.median("check.check_model_us"),
            "us",
        ),
        (
            "codegen.to_cpp_us",
            probes.median("codegen.to_cpp_us"),
            "us",
        ),
        (
            "core.to_program_us",
            probes.median("core.to_program_us"),
            "us",
        ),
        (
            "core.compile_us",
            path_or_probe("core.compile", "core.compile_us"),
            "us",
        ),
        ("core.transform_invocations", transforms as f64, "count"),
        ("store.save_us", probes.median("store.save_us"), "us"),
        (
            "store.load_us",
            path_or_probe("store.load", "store.load_us"),
            "us",
        ),
        ("store.writes", probes.store_writes as f64, "count"),
        ("store.disk_hits", probes.store_disk_hits as f64, "count"),
        (
            "estimator.flatten_us",
            path_or_probe("estimator.flatten", "estimator.flatten_us"),
            "us",
        ),
        (
            "estimator.elab_hit_ratio",
            c.elab_hits as f64 / lookups as f64,
            "ratio",
        ),
        ("estimator.elab_misses", c.elab_misses as f64, "count"),
        (
            "core.evaluate_analytic_us",
            path_or_probe("core.evaluate.analytic", "core.evaluate_analytic_us"),
            "us",
        ),
        (
            "core.evaluate_simulation_us",
            path_or_probe("core.evaluate.simulation", "core.evaluate_simulation_us"),
            "us",
        ),
        (
            "estimator.batch_prepare_us",
            probes.median("estimator.batch_prepare_us"),
            "us",
        ),
        (
            "estimator.batch_eval_us",
            probes.median("estimator.batch_eval_us"),
            "us",
        ),
        ("sim.events_per_s", probes.median("sim.events_per_s"), "1/s"),
        (
            "core.sweep_analytic_pps_t1",
            probes.median("core.sweep_analytic_pps_t1"),
            "1/s",
        ),
        (
            "core.sweep_analytic_pps_tN",
            probes.median("core.sweep_analytic_pps_tN"),
            "1/s",
        ),
        (
            "core.sweep_simulation_pps_t1",
            probes.median("core.sweep_simulation_pps_t1"),
            "1/s",
        ),
        (
            "core.sweep_simulation_pps_tN",
            probes.median("core.sweep_simulation_pps_tN"),
            "1/s",
        ),
        ("serve.handle_us", handle_us, "us"),
        ("net.unattributed_us", e2e_p50_us - handle_us, "us"),
        (
            "router.resolve_us",
            path_or_probe("router.resolve", "router.resolve_us"),
            "us",
        ),
        (
            "router.ring_us",
            path_or_probe("router.ring", "router.ring_us"),
            "us",
        ),
        ("router.hop_us", hop_us, "us"),
        ("router.failovers", failovers as f64, "count"),
        ("trace.reconcile_us", reconcile_us, "us"),
        ("trace.overhead_pct", overhead, "%"),
    ];

    // The per-layer table and the reconciliation line, for readers.
    let table: Vec<String> = request_layers
        .iter()
        .map(|(name, us, share)| {
            json::object([
                ("layer", json::string(name)),
                ("self_us", json::number(*us)),
                ("share", json::number(*share)),
            ])
        })
        .collect();
    println!(
        "{}",
        json::object([(
            "trace",
            json::object([
                ("workload", json::string(args.workload.name())),
                ("seed", args.seed.to_string()),
                ("available_parallelism", cores.to_string()),
                ("build_profile", json::string("release")),
                ("store_fs", json::string(&store_fs)),
                ("spans", tracer.spans.len().to_string()),
                ("span_file", json::string(&span_path.display().to_string())),
                ("replayed_requests", c.requests.to_string()),
                ("e2e_p50_us", json::number(e2e_p50_us)),
                ("e2e_samples", a.summary.samples.to_string()),
                ("e2e_beyond_p90", a.summary.beyond_p90.to_string()),
                ("layers", format!("[{}]", table.join(","))),
                (
                    "reconciliation",
                    json::string(&format!(
                        "e2e p50 {e2e_p50_us:.1} us - sum of layer self times {:.1} us = {reconcile_us:.1} us unattributed",
                        e2e_p50_us - reconcile_us
                    )),
                ),
            ]),
        )])
    );

    let failures: Vec<&String> = a
        .failures
        .iter()
        .chain(&b.failures)
        .chain(&replay_failures)
        .collect();
    for f in failures.iter().take(10) {
        eprintln!("perfbench-trace: failed: {f}");
    }
    let attempted = a.attempted + b.attempted + outputs.len();
    let failed = failures.len();
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !all_finite {
        for (name, v, _) in &metrics {
            if !v.is_finite() {
                eprintln!("perfbench-trace: no measurement for {name}");
            }
        }
    }
    if failovers > 0 {
        eprintln!("perfbench-trace: the router failed over {failovers} time(s); it must not");
    }
    let correct = failed == 0 && all_finite && failovers == 0;
    let body = json::object(metrics.iter().map(|(name, v, unit)| {
        (
            *name,
            json::object([("value", json::number(*v)), ("unit", json::string(unit))]),
        )
    }));
    println!(
        "{}",
        json::object([
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", body),
        ])
    );
    Ok(correct)
}

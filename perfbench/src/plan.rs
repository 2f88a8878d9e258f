//! Seeded inputs: every request body of a run, built before any timing,
//! and the in-process reference predictions they are checked against.
//!
//! The seed chooses the order of requests and the parameters of
//! `model_edit`'s model variants; it never changes a workload's mix, so
//! runs with different seeds measure the same work.

use crate::args::Workload;
use crate::client::{self, Wire};
use crate::json;
use crate::rng::Rng;
use prophet::core::{Backend as CoreBackend, Scenario, Session};
use prophet::machine::SystemParams;
use prophet::uml::Model;
use prophet::workloads::models;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The ten models the program serves by name, in its registry order.
pub const MODELS: [&str; 10] = [
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

/// Model `index` of [`MODELS`] with its cost parameter scaled by
/// `scale`; `scale == 1` gives the parameters the program serves under
/// the model's name. Only costs change, so every variant of a model
/// has the same structure and costs the program the same work.
pub fn build_model(index: usize, scale: f64) -> Model {
    match index {
        0 => models::sample_model(),
        1 => models::kernel6_model(1000, 10, 1e-9 * scale),
        2 => models::jacobi_model(1_000_000, 20, 1e-8 * scale),
        3 => models::lapw0_model(64, 32, 1e-4 * scale),
        4 => models::pipeline_model(32, 0.01 * scale, 4096),
        5 => models::master_worker_model(64, 0.01 * scale, 256),
        6 => models::task_farm_model(8, 0.002 * scale, 512),
        7 => models::branching_pipeline_model(24, 0.004 * scale, 2048),
        8 => models::halo_ring_model(16, 0.003 * scale, 4096),
        9 => models::mapreduce_model(4096, 1e-6 * scale, 64),
        _ => panic!("no model {index}"),
    }
}

/// The model's XMI text, as a client would post it inline.
pub fn model_xml(index: usize, scale: f64) -> String {
    prophet::uml::xmi::model_to_xml(&build_model(index, scale))
}

/// An evaluation backend, as the `/v1` API names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    Analytic,
    Simulation,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Analytic => "analytic",
            Backend::Simulation => "simulation",
        }
    }

    /// The other backend: the reference a response is checked against.
    pub fn opposite(self) -> Backend {
        match self {
            Backend::Analytic => Backend::Simulation,
            Backend::Simulation => Backend::Analytic,
        }
    }

    pub fn core(self) -> CoreBackend {
        match self {
            Backend::Analytic => CoreBackend::Analytic,
            Backend::Simulation => CoreBackend::Simulation,
        }
    }
}

/// Which model a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelRef {
    /// A bundled model, by [`MODELS`] index.
    Demo(usize),
    /// A `model_edit` variant, by index into [`Plan::variants`].
    Variant(usize),
}

/// One distinct request of a plan.
#[derive(Debug, Clone)]
pub struct Request {
    /// The bytes sent.
    pub wire: Wire,
    /// Index into [`Plan::classes`].
    pub class: usize,
    pub model: ModelRef,
    /// Node counts of the SP points asked for (flat MPI, one CPU per
    /// node): one for an estimate, the grid for a sweep.
    pub nodes: Vec<usize>,
    pub backend: Backend,
    pub sweep: bool,
    /// Whether the model is posted inline (vs by `model_name`).
    pub inline: bool,
}

impl Request {
    /// Predictions the response carries: 1, or the grid size.
    pub fn points(&self) -> usize {
        self.nodes.len()
    }
}

/// Every input of one run.
#[derive(Debug)]
pub struct Plan {
    pub workload: Workload,
    /// Keep-alive connections of the load generator.
    pub connections: usize,
    /// The request mix's classes (backend and grid size).
    pub classes: Vec<String>,
    /// Distinct requests.
    pub requests: Vec<Request>,
    /// Requests per job: a job's requests go in order on one connection.
    pub job_len: usize,
    /// Warm-up jobs, flattened: request indices.
    pub warmup: Vec<u32>,
    /// Timed jobs, flattened: request indices.
    pub jobs: Vec<u32>,
    /// `model_edit`'s variants: `(model index, cost scale)`.
    pub variants: Vec<(usize, f64)>,
}

/// Node counts of the estimate workloads' SP points.
pub const ESTIMATE_NODES: [usize; 4] = [1, 2, 4, 8];

/// Per-backend weight in the estimate mix: analytic 3 : simulation 7.
/// An even split would put the class boundary on p50 (see
/// `stats::boundary_violations`).
const ESTIMATE_WEIGHTS: [(Backend, usize); 2] = [(Backend::Analytic, 3), (Backend::Simulation, 7)];

/// `sweep_explore` grids: analytic sweeps over a wide grid, simulation
/// sweeps over a narrow one. The weights (7 : 3) give each backend
/// about half of the sweep time and keep the class boundary at 30% or
/// 70% of requests, clear of p50 and p90.
pub fn sweep_classes() -> [(Backend, Vec<usize>, usize); 2] {
    [
        (Backend::Analytic, (1..=32).collect(), 7),
        (Backend::Simulation, (1..=8).collect(), 3),
    ]
}

/// `model_edit`: sessions the warm-up fills (the pool's capacity).
pub const POOL_CAPACITY: usize = 64;

/// `model_edit`: variants generated for the timed phase. Each fleet
/// serves one slice of it from the start of the stream, and a 2 s slice
/// takes about 1.5k variants today. A program fast enough to wrap
/// around reaches variants it last saw thousands of requests earlier;
/// with the pool full they still compile (the `environment` line
/// reports `stream_passes`).
const EDIT_VARIANTS: usize = 8_000;

/// Passes of the shuffled deck pre-generated for all-hit streams; the
/// stream wraps around after them.
const DECK_PASSES: usize = 64;

impl Plan {
    /// The inputs of `workload` for `seed`, with `cores` connections
    /// where the workload uses one per core.
    pub fn new(workload: Workload, seed: u64, cores: usize) -> Plan {
        let mut rng = Rng::new(seed, workload as u64 + 1);
        match workload {
            Workload::EstimateWarm | Workload::EstimateRouted => {
                estimate_plan(workload, &mut rng, cores)
            }
            Workload::SweepExplore => sweep_plan(&mut rng, cores),
            Workload::ModelEdit => edit_plan(&mut rng, cores),
        }
    }

    /// The request indices of timed job `j`.
    pub fn job(&self, j: usize) -> &[u32] {
        &self.jobs[j * self.job_len..(j + 1) * self.job_len]
    }

    /// Timed jobs available.
    pub fn job_count(&self) -> usize {
        self.jobs.len() / self.job_len
    }

    /// The XMI text of a model the plan's requests carry.
    pub fn xml_of(&self, model: ModelRef) -> String {
        match model {
            ModelRef::Demo(m) => model_xml(m, 1.0),
            ModelRef::Variant(v) => model_xml(self.variants[v].0, self.variants[v].1),
        }
    }
}

fn body(members: &[(&str, String)]) -> Arc<[u8]> {
    json::object(members.iter().map(|(k, v)| (*k, v.clone())))
        .into_bytes()
        .into()
}

fn nodes_json(nodes: &[usize]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Shuffled passes over a deck in which request `i` appears
/// `weight(i)` times.
fn deck_stream(
    rng: &mut Rng,
    requests: &[Request],
    weight: impl Fn(&Request) -> usize,
) -> Vec<u32> {
    let deck: Vec<u32> = requests
        .iter()
        .enumerate()
        .flat_map(|(i, r)| std::iter::repeat_n(i as u32, weight(r)))
        .collect();
    let mut stream = Vec::with_capacity(deck.len() * DECK_PASSES);
    for _ in 0..DECK_PASSES {
        let mut pass = deck.clone();
        rng.shuffle(&mut pass);
        stream.extend(pass);
    }
    stream
}

fn estimate_plan(workload: Workload, rng: &mut Rng, cores: usize) -> Plan {
    let mut requests = Vec::new();
    for (m, name) in MODELS.iter().enumerate() {
        let xml: Arc<[u8]> = json::string(&model_xml(m, 1.0)).into_bytes().into();
        for nodes in ESTIMATE_NODES {
            for (class, (backend, _)) in ESTIMATE_WEIGHTS.iter().enumerate() {
                for inline in [false, true] {
                    // Small members first, so inline bodies share the
                    // XML segment and end with it.
                    let head = format!("{{\"nodes\":{nodes},\"backend\":\"{}\",", backend.name());
                    let parts: Vec<Arc<[u8]>> = if inline {
                        vec![
                            format!("{head}\"model\":").into_bytes().into(),
                            xml.clone(),
                            b"}".to_vec().into(),
                        ]
                    } else {
                        vec![format!("{head}\"model_name\":{}}}", json::string(name))
                            .into_bytes()
                            .into()]
                    };
                    requests.push(Request {
                        wire: client::post("/v1/estimate", &parts),
                        class,
                        model: ModelRef::Demo(m),
                        nodes: vec![nodes],
                        backend: *backend,
                        sweep: false,
                        inline,
                    });
                }
            }
        }
    }
    let mut warmup: Vec<u32> = (0..requests.len() as u32).collect();
    rng.shuffle(&mut warmup);
    let jobs = deck_stream(rng, &requests, |r| ESTIMATE_WEIGHTS[r.class].1);
    Plan {
        workload,
        connections: cores,
        classes: ESTIMATE_WEIGHTS
            .iter()
            .map(|(b, _)| b.name().to_string())
            .collect(),
        requests,
        job_len: 1,
        warmup,
        jobs,
        variants: Vec::new(),
    }
}

fn sweep_plan(rng: &mut Rng, cores: usize) -> Plan {
    let classes = sweep_classes();
    let mut requests = Vec::new();
    for (m, name) in MODELS.iter().enumerate() {
        for (class, (backend, grid, _)) in classes.iter().enumerate() {
            let parts = [body(&[
                ("model_name", json::string(name)),
                ("nodes", nodes_json(grid)),
                ("backend", json::string(backend.name())),
                ("workers", "1".into()),
            ])];
            requests.push(Request {
                wire: client::post("/v1/sweep", &parts),
                class,
                model: ModelRef::Demo(m),
                nodes: grid.clone(),
                backend: *backend,
                sweep: true,
                inline: false,
            });
        }
    }
    let mut warmup: Vec<u32> = (0..requests.len() as u32).collect();
    rng.shuffle(&mut warmup);
    let jobs = deck_stream(rng, &requests, |r| classes[r.class].2);
    Plan {
        workload: Workload::SweepExplore,
        connections: cores,
        classes: classes
            .iter()
            .map(|(b, g, _)| format!("{}x{}", b.name(), g.len()))
            .collect(),
        requests,
        job_len: 1,
        warmup,
        jobs,
        variants: Vec::new(),
    }
}

/// `model_edit`: each job posts a never-seen variant inline, then
/// re-estimates it at the three other SP points. The warm-up fills the
/// pool, so every timed request takes the pool's bypass path and
/// compiles.
fn edit_plan(rng: &mut Rng, cores: usize) -> Plan {
    let total = POOL_CAPACITY + EDIT_VARIANTS;
    let mut variants = Vec::with_capacity(total);
    let mut seen = HashSet::new();
    let mut kinds: Vec<usize> = Vec::new();
    while variants.len() < total {
        if kinds.is_empty() {
            // `sample` has no parameter to vary.
            kinds = (1..MODELS.len()).collect();
            rng.shuffle(&mut kinds);
        }
        let kind = kinds.pop().expect("refilled above");
        let scale = 0.5 + rng.unit();
        if seen.insert((kind, scale.to_bits())) {
            variants.push((kind, scale));
        }
    }
    let mut requests = Vec::with_capacity(total * ESTIMATE_NODES.len());
    let mut warmup = Vec::with_capacity(POOL_CAPACITY);
    let mut jobs = Vec::with_capacity(EDIT_VARIANTS * ESTIMATE_NODES.len());
    for (v, &(kind, scale)) in variants.iter().enumerate() {
        let xml: Arc<[u8]> = json::string(&model_xml(kind, scale)).into_bytes().into();
        let mut nodes = ESTIMATE_NODES;
        rng.shuffle(&mut nodes);
        for (i, n) in nodes.into_iter().enumerate() {
            let index = requests.len() as u32;
            let parts: Vec<Arc<[u8]>> = vec![
                format!("{{\"nodes\":{n},\"backend\":\"analytic\",\"model\":")
                    .into_bytes()
                    .into(),
                xml.clone(),
                b"}".to_vec().into(),
            ];
            requests.push(Request {
                wire: client::post("/v1/estimate", &parts),
                class: 0,
                model: ModelRef::Variant(v),
                nodes: vec![n],
                backend: Backend::Analytic,
                sweep: false,
                inline: true,
            });
            if v < POOL_CAPACITY {
                // Warm-up: one request per variant fills the pool.
                if i == 0 {
                    warmup.push(index);
                }
            } else {
                jobs.push(index);
            }
        }
    }
    Plan {
        workload: Workload::ModelEdit,
        connections: cores,
        classes: vec!["analytic".into()],
        requests,
        job_len: ESTIMATE_NODES.len(),
        warmup,
        jobs,
        variants,
    }
}

/// One reference: `(model, nodes, backend)` and its predicted seconds.
type Point = ((ModelRef, usize, Backend), f64);

/// Reference predictions, computed in process on the backend opposite
/// to each request's.
#[derive(Debug, Default)]
pub struct References {
    /// `(model, nodes, backend)` → predicted seconds.
    values: HashMap<(ModelRef, usize, Backend), f64>,
}

impl References {
    /// Compute references for the given requests of `plan`.
    ///
    /// # Errors
    /// A model that fails to parse, compile or evaluate in process.
    pub fn compute(
        plan: &Plan,
        used: impl IntoIterator<Item = usize>,
    ) -> Result<References, String> {
        let mut wanted: HashMap<(ModelRef, Backend), Vec<usize>> = HashMap::new();
        for r in used {
            let req = &plan.requests[r];
            let nodes = wanted
                .entry((req.model, req.backend.opposite()))
                .or_default();
            for &n in &req.nodes {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
        // One task per model, spread over the cores: a model compiles
        // once and evaluates every point asked of it.
        let mut by_model: HashMap<ModelRef, Vec<(Backend, Vec<usize>)>> = HashMap::new();
        for ((model, backend), nodes) in wanted {
            by_model.entry(model).or_default().push((backend, nodes));
        }
        let tasks: Vec<_> = by_model.into_iter().collect();
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let threads = crate::available_parallelism().min(tasks.len()).max(1);
        let results: Vec<Result<Vec<Point>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some((model, asks)) = tasks.get(i) else {
                                return Ok(out);
                            };
                            out.extend(reference_points(plan, *model, asks)?);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let mut refs = References::default();
        for r in results {
            refs.values.extend(r?);
        }
        Ok(refs)
    }

    /// Check one response to `req`: every prediction it carries must
    /// match the opposite backend's reference within [`crate::REL_TOL`].
    pub fn check(&self, req: &Request, status: u16, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
        if status != 200 {
            return Err(format!("status {status}: {text}"));
        }
        let doc = json::parse(text)?;
        let reference = |n: usize| {
            self.values
                .get(&(req.model, n, req.backend.opposite()))
                .copied()
                .ok_or_else(|| format!("no reference for nodes={n}"))
        };
        let compare = |n: usize, got: Option<f64>| -> Result<(), String> {
            let want = reference(n)?;
            match got {
                Some(got) if crate::agrees(got, want) => Ok(()),
                got => Err(format!(
                    "{:?} nodes={n} {}: got {got:?}, reference {want}",
                    req.model,
                    req.backend.name()
                )),
            }
        };
        if req.sweep {
            let points = doc
                .get("points")
                .and_then(|p| p.as_array())
                .ok_or("sweep response without `points`")?;
            if points.len() != req.nodes.len() {
                return Err(format!(
                    "{} points for a {}-point grid",
                    points.len(),
                    req.nodes.len()
                ));
            }
            for (point, &n) in points.iter().zip(&req.nodes) {
                let nodes = point.get("nodes").and_then(|v| v.as_f64());
                if nodes != Some(n as f64) {
                    return Err(format!("point for nodes {nodes:?} where {n} was asked"));
                }
                compare(n, point.get("time").and_then(|v| v.as_f64()))?;
            }
            Ok(())
        } else {
            compare(
                req.nodes[0],
                doc.get("predicted_time").and_then(|v| v.as_f64()),
            )
        }
    }
}

/// Compile `model` as an inline request would arrive (the XML parse
/// included) and evaluate every asked point on the asked backend.
fn reference_points(
    plan: &Plan,
    model: ModelRef,
    asks: &[(Backend, Vec<usize>)],
) -> Result<Vec<Point>, String> {
    let parsed = prophet::uml::xmi::model_from_xml(&plan.xml_of(model))
        .map_err(|e| format!("{model:?}: XML does not parse: {e}"))?;
    let session = Session::new(parsed).map_err(|e| format!("{model:?}: {e}"))?;
    let mut out = Vec::new();
    for (backend, nodes) in asks {
        for &n in nodes {
            let scenario = Scenario::new(SystemParams::flat_mpi(n, 1))
                .with_backend(backend.core())
                .without_trace();
            let t = session
                .evaluate(&scenario)
                .map_err(|e| format!("{model:?} nodes={n} {}: {e}", backend.name()))?
                .predicted_time;
            out.push(((model, n, *backend), t));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(plan: &Plan) -> Vec<Vec<u8>> {
        let stream: Vec<u32> = plan.warmup.iter().chain(&plan.jobs).copied().collect();
        stream
            .iter()
            .take(4000)
            .map(|&r| plan.requests[r as usize].wire.concat())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_bodies_and_another_seed_another_stream() {
        for workload in [Workload::EstimateWarm, Workload::SweepExplore] {
            let a = Plan::new(workload, 11, 2);
            let b = Plan::new(workload, 11, 2);
            let c = Plan::new(workload, 12, 2);
            assert_eq!(bytes(&a), bytes(&b), "{workload}");
            assert_ne!(bytes(&a), bytes(&c), "{workload}");
            // The seed reorders the stream; it never changes the mix.
            let mut sa = a.jobs.clone();
            let mut sc = c.jobs.clone();
            sa.sort_unstable();
            sc.sort_unstable();
            assert_eq!(sa, sc, "{workload}");
        }
    }

    #[test]
    fn estimate_mix_covers_every_model_node_backend_and_spelling() {
        let plan = Plan::new(Workload::EstimateWarm, 3, 2);
        assert_eq!(plan.requests.len(), MODELS.len() * 4 * 2 * 2);
        assert_eq!(plan.warmup.len(), plan.requests.len());
        let inline = plan.requests.iter().filter(|r| r.inline).count();
        assert_eq!(inline * 2, plan.requests.len());
        let analytic = plan
            .jobs
            .iter()
            .filter(|&&r| plan.requests[r as usize].backend == Backend::Analytic)
            .count();
        assert_eq!(analytic * 10, plan.jobs.len() * 3);
        let wire = String::from_utf8(plan.requests[1].wire.concat()).unwrap();
        let (head, body) = wire.split_once("\r\n\r\n").unwrap();
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(json::parse(body).unwrap().get("model").is_some());
    }

    #[test]
    fn edit_variants_are_distinct_and_seeded() {
        let a = Plan::new(Workload::ModelEdit, 5, 2);
        let c = Plan::new(Workload::ModelEdit, 6, 2);
        assert_eq!(a.warmup.len(), POOL_CAPACITY);
        assert_eq!(a.job_count(), EDIT_VARIANTS);
        let distinct: HashSet<u64> = a.variants.iter().map(|(_, s)| s.to_bits()).collect();
        assert_eq!(distinct.len(), a.variants.len());
        assert_ne!(a.variants[..8], c.variants[..8]);
        // Each job is one variant: first request compiles, three reload.
        let job = a.job(0);
        assert!(job
            .iter()
            .all(|&r| a.requests[r as usize].model == a.requests[job[0] as usize].model));
    }

    #[test]
    fn references_check_both_backends_and_reject_a_wrong_prediction() {
        let plan = Plan::new(Workload::EstimateWarm, 1, 2);
        let refs = References::compute(&plan, 0..plan.requests.len()).unwrap();
        let req = &plan.requests[0];
        let want = refs.values[&(req.model, req.nodes[0], req.backend.opposite())];
        let ok = format!("{{\"predicted_time\":{want}}}");
        assert!(refs.check(req, 200, ok.as_bytes()).is_ok());
        let off = format!("{{\"predicted_time\":{}}}", want * (1.0 + 1e-6));
        assert!(refs.check(req, 200, off.as_bytes()).is_err());
        assert!(refs.check(req, 500, ok.as_bytes()).is_err());
    }
}

//! The end-to-end run: set the program up several times, warm it, time
//! a closed loop of seeded requests, then check every timed response.

use crate::args::{Args, Workload};
use crate::client::Conn;
use crate::fleet::{Fleet, Layout};
use crate::json;
use crate::plan::{Plan, References};
use crate::stats::{self, Class};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, and each fleet serves
/// one slice of the timed phase.
pub const SETUPS: usize = 5;

/// One timed request.
#[derive(Debug)]
pub struct Sample {
    pub request: u32,
    pub latency_ns: u64,
    /// Completion time, from the start of the phase.
    pub done_ns: u64,
    pub status: u16,
    pub body: Vec<u8>,
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// From the start until the last connection finished its last job
    /// (summed over slices).
    pub elapsed_s: f64,
    /// Requests that got no response (connection errors).
    pub lost: Vec<String>,
    /// Passes over the pre-generated stream (above 1: it wrapped).
    /// Every slice starts the stream afresh.
    pub passes: f64,
}

/// The fleet a workload runs against. Serve workers exceed everything
/// that can hold a keep-alive connection to a shard (the load
/// generator's connections, the router's per-worker pool, health
/// probes), so no worker starves; idle workers cost no CPU.
pub fn layout(workload: Workload, cores: usize) -> Layout {
    let router_workers = cores + 2;
    let routed = workload == Workload::EstimateRouted;
    Layout {
        shards: if routed { 2 } else { 1 },
        router: routed,
        serve_workers: 2 * router_workers + 2,
        router_workers,
    }
}

/// Send the plan's warm-up requests once each, spread over `conns`;
/// any non-200 fails.
pub fn warm(conns: &mut [Conn], plan: &Plan) -> Result<(), String> {
    let requests = &plan.warmup;
    let cursor = AtomicUsize::new(0);
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&r) = requests.get(i) else {
                        return Ok(());
                    };
                    match conn.call(&plan.requests[r as usize].wire) {
                        Ok((200, _)) => {}
                        Ok((status, body)) => {
                            return Err(format!(
                                "warm-up request {r}: status {status}: {}",
                                String::from_utf8_lossy(&body)
                            ))
                        }
                        Err(e) => return Err(format!("warm-up request {r}: {e}")),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Closed loop for `seconds`: every connection takes the next job from
/// a shared cursor and sends its requests in order, each after the
/// previous response arrived.
pub fn closed_loop(conns: &mut [Conn], plan: &Plan, seconds: f64) -> Phase {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let jobs = plan.job_count();
    let per_conn: Vec<(Vec<Sample>, Vec<String>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 16);
                    let mut lost = Vec::new();
                    'jobs: while Instant::now() < deadline {
                        let j = cursor.fetch_add(1, Ordering::Relaxed) % jobs;
                        for &r in plan.job(j) {
                            let t = Instant::now();
                            match conn.call(&plan.requests[r as usize].wire) {
                                Ok((status, body)) => samples.push(Sample {
                                    request: r,
                                    latency_ns: t.elapsed().as_nanos() as u64,
                                    done_ns: start.elapsed().as_nanos() as u64,
                                    status,
                                    body,
                                }),
                                Err(e) => {
                                    lost.push(format!("request {r}: {e}"));
                                    break 'jobs;
                                }
                            }
                        }
                    }
                    (samples, lost, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        passes: cursor.load(Ordering::Relaxed) as f64 / jobs as f64,
        ..Phase::default()
    };
    for (samples, lost, took) in per_conn {
        phase.samples.extend(samples);
        phase.lost.extend(lost);
        phase.elapsed_s = phase.elapsed_s.max(took.as_secs_f64());
    }
    phase
}

/// Open `n` keep-alive connections to `addr`.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::open(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// A fleet that finished its warm-up, and how long that took.
pub struct Ready {
    pub fleet: Fleet,
    pub conns: Vec<Conn>,
    pub setup_s: f64,
}

/// Spawn the workload's fleet and warm it: `setup_s` runs from the
/// first spawn to the last warm-up response.
pub fn set_up(bin: &Path, plan: &Plan, layout: &Layout) -> Result<Ready, String> {
    let t = Instant::now();
    let fleet = Fleet::spawn(bin, layout).map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut conns = connect(fleet.front, plan.connections)?;
    warm(&mut conns, plan)?;
    Ok(Ready {
        fleet,
        conns,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Close the load connections, then drain the fleet.
pub fn tear_down(ready: Ready) -> Result<(), String> {
    drop(ready.conns);
    match ready.fleet.shutdown() {
        Ok(true) => Ok(()),
        Ok(false) => Err("a program process did not drain cleanly".into()),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

/// Windows the timed phase is cut into. The reported rate and
/// percentiles are medians over windows, so outside load that hits part
/// of a run moves them less than it moves whole-run figures.
pub const WINDOWS_PER_SECOND: f64 = 2.0;

/// Statistics of a timed phase.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Median over windows of the predictions completed per second.
    pub points_per_s: f64,
    /// Median over windows of each window's p50 and p90.
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Points per second in each window, in time order.
    pub window_rates: Vec<f64>,
    /// Whole-phase figures, for the environment record.
    pub samples: usize,
    pub overall_p50_ms: f64,
    pub overall_p90_ms: f64,
    pub beyond_p90: usize,
    pub classes: Vec<Class>,
}

impl Summary {
    /// Summarize `samples` of a `seconds`-long phase; `points[i]` is
    /// the predictions sample `i` delivered correctly (0 if it failed).
    pub fn of(plan: &Plan, samples: &[Sample], points: &[usize], seconds: f64) -> Summary {
        let windows = ((seconds * WINDOWS_PER_SECOND).floor() as usize).max(1);
        let width_ns = seconds * 1e9 / windows as f64;
        let mut rates = vec![0.0; windows];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (s, &p) in samples.iter().zip(points) {
            let w = (s.done_ns as f64 / width_ns) as usize;
            if w < windows {
                rates[w] += p as f64 * 1e9 / width_ns;
                lat[w].push(s.latency_ns as f64 / 1e6);
            }
        }
        let mut p50 = Vec::with_capacity(windows);
        let mut p90 = Vec::with_capacity(windows);
        for mut l in lat.into_iter().filter(|l| !l.is_empty()) {
            l.sort_by(f64::total_cmp);
            p50.push(stats::quantile(&l, 0.5));
            p90.push(stats::quantile(&l, 0.9));
        }
        let mut all: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
        all.sort_by(f64::total_cmp);
        let overall_p90_ms = stats::quantile(&all, 0.9);
        let classes = plan
            .classes
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let mine: Vec<f64> = samples
                    .iter()
                    .filter(|s| plan.requests[s.request as usize].class == c)
                    .map(|s| s.latency_ns as f64 / 1e6)
                    .collect();
                Class {
                    name: name.clone(),
                    count: mine.len(),
                    median: stats::median(&mine),
                }
            })
            .collect();
        Summary {
            points_per_s: stats::median(&rates),
            p50_ms: stats::median(&p50),
            p90_ms: stats::median(&p90),
            window_rates: rates,
            samples: all.len(),
            overall_p50_ms: stats::quantile(&all, 0.5),
            overall_p90_ms,
            beyond_p90: stats::beyond(&all, overall_p90_ms),
            classes,
        }
    }
}

/// Everything an end-to-end run reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub setups_s: Vec<f64>,
    pub summary: Summary,
    pub peak_rss_mb: f64,
    /// Passes over the pre-generated stream.
    pub passes: f64,
    /// Share of CPU time the host took from this machine during the
    /// timed phase (`steal` in `/proc/stat`), when readable.
    pub steal_pct: Option<f64>,
    /// The router's failovers during the run, when routed.
    pub router_retries: Option<u64>,
    pub elapsed_s: f64,
}

impl Report {
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups_s)
    }

    /// Boundary violations of the latency percentiles (see
    /// [`stats::boundary_violations`]).
    pub fn boundary_violations(&self) -> Vec<(f64, f64)> {
        stats::boundary_violations(&self.summary.classes)
    }

    /// The five end-to-end metrics, as the result line's `metrics`.
    pub fn metrics_json(&self) -> String {
        let metric = |v: f64, unit: &str| {
            json::object([("value", json::number(v)), ("unit", json::string(unit))])
        };
        json::object([
            ("setup_s", metric(self.setup_s(), "s")),
            ("points_per_s", metric(self.summary.points_per_s, "1/s")),
            ("latency_p50_ms", metric(self.summary.p50_ms, "ms")),
            ("latency_p90_ms", metric(self.summary.p90_ms, "ms")),
            ("peak_rss_mb", metric(self.peak_rss_mb, "MiB")),
        ])
    }
}

/// Set up [`SETUPS`] fresh fleets in turn; each serves an equal slice
/// of the `args.seconds` timed phase and is drained after it. Every
/// timed response is checked once all slices are done.
///
/// Splitting the timed phase over fresh processes averages out what
/// differs between process instances (memory layout, hash seeds,
/// thread placement) instead of measuring one instance for the whole
/// run.
pub fn run(bin: &Path, args: &Args, plan: &Plan, layout: &Layout) -> Result<Report, String> {
    let slice = args.seconds / SETUPS as f64;
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut rss = Vec::with_capacity(SETUPS);
    let mut router_retries = None;
    let mut ticks = CpuTicks::default();
    let mut phase = Phase::default();
    for round in 0..SETUPS {
        let mut ready = set_up(bin, plan, layout)?;
        setups_s.push(ready.setup_s);
        let before = cpu_ticks();
        let part = closed_loop(&mut ready.conns, plan, slice);
        ticks.add(&before, &cpu_ticks());
        rss.push(
            ready
                .fleet
                .peak_rss_mb()
                .map_err(|e| format!("peak RSS: {e}"))?,
        );
        if let Some(n) = ready
            .fleet
            .router_retries()
            .map_err(|e| format!("router metrics: {e}"))?
        {
            *router_retries.get_or_insert(0) += n;
        }
        tear_down(ready)?;
        // Slices follow each other on one timeline, so windows never
        // mix two fleets.
        let offset_ns = (round as f64 * slice * 1e9) as u64;
        phase.samples.extend(part.samples.into_iter().map(|mut s| {
            s.done_ns += offset_ns;
            s
        }));
        phase.lost.extend(part.lost);
        phase.elapsed_s += part.elapsed_s;
        phase.passes = phase.passes.max(part.passes);
    }

    let used: std::collections::BTreeSet<usize> =
        phase.samples.iter().map(|s| s.request as usize).collect();
    let refs = References::compute(plan, used)?;
    let mut failures: Vec<String> = phase.lost.clone();
    let mut points = Vec::with_capacity(phase.samples.len());
    for s in &phase.samples {
        let req = &plan.requests[s.request as usize];
        match refs.check(req, s.status, &s.body) {
            Ok(()) => points.push(req.points()),
            Err(e) => {
                failures.push(e);
                points.push(0);
            }
        }
    }
    Ok(Report {
        attempted: phase.samples.len() + phase.lost.len(),
        failed: failures.len(),
        failures,
        setups_s,
        summary: Summary::of(plan, &phase.samples, &points, args.seconds),
        peak_rss_mb: stats::median(&rss),
        passes: phase.passes,
        steal_pct: ticks.steal_pct(),
        router_retries,
        elapsed_s: phase.elapsed_s,
    })
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// CPU ticks summed over the timed slices: all, and stolen.
#[derive(Default)]
struct CpuTicks {
    total: u64,
    steal: u64,
    readable: bool,
}

impl CpuTicks {
    /// Add the ticks between two readings (`steal` is the eighth field).
    fn add(&mut self, before: &Option<Vec<u64>>, after: &Option<Vec<u64>>) {
        if let (Some(b), Some(a)) = (before, after) {
            let delta: Vec<u64> = a.iter().zip(b).map(|(a, b)| a.saturating_sub(*b)).collect();
            self.total += delta.iter().sum::<u64>();
            self.steal += delta.get(7).copied().unwrap_or(0);
            self.readable = delta.len() > 7;
        }
    }

    /// Steal as a share of all ticks, when `/proc/stat` was readable.
    fn steal_pct(&self) -> Option<f64> {
        (self.readable && self.total > 0).then(|| self.steal as f64 * 100.0 / self.total as f64)
    }
}

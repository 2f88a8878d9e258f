//! Spawning, watching and stopping the program's processes: one
//! `prophet serve`, or `prophet router` over two shards.

use crate::client;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shape of a fleet.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `serve` processes.
    pub shards: usize,
    /// Whether a `prophet router` fronts the shards.
    pub router: bool,
    /// `--workers` of each `serve` process.
    pub serve_workers: usize,
    /// `--workers` of the router.
    pub router_workers: usize,
}

/// One running program process.
struct Proc {
    child: Child,
    addr: SocketAddr,
    /// Drains the rest of stdout so the program never blocks on it.
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawn `prophet <args>` and block until it prints its
    /// `listening on http://ADDR` line: readiness comes from the
    /// program itself, with no sleeps or polling.
    fn spawn(bin: &Path, args: &[String]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        match read_ready(stdout) {
            Ok((addr, drain)) => Ok(Proc {
                child,
                addr,
                drain: Some(drain),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set (`VmHWM`) in KiB, from `/proc`.
    fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
    }

    /// Wait up to `limit` for exit, then kill; always reaps the child
    /// and joins the stdout drain.
    fn stop(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        exited
    }
}

fn read_ready(stdout: ChildStdout) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "program exited before printing `listening on`",
            ));
        }
        if let Some((_, rest)) = line.split_once("listening on http://") {
            let addr = rest.trim().parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad address in `{}`", line.trim()),
                )
            })?;
            let drain = std::thread::spawn(move || {
                let _ = io::copy(&mut reader.take(u64::MAX), &mut io::sink());
            });
            return Ok((addr, drain));
        }
    }
}

/// A running fleet; the processes are stopped on drop if
/// [`Fleet::shutdown`] was not called.
pub struct Fleet {
    procs: Vec<Proc>,
    /// Where clients connect: the router, or the first shard.
    pub front: SocketAddr,
    /// Whether `front` is a router.
    pub routed: bool,
}

impl Fleet {
    /// Spawn every process of `layout` from `bin` and wait until each
    /// is listening.
    pub fn spawn(bin: &Path, layout: &Layout) -> io::Result<Fleet> {
        let mut fleet = Fleet {
            procs: Vec::new(),
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            routed: layout.router,
        };
        let mut shards: Vec<SocketAddr> = Vec::with_capacity(layout.shards);
        for _ in 0..layout.shards {
            let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--workers"]
                .map(String::from)
                .to_vec();
            args.push(layout.serve_workers.to_string());
            let proc = Proc::spawn(bin, &args)?;
            shards.push(proc.addr);
            fleet.procs.push(proc);
        }
        fleet.front = shards[0];
        if layout.router {
            let list: Vec<String> = shards.iter().map(|a| a.to_string()).collect();
            let args: Vec<String> = vec![
                "router".into(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--workers".into(),
                layout.router_workers.to_string(),
                "--shards".into(),
                list.join(","),
            ];
            let router = Proc::spawn(bin, &args)?;
            fleet.front = router.addr;
            fleet.procs.push(router);
        }
        Ok(fleet)
    }

    /// Sum of the processes' peak resident sets, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0;
        for p in &self.procs {
            kib += p.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// The router's failovers so far (`routing.retries` of its
    /// `/v1/metrics`); `None` without a router.
    pub fn router_retries(&self) -> io::Result<Option<u64>> {
        if !self.routed {
            return Ok(None);
        }
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let (status, body) = client::get(self.front, "/v1/metrics")?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(bad(format!("router metrics: status {status}")));
        }
        crate::json::parse(&text)
            .map_err(bad)?
            .get("router")
            .and_then(|r| r.get("routing"))
            .and_then(|r| r.get("retries"))
            .and_then(|r| r.as_f64())
            .map(|r| Some(r as u64))
            .ok_or_else(|| bad("router metrics without router.routing.retries".into()))
    }

    /// `POST /v1/shutdown` to the front (a router forwards it to every
    /// shard), then wait for every process to exit. `Ok(false)` when a
    /// process had to be killed.
    pub fn shutdown(mut self) -> io::Result<bool> {
        let wire = client::post("/v1/shutdown", &[]);
        let acked = matches!(client::call_once(self.front, &wire), Ok((200, _)));
        let mut clean = acked;
        for p in self.procs.iter_mut().rev() {
            clean &= p.stop(Duration::from_secs(20));
        }
        self.procs.clear();
        Ok(clean)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            p.stop(Duration::ZERO);
        }
    }
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest
/// matching mount point).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

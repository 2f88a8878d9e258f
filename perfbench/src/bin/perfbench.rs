//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Builds the release `prophet` binary,
//! drives it with the workload's seeded stream and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` it hands over to `perfbench-trace`, which reports the
//! per-layer metrics instead.

use perfbench::args::Args;
use perfbench::e2e;
use perfbench::json;
use perfbench::plan::Plan;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let bin = match &args.prophet {
        Some(p) => PathBuf::from(p),
        None => build(&root, &root.join("Cargo.toml"), "prophet")?,
    };
    if args.trace {
        // The traced run links library internals; it is built only
        // when asked for, so the end-to-end path never depends on them.
        let tracer = build(
            &root,
            &root.join("perfbench").join("Cargo.toml"),
            "perfbench-trace",
        )?;
        let status = Command::new(tracer)
            .args(std::env::args().skip(1))
            .arg("--prophet")
            .arg(&bin)
            .status()
            .map_err(|e| format!("perfbench-trace: {e}"))?;
        return Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let cores = perfbench::available_parallelism();
    let plan = Plan::new(args.workload, args.seed, cores);
    let report = e2e::run(&bin, args, &plan, &e2e::layout(args.workload, cores))?;
    for f in report.failures.iter().take(10) {
        eprintln!("perfbench: failed: {f}");
    }
    let violations = report.boundary_violations();
    for (q, b) in &violations {
        eprintln!(
            "perfbench: p{} lies within {} points of the class boundary at {:.1}%",
            q * 100.0,
            perfbench::stats::BOUNDARY_MARGIN * 100.0,
            b * 100.0
        );
    }
    println!("{}", environment(&root, args, &plan, &report, cores));
    let correct = report.failed == 0 && violations.is_empty();
    println!(
        "{}",
        json::object([
            ("correct", correct.to_string()),
            ("attempted", report.attempted.to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", report.metrics_json()),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The conditions a result came from, printed on the line before it.
fn environment(
    root: &Path,
    args: &Args,
    plan: &Plan,
    report: &e2e::Report,
    cores: usize,
) -> String {
    let classes: Vec<String> = report
        .summary
        .classes
        .iter()
        .map(|c| {
            json::object([
                ("name", json::string(&c.name)),
                ("count", c.count.to_string()),
                ("median_ms", json::number(c.median)),
            ])
        })
        .collect();
    let setups: Vec<String> = report.setups_s.iter().map(|s| json::number(*s)).collect();
    json::object([(
        "environment",
        json::object([
            ("workload", json::string(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(args.seconds)),
            ("available_parallelism", cores.to_string()),
            ("git_revision", json::string(&git_revision())),
            ("build_profile", json::string("release")),
            ("connections", plan.connections.to_string()),
            (
                "checkout_fs",
                json::string(&perfbench::fleet::filesystem_type(root)),
            ),
            ("samples", report.summary.samples.to_string()),
            ("beyond_p90", report.summary.beyond_p90.to_string()),
            (
                "overall_p50_ms",
                json::number(report.summary.overall_p50_ms),
            ),
            (
                "overall_p90_ms",
                json::number(report.summary.overall_p90_ms),
            ),
            (
                "window_rates",
                format!(
                    "[{}]",
                    report
                        .summary
                        .window_rates
                        .iter()
                        .map(|r| format!("{r:.0}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ),
            (
                "steal_pct",
                report.steal_pct.map_or("null".into(), json::number),
            ),
            ("elapsed_s", json::number(report.elapsed_s)),
            ("stream_passes", json::number(report.passes)),
            (
                "router_failovers",
                report
                    .router_retries
                    .map_or("null".into(), |n| n.to_string()),
            ),
            ("setups_s", format!("[{}]", setups.join(","))),
            ("classes", format!("[{}]", classes.join(","))),
        ]),
    )])
}

/// `git rev-parse HEAD`, or `none` outside a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// `cargo build --release` of one binary; returns its path. Cargo's
/// own output goes to stderr, so stdout keeps only the result.
fn build(root: &Path, manifest: &Path, name: &str) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--bin", name])
        .arg("--manifest-path")
        .arg(manifest)
        .args(["--message-format", "json-render-diagnostics"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cargo build --bin {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build --bin {name} failed"));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|m| m.get("reason").and_then(|r| r.as_str()) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(|n| n.as_str())
                == Some(name)
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(|e| e.as_str())
                .map(PathBuf::from)
        })
        .ok_or_else(|| format!("cargo did not report an executable for `{name}`"))
}

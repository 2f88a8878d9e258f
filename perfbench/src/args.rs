//! Command-line arguments shared by both benchmark binaries.

use std::fmt;

/// One of the benchmark's traffic mixes (see `NOTES.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `nproc` keep-alive connections to one `prophet serve`; all hits.
    EstimateWarm,
    /// The same stream through `prophet router` over two shards.
    EstimateRouted,
    /// `/v1/sweep` requests on both backends over warm sessions.
    SweepExplore,
    /// Never-seen model variants against a full session pool.
    ModelEdit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EstimateWarm,
        Workload::EstimateRouted,
        Workload::SweepExplore,
        Workload::ModelEdit,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateWarm => "estimate_warm",
            Workload::EstimateRouted => "estimate_routed",
            Workload::SweepExplore => "sweep_explore",
            Workload::ModelEdit => "model_edit",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, plus
/// `--prophet <path>` when the caller already built the binary.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub prophet: Option<String>,
}

impl Args {
    /// Parse the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut prophet = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("seconds must be in (0, 120], got {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    }
                }
                "--prophet" => prophet = Some(value.clone()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            prophet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = Args::parse(&strings(&[
            "--workload",
            "model_edit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ModelEdit);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_missing_values() {
        assert!(Args::parse(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&["--workload"])).is_err());
        assert!(Args::parse(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
    }
}

//! The prophet benchmark: seeded request streams driven through the
//! release `prophet` binary over HTTP (`perfbench`), plus an in-process
//! traced run that times each crate's public calls (`perfbench-trace`).
//!
//! The end-to-end path uses only the model constructors, the XMI writer
//! and `Session` from the library — to build inputs and to compute the
//! reference predictions every response is checked against. Everything
//! else it learns over the program's stable surfaces: the `serve` and
//! `router` flags, the `listening on` stdout line and the `/v1` API.
//! See `NOTES.md` beside this crate for the workloads and the layers.

pub mod args;
pub mod client;
pub mod e2e;
pub mod fleet;
pub mod json;
pub mod plan;
pub mod rng;
pub mod stats;

/// Relative tolerance between the two evaluation backends on flat-MPI,
/// non-oversubscribed points: the repository's conformance contract.
pub const REL_TOL: f64 = 1e-9;

/// Whether two predictions agree within [`REL_TOL`].
pub fn agrees(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    a.is_finite() && b.is_finite() && (a - b).abs() / scale <= REL_TOL
}

/// Cores the load generator and the program share.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

//! Per-request phase spans and the journal behind `GET /v1/requests`.
//!
//! Each handled request accumulates a [`SpanSet`]: microseconds spent
//! in each pipeline phase (parse, pool lookup, store load, compile,
//! evaluate, encode) plus the elaboration-cache hit/miss deltas the
//! request caused. Completed sets land in a [`SpanRecorder`]: a
//! `Mutex<VecDeque>` of whole rows bounded at `capacity`, so a busy
//! server keeps the newest `capacity` requests, and a total `recorded`
//! counter is exact even once old rows are dropped. A row is built
//! before the lock is taken and pushed whole, so a reader never sees a
//! row mixing two requests.

use crate::http::MAX_TRACE_LEN;
use crate::json::Json;
use crate::metrics::{Histogram, ENDPOINT_NAMES};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pipeline phases, in journal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Body parse + argument validation.
    Parse = 0,
    /// Session-pool lookup (waiting on a slot, hashing the key).
    Pool = 1,
    /// Artifact-store load attempt.
    StoreLoad = 2,
    /// Model compile (check + transform + flatten).
    Compile = 3,
    /// Evaluation proper: estimate, sweep points, or optimizer search.
    Evaluate = 4,
    /// Response body encode.
    Encode = 5,
}

/// Phase labels, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; 6] = [
    "parse",
    "pool",
    "store_load",
    "compile",
    "evaluate",
    "encode",
];

/// How many recent requests the journal keeps.
pub const JOURNAL_CAPACITY: usize = 256;

/// Accumulating span set for one in-flight request.
#[derive(Debug)]
pub struct SpanSet {
    started: Instant,
    last: Instant,
    phase_us: [u64; PHASE_NAMES.len()],
    elab_hits: u64,
    elab_misses: u64,
}

impl SpanSet {
    /// Start the clock for a new request.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            last: now,
            phase_us: [0; PHASE_NAMES.len()],
            elab_hits: 0,
            elab_misses: 0,
        }
    }

    /// Attribute the time since the previous mark to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        self.phase_us[phase as usize] += now
            .duration_since(self.last)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.last = now;
    }

    /// Attribute an externally measured duration to `phase` (used when
    /// a callee reports its own sub-timings, e.g. the pool checkout
    /// splitting store load from compile).
    pub fn add_us(&mut self, phase: Phase, us: u64) {
        self.phase_us[phase as usize] += us;
    }

    /// Reset the inter-mark clock to now, after a stretch accounted
    /// for via [`SpanSet::add_us`].
    pub fn resync(&mut self) {
        self.last = Instant::now();
    }

    /// Record the elaboration-cache hits/misses this request caused.
    pub fn set_elab(&mut self, hits: u64, misses: u64) {
        self.elab_hits = hits;
        self.elab_misses = misses;
    }

    /// Microseconds attributed to `phase` so far.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase as usize]
    }

    /// Total wall time since [`SpanSet::start`], in microseconds.
    pub fn total_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// One journal row.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The request's trace ID.
    pub trace: String,
    /// Index into [`ENDPOINT_NAMES`].
    pub endpoint: usize,
    /// Response status code.
    pub status: u16,
    /// Total request wall time, µs.
    pub total_us: u64,
    /// Per-phase µs, indexed like [`PHASE_NAMES`].
    pub phase_us: [u64; PHASE_NAMES.len()],
    /// Elaboration-cache hits this request caused.
    pub elab_hits: u64,
    /// Elaboration-cache misses this request caused.
    pub elab_misses: u64,
}

/// Bounded journal of recent requests plus aggregated per-phase
/// histograms.
#[derive(Debug)]
pub struct SpanRecorder {
    /// Newest first, at most `capacity` rows.
    journal: Mutex<VecDeque<JournalEntry>>,
    capacity: usize,
    recorded: AtomicU64,
    phase_hist: [Histogram; PHASE_NAMES.len()],
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::with_capacity(JOURNAL_CAPACITY)
    }
}

impl SpanRecorder {
    /// A recorder keeping the newest `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            journal: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
            phase_hist: Default::default(),
        }
    }

    /// Record one completed request, truncating its trace to
    /// [`MAX_TRACE_LEN`] bytes. Safe from any worker thread; the
    /// journal lock is held only to push the finished row.
    pub fn record(&self, trace: &str, endpoint: usize, status: u16, spans: &SpanSet) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        for (i, &us) in spans.phase_us.iter().enumerate() {
            if us > 0 {
                self.phase_hist[i].record_us(us);
            }
        }
        let end = trace.len().min(MAX_TRACE_LEN);
        let entry = JournalEntry {
            // Trace IDs are ASCII; a cut through a multi-byte character
            // would leave invalid UTF-8, recorded as empty instead.
            trace: trace.get(..end).unwrap_or_default().to_owned(),
            endpoint: endpoint.min(ENDPOINT_NAMES.len() - 1),
            status,
            total_us: spans.total_us(),
            phase_us: spans.phase_us,
            elab_hits: spans.elab_hits,
            elab_misses: spans.elab_misses,
        };
        let mut journal = self.journal.lock().expect("journal lock");
        journal.truncate(self.capacity - 1);
        journal.push_front(entry);
    }

    /// Total requests ever recorded — exact even after old rows drop.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Journal entries, newest first.
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.journal
            .lock()
            .expect("journal lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The `GET /v1/requests` body: newest-first journal plus the
    /// exact lifetime count.
    pub fn journal_json(&self) -> Json {
        let entries: Vec<Json> = self.entries().iter().map(entry_json).collect();
        Json::object([
            ("recorded", Json::from(self.recorded())),
            ("capacity", Json::from(self.capacity)),
            ("requests", Json::Array(entries)),
        ])
    }

    /// Aggregated per-phase histograms (the `phases` section of
    /// `/v1/metrics`).
    pub fn phases_json(&self) -> Json {
        Json::object(
            PHASE_NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, self.phase_hist[i].snapshot().to_json())),
        )
    }

    /// Snapshot of one phase histogram, for Prometheus rendering.
    pub fn phase_snapshot(&self, phase: usize) -> crate::metrics::HistogramSnapshot {
        self.phase_hist[phase].snapshot()
    }
}

fn entry_json(entry: &JournalEntry) -> Json {
    let phases = Json::object(
        PHASE_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, Json::from(entry.phase_us[i]))),
    );
    Json::object([
        ("trace_id", Json::from(entry.trace.as_str())),
        ("endpoint", Json::from(ENDPOINT_NAMES[entry.endpoint])),
        ("status", Json::from(u64::from(entry.status))),
        ("total_us", Json::from(entry.total_us)),
        ("phases", phases),
        (
            "elab",
            Json::object([
                ("hits", Json::from(entry.elab_hits)),
                ("misses", Json::from(entry.elab_misses)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spans_with(phase: Phase, us: u64) -> SpanSet {
        let mut s = SpanSet::start();
        s.add_us(phase, us);
        s
    }

    #[test]
    fn journal_keeps_newest_first_with_full_fidelity() {
        let rec = SpanRecorder::with_capacity(8);
        for i in 0..3u64 {
            let mut s = spans_with(Phase::Evaluate, 100 + i);
            s.set_elab(i, 1);
            rec.record(&format!("t-{i}"), 1, 200, &s);
        }
        let entries = rec.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].trace, "t-2", "newest first");
        assert_eq!(entries[2].trace, "t-0");
        assert_eq!(entries[0].phase_us[Phase::Evaluate as usize], 102);
        assert_eq!(entries[0].elab_hits, 2);
        let json = rec.journal_json();
        assert_eq!(json.get("recorded").unwrap().as_f64(), Some(3.0));
        let first = &json.get("requests").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("trace_id").unwrap().as_str(), Some("t-2"));
        assert_eq!(first.get("endpoint").unwrap().as_str(), Some("estimate"));
        assert_eq!(
            first
                .get("phases")
                .unwrap()
                .get("evaluate")
                .unwrap()
                .as_f64(),
            Some(102.0)
        );
    }

    #[test]
    fn ring_wrap_keeps_only_capacity_but_counts_everything() {
        let rec = SpanRecorder::with_capacity(4);
        for i in 0..10u64 {
            rec.record(&format!("t-{i}"), 0, 200, &spans_with(Phase::Parse, 1));
        }
        assert_eq!(rec.recorded(), 10, "count survives the wrap");
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].trace, "t-9");
        assert_eq!(entries[3].trace, "t-6");
    }

    #[test]
    fn concurrent_recording_never_loses_the_count() {
        // The satellite contract: a tiny ring hammered from many
        // threads wraps constantly, yet the recorded total is exact
        // and every readable entry is internally consistent.
        let rec = Arc::new(SpanRecorder::with_capacity(4));
        let threads = 8;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut s = spans_with(Phase::Evaluate, i + 1);
                    s.add_us(Phase::Parse, 1);
                    rec.record(&format!("t-{t}-{i}"), 1, 200, &s);
                }
            }));
        }
        // Concurrent readers must never see torn garbage.
        let reader = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while rec.recorded() < threads as u64 * per_thread {
                    for e in rec.entries() {
                        assert!(e.trace.starts_with("t-"), "torn trace: {:?}", e.trace);
                        assert_eq!(e.status, 200);
                        seen += 1;
                    }
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(rec.recorded(), threads as u64 * per_thread);
        // Every surviving slot is stable and well-formed.
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        for e in &entries {
            assert!(e.trace.starts_with("t-"));
            assert_eq!(e.phase_us[Phase::Parse as usize], 1);
        }
    }

    #[test]
    fn long_traces_truncate_instead_of_overflowing() {
        let rec = SpanRecorder::with_capacity(2);
        let long = "x".repeat(100);
        rec.record(&long, 0, 200, &SpanSet::start());
        let entries = rec.entries();
        assert_eq!(entries[0].trace.len(), MAX_TRACE_LEN);
        assert!(long.starts_with(&entries[0].trace));
    }

    #[test]
    fn span_set_marks_accumulate_by_phase() {
        let mut s = SpanSet::start();
        s.mark(Phase::Parse);
        s.add_us(Phase::Compile, 250);
        s.resync();
        s.mark(Phase::Evaluate);
        assert_eq!(s.phase_us(Phase::Compile), 250);
        assert!(s.total_us() >= s.phase_us(Phase::Parse));
        let hist = {
            let rec = SpanRecorder::with_capacity(2);
            rec.record("t", 1, 200, &s);
            rec.phases_json()
        };
        assert_eq!(
            hist.get("compile")
                .unwrap()
                .get("observations")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn concurrent_rows_are_never_torn_across_requests() {
        // Eight writers share a 4-slot ring, so slots wrap constantly
        // under concurrent writes. Each row's trace encodes its own
        // `Evaluate` value: a row whose trace and phases come from two
        // different requests is torn.
        let rec = Arc::new(SpanRecorder::with_capacity(4));
        let threads = 8u64;
        let per_thread = 20_000u64;
        let start = Arc::new(std::sync::Barrier::new(threads as usize + 1));
        let writers: Vec<_> = (0..threads)
            .map(|t| {
                let rec = Arc::clone(&rec);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        let v = t * per_thread + i + 1;
                        rec.record(
                            &format!("{v:0>32}"),
                            1,
                            200,
                            &spans_with(Phase::Evaluate, v),
                        );
                    }
                })
            })
            .collect();
        let reader = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                start.wait();
                let mut torn = Vec::new();
                while rec.recorded() < threads * per_thread {
                    for e in rec.entries() {
                        let evaluate = e.phase_us[Phase::Evaluate as usize];
                        if e.trace.parse::<u64>().ok() != Some(evaluate) {
                            torn.push((e.trace, evaluate));
                        }
                    }
                }
                torn
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let torn = reader.join().unwrap();
        assert!(
            torn.is_empty(),
            "{} torn rows, e.g. {:?}",
            torn.len(),
            torn.first()
        );
    }
}

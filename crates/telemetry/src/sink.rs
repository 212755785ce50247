//! The sink the runtimes record into, and the snapshots read out of it.

use crate::counters::{Counter, MetricsCore, COUNTERS};
use crate::events::{Event, EventLog};
use crate::json::JsonObject;
use crate::profiler::Profiler;
use stats_trace::{Category, Cycles, CATEGORIES};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-[`Category`] span accounting recorded by the simulated runtime at
/// task-graph lowering time; reconciles 1:1 against the post-mortem
/// trace (one span per task, identical cycles).
#[derive(Debug, Default)]
struct CategoryCounters {
    spans: [AtomicU64; CATEGORIES.len()],
    cycles: [AtomicU64; CATEGORIES.len()],
}

fn category_index(category: Category) -> usize {
    CATEGORIES
        .iter()
        .position(|c| *c == category)
        .expect("category listed in CATEGORIES")
}

/// One category's aggregate in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategorySnapshot {
    /// The trace category.
    pub category: Category,
    /// Number of spans recorded.
    pub spans: u64,
    /// Total cycles recorded.
    pub cycles: u64,
}

/// The telemetry handle: lock-free counters, a queue-depth gauge, span
/// accounting, and an optional JSONL event log.
///
/// A `&TelemetrySink` is `Sync` and is shared by reference across worker
/// threads; recording is wait-free on the counter path.
#[derive(Debug)]
pub struct TelemetrySink {
    metrics: MetricsCore,
    categories: CategoryCounters,
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    events: Option<EventLog>,
    profiler: Option<Profiler>,
}

impl TelemetrySink {
    /// A sink sized for `workers` concurrent recorders (one counter
    /// shard each), with no event log.
    pub fn new(workers: usize) -> Self {
        TelemetrySink {
            metrics: MetricsCore::new(workers),
            categories: CategoryCounters::default(),
            queue_depth: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            events: None,
            profiler: None,
        }
    }

    /// Attach a JSONL event log writing to `writer`.
    #[must_use]
    pub fn with_event_writer(mut self, writer: Box<dyn Write + Send>) -> Self {
        self.events = Some(EventLog::new(writer));
        self
    }

    /// Attach a wall-clock span profiler. Runtimes that see a profiler
    /// on their sink record spans into it; without one the span hooks
    /// are a single `Option` check (the counters-only path is
    /// unchanged).
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// The attached profiler, if any.
    #[inline]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Number of counter shards.
    pub fn workers(&self) -> usize {
        self.metrics.workers()
    }

    /// Record `n` occurrences of `counter` for `worker` (lock-free).
    #[inline]
    pub fn add(&self, worker: usize, counter: Counter, n: u64) {
        self.metrics.add(worker, counter, n);
    }

    /// Record one occurrence of `counter` for `worker` (lock-free).
    #[inline]
    pub fn incr(&self, worker: usize, counter: Counter) {
        self.metrics.add(worker, counter, 1);
    }

    /// A work item entered the coordinator's validation queue; updates
    /// the depth gauge and its high-water mark.
    #[inline]
    pub fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// A work item left the validation queue.
    #[inline]
    pub fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one trace span of `category` lasting `cycles`.
    #[inline]
    pub fn record_span(&self, category: Category, cycles: Cycles) {
        let i = category_index(category);
        self.categories.spans[i].fetch_add(1, Ordering::Relaxed);
        self.categories.cycles[i].fetch_add(cycles.get(), Ordering::Relaxed);
    }

    /// Emit a structured event if an event log is attached (no-op
    /// otherwise, so instrumented code needs no conditionals).
    pub fn event(&self, event: &Event) {
        if let Some(log) = &self.events {
            log.emit(event);
        }
    }

    /// Flush the event log, if any.
    pub fn flush(&self) {
        if let Some(log) = &self.events {
            log.flush();
        }
    }

    /// Aggregate all counters into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let (per_worker, consistent) = self.metrics.read_consistent();
        let mut totals = [0u64; COUNTERS.len()];
        for row in &per_worker {
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
        }
        let categories = CATEGORIES
            .iter()
            .map(|&category| {
                let i = category_index(category);
                CategorySnapshot {
                    category,
                    spans: self.categories.spans[i].load(Ordering::Relaxed),
                    cycles: self.categories.cycles[i].load(Ordering::Relaxed),
                }
            })
            .filter(|c| c.spans > 0 || c.cycles > 0)
            .collect();
        Snapshot {
            totals,
            per_worker,
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            categories,
            consistent,
            events_emitted: self.events.as_ref().map_or(0, EventLog::emitted),
            events_dropped: self.events.as_ref().map_or(0, EventLog::dropped),
        }
    }
}

/// A point-in-time aggregate of a [`TelemetrySink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    totals: [u64; COUNTERS.len()],
    per_worker: Vec<[u64; COUNTERS.len()]>,
    /// Highest validation-queue depth observed.
    pub queue_high_water: u64,
    /// Per-category span accounting (categories with activity only).
    pub categories: Vec<CategorySnapshot>,
    /// Whether the double-read converged (always true once quiesced).
    pub consistent: bool,
    /// Event-log lines written.
    pub events_emitted: u64,
    /// Event-log lines lost to I/O errors.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Total of `counter` across all workers.
    pub fn get(&self, counter: Counter) -> u64 {
        self.totals[COUNTERS
            .iter()
            .position(|c| *c == counter)
            .expect("counter listed in COUNTERS")]
    }

    /// `counter` for one worker shard.
    pub fn worker(&self, worker: usize, counter: Counter) -> u64 {
        self.per_worker[worker][COUNTERS
            .iter()
            .position(|c| *c == counter)
            .expect("counter listed in COUNTERS")]
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Span count recorded for `category` (0 when inactive).
    pub fn category_spans(&self, category: Category) -> u64 {
        self.categories
            .iter()
            .find(|c| c.category == category)
            .map_or(0, |c| c.spans)
    }

    /// Cycle total recorded for `category` (0 when inactive).
    pub fn category_cycles(&self, category: Category) -> u64 {
        self.categories
            .iter()
            .find(|c| c.category == category)
            .map_or(0, |c| c.cycles)
    }

    /// Commit rate over speculative chunks; 1.0 when nothing speculated.
    pub fn commit_rate(&self) -> f64 {
        let committed = self.get(Counter::ChunksCommitted);
        let aborted = self.get(Counter::ChunksAborted);
        if committed + aborted == 0 {
            return 1.0;
        }
        committed as f64 / (committed + aborted) as f64
    }

    /// Serialize the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (counter, total) in COUNTERS.iter().zip(&self.totals) {
            o.u64(counter.name(), *total);
        }
        o.u64("queue_high_water", self.queue_high_water)
            .f64("commit_rate", self.commit_rate())
            .bool("consistent", self.consistent)
            .u64("events_emitted", self.events_emitted)
            .u64("events_dropped", self.events_dropped);
        if !self.categories.is_empty() {
            let mut cats = String::from("{");
            for (i, c) in self.categories.iter().enumerate() {
                if i > 0 {
                    cats.push(',');
                }
                cats.push_str(&format!(
                    "\"{}\":{{\"spans\":{},\"cycles\":{}}}",
                    c.category.name(),
                    c.spans,
                    c.cycles
                ));
            }
            cats.push('}');
            o.raw("categories", &cats);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn counters_aggregate_across_workers() {
        let sink = TelemetrySink::new(4);
        sink.incr(0, Counter::ChunksStarted);
        sink.incr(1, Counter::ChunksStarted);
        sink.incr(1, Counter::ChunksCommitted);
        sink.add(2, Counter::StateCopies, 5);
        let s = sink.snapshot();
        assert_eq!(s.get(Counter::ChunksStarted), 2);
        assert_eq!(s.worker(1, Counter::ChunksStarted), 1);
        assert_eq!(s.get(Counter::StateCopies), 5);
        assert_eq!(s.workers(), 4);
        assert!(s.consistent);
    }

    #[test]
    fn queue_gauge_tracks_high_water() {
        let sink = TelemetrySink::new(1);
        sink.queue_enter();
        sink.queue_enter();
        sink.queue_enter();
        sink.queue_leave();
        sink.queue_enter();
        let s = sink.snapshot();
        assert_eq!(s.queue_high_water, 3);
    }

    #[test]
    fn category_accounting_round_trips() {
        let sink = TelemetrySink::new(1);
        sink.record_span(Category::Sync, Cycles(10));
        sink.record_span(Category::Sync, Cycles(5));
        sink.record_span(Category::ChunkCompute, Cycles(100));
        let s = sink.snapshot();
        assert_eq!(s.category_spans(Category::Sync), 2);
        assert_eq!(s.category_cycles(Category::Sync), 15);
        assert_eq!(s.category_spans(Category::ChunkCompute), 1);
        assert_eq!(s.category_spans(Category::Setup), 0);
        // Inactive categories are omitted from the snapshot listing.
        assert!(s.categories.iter().all(|c| c.spans > 0 || c.cycles > 0));
    }

    #[test]
    fn commit_rate_definition() {
        let sink = TelemetrySink::new(1);
        assert_eq!(sink.snapshot().commit_rate(), 1.0);
        sink.add(0, Counter::ChunksCommitted, 3);
        sink.add(0, Counter::ChunksAborted, 1);
        assert!((sink.snapshot().commit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_valid_and_complete() {
        let buf = SharedBuf::default();
        let sink = TelemetrySink::new(2).with_event_writer(Box::new(buf.clone()));
        sink.incr(0, Counter::ChunksStarted);
        sink.record_span(Category::Setup, Cycles(42));
        sink.event(&Event::ChunkStarted { chunk: 0, len: 10 });
        sink.queue_enter();
        let s = sink.snapshot();
        let json = s.to_json();
        validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"chunks_started\":1"));
        assert!(json.contains("\"queue_high_water\":1"));
        assert!(json.contains("\"setup\":{\"spans\":1,\"cycles\":42}"));
        assert!(json.contains("\"events_emitted\":1"));
    }

    #[test]
    fn events_are_optional() {
        let sink = TelemetrySink::new(1);
        // No-op, must not panic.
        sink.event(&Event::ChunkCommitted { chunk: 0 });
        sink.flush();
        assert_eq!(sink.snapshot().events_emitted, 0);
    }
}

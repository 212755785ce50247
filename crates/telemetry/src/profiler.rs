//! Wall-clock span capture and causal attribution for the pooled runtime.
//!
//! The simulator attributes speedup loss in *virtual* time
//! (`stats-bench`'s `attribution` module); this module does the same job
//! for the real threaded runtime in *wall-clock* time, TASKPROF-style:
//!
//! 1. **Capture** — [`Profiler`] holds one bounded record ring per pool
//!    worker plus one for the coordinator, cache-line-sharded so
//!    recording is a cursor `fetch_add` and three relaxed stores. Spans
//!    are `{category, chunk, t_start, t_end}` stamped via
//!    [`crate::clock::monotonic_ns`], the single sanctioned wall-clock
//!    read. When a ring fills, further records are dropped and counted —
//!    never blocked on.
//! 2. **Assemble** — after the run quiesces,
//!    [`WallProfile::assemble_with_breadth`] drains the rings, sorts
//!    spans, and relabels the speculative compute of aborted chunks —
//!    and the replica replays a losing candidate 0 made for the boundary
//!    it sealed — to [`Category::AbortedCompute`] using the run's
//!    decision vector and span order (the capture path stays
//!    decision-blind).
//! 3. **Attribute** — [`WallProfile::attribute`] replays the captured
//!    span graph through a small discrete-event model of the pool
//!    (normal lane for chunk tasks and the replicas they replay, urgent
//!    lane for re-derived replicas and reruns, ordered commits) and
//!    answers the paper's §V-B what-if questions by re-scheduling with
//!    a category's measured durations zeroed. Waits
//!    are *derived* by the re-scheduler, not taken from measured blocked
//!    time — measured waits on an oversubscribed host mostly reflect
//!    time-slicing, while measured *work* durations inflate roughly
//!    uniformly, preserving the category ordering the paper cares
//!    about. Losses land in the six coarse groups of §V-B
//!    ([`WallLoss`]): imbalance, extra computation, synchronization,
//!    sequential, mispeculation, and an unreachability residual.
//!
//! Timestamps never feed protocol decisions; with profiling enabled the
//! runtime's decisions and outputs are bit-identical (asserted by
//! `tests/native_attribution.rs`).

use crate::json::JsonObject;
use crate::sketch::QuantileSketch;
use stats_trace::{Category, Cycles, ThreadId, Trace, TraceBuilder, TraceError, CATEGORIES};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default per-shard record capacity. A chunk contributes a handful of
/// spans (warmup, copy, compute, replicas, compare), so this covers
/// plans of several thousand chunks per worker before dropping.
pub const DEFAULT_SHARD_CAPACITY: usize = 1 << 14;

// ---------------------------------------------------------------------------
// Worker registration
// ---------------------------------------------------------------------------

const UNREGISTERED: u32 = u32::MAX;

// stats-analyzer: allow(ND004): profiling shard label for the current pool thread; read only to pick a ring buffer, never by protocol logic.
thread_local! {
    // stats-analyzer: allow(ND004): observation-only shard label, see above.
    static WORKER_INDEX: Cell<u32> = const { Cell::new(UNREGISTERED) };
}

/// Tag the calling thread as pool worker `index` so its profiler
/// records land in that worker's shard. Called by the pool's worker
/// loop at thread start; unregistered threads (the coordinator) record
/// into the dedicated coordinator shard.
pub fn register_worker(index: usize) {
    WORKER_INDEX.with(|w| w.set(index.min(UNREGISTERED as usize - 1) as u32));
}

/// The pool-worker index of the calling thread, if registered.
pub fn registered_worker() -> Option<usize> {
    WORKER_INDEX.with(|w| {
        let i = w.get();
        (i != UNREGISTERED).then_some(i as usize)
    })
}

// ---------------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------------

/// One captured wall-clock span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSpan {
    /// What the thread was doing.
    pub category: Category,
    /// The chunk (or boundary) the work belongs to.
    pub chunk: u32,
    /// Recording shard: `0..workers` are pool workers, `workers` is the
    /// coordinator.
    pub worker: u32,
    /// Start, nanoseconds since the profiling epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the profiling epoch.
    pub end_ns: u64,
}

impl WallSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shard header on its own cache line so cursor bumps on one worker
/// never false-share with another worker's.
#[repr(align(64))]
#[derive(Debug)]
struct ShardHeader {
    cursor: AtomicU64,
    dropped: AtomicU64,
}

#[derive(Debug)]
struct Slot {
    /// Packed `(category_index + 1) | worker << 8 | chunk << 24`;
    /// zero means "not yet published".
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

#[derive(Debug)]
struct Shard {
    header: ShardHeader,
    slots: Box<[Slot]>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                meta: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
            })
            .collect();
        Shard {
            header: ShardHeader {
                cursor: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            },
            slots,
        }
    }
}

fn category_index(category: Category) -> usize {
    CATEGORIES
        .iter()
        .position(|c| *c == category)
        .expect("category listed in CATEGORIES")
}

/// Low-overhead wall-clock span recorder: one bounded ring per pool
/// worker plus a coordinator shard. `&Profiler` is shared across the
/// pool; recording is wait-free and drops (with a count) on overflow.
#[derive(Debug)]
pub struct Profiler {
    shards: Vec<Shard>,
    workers: usize,
}

impl Profiler {
    /// A profiler for a pool of `workers` threads (plus the
    /// coordinator) with the default per-shard capacity.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_SHARD_CAPACITY)
    }

    /// As [`Profiler::new`] with an explicit per-shard record capacity.
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        Profiler {
            shards: (0..=workers).map(|_| Shard::new(capacity.max(1))).collect(),
            workers,
        }
    }

    /// Pool width this profiler was sized for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Record one span. The shard is picked from the calling thread's
    /// registration ([`register_worker`]); unregistered callers (the
    /// coordinator) use the dedicated last shard.
    #[inline]
    pub fn record(&self, category: Category, chunk: usize, start_ns: u64, end_ns: u64) {
        let shard_idx = match registered_worker() {
            Some(i) if i < self.workers => i,
            _ => self.workers,
        };
        let shard = &self.shards[shard_idx];
        let slot_idx = shard.header.cursor.fetch_add(1, Ordering::Relaxed);
        if slot_idx as usize >= shard.slots.len() {
            shard.header.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let meta = (category_index(category) as u64 + 1)
            | ((shard_idx as u64 & 0xFFFF) << 8)
            | ((chunk as u64) << 24);
        let slot = &shard.slots[slot_idx as usize];
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Release);
    }

    /// Records dropped to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.header.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drain all published records (sorted by start time) and reset the
    /// rings for reuse. Call only after the run has quiesced — i.e.
    /// after the pool scope has joined — so every writer is done.
    pub fn take_spans(&self) -> (Vec<WallSpan>, u64) {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let reserved = shard.header.cursor.swap(0, Ordering::Relaxed) as usize;
            dropped += shard.header.dropped.swap(0, Ordering::Relaxed);
            for slot in shard.slots.iter().take(reserved.min(shard.slots.len())) {
                let meta = slot.meta.swap(0, Ordering::Acquire);
                if meta == 0 {
                    continue; // reserved but never published
                }
                let cat = CATEGORIES[((meta & 0xFF) - 1) as usize];
                spans.push(WallSpan {
                    category: cat,
                    chunk: (meta >> 24) as u32,
                    worker: ((meta >> 8) & 0xFFFF) as u32,
                    start_ns: slot.start.load(Ordering::Relaxed),
                    end_ns: slot.end.load(Ordering::Relaxed),
                });
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.worker, s.end_ns));
        (spans, dropped)
    }
}

// ---------------------------------------------------------------------------
// Assembled profile
// ---------------------------------------------------------------------------

/// The six coarse loss groups of the paper's §V-B, in presentation
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WallLoss {
    /// Uneven chunk durations leaving workers idle.
    Imbalance,
    /// Work the serial program never does: alternative producers,
    /// replica generation, state comparison, state copies, setup.
    ExtraComputation,
    /// Coordination cost per commit (channel/condvar handoffs).
    Synchronization,
    /// Serial time outside the parallelized region.
    Sequential,
    /// Aborted speculation plus serialized reruns.
    Mispeculation,
    /// Residual between the ideal and what any what-if recovers.
    Unreachability,
}

/// All six groups in presentation order.
pub const WALL_LOSSES: [WallLoss; 6] = [
    WallLoss::Imbalance,
    WallLoss::ExtraComputation,
    WallLoss::Synchronization,
    WallLoss::Sequential,
    WallLoss::Mispeculation,
    WallLoss::Unreachability,
];

impl WallLoss {
    /// Stable lower-case name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            WallLoss::Imbalance => "imbalance",
            WallLoss::ExtraComputation => "extra_computation",
            WallLoss::Synchronization => "synchronization",
            WallLoss::Sequential => "sequential",
            WallLoss::Mispeculation => "mispeculation",
            WallLoss::Unreachability => "unreachability",
        }
    }
}

/// What-if projections answered by re-scheduling the span graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfs {
    /// Projected speedup if synchronization were free.
    pub sync_free: f64,
    /// Projected speedup if state copies were free.
    pub copies_free: f64,
    /// Projected speedup with twice the workers.
    pub double_workers: f64,
    /// Projected speedup if every speculation had committed (no aborted
    /// attempts, no reruns). Breadth candidates that lost the commit
    /// check are kept — hedging is a deliberate cost, not
    /// mispeculation — so this stays a valid ceiling for breadth runs.
    pub mispeculation_free: f64,
}

/// The result of attributing one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct WallAttribution {
    /// Pool width of the profiled run.
    pub workers: usize,
    /// Chunks in the plan.
    pub chunks: usize,
    /// Committed / speculative chunks.
    pub commit_rate: f64,
    /// Ideal speedup: `min(workers, chunks)`.
    pub ideal: f64,
    /// Speedup of the re-scheduled baseline (host-independent).
    pub projected: f64,
    /// Measured speedup: serial estimate / measured wall time. On an
    /// oversubscribed host this is bounded by real cores and diverges
    /// from `projected`; both are reported.
    pub measured: f64,
    /// Marginal speedup recovered by zeroing each group (the paper's
    /// "% speedup lost" numerators), in [`WALL_LOSSES`] order.
    pub losses: Vec<(WallLoss, f64)>,
    /// Extra-computation sub-categories (alt producer, replica gen,
    /// comparison, copies, setup) and their marginals.
    pub extra_breakdown: Vec<(Category, f64)>,
    /// What-if projections.
    pub whatifs: WhatIfs,
    /// Serial-time estimate in nanoseconds (committed compute + reruns).
    pub serial_ns: u64,
    /// Measured wall-clock time of the profiled run.
    pub elapsed_ns: u64,
    /// Records lost to ring overflow (0 in healthy runs).
    pub dropped: u64,
}

impl WallAttribution {
    /// Marginal for one loss group.
    pub fn loss(&self, loss: WallLoss) -> f64 {
        self.losses
            .iter()
            .find(|(l, _)| *l == loss)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The loss group with the largest marginal.
    pub fn dominant(&self) -> WallLoss {
        self.losses
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(WallLoss::Unreachability, |(l, _)| l)
    }

    /// Serialize as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("workers", self.workers as u64)
            .u64("chunks", self.chunks as u64)
            .f64("commit_rate", self.commit_rate)
            .f64("ideal", self.ideal)
            .f64("projected", self.projected)
            .f64("measured", self.measured)
            .u64("serial_ns", self.serial_ns)
            .u64("elapsed_ns", self.elapsed_ns)
            .u64("dropped", self.dropped);
        let mut losses = String::from("{");
        for (i, (l, v)) in self.losses.iter().enumerate() {
            if i > 0 {
                losses.push(',');
            }
            losses.push_str(&format!("\"{}\":{:.6}", l.name(), v));
        }
        losses.push('}');
        o.raw("losses", &losses);
        let mut extra = String::from("{");
        for (i, (c, v)) in self.extra_breakdown.iter().enumerate() {
            if i > 0 {
                extra.push(',');
            }
            extra.push_str(&format!("\"{}\":{:.6}", c.name(), v));
        }
        extra.push('}');
        o.raw("extra_breakdown", &extra);
        o.raw(
            "whatifs",
            &format!(
                "{{\"sync_free\":{:.6},\"copies_free\":{:.6},\"double_workers\":{:.6},\"mispeculation_free\":{:.6}}}",
                self.whatifs.sync_free,
                self.whatifs.copies_free,
                self.whatifs.double_workers,
                self.whatifs.mispeculation_free
            ),
        );
        o.finish()
    }
}

/// A run's captured spans plus the run facts needed to interpret them.
#[derive(Debug, Clone)]
pub struct WallProfile {
    /// Pool width.
    pub workers: usize,
    /// All captured spans, sorted by start time. Speculative compute of
    /// aborted chunks is relabeled [`Category::AbortedCompute`].
    pub spans: Vec<WallSpan>,
    /// Per-chunk abort flags from the run's decision vector.
    pub aborted: Vec<bool>,
    /// Measured wall-clock duration of the run.
    pub elapsed_ns: u64,
    /// Records lost to ring overflow.
    pub dropped: u64,
}

/// Per chunk label `c`: when the commit check of chunk `c - 1` started
/// (`u64::MAX` without one — chunk 0 is final unchecked). That check
/// splits the `OriginalStateGen` spans labelled `c`: those before it were
/// replayed inside chunk `c - 1`'s candidate-0 task, those after it were
/// re-derived on the urgent lane once that chunk's outcome was final.
fn seal_checks(spans: &[WallSpan], chunks: usize) -> Vec<u64> {
    let mut checks = vec![u64::MAX; chunks];
    for s in spans {
        if s.category == Category::StateComparison {
            if let Some(at) = checks.get_mut(s.chunk as usize + 1) {
                *at = s.start_ns;
            }
        }
    }
    checks
}

/// For a replica replay, whether it ran before the commit check of
/// [`seal_checks`] (`Some(true)`) or after it; `None` for any other span.
fn replayed_early(s: &WallSpan, sealed: &[u64]) -> Option<bool> {
    let check = *sealed.get(s.chunk as usize)?;
    (s.category == Category::OriginalStateGen).then_some(s.start_ns < check)
}

impl WallProfile {
    /// Drain `profiler` and assemble a profile for a run at speculation
    /// breadth `breadth` that made the given per-chunk abort decisions
    /// and took `elapsed_ns` of wall time. Each speculative chunk ran
    /// `breadth` candidate attempts, every one recording a `ChunkCompute`
    /// span. In start order: a committed chunk keeps its first compute
    /// span as the realized run and relabels the rest `AbortedCompute`
    /// (losing candidates — dead work, but not serial work); an aborted
    /// chunk relabels its first `breadth` spans (all attempts lost) and
    /// keeps the remainder — the rerun, possibly in several pool
    /// segments.
    ///
    /// Replica replays die with the attempt that made them. Candidate 0
    /// of chunk `c` replays the replicas validating chunk `c + 1` (spans
    /// labelled `c + 1`) before chunk `c` is validated; when it loses —
    /// an abort, or a higher candidate winning — they are discarded and
    /// replayed again after that validation. So wherever a label has
    /// `OriginalStateGen` spans on both sides of the previous chunk's
    /// `StateComparison` span, the early ones become `AbortedCompute` of
    /// chunk `c`, whose attempt made them.
    pub fn assemble_with_breadth(
        profiler: &Profiler,
        aborted: Vec<bool>,
        breadth: usize,
        elapsed_ns: u64,
    ) -> Self {
        let (mut spans, dropped) = profiler.take_spans();
        let breadth = breadth.max(1);
        for (chunk, &was_aborted) in aborted.iter().enumerate() {
            for (seen, s) in spans
                .iter_mut()
                .filter(|s| s.category == Category::ChunkCompute && s.chunk as usize == chunk)
                .enumerate()
            {
                let relabel = if was_aborted {
                    seen < breadth
                } else {
                    seen > 0
                };
                if relabel {
                    s.category = Category::AbortedCompute;
                }
            }
        }
        let sealed = seal_checks(&spans, aborted.len());
        let mut replayed_again = vec![false; aborted.len()];
        for s in &spans {
            if replayed_early(s, &sealed) == Some(false) {
                replayed_again[s.chunk as usize] = true;
            }
        }
        for s in &mut spans {
            if replayed_early(s, &sealed) == Some(true) && replayed_again[s.chunk as usize] {
                s.category = Category::AbortedCompute;
                s.chunk -= 1;
            }
        }
        WallProfile {
            workers: profiler.workers(),
            spans,
            aborted,
            elapsed_ns,
            dropped,
        }
    }

    /// Total nanoseconds recorded for `category`.
    pub fn category_ns(&self, category: Category) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.category == category)
            .map(WallSpan::duration_ns)
            .sum()
    }

    /// Span-duration distribution per active category.
    pub fn category_sketches(&self) -> BTreeMap<Category, QuantileSketch> {
        let mut out: BTreeMap<Category, QuantileSketch> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.category).or_default().insert(s.duration_ns());
        }
        out
    }

    /// Human-readable thread names, `(thread index, name)`, matching
    /// the `worker` field of spans and [`WallProfile::to_trace`].
    pub fn thread_names(&self) -> Vec<(usize, String)> {
        let mut names: Vec<(usize, String)> = (0..self.workers)
            .map(|i| (i, format!("stats-pool-{i}")))
            .collect();
        names.push((self.workers, "coordinator".to_string()));
        names
    }

    /// Convert to a `stats-trace` [`Trace`] (1 cycle = 1 ns) so the
    /// existing timeline/chrome/folded renderers apply to native runs.
    /// Spans recorded by one thread never overlap (each thread records
    /// serially on a monotonic clock), which satisfies the builder's
    /// validation; zero-length spans are kept.
    pub fn to_trace(&self, scenario: &str) -> Result<Trace, TraceError> {
        let mut b = TraceBuilder::new(scenario);
        b.cores(self.workers + 1);
        b.sequential_cycles(Cycles(self.serial_estimate_ns()));
        for s in &self.spans {
            b.push_labeled(
                ThreadId(s.worker as usize),
                s.category,
                Cycles(s.start_ns),
                Cycles(s.end_ns),
                0,
                format!("chunk {}", s.chunk),
            );
        }
        b.finish()
    }

    /// Serial-time estimate: the compute the serial program performs —
    /// committed chunks' speculative compute plus aborted chunks'
    /// reruns, plus any outside-region time.
    pub fn serial_estimate_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| matches!(s.category, Category::ChunkCompute | Category::OutsideRegion))
            .map(WallSpan::duration_ns)
            .sum()
    }

    /// Attribute this run's speedup loss to the six groups and compute
    /// the what-if projections. See the module docs for the algorithm.
    pub fn attribute(&self) -> WallAttribution {
        let model = DesModel::from_profile(self);
        let serial = self.serial_estimate_ns().max(1) as f64;
        let chunks = self.aborted.len().max(1);
        let ideal = self.workers.min(chunks) as f64;
        let s = |makespan: f64| serial / makespan.max(1.0);

        let base = s(model.makespan(&Scenario::default()));
        let marg = |sc: Scenario| (s(model.makespan(&sc)) - base).max(0.0);

        let imbalance = marg(Scenario {
            equalize_compute: true,
            ..Scenario::default()
        });
        let extra_breakdown = vec![
            (
                Category::AltProducer,
                marg(Scenario {
                    zero_warmup: true,
                    ..Scenario::default()
                }),
            ),
            (
                Category::OriginalStateGen,
                marg(Scenario {
                    zero_replicas: true,
                    ..Scenario::default()
                }),
            ),
            (
                Category::StateComparison,
                marg(Scenario {
                    zero_compare: true,
                    ..Scenario::default()
                }),
            ),
            (
                Category::StateCopy,
                marg(Scenario {
                    zero_copies: true,
                    ..Scenario::default()
                }),
            ),
            (
                Category::Setup,
                marg(Scenario {
                    zero_setup: true,
                    ..Scenario::default()
                }),
            ),
        ];
        let extra: f64 = extra_breakdown.iter().map(|(_, v)| v).sum();
        let sync = marg(Scenario {
            zero_sync: true,
            ..Scenario::default()
        });
        // The native run covers only the parallelized region, so the
        // sequential (outside-region) loss is structurally zero here;
        // the field exists so the six-group shape matches §V-B.
        let sequential = 0.0;
        let mispeculation = marg(Scenario {
            assume_all_commit: true,
            ..Scenario::default()
        });

        let explained = imbalance + extra + sync + sequential + mispeculation;
        let unreachability = (ideal - base - explained).max(0.0);

        let committed = self.aborted.iter().filter(|a| !**a).count();
        let commit_rate = committed as f64 / chunks as f64;

        // A causal what-if only removes work (or adds capacity), so it
        // must never project a slowdown; greedy list scheduling can
        // still lengthen the re-scheduled makespan (Graham's anomaly),
        // which is a scheduler artifact, not a causal prediction — keep
        // the baseline in that case.
        let whatifs = WhatIfs {
            sync_free: s(model.makespan(&Scenario {
                zero_sync: true,
                ..Scenario::default()
            }))
            .max(base),
            copies_free: s(model.makespan(&Scenario {
                zero_copies: true,
                ..Scenario::default()
            }))
            .max(base),
            double_workers: s(model.makespan(&Scenario {
                worker_factor: 2,
                ..Scenario::default()
            }))
            .max(base),
            mispeculation_free: s(model.makespan(&Scenario {
                assume_all_commit: true,
                ..Scenario::default()
            }))
            .max(base),
        };

        WallAttribution {
            workers: self.workers,
            chunks,
            commit_rate,
            ideal,
            projected: base,
            measured: serial / self.elapsed_ns.max(1) as f64,
            losses: vec![
                (WallLoss::Imbalance, imbalance),
                (WallLoss::ExtraComputation, extra),
                (WallLoss::Synchronization, sync),
                (WallLoss::Sequential, sequential),
                (WallLoss::Mispeculation, mispeculation),
                (WallLoss::Unreachability, unreachability),
            ],
            extra_breakdown,
            whatifs,
            serial_ns: serial as u64,
            elapsed_ns: self.elapsed_ns,
            dropped: self.dropped,
        }
    }
}

// ---------------------------------------------------------------------------
// The re-scheduler: a discrete-event model of the pooled executor
// ---------------------------------------------------------------------------

/// Measured per-chunk durations extracted from a profile, in the shape
/// the pooled executor schedules them: one normal-lane task per chunk
/// (warmup + speculative copy + compute + the replay of its boundary's
/// replicas), urgent-lane replica tasks for a boundary that had to be
/// replayed again, coordinator-side comparison per seal, urgent reruns
/// on abort.
#[derive(Debug, Clone)]
struct DesModel {
    workers: usize,
    setup: f64,
    warmup: Vec<f64>,
    spec_copy: Vec<f64>,
    compute: Vec<f64>,
    rerun: Vec<f64>,
    compare: Vec<f64>,
    coord_copy: Vec<f64>,
    /// Per chunk: the replicas its own task replayed for the boundary it
    /// sealed, serial after its compute.
    replay_tail: Vec<f64>,
    /// Per chunk: the replicas validating it that were re-derived as
    /// urgent tasks after the previous chunk's outcome was final.
    replicas: Vec<Vec<f64>>,
    /// Per-chunk compute durations of breadth candidates that lost the
    /// commit check (and, on aborts, of every failed attempt). They run
    /// as ordinary pool tasks the commit check waits on, and — unlike
    /// reruns — survive `assume_all_commit`: hedging is a deliberate
    /// cost, not mispeculation.
    dead_candidates: Vec<Vec<f64>>,
    aborted: Vec<bool>,
    /// Per-seal coordination cost: the *minimum* observed sync span, a
    /// robust estimate of the uncontended handoff cost (measured blocked
    /// time is dominated by waiting, which the scheduler derives
    /// itself).
    sync_per_seal: f64,
}

/// Knobs for one what-if re-schedule. Default = the measured baseline.
#[derive(Debug, Clone, Default)]
struct Scenario {
    equalize_compute: bool,
    zero_warmup: bool,
    zero_replicas: bool,
    zero_compare: bool,
    zero_copies: bool,
    zero_setup: bool,
    zero_sync: bool,
    assume_all_commit: bool,
    worker_factor: usize,
}

impl DesModel {
    fn from_profile(profile: &WallProfile) -> Self {
        let chunks = profile.aborted.len().max(1);
        let coord = profile.workers as u32;
        let mut m = DesModel {
            workers: profile.workers,
            setup: 0.0,
            warmup: vec![0.0; chunks],
            spec_copy: vec![0.0; chunks],
            compute: vec![0.0; chunks],
            rerun: vec![0.0; chunks],
            compare: vec![0.0; chunks],
            coord_copy: vec![0.0; chunks],
            replay_tail: vec![0.0; chunks],
            replicas: vec![Vec::new(); chunks],
            dead_candidates: vec![Vec::new(); chunks],
            aborted: profile.aborted.clone(),
            sync_per_seal: 0.0,
        };
        let sealed = seal_checks(&profile.spans, chunks);
        let mut min_sync = f64::INFINITY;
        for s in &profile.spans {
            let c = (s.chunk as usize).min(chunks - 1);
            let d = s.duration_ns() as f64;
            match s.category {
                Category::Setup => m.setup += d,
                Category::AltProducer => m.warmup[c] += d,
                Category::StateCopy => {
                    if s.worker == coord {
                        m.coord_copy[c] += d;
                    } else {
                        m.spec_copy[c] += d;
                    }
                }
                Category::ChunkCompute => {
                    if m.aborted[c] {
                        m.rerun[c] += d;
                    } else {
                        m.compute[c] += d;
                    }
                }
                Category::AbortedCompute => m.dead_candidates[c].push(d),
                Category::OriginalStateGen => match c.checked_sub(1) {
                    Some(sealer) if replayed_early(s, &sealed) == Some(true) => {
                        m.replay_tail[sealer] += d;
                    }
                    _ => m.replicas[c].push(d),
                },
                Category::StateComparison => m.compare[c] += d,
                Category::Sync => min_sync = min_sync.min(d),
                Category::Commit | Category::OutsideRegion => {}
            }
        }
        if min_sync.is_finite() {
            m.sync_per_seal = min_sync;
        }
        m
    }

    /// Speculative attempts chunk `c` made: its dead candidates plus the
    /// realized one when it committed.
    fn attempts(&self, c: usize) -> usize {
        let dead = self.dead_candidates[c].len();
        if self.aborted[c] {
            dead.max(1)
        } else {
            dead + 1
        }
    }

    /// Makespan of the re-scheduled run under `scenario`, in ns.
    fn makespan(&self, scenario: &Scenario) -> f64 {
        let chunks = self.aborted.len();
        let workers = self.workers * scenario.worker_factor.max(1);
        let setup = if scenario.zero_setup { 0.0 } else { self.setup };
        let mean_compute = self.compute.iter().sum::<f64>() / chunks as f64;
        // Warmup and hand-off copies accumulate over every breadth
        // candidate of a chunk; each attempt task carries its share.
        let share = |c: usize| -> f64 {
            let warmup = if scenario.zero_warmup {
                0.0
            } else {
                self.warmup[c]
            };
            let copy = if scenario.zero_copies {
                0.0
            } else {
                self.spec_copy[c]
            };
            (warmup + copy) / self.attempts(c) as f64
        };

        let mut sim = PoolSim::new(workers, setup);
        // Per chunk: the main attempt (the realized run, or the first
        // failed attempt when it aborted) plus one task per remaining
        // dead candidate. The commit check waits on all of them.
        let mut main_ids = Vec::with_capacity(chunks);
        let mut extra_ids: Vec<Vec<usize>> = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let dead = &self.dead_candidates[c];
            let (main_compute, rest) = if self.aborted[c] && !dead.is_empty() {
                (dead[0], &dead[1..])
            } else {
                let compute = if scenario.equalize_compute {
                    mean_compute
                } else {
                    self.compute[c]
                };
                (compute, &dead[..])
            };
            let replay_tail = if scenario.zero_replicas {
                0.0
            } else {
                self.replay_tail[c]
            };
            main_ids.push(sim.enqueue_normal(share(c) + main_compute + replay_tail));
            extra_ids.push(
                rest.iter()
                    .map(|&d| sim.enqueue_normal(share(c) + d))
                    .collect(),
            );
        }
        let mut seal = setup;
        for c in 0..chunks {
            // Replicas the previous chunk's task did not bring along
            // went on the urgent lane the moment that chunk sealed.
            let replica_ids: Vec<usize> = self.replicas[c]
                .iter()
                .map(|&d| {
                    let d = if scenario.zero_replicas { 0.0 } else { d };
                    sim.enqueue_urgent(seal, d)
                })
                .collect();
            let mut result = sim.pump_until(main_ids[c]);
            for &id in &extra_ids[c] {
                result = result.max(sim.pump_until(id));
            }
            let mut ready = result.max(seal);
            for id in replica_ids {
                ready = ready.max(sim.pump_until(id));
            }
            let mut validate = if scenario.zero_compare {
                0.0
            } else {
                self.compare[c]
            };
            if !scenario.zero_sync {
                validate += self.sync_per_seal;
            }
            if !scenario.zero_copies {
                validate += self.coord_copy[c];
            }
            let vend = ready + validate;
            let aborted = self.aborted[c] && !scenario.assume_all_commit;
            seal = if aborted {
                let rr = sim.enqueue_urgent(vend, self.rerun[c]);
                sim.pump_until(rr)
            } else {
                vend
            };
        }
        seal
    }
}

/// The worker pool as a schedulable resource: a normal FIFO lane (chunk
/// tasks, all ready at setup) and an urgent lane (replicas, reruns)
/// that jumps the queue, mirroring `runtime::pool`'s two-ended queue.
/// Injections must arrive in nondecreasing ready order, which the
/// commit-ordered coordinator loop guarantees.
struct PoolSim {
    free: Vec<f64>,
    normal: VecDeque<(usize, f64)>,
    urgent: VecDeque<(usize, f64, f64)>,
    finish: Vec<f64>,
    normal_ready: f64,
}

impl PoolSim {
    fn new(workers: usize, setup: f64) -> Self {
        PoolSim {
            free: vec![setup; workers.max(1)],
            normal: VecDeque::new(),
            urgent: VecDeque::new(),
            finish: Vec::new(),
            normal_ready: setup,
        }
    }

    fn enqueue_normal(&mut self, dur: f64) -> usize {
        let id = self.finish.len();
        self.finish.push(f64::NAN);
        self.normal.push_back((id, dur));
        id
    }

    fn enqueue_urgent(&mut self, ready: f64, dur: f64) -> usize {
        let id = self.finish.len();
        self.finish.push(f64::NAN);
        self.urgent.push_back((id, ready, dur));
        id
    }

    fn pump_until(&mut self, task: usize) -> f64 {
        while self.finish[task].is_nan() {
            assert!(self.step(), "task {task} was never dispatched");
        }
        self.finish[task]
    }

    /// Dispatch the next task to the earliest-free worker; returns
    /// false when both lanes are empty.
    fn step(&mut self) -> bool {
        let (w, tw) = self
            .free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, t)| (i, *t))
            .expect("pool has at least one worker");
        // A worker checking the queue at time `tw` sees urgent work
        // only if it was already enqueued by then.
        if let Some(&(id, ready, dur)) = self.urgent.front() {
            if ready <= tw || self.normal.is_empty() {
                self.urgent.pop_front();
                let start = tw.max(ready);
                self.free[w] = start + dur;
                self.finish[id] = start + dur;
                return true;
            }
        }
        if let Some((id, dur)) = self.normal.pop_front() {
            let start = tw.max(self.normal_ready);
            self.free[w] = start + dur;
            self.finish[id] = start + dur;
            return true;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Multi-seed aggregation (Touati-style mean ± confidence interval)
// ---------------------------------------------------------------------------

/// A mean with a ~95% confidence half-width over `n` samples
/// (Student-t for small n), per Touati's speedup-reporting methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the ~95% confidence interval (0 when n < 2).
    pub half_width: f64,
    /// Sample count.
    pub n: usize,
}

/// Two-sided 97.5% Student-t quantiles for 1..=10 degrees of freedom.
const T_975: [f64; 10] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
];

impl Estimate {
    /// Estimate from raw samples. Empty input yields a zero estimate.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Estimate {
                mean: 0.0,
                half_width: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Estimate {
                mean,
                half_width: 0.0,
                n,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let t = T_975.get(n - 2).copied().unwrap_or(1.96);
        Estimate {
            mean,
            half_width: t * (var / n as f64).sqrt(),
            n,
        }
    }

    /// Lower edge of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: Category, chunk: u32, worker: u32, start: u64, end: u64) -> WallSpan {
        WallSpan {
            category: cat,
            chunk,
            worker,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn record_and_drain_round_trips() {
        let p = Profiler::with_capacity(2, 16);
        p.record(Category::ChunkCompute, 3, 100, 250);
        p.record(Category::StateComparison, 3, 250, 260);
        let (spans, dropped) = p.take_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        // Unregistered thread lands in the coordinator shard.
        assert_eq!(spans[0].worker, 2);
        assert_eq!(spans[0].category, Category::ChunkCompute);
        assert_eq!(spans[0].chunk, 3);
        assert_eq!(spans[0].duration_ns(), 150);
        // Drain resets the rings.
        assert_eq!(p.take_spans().0.len(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let p = Profiler::with_capacity(1, 2);
        for i in 0..5 {
            p.record(Category::Sync, i, 0, 1);
        }
        assert_eq!(p.dropped(), 3);
        let (spans, dropped) = p.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn worker_registration_routes_to_shard() {
        let p = std::sync::Arc::new(Profiler::with_capacity(2, 8));
        let p2 = p.clone();
        std::thread::spawn(move || {
            register_worker(1);
            p2.record(Category::ChunkCompute, 0, 10, 20);
        })
        .join()
        .unwrap();
        let (spans, _) = p.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].worker, 1);
    }

    #[test]
    fn assemble_relabels_aborted_speculation() {
        let p = Profiler::with_capacity(1, 16);
        // chunk 0 committed; chunk 1 aborted: spec attempt then rerun.
        p.record(Category::ChunkCompute, 0, 0, 100);
        p.record(Category::ChunkCompute, 1, 0, 90);
        p.record(Category::ChunkCompute, 1, 200, 290);
        // Each attempt replays the replicas of the boundary it sealed
        // (label = the chunk they validate). Chunk 1 was validated at
        // 110: the replay its dead attempt made for chunk 2 is dead too.
        p.record(Category::OriginalStateGen, 1, 100, 105);
        p.record(Category::OriginalStateGen, 2, 90, 95);
        p.record(Category::StateComparison, 1, 110, 115);
        p.record(Category::OriginalStateGen, 2, 290, 295);
        p.record(Category::ChunkCompute, 2, 0, 80);
        let profile = WallProfile::assemble_with_breadth(&p, vec![false, true, false], 1, 300);
        let aborted: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| s.category == Category::AbortedCompute)
            .map(|s| (s.chunk, s.end_ns))
            .collect();
        // The earliest attempt of chunk 1 is the spec one; the replay it
        // made for chunk 2 died with it.
        assert_eq!(aborted, vec![(1, 90), (1, 95)]);
        assert_eq!(profile.category_ns(Category::OriginalStateGen), 5 + 5);
        // Serial estimate counts committed compute + the rerun only.
        assert_eq!(profile.serial_estimate_ns(), 100 + 90 + 80);
    }

    /// A synthetic 2-worker profile: 4 chunks of 1000ns compute, 100ns
    /// warmup, 50ns copy, 20ns compare, one 200ns replica per boundary.
    fn synthetic_profile(aborted: Vec<bool>) -> WallProfile {
        let chunks = aborted.len();
        let mut spans = Vec::new();
        let mut t = 0;
        spans.push(span(Category::Setup, 0, 2, 0, 30));
        for c in 0..chunks {
            let w = (c % 2) as u32;
            spans.push(span(Category::AltProducer, c as u32, w, t, t + 100));
            spans.push(span(Category::StateCopy, c as u32, w, t + 100, t + 150));
            spans.push(span(Category::ChunkCompute, c as u32, w, t + 150, t + 1150));
            if c > 0 {
                spans.push(span(
                    Category::OriginalStateGen,
                    c as u32,
                    1 - w,
                    t,
                    t + 200,
                ));
            }
            spans.push(span(
                Category::StateComparison,
                c as u32,
                2,
                t + 1150,
                t + 1170,
            ));
            spans.push(span(Category::Sync, c as u32, 2, t + 1140, t + 1150));
            t += 1200;
        }
        let mut profile = WallProfile {
            workers: 2,
            spans,
            aborted,
            elapsed_ns: t + 100,
            dropped: 0,
        };
        // Route through the same relabeling as assemble_with_breadth().
        for (chunk, _) in profile
            .aborted
            .clone()
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
        {
            if let Some(first) = profile
                .spans
                .iter_mut()
                .find(|s| s.category == Category::ChunkCompute && s.chunk as usize == chunk)
            {
                first.category = Category::AbortedCompute;
            }
        }
        profile
    }

    #[test]
    fn attribution_accounts_for_the_ideal() {
        let profile = synthetic_profile(vec![false; 4]);
        let a = profile.attribute();
        assert_eq!(a.chunks, 4);
        assert!((a.commit_rate - 1.0).abs() < 1e-12);
        assert!(a.projected > 0.0 && a.projected <= a.ideal + 1e-9);
        let total: f64 = a.losses.iter().map(|(_, v)| v).sum();
        // Losses + projected cover the ideal (unreachability is the
        // residual, clamped at zero).
        assert!(
            a.projected + total >= a.ideal - 1e-6,
            "projected {} + losses {} < ideal {}",
            a.projected,
            total,
            a.ideal
        );
        assert!(a.losses.iter().all(|(_, v)| *v >= 0.0));
    }

    #[test]
    fn what_ifs_never_hurt() {
        for aborted in [vec![false; 4], vec![false, true, false, false]] {
            let profile = synthetic_profile(aborted);
            let a = profile.attribute();
            assert!(a.whatifs.sync_free >= a.projected - 1e-9);
            assert!(a.whatifs.copies_free >= a.projected - 1e-9);
            assert!(a.whatifs.double_workers >= a.projected - 1e-9);
            assert!(a.whatifs.mispeculation_free >= a.projected - 1e-9);
        }
    }

    #[test]
    fn mispeculation_free_recovers_abort_loss() {
        let mut p = synthetic_profile(vec![false, true, false, false]);
        let t0 = p.elapsed_ns;
        p.spans
            .push(span(Category::ChunkCompute, 1, 0, t0, t0 + 1000));
        p.elapsed_ns += 1000;
        let a = p.attribute();
        assert!(
            a.whatifs.mispeculation_free > a.projected,
            "dropping the abort must beat the baseline: {} vs {}",
            a.whatifs.mispeculation_free,
            a.projected
        );
        // The ceiling equals baseline + the mispeculation marginal.
        let expect = a.projected + a.loss(WallLoss::Mispeculation);
        assert!((a.whatifs.mispeculation_free - expect).abs() < 1e-9);
    }

    #[test]
    fn replicas_replayed_by_the_sealing_chunk_leave_the_commit_chain() {
        // The synthetic profile re-derives every boundary's replica after
        // the previous chunk's commit check, on the urgent lane.
        let rederived = synthetic_profile(vec![false; 4]);
        // The same replays made before that check instead: they ran
        // inside the previous chunk's own task.
        let mut carried = rederived.clone();
        for s in &mut carried.spans {
            if s.category == Category::OriginalStateGen {
                s.start_ns -= 300;
                s.end_ns -= 300;
            }
        }
        let (rederived, carried) = (rederived.attribute(), carried.attribute());
        assert!(
            carried.projected > rederived.projected,
            "no seal waits on a replica any more: {} vs {}",
            carried.projected,
            rederived.projected
        );
    }

    #[test]
    fn breadth_assembly_relabels_losing_candidates() {
        let p = Profiler::with_capacity(1, 16);
        // Chunk 0 committed at breadth 2: winner + one loser.
        p.record(Category::ChunkCompute, 0, 0, 100);
        p.record(Category::ChunkCompute, 0, 10, 95);
        // Chunk 1 aborted at breadth 2: two failed attempts, then an
        // overlapped rerun in two pool segments.
        p.record(Category::ChunkCompute, 1, 0, 90);
        p.record(Category::ChunkCompute, 1, 5, 92);
        p.record(Category::ChunkCompute, 1, 200, 260);
        p.record(Category::ChunkCompute, 1, 260, 290);
        let profile = WallProfile::assemble_with_breadth(&p, vec![false, true], 2, 300);
        let dead: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| s.category == Category::AbortedCompute)
            .map(|s| (s.chunk, s.start_ns))
            .collect();
        // Spans are globally start-sorted after draining.
        assert_eq!(dead, vec![(1, 0), (1, 5), (0, 10)]);
        // Serial estimate: winner (100) + both rerun segments (60 + 30).
        assert_eq!(profile.serial_estimate_ns(), 100 + 60 + 30);
        // The dead candidates gate the commit check but survive
        // `assume_all_commit`, so the what-if ceiling stays causal.
        let a = profile.attribute();
        assert!(a.whatifs.mispeculation_free >= a.projected - 1e-9);
    }

    #[test]
    fn aborts_surface_as_mispeculation() {
        let clean = synthetic_profile(vec![false; 4]).attribute();
        let with_abort = {
            let mut p = synthetic_profile(vec![false, true, false, false]);
            // The rerun of the aborted chunk.
            let t0 = p.elapsed_ns;
            p.spans
                .push(span(Category::ChunkCompute, 1, 0, t0, t0 + 1000));
            p.elapsed_ns += 1000;
            p.attribute()
        };
        assert_eq!(clean.loss(WallLoss::Mispeculation), 0.0);
        assert!(
            with_abort.loss(WallLoss::Mispeculation) > 0.0,
            "an aborted chunk must show up as mispeculation loss"
        );
        assert!(with_abort.commit_rate < 1.0);
    }

    #[test]
    fn imbalance_shows_up_when_one_chunk_dominates() {
        let mut p = synthetic_profile(vec![false; 4]);
        // Stretch chunk 3's compute 8x.
        for s in &mut p.spans {
            if s.category == Category::ChunkCompute && s.chunk == 3 {
                s.end_ns = s.start_ns + 8000;
            }
        }
        p.elapsed_ns += 7000;
        let a = p.attribute();
        assert!(
            a.loss(WallLoss::Imbalance) > 0.0,
            "skewed chunk durations must attribute imbalance loss"
        );
    }

    #[test]
    fn trace_conversion_is_valid_and_named() {
        let profile = synthetic_profile(vec![false; 4]);
        let trace = profile.to_trace("native bodytrack").unwrap();
        assert_eq!(trace.thread_count(), 3);
        assert!(trace.makespan().get() > 0);
        let names = profile.thread_names();
        assert_eq!(names[0].1, "stats-pool-0");
        assert_eq!(names[2].1, "coordinator");
    }

    #[test]
    fn attribution_json_is_valid() {
        let profile = synthetic_profile(vec![false, true, false, false]);
        let json = profile.attribute().to_json();
        crate::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"imbalance\""));
        assert!(json.contains("\"whatifs\""));
        assert!(json.contains("\"mispeculation_free\""));
    }

    #[test]
    fn estimate_confidence_interval() {
        let e = Estimate::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(e.mean, 2.0);
        assert_eq!(e.half_width, 0.0);
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
        assert!(e.half_width > 0.0);
        assert!(e.lo() < 2.0 && e.hi() > 2.0);
        assert_eq!(Estimate::from_samples(&[]).n, 0);
        assert_eq!(Estimate::from_samples(&[5.0]).half_width, 0.0);
    }

    #[test]
    fn category_sketches_cover_active_categories() {
        let profile = synthetic_profile(vec![false; 4]);
        let sketches = profile.category_sketches();
        assert!(sketches.contains_key(&Category::ChunkCompute));
        let cc = &sketches[&Category::ChunkCompute];
        assert_eq!(cc.count(), 4);
        assert!(cc.quantile(0.5).unwrap() >= 900);
    }
}

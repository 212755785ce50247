//! One workload, measured: set-up, interleaved pairs under the host
//! guard, the traced pass, and the reference check of every run.
//!
//! The load is a closed loop with one client: this thread issues the next
//! run when the previous one has returned.

use crate::adapter::{self, Config, FaultPlan, Outcome, Pool, Run, Sink, Workload};
use crate::expected::Observed;
use crate::host;
use crate::metrics::{self, Readings};
use crate::micro;
use crate::spans::Tracer;
use crate::stats::{median, summarize, Summary};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which runtime the run under test goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `run_threaded_on` on a pool built once, during set-up.
    Threaded,
    /// `run_threaded_faulted_on` under a seeded plan of this many
    /// injections, on a pool built and dropped inside every timed run, so
    /// that construction and teardown are on this path (and a pool that a
    /// plan has killed workers of is never reused).
    Recovery { injections: usize },
    /// `SimulatedRuntime::run`: no thread is spawned.
    Simulated,
}

/// A workload's inputs and configuration.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub name: &'static str,
    pub inputs: usize,
    pub config: Config,
    pub path: Path,
}

/// How to measure.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Also run the traced pass and the per-layer measurements.
    pub trace: bool,
    pub workers: usize,
    /// Timed pairs below which a pass keeps going past its time.
    pub min_pairs: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

/// Length of one block of pairs between two host probes, in seconds.
const BLOCK_SECONDS: f64 = 5.0;

/// A block is discarded when a probe next to it finds less than this
/// share of the host's cores.
const CAPACITY_FLOOR: f64 = 0.8;

/// Seed of `recovery-path`'s fault plan: the repo's `FIGURE_SEED`. One
/// plan for every `--seed`: a plan drawn per seed differs in how many
/// workers it kills and how many back-offs it schedules, and the wall time
/// would follow the draw. This one kills four workers (the pool runs on
/// one worker from chunk 21 on and revives it three times), panics tasks,
/// loses results, poisons snapshots, delays starts and fails transfers.
/// (`FIGURE_SEED ^ 7`, the plan of the issue at the default seed, happens
/// to draw no worker death.)
const FAULT_PLAN_SEED: u64 = 0x5747_5175;

/// Runs under test before timing starts.
const WARM_UPS: usize = 3;

/// What a traced process adds to the untraced pairs, as shares of
/// `seconds`: the traced pass, and the timed calls into single layers.
const TRACED_PASS_SHARE: f64 = 0.2;
const LAYER_CALLS_SHARE: f64 = 0.3;

/// What one process measured.
pub struct Measured {
    pub readings: Readings,
    pub attempted: u64,
    pub failed: u64,
    pub observed: Observed,
    pub tracer: Tracer,
    /// Whether the kernel allowed every pin; see [`host::pinning_held`].
    pub pinned: bool,
}

/// Everything set-up leaves behind for the timed passes.
struct Prepared<W: Workload> {
    inputs: Vec<W::Input>,
    pool: Option<Pool>,
    faults: Option<FaultPlan>,
    reference: Outcome<W::Output>,
    decisions: String,
    final_state: W::State,
    sequential_work: u64,
    generate_inputs_ms: f64,
}

struct Harness<'a, W: Workload> {
    w: &'a W,
    case: Case,
    opts: &'a Options,
    sim: adapter::Simulator,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
}

/// A pool that outlives a run, with each worker pinned to a core of its
/// own (see [`host::pin_new_threads`]). `recovery-path` builds its pools
/// inside the timed run and leaves them to the kernel: pinning would put
/// two reads of `/proc/self/task` into every run, and a revived worker
/// inherits the core of the one that died.
pub fn pinned_pool(workers: usize) -> Pool {
    let before = host::thread_ids();
    let pool = adapter::pool_new(workers);
    host::pin_new_threads(&before, 0);
    pool
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl<'a, W: Workload> Harness<'a, W>
where
    W::Output: PartialEq + Clone,
{
    /// Pins the calling thread, the one client of the closed loop.
    fn new(w: &'a W, case: Case, opts: &'a Options, trace: bool) -> Self {
        host::pin_calling_thread();
        Harness {
            w,
            case,
            opts,
            sim: adapter::simulator(),
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
        }
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        match self.case.path {
            Path::Recovery { injections } => Some(adapter::fault_plan(
                FAULT_PLAN_SEED,
                injections,
                &self.case.config,
                self.case.inputs,
            )),
            _ => None,
        }
    }

    /// Input generation, pool construction, the reference, and warm-up:
    /// everything a run needs that is not the run.
    fn set_up(&mut self) -> Prepared<W> {
        let (w, case, seed) = (self.w, self.case, self.opts.seed);
        let t = Instant::now();
        let inputs = self.tracer.span("generate_inputs", || {
            adapter::generate_inputs(w, case.inputs, seed)
        });
        let generate_inputs_ms = ms_since(t);
        let pool = (case.path == Path::Threaded).then(|| {
            self.tracer
                .span("WorkerPool::new", || pinned_pool(self.opts.workers))
        });
        let reference = self.tracer.span("run_speculative", || {
            adapter::run_speculative(w, &inputs, case.config, seed)
        });
        let sequential = self.tracer.span("run_sequential", || {
            adapter::run_sequential(w, &inputs, seed)
        });
        let prepared = Prepared {
            decisions: adapter::outcome_decisions(&reference),
            faults: self.fault_plan(),
            final_state: sequential.final_state,
            sequential_work: sequential.work,
            inputs,
            pool,
            reference,
            generate_inputs_ms,
        };
        for _ in 0..WARM_UPS {
            self.run_under_test(&prepared, prepared.pool.as_ref(), self.opts.workers, None);
        }
        prepared
    }

    /// One run under test, timed, then checked against the reference
    /// outside the timed region. Returns its wall time in ms.
    fn run_under_test(
        &mut self,
        p: &Prepared<W>,
        pool: Option<&Pool>,
        workers: usize,
        sink: Option<&Sink>,
    ) -> f64 {
        let (w, case, seed) = (self.w, self.case, self.opts.seed);
        self.tracer.next_run();
        let outer = self.tracer.begin("run_under_test");
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| match case.path {
            Path::Threaded => {
                let pool = pool.expect("set-up built the pool");
                let open = self.tracer.begin("run_threaded_on");
                let run = adapter::run_threaded(pool, w, &p.inputs, case.config, seed, None, sink);
                self.tracer.end(open);
                run
            }
            Path::Recovery { .. } => {
                let open = self.tracer.begin("WorkerPool::new");
                let pool = adapter::pool_new(workers);
                self.tracer.end(open);
                let open = self.tracer.begin("run_threaded_faulted_on");
                let faults = p.faults.as_ref();
                let run =
                    adapter::run_threaded(&pool, w, &p.inputs, case.config, seed, faults, sink);
                self.tracer.end(open);
                self.tracer.span("WorkerPool::drop", || drop(pool));
                run
            }
            Path::Simulated => {
                let open = self.tracer.begin("SimulatedRuntime::run");
                let sim = adapter::sim_run(&self.sim, w, &p.inputs, case.config, seed, sink);
                self.tracer.end(open);
                sim.run
            }
        }));
        let wall_ms = ms_since(t);
        self.tracer.end(outer);
        let ok = self.tracer.span("reference_check", || match &run {
            Ok(run) => matches_reference(run, p),
            Err(_) => false,
        });
        self.attempted += 1;
        self.failed += u64::from(!ok);
        wall_ms
    }

    /// Interleaved pairs — the sequential program, then the run under
    /// test — in blocks bracketed by host probes. A block next to a probe
    /// that found the host short of cores is discarded and repeated, for
    /// at most half as many extra blocks as were planned (more would not
    /// fit the time the whole benchmark is allowed).
    fn pairs(&mut self, p: &Prepared<W>) -> Pairs {
        let (seconds, min_pairs) = (self.opts.seconds, self.opts.min_pairs);
        let planned = (seconds / BLOCK_SECONDS).round().max(1.0) as usize;
        let block_seconds = seconds / planned as f64;
        let cores = host::nproc();
        let floor = CAPACITY_FLOOR * cores as f64;
        let mut pairs = Pairs::default();
        let mut kept_blocks = 0;
        let mut before = host::parallel_capacity(cores, floor);
        pairs.capacities.push(before);
        while kept_blocks < planned || pairs.test_ms.len() < min_pairs {
            let mut cpu_in_test = 0.0;
            let (mut seq_ms, mut test_ms) = (Vec::new(), Vec::new());
            let block = Instant::now();
            while block.elapsed().as_secs_f64() < block_seconds {
                let t = Instant::now();
                black_box(adapter::run_sequential(self.w, &p.inputs, self.opts.seed).outputs);
                seq_ms.push(ms_since(t));
                let cpu = host::cpu_time_ms();
                test_ms.push(self.run_under_test(p, p.pool.as_ref(), self.opts.workers, None));
                cpu_in_test += host::cpu_time_ms() - cpu;
            }
            let after = host::parallel_capacity(cores, floor);
            pairs.capacities.push(after);
            let short = before.min(after) < floor;
            before = after;
            if short && pairs.discarded < planned.div_ceil(2) {
                pairs.discarded += 1;
                continue;
            }
            kept_blocks += 1;
            pairs.seq_ms.append(&mut seq_ms);
            pairs.test_ms.append(&mut test_ms);
            pairs.cpu_ms_in_test += cpu_in_test;
        }
        pairs
    }
}

/// Decisions equal the reference's, and outputs equal it element for
/// element.
fn matches_reference<W: Workload>(run: &Run<W::Output>, p: &Prepared<W>) -> bool
where
    W::Output: PartialEq,
{
    run.decisions == p.decisions && run.outputs == p.reference.outputs
}

/// One run of the traced pass.
struct TracedRun {
    wall_ns: u64,
    /// Where the wall time went; threaded runs only.
    profile: Option<adapter::Profile>,
    counters: adapter::Counters,
}

/// The timed pairs of one pass.
#[derive(Default)]
struct Pairs {
    seq_ms: Vec<f64>,
    test_ms: Vec<f64>,
    cpu_ms_in_test: f64,
    capacities: Vec<f64>,
    discarded: usize,
}

fn per_pair(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Summary {
    summarize(&a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>())
}

/// Measure `case` on `w`.
pub fn measure<W: Workload>(w: &W, case: Case, opts: &Options) -> Result<Measured, String>
where
    W::Output: PartialEq + Clone,
{
    adapter::validate(&case.config, case.inputs)
        .map_err(|e| format!("{}: invalid configuration: {e}", case.name))?;
    let mut h = Harness::new(w, case, opts, opts.trace);
    let mut out = Readings::default();

    // Set-up, several times over: its time is a metric of its own, so
    // that work moved out of the runs and into set-up shows.
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.setups.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        let p = h.set_up();
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(p.generate_inputs_ms);
        prepared = Some(p);
    }
    let p = prepared.expect("set up at least once");
    out.set_summary("setup_s", &summarize(&setup_s));

    // End-to-end numbers come from this pass only: no sink, no spans,
    // and the same length whether or not a traced pass follows.
    h.tracer.set_enabled(false);
    let pairs = h.pairs(&p);
    let inputs = case.inputs as f64;
    let test = summarize(&pairs.test_ms);
    let seq = summarize(&pairs.seq_ms);
    let per_run: Vec<f64> = pairs.test_ms.iter().map(|ms| inputs / (ms / 1e3)).collect();
    out.set_summary("inputs_per_s", &summarize(&per_run));
    out.set_summary(
        "speedup_vs_seq",
        &per_pair(&pairs.seq_ms, &pairs.test_ms, |s, t| s / t),
    );
    out.set("peak_rss_mib", host::peak_rss_mib());

    let quality = adapter::quality(w, &p.inputs, &p.reference.outputs);
    let mut observed = Observed {
        decisions: p.decisions.clone(),
        outputs: p.reference.outputs.len(),
        quality_bits: quality.to_bits(),
        exact: Vec::new(),
    };

    if opts.trace {
        h.tracer.set_enabled(true);
        layers(&mut h, &p, &pairs, (&seq, &test), &mut out);
        out.set("workloads.generate_inputs_ms", median(&generate_ms));
        out.zero_unset(metrics::per_layer());
        observed.exact = metrics::per_layer()
            .filter(|m| m.exact)
            .map(|m| (m.name, out.value(m.name)))
            .collect();
    }
    out.set(
        metrics::FAILED_SHARE,
        h.failed as f64 / h.attempted.max(1) as f64,
    );
    Ok(Measured {
        readings: out,
        attempted: h.attempted,
        failed: h.failed,
        observed,
        tracer: h.tracer,
        pinned: host::pinning_held(),
    })
}

/// Repeat `f` for `seconds`, at least `min` times.
fn repeat_for(seconds: f64, min: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut times = 0;
    while times < min || start.elapsed().as_secs_f64() < seconds {
        f();
        times += 1;
    }
}

/// The traced pass and everything reported per layer.
fn layers<W: Workload>(
    h: &mut Harness<'_, W>,
    p: &Prepared<W>,
    pairs: &Pairs,
    (seq, test): (&Summary, &Summary),
    out: &mut Readings,
) where
    W::Output: PartialEq + Clone,
{
    let (w, case, opts) = (h.w, h.case, h.opts);
    let chunks = case.config.chunks;
    let simulated = case.path == Path::Simulated;
    let prefix = |threaded: &'static str, simulated_name: &'static str| {
        if simulated {
            simulated_name
        } else {
            threaded
        }
    };

    // The untraced pairs, read as layer metrics.
    out.set("workloads.update_ns", seq.median * 1e6 / case.inputs as f64);
    out.set_summary("sequential.run_ms", seq);
    out.set("sequential.run_iqr_pct", seq.iqr_share() * 100.0);
    out.set_summary(prefix("threaded.run_ms_p50", "simulated.run_ms_p50"), test);
    out.set(
        prefix("threaded.run_ms_tail", "simulated.run_ms_tail"),
        test.tail,
    );
    if !simulated {
        out.set("threaded.tail_percentile", test.tail_percentile);
        out.set("threaded.runs", test.n as f64);
        out.set(
            "threaded.cpu_ms_per_run",
            pairs.cpu_ms_in_test / test.n as f64,
        );
    }
    out.set("host.nproc", host::nproc() as f64);
    out.set("host.parallel_capacity", median(&pairs.capacities));
    out.set("host.blocks_discarded", pairs.discarded as f64);

    // The traced pass: the same run, handed a sink through the call's own
    // `telemetry` parameter.
    let mut traced = Vec::new();
    repeat_for(opts.seconds * TRACED_PASS_SHARE, 5, || {
        let sink = if simulated {
            adapter::counting_sink(chunks)
        } else {
            adapter::profiling_sink(chunks, opts.workers)
        };
        let ms = h.run_under_test(p, p.pool.as_ref(), opts.workers, Some(&sink));
        let wall_ns = (ms * 1e6) as u64;
        traced.push(TracedRun {
            wall_ns,
            profile: (!simulated)
                .then(|| adapter::wall_profile(&sink, &p.decisions, &case.config, wall_ns)),
            counters: adapter::counters(&sink),
        });
    });
    let traced_ms: Vec<f64> = traced.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
    out.set(
        "telemetry.traced_overhead_pct",
        (median(&traced_ms) / test.median - 1.0) * 100.0,
    );
    // Counts are a pure function of inputs, seed and configuration: a
    // traced run that counts differently from the first has failed.
    let counts = &traced[0].counters.exact;
    h.failed += traced
        .iter()
        .filter(|t| t.counters.exact != *counts)
        .count() as u64;
    for &(name, count) in counts {
        // The simulated runtime derives the same counters, but only the
        // replicated bytes are a metric of a layer on its path.
        if !simulated || name.starts_with("snapshot.") {
            out.set(name, count as f64);
        }
    }
    if !simulated {
        let median_of = |f: &dyn Fn(&TracedRun, &adapter::Profile) -> f64| {
            let per_run = traced
                .iter()
                .map(|t| f(t, t.profile.as_ref().expect("threaded runs are profiled")));
            median(&per_run.collect::<Vec<_>>())
        };
        let categories = &traced[0].profile.as_ref().expect("profiled").category_ns;
        for (i, &(name, _)) in categories.iter().enumerate() {
            out.set(name, median_of(&|_, p| p.category_ns[i].1 as f64 / 1e6));
        }
        // What the workers' own spans leave of workers x wall.
        let pool_ns = |t: &TracedRun| opts.workers as f64 * t.wall_ns as f64;
        out.set(
            "threaded.unattributed_ms",
            median_of(&|t, p| (pool_ns(t) - p.worker_side_ns as f64) / 1e6),
        );
        out.set(
            "telemetry.spans_recorded",
            median_of(&|_, p| p.spans_recorded as f64),
        );
        out.set(
            "telemetry.spans_dropped",
            median_of(&|_, p| p.spans_dropped as f64),
        );
        // The pooled runtime counts busy time only; idle is the rest of
        // workers x wall.
        let busy = |t: &TracedRun| t.counters.busy as f64;
        out.set("pool.busy_ms", median_of(&|t, _| busy(t) / 1e6));
        out.set(
            "pool.idle_ms",
            median_of(&|t, _| (pool_ns(t) - busy(t)).max(0.0) / 1e6),
        );
        out.set("pool.utilization", median_of(&|t, _| busy(t) / pool_ns(t)));
    }

    // Timed calls into single layers. `run_speculative` executes the same
    // updates as the threaded runtime on one worker, so the two are timed
    // turn about — a change of the core's clock then falls on both — and
    // their difference is what the protocol costs with no parallelism to
    // pay for it.
    let open = h.tracer.begin("layer_calls");
    let one = (case.path == Path::Threaded).then(|| pinned_pool(1));
    let (mut spec_ms, mut w1_ms) = (Vec::new(), Vec::new());
    let share = if simulated { 0.5 } else { 1.0 };
    repeat_for(opts.seconds * LAYER_CALLS_SHARE * share, 3, || {
        let t = Instant::now();
        let outcome = h.tracer.span("run_speculative", || {
            adapter::run_speculative(w, &p.inputs, case.config, opts.seed)
        });
        spec_ms.push(ms_since(t));
        black_box(outcome);
        if !simulated {
            w1_ms.push(h.run_under_test(p, one.as_ref(), 1, None));
        }
    });
    out.set_summary("speculation.run_ms", &summarize(&spec_ms));
    out.set(
        "speculation.commit_rate",
        adapter::outcome_commit_rate(&p.reference),
    );
    out.set(
        "speculation.extra_work_ratio",
        adapter::outcome_realized_work(&p.reference) as f64 / p.sequential_work as f64,
    );
    if simulated {
        simulated_split(h, p, opts.seconds * LAYER_CALLS_SHARE * share, out);
    } else {
        let w1 = summarize(&w1_ms);
        let overhead = per_pair(&w1_ms, &spec_ms, |w1, spec| w1 - spec).median;
        out.set_summary("threaded.w1_run_ms", &w1);
        out.set("threaded.protocol_overhead_ms", overhead);
        out.set(
            "threaded.overhead_per_chunk_us",
            overhead * 1e3 / chunks as f64,
        );
        out.set(
            "threaded.scaling_efficiency",
            w1.median / (opts.workers as f64 * test.median),
        );
    }
    h.tracer.end(open);

    let open = h.tracer.begin("micro");
    micro::measure(
        &micro::Subject {
            workload: w,
            config: case.config,
            inputs: case.inputs,
            seed: opts.seed,
            workers: opts.workers,
            final_state: &p.final_state,
        },
        out,
    );
    h.tracer.end(open);
}

/// `SimulatedRuntime::run` taken apart: lowering to a task graph, the
/// discrete-event execution, and the rest of `run_from_outcome` (trace
/// and report assembly, and the sequential baseline the report carries).
fn simulated_split<W: Workload>(
    h: &mut Harness<'_, W>,
    p: &Prepared<W>,
    seconds: f64,
    out: &mut Readings,
) where
    W::Output: PartialEq + Clone,
{
    let (w, sim, seed) = (h.w, &h.sim, h.opts.seed);
    let graph = adapter::sim_build_graph(sim, w, &p.reference);
    let tasks = adapter::graph_tasks(&graph) as f64;
    let (mut build_ms, mut execute_ms, mut whole_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim_speedups = Vec::new();
    repeat_for(seconds, 3, || {
        let t = Instant::now();
        let graph = h.tracer.span("build_task_graph", || {
            adapter::sim_build_graph(sim, w, &p.reference)
        });
        build_ms.push(ms_since(t));
        let t = Instant::now();
        black_box(
            h.tracer
                .span("Machine::execute", || adapter::sim_execute(sim, &graph)),
        );
        execute_ms.push(ms_since(t));
        let outcome = p.reference.clone();
        let t = Instant::now();
        let run = h.tracer.span("run_from_outcome", || {
            adapter::sim_run_from_outcome(sim, w, &p.inputs, outcome, seed)
        });
        whole_ms.push(ms_since(t));
        h.attempted += 1;
        h.failed += u64::from(!matches_reference(&run.run, p));
        sim_speedups.push(run.sim_speedup);
    });
    // The modelled speedup is a pure function of the outcome: it must
    // repeat bit for bit within a process, and across processes.
    if sim_speedups
        .iter()
        .any(|s| s.to_bits() != sim_speedups[0].to_bits())
    {
        h.failed += 1;
    }
    let (build, execute) = (median(&build_ms), median(&execute_ms));
    out.set("simulated.graph_build_ms", build);
    out.set("simulated.graph_tasks", tasks);
    out.set("platform.execute_ms", execute);
    out.set("platform.tasks_per_s", tasks / (execute / 1e3));
    out.set("simulated.report_ms", median(&whole_ms) - build - execute);
    out.set("simulated.sim_speedup", sim_speedups[0]);
}

/// What `--self-test` found: the check must pass the pristine reference
/// and fail each corrupted one.
pub struct SelfTest {
    pub pristine_ok: bool,
    pub corrupt_decision_caught: bool,
    pub corrupt_output_caught: bool,
}

impl SelfTest {
    pub fn failed_share(&self) -> f64 {
        let failed = [
            !self.pristine_ok,
            self.corrupt_decision_caught,
            self.corrupt_output_caught,
        ];
        failed.iter().filter(|f| **f).count() as f64 / failed.len() as f64
    }

    pub fn passed(&self) -> bool {
        self.pristine_ok && self.corrupt_decision_caught && self.corrupt_output_caught
    }
}

/// Run `case` once against its reference, then against a reference with
/// one decision flipped, then against one with one output displaced.
pub fn self_test<W: Workload>(w: &W, case: Case, opts: &Options) -> SelfTest
where
    W::Output: PartialEq + Clone,
{
    let mut h = Harness::new(w, case, opts, false);
    let mut p = h.set_up();
    let pristine_ok = h.failed == 0;

    let check = |h: &mut Harness<'_, W>, p: &Prepared<W>| {
        let failed = h.failed;
        h.run_under_test(p, p.pool.as_ref(), opts.workers, None);
        h.failed > failed
    };
    let honest = p.decisions.clone();
    p.decisions = honest.replacen('C', "A", 1);
    let corrupt_decision_caught = p.decisions != honest && check(&mut h, &p);
    p.decisions = honest;

    let last = p.reference.outputs.len() - 1;
    p.reference.outputs.swap(0, last);
    let corrupt_output_caught =
        p.reference.outputs[0] != p.reference.outputs[last] && check(&mut h, &p);
    SelfTest {
        pristine_ok,
        corrupt_decision_caught,
        corrupt_output_caught,
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Quick to run: a fraction of a second of pairs, one set-up.
    pub fn quick(trace: bool) -> Options {
        Options {
            seed: 11,
            seconds: 0.3,
            trace,
            workers: host::nproc().min(2),
            min_pairs: 3,
            setups: 1,
        }
    }

    /// The three paths at a tenth of their size.
    pub fn small_cases() -> [Case; 3] {
        let recovery = adapter::with_breadth_and_overlap(adapter::stats_only(14, 2, 1), 2);
        [
            Case {
                name: "small-threaded",
                inputs: 280,
                config: adapter::stats_only(56, 2, 1),
                path: Path::Threaded,
            },
            Case {
                name: "small-recovery",
                inputs: 210,
                config: recovery,
                path: Path::Recovery { injections: 8 },
            },
            Case {
                name: "small-simulated",
                inputs: 280,
                config: adapter::stats_only(14, 4, 1),
                path: Path::Simulated,
            },
        ]
    }

    pub fn measure_small(case: Case, opts: &Options) -> Measured {
        match case.path {
            Path::Threaded => measure(&adapter::stream_classifier(), case, opts),
            Path::Recovery { .. } => measure(&adapter::face_det_and_track(), case, opts),
            Path::Simulated => measure(&adapter::stream_cluster(), case, opts),
        }
        .expect("a valid small case")
    }

    #[test]
    fn two_traced_runs_with_one_seed_give_identical_exact_metrics() {
        let opts = quick(true);
        for case in small_cases() {
            let (a, b) = (measure_small(case, &opts), measure_small(case, &opts));
            assert_eq!((a.failed, b.failed), (0, 0), "{}", case.name);
            assert_eq!(a.observed, b.observed, "{}", case.name);
            let exact = metrics::per_layer().filter(|m| m.exact).count();
            assert_eq!(a.observed.exact.len(), exact);
            // Every per-layer metric is reported, and only a traced
            // process reports them.
            for m in metrics::per_layer() {
                assert!(a.readings.get(m.name).is_some(), "{} unset", m.name);
            }
        }
    }

    #[test]
    fn an_untraced_run_reports_the_end_to_end_metrics_only() {
        let m = measure_small(small_cases()[0], &quick(false));
        for e in metrics::end_to_end() {
            assert!(m.readings.value(e.name) >= 0.0);
        }
        assert!(metrics::per_layer().all(|l| m.readings.get(l.name).is_none()));
        assert!(m.tracer.spans().is_empty());
        assert!(m.readings.value("inputs_per_s") > 0.0);
        assert!(m.readings.value("setup_s") > 0.0);
    }

    #[test]
    fn the_self_test_sees_both_corruptions() {
        let case = small_cases()[0];
        let t = self_test(&adapter::stream_classifier(), case, &quick(false));
        assert!(t.passed());
        assert!(t.failed_share() > 0.0);
    }

    #[test]
    fn an_invalid_configuration_is_refused() {
        let case = Case {
            inputs: 10,
            ..small_cases()[0]
        };
        assert!(measure(&adapter::stream_classifier(), case, &quick(false)).is_err());
    }
}

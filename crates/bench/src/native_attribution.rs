//! Native wall-clock attribution, and its comparison against the
//! simulator's virtual-time attribution.
//!
//! [`attribution`](crate::attribution) answers §V-B's question — *where
//! did the speedup go?* — for the simulated runtime, in deterministic
//! virtual time. This module answers the same question for the real
//! pooled executor: it runs a benchmark with the wall-clock profiler
//! attached ([`stats_telemetry::profiler`]), attributes the captured
//! span graph to the paper's six overhead groups, and aggregates over
//! seeds as mean ± confidence interval (Touati's methodology — a
//! wall-clock speedup claim without an interval is a coin flip).
//!
//! The two attributions run on different substrates (a cost-model
//! machine vs. the host), so their *numbers* are not comparable; their
//! *shape* must be (EXPERIMENTS.md methodology). [`ShapeComparison`]
//! pins that: normalized loss orderings must not materially invert over
//! the structurally comparable groups, and what-if projections must
//! point the same way. Four groups are excluded from the ordering by
//! construction and documented here rather than forced:
//!
//! * **synchronization** — the simulator charges modeled
//!   `sync_ops_per_update` lock traffic inside inner-parallel updates;
//!   the native executor runs `run_segment` serially per chunk and
//!   never performs those operations, so its sync cost is the (tiny)
//!   per-seal handoff.
//! * **sequential** — the native harness times the parallelized region
//!   only; outside-region work exists only in the simulator's model.
//! * **unreachability** — both sides define it as a residual, but
//!   against different ideals (28 modeled cores vs. the pool width),
//!   so only its *presence* is comparable, not its rank.
//! * **imbalance** — the simulator's imbalance is pure cost-model skew;
//!   the native number is wall-clock wait at chunk barriers, which on a
//!   time-shared CI host (often with fewer hardware threads than pool
//!   workers) is dominated by OS preemption rather than work
//!   distribution. The two only align on a dedicated host with cores ≥
//!   workers, which CI never guarantees.

use crate::attribution::{attribute, LossBreakdown, LossCategory};
use crate::chaos::PROTOCOL;
use crate::pipeline::{tuned_config, Scale};
use stats_core::config::Config;
use stats_core::fault::FaultPlan;
use stats_core::report::ChunkDecision;
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_platform::{CostModel, Machine, Topology};
use stats_telemetry::json::JsonObject;
use stats_telemetry::profiler::{WhatIfs, WALL_LOSSES};
use stats_telemetry::{Estimate, Profiler, TelemetrySink, WallAttribution, WallLoss, WallProfile};
use stats_workloads::Workload;

/// Materiality threshold for ordering comparisons: a loss group whose
/// normalized share is below this fraction is "small" and exempt from
/// inversion checks (shape-level agreement, not rank of noise).
pub const MATERIAL_SHARE: f64 = 0.15;

/// Fault-plane observations riding along a faulted profile (`--faults`):
/// the first seed's live fault counters, next to what the plan asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Injections the plan carries (sites may or may not execute).
    pub planned: usize,
    /// `FaultsInjected` observed on the first profiled seed.
    pub injected: u64,
    /// `RetriesScheduled` observed on the first profiled seed.
    pub retries: u64,
    /// `WorkersLost` observed on the first profiled seed.
    pub workers_lost: u64,
}

/// One benchmark profiled over several seeds on the pooled runtime.
#[derive(Debug)]
pub struct ProfileReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Pool width profiled.
    pub workers: usize,
    /// Configuration the runs used.
    pub config: Config,
    /// Seeds profiled, in run order.
    pub seeds: Vec<u64>,
    /// Per-seed attributions (same order as `seeds`).
    pub runs: Vec<WallAttribution>,
    /// The first seed's full profile, kept for trace/table rendering.
    pub profile: WallProfile,
    /// Projected (re-scheduled) speedup, mean ± CI over seeds.
    pub projected: Estimate,
    /// Measured wall-clock speedup, mean ± CI over seeds.
    pub measured: Estimate,
    /// Per-group losses, mean ± CI over seeds.
    pub losses: Vec<(WallLoss, Estimate)>,
    /// What-if projections, mean ± CI over seeds.
    pub whatif_sync_free: Estimate,
    /// See [`ProfileReport::whatif_sync_free`].
    pub whatif_copies_free: Estimate,
    /// See [`ProfileReport::whatif_sync_free`].
    pub whatif_double_workers: Estimate,
    /// See [`ProfileReport::whatif_sync_free`]: projected speedup if no
    /// chunk had mispeculated (the ceiling a breadth > 1 run chases).
    pub whatif_mispeculation_free: Estimate,
    /// Whether decisions, outputs and the deterministic protocol
    /// counters with profiling on matched a counters-only run
    /// bit-for-bit (first seed).
    pub parity: bool,
    /// Fault-plane observations when the runs carried a fault plan
    /// (`None` for fault-free profiles).
    pub faults: Option<FaultReport>,
}

impl ProfileReport {
    /// Mean loss for one group.
    pub fn loss_mean(&self, loss: WallLoss) -> f64 {
        self.losses
            .iter()
            .find(|(l, _)| *l == loss)
            .map_or(0.0, |(_, e)| e.mean)
    }

    /// Losses normalized to shares of their sum (all zero when no loss).
    pub fn normalized_losses(&self) -> Vec<(WallLoss, f64)> {
        let total: f64 = self.losses.iter().map(|(_, e)| e.mean).sum();
        self.losses
            .iter()
            .map(|(l, e)| (*l, if total > 0.0 { e.mean / total } else { 0.0 }))
            .collect()
    }

    /// Serialize as one JSON object (used by `stats profile --format json`).
    pub fn to_json(&self) -> String {
        let est = |e: &Estimate| format!("{{\"mean\":{:.6},\"ci\":{:.6}}}", e.mean, e.half_width);
        let mut losses = String::from("{");
        for (i, (l, e)) in self.losses.iter().enumerate() {
            if i > 0 {
                losses.push(',');
            }
            losses.push_str(&format!("\"{}\":{}", l.name(), est(e)));
        }
        losses.push('}');
        let mut o = JsonObject::new();
        o.str("benchmark", &self.benchmark)
            .u64("workers", self.workers as u64)
            .u64("chunks", self.config.chunks as u64)
            .u64("seeds", self.seeds.len() as u64)
            .f64(
                "commit_rate",
                self.runs.first().map_or(1.0, |r| r.commit_rate),
            )
            .f64("ideal", self.runs.first().map_or(0.0, |r| r.ideal))
            .raw("projected", &est(&self.projected))
            .raw("measured", &est(&self.measured))
            .raw("losses", &losses)
            .raw(
                "whatifs",
                &format!(
                    "{{\"sync_free\":{},\"copies_free\":{},\"double_workers\":{},\"mispeculation_free\":{}}}",
                    est(&self.whatif_sync_free),
                    est(&self.whatif_copies_free),
                    est(&self.whatif_double_workers),
                    est(&self.whatif_mispeculation_free)
                ),
            )
            .bool("parity", self.parity)
            .u64("dropped", self.runs.iter().map(|r| r.dropped).sum());
        if let Some(f) = &self.faults {
            let mut fo = JsonObject::new();
            fo.u64("planned", f.planned as u64)
                .u64("injected", f.injected)
                .u64("retries", f.retries)
                .u64("workers_lost", f.workers_lost);
            o.raw("faults", &fo.finish());
        }
        o.finish()
    }
}

/// Profile `workload` on `pool` over `seeds`, attributing each run and
/// aggregating per Touati. The first seed is additionally run *without*
/// the profiler to assert decisions, outputs and protocol counters are
/// unchanged by profiling.
pub fn profile_workload<W: Workload>(
    w: &W,
    pool: &WorkerPool,
    scale: Scale,
    seeds: &[u64],
) -> ProfileReport {
    profile_workload_configured(w, pool, scale, seeds, tuned_config(w, 28, scale))
}

/// [`profile_workload`] under an explicit configuration (the CLI's
/// `--snapshot` / override flags route through this).
pub fn profile_workload_configured<W: Workload>(
    w: &W,
    pool: &WorkerPool,
    scale: Scale,
    seeds: &[u64],
    cfg: Config,
) -> ProfileReport {
    profile_workload_faulted(w, pool, scale, seeds, cfg, &FaultPlan::none())
}

/// [`profile_workload_configured`] with a fault plan injected into every
/// profiled run (the CLI's `--faults`): the attribution then covers the
/// recovery path — retries, backoff, worker loss — while the parity
/// check still demands the profiler itself stays observation-only. An
/// empty plan is the exact fault-free path.
pub fn profile_workload_faulted<W: Workload>(
    w: &W,
    pool: &WorkerPool,
    scale: Scale,
    seeds: &[u64],
    cfg: Config,
    faults: &FaultPlan,
) -> ProfileReport {
    assert!(!seeds.is_empty(), "at least one seed");
    let mut runs = Vec::with_capacity(seeds.len());
    let mut first_profile: Option<WallProfile> = None;
    let mut parity = true;
    let mut fault_report = None;

    for (i, &seed) in seeds.iter().enumerate() {
        let n = scale.inputs_for(w);
        let inputs = w.generate_inputs(n, seed);
        let sink =
            TelemetrySink::new(cfg.chunks.max(1)).with_profiler(Profiler::new(pool.workers()));
        let run = run_threaded_faulted_on(pool, w, &inputs, cfg, seed, faults, Some(&sink));
        let aborted: Vec<bool> = run
            .decisions
            .iter()
            .map(|d| *d == ChunkDecision::Aborted)
            .collect();
        let elapsed_ns = u64::try_from(run.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let profiler = sink.profiler().expect("profiler attached above");
        let profile = WallProfile::assemble_with_breadth(
            profiler,
            aborted,
            cfg.spec_breadth.max(1),
            elapsed_ns,
        );
        if i == 0 {
            // Profiling must be observation-only: a counters-only run
            // with the same seed (and the same plan) must decide,
            // produce and count identically. Time counters are wall
            // clock and excluded.
            let bare_sink = TelemetrySink::new(cfg.chunks.max(1));
            let bare =
                run_threaded_faulted_on(pool, w, &inputs, cfg, seed, faults, Some(&bare_sink));
            let protocol = |sink: &TelemetrySink| {
                let snap = sink.snapshot();
                PROTOCOL.map(|c| snap.get(c))
            };
            parity = bare.decisions == run.decisions
                && bare.outputs.len() == run.outputs.len()
                && w.quality(&inputs, &bare.outputs).to_bits()
                    == w.quality(&inputs, &run.outputs).to_bits()
                && protocol(&bare_sink) == protocol(&sink);
            first_profile = Some(profile.clone());
            if !faults.injections().is_empty() {
                let snap = sink.snapshot();
                fault_report = Some(FaultReport {
                    planned: faults.injections().len(),
                    injected: snap.get(stats_telemetry::Counter::FaultsInjected),
                    retries: snap.get(stats_telemetry::Counter::RetriesScheduled),
                    workers_lost: snap.get(stats_telemetry::Counter::WorkersLost),
                });
            }
        }
        runs.push(profile.attribute());
    }

    let collect = |f: &dyn Fn(&WallAttribution) -> f64| {
        Estimate::from_samples(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let losses = WALL_LOSSES
        .iter()
        .map(|&l| (l, collect(&|r: &WallAttribution| r.loss(l))))
        .collect();

    ProfileReport {
        benchmark: w.name().to_string(),
        workers: pool.workers(),
        config: cfg,
        seeds: seeds.to_vec(),
        projected: collect(&|r| r.projected),
        measured: collect(&|r| r.measured),
        losses,
        whatif_sync_free: collect(&|r| r.whatifs.sync_free),
        whatif_copies_free: collect(&|r| r.whatifs.copies_free),
        whatif_double_workers: collect(&|r| r.whatifs.double_workers),
        whatif_mispeculation_free: collect(&|r| r.whatifs.mispeculation_free),
        profile: first_profile.expect("at least one seed profiled"),
        parity,
        faults: fault_report,
        runs,
    }
}

/// Measured profiling overhead in percent: min-over-`reps` wall time of
/// a profiled run vs. a counters-only run on the same pool. Negative
/// values mean the difference drowned in scheduler noise.
pub fn profiling_overhead_pct<W: Workload>(
    w: &W,
    pool: &WorkerPool,
    scale: Scale,
    seed: u64,
    reps: usize,
) -> f64 {
    let n = scale.inputs_for(w);
    let inputs = w.generate_inputs(n, seed);
    let cfg = tuned_config(w, 28, scale);
    let min_ns = |profiled: bool| -> f64 {
        let mut best = f64::INFINITY;
        // One warm-up plus `reps` timed runs, minimum taken — the
        // standard low-noise estimator for deterministic work.
        for r in 0..=reps {
            let sink = if profiled {
                Some(
                    TelemetrySink::new(cfg.chunks.max(1))
                        .with_profiler(Profiler::new(pool.workers())),
                )
            } else {
                Some(TelemetrySink::new(cfg.chunks.max(1)))
            };
            let run = run_threaded_on(pool, w, &inputs, cfg, seed, sink.as_ref());
            if r > 0 {
                best = best.min(run.elapsed.as_nanos() as f64);
            }
        }
        best
    };
    let bare = min_ns(false);
    let prof = min_ns(true);
    (prof - bare) / bare * 100.0
}

// ---------------------------------------------------------------------------
// Native vs. simulated shape comparison
// ---------------------------------------------------------------------------

/// Map a simulated [`LossBreakdown`] into the six coarse wall-clock
/// groups so both attributions speak the same vocabulary.
pub fn simulated_six_groups(b: &LossBreakdown) -> Vec<(WallLoss, f64)> {
    let m = |c: LossCategory| b.marginal_of(c);
    vec![
        (WallLoss::Imbalance, m(LossCategory::Imbalance)),
        (
            WallLoss::ExtraComputation,
            m(LossCategory::AltProducer)
                + m(LossCategory::OriginalStateGen)
                + m(LossCategory::StateComparison)
                + m(LossCategory::Setup)
                + m(LossCategory::StateCopy),
        ),
        (WallLoss::Synchronization, m(LossCategory::Sync)),
        (WallLoss::Sequential, m(LossCategory::OutsideRegion)),
        (WallLoss::Mispeculation, m(LossCategory::Mispeculation)),
        (WallLoss::Unreachability, m(LossCategory::Unreachability)),
    ]
}

/// The groups whose ordering is structurally comparable between the two
/// attributions (see the module docs for why the other four are not).
pub const COMPARABLE_GROUPS: [WallLoss; 2] = [WallLoss::ExtraComputation, WallLoss::Mispeculation];

/// Shape-level agreement between native and simulated attribution for
/// one benchmark.
#[derive(Debug)]
pub struct ShapeComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Native normalized loss shares over the six groups.
    pub native: Vec<(WallLoss, f64)>,
    /// Simulated normalized loss shares over the six groups.
    pub simulated: Vec<(WallLoss, f64)>,
    /// Pairs of comparable groups whose order materially inverts
    /// between the two attributions (empty = orderings agree).
    pub inversions: Vec<(WallLoss, WallLoss)>,
    /// Whether every what-if points the same way on both sides (no
    /// what-if degrades its baseline, and doubling workers helps both
    /// whenever both have headroom).
    pub whatif_directions_agree: bool,
}

impl ShapeComparison {
    /// True when orderings and what-if directions both agree.
    pub fn agrees(&self) -> bool {
        self.inversions.is_empty() && self.whatif_directions_agree
    }
}

fn normalized(groups: &[(WallLoss, f64)]) -> Vec<(WallLoss, f64)> {
    let total: f64 = groups.iter().map(|(_, v)| v).sum();
    groups
        .iter()
        .map(|(l, v)| (*l, if total > 0.0 { v / total } else { 0.0 }))
        .collect()
}

fn share(groups: &[(WallLoss, f64)], loss: WallLoss) -> f64 {
    groups
        .iter()
        .find(|(l, _)| *l == loss)
        .map_or(0.0, |(_, v)| *v)
}

/// Compare a native profile report against the simulated attribution of
/// the same workload/config. `sim_whatifs` carries the simulator-side
/// projections recomputed by the same re-scheduler contract (improvement
/// must be non-negative; more workers must not hurt).
pub fn compare_shapes(
    report: &ProfileReport,
    simulated: &LossBreakdown,
    sim_whatifs: &WhatIfs,
    sim_baseline: f64,
) -> ShapeComparison {
    let native = normalized(
        &report
            .losses
            .iter()
            .map(|(l, e)| (*l, e.mean))
            .collect::<Vec<_>>(),
    );
    let sim = normalized(&simulated_six_groups(simulated));

    // Ordering agreement over the comparable groups: a material
    // inversion needs BOTH sides to disagree by more than the
    // materiality threshold — ties and noise-level differences pass.
    let mut inversions = Vec::new();
    for (i, &a) in COMPARABLE_GROUPS.iter().enumerate() {
        for &b in &COMPARABLE_GROUPS[i + 1..] {
            let (na, nb) = (share(&native, a), share(&native, b));
            let (sa, sb) = (share(&sim, a), share(&sim, b));
            if na > nb + MATERIAL_SHARE && sb > sa + MATERIAL_SHARE {
                inversions.push((a, b));
            }
            if nb > na + MATERIAL_SHARE && sa > sb + MATERIAL_SHARE {
                inversions.push((b, a));
            }
        }
    }

    // What-if directions: removing overhead or adding workers must not
    // make either attribution slower than its own baseline.
    let eps = 1e-9;
    let native_ok = report.whatif_sync_free.mean >= report.projected.mean - eps
        && report.whatif_copies_free.mean >= report.projected.mean - eps
        && report.whatif_double_workers.mean >= report.projected.mean - eps
        && report.whatif_mispeculation_free.mean >= report.projected.mean - eps;
    let sim_ok = sim_whatifs.sync_free >= sim_baseline - eps
        && sim_whatifs.copies_free >= sim_baseline - eps
        && sim_whatifs.double_workers >= sim_baseline - eps
        && sim_whatifs.mispeculation_free >= sim_baseline - eps;

    ShapeComparison {
        benchmark: report.benchmark.clone(),
        native,
        simulated: sim,
        inversions,
        whatif_directions_agree: native_ok && sim_ok,
    }
}

/// Run the simulated attribution for `workload` on a machine whose core
/// count matches the native pool width (so both ideals line up), and
/// derive the simulator-side what-if projections from the breakdown's
/// marginals.
pub fn simulated_reference<W: Workload>(
    w: &W,
    workers: usize,
    scale: Scale,
    seed: u64,
) -> (LossBreakdown, WhatIfs, f64) {
    let machine = Machine::new(Topology::new(1, workers.max(1)), CostModel::default());
    let cfg = tuned_config(w, 28, scale);
    let b = attribute(w, &machine, cfg, scale, seed);
    let whatifs = WhatIfs {
        sync_free: b.achieved + b.marginal_of(LossCategory::Sync),
        copies_free: b.achieved
            + b.marginal_of(LossCategory::StateCopy)
            + b.marginal_of(LossCategory::OriginalStateGen),
        // The simulator's marginal for "more cores" is the unreachable
        // headroom; doubling workers recovers at most that.
        double_workers: b.achieved,
        mispeculation_free: b.achieved + b.marginal_of(LossCategory::Mispeculation),
    };
    let base = b.achieved;
    (b, whatifs, base)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// The human-readable profile table the CLI prints for
/// `stats profile <bench>`.
pub fn render_profile_table(report: &ProfileReport) -> String {
    let mut out = String::new();
    let first = report.runs.first();
    out.push_str(&format!(
        "causal profile: {} | {} workers, {} chunks, {} seed{}\n",
        report.benchmark,
        report.workers,
        report.config.chunks,
        report.seeds.len(),
        if report.seeds.len() == 1 { "" } else { "s" },
    ));
    out.push_str(&format!(
        "  ideal {:.2}x | projected {:.2}x ± {:.2} | measured {:.2}x ± {:.2} | commit rate {:.0}%\n",
        first.map_or(0.0, |r| r.ideal),
        report.projected.mean,
        report.projected.half_width,
        report.measured.mean,
        report.measured.half_width,
        first.map_or(1.0, |r| r.commit_rate) * 100.0,
    ));
    out.push_str("  speedup lost to:\n");
    let total: f64 = report.losses.iter().map(|(_, e)| e.mean).sum();
    for (loss, est) in &report.losses {
        let share = if total > 0.0 {
            est.mean / total * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {:<18} {:>6.3}x ± {:>5.3}  ({:>5.1}%)\n",
            loss.name(),
            est.mean,
            est.half_width,
            share,
        ));
    }
    out.push_str("  what-if projections:\n");
    out.push_str(&format!(
        "    sync were free     {:>6.2}x ± {:.2}\n    copies were free   {:>6.2}x ± {:.2}\n    2x workers         {:>6.2}x ± {:.2}\n    no mispeculation   {:>6.2}x ± {:.2}\n",
        report.whatif_sync_free.mean,
        report.whatif_sync_free.half_width,
        report.whatif_copies_free.mean,
        report.whatif_copies_free.half_width,
        report.whatif_double_workers.mean,
        report.whatif_double_workers.half_width,
        report.whatif_mispeculation_free.mean,
        report.whatif_mispeculation_free.half_width,
    ));
    let sketches = report.profile.category_sketches();
    if !sketches.is_empty() {
        out.push_str("  span durations (p50 / p90 / p99 ns):\n");
        for (cat, sk) in &sketches {
            out.push_str(&format!(
                "    {:<18} {:>9} / {:>9} / {:>9}  ({} spans)\n",
                cat.name(),
                sk.quantile(0.5).unwrap_or(0),
                sk.quantile(0.9).unwrap_or(0),
                sk.quantile(0.99).unwrap_or(0),
                sk.count(),
            ));
        }
    }
    if let Some(f) = &report.faults {
        out.push_str(&format!(
            "  fault plane:       {} planned | {} injected, {} retries, {} workers lost (first seed)\n",
            f.planned, f.injected, f.retries, f.workers_lost,
        ));
    }
    if !report.parity {
        out.push_str("  WARNING: profiled run diverged from unprofiled run\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FIGURE_SEED;
    use stats_workloads::swaptions::Swaptions;

    #[test]
    fn profile_report_round_trips_on_swaptions() {
        let w = Swaptions::paper();
        let pool = WorkerPool::new(2);
        let report = profile_workload(&w, &pool, Scale(0.1), &[FIGURE_SEED, FIGURE_SEED + 1]);
        assert_eq!(report.benchmark, "swaptions");
        assert_eq!(report.workers, 2);
        assert_eq!(report.runs.len(), 2);
        assert!(report.parity, "profiling must not change the run");
        assert!(report.projected.mean > 0.0);
        assert_eq!(report.losses.len(), 6);
        let json = report.to_json();
        stats_telemetry::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let table = render_profile_table(&report);
        assert!(table.contains("causal profile: swaptions"));
        assert!(table.contains("imbalance"));
        assert!(table.contains("what-if"));
    }

    #[test]
    fn faulted_profile_reports_the_fault_plane_and_keeps_parity() {
        let w = Swaptions::paper();
        let pool = WorkerPool::new(2);
        let scale = Scale(0.05);
        let cfg = tuned_config(&w, 28, scale);
        let plan = FaultPlan::seeded(9, 4, &cfg, scale.inputs_for(&w));
        let report = profile_workload_faulted(&w, &pool, scale, &[FIGURE_SEED], cfg, &plan);
        assert!(
            report.parity,
            "faulted profiling must stay observation-only"
        );
        let f = report
            .faults
            .expect("a seeded plan reports its fault plane");
        assert_eq!(f.planned, 4);
        let json = report.to_json();
        stats_telemetry::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"faults\":{"));
        let table = render_profile_table(&report);
        assert!(table.contains("fault plane:"), "{table}");
        // A fault-free profile carries no fault object.
        let clean = profile_workload(&w, &pool, scale, &[FIGURE_SEED]);
        assert_eq!(clean.faults, None);
    }

    #[test]
    fn shape_comparison_has_no_self_inversions() {
        let w = Swaptions::paper();
        let pool = WorkerPool::new(2);
        let report = profile_workload(&w, &pool, Scale(0.1), &[FIGURE_SEED]);
        let (sim, whatifs, base) = simulated_reference(&w, 2, Scale(0.1), FIGURE_SEED);
        let cmp = compare_shapes(&report, &sim, &whatifs, base);
        assert!(
            cmp.agrees(),
            "swaptions shape must agree: inversions {:?}, native {:?}, simulated {:?}",
            cmp.inversions,
            cmp.native,
            cmp.simulated
        );
    }
}

//! Every metric the benchmark reports, by name.
//!
//! `BENCHMARK.json` at the root of the repo lists the same names; a test
//! keeps the two in step.

use crate::stats::{Better, Spread, Summary};
use std::collections::BTreeMap;

/// Whether a metric is what a user of the system sees or the cost of one
/// layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Gated: may worsen by at most `bound` (a share of the baseline's
    /// median) before a change counts as a regression.
    EndToEnd {
        bound: f64,
    },
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// A count the program makes that must repeat bit for bit for one
    /// seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric here and to `--compare`, where any increase is a
/// regression. `BENCHMARK.json` lists it with the per-layer metrics: a
/// bound there is a share of the baseline's median, and this one is zero
/// on a healthy run.
pub const FAILED_SHARE: &str = "failed_share";

pub const METRICS: &[Metric] = &[
    e2e("inputs_per_s", "inputs/s", Higher, 0.08),
    e2e("speedup_vs_seq", "ratio", Higher, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e(FAILED_SHARE, "share", Lower, 0.0),
    // workloads
    layer("workloads.update_ns", "ns", Lower),
    layer("workloads.states_match_ns", "ns", Lower),
    layer("workloads.state_clone_ns", "ns", Lower),
    layer("workloads.generate_inputs_ms", "ms", Lower),
    // core::runtime::sequential
    layer("sequential.run_ms", "ms", Lower),
    layer("sequential.run_iqr_pct", "pct", Lower),
    // core::speculation
    layer("speculation.run_ms", "ms", Lower),
    exact("speculation.commit_rate", "ratio", Higher),
    exact("speculation.extra_work_ratio", "ratio", Lower),
    // core::rng
    layer("rng.derive_ns", "ns", Lower),
    layer("rng.unit_ns", "ns", Lower),
    // core::planner
    layer("planner.plan_balanced_ns", "ns", Lower),
    // core::snapshot
    layer("snapshot.cow_fork_ns", "ns", Lower),
    layer("snapshot.cow_make_mut_ns", "ns", Lower),
    exact("snapshot.bytes_logical", "bytes", Lower),
    exact("snapshot.bytes_copied", "bytes", Lower),
    // core::runtime::pool
    layer("pool.new_drop_us", "us", Lower),
    layer("pool.empty_task_ns", "ns", Lower),
    layer("pool.spawn_to_start_ns_p50", "ns", Lower),
    layer("pool.spawn_to_start_ns_p99", "ns", Lower),
    layer("pool.urgent_overtake_ns_p50", "ns", Lower),
    layer("pool.scope_roundtrip_ns", "ns", Lower),
    layer("pool.state_recycle_ns", "ns", Lower),
    layer("pool.busy_ms", "ms", Lower),
    layer("pool.idle_ms", "ms", Lower),
    layer("pool.utilization", "ratio", Higher),
    // vendor/crossbeam channel
    layer("channel.create_ns", "ns", Lower),
    layer("channel.same_thread_ns", "ns", Lower),
    layer("channel.hop_ns", "ns", Lower),
    // core::runtime::threaded
    layer("threaded.run_ms_p50", "ms", Lower),
    layer("threaded.run_ms_tail", "ms", Lower),
    layer("threaded.tail_percentile", "pct", Higher),
    layer("threaded.runs", "count", Higher),
    layer("threaded.w1_run_ms", "ms", Lower),
    layer("threaded.protocol_overhead_ms", "ms", Lower),
    layer("threaded.overhead_per_chunk_us", "us", Lower),
    layer("threaded.scaling_efficiency", "ratio", Higher),
    layer("threaded.cpu_ms_per_run", "ms", Lower),
    layer("threaded.setup_ms", "ms", Lower),
    layer("threaded.alt_producer_ms", "ms", Lower),
    layer("threaded.original_state_gen_ms", "ms", Lower),
    layer("threaded.state_comparison_ms", "ms", Lower),
    layer("threaded.state_copy_ms", "ms", Lower),
    layer("threaded.sync_ms", "ms", Lower),
    layer("threaded.chunk_compute_ms", "ms", Lower),
    layer("threaded.aborted_compute_ms", "ms", Lower),
    layer("threaded.commit_ms", "ms", Lower),
    layer("threaded.unattributed_ms", "ms", Lower),
    exact("threaded.chunks_committed", "count", Higher),
    exact("threaded.chunks_aborted", "count", Lower),
    exact("threaded.reruns", "count", Lower),
    exact("threaded.rerun_segments", "count", Lower),
    exact("threaded.spec_candidates", "count", Lower),
    exact("threaded.candidate_hits", "count", Higher),
    exact("threaded.replicas_validated", "count", Lower),
    exact("threaded.state_copies", "count", Lower),
    exact("threaded.state_comparisons", "count", Lower),
    // core::fault
    layer("fault.plan_seeded_us", "us", Lower),
    layer("fault.fires_miss_ns", "ns", Lower),
    exact("fault.faults_injected", "count", Lower),
    exact("fault.retries_scheduled", "count", Lower),
    exact("fault.workers_lost", "count", Lower),
    // telemetry
    layer("telemetry.counter_add_ns", "ns", Lower),
    layer("telemetry.span_record_ns", "ns", Lower),
    layer("telemetry.event_ns", "ns", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("telemetry.spans_recorded", "count", Lower),
    layer("telemetry.spans_dropped", "count", Lower),
    layer("telemetry.traced_overhead_pct", "pct", Lower),
    // core::runtime::simulated, platform, trace
    layer("simulated.run_ms_p50", "ms", Lower),
    layer("simulated.run_ms_tail", "ms", Lower),
    layer("simulated.graph_build_ms", "ms", Lower),
    exact("simulated.graph_tasks", "count", Lower),
    layer("platform.execute_ms", "ms", Lower),
    layer("platform.tasks_per_s", "1/s", Higher),
    layer("simulated.report_ms", "ms", Lower),
    exact("simulated.sim_speedup", "ratio", Higher),
    // host
    layer("host.nproc", "count", Higher),
    layer("host.parallel_capacity", "ratio", Higher),
    layer("host.blocks_discarded", "count", Lower),
];

pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
}

pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.kind == Kind::PerLayer)
}

/// The `per_layer` list of `BENCHMARK.json` (`traced`) or its
/// `end_to_end` list, which are also the metrics the last line of a
/// traced and of an untraced process carries.
pub fn listed(traced: bool) -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(move |m| (m.kind == Kind::PerLayer || m.name == FAILED_SHARE) == traced)
}

/// One measured metric: the value reported, and the spread behind it when
/// it is the median of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Spread,
    pub n: usize,
}

/// What one process measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Readings(BTreeMap<&'static str, Reading>);

impl Readings {
    /// A single measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Reading {
                value,
                spread: Spread {
                    median: value,
                    q1: value,
                    q3: value,
                },
                n: 1,
            },
        );
    }

    /// The median of samples, with their quartiles.
    pub fn set_summary(&mut self, name: &'static str, s: &Summary) {
        self.insert(
            name,
            Reading {
                value: s.median,
                spread: Spread {
                    median: s.median,
                    q1: s.q1,
                    q3: s.q3,
                },
                n: s.n,
            },
        );
    }

    fn insert(&mut self, name: &'static str, reading: Reading) {
        let known = lookup(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        let prior = self.0.insert(known.name, reading);
        assert!(prior.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .value
    }

    /// Layer metrics of layers this workload's runs do not pass through
    /// read zero.
    pub fn zero_unset(&mut self, metrics: impl Iterator<Item = &'static Metric>) {
        for m in metrics {
            if !self.0.contains_key(m.name) {
                self.set(m.name, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(well_formed(m.name, 64, "_.-"), "name {:?}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(m.unit, 16, "_/%.-"), "unit {:?}", m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            if let Kind::EndToEnd { bound } = m.kind {
                assert!((0.0..=0.25).contains(&bound));
            }
        }
        assert!(listed(false).count() <= 16);
        assert!(listed(true).count() <= 128);
        assert!(crate::workloads::NAMES.len() <= 8);
    }

    fn in_file(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        adapter::json_validate(text).expect("BENCHMARK.json is JSON");
        let doc = json::parse(text).unwrap();
        let ours = |traced: bool| -> Vec<_> {
            listed(traced)
                .map(|m| {
                    let bound = match m.kind {
                        Kind::EndToEnd { bound } if !traced => Some(bound),
                        _ => None,
                    };
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bound,
                    )
                })
                .collect()
        };
        assert_eq!(in_file(&doc, "end_to_end"), ours(false));
        assert_eq!(in_file(&doc, "per_layer"), ours(true));
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn readings_reject_unknown_and_repeated_names() {
        let mut r = Readings::default();
        r.set("host.nproc", 2.0);
        assert_eq!(r.value("host.nproc"), 2.0);
        assert!(std::panic::catch_unwind(move || r.set("host.nproc", 3.0)).is_err());
        let mut r = Readings::default();
        assert!(std::panic::catch_unwind(move || r.set("no.such.metric", 1.0)).is_err());
    }
}

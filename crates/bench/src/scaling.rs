//! Scaling experiments for the paper's §I headline claims:
//!
//! * "This new source of TLP increases with the size of the input and it
//!   has the potential to generate scalable performance with the number
//!   of cores."
//!
//! The paper's evaluation fixes the input scale and two core counts; this
//! module sweeps both axes, the natural extension experiment.

use crate::pipeline::{clamp_config, run_benchmark, tuned_config, Scale, FIGURE_SEED};
use crate::render::{f2, TextTable};
use serde::{Deserialize, Serialize};
use stats_core::Config;
use stats_platform::{CostModel, Machine, Topology};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

/// Speedups across an axis sweep for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `(axis value, speedup)` samples.
    pub samples: Vec<(f64, f64)>,
}

impl ScalingRow {
    /// Ratio of the last sample's speedup to the first's.
    pub fn growth(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(&(_, a)), Some(&(_, b))) if a > 0.0 => b / a,
            _ => 1.0,
        }
    }
}

/// Sweep the input scale at 28 cores under each benchmark's tuned
/// configuration (STATS TLP only, so the effect is pure).
pub fn input_scaling(scales: &[f64]) -> Vec<ScalingRow> {
    struct V<'a> {
        scales: &'a [f64],
    }
    impl WorkloadVisitor for V<'_> {
        type Output = ScalingRow;
        fn visit<W: Workload>(self, w: &W) -> ScalingRow {
            let machine = Machine::paper_machine();
            let samples = self
                .scales
                .iter()
                .map(|&x| {
                    let scale = Scale(x);
                    let mut cfg = tuned_config(w, 28, scale);
                    cfg.combine_inner_tlp = false;
                    let report = run_benchmark(w, &machine, cfg, scale, FIGURE_SEED);
                    (x, report.speedup())
                })
                .collect();
            ScalingRow {
                benchmark: w.name().to_string(),
                samples,
            }
        }
    }
    BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, V { scales }))
        .collect()
}

/// Sweep the core count at native input scale, re-tuning the chunk count
/// to one chunk per core (the configuration STATS would generate for each
/// machine).
pub fn core_scaling(core_counts: &[usize]) -> Vec<ScalingRow> {
    struct V<'a> {
        cores: &'a [usize],
    }
    impl WorkloadVisitor for V<'_> {
        type Output = ScalingRow;
        fn visit<W: Workload>(self, w: &W) -> ScalingRow {
            let scale = Scale(1.0);
            let n = scale.inputs_for(w);
            let samples = self
                .cores
                .iter()
                .map(|&cores| {
                    // Model machines as multiples of 14-core sockets.
                    let sockets = cores.div_ceil(14).max(1);
                    let per_socket = cores / sockets;
                    let machine = Machine::new(
                        Topology::new(sockets, per_socket.max(1)),
                        CostModel::default(),
                    );
                    let tuned = tuned_config(w, cores, scale);
                    let cfg = clamp_config(
                        Config {
                            chunks: tuned.chunks.max(per_socket * sockets).min(2 * cores),
                            ..tuned
                        },
                        n,
                    );
                    let report = run_benchmark(w, &machine, cfg, scale, FIGURE_SEED);
                    (cores as f64, report.speedup())
                })
                .collect();
            ScalingRow {
                benchmark: w.name().to_string(),
                samples,
            }
        }
    }
    BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, V { cores: core_counts }))
        .collect()
}

fn render_rows(title: &str, axis: &str, rows: &[ScalingRow]) -> String {
    let mut header = vec!["Benchmark".to_string()];
    if let Some(first) = rows.first() {
        for (x, _) in &first.samples {
            header.push(format!("{axis}={x}"));
        }
    }
    header.push("growth".to_string());
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        for (_, s) in &r.samples {
            cells.push(f2(*s));
        }
        cells.push(format!("{:.2}x", r.growth()));
        t.row(cells);
    }
    format!("{title}\n\n{}", t.render())
}

/// Render both sweeps.
pub fn render() -> String {
    format!(
        "{}\n{}",
        render_rows(
            "Scaling with input size (STATS TLP, 28 cores; §I's claim that \
             the new TLP grows with the input)",
            "scale",
            &input_scaling(&[0.125, 0.25, 0.5, 1.0]),
        ),
        render_rows(
            "Scaling with core count (native inputs, one chunk per core)",
            "cores",
            &core_scaling(&[7, 14, 28, 56]),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether speedup is non-decreasing along the axis (within `slack`).
    fn is_monotone(row: &ScalingRow, slack: f64) -> bool {
        row.samples.windows(2).all(|w| w[1].1 >= w[0].1 - slack)
    }

    #[test]
    fn speedup_grows_with_input_size() {
        let rows = input_scaling(&[0.1, 0.4, 1.0]);
        let growing = rows.iter().filter(|r| r.growth() > 1.1).count();
        assert!(
            growing >= 5,
            "input-size scaling held for only {growing}/6 benchmarks: {rows:?}"
        );
    }

    #[test]
    fn speedup_grows_with_cores_for_short_memory_benchmarks() {
        let rows = core_scaling(&[7, 28]);
        for name in ["swaptions", "streamcluster", "streamclassifier"] {
            let r = rows.iter().find(|r| r.benchmark == name).unwrap();
            assert!(
                r.growth() > 1.5,
                "{name} should scale with cores: {:?}",
                r.samples
            );
        }
    }

    #[test]
    fn input_scaling_is_roughly_monotone() {
        // "Roughly": the tracking benchmarks' abort patterns are seed- and
        // size-dependent, and a mispeculation burst at one input size can
        // cost a couple of speedup points, so the slack is generous.
        let rows = input_scaling(&[0.125, 0.5, 1.0]);
        for r in &rows {
            assert!(
                is_monotone(r, 2.5),
                "{}: speedup regressed along input size: {:?}",
                r.benchmark,
                r.samples
            );
        }
    }
}

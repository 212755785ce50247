//! Shared experiment plumbing: scales, machines, and standard runs.

use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::{Config, RunReport};
use stats_platform::{CostModel, Machine, Topology};
use stats_workloads::Workload;

/// Input-scale knob: figures run at native scale (1.0); integration tests
/// use a fraction to stay fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Full paper scale.
    pub const NATIVE: Scale = Scale(1.0);

    /// Number of inputs for a workload at this scale (at least 64 so every
    /// tuned configuration stays valid).
    pub fn inputs_for<W: Workload>(&self, workload: &W) -> usize {
        ((workload.native_input_count() as f64 * self.0) as usize).max(64)
    }
}

/// The machines every experiment runs on.
#[derive(Debug, Clone)]
pub struct Machines {
    /// The paper's full machine: 2 × 14 cores.
    pub cores28: Machine,
    /// One socket: 14 cores.
    pub cores14: Machine,
}

impl Machines {
    /// The paper's platform with default costs.
    pub fn paper() -> Self {
        Machines {
            cores28: Machine::new(Topology::paper_machine(), CostModel::default()),
            cores14: Machine::new(Topology::paper_single_socket(), CostModel::default()),
        }
    }
}

/// Master seed used by all figures (reruns reproduce identical tables).
pub const FIGURE_SEED: u64 = 0x5747_5175;

/// Run one benchmark under its tuned configuration (optionally overridden)
/// on the given machine and return the full report.
pub fn run_benchmark<W: Workload>(
    workload: &W,
    machine: &Machine,
    config: Config,
    scale: Scale,
    seed: u64,
) -> RunReport<W::Output> {
    let n = scale.inputs_for(workload);
    let inputs = workload.generate_inputs(n, seed);
    let rt = SimulatedRuntime::new(machine.clone());
    rt.run(
        workload.name(),
        workload,
        &inputs,
        config,
        workload.inner_parallelism(),
        seed,
    )
    .expect("generated graphs are acyclic")
}

/// Clamp a configuration's chunk count so it stays valid for `inputs`
/// inputs (small test scales shrink the stream below some tuned chunk
/// counts).
pub fn clamp_config(mut config: Config, inputs: usize) -> Config {
    while config.validate(inputs).is_err() && config.chunks > 1 {
        config.chunks -= 1;
        if config.chunks > 1 && config.lookback > inputs / config.chunks {
            config.lookback = (inputs / config.chunks).max(1);
        }
    }
    if config.chunks == 1 {
        config.lookback = 0;
        config.extra_states = 0;
    }
    config
}

/// The tuned configuration of a workload at a scale (clamped to validity).
pub fn tuned_config<W: Workload>(workload: &W, cores: usize, scale: Scale) -> Config {
    let n = scale.inputs_for(workload);
    clamp_config(workload.tuned_config(cores), n)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floors_input_count() {
        struct Fake;
        // Minimal workload stub is overkill; use a real one.
        let w = stats_workloads::swaptions::Swaptions::paper();
        let _ = Fake;
        assert_eq!(Scale(1.0).inputs_for(&w), 2_000);
        assert_eq!(Scale(0.1).inputs_for(&w), 200);
        assert_eq!(Scale(0.0001).inputs_for(&w), 64);
    }

    #[test]
    fn clamp_keeps_configs_valid() {
        let cfg = Config::stats_only(56, 8, 2);
        let clamped = clamp_config(cfg, 70);
        assert!(clamped.validate(70).is_ok());
        assert!(clamped.chunks <= 56);
        // Already-valid configs are untouched.
        let ok = Config::stats_only(4, 8, 2);
        assert_eq!(clamp_config(ok, 560), ok);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn run_benchmark_produces_speedup() {
        let w = stats_workloads::swaptions::Swaptions::paper();
        let machines = Machines::paper();
        let scale = Scale(0.15);
        let cfg = tuned_config(&w, 28, scale);
        let report = run_benchmark(&w, &machines.cores28, cfg, scale, FIGURE_SEED);
        assert!(report.speedup() > 2.0, "speedup {}", report.speedup());
    }
}

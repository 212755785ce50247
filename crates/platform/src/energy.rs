//! Energy modeling for simulated executions.
//!
//! The STATS profiler "collects profiling information such as execution
//! time and energy consumption of the program" (§II-C), and the paper's
//! processors have "a peak power consumption of 120W" per 14-core socket
//! (§IV-A). This module estimates energy from a trace: busy cycles burn
//! active power, the remaining core-cycles burn idle power, and the
//! package pays a constant uncore power for the duration of the run.

use crate::Topology;
use serde::{Deserialize, Serialize};
use stats_trace::Trace;

/// A simple CMP power model.
///
/// ```
/// use stats_platform::{EnergyModel, Topology};
/// use stats_trace::{Category, Cycles, ThreadId, TraceBuilder};
///
/// let mut b = TraceBuilder::new("demo");
/// b.push(ThreadId(0), Category::ChunkCompute, Cycles(0), Cycles(2_300_000), 0);
/// let trace = b.finish().unwrap();
/// let model = EnergyModel::paper_machine();
/// // One core busy for 1 ms on the paper machine burns well under a joule.
/// let joules = model.energy_joules(&trace, &Topology::paper_machine());
/// assert!(joules > 0.0 && joules < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Core clock in Hz (the paper's machine: 2.3 GHz).
    pub frequency_hz: f64,
    /// Active power per busy core, in watts.
    pub active_watts_per_core: f64,
    /// Idle power per core, in watts.
    pub idle_watts_per_core: f64,
    /// Constant package/uncore power per socket, in watts.
    pub uncore_watts_per_socket: f64,
}

impl EnergyModel {
    /// The paper machine: 120 W peak per 14-core socket at 2.3 GHz,
    /// split as ~6 W active per core, ~1 W idle, ~22 W uncore.
    pub fn paper_machine() -> Self {
        EnergyModel {
            frequency_hz: 2.3e9,
            active_watts_per_core: 6.0,
            idle_watts_per_core: 1.0,
            uncore_watts_per_socket: 22.0,
        }
    }

    /// Peak power of a machine under this model, in watts.
    pub fn peak_watts(&self, topology: &Topology) -> f64 {
        topology.total_cores() as f64 * self.active_watts_per_core
            + topology.sockets() as f64 * self.uncore_watts_per_socket
    }

    /// Estimated energy of a trace executed on `topology`, in joules.
    ///
    /// Busy core-cycles come from the trace's spans; every remaining
    /// core-cycle up to `cores × makespan` idles.
    pub fn energy_joules(&self, trace: &Trace, topology: &Topology) -> f64 {
        let makespan = trace.makespan().get() as f64;
        if makespan == 0.0 {
            return 0.0;
        }
        let busy: f64 = trace
            .spans()
            .iter()
            .map(|s| s.duration().get() as f64)
            .sum();
        let cores = topology.total_cores() as f64;
        let busy = busy.min(cores * makespan);
        let idle = cores * makespan - busy;
        let seconds_per_cycle = 1.0 / self.frequency_hz;
        let core_energy = (busy * self.active_watts_per_core + idle * self.idle_watts_per_core)
            * seconds_per_cycle;
        let uncore_energy =
            topology.sockets() as f64 * self.uncore_watts_per_socket * makespan * seconds_per_cycle;
        core_energy + uncore_energy
    }

    /// Energy–delay product in joule-seconds (a common autotuner
    /// objective alongside plain runtime).
    pub fn energy_delay(&self, trace: &Trace, topology: &Topology) -> f64 {
        let seconds = trace.makespan().get() as f64 / self.frequency_hz;
        self.energy_joules(trace, topology) * seconds
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_trace::{Category, Cycles, ThreadId, TraceBuilder};

    fn trace(busy_threads: usize, cycles: u64) -> Trace {
        let mut b = TraceBuilder::new("energy");
        for i in 0..busy_threads {
            b.push(
                ThreadId(i),
                Category::ChunkCompute,
                Cycles(0),
                Cycles(cycles),
                0,
            );
        }
        b.finish().unwrap()
    }

    #[test]
    fn peak_power_is_paper_scale() {
        let m = EnergyModel::paper_machine();
        let peak = m.peak_watts(&Topology::paper_machine());
        // Two 120 W sockets.
        assert!(peak > 180.0 && peak < 260.0, "peak {peak}");
    }

    #[test]
    fn busier_machines_burn_more_energy() {
        let m = EnergyModel::paper_machine();
        let topo = Topology::paper_machine();
        let light = m.energy_joules(&trace(1, 1_000_000), &topo);
        let heavy = m.energy_joules(&trace(28, 1_000_000), &topo);
        assert!(heavy > light, "{heavy} vs {light}");
        // Same makespan: difference is purely active-vs-idle core power.
        let per_core = (heavy - light) / 27.0 / (1_000_000.0 / m.frequency_hz);
        assert!((per_core - (m.active_watts_per_core - m.idle_watts_per_core)).abs() < 1e-6);
    }

    #[test]
    fn faster_runs_use_less_energy_at_equal_work() {
        // The same busy cycles spread over half the makespan: idle and
        // uncore energy shrink.
        let m = EnergyModel::paper_machine();
        let topo = Topology::paper_machine();
        let serial = m.energy_joules(&trace(1, 2_000_000), &topo);
        let parallel = m.energy_joules(&trace(2, 1_000_000), &topo);
        assert!(parallel < serial, "{parallel} vs {serial}");
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let m = EnergyModel::paper_machine();
        let t = TraceBuilder::new("empty").finish().unwrap();
        assert_eq!(m.energy_joules(&t, &Topology::paper_machine()), 0.0);
    }

    #[test]
    fn energy_delay_scales_with_time_squared() {
        let m = EnergyModel::paper_machine();
        let topo = Topology::paper_single_socket();
        let short = m.energy_delay(&trace(14, 1_000_000), &topo);
        let long = m.energy_delay(&trace(14, 2_000_000), &topo);
        assert!((long / short - 4.0).abs() < 0.01, "ratio {}", long / short);
    }
}

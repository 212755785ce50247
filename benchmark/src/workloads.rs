//! The four workloads. Their names are fixed: later issues refer to them.

use crate::adapter::{self, Workload};
use crate::harness::{Case, Path};
use crate::micro::FAULT_INJECTIONS;

pub const NAMES: [&str; 4] = [
    "compute-bound",
    "protocol-bound",
    "recovery-path",
    "simulated-path",
];

/// The machine the checked-in tuned configurations were tuned for (the
/// paper's 28 cores); chunk counts follow it, not the host.
const TUNED_FOR_CORES: usize = 28;

/// Something to do with a workload once its type is known.
pub trait Visitor {
    type Out;
    fn visit<W: Workload>(self, w: &W, case: Case) -> Self::Out
    where
        W::Output: PartialEq + Clone;
}

/// The expected-file text of `name`, checked in under `expected/`.
pub fn expected(name: &str) -> Option<&'static str> {
    Some(match name {
        "compute-bound" => include_str!("../expected/compute-bound.json"),
        "protocol-bound" => include_str!("../expected/protocol-bound.json"),
        "recovery-path" => include_str!("../expected/recovery-path.json"),
        "simulated-path" => include_str!("../expected/simulated-path.json"),
        _ => return None,
    })
}

/// Build the workload `name` and hand it to `visitor`; `None` for a name
/// that is not one of [`NAMES`].
pub fn dispatch<V: Visitor>(name: &str, visitor: V) -> Option<V::Out> {
    Some(match name {
        // The Fig. 9 case: `update` plus the protocol's extra computation
        // is over 99 % of the wall, so a pool, channel, snapshot or
        // telemetry change must not move it.
        "compute-bound" => {
            let w = adapter::swaptions();
            let case = Case {
                name: NAMES[0],
                inputs: 2_000,
                config: adapter::tuned_config(&w, TUNED_FOR_CORES),
                path: Path::Threaded,
            };
            visitor.visit(&w, case)
        }
        // The same runtime with the kernel made small: five inputs to a
        // chunk, so coordinator, pool wake-up and channel time decide it.
        "protocol-bound" => {
            let case = Case {
                name: NAMES[1],
                inputs: 2_800,
                config: adapter::stats_only(560, 2, 1),
                path: Path::Threaded,
            };
            visitor.visit(&adapter::stream_classifier(), case)
        }
        // The pool and coordinator through their other entrances: urgent
        // lane, retry with back-off, worker death and revival, pool
        // construction and teardown, breadth candidates, overlapped rerun
        // segments.
        "recovery-path" => {
            let case = Case {
                name: NAMES[2],
                inputs: 1_050,
                config: adapter::with_breadth_and_overlap(adapter::stats_only(140, 2, 1), 2),
                path: Path::Recovery {
                    injections: FAULT_INJECTIONS,
                },
            };
            visitor.visit(&adapter::face_det_and_track(), case)
        }
        // What `stats run`, `stats figures` and every autotuner evaluation
        // execute: speculation, graph lowering, discrete-event execution
        // and the trace, with no thread spawned.
        "simulated-path" => {
            let w = adapter::stream_cluster();
            let case = Case {
                name: NAMES[3],
                inputs: 2_800,
                config: adapter::tuned_config(&w, TUNED_FOR_CORES),
                path: Path::Simulated,
            };
            visitor.visit(&w, case)
        }
        _ => return None,
    })
}

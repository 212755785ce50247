//! The sequential reference executor.

use crate::dependence::{StateDependence, UpdateCost};
use crate::rng::{StatsRng, StreamRole};

/// The result of a plain sequential execution.
#[derive(Debug, Clone)]
pub struct SequentialRun<S, O> {
    /// Per-input outputs, in order.
    pub outputs: Vec<O>,
    /// The final computational state.
    pub final_state: S,
    /// Total cost across all updates.
    pub cost: UpdateCost,
    /// Per-input costs (used for weighted chunk planning and baselines).
    pub per_input_costs: Vec<UpdateCost>,
}

/// Run the workload sequentially over `inputs` with the given master seed.
///
/// This is the program as originally written: one state, one dependence
/// chain, outputs in input order.
///
/// ```
/// # use stats_core::{StateDependence, UpdateCost, StatsRng};
/// # use stats_core::runtime::sequential::run_sequential;
/// # struct W;
/// # impl StateDependence for W {
/// #     type State = u64; type Input = u64; type Output = u64;
/// #     fn fresh_state(&self) -> u64 { 0 }
/// #     fn update(&self, s: &mut u64, i: &u64, _rng: &mut StatsRng) -> (u64, UpdateCost) {
/// #         *s += i; (*s, UpdateCost::with_work(1))
/// #     }
/// #     fn states_match(&self, a: &u64, b: &u64) -> bool { a == b }
/// #     fn state_bytes(&self) -> usize { 8 }
/// # }
/// let run = run_sequential(&W, &[1, 2, 3], 0);
/// assert_eq!(run.outputs, vec![1, 3, 6]);
/// assert_eq!(run.cost.work, 3);
/// ```
pub fn run_sequential<W: StateDependence>(
    workload: &W,
    inputs: &[W::Input],
    master_seed: u64,
) -> SequentialRun<W::State, W::Output> {
    let mut rng = StatsRng::derive(master_seed, StreamRole::Sequential);
    let mut state = workload.fresh_state();
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut per_input_costs = Vec::with_capacity(inputs.len());
    let mut cost = UpdateCost::default();
    for input in inputs {
        let (out, c) = workload.update(&mut state, input, &mut rng);
        outputs.push(out);
        per_input_costs.push(c);
        cost = cost + c;
    }
    SequentialRun {
        outputs,
        final_state: state,
        cost,
        per_input_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;
    impl StateDependence for Sum {
        type State = i64;
        type Input = i64;
        type Output = i64;
        fn fresh_state(&self) -> i64 {
            0
        }
        fn update(&self, s: &mut i64, i: &i64, _rng: &mut StatsRng) -> (i64, UpdateCost) {
            *s += i;
            (*s, UpdateCost::new(10, 20))
        }
        fn states_match(&self, a: &i64, b: &i64) -> bool {
            a == b
        }
        fn state_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn computes_prefix_sums() {
        let run = run_sequential(&Sum, &[1, 2, 3, 4], 0);
        assert_eq!(run.outputs, vec![1, 3, 6, 10]);
        assert_eq!(run.final_state, 10);
        assert_eq!(run.cost.work, 40);
        assert_eq!(run.cost.instructions, 80);
        assert_eq!(run.per_input_costs.len(), 4);
    }

    #[test]
    fn empty_input_is_fine() {
        let run = run_sequential(&Sum, &[], 0);
        assert!(run.outputs.is_empty());
        assert_eq!(run.final_state, 0);
        assert_eq!(run.cost, UpdateCost::default());
    }
}

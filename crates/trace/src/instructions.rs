//! Instruction accounting for the paper's Figs. 14–15.

use crate::{Category, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Committed-instruction accounting for one execution, split by category.
///
/// The paper's Fig. 14 reports "the total amount of extra work performed in
/// terms of number of instructions executed at run time" relative to the
/// original program, and Fig. 15 breaks the extra instructions into the
/// §III-B components. [`InstructionBreakdown`] holds the per-category
/// counts both are computed from.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InstructionBreakdown {
    per_category: BTreeMap<Category, u64>,
}

impl InstructionBreakdown {
    /// Build from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        InstructionBreakdown {
            per_category: trace.instructions_by_category(),
        }
    }

    /// Instructions attributed to `category`.
    pub fn get(&self, category: Category) -> u64 {
        self.per_category.get(&category).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycles, ThreadId, TraceBuilder};

    fn trace() -> Trace {
        let mut b = TraceBuilder::new("instr");
        b.push(
            ThreadId(0),
            Category::ChunkCompute,
            Cycles(0),
            Cycles(10),
            1_000,
        );
        b.push(
            ThreadId(0),
            Category::StateCopy,
            Cycles(10),
            Cycles(20),
            300,
        );
        b.push(
            ThreadId(1),
            Category::AltProducer,
            Cycles(0),
            Cycles(10),
            200,
        );
        b.finish().unwrap()
    }

    #[test]
    fn counts_per_category() {
        let ib = InstructionBreakdown::from_trace(&trace());
        assert_eq!(ib.get(Category::StateCopy), 300);
        assert_eq!(ib.get(Category::AltProducer), 200);
        assert_eq!(ib.get(Category::ChunkCompute), 1_000);
        assert_eq!(ib.get(Category::Setup), 0);
    }
}

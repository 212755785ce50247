//! Task graphs: the unit of work the machine schedules.

use serde::{Deserialize, Serialize};
use stats_trace::{Category, Cycles, ThreadId};
use std::fmt;

/// Identifier of a task within one [`TaskGraph`], dense in insertion order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// One schedulable unit: a run-to-completion activity on a logical thread.
///
/// Tasks on the same logical thread execute in insertion order (program
/// order); cross-thread ordering is expressed with explicit dependencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Identity within the graph.
    pub id: TaskId,
    /// Logical thread the task belongs to.
    pub thread: ThreadId,
    /// Activity category (drives overhead attribution).
    pub category: Category,
    /// Duration in virtual cycles.
    pub duration: Cycles,
    /// Committed instructions attributed to this task.
    pub instructions: u64,
    /// Cross-thread dependencies: tasks that must finish before this one
    /// starts. Same-thread predecessors are implicit.
    pub deps: Vec<TaskId>,
    /// Optional label propagated to the trace (e.g. `"chunk 3"`).
    pub label: Option<String>,
}

/// A dependency graph of [`Task`]s plus implicit per-thread program order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Create an empty graph for the named scenario.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a task with no instruction count and no label.
    pub fn task(&mut self, thread: ThreadId, category: Category, duration: Cycles) -> TaskId {
        self.task_full(thread, category, duration, 0, Vec::new(), None)
    }

    /// Append a fully specified task.
    pub fn task_full(
        &mut self,
        thread: ThreadId,
        category: Category,
        duration: Cycles,
        instructions: u64,
        deps: Vec<TaskId>,
        label: Option<String>,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            id,
            thread,
            category,
            duration,
            instructions,
            deps,
            label,
        });
        id
    }

    /// Add a dependency: `to` waits for `from`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn depend(&mut self, from: TaskId, to: TaskId) {
        assert!(from.0 < self.tasks.len(), "unknown task {from}");
        assert!(to.0 < self.tasks.len(), "unknown task {to}");
        self.tasks[to.0].deps.push(from);
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Look up one task.
    pub fn get(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of distinct logical threads used.
    pub fn thread_count(&self) -> usize {
        let mut ids: Vec<_> = self.tasks.iter().map(|t| t.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Sum of all task durations: the single-core lower bound.
    pub fn total_work(&self) -> Cycles {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// A copy of this graph with every task in `category` shrunk to zero
    /// duration and zero instructions.
    ///
    /// This is the paper's what-if emulation (§V-B): "we emulate the
    /// parallel execution removing only the part of the overhead targeted".
    /// Dependencies are preserved so ordering semantics are unchanged; only
    /// time is removed.
    pub fn without_category(&self, category: Category) -> TaskGraph {
        let mut g = self.clone();
        g.name = format!("{} (without {category})", self.name);
        for t in &mut g.tasks {
            if t.category == category {
                t.duration = Cycles::ZERO;
                t.instructions = 0;
            }
        }
        g
    }

    /// A copy with the durations of tasks selected by `predicate` replaced
    /// by `f(old)`. Used for balance what-ifs and cost-model ablations.
    pub fn map_durations(
        &self,
        predicate: impl Fn(&Task) -> bool,
        f: impl Fn(Cycles) -> Cycles,
    ) -> TaskGraph {
        let mut g = self.clone();
        for t in &mut g.tasks {
            if predicate(t) {
                t.duration = f(t.duration);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append a task with an instruction count.
    fn task_instr(
        g: &mut TaskGraph,
        thread: ThreadId,
        category: Category,
        duration: Cycles,
        instructions: u64,
    ) -> TaskId {
        g.task_full(thread, category, duration, instructions, Vec::new(), None)
    }

    #[test]
    fn build_and_inspect() {
        let mut g = TaskGraph::new("t");
        let a = g.task(ThreadId(0), Category::Setup, Cycles(5));
        let b = task_instr(&mut g, ThreadId(1), Category::ChunkCompute, Cycles(10), 7);
        g.depend(a, b);
        assert_eq!(g.len(), 2);
        assert_eq!(g.thread_count(), 2);
        assert_eq!(g.total_work(), Cycles(15));
        assert_eq!(g.get(b).deps, vec![a]);
        assert_eq!(g.get(b).instructions, 7);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn depend_rejects_unknown() {
        let mut g = TaskGraph::new("t");
        let a = g.task(ThreadId(0), Category::Setup, Cycles(5));
        g.depend(a, TaskId(7));
    }

    #[test]
    fn without_category_zeroes_durations() {
        let mut g = TaskGraph::new("t");
        task_instr(&mut g, ThreadId(0), Category::Sync, Cycles(100), 5);
        task_instr(&mut g, ThreadId(0), Category::ChunkCompute, Cycles(10), 9);
        let g2 = g.without_category(Category::Sync);
        assert_eq!(g2.tasks()[0].duration, Cycles::ZERO);
        assert_eq!(g2.tasks()[0].instructions, 0);
        assert_eq!(g2.tasks()[1].duration, Cycles(10));
        // Original untouched.
        assert_eq!(g.tasks()[0].duration, Cycles(100));
    }

    #[test]
    fn map_durations_is_selective() {
        let mut g = TaskGraph::new("t");
        g.task(ThreadId(0), Category::ChunkCompute, Cycles(100));
        g.task(ThreadId(1), Category::ChunkCompute, Cycles(50));
        let g2 = g.map_durations(|t| t.thread == ThreadId(1), |d| Cycles(d.get() * 2));
        assert_eq!(g2.tasks()[0].duration, Cycles(100));
        assert_eq!(g2.tasks()[1].duration, Cycles(100));
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new("e");
        assert!(g.is_empty());
        assert_eq!(g.total_work(), Cycles::ZERO);
        assert_eq!(g.thread_count(), 0);
    }
}

//! Concurrency analysis over a trace's spans.

use crate::{Cycles, Trace};

/// Number of threads simultaneously busy at each category-changing
/// instant: returns `(time, busy_threads)` breakpoints in time order.
pub fn concurrency_profile(trace: &Trace) -> Vec<(Cycles, usize)> {
    let mut events: Vec<(Cycles, i64)> = Vec::new();
    for s in trace.spans() {
        if s.start < s.end {
            events.push((s.start, 1));
            events.push((s.end, -1));
        }
    }
    events.sort_by_key(|(t, delta)| (*t, *delta));
    let mut profile = Vec::new();
    let mut level = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            level += events[i].1;
            i += 1;
        }
        profile.push((t, level.max(0) as usize));
    }
    profile
}

/// Fraction of the makespan during which at least `threshold` threads are
/// busy (the paper's §III-A imbalance view: "the amount of time spent when
/// all threads but one is running" is `1 - busy_fraction(2)` for a
/// two-thread program).
///
/// ```
/// use stats_trace::{Category, Cycles, ThreadId, TraceBuilder};
/// use stats_trace::analysis::busy_fraction;
/// let mut b = TraceBuilder::new("demo");
/// b.push(ThreadId(0), Category::ChunkCompute, Cycles(0), Cycles(100), 0);
/// b.push(ThreadId(1), Category::ChunkCompute, Cycles(50), Cycles(100), 0);
/// let t = b.finish().unwrap();
/// assert_eq!(busy_fraction(&t, 2), 0.5);
/// ```
pub fn busy_fraction(trace: &Trace, threshold: usize) -> f64 {
    let makespan = trace.makespan();
    if makespan == Cycles::ZERO {
        return 0.0;
    }
    let profile = concurrency_profile(trace);
    let mut covered = 0u64;
    for pair in profile.windows(2) {
        if pair[0].1 >= threshold {
            covered += (pair[1].0 - pair[0].0).get();
        }
    }
    // Tail after the last breakpoint has level 0 by construction.
    covered as f64 / makespan.get() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, ThreadId, TraceBuilder};

    fn trace() -> Trace {
        let mut b = TraceBuilder::new("analysis");
        let a = b.push(ThreadId(0), Category::Setup, Cycles(0), Cycles(100), 10);
        let c = b.push(
            ThreadId(1),
            Category::ChunkCompute,
            Cycles(100),
            Cycles(300),
            50,
        );
        b.push(
            ThreadId(2),
            Category::ChunkCompute,
            Cycles(150),
            Cycles(250),
            40,
        );
        b.push(
            ThreadId(0),
            Category::OutsideRegion,
            Cycles(300),
            Cycles(350),
            5,
        );
        b.depend(a, c);
        b.finish().unwrap()
    }

    #[test]
    fn concurrency_profile_tracks_levels() {
        let t = trace();
        let p = concurrency_profile(&t);
        // At 150..250 two compute threads overlap.
        let level_at = |time: u64| {
            p.iter()
                .rev()
                .find(|(t, _)| t.get() <= time)
                .map(|(_, l)| *l)
                .unwrap_or(0)
        };
        assert_eq!(level_at(50), 1);
        assert_eq!(level_at(200), 2);
        assert_eq!(level_at(275), 1);
        assert_eq!(level_at(400), 0);
    }

    #[test]
    fn busy_fraction_matches_hand_count() {
        let t = trace();
        // Makespan 350; >=1 busy during 0..350 = 100%; >=2 busy during
        // 150..250 = 100/350.
        assert!((busy_fraction(&t, 1) - 1.0).abs() < 1e-12);
        assert!((busy_fraction(&t, 2) - 100.0 / 350.0).abs() < 1e-12);
        assert_eq!(busy_fraction(&t, 3), 0.0);
    }

    #[test]
    fn empty_trace_analysis_is_safe() {
        let t = TraceBuilder::new("empty").finish().unwrap();
        assert_eq!(busy_fraction(&t, 1), 0.0);
        assert!(concurrency_profile(&t).is_empty());
    }
}

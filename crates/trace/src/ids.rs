//! Newtypes for virtual time, threads, and spans.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A quantity of virtual CPU cycles.
///
/// All time in the workbench is virtual: the platform simulator assigns
/// cycle costs deterministically, so every experiment is reproducible on any
/// host. `Cycles` is an absolute timestamp or a duration depending on
/// context, like `u64` nanoseconds in `std::time`.
///
/// ```
/// use stats_trace::Cycles;
/// let a = Cycles(100);
/// let b = Cycles(250);
/// assert_eq!(b - a, Cycles(150));
/// assert_eq!(a + Cycles(50), Cycles(150));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// Identifier of a logical thread in a trace.
///
/// Logical threads are the paper's "STATS threads" (Table I counts them):
/// there may be many more of them than hardware cores.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ThreadId(pub usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a span within one [`Trace`](crate::Trace).
///
/// Densely allocated by [`TraceBuilder`](crate::TraceBuilder) in insertion
/// order; usable as an index into [`Trace::spans`](crate::Trace::spans).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SpanId(pub usize);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(10) - Cycles(4), Cycles(6));
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycles(42).to_string(), "42cy");
        assert_eq!(ThreadId(3).to_string(), "T3");
        assert_eq!(SpanId(9).to_string(), "S9");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Cycles(2) < Cycles(10));
        assert!(ThreadId(1) < ThreadId(2));
    }
}

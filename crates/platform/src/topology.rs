//! Machine topology: sockets and cores.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a hardware core, dense in `0..topology.total_cores()`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of a CPU socket.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SocketId(pub usize);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SKT{}", self.0)
    }
}

/// Physical layout of the simulated machine.
///
/// Cores are numbered socket-major: cores `0..cores_per_socket` are on
/// socket 0, the next `cores_per_socket` on socket 1, and so on (matching
/// how the paper's dual-socket Xeon enumerates cores with Hyper-Threading
/// off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
}

impl Topology {
    /// Create a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sockets: usize, cores_per_socket: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        Topology {
            sockets,
            cores_per_socket,
        }
    }

    /// The paper's machine: two Xeon E5-2695 v3 sockets, 14 cores each,
    /// Hyper-Threading and Turbo Boost disabled (§IV-A).
    pub fn paper_machine() -> Self {
        Topology::new(2, 14)
    }

    /// A single socket of the paper's machine (the 14-core configurations
    /// of Figs. 9 and 12).
    pub fn paper_single_socket() -> Self {
        Topology::new(1, 14)
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Cores on each socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// All cores, in id order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.total_cores()).map(CoreId)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper_machine()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} socket(s) x {} cores = {} cores",
            self.sockets,
            self.cores_per_socket,
            self.total_cores()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_is_28_cores() {
        let t = Topology::paper_machine();
        assert_eq!(t.total_cores(), 28);
        assert_eq!(t.sockets(), 2);
        assert_eq!(Topology::paper_single_socket().total_cores(), 14);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_rejected() {
        Topology::new(0, 4);
    }

    #[test]
    fn cores_iterator_is_dense() {
        let t = Topology::new(2, 3);
        let cores: Vec<_> = t.cores().collect();
        assert_eq!(cores.len(), 6);
        assert_eq!(cores[0], CoreId(0));
        assert_eq!(cores[5], CoreId(5));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Topology::paper_machine().to_string(),
            "2 socket(s) x 14 cores = 28 cores"
        );
    }
}

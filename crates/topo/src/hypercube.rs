//! Binary hypercube — the topology of ROUTE_C (Chiu/Wu).
//!
//! Port `i` flips address bit `i`, so the node degree equals the dimension
//! `n` and the network has `2^n` nodes. Minimal paths correspond to
//! resolving the differing address bits in any order, which is the freedom
//! ROUTE_C exploits ("for every message that has to be transmitted two hops
//! two alternative paths are available", §2.2).

use crate::ids::{NodeId, PortId};
use crate::Topology;

/// An `n`-dimensional binary hypercube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Creates an `n`-cube. Panics unless `1 <= dim <= 20` (a million nodes
    /// is more than any simulation here needs).
    pub fn new(dim: u32) -> Self {
        assert!((1..=20).contains(&dim), "hypercube dimension out of range");
        Hypercube { dim }
    }

    /// The dimension `n`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Bitwise difference between two node addresses; each set bit is a
    /// dimension that still has to be crossed.
    pub fn diff(&self, a: NodeId, b: NodeId) -> u32 {
        a.0 ^ b.0
    }
}

impl Topology for Hypercube {
    fn name(&self) -> String {
        format!("hypercube dim={}", self.dim)
    }

    fn num_nodes(&self) -> usize {
        1usize << self.dim
    }

    fn degree(&self) -> usize {
        self.dim as usize
    }

    fn neighbor(&self, n: NodeId, p: PortId) -> Option<NodeId> {
        if (p.0 as u32) < self.dim {
            Some(NodeId(n.0 ^ (1 << p.0)))
        } else {
            None
        }
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.diff(a, b).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_degree() {
        let h = Hypercube::new(6);
        assert_eq!(h.num_nodes(), 64);
        assert_eq!(h.degree(), 6);
        assert_eq!(h.links().len(), 6 * 64 / 2);
    }

    #[test]
    fn neighbor_flips_one_bit() {
        let h = Hypercube::new(4);
        let n = NodeId(0b1010);
        assert_eq!(h.neighbor(n, PortId(0)), Some(NodeId(0b1011)));
        assert_eq!(h.neighbor(n, PortId(3)), Some(NodeId(0b0010)));
        assert_eq!(h.neighbor(n, PortId(4)), None);
    }

    #[test]
    fn hamming_distance() {
        let h = Hypercube::new(5);
        assert_eq!(h.min_distance(NodeId(0), NodeId(0b11111)), 5);
        assert_eq!(h.min_distance(NodeId(0b101), NodeId(0b110)), 2);
    }

    #[test]
    fn symmetric_adjacency() {
        let h = Hypercube::new(3);
        for n in h.nodes() {
            for (p, m) in h.neighbors(n) {
                assert_eq!(h.neighbor(m, p), Some(n), "same port leads back");
            }
        }
    }
}

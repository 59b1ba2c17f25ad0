//! The paper's fault model (§2.1 assumptions i–v).
//!
//! * i) a link is either faulty-and-known or transmits without destruction;
//!   links are bidirectional and both directions fail together — hence faults
//!   are stored per canonical [`LinkId`];
//! * ii) a node either works or fails with adjacent nodes aware of it;
//! * v) multiple faults are allowed.
//!
//! A faulty node implicitly disables all its links (a message can never
//! traverse a dead router), which [`FaultSet::link_usable`] accounts for.

use crate::ids::{LinkId, NodeId, PortId};
use crate::Topology;
use std::collections::BTreeSet;

/// A set of known link and node faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    links: BTreeSet<LinkId>,
    nodes: BTreeSet<NodeId>,
}

impl FaultSet {
    /// An empty (fault-free) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the link leaving `n` through `p` as faulty (both directions,
    /// per assumption i). No-op if the port is unconnected.
    pub fn fail_link(&mut self, topo: &dyn Topology, n: NodeId, p: PortId) {
        if let Some(l) = topo.link(n, p) {
            self.links.insert(l);
        }
    }

    /// Marks a node as faulty.
    pub fn fail_node(&mut self, n: NodeId) {
        self.nodes.insert(n);
    }

    /// Repairs a link (used by reconfiguration experiments).
    pub fn repair_link(&mut self, l: LinkId) {
        self.links.remove(&l);
    }

    /// Repairs a node.
    pub fn repair_node(&mut self, n: NodeId) {
        self.nodes.remove(&n);
    }

    /// True if the node itself is faulty.
    pub fn node_faulty(&self, n: NodeId) -> bool {
        self.nodes.contains(&n)
    }

    /// True if the link itself (not counting endpoint nodes) is faulty.
    pub fn link_faulty(&self, topo: &dyn Topology, n: NodeId, p: PortId) -> bool {
        topo.link(n, p).is_some_and(|l| self.links.contains(&l))
    }

    /// True if a message may traverse the link leaving `n` through `p`:
    /// the port is wired, the link is healthy and both endpoints are alive.
    pub fn link_usable(&self, topo: &dyn Topology, n: NodeId, p: PortId) -> bool {
        match topo.neighbor(n, p) {
            None => false,
            Some(m) => {
                !self.node_faulty(n) && !self.node_faulty(m) && !self.link_faulty(topo, n, p)
            }
        }
    }

    /// Faulty links (canonical).
    pub fn faulty_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links.iter().copied()
    }

    /// Faulty nodes.
    pub fn faulty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of faulty links.
    pub fn num_link_faults(&self) -> usize {
        self.links.len()
    }

    /// True if nothing is faulty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }

    /// Draws `count` distinct random link faults, optionally rejecting draws
    /// that disconnect the healthy part of the network. Returns the number
    /// of faults actually placed (placement can fall short if the connected
    /// constraint rejects too many candidates).
    pub fn inject_random_links(
        &mut self,
        topo: &dyn Topology,
        count: usize,
        keep_connected: bool,
        seed: u64,
    ) -> usize {
        let mut rng = SimpleRng::new(seed);
        let all = topo.links();
        let mut placed = 0;
        let mut attempts = 0;
        while placed < count && attempts < count * 64 + 256 {
            attempts += 1;
            let l = all[rng.below(all.len())];
            if self.links.contains(&l) {
                continue;
            }
            self.links.insert(l);
            if keep_connected && !crate::graph::is_connected(topo, self) {
                self.links.remove(&l);
            } else {
                placed += 1;
            }
        }
        placed
    }

    /// Draws `count` distinct random node faults, optionally keeping the
    /// healthy remainder connected. Returns the number placed.
    pub fn inject_random_nodes(
        &mut self,
        topo: &dyn Topology,
        count: usize,
        keep_connected: bool,
        seed: u64,
    ) -> usize {
        let mut rng = SimpleRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = topo.num_nodes();
        let mut placed = 0;
        let mut attempts = 0;
        while placed < count && attempts < count * 64 + 256 {
            attempts += 1;
            let cand = NodeId(rng.below(n) as u32);
            if self.nodes.contains(&cand) {
                continue;
            }
            self.nodes.insert(cand);
            if keep_connected && !crate::graph::is_connected(topo, self) {
                self.nodes.remove(&cand);
            } else {
                placed += 1;
            }
        }
        placed
    }
}

/// Minimal xorshift RNG so `ftr-topo` does not need to depend on `rand`
/// (the simulator uses `rand` proper; fault placement only needs cheap,
/// reproducible draws).
mod rand_like {
    /// SplitMix64-based generator; deterministic for a given seed.
    pub struct SimpleRng {
        state: u64,
    }

    impl SimpleRng {
        pub fn new(seed: u64) -> Self {
            SimpleRng { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `0..bound` (bound > 0).
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0);
            (self.next_u64() % bound as u64) as usize
        }
    }
}

pub use rand_like::SimpleRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh2D, EAST, NORTH, WEST};
    use crate::Topology;

    #[test]
    fn link_fault_is_bidirectional() {
        let m = Mesh2D::new(4, 4);
        let mut f = FaultSet::new();
        let a = m.node_at(1, 1);
        let b = m.node_at(2, 1);
        f.fail_link(&m, a, EAST);
        assert!(f.link_faulty(&m, a, EAST));
        assert!(f.link_faulty(&m, b, WEST), "reverse direction also faulty");
        assert!(!f.link_usable(&m, a, EAST));
        assert!(!f.link_usable(&m, b, WEST));
        assert_eq!(f.num_link_faults(), 1);
    }

    #[test]
    fn node_fault_disables_incident_links() {
        let m = Mesh2D::new(4, 4);
        let mut f = FaultSet::new();
        let dead = m.node_at(2, 2);
        f.fail_node(dead);
        for (p, nb) in m.neighbors(dead) {
            assert!(!f.link_usable(&m, dead, p));
            let q = m.port_towards(nb, dead).unwrap();
            assert!(!f.link_usable(&m, nb, q));
            // but the raw link is not itself faulty
            assert!(!f.link_faulty(&m, nb, q));
        }
    }

    #[test]
    fn repair_restores_usability() {
        let m = Mesh2D::new(3, 3);
        let mut f = FaultSet::new();
        let n = m.node_at(0, 0);
        f.fail_link(&m, n, NORTH);
        let l = m.link(n, NORTH).unwrap();
        f.repair_link(l);
        assert!(f.link_usable(&m, n, NORTH));
        assert!(f.is_empty());
    }

    #[test]
    fn random_injection_is_deterministic_and_connected() {
        let m = Mesh2D::new(8, 8);
        let mut f1 = FaultSet::new();
        let mut f2 = FaultSet::new();
        let p1 = f1.inject_random_links(&m, 10, true, 7);
        let _p2 = f2.inject_random_links(&m, 10, true, 7);
        assert_eq!(p1, 10);
        assert_eq!(f1, f2, "same seed, same faults");
        assert!(crate::graph::is_connected(&m, &f1));
    }

    #[test]
    fn node_injection_keeps_connectivity() {
        let m = Mesh2D::new(6, 6);
        let mut f = FaultSet::new();
        let placed = f.inject_random_nodes(&m, 5, true, 99);
        assert_eq!(placed, 5);
        assert!(crate::graph::is_connected(&m, &f));
    }
}

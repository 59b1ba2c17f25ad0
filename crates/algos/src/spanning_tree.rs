//! The spanning-tree strawman router of §2.1 as a pluggable algorithm.
//!
//! "Compute a spanning tree for the network graph every time new faults
//! occur. Route messages by only using edges of the tree." Trivially
//! fault-tolerant and deadlock-free (tree routing has no cyclic channel
//! dependencies), but it concentrates all traffic on n-1 links and almost
//! never uses minimal paths — experiment E11 quantifies both against the
//! adaptive algorithms, motivating the whole paper.
//!
//! Tree recomputation is modelled as the global reconfiguration the paper
//! says this scheme needs: every controller holds a copy of the current
//! tree and rebuilds it (deterministically, same BFS) when told of a fault.

use crate::common::max_hops;
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::spanning::SpanningTree;
use ftr_topo::{FaultSet, NodeId, PortId, Topology, VcId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Spanning-tree routing over any topology.
pub struct SpanningTreeRouting<T: Topology + Clone + 'static> {
    topo: T,
    /// Shared fault knowledge + tree (models the centralised
    /// reconfiguration step; rebuilt on every fault notification).
    shared: Arc<Mutex<SharedTree>>,
}

struct SharedTree {
    faults: FaultSet,
    tree: SpanningTree,
}

impl<T: Topology + Clone + 'static> SpanningTreeRouting<T> {
    /// Creates the algorithm, rooted at node 0.
    pub fn new(topo: T) -> Self {
        let tree = SpanningTree::build(&topo, &FaultSet::new(), NodeId(0));
        SpanningTreeRouting {
            topo,
            shared: Arc::new(Mutex::new(SharedTree { faults: FaultSet::new(), tree })),
        }
    }
}

impl<T: Topology + Clone + 'static> RoutingAlgorithm for SpanningTreeRouting<T> {
    fn name(&self) -> String {
        "spanning-tree".into()
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(TreeController {
            topo: self.topo.clone(),
            node,
            shared: Arc::clone(&self.shared),
            hop_limit: max_hops(self.topo.num_nodes()),
        })
    }
}

struct TreeController<T: Topology + Clone> {
    topo: T,
    node: NodeId,
    shared: Arc<Mutex<SharedTree>>,
    hop_limit: u32,
}

impl<T: Topology + Clone + 'static> NodeController for TreeController<T> {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Decision {
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, 1);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 1);
        }
        let shared = self.shared.lock();
        let Some(next) = shared.tree.next_hop(view.node, h.dst) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        drop(shared);
        let Some(p) = self.topo.port_towards(view.node, next) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        // Both waits are polled: the tree is shared, so *another* node's
        // `on_fault` can change the port this node names — outside what an
        // unpolled `Wait` may depend on.
        if !view.alive(p.idx()) {
            // tree is stale; reconfiguration pending
            return Decision::polled_wait(1);
        }
        if view.free(p.idx(), 0) {
            Decision::new(Verdict::Route(p, VcId(0)), 1)
        } else {
            Decision::polled_wait(1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let shared = self.shared.lock();
        let Some(next) = shared.tree.next_hop(view.node, h.dst) else {
            return Vec::new();
        };
        drop(shared);
        self.topo
            .port_towards(view.node, next)
            .filter(|p| view.alive(p.idx()))
            .map(|p| (p, VcId(0)))
            .into_iter()
            .collect()
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        // global reconfiguration: record the fault and rebuild the tree
        let mut shared = self.shared.lock();
        shared.faults.fail_link(&self.topo, self.node, port);
        // pick the lowest alive root
        let root = self.topo.nodes().find(|&n| !shared.faults.node_faulty(n)).unwrap_or(NodeId(0));
        let faults = shared.faults.clone();
        shared.tree = SpanningTree::build(&self.topo, &faults, root);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::Network;
    use ftr_topo::{Mesh2D, EAST};

    #[test]
    fn all_pairs_delivered_but_dilated() {
        let mesh = Mesh2D::new(4, 4);
        let topo = Arc::new(mesh.clone());
        let algo = SpanningTreeRouting::new(mesh);
        let mut net = Network::builder(topo.clone()).build(&algo).expect("valid config");
        net.set_measuring(true);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(200_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert!(!net.stats.deadlock);
        // tree routing is far from minimal: many excess hops
        assert!(net.stats.excess_hops > 0, "trees nearly never take minimal paths");
    }

    #[test]
    fn survives_fault_by_reconfiguration() {
        let mesh = Mesh2D::new(4, 4);
        let topo = Arc::new(mesh.clone());
        let algo = SpanningTreeRouting::new(mesh);
        let mut net = Network::builder(topo.clone()).build(&algo).expect("valid config");
        net.inject_link_fault(topo.node_at(0, 0), EAST);
        net.send(topo.node_at(0, 0), topo.node_at(3, 0), 2).unwrap();
        assert!(net.drain(10_000));
        assert_eq!(net.stats.delivered_msgs, 1);
    }

    #[test]
    fn cdg_acyclic() {
        let mesh = Mesh2D::new(4, 4);
        let algo = SpanningTreeRouting::new(mesh.clone());
        let g = crate::conditions::build_cdg(&mesh, &algo, &FaultSet::new());
        assert!(!g.has_cycle(), "tree routing cannot deadlock");
    }

    #[test]
    fn conditions_show_the_weakness() {
        let mesh = Mesh2D::new(4, 4);
        let algo = SpanningTreeRouting::new(mesh.clone());
        let rep = crate::conditions::check_conditions(&mesh, &algo, &FaultSet::new(), None);
        assert_eq!(rep.cond3_ok, rep.cond3_pairs, "always delivers");
        assert!(
            rep.cond2_ok < rep.cond2_pairs * 3 / 5,
            "shortest ways are mostly not taken: {rep:?}"
        );
        assert!(
            rep.cond1_ok <= rep.cond1_pairs / 2,
            "single tree path is far from fully adaptive: {rep:?}"
        );
    }
}

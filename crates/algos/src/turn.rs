//! West-first turn-model routing (Glass & Ni \[GlN92\]) — the partially
//! adaptive single-VC baseline.
//!
//! All westward hops happen first; afterwards the message routes
//! adaptively among {E, N, S} and never turns west again. Prohibiting the
//! two turns into west breaks both abstract cycles, so one virtual channel
//! suffices. Used by the benches as the "cheap adaptivity" point between
//! oblivious XY and fully adaptive NARA, and by the examples as the
//! flexibility demo (a new algorithm = a new rule program).

use crate::common::{allocatable, least_loaded, max_hops};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH, SOUTH, WEST};

/// The west-first algorithm.
#[derive(Clone)]
pub struct WestFirst {
    mesh: Mesh2D,
}

impl WestFirst {
    /// Creates west-first routing for a mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        WestFirst { mesh }
    }

    /// The set of ports west-first may use at `node` for `dst`.
    pub fn options(mesh: &Mesh2D, node: NodeId, dst: NodeId) -> Vec<PortId> {
        let (dx, dy) = mesh.offset(node, dst);
        if dx < 0 {
            // all west hops first, obliviously
            return vec![WEST];
        }
        let mut out = Vec::with_capacity(3);
        if dx > 0 {
            out.push(EAST);
        }
        if dy > 0 {
            out.push(NORTH);
        }
        if dy < 0 {
            out.push(SOUTH);
        }
        out
    }
}

impl RoutingAlgorithm for WestFirst {
    fn name(&self) -> String {
        "west-first".into()
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(WfController {
            mesh: self.mesh.clone(),
            hop_limit: max_hops(self.mesh.num_nodes()),
        })
    }
}

struct WfController {
    mesh: Mesh2D,
    hop_limit: u32,
}

impl NodeController for WfController {
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
        let opts: Vec<(PortId, VcId)> = WestFirst::options(&self.mesh, view.node, h.dst)
            .into_iter()
            .map(|p| (p, VcId(0)))
            .collect();
        let any_alive = opts.iter().any(|(p, _)| view.alive(p.idx()));
        let avail = allocatable(view, &opts);
        if let Some((p, v)) = least_loaded(view, &avail) {
            Decision::new(Verdict::Route(p, v), 1)
        } else if any_alive {
            Decision::new(Verdict::Wait, 1)
        } else {
            Decision::new(Verdict::Unroutable, 1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        WestFirst::options(&self.mesh, view.node, h.dst)
            .into_iter()
            .filter(|p| view.alive(p.idx()))
            .map(|p| (p, VcId(0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::Network;
    use ftr_topo::FaultSet;
    use std::sync::Arc;

    #[test]
    fn option_sets() {
        let m = Mesh2D::new(4, 4);
        // destination to the west: oblivious west
        assert_eq!(WestFirst::options(&m, m.node_at(3, 0), m.node_at(0, 2)), vec![WEST]);
        // north-east: adaptive between E and N
        assert_eq!(WestFirst::options(&m, m.node_at(0, 0), m.node_at(2, 2)), vec![EAST, NORTH]);
        // due south
        assert_eq!(WestFirst::options(&m, m.node_at(1, 3), m.node_at(1, 0)), vec![SOUTH]);
    }

    #[test]
    fn cdg_acyclic_on_one_vc() {
        let m = Mesh2D::new(4, 4);
        let algo = WestFirst::new(m.clone());
        let g = crate::conditions::build_cdg(&m, &algo, &FaultSet::new());
        assert!(!g.has_cycle());
    }

    #[test]
    fn all_pairs_delivered() {
        let m = Mesh2D::new(4, 4);
        let topo = Arc::new(m.clone());
        let mut net =
            Network::builder(topo.clone()).build(&WestFirst::new(m)).expect("valid config");
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0);
    }

    #[test]
    fn partially_adaptive_between_xy_and_nara() {
        // conditions report: west-first passes cond2 everywhere fault-free,
        // cond1 only where minimal adaptivity isn't needed towards west
        let m = Mesh2D::new(4, 4);
        let algo = WestFirst::new(m.clone());
        let rep = crate::conditions::check_conditions(&m, &algo, &FaultSet::new(), None);
        assert_eq!(rep.cond2_ok, rep.cond2_pairs);
        assert!(rep.cond1_ok < rep.cond1_pairs, "not fully adaptive");

        let xy = crate::dor::XyRouting::new(m.clone());
        let rep_xy = crate::conditions::check_conditions(&m, &xy, &FaultSet::new(), None);
        assert!(rep.cond1_ok > rep_xy.cond1_ok, "more adaptive than XY");
    }
}

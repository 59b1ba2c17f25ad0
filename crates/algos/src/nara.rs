//! NARA — the non-fault-tolerant, fully adaptive minimal mesh router
//! underlying NAFTA (Cunningham & Avresky \[CuA95\], as described in §2.2).
//!
//! Deadlock prevention is the data path's two-virtual-network discipline
//! ([`crate::vnet`]): network 0 never routes south, network 1 never routes
//! north. A message needing to travel north is injected into network 0,
//! where *every* turn among {E, W, N} is legal — a dependency cycle in a
//! mesh must contain both a north and a south hop, so each network is
//! acyclic on its own and minimal routing inside it is *fully* adaptive
//! (condition 1). The adaptivity criterion is NAFTA's: prefer the output
//! with the least data still assigned to it.

use crate::common::{allocatable, least_loaded, max_hops};
use crate::vnet::MeshVcMode;
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};

/// The NARA algorithm.
#[derive(Clone)]
pub struct Nara {
    mesh: Mesh2D,
}

impl Nara {
    /// Creates NARA for a mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        Nara { mesh }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }
}

impl RoutingAlgorithm for Nara {
    fn name(&self) -> String {
        "nara".into()
    }

    fn num_vcs(&self) -> usize {
        2
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(NaraController {
            mesh: self.mesh.clone(),
            hop_limit: max_hops(self.mesh.num_nodes()),
        })
    }
}

struct NaraController {
    mesh: Mesh2D,
    hop_limit: u32,
}

impl NaraController {
    /// Minimal directions the data path permits, on each virtual network
    /// the head may decide in (fixed at injection; in flight, the arrival VC).
    fn candidates(
        &self,
        node: NodeId,
        dst: NodeId,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let minimal = self.mesh.minimal_directions(node, dst);
        MeshVcMode::NaraPair
            .lanes(in_port.map(|p| (p, in_vc)), self.mesh.offset(node, dst))
            .flat_map(|lane| {
                let legal = minimal.iter().filter(move |&&d| lane.permits(d));
                legal.map(move |&d| (d, VcId(lane.vnet)))
            })
            .collect()
    }
}

impl NodeController for NaraController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, 1);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 1);
        }
        let all = self.candidates(view.node, h.dst, in_port, in_vc);
        if let Some((p, vc)) = least_loaded(view, &allocatable(view, &all)) {
            h.vnet = vc.idx() as u8;
            return Decision::new(Verdict::Route(p, vc), 1);
        }
        if all.iter().any(|(p, _)| view.alive(p.idx())) {
            Decision::new(Verdict::Wait, 1)
        } else {
            // NARA has no fault handling: a broken minimal path is fatal
            Decision::new(Verdict::Unroutable, 1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let mut out = self.candidates(view.node, h.dst, in_port, in_vc);
        out.retain(|(p, _)| view.alive(p.idx()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::{EAST, NORTH, SOUTH};
    use std::sync::Arc;

    #[test]
    fn vnet_selection() {
        // the network is fixed at injection from the row offset — either,
        // for pure horizontal movement — and in flight is the arrival VC
        let mesh = Mesh2D::new(4, 4);
        let ctl = NaraController { mesh: mesh.clone(), hop_limit: 0 };
        let at = |x, y| mesh.node_at(x, y);
        let inject = |dst| ctl.candidates(at(1, 1), dst, None, VcId(0));
        assert_eq!(inject(at(2, 3)), [(EAST, VcId(0)), (NORTH, VcId(0))]);
        assert_eq!(inject(at(2, 0)), [(EAST, VcId(1)), (SOUTH, VcId(1))]);
        assert_eq!(inject(at(3, 1)), [(EAST, VcId(0)), (EAST, VcId(1))]);
        let west = Some(ftr_topo::WEST);
        assert_eq!(ctl.candidates(at(1, 1), at(3, 1), west, VcId(1)), [(EAST, VcId(1))]);
    }

    #[test]
    fn all_pairs_delivered_minimally() {
        let mesh = Mesh2D::new(4, 4);
        let topo = Arc::new(mesh.clone());
        let mut net = Network::builder(topo.clone()).build(&Nara::new(mesh)).expect("valid config");
        net.set_measuring(true);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "fully adaptive *minimal*");
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn sustained_uniform_load_no_deadlock() {
        let mesh = Mesh2D::new(6, 6);
        let topo = Arc::new(mesh.clone());
        let mut net = Network::builder(topo.clone()).build(&Nara::new(mesh)).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.3, 4, 5);
        for _ in 0..2_000 {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(20_000), "NARA drains under sustained load");
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn cdg_is_acyclic_fully_adaptive() {
        // the core deadlock-freedom claim: fully adaptive minimal over two
        // virtual networks has an acyclic channel dependency graph
        let mesh = Mesh2D::new(4, 4);
        let algo = Nara::new(mesh.clone());
        let g = crate::conditions::build_cdg(&mesh, &algo, &ftr_topo::FaultSet::new());
        assert!(!g.has_cycle(), "NARA dependency cycle: {:?}", g.find_cycle());
    }

    #[test]
    fn condition1_holds_fault_free() {
        let mesh = Mesh2D::new(4, 4);
        let algo = Nara::new(mesh.clone());
        let rep =
            crate::conditions::check_conditions(&mesh, &algo, &ftr_topo::FaultSet::new(), None);
        assert_eq!(rep.cond1_pairs, rep.cond1_ok, "every minimal path selectable");
        assert_eq!(rep.cond2_pairs, rep.cond2_ok);
        assert_eq!(rep.cond3_pairs, rep.cond3_ok);
    }

    #[test]
    fn fault_on_only_path_is_fatal() {
        let mesh = Mesh2D::new(4, 4);
        let topo = Arc::new(mesh.clone());
        let mut net = Network::builder(topo.clone()).build(&Nara::new(mesh)).expect("valid config");
        // cut both minimal first hops from the corner for dst (1,1):
        net.inject_link_fault(topo.node_at(0, 0), ftr_topo::EAST);
        net.inject_link_fault(topo.node_at(0, 0), NORTH);
        net.send(topo.node_at(0, 0), topo.node_at(1, 1), 2).unwrap();
        net.run(100);
        assert_eq!(net.stats.unroutable_msgs, 1);
    }
}

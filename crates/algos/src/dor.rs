//! Dimension-order (oblivious) routing baselines: XY on 2-D meshes and
//! e-cube on hypercubes.
//!
//! These are the classic deadlock-free oblivious routers the paper's
//! introduction contrasts with ("using oblivious routing the whole path
//! through the network is fixed"). They need one virtual channel, one rule
//! interpretation per message, and no fault state — the zero-cost end of
//! the fault-tolerance overhead scale.

use crate::common::max_hops;
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH, SOUTH, WEST};

/// XY dimension-order routing on a 2-D mesh.
#[derive(Clone)]
pub struct XyRouting {
    mesh: Mesh2D,
}

impl XyRouting {
    /// Creates the algorithm for a mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        XyRouting { mesh }
    }

    /// The single XY output for a (node, dst) pair, `None` at destination.
    pub fn next_port(mesh: &Mesh2D, node: NodeId, dst: NodeId) -> Option<PortId> {
        let (dx, dy) = mesh.offset(node, dst);
        if dx > 0 {
            Some(EAST)
        } else if dx < 0 {
            Some(WEST)
        } else if dy > 0 {
            Some(NORTH)
        } else if dy < 0 {
            Some(SOUTH)
        } else {
            None
        }
    }
}

impl RoutingAlgorithm for XyRouting {
    fn name(&self) -> String {
        "xy".into()
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(XyController {
            mesh: self.mesh.clone(),
            hop_limit: max_hops(self.mesh.num_nodes()),
        })
    }
}

struct XyController {
    mesh: Mesh2D,
    hop_limit: u32,
}

impl NodeController for XyController {
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
        let Some(p) = XyRouting::next_port(&self.mesh, view.node, h.dst) else {
            return Decision::new(Verdict::Deliver, 1);
        };
        if !view.alive(p.idx()) {
            // oblivious: a fault on the fixed path is fatal
            return Decision::new(Verdict::Unroutable, 1);
        }
        if view.free(p.idx(), 0) {
            Decision::new(Verdict::Route(p, VcId(0)), 1)
        } else {
            Decision::new(Verdict::Wait, 1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        XyRouting::next_port(&self.mesh, view.node, h.dst)
            .map(|p| (p, VcId(0)))
            .into_iter()
            .collect()
    }
}

/// E-cube routing on a hypercube: resolve differing address bits in
/// ascending dimension order.
#[derive(Clone)]
pub struct EcubeRouting {
    cube: Hypercube,
}

impl EcubeRouting {
    /// Creates the algorithm for a hypercube.
    pub fn new(cube: Hypercube) -> Self {
        EcubeRouting { cube }
    }

    /// Lowest differing dimension, `None` at destination.
    pub fn next_port(cube: &Hypercube, node: NodeId, dst: NodeId) -> Option<PortId> {
        let diff = cube.diff(node, dst);
        (diff != 0).then(|| PortId(diff.trailing_zeros() as u8))
    }
}

impl RoutingAlgorithm for EcubeRouting {
    fn name(&self) -> String {
        "ecube".into()
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(EcubeController {
            cube: self.cube.clone(),
            hop_limit: max_hops(self.cube.num_nodes()),
        })
    }
}

struct EcubeController {
    cube: Hypercube,
    hop_limit: u32,
}

impl NodeController for EcubeController {
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
        let Some(p) = EcubeRouting::next_port(&self.cube, view.node, h.dst) else {
            return Decision::new(Verdict::Deliver, 1);
        };
        if !view.alive(p.idx()) {
            return Decision::new(Verdict::Unroutable, 1);
        }
        if view.free(p.idx(), 0) {
            Decision::new(Verdict::Route(p, VcId(0)), 1)
        } else {
            Decision::new(Verdict::Wait, 1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        EcubeRouting::next_port(&self.cube, view.node, h.dst)
            .map(|p| (p, VcId(0)))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::Network;
    use std::sync::Arc;

    #[test]
    fn xy_delivers_everything() {
        let mesh = Mesh2D::new(4, 4);
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&XyRouting::new(mesh)).expect("valid config");
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(50_000));
        assert_eq!(net.stats.delivered_msgs, 16 * 15);
        assert!(!net.stats.deadlock);
        // oblivious minimal: zero excess hops
        assert_eq!(net.stats.excess_hops, 0);
    }

    #[test]
    fn xy_fails_on_path_fault() {
        let mesh = Mesh2D::new(4, 1);
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&XyRouting::new(mesh)).expect("valid config");
        net.inject_link_fault(topo.node_at(1, 0), EAST);
        net.send(topo.node_at(0, 0), topo.node_at(3, 0), 2).unwrap();
        net.run(50);
        assert_eq!(net.stats.unroutable_msgs, 1, "oblivious cannot avoid faults");
    }

    #[test]
    fn ecube_delivers_everything() {
        let cube = Hypercube::new(4);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&EcubeRouting::new(cube)).expect("valid config");
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 16 * 15);
        assert_eq!(net.stats.excess_hops, 0);
    }

    #[test]
    fn next_port_geometry() {
        let mesh = Mesh2D::new(4, 4);
        assert_eq!(
            XyRouting::next_port(&mesh, mesh.node_at(0, 0), mesh.node_at(2, 2)),
            Some(EAST),
            "X first"
        );
        assert_eq!(
            XyRouting::next_port(&mesh, mesh.node_at(2, 0), mesh.node_at(2, 2)),
            Some(NORTH)
        );
        assert_eq!(XyRouting::next_port(&mesh, mesh.node_at(2, 2), mesh.node_at(2, 2)), None);

        let cube = Hypercube::new(4);
        assert_eq!(
            EcubeRouting::next_port(&cube, NodeId(0b0000), NodeId(0b1010)),
            Some(PortId(1)),
            "lowest differing dimension first"
        );
    }

    #[test]
    fn xy_cdg_is_acyclic() {
        use ftr_topo::{ChannelDependencyGraph, FaultSet};
        let mesh = Mesh2D::new(4, 4);
        let algo = XyRouting::new(mesh.clone());
        let g = crate::conditions::build_cdg(&mesh, &algo, &FaultSet::new());
        assert!(!g.has_cycle());
        let _ = algo;
        let _: Option<ChannelDependencyGraph> = None;
    }
}

/// Dimension-order routing on a general k-ary n-cube mesh (lowest
/// dimension first). Wrap-around variants are rejected at construction:
/// plain DOR deadlocks on rings, which is precisely why torus algorithms
/// need schemes like negative-hop.
#[derive(Clone)]
pub struct KAryDor {
    cube: ftr_topo::KAryNCube,
}

impl KAryDor {
    /// Creates DOR for a k-ary n-cube. Panics on wrap-around cubes.
    pub fn new(cube: ftr_topo::KAryNCube) -> Self {
        assert!(!cube.wraps(), "plain dimension-order routing deadlocks on wrap-around links");
        KAryDor { cube }
    }

    /// The single DOR output port, `None` at the destination.
    pub fn next_port(cube: &ftr_topo::KAryNCube, node: NodeId, dst: NodeId) -> Option<PortId> {
        let a = cube.coords(node);
        let b = cube.coords(dst);
        for d in 0..cube.dims() as usize {
            use std::cmp::Ordering::*;
            match a[d].cmp(&b[d]) {
                Less => return Some(PortId((2 * d) as u8)),
                Greater => return Some(PortId((2 * d + 1) as u8)),
                Equal => {}
            }
        }
        None
    }
}

impl RoutingAlgorithm for KAryDor {
    fn name(&self) -> String {
        format!("dor:{}", self.cube.name())
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(KAryDorController {
            cube: self.cube.clone(),
            hop_limit: max_hops(self.cube.num_nodes()),
        })
    }
}

struct KAryDorController {
    cube: ftr_topo::KAryNCube,
    hop_limit: u32,
}

impl NodeController for KAryDorController {
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
        let Some(p) = KAryDor::next_port(&self.cube, view.node, h.dst) else {
            return Decision::new(Verdict::Deliver, 1);
        };
        if !view.alive(p.idx()) {
            return Decision::new(Verdict::Unroutable, 1);
        }
        if view.free(p.idx(), 0) {
            Decision::new(Verdict::Route(p, VcId(0)), 1)
        } else {
            Decision::new(Verdict::Wait, 1)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        KAryDor::next_port(&self.cube, view.node, h.dst)
            .filter(|p| view.alive(p.idx()))
            .map(|p| (p, VcId(0)))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod kary_tests {
    use super::*;
    use ftr_sim::Network;
    use ftr_topo::KAryNCube;
    use std::sync::Arc;

    #[test]
    fn three_d_mesh_all_pairs() {
        let cube = KAryNCube::mesh(3, 3);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&KAryDor::new(cube)).expect("valid config");
        net.set_measuring(true);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(200_000));
        assert_eq!(net.stats.delivered_msgs, 27 * 26);
        assert_eq!(net.stats.excess_hops, 0);
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn kary_dor_cdg_acyclic() {
        let cube = KAryNCube::mesh(3, 3);
        let algo = KAryDor::new(cube.clone());
        let g = crate::conditions::build_cdg(&cube, &algo, &ftr_topo::FaultSet::new());
        assert!(!g.has_cycle());
    }

    #[test]
    #[should_panic(expected = "deadlocks")]
    fn wraparound_rejected() {
        KAryDor::new(KAryNCube::torus(4, 2));
    }

    #[test]
    fn next_port_dimension_order() {
        let cube = KAryNCube::mesh(4, 3);
        let a = cube.node_at(&[0, 2, 1]);
        let b = cube.node_at(&[3, 0, 1]);
        // dimension 0 first (+x), then dimension 1 (-y)
        assert_eq!(KAryDor::next_port(&cube, a, b), Some(PortId(0)));
        let mid = cube.node_at(&[3, 2, 1]);
        assert_eq!(KAryDor::next_port(&cube, mid, b), Some(PortId(3)));
        assert_eq!(KAryDor::next_port(&cube, b, b), None);
    }
}

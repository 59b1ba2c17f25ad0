//! Shared fixtures of the `ftr-sim` integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_sim::{Network, SimConfig};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH, SOUTH, WEST};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// XY dimension-order routing, the known-good control algorithm: one VC,
/// a configurable step count per decision, and — being oblivious — a
/// dead link on the fixed path is fatal (`Unroutable`), so transient
/// faults terminate messages instead of stalling them forever.
#[derive(Clone)]
pub struct Xy {
    mesh: Mesh2D,
    steps: u32,
    /// `route` calls made by every controller cloned from this algorithm.
    calls: Arc<AtomicU64>,
}

impl Xy {
    /// One interpretation step per decision.
    pub fn new(mesh: Mesh2D) -> Self {
        Xy::with_steps(mesh, 1)
    }

    pub fn with_steps(mesh: Mesh2D, steps: u32) -> Self {
        Xy { mesh, steps, calls: Arc::default() }
    }

    /// How often the network's controllers were asked to route.
    pub fn route_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl RoutingAlgorithm for Xy {
    fn name(&self) -> String {
        "xy-test".into()
    }
    fn num_vcs(&self) -> usize {
        1
    }
    fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
        Box::new(self.clone())
    }
}

impl NodeController for Xy {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _ip: Option<PortId>,
        _iv: VcId,
    ) -> Decision {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let (dx, dy) = self.mesh.offset(view.node, h.dst);
        let p = if dx > 0 {
            EAST
        } else if dx < 0 {
            WEST
        } else if dy > 0 {
            NORTH
        } else if dy < 0 {
            SOUTH
        } else {
            return Decision::new(Verdict::Deliver, self.steps);
        };
        let verdict = if !view.alive(p.idx()) {
            Verdict::Unroutable
        } else if view.free(p.idx(), 0) {
            Verdict::Route(p, VcId(0))
        } else {
            Verdict::Wait
        };
        Decision::new(verdict, self.steps)
    }
}

/// A `side`×`side` mesh running [`Xy`] with `steps` steps per decision.
pub fn mesh_net(side: u32, steps: u32, cfg: SimConfig) -> (Arc<Mesh2D>, Network) {
    let topo = Arc::new(Mesh2D::new(side, side));
    let algo = Xy::with_steps((*topo).clone(), steps);
    let net = Network::builder(topo.clone()).config(cfg).build(&algo).expect("valid config");
    (topo, net)
}

/// Starts one 4 000-flit worm per node of a 6×6 mesh and runs 500 warm-up
/// cycles: flits then move on every link for thousands of cycles without a
/// send or a delivery, and every scratch vector has reached its size.
pub fn stream_worms(net: &mut Network) {
    for i in 0..36 {
        net.send(NodeId(i), NodeId(35 - i), 4_000).unwrap();
    }
    net.run(500);
}

//! The negative-hop deadlock-prevention scheme (\[BoC96\], discussed in the
//! paper's §3): "using the negative hop scheme — for which the number of
//! virtual channels depends on the network diameter — no changes to the
//! deadlock avoidance are necessary at all" when faults appear.
//!
//! Nodes are 2-coloured (checkerboard classes); every hop flips the class;
//! a hop into class 0 is *negative*. A message travels on virtual channel
//! `k` after taking `k` negative hops. Within one channel class only
//! class-0 → class-1 hops exist (acyclic), and channel indices only grow,
//! so the full dependency graph is acyclic for *any* routing relation —
//! minimal, adaptive or misrouted. Fault tolerance therefore costs **no
//! scheme changes at all**, only the diameter-dependent channel count the
//! paper contrasts with NAFTA's two channels + near-fault reconfiguration.

use crate::common::{allocatable, least_loaded, max_hops};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};

/// Fully adaptive minimal routing with misrouting, deadlock-free by the
/// negative-hop virtual-channel discipline.
#[derive(Clone)]
pub struct NegativeHop {
    mesh: Mesh2D,
    /// Extra (non-minimal) hops a message may take around faults.
    detour_budget: u32,
}

impl NegativeHop {
    /// Creates the algorithm; `detour_budget` bounds misrouting and hence
    /// the channel count.
    pub fn new(mesh: Mesh2D, detour_budget: u32) -> Self {
        NegativeHop { mesh, detour_budget }
    }

    /// Network diameter of the mesh.
    fn diameter(&self) -> u32 {
        self.mesh.width() + self.mesh.height() - 2
    }

    /// Node colour class (checkerboard).
    pub fn class(mesh: &Mesh2D, n: NodeId) -> u8 {
        let (x, y) = mesh.coords(n);
        ((x + y) % 2) as u8
    }
}

impl RoutingAlgorithm for NegativeHop {
    fn name(&self) -> String {
        "negative-hop".into()
    }

    /// ceil((diameter + budget) / 2) + 1 channels — the diameter-dependent
    /// cost the paper calls out.
    fn num_vcs(&self) -> usize {
        ((self.diameter() + self.detour_budget).div_ceil(2) + 1) as usize
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        Box::new(NhController {
            mesh: self.mesh.clone(),
            num_vcs: self.num_vcs(),
            max_len: self.diameter() + self.detour_budget,
            hop_limit: max_hops(self.mesh.num_nodes()),
        })
    }
}

struct NhController {
    mesh: Mesh2D,
    num_vcs: usize,
    max_len: u32,
    hop_limit: u32,
}

impl NhController {
    /// The channel a hop through `p` must use, or `None` when the channel
    /// budget is exhausted.
    fn hop_vc(&self, node: NodeId, p: PortId, in_vc: VcId) -> Option<VcId> {
        let nb = self.mesh.neighbor(node, p)?;
        let negative = NegativeHop::class(&self.mesh, nb) == 0;
        let v = in_vc.idx() + usize::from(negative);
        (v < self.num_vcs).then_some(VcId(v as u8))
    }

    fn candidates(
        &self,
        view: &RouterView<'_>,
        dst: NodeId,
        in_port: Option<PortId>,
        in_vc: VcId,
        hops: u32,
    ) -> Vec<(PortId, VcId)> {
        let minimal = self.mesh.minimal_directions(view.node, dst);
        let usable = |p: &PortId| view.alive(p.idx()) && Some(*p) != in_port;
        let min_ok: Vec<(PortId, VcId)> = minimal
            .iter()
            .copied()
            .filter(usable)
            .filter_map(|p| self.hop_vc(view.node, p, in_vc).map(|v| (p, v)))
            .collect();
        if !min_ok.is_empty() {
            return min_ok;
        }
        // misroute anywhere (no turn restrictions needed!) while the
        // path-length budget holds
        if hops + self.mesh.min_distance(view.node, dst) + 2 > self.max_len {
            return Vec::new();
        }
        self.mesh
            .minimal_directions(view.node, dst)
            .iter()
            .chain(ftr_topo::mesh::MESH_PORTS.iter())
            .copied()
            .filter(usable)
            .filter_map(|p| self.hop_vc(view.node, p, in_vc).map(|v| (p, v)))
            .collect()
    }
}

impl NodeController for NhController {
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
        let cands = self.candidates(view, h.dst, in_port, in_vc, h.hops);
        if cands.is_empty() {
            return Decision::new(Verdict::Unroutable, 1);
        }
        let avail = allocatable(view, &cands);
        if let Some((p, v)) = least_loaded(view, &avail) {
            if !self.mesh.minimal_directions(view.node, h.dst).contains(&p) {
                h.misrouted = true;
            }
            Decision::new(Verdict::Route(p, v), 1)
        } else {
            Decision::new(Verdict::Wait, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::{FaultSet, EAST, NORTH};
    use std::sync::Arc;

    #[test]
    fn vc_count_depends_on_diameter() {
        assert_eq!(NegativeHop::new(Mesh2D::new(4, 4), 0).num_vcs(), 4);
        assert_eq!(NegativeHop::new(Mesh2D::new(8, 8), 0).num_vcs(), 8);
        assert_eq!(NegativeHop::new(Mesh2D::new(8, 8), 6).num_vcs(), 11);
        // versus NAFTA's constant 2 — the paper's §3 trade-off
    }

    #[test]
    fn classes_alternate() {
        let m = Mesh2D::new(4, 4);
        for n in m.nodes() {
            for (_, nb) in m.neighbors(n) {
                assert_ne!(
                    NegativeHop::class(&m, n),
                    NegativeHop::class(&m, nb),
                    "adjacent nodes differ in class"
                );
            }
        }
    }

    #[test]
    fn all_pairs_delivered_minimally() {
        let m = Mesh2D::new(4, 4);
        let algo = NegativeHop::new(m.clone(), 4);
        let mut net = Network::builder(Arc::new(m.clone())).build(&algo).expect("valid config");
        net.set_measuring(true);
        for a in m.nodes() {
            for b in m.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(200_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0);
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn cdg_acyclic_even_when_misrouting() {
        // the whole point: ANY relation is deadlock-free under the
        // negative-hop discipline, faults included, with zero scheme changes
        let m = Mesh2D::new(4, 4);
        let algo = NegativeHop::new(m.clone(), 4);
        for seed in [1u64, 5, 9] {
            let mut faults = FaultSet::new();
            faults.inject_random_links(&m, 4, true, seed);
            let g = crate::conditions::build_cdg(&m, &algo, &faults);
            assert!(!g.has_cycle(), "seed {seed}: {:?}", g.find_cycle());
        }
    }

    #[test]
    fn routes_around_faults_without_state() {
        let m = Mesh2D::new(5, 5);
        let algo = NegativeHop::new(m.clone(), 6);
        let mut net = Network::builder(Arc::new(m.clone())).build(&algo).expect("valid config");
        net.inject_link_fault(m.node_at(1, 1), EAST);
        net.inject_link_fault(m.node_at(2, 2), NORTH);
        // no settle needed: the scheme keeps no fault state at all
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 3);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&m, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert!(!net.stats.deadlock);
        let total = net.stats.delivered_msgs + net.stats.unroutable_msgs;
        assert!(
            net.stats.delivered_msgs as f64 / total as f64 > 0.97,
            "delivered {} of {total}",
            net.stats.delivered_msgs
        );
    }

    /// 13 VCs × 5 input ports = 65 arbitration slots: the switch's
    /// request sets span two words (the injection lane is slot 64). The
    /// pinned totals were recorded from the slot-scanning arbiter the
    /// bitset pick replaced; contention, faults and misroute priority
    /// make them sensitive to every round-robin decision.
    #[test]
    fn switch_wider_than_64_slots_arbitrates_as_before() {
        let m = Mesh2D::new(12, 12);
        let algo = NegativeHop::new(m.clone(), 2);
        assert_eq!((m.degree() + 1) * algo.num_vcs(), 65);
        let mut net = Network::builder(Arc::new(m.clone()))
            .prioritize_misrouted(true)
            .build(&algo)
            .expect("a 65-slot switch is a valid configuration");
        net.inject_link_fault(m.node_at(5, 5), EAST);
        net.inject_link_fault(m.node_at(6, 6), NORTH);
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.3, 6, 11);
        for _ in 0..400 {
            for (s, d, l) in tf.tick(&m, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(100_000));
        let s = &net.stats;
        assert!(!s.deadlock && s.accounting_balanced());
        assert_eq!((s.delivered_msgs, s.latency.sum, s.hops.sum), (2886, 291_954, 23_016));
    }

    #[test]
    fn condition1_fault_free() {
        let m = Mesh2D::new(4, 4);
        let algo = NegativeHop::new(m.clone(), 2);
        let rep = crate::conditions::check_conditions(&m, &algo, &FaultSet::new(), None);
        assert_eq!(rep.cond1_ok, rep.cond1_pairs, "fully adaptive minimal");
        assert_eq!(rep.cond2_ok, rep.cond2_pairs);
    }
}

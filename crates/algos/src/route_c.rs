//! ROUTE_C — fault-tolerant hypercube routing (Chiu & Wu \[ChW96\]), as
//! described in the paper's §2.2.
//!
//! * **Node safety states** `{safe, lfault, ounsafe, sunsafe, faulty}`
//!   ordered as a finite lattice (state updates are monotone joins, which
//!   is why "the propagation scheme settles fast" — experiment E10).
//!   A node with a faulty link is at least `lfault`; a node with ≥ 2
//!   unsafe/faulty neighbours (or ends of two faulty links) becomes
//!   *ordinarily unsafe*; with ≥ d-1 it is *strongly unsafe*. Unsafe nodes
//!   are avoided by transit messages.
//! * **Two-phase minimal routing** (\[Kon90\] style): first resolve all
//!   dimensions whose coordinate increases (virtual channel 0), then all
//!   decreasing dimensions (channel 1). Each hop in a phase is monotone in
//!   the node id, so both phase networks are acyclic.
//! * **Fault mode**: when every minimal dimension is blocked, the message
//!   is misrouted over a spare dimension using the three additional
//!   virtual channels (2–4) — the paper: "an extension of four additional
//!   virtual channels is used in the hops-so-far scheme ... by applying the
//!   method from \[BoC96\] three additional virtual channels suffice",
//!   hence ROUTE_C's total of **five** VCs.
//! * **Decision cost**: every message needs *two* consecutive rule
//!   interpretations (`decide_dir` then `decide_vc`); the stripped
//!   non-fault-tolerant variant needs one (§5).

use crate::common::{allocatable, least_loaded, max_hops};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{Hypercube, NodeId, PortId, Topology, VcId};

/// Reconfiguration wave after a repair: payload `[RC_TAG_RESET, epoch]`.
/// State announcements are single-word payloads, so the two-word reset
/// marker can never be mistaken for one. The safety lattice only ever
/// joins upward, so un-learning a repaired fault requires this explicit
/// epoch-tagged reset flood: clear remote knowledge, re-derive the local
/// state from scratch, re-announce.
const RC_TAG_RESET: i64 = 100;

/// ROUTE_C node safety states, ordered as the update lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SafetyState {
    /// Fully operational.
    Safe = 0,
    /// Has at least one faulty link.
    LinkFault = 1,
    /// Ordinarily unsafe (≥ 2 unsafe/faulty neighbours or faulty links).
    OrdUnsafe = 2,
    /// Strongly unsafe (≥ d-1).
    StrUnsafe = 3,
    /// The node itself failed.
    Faulty = 4,
}

impl SafetyState {
    fn from_i64(v: i64) -> SafetyState {
        match v {
            1 => SafetyState::LinkFault,
            2 => SafetyState::OrdUnsafe,
            3 => SafetyState::StrUnsafe,
            4 => SafetyState::Faulty,
            _ => SafetyState::Safe,
        }
    }

    /// Unsafe or worse — avoided by transit messages.
    pub fn is_unsafe(&self) -> bool {
        *self >= SafetyState::OrdUnsafe
    }
}

/// The ROUTE_C algorithm (or its stripped non-fault-tolerant variant).
#[derive(Clone)]
pub struct RouteC {
    cube: Hypercube,
    stripped: bool,
}

impl RouteC {
    /// Full fault-tolerant ROUTE_C (5 virtual channels, 2 steps/decision).
    pub fn new(cube: Hypercube) -> Self {
        RouteC { cube, stripped: false }
    }

    /// The stripped variant: same fault-free behaviour, no fault handling,
    /// two virtual channels, one interpretation per message.
    pub fn stripped(cube: Hypercube) -> Self {
        RouteC { cube, stripped: true }
    }
}

impl RoutingAlgorithm for RouteC {
    fn name(&self) -> String {
        if self.stripped {
            "route_c_nft".into()
        } else {
            "route_c".into()
        }
    }

    fn num_vcs(&self) -> usize {
        if self.stripped {
            2
        } else {
            5
        }
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let dim = self.cube.dim() as usize;
        Box::new(RouteCController {
            cube: self.cube.clone(),
            node,
            stripped: self.stripped,
            hop_limit: max_hops(self.cube.num_nodes()),
            link_dead: vec![false; dim],
            neighbor_state: vec![SafetyState::Safe; dim],
            state: SafetyState::Safe,
            last_announced: None,
            epoch: 0,
        })
    }
}

/// Per-node ROUTE_C controller (the `update_state` registers of Table 2).
pub struct RouteCController {
    cube: Hypercube,
    node: NodeId,
    stripped: bool,
    hop_limit: u32,
    link_dead: Vec<bool>,
    neighbor_state: Vec<SafetyState>,
    state: SafetyState,
    last_announced: Option<SafetyState>,
    /// Reconfiguration epoch: bumped by repair-triggered reset waves so
    /// concurrent/stale waves are absorbed instead of looping forever.
    epoch: u64,
}

impl RouteCController {
    /// The safety state implied by current local knowledge (Table 2).
    fn compute_state(&self) -> SafetyState {
        let dim = self.cube.dim() as usize;
        let bad = (0..dim)
            .filter(|&d| {
                self.link_dead[d]
                    || self.neighbor_state[d].is_unsafe()
                    || self.neighbor_state[d] == SafetyState::Faulty
            })
            .count();
        let mut computed = SafetyState::Safe;
        if self.link_dead.iter().any(|&b| b) {
            computed = computed.max(SafetyState::LinkFault);
        }
        if bad >= 2 {
            computed = computed.max(SafetyState::OrdUnsafe);
        }
        if bad >= dim.saturating_sub(1).max(2) {
            computed = computed.max(SafetyState::StrUnsafe);
        }
        computed
    }

    /// Announces the current state to all live neighbours if it changed
    /// since the last announcement (Safe is the quiet default).
    fn announce(&mut self) -> Vec<ControlMsg> {
        if self.last_announced == Some(self.state) || self.state == SafetyState::Safe {
            return Vec::new();
        }
        self.last_announced = Some(self.state);
        let dim = self.cube.dim() as usize;
        (0..dim)
            .filter(|&d| !self.link_dead[d])
            .map(|d| ControlMsg { port: PortId(d as u8), payload: vec![self.state as i64] })
            .collect()
    }

    /// Monotone state recomputation; announces on change.
    fn update_state(&mut self) -> Vec<ControlMsg> {
        self.state = self.state.max(self.compute_state()); // lattice join: monotone
        self.announce()
    }

    /// Joins reconfiguration epoch `e`: forgets neighbour states, rebuilds
    /// the own state from local knowledge only (the one place the lattice
    /// may move *down*), and floods the reset marker plus a fresh
    /// announcement.
    fn start_reset(&mut self, e: u64) -> Vec<ControlMsg> {
        self.epoch = e;
        let dim = self.cube.dim() as usize;
        self.neighbor_state = vec![SafetyState::Safe; dim];
        self.state = self.compute_state();
        self.last_announced = None;
        let mut out: Vec<ControlMsg> = (0..dim)
            .filter(|&d| !self.link_dead[d])
            .map(|d| ControlMsg { port: PortId(d as u8), payload: vec![RC_TAG_RESET, e as i64] })
            .collect();
        out.extend(self.announce());
        out
    }

    /// Candidate dimensions for the current phase. Returns
    /// `(ports, phase, misroute)` where phase 0 = increasing coordinates,
    /// 1 = decreasing (the deadlock scheme "first all links with increasing
    /// coordinates ... afterwards all links with decreasing coordinates").
    fn decide_dir(&self, dst: NodeId) -> (Vec<PortId>, u8, bool) {
        let diff = self.cube.diff(self.node, dst);
        let dim = self.cube.dim();
        let increasing: Vec<PortId> = (0..dim)
            .filter(|i| diff & (1 << i) != 0 && self.node.0 & (1 << i) == 0)
            .map(|i| PortId(i as u8))
            .collect();
        let decreasing: Vec<PortId> = (0..dim)
            .filter(|i| diff & (1 << i) != 0 && self.node.0 & (1 << i) != 0)
            .map(|i| PortId(i as u8))
            .collect();
        let (minimal, phase) =
            if !increasing.is_empty() { (increasing, 0u8) } else { (decreasing, 1u8) };
        let usable = |p: &PortId| -> bool {
            if self.link_dead[p.idx()] {
                return false;
            }
            if self.stripped {
                return true;
            }
            let nb = self.cube.neighbor(self.node, *p).expect("cube port");
            // avoid unsafe transit nodes, but always allow the destination
            nb == dst || !self.neighbor_state[p.idx()].is_unsafe()
        };
        let open: Vec<PortId> = minimal.iter().copied().filter(usable).collect();
        if !open.is_empty() || self.stripped {
            return (open, phase, false);
        }
        // fault mode (the extra virtual channels): prefer dimensions that
        // are still minimal — just in the other phase — over spare
        // dimensions that lengthen the path
        let mut mis: Vec<PortId> = (0..dim)
            .map(|i| PortId(i as u8))
            .filter(|p| diff & (1 << p.idx()) != 0)
            .filter(usable)
            .collect();
        mis.extend(
            (0..dim).map(|i| PortId(i as u8)).filter(|p| diff & (1 << p.idx()) == 0).filter(usable),
        );
        (mis, phase, true)
    }

    /// The VC range legal for `(phase, misroute)` — `decide_vc`'s job.
    fn vc_range(&self, phase: u8, misroute: bool) -> std::ops::Range<usize> {
        if self.stripped {
            return (phase as usize)..(phase as usize + 1);
        }
        if misroute {
            2..5
        } else {
            (phase as usize)..(phase as usize + 1)
        }
    }
}

impl NodeController for RouteCController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Decision {
        let steps = if self.stripped { 1 } else { 2 };
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, steps);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, steps);
        }
        let (ports, phase, misroute) = self.decide_dir(h.dst);
        if ports.is_empty() {
            return Decision::new(Verdict::Unroutable, steps);
        }
        let vcr = self.vc_range(phase, misroute);
        let cand: Vec<(PortId, VcId)> =
            ports.iter().flat_map(|&p| vcr.clone().map(move |v| (p, VcId(v as u8)))).collect();
        let avail = allocatable(view, &cand);
        // misrouting follows decide_dir's preference order (minimal dims of
        // the other phase first); normal routing balances load
        let pick = if misroute { avail.first().copied() } else { least_loaded(view, &avail) };
        if let Some((p, v)) = pick {
            h.phase = phase;
            if misroute {
                h.misrouted = true;
            }
            Decision::new(Verdict::Route(p, v), steps)
        } else {
            Decision::new(Verdict::Wait, steps)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        if view.node == h.dst {
            return Vec::new();
        }
        let (ports, phase, misroute) = self.decide_dir(h.dst);
        let vcr = self.vc_range(phase, misroute);
        ports
            .iter()
            .filter(|p| view.alive(p.idx()))
            .flat_map(|&p| vcr.clone().map(move |v| (p, VcId(v as u8))))
            .collect()
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = true;
        self.update_state()
    }

    fn on_repair(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = false;
        self.start_reset(self.epoch + 1)
    }

    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        if payload.len() == 2 && payload[0] == RC_TAG_RESET {
            let e = payload[1] as u64;
            if e > self.epoch {
                // first contact with this wave: clear, re-derive, forward
                return self.start_reset(e);
            }
            // duplicate/stale wave: the sender just forgot our state — make
            // the next announcement unconditional
            self.last_announced = None;
            return self.announce();
        }
        if payload.len() != 1 {
            return Vec::new();
        }
        let s = SafetyState::from_i64(payload[0]);
        if s > self.neighbor_state[from.idx()] {
            self.neighbor_state[from.idx()] = s;
            self.update_state()
        } else {
            Vec::new()
        }
    }

    fn state_word(&self) -> i64 {
        self.state as i64
    }
}

/// True if every alive node of the network is unsafe — ROUTE_C's "totally
/// unsafe" condition, under which condition 3 no longer holds. The paper:
/// "this will only occur if more than n-1 nodes are faulty."
pub fn totally_unsafe(states: &[SafetyState]) -> bool {
    states.iter().all(|s| s.is_unsafe() || *s == SafetyState::Faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::FaultSet;
    use std::sync::Arc;

    fn cube_net(dim: u32, node_faults: &[u32]) -> (Arc<Hypercube>, Network) {
        let cube = Hypercube::new(dim);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&RouteC::new(cube)).expect("valid config");
        for &n in node_faults {
            net.inject_node_fault(NodeId(n));
        }
        net.settle_control(10_000).expect("settles");
        (topo, net)
    }

    #[test]
    fn all_pairs_fault_free_minimal() {
        let (topo, mut net) = cube_net(4, &[]);
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
        assert_eq!(net.stats.excess_hops, 0);
        assert_eq!(net.stats.decision_steps.max, 2, "always two interpretations");
    }

    #[test]
    fn stripped_variant_single_step() {
        let cube = Hypercube::new(4);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&RouteC::stripped(cube)).expect("valid config");
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
        assert_eq!(net.stats.decision_steps.max, 1);
    }

    #[test]
    fn routes_around_faulty_node() {
        let (topo, mut net) = cube_net(4, &[5]);
        net.set_measuring(true);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && a != NodeId(5) && b != NodeId(5) {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(300_000));
        assert_eq!(net.stats.delivered_msgs, 15 * 14);
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.unroutable_msgs, 0);
    }

    #[test]
    fn unsafe_state_on_two_bad_neighbors() {
        // node 0's neighbours 1 and 2 fail -> node 0 has two faulty
        // neighbours -> ordinarily unsafe (plus lfault from dead links)
        let (_, net) = cube_net(4, &[1, 2]);
        let s = SafetyState::from_i64(net.controller(NodeId(0)).state_word());
        assert!(s.is_unsafe(), "state {s:?}");
        // a node far away (15 = !0) stays safe
        let far = SafetyState::from_i64(net.controller(NodeId(15)).state_word());
        assert_eq!(far, SafetyState::Safe);
    }

    #[test]
    fn lfault_state_on_single_link_fault() {
        let cube = Hypercube::new(3);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&RouteC::new(cube)).expect("valid config");
        net.inject_link_fault(NodeId(0), PortId(0));
        net.settle_control(1_000).unwrap();
        let s = SafetyState::from_i64(net.controller(NodeId(0)).state_word());
        assert_eq!(s, SafetyState::LinkFault);
        assert!(!s.is_unsafe(), "lfault alone does not exclude the node");
    }

    #[test]
    fn propagation_settles_quickly() {
        // monotone lattice -> settles in O(diameter) control steps
        let (_, mut net) = cube_net(5, &[3]);
        let extra = net.settle_control(1_000).unwrap();
        assert_eq!(extra, 0, "already settled after initial settle");
    }

    #[test]
    fn cdg_acyclic_fault_free() {
        let cube = Hypercube::new(3);
        let algo = RouteC::new(cube.clone());
        let g = crate::conditions::build_cdg(&cube, &algo, &FaultSet::new());
        assert!(!g.has_cycle(), "{:?}", g.find_cycle());
    }

    #[test]
    fn conditions_fault_free() {
        let cube = Hypercube::new(3);
        let algo = RouteC::new(cube.clone());
        let rep = crate::conditions::check_conditions(&cube, &algo, &FaultSet::new(), None);
        // two-phase routing is minimal but NOT fully adaptive (phase order
        // fixes which dimension groups come first)
        assert_eq!(rep.cond2_ok, rep.cond2_pairs);
        assert_eq!(rep.cond3_ok, rep.cond3_pairs);
        assert!(rep.cond1_ok < rep.cond1_pairs);
    }

    #[test]
    fn totally_unsafe_detection() {
        assert!(!totally_unsafe(&[SafetyState::Safe, SafetyState::OrdUnsafe]));
        assert!(totally_unsafe(&[SafetyState::OrdUnsafe, SafetyState::Faulty]));
    }

    #[test]
    fn repair_reset_lowers_safety_states_again() {
        // two faulty neighbours push node 0 to OrdUnsafe; repairing them
        // must bring the whole cube back to Safe even though in-epoch
        // updates only ever join upward
        let cube = Hypercube::new(4);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&RouteC::new(cube)).expect("valid config");
        net.inject_node_fault(NodeId(1));
        net.inject_node_fault(NodeId(2));
        net.settle_control(10_000).expect("settles");
        assert!(SafetyState::from_i64(net.controller(NodeId(0)).state_word()).is_unsafe());

        net.repair_node(NodeId(1));
        net.repair_node(NodeId(2));
        net.settle_control(10_000).expect("reset settles");
        for n in topo.nodes() {
            assert_eq!(
                SafetyState::from_i64(net.controller(n).state_word()),
                SafetyState::Safe,
                "node {n} back to safe"
            );
        }
        // and the repaired nodes carry traffic again
        net.set_measuring(true);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(300_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "minimal routing restored");
    }

    #[test]
    fn partial_repair_keeps_remaining_unsafe_knowledge() {
        let cube = Hypercube::new(4);
        let topo = Arc::new(cube.clone());
        let mut net =
            Network::builder(topo.clone()).build(&RouteC::new(cube)).expect("valid config");
        net.inject_node_fault(NodeId(1));
        net.inject_node_fault(NodeId(2));
        net.settle_control(10_000).expect("settles");

        net.repair_node(NodeId(1));
        net.settle_control(10_000).expect("reset settles");
        // node 2 is still dead: its neighbours keep at least LinkFault
        let s0 = SafetyState::from_i64(net.controller(NodeId(0)).state_word());
        assert_eq!(s0, SafetyState::LinkFault, "one dead neighbour remains");
        assert!(!s0.is_unsafe(), "no longer ordinarily unsafe");
    }

    #[test]
    fn sustained_traffic_with_fault() {
        let (topo, mut net) = cube_net(4, &[9]);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 4, 31);
        for _ in 0..1_500 {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert!(!net.stats.deadlock);
        assert!(net.stats.delivered_msgs > 400);
    }
}

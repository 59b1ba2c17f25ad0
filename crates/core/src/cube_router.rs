//! The rule-driven hypercube router: ROUTE_C executed *entirely* by the
//! rule machinery in the live network.
//!
//! Per head flit, the message interface ([`ftr_algos::rule_io::CubeIo`],
//! bound once when the router is built) loads the hypercube difference
//! sets and the usable-direction set — derived from the link status and
//! the `neighb_state` registers the rule program itself maintains — then
//! the machine fires the paper's two interpretation steps: `decide_dir`
//! (which output dimensions are legal) and `decide_vc` (channel selection +
//! adaptivity argmin into the `chosen` register). Fault and state
//! propagation run through `update_state`, the Figure-4 rule base, driven
//! by control-plane messages.
//!
//! The step counter therefore measures exactly the paper's "ROUTE_C always
//! needs two steps" on real traffic.

use crate::RouterConfiguration;
use ftr_algos::rule_io::{self, CubeIo, DirSets, SEND_NEWMESSAGE};
use ftr_rules::{InputMap, Machine, Value};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{Hypercube, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

/// Symbol indices of the `fault_states` type in the ROUTE_C program; a
/// control message carries the index of the state it reports.
const STATE_LFAULT: u32 = 1;
const STATE_OUNSAFE: u32 = 2;
const STATE_FAULTY: u32 = 4;

/// Rule-driven ROUTE_C for hypercubes.
pub struct CubeRuleRouter {
    config: Arc<RouterConfiguration>,
    cube: Hypercube,
    io: CubeIo,
}

impl CubeRuleRouter {
    /// Builds the router from a ROUTE_C configuration (use
    /// `ftr_algos::rules_src::route_c_source(dim)` for the matching
    /// program).
    ///
    /// # Panics
    ///
    /// If the program is not a full ROUTE_C program for this cube: it
    /// lacks a declaration or rule base of the message interface (the
    /// stripped `route_c_nft` does), declares one with another shape or
    /// element type, or for fewer dimensions than `cube` has. The message
    /// names the declaration.
    pub fn new(config: RouterConfiguration, cube: Hypercube) -> Self {
        let prog = &config.compiled.prog;
        let bound = CubeIo::bind(prog).and_then(|io| {
            io.require_all(prog)?;
            io.fits(prog, cube.dim())?;
            Ok(io)
        });
        let io = bound.unwrap_or_else(|e| panic!("rule program `{}`: {e}", config.name));
        CubeRuleRouter { config: Arc::new(config), cube, io }
    }
}

impl RoutingAlgorithm for CubeRuleRouter {
    fn name(&self) -> String {
        self.config.algorithm_name()
    }

    fn num_vcs(&self) -> usize {
        rule_io::CUBE_VCS
    }

    fn controller(&self, _topo: &dyn Topology, _node: NodeId) -> Box<dyn NodeController> {
        // ROUTE_C state is address-free: the machine needs no coordinates
        let base = |slot: Option<usize>| slot.expect("require_all() found every rule base");
        Box::new(CubeRuleController {
            machine: self.config.machine(None),
            cube: self.cube.clone(),
            io: self.io,
            decide_dir: base(self.io.decide_dir),
            decide_vc: base(self.io.decide_vc),
            update_state: base(self.io.update_state),
            inputs: InputMap::new(),
            link_dead: vec![false; self.cube.dim() as usize],
            hop_limit: 4 * self.cube.num_nodes() as u32 + 16,
        })
    }
}

struct CubeRuleController {
    machine: Machine,
    cube: Hypercube,
    io: CubeIo,
    /// The rule bases the host fires, as `io` bound them.
    decide_dir: usize,
    decide_vc: usize,
    update_state: usize,
    /// Reused for every decision and every state update.
    inputs: InputMap,
    /// Local link status shadow (the information unit's view).
    link_dead: Vec<bool>,
    hop_limit: u32,
}

impl CubeRuleController {
    /// The direction sets of `view.node → dst`. A dimension is usable if
    /// its link is alive and the neighbour behind it is the destination or
    /// not known to be unsafe.
    fn dir_sets(&self, view: &RouterView<'_>, dst: NodeId) -> DirSets {
        let (prog, regs) = (self.machine.program(), self.machine.regs());
        let mut ok = 0u64;
        for d in 0..self.cube.dim() as usize {
            let nb = self.cube.neighbor(view.node, PortId(d as u8)).expect("cube port");
            let state = CubeIo::sym(prog, regs, self.io.neighb_state, &[Value::Int(d as i64)]);
            if view.alive(d) && (nb == dst || state < STATE_OUNSAFE) {
                ok |= 1 << d;
            }
        }
        DirSets::new(&self.cube, view.node, dst, ok)
    }

    /// Drives `update_state(dir)` with a reported neighbour state; converts
    /// generated `send_newmessage` events into control messages.
    fn drive_update(&mut self, dir: PortId, reported: u32) -> Vec<ControlMsg> {
        let (prog, dim) = (self.machine.program(), self.cube.dim());
        self.inputs.clear();
        self.io.load_update(prog, &mut self.inputs, dim, dir.idx(), reported);
        let args = [Value::Int(dir.idx() as i64)];
        if self.machine.fire_base(self.update_state, &args, &self.inputs).is_err() {
            return Vec::new();
        }
        let alive = |d: i64| self.link_dead.get(d as usize) == Some(&false);
        self.machine
            .host_events()
            .filter_map(|event| match event {
                (SEND_NEWMESSAGE, &[Value::Int(d), Value::Int(code)]) if d >= 0 && alive(d) => {
                    Some(ControlMsg { port: PortId(d as u8), payload: vec![code] })
                }
                _ => None,
            })
            .collect()
    }
}

impl NodeController for CubeRuleController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Decision {
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, 2);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 2);
        }
        let dim = self.cube.dim();
        let sets = self.dir_sets(view, h.dst);
        let open = |d: usize, vc: usize| view.alive(d) && view.free(d, vc);

        // --- step 1: decide_dir
        self.inputs.clear();
        self.io.load_dir(self.machine.program(), &mut self.inputs, sets, |d| view.load(d));
        let Ok(step1) = self.machine.fire_base(self.decide_dir, &[], &self.inputs) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let cands = match step1.last_return {
            Some(Value::Set { mask, .. }) if mask != 0 => mask,
            _ => return Decision::new(Verdict::Unroutable, step1.steps.max(1)),
        };
        let cand = |d: usize| d < dim as usize && cands & (1 << d) != 0;

        // --- step 2: decide_vc (channel + adaptivity argmin); a channel
        // class is usable if any candidate output has it free
        let freevc = |vc: usize| (0..dim as usize).any(|d| cand(d) && open(d, vc));
        let (phase, misr) =
            self.io.load_vc(self.machine.program(), &mut self.inputs, sets, cands, freevc);
        let Ok(step2) = self.machine.fire_base(self.decide_vc, &[], &self.inputs) else {
            return Decision::new(Verdict::Unroutable, step1.steps.max(1) + 1);
        };
        let (prog, regs) = (self.machine.program(), self.machine.regs());
        let verdict = match self.io.channel(prog, regs, step2.last_return) {
            Some((port, vc)) if cand(port) && open(port, vc) => {
                h.misrouted |= misr;
                h.phase = phase;
                Verdict::Route(PortId(port as u8), VcId(vc as u8))
            }
            _ => Verdict::Wait,
        };
        crate::decision(verdict, step1.steps + step2.steps, self.io.out_queue.is_some())
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        // every channel the program can choose here, whatever the queues
        // and free classes hold: the static lift's enumeration, run on a
        // copy of this node's registers
        if view.node == h.dst {
            return Vec::new();
        }
        let (sets, regs) = (self.dir_sets(view, h.dst), self.machine.regs().clone());
        let (chans, _) = self.io.channels(&mut self.machine, &mut self.inputs, &regs, sets);
        self.machine.regs_mut().clone_from(&regs);
        chans
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = true;
        self.drive_update(port, STATE_LFAULT)
    }

    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        match payload {
            // ounsafe, sunsafe or faulty
            &[code] if (i64::from(STATE_OUNSAFE)..=i64::from(STATE_FAULTY)).contains(&code) => {
                self.drive_update(from, code as u32)
            }
            _ => Vec::new(),
        }
    }

    fn state_word(&self) -> i64 {
        i64::from(CubeIo::sym(self.machine.program(), self.machine.regs(), self.io.state, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src::route_c_source;
    use ftr_sim::{Network, Pattern, TrafficSource};

    fn rule_route_c(dim: u32) -> CubeRuleRouter {
        CubeRuleRouter::new(
            configure("route_c", &route_c_source(dim)).unwrap(),
            Hypercube::new(dim),
        )
    }

    fn rule_cube_net(dim: u32) -> Network {
        let cube = Arc::new(Hypercube::new(dim));
        Network::builder(cube).build(&rule_route_c(dim)).expect("valid config")
    }

    #[test]
    fn route_c_waits_are_polled() {
        // `decide_vc` takes `argmin(out_queue, cands)` over *all*
        // candidates and the host waits when the chosen one is busy, so a
        // load change alone can end the wait: it must be re-asked
        let (cube, algo) = (Hypercube::new(4), rule_route_c(4));
        let (busy, load, alive) = (vec![vec![false; 5]; 4], vec![2, 0, 5, 1], vec![true; 4]);
        let view = RouterView::from_tables(NodeId(3), 0, &busy, &load, &alive);
        let mut header = Header::new(ftr_sim::MessageId(1), NodeId(3), NodeId(12), 4);
        let before = header;
        let d = algo.controller(&cube, NodeId(3)).route(&view, &mut header, None, VcId(0));
        assert_eq!(d, Decision::polled_wait(2));
        assert_eq!(header, before);
    }

    #[test]
    fn rule_driven_route_c_delivers_all_pairs() {
        let mut net = rule_cube_net(4);
        net.set_measuring(true);
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a != b {
                    net.send(NodeId(a), NodeId(b), 2).unwrap();
                }
            }
        }
        assert!(net.drain(300_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "two-phase minimal");
        assert_eq!(
            net.stats.decision_steps.max, 2,
            "the paper's 'always two interpretations', measured live"
        );
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn rule_driven_route_c_survives_node_fault() {
        let mut net = rule_cube_net(4);
        net.inject_node_fault(NodeId(5));
        net.settle_control(10_000).expect("settles");
        net.set_measuring(true);
        let cube = Hypercube::new(4);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 9);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.unroutable_msgs, 0);
        assert!(net.stats.delivered_msgs > 200);
    }

    /// Many-to-one traffic at node 0 across its dead link 0#0: `rounds`
    /// rounds of one `len`-flit worm from each source, five cycles apart,
    /// then a drain. Returns (delivered, sent, deadlock).
    fn hot_spot_on_dead_link(
        algo: &dyn ftr_sim::RoutingAlgorithm,
        sources: &[u32],
        len: u32,
    ) -> (u64, u64, bool) {
        let mut net = Network::builder(Arc::new(Hypercube::new(4))).build(algo).expect("valid");
        net.inject_link_fault(NodeId(0), PortId(0));
        net.settle_control(10_000).expect("settles");
        for _ in 0..200 {
            for &s in sources {
                net.send(NodeId(s), NodeId(0), len).unwrap();
            }
            for _ in 0..5 {
                net.step();
            }
        }
        net.drain(400_000);
        (net.stats.delivered_msgs, 200 * sources.len() as u64, net.stats.deadlock)
    }

    #[test]
    fn rule_driven_route_c_deadlocks_on_one_dead_link_where_native_drains() {
        // Pins today's verdict, not the wanted one: the rule host deadlocks
        // on this schedule and native ROUTE_C does not. Fixing the rule arm
        // (ROADMAP item 1(a)) flips the first two rows to full delivery.
        let (cube, rules) = (Hypercube::new(4), rule_route_c(4));
        let native = ftr_algos::RouteC::new(cube);
        let odd: Vec<u32> = (1..16).step_by(2).collect();
        for (sources, len, rule_arm) in [
            (&[1, 3, 5, 9][..], 16, (499, 800, true)),
            (&odd[..], 32, (1_446, 1_600, true)),
            (&[1, 3, 5, 9][..], 4, (800, 800, false)),
        ] {
            assert_eq!(
                hot_spot_on_dead_link(&rules, sources, len),
                rule_arm,
                "{sources:?} x {len}"
            );
            let (delivered, sent, deadlock) = hot_spot_on_dead_link(&native, sources, len);
            assert_eq!((delivered, deadlock), (sent, false), "native {sources:?} x {len}");
        }
    }

    #[test]
    fn native_route_c_knots_on_two_dead_links_at_one_node() {
        // ROADMAP item 1's open question, answered: native ROUTE_C's
        // cycle does become a knot. Links 0#0 and 0#1 dead, uniform load
        // 0.3 in 8-flit worms for 1 500 cycles, rejected sends dropped.
        // Pins today's verdicts: (delivered, sent, deadlock) per seed.
        let (cube, rules) = (Hypercube::new(4), rule_route_c(4));
        let native = ftr_algos::RouteC::new(cube.clone());
        let run = |algo: &dyn ftr_sim::RoutingAlgorithm, seed| {
            let mut net = Network::builder(Arc::new(cube.clone())).build(algo).expect("valid");
            net.inject_link_fault(NodeId(0), PortId(0));
            net.inject_link_fault(NodeId(0), PortId(1));
            net.settle_control(10_000).expect("settles");
            let (mut tf, mut sent) = (TrafficSource::new(Pattern::Uniform, 0.3, 8, seed), 0);
            for _ in 0..1_500 {
                for (s, d, l) in tf.tick(&cube, net.faults()) {
                    sent += u64::from(net.send(s, d, l).is_ok());
                }
                net.step();
            }
            net.drain(100_000);
            (net.stats.delivered_msgs, sent, net.stats.deadlock)
        };
        for (seed, native_arm, rule_arm) in [
            (5, (297, 891, true), (888, 891, true)),
            (6, (638, 895, true), (895, 895, false)),
            (7, (470, 881, true), (858, 881, true)),
        ] {
            assert_eq!(run(&native, seed), native_arm, "native, seed {seed}");
            assert_eq!(run(&rules, seed), rule_arm, "rules, seed {seed}");
        }
    }

    #[test]
    #[should_panic(
        expected = "rule program `route_c_nft`: resolve error: the program does not declare `okdirs`"
    )]
    fn the_stripped_program_is_refused_at_construction() {
        let cfg = configure("route_c_nft", ftr_algos::rules_src::ROUTE_C_NFT).unwrap();
        CubeRuleRouter::new(cfg, Hypercube::new(4));
    }

    #[test]
    fn state_propagation_through_rule_machine() {
        // three dead neighbours around node 0 flip its rule-held state to
        // unsafe, exactly like the native implementation
        let mut net = rule_cube_net(4);
        for n in [1u32, 2, 4] {
            net.inject_node_fault(NodeId(n));
        }
        net.settle_control(10_000).unwrap();
        assert!(
            net.controller(NodeId(0)).state_word() >= 2,
            "node 0 should be unsafe, got {}",
            net.controller(NodeId(0)).state_word()
        );
        let far = net.controller(NodeId(15)).state_word();
        assert_eq!(far, 0, "antipode stays safe");
    }
}

//! The rule-driven router: a [`RoutingAlgorithm`] whose control unit is a
//! compiled rule program executed by the event manager.
//!
//! Every node holds one [`ftr_rules::Machine`] (the "Rule Bases" block of
//! Figure 3). On each head flit the data path's channel allocator
//! ([`ftr_algos::vnet`], selected by what the program declares) names the
//! virtual network the head decides in and the directions it may take;
//! the message interface ([`ftr_algos::rule_io::MeshIo`], bound once when
//! the router is built) presents header fields and the permitted, live
//! links to the program, the machine fires the entry rule base by its
//! index, and [`rule_io::decode`] reads the cascade's last `RETURN` value
//! (a direction, or 13 unroutable / 14 wait / 15 deliver). The direction
//! leaves on the allocator's VC.
//!
//! The number of rule interpretations the cascade used becomes the
//! decision's step count — the rule router therefore exhibits the very
//! overhead the paper measures (1 step for XY, up to 3 for a NAFTA-style
//! escalation chain).

use crate::RouterConfiguration;
use ftr_algos::rule_io::{self, MeshIo, PortInfo, Ret};
use ftr_algos::vnet::MeshVcMode;
use ftr_rules::{CompiledProgram, InputMap, InterpProbe, Machine};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

pub use ftr_algos::rule_io::{RET_DELIVER, RET_UNROUTABLE, RET_WAIT};

/// A rule-driven routing algorithm for 2-D meshes.
pub struct RuleRouter {
    config: Arc<RouterConfiguration>,
    mesh: Mesh2D,
    io: MeshIo,
    vcs: usize,
    probe: Option<Arc<dyn InterpProbe>>,
}

impl RuleRouter {
    /// Builds a rule router from a configuration. `vcs` is the number of
    /// virtual channels the data path provides (the program addresses them
    /// through the `invc` input).
    ///
    /// # Panics
    ///
    /// If the program cannot drive this mesh: it has no parameterless
    /// entry rule base, declares a name of the message interface with
    /// another shape or element type, or declares a domain too small for
    /// `mesh` or `vcs`, or declares two virtual networks when `vcs` is not
    /// 2. The message names the declaration.
    pub fn new(config: RouterConfiguration, mesh: Mesh2D, vcs: usize) -> Self {
        let prog = &config.compiled.prog;
        let bound = rule_io::entry(prog).and_then(|_| {
            let io = MeshIo::bind(prog)?;
            io.fits(prog, mesh.width(), mesh.height(), vcs)?;
            Ok(io)
        });
        let io = bound.unwrap_or_else(|e| panic!("rule program `{}`: {e}", config.name));
        RuleRouter { config: Arc::new(config), mesh, io, vcs, probe: None }
    }

    /// Attaches a per-stage interpreter probe (e.g. an
    /// `ftr_obs::InterpProfiler`); every node machine built afterwards
    /// reports premise/kernel/conclusion timings to it.
    pub fn with_profiler(mut self, probe: Arc<dyn InterpProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The configuration driving this router.
    pub fn configuration(&self) -> &RouterConfiguration {
        &self.config
    }
}

impl RoutingAlgorithm for RuleRouter {
    fn name(&self) -> String {
        self.config.algorithm_name()
    }

    fn num_vcs(&self) -> usize {
        self.vcs
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let mut machine = self.config.machine(self.probe.as_ref());
        let coords = self.mesh.coords(node);
        self.io.init_node(&self.config.compiled.prog, machine.regs_mut(), coords);
        Box::new(RuleNodeController {
            compiled: Arc::clone(&self.config.compiled),
            machine,
            mesh: self.mesh.clone(),
            io: self.io,
            mode: self.io.mode(&self.config.compiled.prog),
            inputs: InputMap::new(),
        })
    }
}

struct RuleNodeController {
    compiled: Arc<CompiledProgram>,
    machine: Machine,
    mesh: Mesh2D,
    io: MeshIo,
    mode: MeshVcMode,
    /// Reused for every decision.
    inputs: InputMap,
}

impl NodeController for RuleNodeController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        // one fire per consult: at injection the first lane stands for both
        let arrival = in_port.map(|p| (p, in_vc));
        let mut lanes = self.mode.lanes(arrival, self.mesh.offset(view.node, h.dst));
        let lane = lanes.next().expect("the allocator always offers a lane");
        let vc = lane.vnet as usize;
        self.inputs.clear();
        // the dead-end waves are not wired to this host: both flags read false
        let open = self.io.present(
            &self.compiled.prog,
            self.machine.regs_mut(),
            &mut self.inputs,
            self.mesh.coords(h.dst),
            lane,
            (false, false),
            |d| PortInfo { free: view.free(d, vc), linkok: view.alive(d), out_queue: view.load(d) },
        );
        let Ok(fired) = self.machine.fire_base(rule_io::ENTRY, &[], &self.inputs) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let verdict = match fired.last_return.map_or(Ret::Wait, rule_io::decode) {
            Ret::Dir(d) if d < 4 && open >> d & 1 != 0 && view.free(d as usize, vc) => {
                h.vnet = lane.vnet;
                Verdict::Route(PortId(d), VcId(lane.vnet))
            }
            Ret::Dir(_) | Ret::Wait => Verdict::Wait,
            Ret::Deliver => Verdict::Deliver,
            Ret::Unroutable => Verdict::Unroutable,
        };
        crate::decision(verdict, fired.steps.max(1), self.io.out_queue.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src;
    use ftr_sim::{Network, Pattern, TrafficSource};

    fn rule_net(src: &str, name: &str, mesh: Mesh2D) -> Network {
        let cfg = configure(name, src).unwrap();
        let algo = RuleRouter::new(cfg, mesh.clone(), 1);
        Network::builder(Arc::new(mesh)).build(&algo).expect("valid config")
    }

    #[test]
    fn rule_driven_xy_delivers_all_pairs() {
        let mesh = Mesh2D::new(4, 4);
        let mut net = rule_net(rules_src::XY, "xy", mesh.clone());
        net.set_measuring(true);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "XY program is minimal");
        assert_eq!(net.stats.decision_steps.max, 1, "one interpretation per hop");
    }

    #[test]
    fn rule_driven_xy_matches_native_xy_paths() {
        // identical single-message latencies: the rule program IS XY
        let mesh = Mesh2D::new(5, 4);
        let native = ftr_algos::XyRouting::new(mesh.clone());
        let mut nn = Network::builder(Arc::new(mesh.clone())).build(&native).expect("valid config");
        let mut rn = rule_net(rules_src::XY, "xy", mesh.clone());
        for (a, b) in [(0u32, 19u32), (3, 16), (7, 12), (18, 1)] {
            nn.send(NodeId(a), NodeId(b), 3).unwrap();
            rn.send(NodeId(a), NodeId(b), 3).unwrap();
        }
        assert!(nn.drain(10_000) && rn.drain(10_000));
        assert_eq!(nn.stats.hops, rn.stats.hops, "same paths");
        assert_eq!(nn.stats.latency, rn.stats.latency, "same timing");
    }

    #[test]
    fn rule_driven_west_first_adapts() {
        let mesh = Mesh2D::new(5, 5);
        let mut net = rule_net(rules_src::WEST_FIRST, "west-first", mesh.clone());
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 4, 17);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(20_000));
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.excess_hops, 0, "west-first is minimal");
        assert!(net.stats.delivered_msgs > 300);
    }

    #[test]
    fn profiler_sees_every_interpretation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct CountProbe(AtomicU64);
        impl InterpProbe for CountProbe {
            fn record_stage(&self, _base: usize, stage: ftr_rules::Stage, _nanos: u64) {
                if stage == ftr_rules::Stage::Kernel {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mesh = Mesh2D::new(4, 4);
        let cfg = configure("xy", rules_src::XY).unwrap();
        let probe = Arc::new(CountProbe(AtomicU64::new(0)));
        let algo = RuleRouter::new(cfg, mesh.clone(), 1)
            .with_profiler(probe.clone() as Arc<dyn InterpProbe>);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&algo).expect("valid config");
        net.send(mesh.node_at(0, 0), mesh.node_at(3, 0), 2).unwrap();
        assert!(net.drain(5_000));
        // one kernel lookup per interpretation; XY interprets once per
        // routing decision (and again whenever a waiting head is asked
        // anew), so at least the 3 on-path decisions must be visible
        assert!(probe.0.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn a_wait_is_polled_exactly_when_the_program_declares_the_load_input() {
        // every channel busy: any head that is not home must wait
        let mesh = Mesh2D::new(4, 4);
        let (busy, load, alive) = (vec![vec![false; 2]; 4], vec![7, 0, 3, 1], vec![true; 4]);
        let node = mesh.node_at(1, 1);
        let view = RouterView::from_tables(node, 9, &busy, &load, &alive);
        let wait = |name: &str, src: &str, vcs: usize| {
            let algo = RuleRouter::new(configure(name, src).unwrap(), mesh.clone(), vcs);
            let mut header = Header::new(ftr_sim::MessageId(1), node, mesh.node_at(3, 3), 4);
            let before = header;
            let d = algo.controller(&mesh, node).route(&view, &mut header, None, VcId(0));
            assert_eq!(header, before, "{name}: a Wait leaves the header alone");
            d
        };
        // xy.rules reads `free` and `linkok` only: the engine may park it
        assert_eq!(wait("xy", rules_src::XY, 1), Decision::new(Verdict::Wait, 1));
        // nafta.rules and west_first.rules declare `out_queue`; the host
        // cannot see that their RETURN(14) rules never read it
        let nafta = wait("nafta", rules_src::NAFTA, 2);
        assert_eq!(nafta, Decision::polled_wait(nafta.steps));
        assert_eq!(wait("west_first", rules_src::WEST_FIRST, 1), Decision::polled_wait(1));
    }

    #[test]
    #[should_panic(expected = "`xdes` must be declared as integer scalar covering 0 TO 39, but is")]
    fn a_mesh_wider_than_the_coordinate_domain_is_refused_at_construction() {
        RuleRouter::new(configure("xy", rules_src::XY).unwrap(), Mesh2D::new(40, 4), 1);
    }

    #[test]
    #[should_panic(expected = "`invc` must be declared as integer scalar covering 0 TO 2, but is")]
    fn more_virtual_channels_than_invc_holds_are_refused_at_construction() {
        RuleRouter::new(configure("nafta", rules_src::NAFTA).unwrap(), Mesh2D::new(6, 6), 3);
    }

    #[test]
    #[should_panic(expected = "`invc` is declared over two virtual networks")]
    fn a_two_network_program_is_refused_on_one_virtual_channel() {
        // the verifier proves nafta.rules on the NARA pair; a router that
        // ran it on one network would be one nobody proved
        RuleRouter::new(configure("nafta", rules_src::NAFTA).unwrap(), Mesh2D::new(6, 6), 1);
    }

    #[test]
    #[should_panic(
        expected = "`scalar_free`: resolve error: `free` must be declared as bool array"
    )]
    fn a_scalar_free_is_refused_at_construction() {
        let src = "INPUT free IN bool\nON route_msg() RETURNS 0 TO 15\n IF free THEN RETURN(0);\nEND route_msg;";
        RuleRouter::new(configure("scalar_free", src).unwrap(), Mesh2D::new(4, 4), 1);
    }

    #[test]
    fn swapping_programs_changes_behaviour() {
        // the flexibility claim: same router, different rule program,
        // different routing. XY cannot avoid a fault on the x-leg;
        // west-first routes around it when the detour never goes west.
        let mesh = Mesh2D::new(4, 4);
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(2, 1);

        let mut xy = rule_net(rules_src::XY, "xy", mesh.clone());
        xy.inject_link_fault(mesh.node_at(1, 0), ftr_topo::EAST);
        xy.send(src, dst, 2).unwrap();
        xy.run(200);
        assert_eq!(xy.stats.unroutable_msgs, 1, "XY is stuck");

        let mut wf = rule_net(rules_src::WEST_FIRST, "west-first", mesh.clone());
        wf.inject_link_fault(mesh.node_at(1, 0), ftr_topo::EAST);
        wf.send(src, dst, 2).unwrap();
        assert!(wf.drain(5_000), "west-first detours north around the fault");
        assert_eq!(wf.stats.delivered_msgs, 1);
    }
}

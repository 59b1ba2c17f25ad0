//! The rule host: a [`RoutingAlgorithm`] whose control unit is a compiled
//! rule program executed by the event manager, on any topology a message
//! interface ([`RuleIo`]) is written for.
//!
//! Every node holds one [`ftr_rules::Machine`] (the "Rule Bases" block of
//! Figure 3). The interface, bound once when the router is built, does
//! everything topology-specific: it presents a head to the program, fires
//! it and decodes the answer ([`RuleIo::route`]), enumerates every answer
//! the program can give ([`RuleIo::channels`], which the static lift in
//! `ftr-analyze` runs too), and turns fault reports into the program's
//! control messages. The interpretations a decision used become its step
//! count, so the host exhibits the very overhead the paper measures.

use crate::RouterConfiguration;
use ftr_algos::rule_io::{self, MeshIo, Query, RuleIo, Unit};
use ftr_rules::{InputMap, InterpProbe};
use ftr_sim::flit::Header;
use ftr_sim::routing::{ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

/// A rule-driven routing algorithm on the topology of message interface `I`.
pub struct RuleHost<I: RuleIo> {
    config: Arc<RouterConfiguration>,
    topo: I::Topo,
    io: I,
    reads: Arc<I::Reads>,
    probe: Option<Arc<dyn InterpProbe>>,
}

/// The rule host for 2-D meshes ([`MeshIo`]): the channel allocator
/// ([`ftr_algos::vnet`]) names the network and directions a head may
/// take, the entry rule base answers a direction or 13 unroutable / 14
/// wait / 15 deliver, and the direction leaves on the allocator's VC.
pub type RuleRouter = RuleHost<MeshIo>;

impl<I: RuleIo> RuleHost<I> {
    /// Builds the host of a configuration on `topo`.
    ///
    /// # Panics
    ///
    /// If the program cannot drive `topo` ([`RuleIo::bind_for`],
    /// [`RuleIo::drives`]): it lacks a declaration or rule base the
    /// interface requires, declares one with another shape or element
    /// type, or declares a domain too small for `topo`. The message names
    /// the declaration.
    pub fn bind(config: RouterConfiguration, topo: I::Topo) -> Self {
        let prog = &config.compiled.prog;
        let io = I::bind_for(prog, &topo).and_then(|io| io.drives(prog).map(|()| io));
        let io = io.unwrap_or_else(|e| panic!("rule program `{}`: {e}", config.name));
        let reads = Arc::new(io.reads(&config.compiled));
        RuleHost { config: Arc::new(config), topo, io, reads, probe: None }
    }

    /// Attaches a per-stage interpreter probe (e.g. an
    /// `ftr_obs::InterpProfiler`); every node machine built afterwards
    /// reports premise/kernel/conclusion timings to it.
    pub fn with_profiler(mut self, probe: Arc<dyn InterpProbe>) -> Self {
        self.probe = Some(probe);
        self
    }
}

impl RuleRouter {
    /// Builds a mesh rule router on the data path the program's
    /// declarations select (`MeshIo::mode`): one virtual channel, or the
    /// NARA pair when `invc` spans two networks. Panics like
    /// [`RuleHost::bind`].
    pub fn for_mesh(config: RouterConfiguration, mesh: Mesh2D) -> Self {
        Self::bind(config, mesh)
    }

    /// [`RuleRouter::for_mesh`], asserting that `vcs` is the count the
    /// program's declarations select. Kept only because the ledger
    /// (`benchmark/`) still calls it; it goes with item 2(b)/(c).
    #[deprecated(note = "the VC count is derived from the program: use `RuleRouter::for_mesh`")]
    pub fn new(config: RouterConfiguration, mesh: Mesh2D, vcs: usize) -> Self {
        let router = Self::for_mesh(config, mesh);
        let (name, derived) = (&router.config.name, router.io.num_vcs());
        assert_eq!(vcs, derived, "rule program `{name}` selects {derived} virtual channel(s)");
        router
    }
}

impl<I: RuleIo> RoutingAlgorithm for RuleHost<I> {
    fn name(&self) -> String {
        self.config.algorithm_name()
    }

    fn num_vcs(&self) -> usize {
        self.io.num_vcs()
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let (mut machine, topo) = (self.config.machine(self.probe.as_ref()), self.topo.clone());
        let node = self.io.init(&topo, node, &mut machine);
        let unit = Unit { topo, machine, inputs: InputMap::new(), node };
        Box::new(RuleController { io: self.io, reads: Arc::clone(&self.reads), unit })
    }
}

struct RuleController<I: RuleIo> {
    io: I,
    reads: Arc<I::Reads>,
    unit: Unit<I>,
}

impl<I: RuleIo> NodeController for RuleController<I> {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        self.io.route(&mut self.unit, view, h, in_port.map(|p| (p, in_vc)))
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        // every channel the program can choose here, whatever the loads
        // and free channels hold: the static lift's enumeration
        let (io, u, cur, dst) = (self.io, &mut self.unit, view.node, h.dst);
        if cur == dst {
            return Vec::new();
        }
        let (topo, ok) = (u.topo.clone(), io.usable(u, view, dst));
        rule_io::relation(&io, &topo, (cur, dst), in_port.map(|p| (p, in_vc)), |lane| {
            io.channels(u, &self.reads, Query { cur, dst, lane, ok }).0
        })
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.io.on_fault(&mut self.unit, port)
    }

    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        self.io.on_control(&mut self.unit, from, payload)
    }

    fn state_word(&self) -> i64 {
        self.io.state_word(&self.unit.machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src;
    use ftr_sim::routing::Verdict;
    use ftr_sim::{Network, Pattern, TrafficSource};

    fn rule_net(src: &str, name: &str, mesh: Mesh2D) -> Network {
        let cfg = configure(name, src).unwrap();
        let algo = RuleRouter::for_mesh(cfg, mesh.clone());
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
        let algo = RuleRouter::for_mesh(cfg, mesh.clone())
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
        let wait = |name: &str, src: &str| {
            let algo = RuleRouter::for_mesh(configure(name, src).unwrap(), mesh.clone());
            let mut header = Header::new(ftr_sim::MessageId(1), node, mesh.node_at(3, 3), 4);
            let before = header;
            let d = algo.controller(&mesh, node).route(&view, &mut header, None, VcId(0));
            assert_eq!(header, before, "{name}: a Wait leaves the header alone");
            d
        };
        // xy.rules reads `free` and `linkok` only: the engine may park it
        assert_eq!(wait("xy", rules_src::XY), Decision::new(Verdict::Wait, 1));
        // nafta.rules and west_first.rules declare `out_queue`; the host
        // cannot see that their RETURN(14) rules never read it
        let nafta = wait("nafta", rules_src::NAFTA);
        assert_eq!(nafta, Decision::polled_wait(nafta.steps));
        assert_eq!(wait("west_first", rules_src::WEST_FIRST), Decision::polled_wait(1));
    }

    #[test]
    #[should_panic(expected = "`xdes` must be declared as integer scalar covering 0 TO 39, but is")]
    fn a_mesh_wider_than_the_coordinate_domain_is_refused_at_construction() {
        RuleRouter::for_mesh(configure("xy", rules_src::XY).unwrap(), Mesh2D::new(40, 4));
    }

    #[test]
    #[should_panic(
        expected = "`scalar_free`: resolve error: `free` must be declared as bool array"
    )]
    fn a_scalar_free_is_refused_at_construction() {
        let src = "INPUT free IN bool\nON route_msg() RETURNS 0 TO 15\n IF free THEN RETURN(0);\nEND route_msg;";
        RuleRouter::for_mesh(configure("scalar_free", src).unwrap(), Mesh2D::new(4, 4));
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

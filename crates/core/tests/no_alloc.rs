//! A rule-driven routing decision does not touch the allocator: loading
//! the inputs, both ROUTE_C interpretations (or a mesh program's whole
//! cascade), the set operations, the queued writes and the commit all work
//! in storage the controller already owns — the dense `InputMap`, the
//! machine's effects frame and its event queue. Native ROUTE_C, the
//! baseline a rule decision is timed against, decides on masks and does
//! not allocate either.
//!
//! Every decision is made twice: the first pass lets each buffer grow to
//! the largest decision of the sweep, the second pass is counted. The
//! control plane may allocate what it returns — the `Vec<ControlMsg>` and
//! each message's payload — and nothing else.

use ftr_algos::rule_io::CUBE_VCS;
use ftr_algos::rules_src::{self, route_c_source};
use ftr_core::{configure, CubeRuleRouter, RuleRouter};
use ftr_sim::routing::{ControlMsg, NodeController, RouterView, RoutingAlgorithm};
use ftr_sim::{Header, MessageId};
use ftr_topo::mesh::opposite;
use ftr_topo::{Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH};

#[path = "../../sim/tests/common/counting.rs"]
mod counting;

/// `route` calls made and the allocations counted in them.
struct Probe {
    calls: u64,
    allocations: u64,
}

impl Probe {
    fn route(
        &mut self,
        ctrl: &mut dyn NodeController,
        view: &RouterView<'_>,
        dst: NodeId,
        in_vc: VcId,
    ) {
        let mut h = Header::new(MessageId(1), view.node, dst, 4);
        let n = counting::allocations_in(|| {
            std::hint::black_box(ctrl.route(view, &mut h, None, in_vc));
        });
        self.calls += 1;
        self.allocations += n;
    }

    /// Forgets the sizing pass.
    fn reset(&mut self) {
        (self.calls, self.allocations) = (0, 0);
    }
}

/// ROUTE_C (`algo`, rule-driven or native) on a 4-cube: every live node ×
/// every destination × every free/busy pattern of channel classes 0 and 1
/// (classes 2..4 toggled with the pattern's parity so the misrouting rules
/// see both). With `dead`, that node's neighbours learnt the failure
/// through `on_fault` and the announcements ran to a fixpoint through
/// `on_control` first.
fn route_c(algo: &dyn RoutingAlgorithm, dead: Option<NodeId>) -> Probe {
    let cube = Hypercube::new(4);
    let dims = cube.dim() as usize;
    let mut ctrls: Vec<_> = cube.nodes().map(|n| algo.controller(&cube, n)).collect();
    let is_dead = |n: NodeId| Some(n) == dead;
    let alive_at = |n: NodeId| -> Vec<bool> {
        (0..dims).map(|d| !is_dead(cube.neighbor(n, PortId(d as u8)).unwrap())).collect()
    };
    let (idle, load) = (vec![vec![true; CUBE_VCS]; dims], vec![2, 0, 5, 1]);

    if let Some(dead) = dead {
        let mut wire: Vec<(NodeId, ControlMsg)> = Vec::new();
        for d in (0..dims as u8).map(PortId) {
            let (at, alive) = (cube.neighbor(dead, d).unwrap(), alive_at(dead));
            let view = RouterView::from_tables(at, 0, &idle, &load, &alive);
            wire.extend(ctrls[at.idx()].on_fault(&view, d).into_iter().map(|m| (at, m)));
        }
        while let Some((from, msg)) = wire.pop() {
            let to = cube.neighbor(from, msg.port).unwrap();
            if is_dead(to) {
                continue;
            }
            let alive = alive_at(to);
            let view = RouterView::from_tables(to, 0, &idle, &load, &alive);
            let replies = ctrls[to.idx()].on_control(&view, msg.port, &msg.payload);
            wire.extend(replies.into_iter().map(|m| (to, m)));
        }
    }

    let mut probe = Probe { calls: 0, allocations: 0 };
    let mut out_free = idle.clone();
    for _pass in ["sizing", "counted"] {
        probe.reset();
        for node in cube.nodes().filter(|&n| !is_dead(n)) {
            let alive = alive_at(node);
            for dst in cube.nodes().filter(|&d| d != node) {
                for pattern in 0..1usize << (2 * dims) {
                    for (i, free) in out_free.iter_mut().enumerate() {
                        free[0] = pattern >> (2 * i) & 1 == 1;
                        free[1] = pattern >> (2 * i + 1) & 1 == 1;
                        free[2..].fill(pattern.count_ones() % 2 == 0);
                    }
                    let view = RouterView::from_tables(node, probe.calls, &out_free, &load, &alive);
                    probe.route(ctrls[node.idx()].as_mut(), &view, dst, VcId(0));
                }
            }
        }
    }

    // the control plane: a node hears "unsafe" from one neighbour after the
    // other and twice turns to tell all of them. A report that sets off no
    // message allocates nothing; one that does, only what it returns — the
    // `Vec` and one payload per message — once an earlier one sized the
    // event buffers.
    let (at, alive) = (NodeId(10), vec![true; dims]);
    let view = RouterView::from_tables(at, 0, &idle, &load, &alive);
    let (mut sized, mut silent, mut telling) = (false, 0, 0);
    for report in 0..2 * dims {
        let from = PortId((report % dims) as u8);
        let mut msgs = Vec::new();
        let n = counting::allocations_in(|| msgs = ctrls[at.idx()].on_control(&view, from, &[2]));
        match msgs.len() as u64 {
            0 if report > 0 => {
                assert_eq!(n, 0, "report {report} set off nothing, allocated {n} times");
                silent += 1;
            }
            len if sized => {
                assert!(n <= len + 1, "report {report}: {n} allocations for {len} messages");
                telling += 1;
            }
            len => sized = len > 0,
        }
    }
    assert!(silent > 0 && telling > 0, "{silent} silent and {telling} telling reports counted");
    probe
}

/// A mesh program on 6×6: a corner, an edge and the nodes around `dead`
/// links × every destination × every arrival channel × every free/busy
/// pattern of the output channels.
fn mesh(name: &str, src: &str, dead: &[(NodeId, PortId)]) -> Probe {
    let mesh = Mesh2D::new(6, 6);
    let algo = RuleRouter::for_mesh(configure(name, src).unwrap(), mesh.clone());
    let vcs = algo.num_vcs();
    let is_dead = |n: NodeId, p: PortId| {
        let far = mesh.neighbor(n, p).map(|m| (m, opposite(p)));
        dead.iter().any(|&l| l == (n, p) || Some(l) == far)
    };
    let mut probe = Probe { calls: 0, allocations: 0 };
    let mut out_free = vec![vec![false; vcs]; 4];
    let load = vec![3, 0, 2, 1];
    for node in [(0, 0), (3, 0), (2, 2), (3, 2), (3, 3), (2, 3)].map(|(x, y)| mesh.node_at(x, y)) {
        let mut ctrl = algo.controller(&mesh, node);
        let alive: Vec<bool> =
            mesh.ports().map(|p| mesh.neighbor(node, p).is_some() && !is_dead(node, p)).collect();
        let mut here = Probe { calls: 0, allocations: 0 };
        for _pass in ["sizing", "counted"] {
            here.reset();
            for dst in mesh.nodes().filter(|&d| d != node) {
                for in_vc in 0..vcs {
                    for pattern in 0..1usize << (4 * vcs) {
                        for (i, free) in out_free.iter_mut().flatten().enumerate() {
                            *free = pattern >> i & 1 == 1;
                        }
                        let view =
                            RouterView::from_tables(node, here.calls, &out_free, &load, &alive);
                        here.route(ctrl.as_mut(), &view, dst, VcId(in_vc as u8));
                    }
                }
            }
        }
        probe.calls += here.calls;
        probe.allocations += here.allocations;
    }
    probe
}

#[test]
fn rule_driven_route_does_not_allocate() {
    let cube = Hypercube::new(4);
    let rules =
        CubeRuleRouter::new(configure("route_c", &route_c_source(4)).unwrap(), cube.clone());
    let native = ftr_algos::RouteC::new(cube);
    for (arm, algo) in [("rule", &rules as &dyn RoutingAlgorithm), ("native", &native)] {
        for dead in [None, Some(NodeId(5))] {
            let p = route_c(algo, dead);
            assert!(p.calls >= 50_000, "{arm}: {} calls", p.calls);
            assert_eq!(p.allocations, 0, "in {} {arm} ROUTE_C calls, dead node {dead:?}", p.calls);
        }
    }
    let m = Mesh2D::new(6, 6);
    let faulty = [(m.node_at(2, 2), EAST), (m.node_at(3, 3), NORTH)];
    for (name, src) in
        [("xy", rules_src::XY), ("west_first", rules_src::WEST_FIRST), ("nafta", rules_src::NAFTA)]
    {
        for dead in [&[][..], &faulty[..]] {
            let p = mesh(name, src, dead);
            assert!(p.calls >= 3_000, "{name}: {} calls", p.calls);
            assert_eq!(p.allocations, 0, "in {} {name} route calls, dead links {dead:?}", p.calls);
        }
    }
}

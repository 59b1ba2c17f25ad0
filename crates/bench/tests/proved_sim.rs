//! The simulator runs what the verifier proved: every output channel the
//! rule host grants on a live, faulty, loaded network is a member of the
//! relation `ftr-analyze` lifts from the same program under the same
//! faults — the relation whose channel dependency graph it proves acyclic.
//! The host's `relation` and the lift run one enumeration per topology
//! (`RuleIo::channels`), and on the mesh both ask one allocator
//! (`ftr_algos::vnet`). So this holds by construction; the tests are what
//! notice if either is ever given a second path.

use ftr_analyze::{CubeProgramLift, MeshProgramLift};
use ftr_core::{configure, registry, CubeRuleRouter, RuleRouter};
use ftr_obs::{EventKind, RingSink};
use ftr_sim::{Header, MessageId, Network, Pattern, RoutingAlgorithm, TrafficSource};
use ftr_topo::{Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH};
use std::collections::HashMap;
use std::sync::Arc;

/// A network of `algo` on `topo` that traces into a ring large enough for
/// the whole run.
fn traced(topo: impl Topology + 'static, algo: &dyn RoutingAlgorithm) -> (Network, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(1 << 20));
    let net = Network::builder(Arc::new(topo)).trace(ring.clone()).build(algo).expect("valid");
    (net, ring)
}

/// Every `VcAcquire` in `ring`, in order, as (message, node, port, class,
/// destination).
fn grants(ring: &RingSink) -> Vec<(u64, NodeId, PortId, VcId, NodeId)> {
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    let mut dst: HashMap<u64, NodeId> = HashMap::new();
    let mut out = Vec::new();
    for ev in ring.events() {
        match ev.kind {
            EventKind::Inject { msg, dst: d, .. } => {
                dst.insert(msg, d);
            }
            EventKind::VcAcquire { node, msg, port, vc } => {
                out.push((msg, node, port, vc, dst[&msg]));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn every_channel_the_rule_host_grants_is_in_the_lifted_relation() {
    let mesh = Mesh2D::new(6, 6);
    let cfg = registry::configuration("nafta").unwrap();
    let lift = MeshProgramLift::new((*cfg.compiled).clone(), mesh.clone()).expect("binds");
    let (mut net, ring) = traced(mesh.clone(), &RuleRouter::for_mesh(cfg, mesh.clone()));
    for (n, p) in
        [(mesh.node_at(2, 2), EAST), (mesh.node_at(4, 1), NORTH), (mesh.node_at(1, 4), EAST)]
    {
        net.inject_link_fault(n, p);
    }
    let faults = net.faults().clone();
    let relation = lift.relation(&faults);

    let mut tf = TrafficSource::new(Pattern::Uniform, 0.15, 4, 77);
    for _ in 0..600 {
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    assert!(net.drain(50_000) && !net.stats.deadlock);

    // per message: the channel it last acquired
    let mut held: HashMap<u64, (NodeId, PortId, VcId)> = HashMap::new();
    let granted = grants(&ring);
    for &(msg, node, port, vc, dst) in &granted {
        let arrival = held.insert(msg, (node, port, vc)).map(|(prev, out, in_vc)| {
            assert_eq!(mesh.neighbor(prev, out), Some(node), "msg {msg} skipped a hop");
            (mesh.port_towards(node, prev).expect("adjacent"), in_vc)
        });
        let legal = relation(node, arrival, dst);
        assert!(
            legal.contains(&(port, vc)),
            "msg {msg} at {node:?} from {arrival:?} to {dst:?} took {port:?}/{vc:?}, proved \
             {legal:?}"
        );
    }
    assert!(granted.len() > 3_000, "only {} grants checked", granted.len());
}

#[test]
fn the_mesh_hosts_relation_is_the_lifted_programs() {
    // Every (cur, dst) of the 4x4 mesh at injection, fault-free and under
    // each single dead link: 6 000 pairs per program. When the host still
    // answered only the channel `route` picks on an idle network, it
    // differed from the lift on 0 (xy), 1 656 (west_first) and 4 530
    // (nafta) of them.
    let mesh = Mesh2D::new(4, 4);
    let links = mesh.nodes().flat_map(|n| [(n, EAST), (n, NORTH)]);
    let links: Vec<_> = links.filter(|&(n, p)| mesh.neighbor(n, p).is_some()).collect();
    for name in ["xy", "west_first", "nafta"] {
        let cfg = registry::configuration(name).unwrap();
        let lift = MeshProgramLift::new((*cfg.compiled).clone(), mesh.clone()).expect("binds");
        let router = RuleRouter::for_mesh(cfg, mesh.clone());
        let mut pairs = 0;
        for dead in std::iter::once(None).chain(links.iter().map(Some)) {
            let mut net = Network::builder(Arc::new(mesh.clone())).build(&router).expect("valid");
            if let Some(&(n, p)) = dead {
                net.inject_link_fault(n, p);
            }
            let faults = net.faults().clone();
            let lifted = lift.relation(&faults);
            for cur in mesh.nodes() {
                for dst in mesh.nodes().filter(|&d| d != cur) {
                    let h = Header::new(MessageId(0), cur, dst, 1);
                    let host = net.query_relation(cur, &h, None, VcId(0));
                    assert_eq!(host, lifted(cur, None, dst), "{name} {dead:?}: {cur:?}->{dst:?}");
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, 6_000, "{name}");
    }
}

/// ROUTE_C on the 4-cube: the cube, its lift and its rule host.
fn route_c_4() -> (Hypercube, CubeProgramLift, CubeRuleRouter) {
    let cube = Hypercube::new(4);
    let cfg = configure("route_c", &ftr_algos::rules_src::route_c_source(4)).unwrap();
    let lift = CubeProgramLift::new((*cfg.compiled).clone(), cube.clone()).expect("binds");
    (cube.clone(), lift, CubeRuleRouter::new(cfg, cube))
}

#[test]
fn every_channel_the_cube_rule_host_grants_is_in_the_lifted_relation() {
    // Three runs on the 4-cube, at most one dead link: uniform load
    // fault-free and with link 0#0 dead, then ROADMAP item 1's hot spot
    // across that link, which drains since 1(a).
    let (cube, lift, router) = route_c_4();
    for (dead, hot_spot, want) in [(false, false, 1_919), (true, false, 1_945), (true, true, 2_826)]
    {
        let (mut net, ring) = traced(cube.clone(), &router);
        if dead {
            net.inject_link_fault(NodeId(0), PortId(0));
        }
        net.settle_control(10_000).expect("settles");
        if hot_spot {
            for _ in 0..200 {
                for s in [1, 3, 5, 9] {
                    net.send(NodeId(s), NodeId(0), 16).unwrap();
                }
                (0..5).for_each(|_| net.step());
            }
            net.drain(400_000);
            assert_eq!((net.stats.delivered_msgs, net.stats.deadlock), (800, false));
        } else {
            let mut tf = TrafficSource::new(Pattern::Uniform, 0.3, 8, 5);
            for _ in 0..1_500 {
                for (s, d, l) in tf.tick(&cube, net.faults()) {
                    net.send(s, d, l).unwrap();
                }
                net.step();
            }
            assert!(net.drain(100_000) && !net.stats.deadlock);
        }
        let relation = lift.relation(net.faults());
        let granted = grants(&ring);
        for &(_, node, port, vc, dst) in &granted {
            let legal = relation(node, None, dst);
            assert!(legal.contains(&(port, vc)), "{node:?} to {dst:?} took {port:?}/{vc:?}");
        }
        assert_eq!(granted.len(), want, "dead {dead}, hot spot {hot_spot}");
    }
}

#[test]
fn the_cube_hosts_relation_is_the_lifted_programs_up_to_one_dead_link() {
    // Every (cur, dst) of the 4-cube, fault-free, under each single dead
    // link and under each pair of dead links. Up to one dead link the host's
    // `relation` is the lift's. Two dead links that share a node turn that
    // node `ounsafe`; its neighbours' `okdirs` then drop it, while the lift
    // builds its mask from the fault set and keeps it. The last row pins
    // that gap as today's behaviour, not the wanted one (ROADMAP item 1):
    // 900 pairs in 90 of the 96 sets whose links share a node.
    let (cube, lift, router) = route_c_4();
    let links: Vec<(NodeId, PortId)> = cube
        .nodes()
        .flat_map(|n| (0..4).filter(move |d| n.0 >> d & 1 == 0).map(move |d| (n, PortId(d))))
        .collect();
    let mut sets = vec![vec![]];
    sets.extend(links.iter().map(|&l| vec![l]));
    for (i, &a) in links.iter().enumerate() {
        sets.extend(links[i + 1..].iter().map(|&b| vec![a, b]));
    }

    // per number of dead links: pairs, pairs that differ, fault sets with
    // a difference, pairs where the host holds a channel the lift lacks
    let mut tally = [(0, 0, 0, 0); 3];
    for dead in &sets {
        let mut net = Network::builder(Arc::new(cube.clone())).build(&router).expect("valid");
        for &(n, p) in dead {
            net.inject_link_fault(n, p);
        }
        net.settle_control(10_000).expect("settles");
        let faults = net.faults().clone();
        let lifted = lift.relation(&faults);
        let t = &mut tally[dead.len()];
        let before = t.1;
        for cur in cube.nodes() {
            for dst in cube.nodes().filter(|&d| d != cur) {
                let h = Header::new(MessageId(0), cur, dst, 1);
                // both come out of `CubeIo::channels`, in order
                let host = net.query_relation(cur, &h, None, VcId(0));
                let program = lifted(cur, None, dst);
                t.0 += 1;
                if host == program {
                    continue;
                }
                t.1 += 1;
                t.3 += u32::from(host.iter().any(|c| !program.contains(c)));
                // the node both dead links share is ounsafe and a live
                // neighbour of `cur` other than the destination
                let unsafe_nb = cube.ports().any(|p| {
                    cube.neighbor(cur, p).is_some_and(|nb| {
                        nb != dst
                            && faults.link_usable(&cube, cur, p)
                            && dead.iter().all(|&(n, q)| n == nb || cube.neighbor(n, q) == Some(nb))
                            && net.controller(nb).state_word() >= 2
                    })
                });
                assert!(unsafe_nb, "{dead:?} {cur:?}->{dst:?}: host {host:?}, program {program:?}");
            }
        }
        t.2 += u32::from(t.1 > before);
    }
    assert_eq!(tally[..2], [(240, 0, 0, 0), (7_680, 0, 0, 0)]);
    assert_eq!(tally[2], (119_040, 900, 90, 228));
}

//! The simulator runs what the verifier proved: every output channel the
//! rule host grants on a live, faulty, loaded mesh is a member of the
//! relation `ftr-analyze` lifts from the same program under the same
//! faults — the relation whose channel dependency graph it proves acyclic.
//! Host and lift ask one allocator (`ftr_algos::vnet`) and present through
//! one function (`MeshIo::present`), so this holds by construction; the
//! test is what notices if either is ever given a second path.
//!
//! The cube host has no such shared path: its `relation` is a hand copy of
//! what `route_c.rules` decides, and the second test pins where the two
//! part.

use ftr_analyze::{CubeProgramLift, MeshProgramLift};
use ftr_core::{configure, registry, CubeRuleRouter, RuleRouter};
use ftr_obs::{EventKind, RingSink};
use ftr_sim::{Header, MessageId, Network, Pattern, TrafficSource};
use ftr_topo::{Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn every_channel_the_rule_host_grants_is_in_the_lifted_relation() {
    let mesh = Mesh2D::new(6, 6);
    let cfg = registry::configuration("nafta").unwrap();
    let lift = MeshProgramLift::new((*cfg.compiled).clone(), mesh.clone()).expect("binds");
    let router = RuleRouter::for_mesh(cfg, mesh.clone());
    let ring = Arc::new(RingSink::new(1 << 20));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(ring.clone())
        .build(&router)
        .expect("valid config");
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
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");

    // per message: where it is going, and the channel it last acquired
    let mut dst: HashMap<u64, NodeId> = HashMap::new();
    let mut held: HashMap<u64, (NodeId, PortId, VcId)> = HashMap::new();
    let mut granted = 0u32;
    for ev in ring.events() {
        match ev.kind {
            EventKind::Inject { msg, dst: d, .. } => {
                dst.insert(msg, d);
            }
            EventKind::VcAcquire { node, msg, port, vc } => {
                let arrival = held.insert(msg, (node, port, vc)).map(|(prev, out, in_vc)| {
                    assert_eq!(mesh.neighbor(prev, out), Some(node), "msg {msg} skipped a hop");
                    (mesh.port_towards(node, prev).expect("adjacent"), in_vc)
                });
                let legal = relation(node, arrival, dst[&msg]);
                assert!(
                    legal.contains(&(port, vc)),
                    "cycle {}: msg {msg} at {node:?} from {arrival:?} to {:?} took {port:?}/{vc:?}, \
                     proved {legal:?}",
                    ev.cycle,
                    dst[&msg]
                );
                granted += 1;
            }
            _ => {}
        }
    }
    assert!(granted > 3_000, "only {granted} grants checked");
}

#[test]
fn the_cube_hosts_hand_relation_differs_from_the_lift_in_one_shape_only() {
    // Every (cur, dst) of the 4-cube, fault-free and under each single
    // dead link. Where the host's `relation` and the lifted program part,
    // the ports agree and the class does not: with every increasing
    // dimension dead, `decide_dir` falls through to `diffdown`, while
    // `CubeIo::load_vc` still derives `phase = (up == 0) = 0`, so the
    // program takes the decreasing hop on class 0 and the hand copy on
    // class 1. Fixing either side changes behaviour (ROADMAP item 1).
    let cube = Hypercube::new(4);
    let src = ftr_algos::rules_src::route_c_source(4);
    let cfg = configure("route_c", &src).unwrap();
    let lift = CubeProgramLift::new((*cfg.compiled).clone(), cube.clone()).expect("binds");
    let router = CubeRuleRouter::new(cfg, cube.clone());
    let links: Vec<(NodeId, PortId)> = cube
        .nodes()
        .flat_map(|n| cube.ports().map(move |p| (n, p)))
        .filter(|&(n, p)| cube.neighbor(n, p).is_some_and(|nb| n.idx() < nb.idx()))
        .collect();
    assert_eq!(links.len(), 32);

    let (mut pairs, mut differ) = (0, 0);
    for dead in std::iter::once(None).chain(links.into_iter().map(Some)) {
        let mut net = Network::builder(Arc::new(cube.clone())).build(&router).expect("valid");
        if let Some((n, p)) = dead {
            net.inject_link_fault(n, p);
        }
        net.settle_control(10_000).expect("settles");
        let faults = net.faults().clone();
        let lifted = lift.relation(&faults);
        for cur in cube.nodes() {
            for dst in cube.nodes().filter(|&d| d != cur) {
                let h = Header::new(MessageId(0), cur, dst, 1);
                let mut host = net.query_relation(cur, &h, None, VcId(0));
                let mut program = lifted(cur, None, dst);
                host.sort();
                program.sort();
                pairs += 1;
                if host == program {
                    continue;
                }
                differ += 1;
                let on_class_1: Vec<_> = program.iter().map(|&(p, _)| (p, VcId(1))).collect();
                let up = cube.diff(cur, dst) & !cur.0;
                let up_dead = (0..4u8)
                    .all(|d| up & 1 << d == 0 || !faults.link_usable(&cube, cur, PortId(d)));
                assert!(
                    program.iter().all(|c| c.1 == VcId(0)) && host == on_class_1,
                    "{dead:?} {cur:?}->{dst:?}: host {host:?}, program {program:?}"
                );
                assert!(up != 0 && up_dead, "{dead:?} {cur:?}->{dst:?}: an increasing link lives");
            }
        }
    }
    assert_eq!((pairs, differ), (7_920, 76));
}

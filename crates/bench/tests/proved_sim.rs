//! The simulator runs what the verifier proved: every output channel the
//! rule host grants on a live, faulty, loaded mesh is a member of the
//! relation `ftr-analyze` lifts from the same program under the same
//! faults — the relation whose channel dependency graph it proves acyclic.
//! Host and lift ask one allocator (`ftr_algos::vnet`) and present through
//! one function (`MeshIo::present`), so this holds by construction; the
//! test is what notices if either is ever given a second path.

use ftr_analyze::MeshProgramLift;
use ftr_core::{registry, RuleRouter};
use ftr_obs::{EventKind, RingSink};
use ftr_sim::{Network, Pattern, TrafficSource};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH};
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

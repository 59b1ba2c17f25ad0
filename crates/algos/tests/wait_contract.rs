//! The `Wait` contract of `NodeController::route`, per native controller.
//!
//! The engine parks a head whose controller answered an unpolled `Wait`
//! and asks again only when the node's channel state, link status or
//! controller state changes. That is sound exactly when such a `Wait`
//! leaves the header as it was and does not depend on `view.load(..)` or
//! `view.cycle` — checked here for every native algorithm, after random
//! `on_fault`/`on_control`/`on_repair` histories, under random views. So is
//! the grant contract: a granted channel is in the controller's relation.

use ftr_algos::{
    EcubeRouting, KAryDor, Nafta, Nara, NegativeHop, RouteC, SpanningTreeRouting, WestFirst,
    XyRouting,
};
use ftr_sim::routing::{RouterView, RoutingAlgorithm, Verdict};
use ftr_sim::{Header, MessageId};
use ftr_topo::{Hypercube, KAryNCube, Mesh2D, NodeId, PortId, Topology, VcId};
use proptest::prelude::*;

const ALGOS: usize = 10;

fn algorithm(i: usize) -> (Box<dyn Topology>, Box<dyn RoutingAlgorithm>) {
    let mesh = Mesh2D::new(5, 5);
    let cube = Hypercube::new(4);
    let kary = KAryNCube::mesh(3, 3);
    match i {
        0 => (Box::new(mesh.clone()), Box::new(Nafta::new(mesh))),
        1 => (Box::new(mesh.clone()), Box::new(Nara::new(mesh))),
        2 => (Box::new(cube.clone()), Box::new(RouteC::new(cube))),
        3 => (Box::new(cube.clone()), Box::new(RouteC::stripped(cube))),
        4 => (Box::new(mesh.clone()), Box::new(NegativeHop::new(mesh, 2))),
        5 => (Box::new(mesh.clone()), Box::new(XyRouting::new(mesh))),
        6 => (Box::new(cube.clone()), Box::new(EcubeRouting::new(cube))),
        7 => (Box::new(kary.clone()), Box::new(KAryDor::new(kary))),
        8 => (Box::new(mesh.clone()), Box::new(WestFirst::new(mesh))),
        _ => (Box::new(mesh.clone()), Box::new(SpanningTreeRouting::new(mesh))),
    }
}

/// One random consult of algorithm `algo`'s controller at a random node.
/// `Ok(true)` when it answered an unpolled `Wait` (and the contract held).
fn consult(algo: usize, noise: [u64; 10]) -> Result<bool, TestCaseError> {
    let (topo, algorithm) = algorithm(algo);
    let (nodes, degree, vcs) = (topo.num_nodes() as u64, topo.degree(), algorithm.num_vcs());
    let node = NodeId((noise[0] % nodes) as u32);
    let mut ctrl = algorithm.controller(topo.as_ref(), node);

    // what the information units show: few free channels, mostly live links
    let bit = |word: u64, i: usize| word >> (i % 64) & 1 == 1;
    let out_free: Vec<Vec<bool>> = (0..degree)
        .map(|p| (0..vcs).map(|v| bit(noise[1] & noise[2], p * vcs + v)).collect())
        .collect();
    let link_alive: Vec<bool> = (0..degree).map(|p| bit(noise[3] | noise[4], p)).collect();
    let loads = |word: u64| (0..degree).map(|p| (word >> (8 * p)) as u32 & 0xff).collect();
    let (load_a, load_b): (Vec<u32>, Vec<u32>) = (loads(noise[5]), loads(noise[6]));
    let view =
        |out_load, cycle| RouterView::from_tables(node, cycle, &out_free, out_load, &link_alive);

    // a random control-plane history: up to seven hooks
    let mut word = noise[7];
    for _ in 0..word % 8 {
        word = word.rotate_left(13).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let port = PortId(((word >> 8) % degree as u64) as u8);
        let payload = [(word >> 16) as i64 % 8, (word >> 24) as i64 % 16];
        match word % 4 {
            0 => drop(ctrl.on_fault(&view(&load_a, 0), port)),
            1 => drop(ctrl.on_repair(&view(&load_a, 0), port)),
            2 => drop(ctrl.on_control(&view(&load_a, 0), port, &payload)),
            _ => drop(ctrl.on_control(&view(&load_a, 0), port, &payload[..1])),
        }
    }

    let dst = NodeId(((node.0 as u64 + 1 + noise[8] % (nodes - 1)) % nodes) as u32);
    let mut header = Header::new(MessageId(noise[8]), node, dst, 4);
    header.hops = (noise[9] % 12) as u32;
    header.vnet = (noise[9] >> 8) as u8 % 2;
    header.phase = (noise[9] >> 9) as u8 % 2;
    header.misrouted = bit(noise[9], 10);
    let in_port = bit(noise[9], 11).then(|| PortId(((noise[9] >> 12) % degree as u64) as u8));
    let in_vc = VcId(((noise[9] >> 16) % vcs as u64) as u8);

    let mut h = header;
    let first = ctrl.route(&view(&load_a, noise[5]), &mut h, in_port, in_vc);
    if let Verdict::Route(p, v) = first.verdict {
        let relation = ctrl.relation(&view(&load_a, noise[5]), &header, in_port, in_vc);
        prop_assert!(relation.contains(&(p, v)), "granted {:?} outside {:?}", (p, v), relation);
    }
    if first.verdict != Verdict::Wait || first.polled {
        return Ok(false);
    }
    prop_assert_eq!(h, header, "a Wait wrote the header");
    let again = ctrl.route(&view(&load_b, noise[6]), &mut h, in_port, in_vc);
    prop_assert_eq!(again.verdict, Verdict::Wait, "load or clock ended a Wait");
    prop_assert!(!again.polled);
    prop_assert_eq!(h, header);
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn an_unpolled_wait_ignores_load_and_clock_and_keeps_the_header(
        algo in 0..ALGOS,
        noise in any::<[u64; 10]>(),
    ) {
        consult(algo, noise)?;
    }
}

/// The property above is vacuous for a controller that never waits under
/// the generator; every algorithm but the spanning tree (whose waits are
/// polled: its tree is shared between nodes) must be seen waiting.
#[test]
fn the_generator_reaches_a_wait_in_every_algorithm() {
    for algo in 0..ALGOS {
        let mut word = 0x5eed_u64 + algo as u64;
        let mut next = || {
            word = word.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x1234_5678;
            word
        };
        let waits =
            (0..3000).filter(|_| consult(algo, std::array::from_fn(|_| next())).unwrap()).count();
        assert_eq!(waits > 0, algo != ALGOS - 1, "algorithm {algo}: {waits} unpolled waits");
    }
}

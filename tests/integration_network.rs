//! Integration: every routing algorithm (native and rule-driven) on the
//! simulator — delivery, minimality, deadlock freedom.

use ftrouter::algos::{
    build_cdg, EcubeRouting, Nafta, Nara, RouteC, SpanningTreeRouting, WestFirst, XyRouting,
};
use ftrouter::core::{configure, registry, CubeRuleRouter, RuleRouter};
use ftrouter::sim::routing::RoutingAlgorithm;
use ftrouter::sim::{Network, Pattern, TrafficSource};
use ftrouter::topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, EAST, NORTH};
use std::sync::Arc;

fn all_pairs<T: Topology + Clone + 'static>(topo: &T, algo: &dyn RoutingAlgorithm) -> Network {
    let mut net = Network::builder(Arc::new(topo.clone())).build(algo).expect("valid config");
    net.set_measuring(true);
    for a in topo.nodes() {
        for b in topo.nodes() {
            if a != b {
                net.send(a, b, 2).unwrap();
            }
        }
    }
    assert!(net.drain(500_000), "{} drains", algo.name());
    net
}

#[test]
fn every_mesh_algorithm_delivers_all_pairs_fault_free() {
    let mesh = Mesh2D::new(4, 4);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(XyRouting::new(mesh.clone())),
        Box::new(WestFirst::new(mesh.clone())),
        Box::new(Nara::new(mesh.clone())),
        Box::new(Nafta::new(mesh.clone())),
        Box::new(SpanningTreeRouting::new(mesh.clone())),
    ];
    for algo in &algos {
        let net = all_pairs(&mesh, algo.as_ref());
        assert_eq!(net.stats.delivered_msgs, 240, "{}", algo.name());
        assert!(!net.stats.deadlock, "{}", algo.name());
    }
}

#[test]
fn every_cube_algorithm_delivers_all_pairs_fault_free() {
    let cube = Hypercube::new(4);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(EcubeRouting::new(cube.clone())),
        Box::new(RouteC::new(cube.clone())),
        Box::new(RouteC::stripped(cube.clone())),
    ];
    for algo in &algos {
        let net = all_pairs(&cube, algo.as_ref());
        assert_eq!(net.stats.delivered_msgs, 240, "{}", algo.name());
        assert_eq!(net.stats.excess_hops, 0, "{} is minimal", algo.name());
    }
}

#[test]
fn channel_dependency_graphs_are_acyclic_for_all_algorithms() {
    let mesh = Mesh2D::new(4, 4);
    let cube = Hypercube::new(3);
    let mut faults = FaultSet::new();
    faults.inject_random_links(&mesh, 3, true, 9);

    let mesh_algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(XyRouting::new(mesh.clone())),
        Box::new(WestFirst::new(mesh.clone())),
        Box::new(Nara::new(mesh.clone())),
        Box::new(Nafta::new(mesh.clone())),
        Box::new(SpanningTreeRouting::new(mesh.clone())),
    ];
    for algo in &mesh_algos {
        let g = build_cdg(&mesh, algo.as_ref(), &FaultSet::new());
        assert!(!g.has_cycle(), "{} fault-free", algo.name());
    }
    // fault-tolerant ones must stay acyclic under faults too
    let g = build_cdg(&mesh, &Nafta::new(mesh.clone()), &faults);
    assert!(!g.has_cycle(), "nafta with faults: {:?}", g.find_cycle());

    let g = build_cdg(&cube, &RouteC::new(cube.clone()), &FaultSet::new());
    assert!(!g.has_cycle(), "route_c fault-free");
}

#[test]
fn rule_driven_nafta_program_matches_nara_fault_free() {
    // fault-free, the NAFTA rule program routes like NARA: minimal,
    // single-interpretation decisions, everything delivered
    let mesh = Mesh2D::new(4, 4);
    let cfg = configure("nafta", ftrouter::algos::rules_src::NAFTA).unwrap();
    let router = RuleRouter::for_mesh(cfg, mesh.clone());
    let net = all_pairs(&mesh, &router);
    assert_eq!(net.stats.delivered_msgs, 240);
    assert_eq!(net.stats.excess_hops, 0, "minimal like NARA");
    assert!(
        net.stats.decision_steps.max <= 2,
        "contention may escalate to the ft base, faults never seen"
    );
}

/// `(delivered, unroutable, latency.sum, hops.sum, decision_steps.sum,
/// deadlock)` after `cycles` of fixed-seed uniform traffic at `load` and a
/// drain.
fn sustained(
    topo: &dyn Topology,
    net: &mut Network,
    load: f64,
    cycles: u32,
) -> (u64, u64, u64, u64, u64, bool) {
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, load, 4, 77);
    for _ in 0..cycles {
        for (s, d, l) in tf.tick(topo, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    net.drain(50_000);
    let s = &net.stats;
    (
        s.delivered_msgs,
        s.unroutable_msgs,
        s.latency.sum,
        s.hops.sum,
        s.decision_steps.sum,
        s.deadlock,
    )
}

/// A network over `mesh` with these links dead from the start.
fn mesh_net(
    mesh: &Mesh2D,
    algo: &dyn RoutingAlgorithm,
    cycles_per_step: u32,
    dead_links: &[(NodeId, PortId)],
) -> Network {
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .decision_cycles_per_step(cycles_per_step)
        .build(algo)
        .expect("valid config");
    for &(n, p) in dead_links {
        net.inject_link_fault(n, p);
    }
    net
}

#[test]
fn rule_driven_routers_survive_sustained_traffic() {
    // Whole outcomes, not just "it drains": xy, west_first and route_c
    // recorded at PR 16, before the message interface moved into
    // `ftr_algos::rule_io`; nafta at PR 21, when the rule host got the
    // NARA pair's channel allocator. A change in what a rule program is
    // fed per decision shows up here.
    let mesh = Mesh2D::new(6, 6);
    let dead_links =
        [(mesh.node_at(2, 2), EAST), (mesh.node_at(4, 1), NORTH), (mesh.node_at(1, 4), EAST)];
    for (name, faults, expected) in [
        ("xy", &[][..], (835, 0, 6896, 3279, 3279, false)),
        ("west_first", &[][..], (835, 0, 6763, 3279, 3279, false)),
        ("nafta", &dead_links[..], (831, 4, 7703, 3432, 3926, false)),
    ] {
        let router = RuleRouter::for_mesh(registry::configuration(name).unwrap(), mesh.clone());
        let mut net = mesh_net(&mesh, &router, 1, faults);
        assert_eq!(sustained(&mesh, &mut net, 0.15, 600), expected, "{name}");
    }

    let cube = Hypercube::new(4);
    let cfg = configure("route_c", &ftrouter::algos::rules_src::route_c_source(4)).unwrap();
    let router = CubeRuleRouter::new(cfg, cube.clone());
    let mut net = Network::builder(Arc::new(cube.clone())).build(&router).expect("valid config");
    net.inject_node_fault(NodeId(5));
    net.settle_control(10_000).expect("control plane settles");
    assert_eq!(sustained(&cube, &mut net, 0.15, 600), (327, 0, 2761, 747, 1494, false), "route_c");
}

#[test]
fn rule_driven_nafta_runs_where_one_virtual_network_wedged() {
    // every configuration here ended in the watchdog while the rule host
    // answered on the arrival VC and never told the program a link was dead
    let mesh = Mesh2D::new(6, 6);
    let rule = RuleRouter::for_mesh(registry::configuration("nafta").unwrap(), mesh.clone());
    let native = Nafta::new(mesh.clone());

    // fault-free at one cycle per step, rule-driven NAFTA *is* native NAFTA:
    // same paths, same timing, up to and beyond saturation
    for (load, cycles) in [(0.45, 600), (0.9, 3_000)] {
        let (delivered, unroutable, latency, hops, _, deadlock) =
            sustained(&mesh, &mut mesh_net(&mesh, &rule, 1, &[]), load, cycles);
        let (n_delivered, _, n_latency, n_hops, _, _) =
            sustained(&mesh, &mut mesh_net(&mesh, &native, 1, &[]), load, cycles);
        assert_eq!(
            (delivered, unroutable, latency, hops, deadlock),
            (n_delivered, 0, n_latency, n_hops, false),
            "load {load}"
        );
    }

    // a slower decision stage, then faults under load for 3 000 cycles
    let dead_links =
        [(mesh.node_at(2, 2), EAST), (mesh.node_at(4, 1), NORTH), (mesh.node_at(1, 4), EAST)];
    for (cycles_per_step, faults, cycles) in [(3, &[][..], 600), (1, &dead_links[..], 3_000)] {
        let mut net = mesh_net(&mesh, &rule, cycles_per_step, faults);
        let (delivered, unroutable, .., deadlock) = sustained(&mesh, &mut net, 0.3, cycles);
        assert!(!deadlock, "{cycles_per_step} cycles/step, {} dead links", faults.len());
        assert_eq!(delivered + unroutable, net.stats.injected_msgs);
        assert!(unroutable * 100 < delivered, "{unroutable} unroutable of {delivered}");
    }

    // one message on an empty mesh whose only minimal link is dead: the
    // host reports the link, the program misroutes around it
    let mesh = Mesh2D::new(4, 4);
    let rule = RuleRouter::for_mesh(registry::configuration("nafta").unwrap(), mesh.clone());
    let mut net = mesh_net(&mesh, &rule, 1, &[(mesh.node_at(1, 1), EAST)]);
    net.send(mesh.node_at(1, 1), mesh.node_at(3, 1), 4).unwrap();
    assert!(net.drain(2_000), "delivered long before the watchdog");
    assert_eq!((net.stats.delivered_msgs, net.stats.deadlock), (1, false));
}

#[test]
fn adaptive_beats_oblivious_on_transpose_traffic() {
    // transpose concentrates XY traffic; adaptivity spreads it
    let mesh = Mesh2D::new(6, 6);
    let mut results = Vec::new();
    for (name, algo) in [
        ("xy", Box::new(XyRouting::new(mesh.clone())) as Box<dyn RoutingAlgorithm>),
        ("nara", Box::new(Nara::new(mesh.clone()))),
    ] {
        let mut net =
            Network::builder(Arc::new(mesh.clone())).build(algo.as_ref()).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Transpose { side: 6 }, 0.25, 4, 5);
        for _ in 0..600 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        net.set_measuring(true);
        net.add_measured_cycles(1_500);
        for _ in 0..1_500 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        net.set_measuring(false);
        net.drain(100_000);
        results.push((name, net.stats.latency.mean()));
    }
    let (xy, nara) = (results[0].1, results[1].1);
    assert!(
        nara < xy,
        "adaptive should beat oblivious under transpose: nara {nara:.1} vs xy {xy:.1}"
    );
}

#[test]
fn nafta_delivers_under_random_fault_batches() {
    let mesh = Mesh2D::new(6, 6);
    for seed in [3u64, 5, 8, 13] {
        let mut faults = FaultSet::new();
        faults.inject_random_links(&mesh, 5, true, seed);
        let algo = Nafta::new(mesh.clone());
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&algo).expect("valid config");
        net.apply_fault_set(&faults);
        net.settle_control(100_000).unwrap();
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, seed);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(100_000), "seed {seed}");
        assert!(!net.stats.deadlock, "seed {seed}");
        let total = net.stats.delivered_msgs + net.stats.unroutable_msgs;
        assert!(
            net.stats.delivered_msgs as f64 / total as f64 > 0.92,
            // NAFTA is not condition-3 complete: convex completion and
            // constant-memory fault state lose some awkward pairs (the paper
            // concedes exactly this); the bulk must still be delivered
            "seed {seed}: delivered {} of {}",
            net.stats.delivered_msgs,
            total
        );
    }
}

#[test]
fn rule_driven_route_c_matches_native_behaviour() {
    // the same workload through the native controller and through the
    // rule machine: identical delivery, minimality and step profile
    let cube = Hypercube::new(4);
    let native = RouteC::new(cube.clone());
    let cfg = ftrouter::core::configure("route_c", &ftrouter::algos::rules_src::route_c_source(4))
        .unwrap();
    let ruled = ftrouter::core::CubeRuleRouter::new(cfg, cube.clone());

    let mut results = Vec::new();
    for algo in [&native as &dyn RoutingAlgorithm, &ruled] {
        let mut net = Network::builder(Arc::new(cube.clone())).build(algo).expect("valid config");
        net.inject_node_fault(ftrouter::topo::NodeId(11));
        net.settle_control(10_000).unwrap();
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 123);
        for _ in 0..600 {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(100_000), "{}", algo.name());
        assert!(!net.stats.deadlock, "{}", algo.name());
        results.push((
            net.stats.injected_msgs,
            net.stats.delivered_msgs,
            net.stats.unroutable_msgs,
            net.stats.decision_steps.max,
        ));
    }
    let (native_r, ruled_r) = (results[0], results[1]);
    // same traffic seed → same injected count
    assert_eq!(native_r.0, ruled_r.0);
    assert_eq!(native_r.2, 0, "native delivers everything");
    assert_eq!(ruled_r.2, 0, "rule-driven delivers everything");
    assert_eq!(native_r.1, ruled_r.1, "same delivery count");
    assert_eq!(native_r.3, 2, "native: two steps");
    assert_eq!(ruled_r.3, 2, "rule-driven: two steps, measured by the machine");
}

/// A refused self-message is accounted like every other rejection: the
/// stats and a replay of the trace both see it, and the call returns
/// `Err` instead of panicking in any build profile.
#[test]
fn self_message_is_rejected_on_every_ledger() {
    use ftrouter::obs::RingSink;
    use ftrouter::sim::SendError;
    use ftrouter::trace::JourneyBook;

    let mesh = Mesh2D::new(3, 3);
    let sink = Arc::new(RingSink::new(64));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(sink.clone())
        .build(&XyRouting::new(mesh.clone()))
        .expect("valid config");
    let n = mesh.node_at(1, 1);
    assert_eq!(net.send(n, n, 4), Err(SendError::SelfMessage));
    assert_eq!(net.stats.rejected_sends, 1);
    assert_eq!(net.stats.injected_msgs, 0, "nothing entered the network");
    let mut book = JourneyBook::new();
    book.fold_all(&sink.events());
    assert_eq!(book.summary().rejected_sends, 1);
    assert!(net.stats.accounting_balanced());
}

//! Property-based tests of the simulator engine: conservation, delivery
//! and timing invariants under randomized workloads.

mod common;

use common::Xy;
use ftr_sim::{FaultAction, FaultPlan, Network, Pattern, RetryPolicy, SimConfig, TrafficSource};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: after draining, every injected message is accounted
    /// for exactly once (delivered + killed + unroutable), and the network
    /// holds no flits.
    #[test]
    fn message_conservation(
        seed in 0u64..1000,
        rate in 0.01f64..0.3,
        len in 1u32..8,
        cycles in 50u64..500,
    ) {
        let mesh = Mesh2D::new(4, 4);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&Xy::new(mesh.clone())).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, rate, len, seed);
        for _ in 0..cycles {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        prop_assert!(net.drain(100_000));
        let s = &net.stats;
        prop_assert_eq!(
            s.injected_msgs,
            s.delivered_msgs + s.killed_msgs + s.unroutable_msgs
        );
        prop_assert_eq!(s.killed_msgs, 0, "no faults, no kills");
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Latency lower bound: a message can never be delivered faster than
    /// hops + serialization (len - 1) cycles.
    #[test]
    fn latency_lower_bound(seed in 0u64..1000, len in 1u32..6) {
        let mesh = Mesh2D::new(5, 5);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&Xy::new(mesh.clone())).expect("valid config");
        net.set_measuring(true);
        let src = NodeId(seed as u32 % 25);
        let dst = NodeId((seed as u32 + 7) % 25);
        prop_assume!(src != dst);
        net.send(src, dst, len).unwrap();
        prop_assert!(net.drain(10_000));
        let hops = mesh.min_distance(src, dst) as u64;
        prop_assert!(
            net.stats.latency.min >= hops + len as u64 - 1,
            "latency {} < {} hops + {} flits",
            net.stats.latency.min, hops, len
        );
        prop_assert_eq!(net.stats.hops.max, hops, "XY is minimal");
    }

    /// Dynamic faults never wedge the engine: whatever is ripped is
    /// counted, the rest drains (XY marks blocked messages unroutable).
    #[test]
    fn dynamic_faults_keep_engine_consistent(
        seed in 0u64..500,
        fault_cycle in 10u64..200,
        fx in 0u32..4, fy in 0u32..4,
        dir in 0u8..4,
    ) {
        let mesh = Mesh2D::new(4, 4);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&Xy::new(mesh.clone())).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.15, 4, seed);
        for c in 0..400u64 {
            if c == fault_cycle {
                net.inject_link_fault(mesh.node_at(fx, fy), PortId(dir));
            }
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        net.drain(100_000);
        let s = &net.stats;
        prop_assert_eq!(
            s.injected_msgs,
            s.delivered_msgs + s.killed_msgs + s.unroutable_msgs
        );
        prop_assert_eq!(net.in_flight(), 0);
        prop_assert!(!s.deadlock, "XY cannot deadlock");
    }

    /// Decision latency scales base latency linearly: each extra cycle per
    /// step adds exactly one cycle per routed hop on an idle network.
    #[test]
    fn decision_latency_scaling(steps in 1u32..4, hops in 1u32..6) {
        let mesh = Mesh2D::new(7, 1);
        let src = NodeId(0);
        let dst = NodeId(hops);
        let mut lat = Vec::new();
        for cps in [1u32, steps] {
            let cfg = SimConfig { decision_cycles_per_step: cps, ..Default::default() };
            let mut net = Network::builder(Arc::new(mesh.clone())).config(cfg).build(&Xy::new(mesh.clone())).expect("valid config");
            net.set_measuring(true);
            net.send(src, dst, 2).unwrap();
            prop_assert!(net.drain(10_000));
            lat.push(net.stats.latency.min);
        }
        // `hops` routing decisions on the path, each slowed by (steps-1)
        prop_assert_eq!(lat[1] - lat[0], ((steps - 1) * hops) as u64);
    }

    /// Throughput accounting is consistent with the measured flit count.
    #[test]
    fn throughput_consistency(rate in 0.02f64..0.2, seed in 0u64..200) {
        let mesh = Mesh2D::new(4, 4);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&Xy::new(mesh.clone())).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, rate, 4, seed);
        net.set_measuring(true);
        net.add_measured_cycles(300);
        for _ in 0..300 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        net.set_measuring(false);
        prop_assert!(net.drain(50_000));
        let s = &net.stats;
        let expect = s.measured_flits as f64 / (300.0 * 16.0);
        prop_assert!((s.throughput() - expect).abs() < 1e-12);
        // accepted throughput can exceed offered only by rounding noise
        prop_assert!(s.throughput() <= rate * 1.8 + 0.05);
    }

    /// Active-set scheduling with parked heads is observationally
    /// identical to the dense, polling scan under arbitrary scripted
    /// fault/repair sequences with source retransmission, from idle to far
    /// beyond saturation, at any decision latency and shard count: same
    /// stats, same trace, same per-cycle movement — and the run never
    /// strands work (drains once the plan is exhausted).
    #[test]
    fn active_matches_dense_under_random_fault_scripts(
        seed in 0u64..500,
        rate in 0.02f64..0.7,
        script in proptest::collection::vec(
            (10u64..300, 0u32..16, 0u8..4, 20u64..150), 0..6),
        retry_arm in 0u8..2,
        cycles_per_step in 0u32..4,
        threads in 1usize..4,
    ) {
        let retry = retry_arm == 1;
        let mesh = Mesh2D::new(4, 4);
        // random fault-plan script: transient link faults at random spots
        let mut plan = FaultPlan::new();
        for &(cycle, node, dir, repair) in &script {
            plan.push(cycle, FaultAction::FailLink(NodeId(node), PortId(dir)));
            plan.push(cycle + repair, FaultAction::RepairLink(NodeId(node), PortId(dir)));
        }
        let mk = |dense: bool| {
            let sink = Arc::new(ftr_obs::RingSink::new(1 << 16));
            let mut b = Network::builder(Arc::new(mesh.clone()))
                .fault_plan(plan.clone())
                .threads(threads)
                .decision_cycles_per_step(cycles_per_step)
                .trace(sink.clone());
            if retry {
                b = b.retry(RetryPolicy { max_attempts: 4, backoff_cycles: 24 });
            }
            let algo = Xy::with_steps(mesh.clone(), 2);
            let mut net = b.build(&algo).expect("valid config");
            net.set_dense_reference(dense);
            (net, sink, algo)
        };
        let (mut act, sink_a, algo_a) = mk(false);
        let (mut dense, sink_d, algo_d) = mk(true);
        let mut tf_a = TrafficSource::new(Pattern::Uniform, rate, 4, seed);
        let mut tf_d = TrafficSource::new(Pattern::Uniform, rate, 4, seed);
        for _ in 0..500u64 {
            for (s, d, l) in tf_a.tick(&mesh, act.faults()) {
                let _ = act.send(s, d, l);
            }
            for (s, d, l) in tf_d.tick(&mesh, dense.faults()) {
                let _ = dense.send(s, d, l);
            }
            act.step();
            dense.step();
            prop_assert_eq!(
                act.last_step_moved(), dense.last_step_moved(),
                "moved diverged at cycle {}", dense.cycle()
            );
        }
        // no node is ever stranded: every remaining worm either finishes or
        // is resolved (XY marks fault-blocked messages unroutable; retries
        // are bounded), so a generous budget must always drain both
        prop_assert!(act.drain(100_000), "active path stranded work");
        prop_assert!(dense.drain(100_000), "dense path stranded work");
        prop_assert_eq!(&act.stats, &dense.stats);
        prop_assert_eq!(sink_a.events(), sink_d.events());
        prop_assert!(algo_a.route_calls() <= algo_d.route_calls());
        prop_assert!(act.stats.accounting_balanced());
        prop_assert_eq!(act.in_flight(), 0);
        // and once idle, the active set is empty — no ghost activations
        prop_assert!(act.active_nodes().is_empty());
    }

    /// The wiring table's cached link and node status equals the fault set
    /// after every step of a random plan over all eight actions — loud and
    /// silent, link and node, fault and repair, overlapping at will — and
    /// the run still accounts for every message.
    #[test]
    fn wiring_table_tracks_the_fault_set_under_random_plans(
        seed in 0u64..500,
        script in proptest::collection::vec((5u64..250, 0u8..8, 0u32..16, 0u8..4), 0..12),
    ) {
        let mesh = Mesh2D::new(4, 4);
        let mut plan = FaultPlan::new();
        for &(cycle, kind, node, dir) in &script {
            let (n, p) = (NodeId(node), PortId(dir));
            plan.push(cycle, match kind {
                0 => FaultAction::FailLink(n, p),
                1 => FaultAction::RepairLink(n, p),
                2 => FaultAction::FailNode(n),
                3 => FaultAction::RepairNode(n),
                4 => FaultAction::FailLinkSilent(n, p),
                5 => FaultAction::RepairLinkSilent(n, p),
                6 => FaultAction::FailNodeSilent(n),
                _ => FaultAction::RepairNodeSilent(n),
            });
        }
        let mut net = Network::builder(Arc::new(mesh.clone()))
            .fault_plan(plan)
            .build(&Xy::new(mesh.clone()))
            .expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, seed);
        for _ in 0..300u64 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                let _ = net.send(s, d, l);
            }
            net.step();
            prop_assert!(net.wiring_consistent(), "stale wiring bit at cycle {}", net.cycle());
        }
        prop_assert!(net.drain(100_000));
        prop_assert!(net.stats.accounting_balanced());
    }
}

//! Engine behaviour through the public API: construction, the message
//! lifecycle and its trace, decision latency, flow control, the deadlock
//! watchdog, fault kills, the control plane, and the step-path
//! differentials (dense vs active set, one shard vs many).

mod common;

use common::{mesh_net, Xy};
use ftr_obs::{EventKind, MetricsRegistry};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_sim::{BuildError, FaultPlan, Network, Pattern, RetryPolicy, SimConfig, TrafficSource};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST};
use std::sync::Arc;

/// Fully adaptive minimal on one VC — deadlocks under heavy load.
struct GreedyAdaptive {
    mesh: Mesh2D,
}

impl RoutingAlgorithm for GreedyAdaptive {
    fn name(&self) -> String {
        "greedy".into()
    }
    fn num_vcs(&self) -> usize {
        1
    }
    fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
        Box::new(GreedyCtl { mesh: self.mesh.clone() })
    }
}

struct GreedyCtl {
    mesh: Mesh2D,
}

impl NodeController for GreedyCtl {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _ip: Option<PortId>,
        _iv: VcId,
    ) -> Decision {
        for p in self.mesh.minimal_directions(view.node, h.dst) {
            if view.free(p.idx(), 0) {
                return Decision::new(Verdict::Route(p, VcId(0)), 1);
            }
        }
        Decision::new(Verdict::Wait, 1)
    }
}

#[test]
fn builder_rejects_invalid_configs() {
    let topo = Arc::new(Mesh2D::new(3, 3));
    let algo = Xy::with_steps((*topo).clone(), 1);
    assert_eq!(
        Network::builder(topo.clone()).buffer_depth(0).build(&algo).err(),
        Some(BuildError::ZeroBufferDepth)
    );
    assert_eq!(
        Network::builder(topo.clone()).deadlock_threshold(0).build(&algo).err(),
        Some(BuildError::ZeroDeadlockThreshold)
    );
    struct NoVc;
    impl RoutingAlgorithm for NoVc {
        fn name(&self) -> String {
            "novc".into()
        }
        fn num_vcs(&self) -> usize {
            0
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            unreachable!()
        }
    }
    assert_eq!(
        Network::builder(topo.clone()).build(&NoVc).err(),
        Some(BuildError::NoVirtualChannels)
    );
}

#[test]
fn trace_events_cover_message_lifecycle() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let algo = Xy::with_steps((*topo).clone(), 2);
    let sink = Arc::new(ftr_obs::RingSink::new(4096));
    let registry = Arc::new(MetricsRegistry::new());
    let mut net = Network::builder(topo.clone())
        .trace(sink.clone())
        .metrics(registry.clone())
        .build(&algo)
        .expect("valid config");
    net.set_measuring(true);
    let id = net.send(topo.node_at(0, 0), topo.node_at(2, 1), 4).unwrap();
    assert!(net.drain(1_000));

    let events = sink.events();
    assert!(!events.is_empty());
    // cycle stamps never decrease
    assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // inject precedes every decision, which precede the delivery
    let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
    assert_eq!(tags.first(), Some(&"inject"));
    assert_eq!(tags.last(), Some(&"deliver"));
    // per-hop decisions: 3 hops = decisions at (0,0), (1,0), (2,0); the
    // destination's 0-step delivery shortcut also records one
    let decisions = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RouteDecision { msg, .. } if msg == id.0))
        .count();
    assert_eq!(decisions, 4);
    // trace-derived step totals agree with the stats accumulator
    let steps_from_trace: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RouteDecision { steps, .. } => Some(steps as u64),
            _ => None,
        })
        .sum();
    assert_eq!(steps_from_trace, net.stats.decision_steps.sum);
    // metrics registry saw the same traffic
    assert_eq!(registry.counter_value("sim.injected"), Some(1));
    assert_eq!(registry.counter_value("sim.delivered"), Some(1));
    let lat = registry.histogram_snapshot("sim.latency").expect("latency recorded");
    assert_eq!(lat.count, 1);
    assert_eq!(lat.sum, net.stats.latency.sum);
}

#[test]
fn no_sink_means_no_events_and_working_sim() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    assert!(net.trace_sink().is_none());
    assert!(net.metrics_registry().is_none());
    net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
    assert!(net.drain(1_000));
    assert_eq!(net.stats.delivered_msgs, 1);
    assert!(net.stats.accounting_balanced());
}

#[test]
fn single_message_latency_is_sane() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    net.set_measuring(true);
    net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
    assert!(net.drain(1_000));
    assert_eq!(net.stats.delivered_msgs, 1);
    assert_eq!(net.stats.hops.max, 6, "XY path is 6 hops");
    // lower bound: 6 links + serialization of 4 flits
    assert!(net.stats.latency.min >= 9, "latency {}", net.stats.latency.min);
    assert!(net.stats.latency.max < 60);
}

#[test]
fn decision_latency_increases_message_latency() {
    let mut lat = Vec::new();
    for steps in [1, 3] {
        let (topo, mut net) = mesh_net(4, steps, SimConfig::default());
        net.set_measuring(true);
        net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
        assert!(net.drain(2_000));
        lat.push(net.stats.latency.mean());
    }
    // 6 routing decisions on the path, each 2 cycles slower
    assert!(lat[1] >= lat[0] + 8.0, "3-step decisions should cost >= 8 extra cycles: {lat:?}");
}

#[test]
fn many_messages_all_delivered() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 42);
    for _ in 0..500 {
        for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    assert!(net.drain(5_000), "network must drain");
    assert!(!net.stats.deadlock);
    assert!(net.stats.delivered_msgs > 100);
    assert_eq!(net.stats.delivered_msgs, net.stats.injected_msgs);
}

#[test]
fn wormhole_backpressure_respects_credits() {
    // tiny buffers, long messages: must still deliver without loss
    let cfg = SimConfig { buffer_depth: 2, ..Default::default() };
    let (topo, mut net) = mesh_net(4, 1, cfg);
    net.set_measuring(true);
    for y in 0..4 {
        net.send(topo.node_at(0, y), topo.node_at(3, y), 16).unwrap();
    }
    assert!(net.drain(5_000));
    assert_eq!(net.stats.delivered_msgs, 4);
}

#[test]
fn greedy_adaptive_deadlocks_under_pressure() {
    // 4 long messages chasing each other around the central ring with
    // 1-flit buffers reliably deadlock a fully adaptive 1-VC router
    let topo = Arc::new(Mesh2D::new(3, 3));
    let algo = GreedyAdaptive { mesh: (*topo).clone() };
    let cfg = SimConfig { buffer_depth: 1, deadlock_threshold: 200, ..Default::default() };
    let mut net = Network::builder(topo.clone()).config(cfg).build(&algo).expect("valid");
    // four corner-to-corner messages forming a cycle of turns
    net.send(topo.node_at(0, 0), topo.node_at(2, 2), 32).unwrap();
    net.send(topo.node_at(2, 0), topo.node_at(0, 2), 32).unwrap();
    net.send(topo.node_at(2, 2), topo.node_at(0, 0), 32).unwrap();
    net.send(topo.node_at(0, 2), topo.node_at(2, 0), 32).unwrap();
    let drained = net.drain(6_000);
    // either the schedule dodged the deadlock (possible) or the
    // watchdog fired; with these parameters the cycle forms reliably
    assert!(!drained || net.stats.deadlock || net.stats.delivered_msgs == 4);
    // the XY router under identical load must NOT deadlock
    let algo2 = Xy::with_steps((*topo).clone(), 1);
    let mut net2 = Network::builder(topo.clone()).config(cfg).build(&algo2).expect("valid");
    net2.send(topo.node_at(0, 0), topo.node_at(2, 2), 32).unwrap();
    net2.send(topo.node_at(2, 0), topo.node_at(0, 2), 32).unwrap();
    net2.send(topo.node_at(2, 2), topo.node_at(0, 0), 32).unwrap();
    net2.send(topo.node_at(0, 2), topo.node_at(2, 0), 32).unwrap();
    assert!(net2.drain(6_000), "XY must not deadlock");
    assert!(!net2.stats.deadlock);
}

#[test]
fn static_link_fault_kills_nothing_when_idle() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    net.inject_link_fault(topo.node_at(1, 1), EAST);
    assert_eq!(net.stats.killed_msgs, 0);
    assert!(net.faults().link_faulty(topo.as_ref(), topo.node_at(1, 1), EAST));
}

#[test]
fn dynamic_link_fault_rips_spanning_worm() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    let src = topo.node_at(0, 1);
    let dst = topo.node_at(3, 1);
    net.send(src, dst, 24).unwrap(); // long worm across the row
    net.run(8); // head is past (1,1)-(2,1), tail still at source
    net.inject_link_fault(topo.node_at(1, 1), EAST);
    assert_eq!(net.stats.killed_msgs, 1, "worm spanned the failed link");
    assert!(net.drain(1_000));
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn node_fault_kills_transiting_and_destined_messages() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).unwrap(); // transits (2,1)
    net.send(topo.node_at(2, 0), topo.node_at(2, 1), 8).unwrap(); // destined there
    net.run(6);
    net.inject_node_fault(topo.node_at(2, 1));
    assert_eq!(net.stats.killed_msgs, 2);
    assert!(net.drain(1_000));
}

#[test]
fn unroutable_verdict_counts_and_removes() {
    struct Refuse;
    struct RefuseCtl;
    impl RoutingAlgorithm for Refuse {
        fn name(&self) -> String {
            "refuse".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(RefuseCtl)
        }
    }
    impl NodeController for RefuseCtl {
        fn route(
            &mut self,
            _v: &RouterView<'_>,
            _h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            Decision::new(Verdict::Unroutable, 2)
        }
    }
    let topo = Arc::new(Mesh2D::new(3, 3));
    let mut net = Network::builder(topo.clone()).build(&Refuse).expect("valid");
    net.send(topo.node_at(0, 0), topo.node_at(2, 2), 4).unwrap();
    net.run(10);
    assert_eq!(net.stats.unroutable_msgs, 1);
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn decision_steps_are_recorded() {
    let (topo, mut net) = mesh_net(4, 3, SimConfig::default());
    net.send(topo.node_at(0, 0), topo.node_at(2, 0), 2).unwrap();
    assert!(net.drain(1_000));
    // 3 routing decisions (source + 2 intermediate? source + node(1,0));
    // destination ejects without a decision (recorded as 0 steps)
    assert!(net.stats.decision_steps.count >= 3);
    assert_eq!(net.stats.decision_steps.max, 3);
}

#[test]
fn control_plane_propagates_with_unit_latency() {
    struct Gossip;
    struct GossipCtl {
        heard: i64,
    }
    impl RoutingAlgorithm for Gossip {
        fn name(&self) -> String {
            "gossip".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(GossipCtl { heard: 0 })
        }
    }
    impl NodeController for GossipCtl {
        fn route(
            &mut self,
            _v: &RouterView<'_>,
            _h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            Decision::new(Verdict::Wait, 1)
        }
        fn on_fault(&mut self, view: &RouterView<'_>, _port: PortId) -> Vec<ControlMsg> {
            // flood a token to all alive neighbours
            (0..view.degree())
                .filter(|&p| view.alive(p))
                .map(|p| ControlMsg { port: PortId(p as u8), payload: vec![1] })
                .collect()
        }
        fn on_control(
            &mut self,
            view: &RouterView<'_>,
            _from: PortId,
            payload: &[i64],
        ) -> Vec<ControlMsg> {
            if self.heard == 0 && payload == [1] {
                self.heard = 1;
                (0..view.degree())
                    .filter(|&p| view.alive(p))
                    .map(|p| ControlMsg { port: PortId(p as u8), payload: vec![1] })
                    .collect()
            } else {
                Vec::new()
            }
        }
        fn state_word(&self) -> i64 {
            self.heard
        }
    }
    let topo = Arc::new(Mesh2D::new(5, 5));
    let mut net = Network::builder(topo.clone()).build(&Gossip).expect("valid");
    net.inject_link_fault(topo.node_at(2, 2), EAST);
    let settled = net.settle_control(1_000).expect("settles");
    // flood reaches the far corner within diameter+1 cycles
    assert!(settled <= 10, "settled in {settled}");
    for n in topo.nodes() {
        if n != topo.node_at(2, 2) && n != topo.node_at(3, 2) {
            assert_eq!(net.controller(n).state_word(), 1, "node {n} heard");
        }
    }
    assert!(net.stats.control_msgs > 20);
}

#[test]
fn active_set_tracks_work_exactly() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    assert!(net.active_nodes().is_empty(), "idle network, empty set");
    net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
    assert_eq!(net.active_nodes(), vec![topo.node_at(0, 0)], "send activates the source");
    assert!(net.drain(1_000));
    assert!(net.active_nodes().is_empty(), "drained network, empty set again");
    // the invariant holds mid-flight too: active ⟺ has_work
    net.send(topo.node_at(1, 1), topo.node_at(3, 0), 8).unwrap();
    for _ in 0..30 {
        net.step();
        let active = net.active_nodes();
        for n in topo.nodes() {
            let listed = active.binary_search(&n).is_ok();
            assert_eq!(listed, net.node_has_work(n), "node {n} at {}", net.cycle());
        }
    }
}

#[test]
fn active_set_matches_dense_reference_under_faults_and_retries() {
    // the active arm parks its waiting heads, the dense arm asks every one
    // of them every cycle: same run, and beyond saturation (load 0.6)
    // strictly fewer questions
    for (load, cycles_per_step, threads) in
        [(0.15, 1u32, 1usize), (0.6, 1, 1), (0.6, 0, 3), (0.6, 3, 3), (0.15, 3, 1)]
    {
        let label = format!("load {load}, {cycles_per_step} cycles/step, {threads} shard(s)");
        let mk = |dense: bool| {
            let topo = Arc::new(Mesh2D::new(5, 5));
            let algo = Xy::with_steps((*topo).clone(), 2);
            let plan = FaultPlan::new().transient_link(40, NodeId(6), EAST, 80).transient_node(
                100,
                NodeId(12),
                120,
            );
            let sink = Arc::new(ftr_obs::RingSink::new(1 << 17));
            let mut net = Network::builder(topo.clone())
                .threads(threads)
                .decision_cycles_per_step(cycles_per_step)
                .fault_plan(plan)
                .retry(RetryPolicy { max_attempts: 3, backoff_cycles: 10 })
                .trace(sink.clone())
                .build(&algo)
                .expect("valid");
            net.set_dense_reference(dense);
            net.set_measuring(true);
            (topo, net, sink, algo)
        };
        let (topo, mut act, sink_a, algo_a) = mk(false);
        let (_, mut dense, sink_d, algo_d) = mk(true);
        let mut tf_a = TrafficSource::new(Pattern::Uniform, load, 4, 9);
        let mut tf_d = TrafficSource::new(Pattern::Uniform, load, 4, 9);
        for _ in 0..400 {
            for (s, d, l) in tf_a.tick(topo.as_ref(), act.faults()) {
                let _ = act.send(s, d, l);
            }
            for (s, d, l) in tf_d.tick(topo.as_ref(), dense.faults()) {
                let _ = dense.send(s, d, l);
            }
            act.step();
            dense.step();
            assert_eq!(
                act.last_step_moved(),
                dense.last_step_moved(),
                "{label}: cycle {}",
                dense.cycle()
            );
        }
        while (act.in_flight() > 0 || dense.in_flight() > 0) && act.cycle() < 10_000 {
            act.step();
            dense.step();
        }
        assert!(act.stats.injected_msgs > 100, "{label}: traffic actually flowed");
        assert_eq!(act.in_flight(), 0, "{label}: drained");
        assert_eq!(act.stats, dense.stats, "{label}: bit-identical stats");
        assert_eq!(sink_a.events(), sink_d.events(), "{label}: bit-identical trace streams");
        let (asked, polled) = (algo_a.route_calls(), algo_d.route_calls());
        assert!(asked <= polled, "{label}: {asked} route calls against {polled}");
        if load > 0.5 {
            assert!(asked < polled, "{label}: nothing parked ({asked} route calls)");
        }
    }
}

#[test]
fn sharded_step_is_bit_identical_and_spawns_real_threads() {
    // the E15-shaped workload of the lockstep test above, run on one,
    // two (inline) and three (forced OS-thread) shards — stats and
    // trace streams must be bit-identical across all of them
    let mk = |threads: usize, spawn_threshold: usize| {
        let topo = Arc::new(Mesh2D::new(5, 5));
        let algo = Xy::with_steps((*topo).clone(), 2);
        let plan = FaultPlan::new().transient_link(40, NodeId(6), EAST, 80).transient_node(
            100,
            NodeId(12),
            120,
        );
        let sink = Arc::new(ftr_obs::RingSink::new(1 << 16));
        let mut net = Network::builder(topo.clone())
            .threads(threads)
            .spawn_threshold(spawn_threshold)
            .fault_plan(plan)
            .retry(RetryPolicy { max_attempts: 3, backoff_cycles: 10 })
            .trace(sink.clone())
            .build(&algo)
            .expect("valid");
        net.set_measuring(true);
        (topo, net, sink)
    };
    let (topo, mut seq, sink_1) = mk(1, usize::MAX);
    let (_, mut two, sink_2) = mk(2, usize::MAX); // multi-shard, inline
    let (_, mut os3, sink_3) = mk(3, 0); // multi-shard, forced OS threads
    assert_eq!(seq.threads(), 1);
    assert_eq!(two.threads(), 2);
    assert_eq!(os3.threads(), 3);
    let mut tfs: Vec<TrafficSource> =
        (0..3).map(|_| TrafficSource::new(Pattern::Uniform, 0.15, 4, 9)).collect();
    for _ in 0..400 {
        for (net, tf) in [&mut seq, &mut two, &mut os3].into_iter().zip(tfs.iter_mut()) {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                let _ = net.send(s, d, l);
            }
            net.step();
        }
        assert_eq!(seq.last_step_moved(), two.last_step_moved(), "cycle {}", seq.cycle());
        assert_eq!(seq.last_step_moved(), os3.last_step_moved(), "cycle {}", seq.cycle());
    }
    while (seq.in_flight() > 0 || two.in_flight() > 0 || os3.in_flight() > 0)
        && seq.cycle() < 10_000
    {
        seq.step();
        two.step();
        os3.step();
    }
    assert!(seq.stats.injected_msgs > 100, "traffic actually flowed");
    assert_eq!(seq.stats, two.stats, "2-shard stats bit-identical");
    assert_eq!(seq.stats, os3.stats, "3-shard (OS threads) stats bit-identical");
    assert_eq!(sink_1.events(), sink_2.events(), "2-shard trace bit-identical");
    assert_eq!(sink_1.events(), sink_3.events(), "3-shard trace bit-identical");
}

#[test]
fn threads_cap_at_node_count() {
    let topo = Arc::new(Mesh2D::new(3, 3));
    let algo = Xy::with_steps((*topo).clone(), 1);
    let net = Network::builder(topo.clone()).threads(64).build(&algo).expect("valid");
    assert_eq!(net.threads(), 9, "shards cap at the node count");
}

/// One message across a quiet mesh; returns its latency.
fn solo_latency(steps: u32, cps: u32) -> u64 {
    let cfg = SimConfig { decision_cycles_per_step: cps, ..Default::default() };
    let (topo, mut net) = mesh_net(4, steps, cfg);
    net.set_measuring(true);
    net.send(topo.node_at(0, 0), topo.node_at(3, 0), 2).unwrap();
    assert!(net.drain(10_000));
    net.stats.latency.min
}

#[test]
fn zero_step_decision_resolves_combinationally() {
    // a modeled decision cost of 0 behaves exactly like cost 1: the
    // verdict applies in the first-sight cycle with no waiting phase
    // (total delay 0 or 1 both mean "within this cycle")
    assert_eq!(solo_latency(0, 1), solo_latency(1, 1));
    // while cost 2 really does insert one waiting cycle per decision
    // (3 routing decisions on the 3-hop path)
    assert_eq!(solo_latency(2, 1) - solo_latency(1, 1), 3);
}

#[test]
fn zero_cycles_per_step_models_a_free_decision_stage() {
    // decision_cycles_per_step = 0 zeroes the delay whatever the step
    // count — same behaviour as a 1-cycle decision, never a stall
    assert_eq!(solo_latency(3, 0), solo_latency(1, 1));
    // and restoring the per-step cost brings the waiting cycles back:
    // steps=3, cps=1 → 2 waiting cycles at each of the 3 decisions
    assert_eq!(solo_latency(3, 1) - solo_latency(3, 0), 6);
}

//! End-to-end tests of the dynamic-fault lifecycle: scripted fault plans,
//! worm kills, link/node repair, source retransmission, and the rejected
//! injection path — with the accounting invariant checked on every cycle.

mod common;

use common::{mesh_net, Xy};
use ftr_obs::{EventKind, RingSink};
use ftr_sim::detect::{DetectorConfig, WithDetection};
use ftr_sim::flit::Header;
use ftr_sim::plan::{FaultAction, FaultPlan};
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_sim::{Network, RetryPolicy, SendError, SimConfig};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, WEST};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn send_to_faulty_endpoint_is_rejected_not_fatal() {
    let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
    net.inject_node_fault(topo.node_at(2, 2));
    assert_eq!(net.send(topo.node_at(2, 2), topo.node_at(0, 0), 4), Err(SendError::FaultySource));
    assert_eq!(
        net.send(topo.node_at(0, 0), topo.node_at(2, 2), 4),
        Err(SendError::FaultyDestination)
    );
    assert_eq!(net.stats.rejected_sends, 2);
    assert_eq!(net.stats.injected_msgs, 0, "rejected sends never enter the network");
    assert!(net.stats.accounting_balanced());
    // a healthy pair still works
    assert!(net.send(topo.node_at(0, 0), topo.node_at(1, 1), 4).is_ok());
    assert!(net.drain(1_000));
}

#[test]
fn fault_plan_drives_injections_and_repairs_from_step() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let n = topo.node_at(1, 1);
    let plan = FaultPlan::new()
        .transient_link(10, n, EAST, 40)
        .at(20, FaultAction::FailNode(topo.node_at(3, 3)))
        .at(35, FaultAction::RepairNode(topo.node_at(3, 3)));
    let mut net =
        Network::builder(topo.clone()).fault_plan(plan).build(&Xy::new((*topo).clone())).unwrap();

    net.run(5);
    assert!(!net.faults().link_faulty(topo.as_ref(), n, EAST));
    net.run(10); // cycle 15: link fault fired at 10
    assert!(net.faults().link_faulty(topo.as_ref(), n, EAST));
    assert!(!net.faults().node_faulty(topo.node_at(3, 3)));
    net.run(15); // cycle 30: node fault fired at 20
    assert!(net.faults().node_faulty(topo.node_at(3, 3)));
    net.run(10); // cycle 40: node repaired at 35
    assert!(!net.faults().node_faulty(topo.node_at(3, 3)));
    assert!(net.faults().link_faulty(topo.as_ref(), n, EAST), "link repairs at 50");
    net.run(15); // cycle 55: link repaired at 50
    assert!(!net.faults().link_faulty(topo.as_ref(), n, EAST));
    assert!(net.faults().faulty_links().next().is_none());
}

#[test]
fn transient_link_fault_round_trip_with_per_cycle_accounting() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let src = topo.node_at(0, 1);
    let dst = topo.node_at(3, 1);
    // fail the link mid-worm, repair it 50 cycles later
    let plan = FaultPlan::new().transient_link(8, topo.node_at(1, 1), EAST, 50);
    let mut net =
        Network::builder(topo.clone()).fault_plan(plan).build(&Xy::new((*topo).clone())).unwrap();

    net.send(src, dst, 24).expect("alive endpoints"); // long worm across the row
    for _ in 0..12 {
        net.step();
        assert!(net.stats.accounting_balanced(), "cycle {}", net.cycle());
    }
    assert_eq!(net.stats.killed_msgs, 1, "worm spanning the failed link was ripped");
    assert_eq!(net.in_flight(), 0);

    // before the repair the same route is refused (unroutable at (1,1))
    net.send(src, dst, 4).expect("alive endpoints");
    while net.cycle() < 40 {
        net.step();
        assert!(net.stats.accounting_balanced(), "cycle {}", net.cycle());
    }
    assert_eq!(net.stats.unroutable_msgs, 1, "no route while the link is down");

    // after the repair (cycle 58) the flow resumes on the original path
    while net.cycle() < 60 {
        net.step();
    }
    net.send(src, dst, 4).expect("alive endpoints");
    assert!(net.drain(1_000));
    assert_eq!(net.stats.delivered_msgs, 1);
    assert!(net.stats.accounting_balanced());
    assert!(!net.stats.deadlock);
}

#[test]
fn retry_policy_recovers_what_the_baseline_loses() {
    // identical scenario, with and without source retransmission
    let run = |retry: Option<RetryPolicy>| {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let mut b = Network::builder(topo.clone()).fault_plan(FaultPlan::new().transient_link(
            8,
            topo.node_at(1, 1),
            EAST,
            50,
        ));
        if let Some(rp) = retry {
            b = b.retry(rp);
        }
        let mut net = b.build(&Xy::new((*topo).clone())).expect("valid");
        net.set_measuring(true);
        net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).expect("alive");
        let drained = net.drain(2_000);
        for _ in 0..5 {
            net.step(); // a few extra cycles: drain() may return at in_flight 0
        }
        assert!(net.stats.accounting_balanced());
        (net.stats.clone(), drained)
    };

    let (no_retry, _) = run(None);
    assert_eq!(no_retry.delivered_msgs, 0, "baseline loses the ripped worm");
    assert_eq!(no_retry.killed_msgs, 1);
    assert!(no_retry.delivery_ratio() < 1.0);

    let (with_retry, drained) = run(Some(RetryPolicy { max_attempts: 6, backoff_cycles: 30 }));
    assert!(drained, "retrying run must terminate");
    assert_eq!(with_retry.delivered_msgs, 1, "retry delivers after the repair");
    assert_eq!(with_retry.killed_msgs + with_retry.unroutable_msgs, 0, "no terminal loss");
    assert_eq!(with_retry.abandoned_msgs, 0);
    assert!(with_retry.retried_msgs >= 1, "at least one re-injection");
    assert_eq!(with_retry.delivery_ratio(), 1.0, "delivery ratio recovers to 1.0");
    // latency is measured from the FIRST attempt's injection, so it must
    // span the outage: the link only comes back at cycle 58
    assert_eq!(with_retry.latency.count, 1);
    assert!(with_retry.latency.min >= 58, "latency {} spans the outage", with_retry.latency.min);
}

#[test]
fn retry_exhaustion_abandons_and_accounts() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let retry = RetryPolicy { max_attempts: 3, backoff_cycles: 10 };
    let mut net =
        Network::builder(topo.clone()).retry(retry).build(&Xy::new((*topo).clone())).unwrap();
    // permanent fault on the XY path: every attempt dies unroutable
    net.inject_link_fault(topo.node_at(1, 1), EAST);
    net.send(topo.node_at(0, 1), topo.node_at(3, 1), 4).expect("alive");
    assert!(net.drain(2_000), "exhaustion must terminate the message");
    assert_eq!(net.stats.retried_msgs, 2, "attempts 2 and 3 were re-injections");
    assert_eq!(net.stats.abandoned_msgs, 1);
    assert_eq!(net.stats.unroutable_msgs, 1, "terminal cause recorded");
    assert_eq!(net.stats.delivered_msgs, 0);
    assert!(net.stats.accounting_balanced());
}

#[test]
fn retry_to_dead_endpoint_is_abandoned_not_stuck() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let retry = RetryPolicy { max_attempts: 10, backoff_cycles: 10 };
    let mut net =
        Network::builder(topo.clone()).retry(retry).build(&Xy::new((*topo).clone())).unwrap();
    net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).expect("alive");
    net.run(6);
    // destination dies while the worm is in flight: kill + scheduled retry
    net.inject_node_fault(topo.node_at(3, 1));
    assert!(net.drain(1_000), "retry to a dead destination must not stall the drain");
    assert_eq!(net.stats.abandoned_msgs, 1);
    assert_eq!(net.stats.delivered_msgs, 0);
    assert!(net.stats.accounting_balanced());
}

/// Algorithm whose controller at `speaker` emits one control message
/// through `port` when `on_tick` runs at cycle `at`; every controller
/// counts the non-detector control payloads it receives.
struct SpeakOnce {
    speaker: NodeId,
    port: PortId,
    at: u64,
    received: Arc<AtomicU64>,
}

struct SpeakCtl {
    speak: Option<(PortId, u64)>,
    received: Arc<AtomicU64>,
}

impl RoutingAlgorithm for SpeakOnce {
    fn name(&self) -> String {
        "speak-once".into()
    }
    fn num_vcs(&self) -> usize {
        1
    }
    fn controller(&self, _t: &dyn Topology, n: NodeId) -> Box<dyn NodeController> {
        Box::new(SpeakCtl {
            speak: (n == self.speaker).then_some((self.port, self.at)),
            received: self.received.clone(),
        })
    }
}

impl NodeController for SpeakCtl {
    fn route(
        &mut self,
        _view: &RouterView<'_>,
        _h: &mut Header,
        _ip: Option<PortId>,
        _iv: VcId,
    ) -> Decision {
        Decision::new(Verdict::Wait, 1)
    }
    fn on_tick(&mut self, _view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        match self.speak {
            Some((port, at)) if at == cycle => vec![ControlMsg { port, payload: vec![99] }],
            _ => Vec::new(),
        }
    }
    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        _from: PortId,
        _payload: &[i64],
    ) -> Vec<ControlMsg> {
        self.received.fetch_add(1, Ordering::SeqCst);
        Vec::new()
    }
}

/// One `SpeakOnce` run: a control message leaves `(1,1)` eastwards at
/// cycle 5, an optional plan perturbs the network, and the receipt
/// count plus control-plane stats come back.
fn speak_run(plan: Option<FaultPlan>) -> (u64, ftr_sim::SimStats) {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let received = Arc::new(AtomicU64::new(0));
    let algo =
        SpeakOnce { speaker: topo.node_at(1, 1), port: EAST, at: 5, received: received.clone() };
    let mut b = Network::builder(topo.clone()).tick_period(1);
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    let mut net = b.build(&algo).expect("valid");
    net.run(10);
    (received.load(Ordering::SeqCst), net.stats.clone())
}

#[test]
fn control_delivery_crosses_healthy_link() {
    let (received, stats) = speak_run(None);
    assert_eq!(received, 1, "the message lands one cycle after the send");
    assert_eq!(stats.control_msgs, 1);
    assert_eq!(stats.control_dropped, 0);
}

#[test]
fn control_delivery_dropped_when_link_dies_between_send_and_delivery() {
    // sent at cycle 5 (due at 6); the link dies at the start of cycle 6,
    // before the delivery executes — the words never arrived
    let topo = Mesh2D::new(4, 4);
    let plan = FaultPlan::new().at(6, FaultAction::FailLink(topo.node_at(1, 1), EAST));
    let (received, stats) = speak_run(Some(plan));
    assert_eq!(received, 0, "a delivery must not cross a link that died in flight");
    assert_eq!(stats.control_msgs, 1, "the send itself happened");
    assert_eq!(stats.control_dropped, 1, "the in-flight loss is accounted");
}

#[test]
fn control_delivery_dropped_when_sender_dies_between_send_and_delivery() {
    let topo = Mesh2D::new(4, 4);
    let plan = FaultPlan::new().at(6, FaultAction::FailNode(topo.node_at(1, 1)));
    let (received, stats) = speak_run(Some(plan));
    assert_eq!(received, 0, "a dead sender's words never arrive");
    assert_eq!(stats.control_dropped, 1);
}

#[test]
fn control_send_on_dead_link_is_counted_not_silent() {
    // the link is already dead when the controller speaks at cycle 5
    let topo = Mesh2D::new(4, 4);
    let plan = FaultPlan::new().at(2, FaultAction::FailLink(topo.node_at(1, 1), EAST));
    let (received, stats) = speak_run(Some(plan));
    assert_eq!(received, 0);
    assert_eq!(stats.control_msgs, 0, "the message never entered the control plane");
    assert_eq!(stats.control_dropped, 1, "the send-time discard is accounted");
}

#[test]
fn silent_fault_keeps_physical_effect_but_skips_notification() {
    // two identical runs, one oracle-notified, one silent: same worm
    // kill, but the silent run produces no control traffic at all
    let run = |silent: bool| {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let n = topo.node_at(1, 1);
        let mut net =
            Network::builder(topo.clone()).build(&Xy::new((*topo).clone())).expect("valid");
        net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).expect("alive");
        net.run(6);
        if silent {
            net.inject_link_fault_silent(n, EAST);
        } else {
            net.inject_link_fault(n, EAST);
        }
        net.run(4);
        assert!(net.faults().link_faulty(topo.as_ref(), n, EAST));
        assert_eq!(net.stats.killed_msgs, 1, "the worm rip is physical, not advisory");
        assert!(net.stats.accounting_balanced());
        net.stats.clone()
    };
    let oracle = run(false);
    let silent = run(true);
    assert_eq!(oracle.killed_msgs, silent.killed_msgs);
    assert_eq!(silent.control_msgs, 0, "no notification, no control wave");
}

#[test]
fn silenced_plan_mirrors_actions_cycle_for_cycle() {
    let topo = Mesh2D::new(4, 4);
    let loud = FaultPlan::new().transient_link(10, topo.node_at(1, 1), EAST, 40).transient_node(
        20,
        topo.node_at(3, 3),
        15,
    );
    let silent = loud.clone().silenced();
    assert_eq!(loud.actions().len(), silent.actions().len());
    for (l, s) in loud.actions().iter().zip(silent.actions()) {
        assert_eq!(l.cycle, s.cycle);
        let expected = match l.action {
            FaultAction::FailLink(n, p) => FaultAction::FailLinkSilent(n, p),
            FaultAction::RepairLink(n, p) => FaultAction::RepairLinkSilent(n, p),
            FaultAction::FailNode(n) => FaultAction::FailNodeSilent(n),
            FaultAction::RepairNode(n) => FaultAction::RepairNodeSilent(n),
            other => other,
        };
        assert_eq!(s.action, expected);
    }
    // idempotent
    assert_eq!(silent.clone().silenced().actions(), silent.actions());
}

/// Detection end-to-end over a protocol-agnostic wrapped algorithm: a
/// silent link fault must surface as Suspect events escalating into
/// Alarms at both endpoints, and the silent repair must surface as
/// resumed heartbeats (no new alarms after recovery).
#[test]
fn detector_turns_silent_fault_into_alarms_and_unsuspects_after_repair() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let n = topo.node_at(1, 1);
    let m = topo.node_at(2, 1);
    let sink = Arc::new(RingSink::new(100_000));
    let plan = FaultPlan::new().transient_link(20, n, EAST, 60).silenced();
    let algo = WithDetection::new(Xy::new((*topo).clone()), DetectorConfig { miss_threshold: 3 });
    let mut net = Network::builder(topo.clone())
        .tick_period(4)
        .trace(sink.clone())
        .fault_plan(plan)
        .build(&algo)
        .expect("valid");
    net.run(60); // fault at 20, alarm by ~20 + 4*(3+1)
    let alarms: Vec<(NodeId, PortId)> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Alarm { node, port } => Some((node, port)),
            _ => None,
        })
        .collect();
    assert!(alarms.contains(&(n, EAST)), "near endpoint alarms: {alarms:?}");
    assert!(alarms.contains(&(m, WEST)), "far endpoint alarms too: {alarms:?}");
    assert_eq!(alarms.len(), 2, "no false positives anywhere else");
    let suspects =
        sink.events().iter().filter(|e| matches!(e.kind, EventKind::Suspect { .. })).count();
    assert!(suspects >= 2, "suspicion precedes each alarm");
    assert!(net.stats.control_dropped > 0, "probes into the dead link are accounted");

    // silent repair at cycle 80: pongs resume, detectors un-suspect, and
    // no further alarms fire
    net.run(60);
    let after: Vec<EventKind> = sink
        .events()
        .into_iter()
        .filter(|e| e.cycle > 90)
        .map(|e| e.kind)
        .filter(|k| matches!(k, EventKind::Alarm { .. } | EventKind::Suspect { .. }))
        .collect();
    assert!(after.is_empty(), "recovered link must be quiet: {after:?}");
}

/// A fault-free detection run must never suspect anyone — the zero
/// false-positive guarantee E22 quantifies.
#[test]
fn detector_is_silent_on_fault_free_network() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let sink = Arc::new(RingSink::new(100_000));
    let algo = WithDetection::new(Xy::new((*topo).clone()), DetectorConfig::default());
    let mut net = Network::builder(topo.clone())
        .tick_period(4)
        .trace(sink.clone())
        .build(&algo)
        .expect("valid");
    net.run(200);
    assert!(
        !sink
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Suspect { .. } | EventKind::Alarm { .. })),
        "no suspicion without faults"
    );
    assert_eq!(net.stats.control_dropped, 0);
    assert!(net.stats.control_msgs > 0, "heartbeats flowed");
    let heartbeats =
        sink.events().iter().filter(|e| matches!(e.kind, EventKind::Heartbeat { .. })).count();
    assert!(heartbeats > 0, "heartbeat traffic is traced");
}

#[test]
fn retry_backoff_longer_than_watchdog_is_not_a_deadlock() {
    let topo = Arc::new(Mesh2D::new(4, 4));
    let cfg = SimConfig { deadlock_threshold: 40, ..Default::default() };
    let mut net = Network::builder(topo.clone())
        .config(cfg)
        .retry(RetryPolicy { max_attempts: 4, backoff_cycles: 120 })
        .fault_plan(FaultPlan::new().transient_link(8, topo.node_at(1, 1), EAST, 60))
        .build(&Xy::new((*topo).clone()))
        .expect("valid");
    net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).expect("alive");
    assert!(net.drain(2_000));
    assert!(!net.stats.deadlock, "idle backoff must not trip the watchdog");
    assert_eq!(net.stats.delivered_msgs, 1);
    assert!(net.stats.accounting_balanced());
}

//! The detection layer's trace events: recorded in full under a sink,
//! not buffered at all without one.

use ftrouter::prelude::*;
use ftrouter::sim::routing::{ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm};
use ftrouter::sim::{DetectorConfig, Header, WithDetection};
use ftrouter::topo::EAST;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Forwards to the controller it wraps and, when the network drops it,
/// adds the events that controller still holds to `left`.
struct Leftover {
    inner: Box<dyn NodeController>,
    left: Arc<AtomicUsize>,
}

impl Drop for Leftover {
    fn drop(&mut self) {
        self.left.fetch_add(self.inner.drain_events().len(), Ordering::Relaxed);
    }
}

impl NodeController for Leftover {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        self.inner.route(view, h, in_port, in_vc)
    }
    fn on_tick(&mut self, view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        self.inner.on_tick(view, cycle)
    }
    fn drain_events(&mut self) -> Vec<EventKind> {
        self.inner.drain_events()
    }
    fn on_control(&mut self, v: &RouterView<'_>, from: PortId, words: &[i64]) -> Vec<ControlMsg> {
        self.inner.on_control(v, from, words)
    }
    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.inner.on_fault(view, port)
    }
    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.inner.on_repair(view, port)
    }
}

struct CountLeftovers<A>(A, Arc<AtomicUsize>);

impl<A: RoutingAlgorithm> RoutingAlgorithm for CountLeftovers<A> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn num_vcs(&self) -> usize {
        self.0.num_vcs()
    }
    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(Leftover { inner: self.0.controller(topo, node), left: self.1.clone() })
    }
}

/// Count and FNV-1a digest of a run's detection events, in recording order.
#[derive(Default)]
struct DetectionDigest(Mutex<(u64, u64)>);

impl TraceSink for DetectionDigest {
    fn record(&self, ev: &TraceEvent) {
        let words = match ev.kind {
            EventKind::Heartbeat { node, port, pong } => [1, node.0, port.0 as u32, pong as u32],
            EventKind::Suspect { node, port, misses } => [2, node.0, port.0 as u32, misses],
            EventKind::Alarm { node, port } => [3, node.0, port.0 as u32, 0],
            _ => return,
        };
        let mut d = self.0.lock().expect("no recorder panicked");
        if d.0 == 0 {
            d.1 = 0xcbf2_9ce4_8422_2325;
        }
        d.0 += 1;
        for w in std::iter::once(ev.cycle).chain(words.map(u64::from)) {
            d.1 = (d.1 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 5 000 cycles of a 6×6 NAFTA mesh under detection: a link fails silently
/// and is silently repaired, and a message crosses its row every 50
/// cycles. Returns the events left in the detectors when the run ended.
fn long_detection_run(sink: Option<Arc<dyn TraceSink>>) -> usize {
    let mesh = Mesh2D::new(6, 6);
    let blocked = mesh.node_at(2, 3);
    let plan = FaultPlan::new()
        .at(100, FaultAction::FailLinkSilent(blocked, EAST))
        .at(2_000, FaultAction::RepairLinkSilent(blocked, EAST));
    let left = Arc::new(AtomicUsize::new(0));
    let algo = CountLeftovers(
        WithDetection::new(Nafta::new(mesh.clone()), DetectorConfig::default()),
        left.clone(),
    );
    let mut b = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .tick_period(8)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 32 });
    if let Some(sink) = sink {
        b = b.trace(sink);
    }
    let mut net = b.build(&algo).expect("valid");
    for _ in 0..100 {
        net.send(mesh.node_at(0, 3), mesh.node_at(5, 3), 4).expect("alive");
        net.run(50);
    }
    assert!(!net.stats.deadlock);
    assert_eq!(net.stats.delivered_msgs, 100);
    drop(net);
    left.load(Ordering::Relaxed)
}

/// Without a sink nobody drains a detector, so it must not buffer: the
/// event vectors used to grow by ≈830 entries per node per 1 000 cycles
/// for as long as the run lasted.
#[test]
fn detectors_buffer_nothing_when_no_sink_drains_them() {
    assert_eq!(long_detection_run(None), 0, "events left in the detectors");
}

/// With a sink every heartbeat, suspicion and alarm is recorded — the
/// count and digest were pinned before the detector learnt to skip them
/// when nobody listens.
#[test]
fn a_sink_sees_every_detection_event() {
    let digest = Arc::new(DetectionDigest::default());
    assert_eq!(long_detection_run(Some(digest.clone())), 0, "drained after every hook");
    let pinned = *digest.0.lock().expect("run finished");
    assert_eq!(
        pinned,
        (149_534, 1_623_060_526_472_887_135),
        "detection events recorded, and their digest"
    );
}

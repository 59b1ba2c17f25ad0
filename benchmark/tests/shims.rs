//! The timing shims must be invisible to the simulation: a network run
//! behind them ends in the same `SimStats`, emits the same events and
//! answers the same diagnostic queries as a bare one.

use ftr_algos::Nafta;
use ftr_ledger::schedule::Schedule;
use ftr_ledger::shims::{TimedAlgo, TimedSink};
use ftr_obs::{RingSink, TraceEvent, TraceSink};
use ftr_sim::flit::{Header, MessageId};
use ftr_sim::{
    DetectorConfig, FaultAction, FaultPlan, Network, RetryPolicy, RoutingAlgorithm, SimStats,
    WithDetection,
};
use ftr_topo::{FaultSet, Mesh2D, NodeId, VcId, EAST};
use std::sync::Arc;

struct Outcome {
    stats: SimStats,
    events: Vec<TraceEvent>,
    state_words: Vec<i64>,
    relation_sizes: Vec<usize>,
}

/// 4x4 mesh, detection + retry, one link silently failed at cycle 60 and
/// silently repaired at 200 — every control hook and `drain_events` fire.
fn run(algo: &dyn RoutingAlgorithm, sink: Arc<dyn TraceSink>, ring: &RingSink) -> Outcome {
    let mesh = Mesh2D::new(4, 4);
    let sched = Schedule::draw(&mesh, &FaultSet::new(), 0.15, 6, 400, 9);
    let site = mesh.node_at(1, 2);
    let plan = FaultPlan::new()
        .at(60, FaultAction::FailLinkSilent(site, EAST))
        .at(200, FaultAction::RepairLinkSilent(site, EAST));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
        .tick_period(8)
        .trace(sink)
        .build(algo)
        .expect("valid configuration");
    net.set_measuring(true);
    let refused = sched.offer(&mut net, |n, m| n.send(m.src, m.dst, m.len).is_ok(), Network::step);
    assert_eq!(refused, 0);
    // mid-run, while the fault knowledge is still in the controllers
    let state_words = (0..16).map(|i| net.controller(NodeId(i)).state_word()).collect();
    let relation_sizes = (0..16)
        .map(|i| {
            let h = Header::new(MessageId(0), NodeId(i), NodeId((i + 5) % 16), 6);
            net.query_relation(NodeId(i), &h, None, VcId(0)).len()
        })
        .collect();
    assert!(net.drain(50_000));
    Outcome { stats: net.stats.clone(), events: ring.events(), state_words, relation_sizes }
}

#[test]
fn shimmed_run_is_indistinguishable_from_a_bare_one() {
    let mesh = Mesh2D::new(4, 4);
    let algo = WithDetection::new(Nafta::new(mesh), DetectorConfig::default());

    let ring = Arc::new(RingSink::new(1 << 20));
    let bare = run(&algo, ring.clone(), &ring);

    let ring = Arc::new(RingSink::new(1 << 20));
    let timed_sink = Arc::new(TimedSink::new(ring.clone()));
    let timed_algo = TimedAlgo::new(&algo);
    let shimmed = run(&timed_algo, timed_sink.clone(), &ring);

    assert!(bare.stats.killed_msgs > 0 || bare.stats.control_msgs > 0, "the fault was felt");
    assert_eq!(bare.stats, shimmed.stats);
    assert_eq!(bare.events, shimmed.events, "drain_events forwarded untouched");
    assert_eq!(bare.state_words, shimmed.state_words);
    assert_eq!(bare.relation_sizes, shimmed.relation_sizes);
    assert_eq!(ring.dropped(), 0);

    // and the shims did count: every event passed the sink shim, every
    // decision the controller shim (totals arrive when the network drops)
    assert_eq!(timed_sink.totals().calls, shimmed.events.len() as u64);
    let t = timed_algo.totals();
    assert!(t.route_calls >= shimmed.stats.decision_steps.count && t.route_calls > 0);
    assert!(t.ctl_calls > 0 && t.ctl_msgs > 0 && t.route_waits <= t.route_calls);
}

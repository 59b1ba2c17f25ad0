//! Integration tests of the observability layer against a live
//! simulation: accounting invariants, trace-stream well-formedness, and
//! sweep determinism.

use ftr_obs::{EventKind, RingSink};
mod common;

use common::Xy;
use ftr_sim::{run_sweep, Network, Pattern, TrafficSource};
use ftr_topo::{Mesh2D, EAST};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn traced_run(seed: u64, cycles: u64, fault_at: Option<u64>) -> (Network, Arc<RingSink>) {
    let mesh = Mesh2D::new(5, 5);
    let sink = Arc::new(RingSink::new(1 << 20));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(sink.clone())
        .build(&Xy::new(mesh.clone()))
        .expect("valid config");
    net.set_measuring(true); // hops/latency accums cover every message
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, seed);
    for c in 0..cycles {
        if Some(c) == fault_at {
            net.inject_link_fault(mesh.node_at(2, 2), EAST);
        }
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    net.drain(50_000);
    (net, sink)
}

#[test]
fn stats_accounting_balances_throughout_a_faulty_run() {
    let mesh = Mesh2D::new(5, 5);
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .build(&Xy::new(mesh.clone()))
        .expect("valid config");
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.15, 4, 7);
    for c in 0..600u64 {
        if c == 200 {
            net.inject_link_fault(mesh.node_at(1, 1), EAST);
        }
        if c == 400 {
            net.inject_node_fault(mesh.node_at(3, 3));
        }
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
        // the invariant holds on EVERY cycle, not just at quiescence
        assert!(net.stats.accounting_balanced(), "cycle {c}: {:?}", net.stats);
    }
    net.drain(50_000);
    assert!(net.stats.accounting_balanced());
    assert_eq!(net.in_flight(), 0);
    assert!(net.stats.killed_msgs + net.stats.unroutable_msgs > 0, "faults had casualties");
}

#[test]
fn trace_stream_is_cycle_monotone_and_causally_ordered() {
    let (net, sink) = traced_run(11, 800, Some(300));
    assert_eq!(sink.dropped(), 0, "ring sized for the full run");
    let events = sink.events();
    assert!(!events.is_empty());

    // cycle stamps never decrease
    assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle), "trace is cycle-monotone");

    // per message: inject first, then decisions/stalls, then exactly one
    // terminal event (deliver / kill / unroutable)
    let mut injected_at: HashMap<u64, u64> = HashMap::new();
    let mut terminated: HashSet<u64> = HashSet::new();
    for ev in &events {
        match &ev.kind {
            EventKind::Inject { msg, .. } => {
                assert!(injected_at.insert(*msg, ev.cycle).is_none(), "msg {msg} double-inject");
            }
            EventKind::RouteDecision { msg, .. }
            | EventKind::VcStall { msg, .. }
            | EventKind::VcAcquire { msg, .. }
            | EventKind::VcRelease { msg, .. }
            | EventKind::RouteWait { msg, .. } => {
                assert!(injected_at.contains_key(msg), "decision before inject for {msg}");
                assert!(!terminated.contains(msg), "decision after termination for {msg}");
            }
            EventKind::Deliver { msg, .. }
            | EventKind::Kill { msg }
            | EventKind::Unroutable { msg } => {
                assert!(injected_at.contains_key(msg), "terminal before inject for {msg}");
                assert!(terminated.insert(*msg), "msg {msg} terminated twice");
            }
            _ => {}
        }
    }
    assert_eq!(injected_at.len() as u64, net.stats.injected_msgs);
    assert_eq!(terminated.len() as u64, net.stats.terminated());

    // the fault injection shows up exactly once
    let faults = events.iter().filter(|e| matches!(e.kind, EventKind::LinkFault { .. })).count();
    assert_eq!(faults, 1);
}

#[test]
fn channel_acquire_release_pairing_and_hop_counts() {
    // fault-free run: every delivered message must acquire and release the
    // same channels, one acquire per hop, in strict alternation per channel
    let (net, sink) = traced_run(31, 600, None);
    assert_eq!(sink.dropped(), 0);
    let mut held: HashMap<(u32, u8, u8), u64> = HashMap::new();
    let mut acquires: HashMap<u64, u64> = HashMap::new();
    let mut releases: HashMap<u64, u64> = HashMap::new();
    for ev in sink.events() {
        match ev.kind {
            EventKind::VcAcquire { node, msg, port, vc } => {
                let prev = held.insert((node.0, port.0, vc.0), msg);
                assert_eq!(prev, None, "channel acquired while owned (msg {msg})");
                *acquires.entry(msg).or_default() += 1;
            }
            EventKind::VcRelease { node, msg, port, vc } => {
                let owner = held.remove(&(node.0, port.0, vc.0));
                assert_eq!(owner, Some(msg), "release by non-owner (msg {msg})");
                *releases.entry(msg).or_default() += 1;
            }
            _ => {}
        }
    }
    assert!(held.is_empty(), "all channels released by the end of a fault-free run");
    assert_eq!(acquires, releases, "per-message acquire/release balance");
    // each acquire is one switch traversal, which is how hops are counted
    let total_acquires: u64 = acquires.values().sum();
    assert_eq!(net.stats.delivered_msgs, net.stats.injected_msgs, "fault-free run delivers all");
    assert_eq!(total_acquires, net.stats.hops.sum, "acquires == hop count");
}

#[test]
fn route_wait_events_carry_probed_wants() {
    // XY routing waits only when its single preferred channel is busy, so
    // every RouteWait must name exactly that one channel
    let mesh = Mesh2D::new(5, 5);
    let sink = Arc::new(RingSink::new(1 << 20));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(sink.clone())
        .build(&Xy::new(mesh.clone()))
        .expect("valid config");
    // heavy uniform load forces contention and therefore Wait verdicts
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.5, 8, 5);
    for _ in 0..400 {
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    net.drain(50_000);
    assert_eq!(sink.dropped(), 0);
    let mut waits = 0u64;
    for ev in sink.events() {
        if let EventKind::RouteWait { wants, .. } = &ev.kind {
            waits += 1;
            assert_eq!(wants.len(), 1, "XY has exactly one acceptable channel while blocked");
        }
    }
    assert!(waits > 0, "load 0.5 must produce blocked cycles");
}

#[test]
fn trace_derived_steps_match_engine_stats() {
    let (net, sink) = traced_run(23, 600, None);
    assert_eq!(sink.dropped(), 0);
    let (mut count, mut sum) = (0u64, 0u64);
    for ev in sink.events() {
        if let EventKind::RouteDecision { steps, .. } = ev.kind {
            count += 1;
            sum += steps as u64;
        }
    }
    assert_eq!(count, net.stats.decision_steps.count);
    assert_eq!(sum, net.stats.decision_steps.sum);
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let loads: Vec<u64> = (0..12).collect();
    let job = |&seed: &u64| {
        let mesh = Mesh2D::new(4, 4);
        let mut net = Network::builder(Arc::new(mesh.clone()))
            .build(&Xy::new(mesh.clone()))
            .expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.12, 4, seed);
        net.set_measuring(true);
        for _ in 0..300 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        net.drain(20_000);
        (net.stats.delivered_msgs, net.stats.latency.sum, net.stats.hops.sum)
    };
    let one = run_sweep(loads.clone(), 1, job);
    let four = run_sweep(loads.clone(), 4, job);
    let sixteen = run_sweep(loads.clone(), 16, job);
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, sixteen, "1 vs 16 threads");
    assert!(one.iter().all(|&(d, _, _)| d > 0), "every slot simulated traffic");
}

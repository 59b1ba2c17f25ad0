//! Quickstart: compile a rule program, load it into the flexible router,
//! and run a small mesh network.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ftrouter::core::{configure, RuleRouter};
use ftrouter::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. A routing algorithm is a rule program — here the paper's
    //    introductory example style: XY dimension-order routing.
    let cfg = configure("xy", ftrouter::algos::rules_src::XY).expect("program compiles");
    println!("compiled `{}`:", cfg.name);
    for rb in &cfg.cost.rulebases {
        println!("  rule base {:<12} {:>5} entries x {} bits", rb.name, rb.entries, rb.width_bits);
    }

    // 2. Load it into the router and build a 4x4 mesh network with the
    //    observability layer attached: a ring of recent trace events.
    let mesh = Mesh2D::new(4, 4);
    let router = RuleRouter::for_mesh(cfg, mesh.clone());
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(sink.clone())
        .build(&router)
        .expect("valid config");

    // 3. Drive uniform random traffic for 2000 cycles.
    net.set_measuring(true);
    net.add_measured_cycles(2_000);
    let mut traffic = TrafficSource::new(Pattern::Uniform, 0.15, 4, 1);
    for _ in 0..2_000 {
        for (src, dst, len) in traffic.tick(&mesh, net.faults()) {
            net.send(src, dst, len).unwrap();
        }
        net.step();
    }
    assert!(net.drain(50_000), "network drains");

    // 4. Report from the run's record.
    let s = &net.stats;
    println!("\nafter {} cycles on {}:", net.cycle(), mesh.name());
    println!("  delivered        {}", s.delivered_msgs);
    println!("  mean latency     {:.1} cycles", s.latency.mean());
    println!("  throughput       {:.4} flits/node/cycle", s.throughput());
    println!("  decision steps   {:.2} mean (rule interpretations)", s.decision_steps.mean());
    assert_eq!(s.delivered_msgs, s.injected_msgs);

    // 5. The same run, seen through the observability layer: the ring
    //    holds the most recent typed events.
    let events = sink.events();
    let decisions = events.iter().filter(|e| e.kind.tag() == "route_decision").count();
    println!(
        "\ntrace ring: {} events retained ({} dropped), {} routing decisions",
        events.len(),
        sink.dropped(),
        decisions
    );
    println!("\nEvery message was routed by the compiled rule tables. Swap the");
    println!("program (e.g. rules_src::WEST_FIRST) to change the network's");
    println!("behaviour without touching the router — the paper's flexibility claim.");
}

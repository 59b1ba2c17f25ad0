//! The control plane allocates only what its controllers return: a hook
//! call — its `RouterView`, the wake of the node's parked heads, the
//! (skipped) event drain, the enqueue of nothing, the staging of the
//! deliveries due — costs no allocation, and the detection layer costs
//! its reply vectors and payloads, nothing for views, tick outcomes or
//! trace events nobody collects.
//!
//! This file holds exactly one test (see `common/counting.rs`).

mod common;
#[path = "common/counting.rs"]
mod counting;

use ftr_sim::{DetectorConfig, Network, SimConfig, WithDetection};
use ftr_topo::Mesh2D;
use std::sync::Arc;

#[test]
fn hooks_cost_no_allocation_and_detection_only_its_messages() {
    // every node ticks every cycle; `Xy` keeps the default hooks, which
    // return `Vec::new()`
    let (_, mut net) = common::mesh_net(6, 1, SimConfig { tick_period: 1, ..Default::default() });
    common::stream_worms(&mut net);
    let allocations = counting::allocations_in(|| net.run(1_000));
    assert_eq!(net.in_flight(), 36, "every worm is still streaming");
    assert_eq!(allocations, 0, "allocations by 36 000 hook calls that return nothing");

    // heartbeats without a sink: a payload per message, a reply vector per
    // tick and node and one per ping answered — under two per message
    let mesh = Mesh2D::new(6, 6);
    let algo = WithDetection::new(common::Xy::new(mesh.clone()), DetectorConfig::default());
    let mut net = Network::builder(Arc::new(mesh)).tick_period(4).build(&algo).expect("valid");
    common::stream_worms(&mut net);
    let before = net.stats.control_msgs;
    let allocations = counting::allocations_in(|| net.run(1_000));
    let sent = net.stats.control_msgs - before;
    let (ticks, nodes, link_ends) = (250, 36, 120);
    assert_eq!(sent, ticks * 2 * link_ends, "a ping and a pong per link end and tick");
    assert_eq!(allocations, sent + ticks * (nodes + link_ends), "payloads + reply vectors");
}

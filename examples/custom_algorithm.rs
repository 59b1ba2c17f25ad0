//! Writing a new routing algorithm as a rule program at runtime — the
//! paper's flexibility claim end to end: "the description of a routing
//! algorithm is compact and intuitive allowing even non-experts to
//! understand and modify the network behavior."
//!
//! The program below is written inline, compiled by the rule compiler,
//! loaded into the router, and compared against plain XY on a network
//! with a fault: the custom algorithm (a north-last turn model) routes
//! around it, XY cannot.
//!
//! ```text
//! cargo run --example custom_algorithm
//! ```

use ftrouter::core::{configure, RuleRouter};
use ftrouter::prelude::*;
use ftrouter::topo::EAST;
use std::sync::Arc;

/// North-last turn model: adaptive among E/W/S first, north hops last.
/// Return codes: 0..3 = E/W/N/S, 15 deliver, 14 wait, 13 unroutable.
const NORTH_LAST: &str = "
CONSTANT dirs = 0 TO 3
CONSTANT maxc = 31

VARIABLE xpos IN 0 TO maxc
VARIABLE ypos IN 0 TO maxc

INPUT xdes IN 0 TO maxc
INPUT ydes IN 0 TO maxc
INPUT free[dirs] IN bool
INPUT linkok[dirs] IN bool
INPUT out_queue[dirs] IN 0 TO 255

ON route_msg() RETURNS 0 TO 15 NFT
  IF xpos = xdes AND ypos = ydes THEN RETURN(15);
  -- adaptive part: E / W / S while any is still needed
  IF xpos < xdes AND ydes < ypos AND free(0) AND free(3)
    THEN RETURN(argmin(out_queue, {0, 3}));
  IF xdes < xpos AND ydes < ypos AND free(1) AND free(3)
    THEN RETURN(argmin(out_queue, {1, 3}));
  IF xpos < xdes AND free(0) THEN RETURN(0);
  IF xdes < xpos AND free(1) THEN RETURN(1);
  IF ydes < ypos AND free(3) THEN RETURN(3);
  IF xpos < xdes AND linkok(0) THEN RETURN(14);
  IF xdes < xpos AND linkok(1) THEN RETURN(14);
  IF ydes < ypos AND linkok(3) THEN RETURN(14);
  -- only north remains: go north last
  IF ypos < ydes AND free(2) THEN RETURN(2);
  IF ypos < ydes AND linkok(2) THEN RETURN(14);
  IF TRUE THEN RETURN(13);
END route_msg;
";

fn run(name: &str, src: &str, mesh: &Mesh2D) -> (u64, u64) {
    let cfg = configure(name, src).expect("program compiles");
    println!(
        "{name}: {} table bits in {} rule base(s)",
        cfg.cost.total_table_bits(),
        cfg.cost.rulebases.len()
    );
    let router = RuleRouter::for_mesh(cfg, mesh.clone());
    let mut net = Network::builder(Arc::new(mesh.clone())).build(&router).expect("valid config");
    // fault on the x-first path from (0,2) to (3,1)
    net.inject_link_fault(mesh.node_at(1, 2), EAST);
    net.send(mesh.node_at(0, 2), mesh.node_at(3, 1), 4).unwrap();
    net.drain(5_000);
    (net.stats.delivered_msgs, net.stats.unroutable_msgs)
}

fn main() {
    let mesh = Mesh2D::new(6, 6);
    println!("same router hardware, two rule programs, one broken link:\n");

    let (d_xy, u_xy) = run("xy", ftrouter::algos::rules_src::XY, &mesh);
    println!("  -> xy:         delivered {d_xy}, unroutable {u_xy}\n");

    let (d_nl, u_nl) = run("north-last", NORTH_LAST, &mesh);
    println!("  -> north-last: delivered {d_nl}, unroutable {u_nl}\n");

    assert_eq!((d_xy, u_xy), (0, 1), "oblivious XY is stuck on the fault");
    assert_eq!((d_nl, u_nl), (1, 0), "the custom program detours south around it");
    println!("north-last detoured around the fault that stopped XY cold —");
    println!("no new silicon, just a different rule table.");
}

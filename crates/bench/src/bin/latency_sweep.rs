//! Experiment E7 — network latency vs offered load as routing-decision
//! time and fault tolerance vary.
//!
//! Reproduces the effect the paper builds on (\[DLO97\]: "The Impact of
//! Routing Decision Time on Network Latency") and the FT overhead in time:
//! NAFTA pays for fault tolerance with up to three interpretation steps,
//! the stripped variants decide in one.
//!
//! Series produced:
//!   1. NARA vs NAFTA on an 8x8 mesh, fault-free (overhead ≈ 0 at equal
//!      decision time — NAFTA decides in 1 step when no fault interferes);
//!   2. decision time 1 vs 3 cycles/step for NARA (latency shift);
//!   3. NAFTA with 0 / 4 / 8 link faults (graceful degradation);
//!   4. ROUTE_C vs stripped ROUTE_C on a 5-cube (the always-2-steps cost).
//!
//! Tables print to stdout; the same curves land in
//! `results/latency_sweep.json`.

use ftr_algos::{Nafta, Nara, RouteC};
use ftr_bench::{format_curve, harness, measure_load, results, LoadPoint};
use ftr_obs::json;
use ftr_sim::routing::RoutingAlgorithm;
use ftr_sim::{Pattern, SimConfig};
use ftr_topo::{FaultSet, Hypercube, Mesh2D, Topology};

const LOADS: &[f64] = &[0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35];
const WARMUP: u64 = 1_000;
const WINDOW: u64 = 3_000;

fn curve<T: Topology + Clone + Sync + 'static>(
    topo: &T,
    algo: &(dyn RoutingAlgorithm + Sync),
    faults: &FaultSet,
    cfg: SimConfig,
) -> Vec<LoadPoint> {
    let inputs: Vec<f64> = LOADS.to_vec();
    ftr_sim::run_sweep(inputs, ftr_sim::worker_count(), |&load| {
        measure_load(topo, algo, faults, Pattern::Uniform, load, 4, WARMUP, WINDOW, 42, cfg)
    })
}

fn main() {
    let mesh = Mesh2D::new(8, 8);
    let cfg = SimConfig::default();

    let nara = Nara::new(mesh.clone());
    let nafta = Nafta::new(mesh.clone());

    let mut series: Vec<(String, Vec<LoadPoint>)> = Vec::new();

    series.push(("NARA, 8x8 mesh, fault-free".into(), curve(&mesh, &nara, &FaultSet::new(), cfg)));
    series
        .push(("NAFTA, 8x8 mesh, fault-free".into(), curve(&mesh, &nafta, &FaultSet::new(), cfg)));

    let slow = SimConfig { decision_cycles_per_step: 3, ..cfg };
    series.push((
        "NARA, decision time 3 cycles/step ([DLO97] effect)".into(),
        curve(&mesh, &nara, &FaultSet::new(), slow),
    ));

    for n in [4usize, 8] {
        let mut faults = FaultSet::new();
        faults.inject_random_links(&mesh, n, true, 5);
        series.push((
            format!("NAFTA, 8x8 mesh, {n} link faults"),
            curve(&mesh, &nafta, &faults, cfg),
        ));
    }

    let cube = Hypercube::new(5);
    let rc = RouteC::new(cube.clone());
    let rc_nft = RouteC::stripped(cube.clone());
    series.push(("ROUTE_C, 5-cube, fault-free".into(), curve(&cube, &rc, &FaultSet::new(), cfg)));
    series.push((
        "stripped ROUTE_C (nft), 5-cube".into(),
        curve(&cube, &rc_nft, &FaultSet::new(), cfg),
    ));

    for (name, pts) in &series {
        println!("{}", format_curve(name, pts));
    }

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E7 latency vs offered load");
        root.field(
            "series",
            json::array(series.iter().map(|(name, pts)| {
                let mut o = json::Obj::new();
                o.str("name", name);
                o.field("points", json::array(pts.iter().map(results::load_point_json)));
                o.finish()
            })),
        );
        root.finish()
    };
    harness::export("latency_sweep", &payload);
}

//! Experiment E17 — engine-scaling baseline: active-set `Network::step`
//! vs the dense every-node reference scan.
//!
//! The simulator's step loop historically visited every node every cycle,
//! so wall-clock per cycle was O(network size) even when a single worm was
//! in flight. Active-set scheduling makes step cost track the number of
//! nodes with work. This harness pins the claim with numbers: it measures
//! simulated cycles per second for both paths on the paper's two standard
//! fabrics — a 6x6 NAFTA mesh and a ROUTE_C 4-cube — at a low load
//! (0.02 flits/node/cycle), a moderate load (0.2) and saturation (0.6).
//!
//! Methodology: injection schedules are pre-generated outside the timed
//! region (the Bernoulli source costs one RNG draw per node per cycle,
//! which would otherwise re-introduce exactly the O(nodes) term the
//! active set removes); each (fabric, load, mode) point runs one warmup
//! pass plus `reps` timed passes and reports the median. Both modes
//! replay the same schedule, so their final `SimStats` must be
//! bit-identical — the run doubles as a cheap correctness check.
//!
//! `step_perf [--smoke]` — smoke mode shrinks cycles/reps for CI and
//! skips the absolute speedup assertions (shared runners are too noisy
//! for hard thresholds; CI instead compares the exported ratios against
//! the committed baseline). Results go to `results/BENCH_step.json`.

use ftr_algos::{Nafta, RouteC};
use ftr_bench::harness;
use ftr_obs::json;
use ftr_sim::routing::RoutingAlgorithm;
use ftr_sim::{Network, Pattern, TrafficSource};
use ftr_topo::{Hypercube, Mesh2D, NodeId, Topology};
use std::sync::Arc;
use std::time::Instant;

const LOADS: [f64; 3] = [0.02, 0.2, 0.6];
const MSG_LEN: u32 = 8;
const SEED: u64 = 0x5eed;

/// One (load, mode) measurement: median simulated cycles per second.
struct Point {
    load: f64,
    dense_cps: f64,
    active_cps: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.active_cps / self.dense_cps
    }
}

type Schedule = Vec<Vec<(NodeId, NodeId, u32)>>;

/// Pre-draws the whole injection schedule for `cycles` cycles.
fn schedule<T: Topology + Clone + 'static>(topo: &T, load: f64, cycles: u64) -> Schedule {
    let faults = ftr_topo::FaultSet::new();
    let mut tf = TrafficSource::new(Pattern::Uniform, load, MSG_LEN, SEED);
    (0..cycles).map(|_| tf.tick(topo, &faults)).collect()
}

/// Replays `sched` once; returns (elapsed seconds, final stats).
fn replay<T: Topology + Clone + 'static>(
    topo: &T,
    algo: &dyn RoutingAlgorithm,
    sched: &Schedule,
    dense: bool,
) -> (f64, ftr_sim::SimStats) {
    let mut net = Network::builder(Arc::new(topo.clone())).build(algo).expect("valid config");
    net.set_dense_reference(dense);
    let t0 = Instant::now();
    for cycle in sched {
        for &(s, d, l) in cycle {
            net.send(s, d, l).expect("healthy fabric accepts");
        }
        net.step();
    }
    let secs = t0.elapsed().as_secs_f64();
    net.drain(200_000);
    (secs, net.stats)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn measure_fabric<T: Topology + Clone + 'static>(
    name: &str,
    topo: &T,
    algo: &dyn RoutingAlgorithm,
    cycles: u64,
    reps: usize,
) -> Vec<Point> {
    let mut points = Vec::new();
    for load in LOADS {
        let sched = schedule(topo, load, cycles);
        let mut cps = [Vec::new(), Vec::new()]; // [dense, active]
        let mut stats_pair = [None, None];
        replay(topo, algo, &sched, true); // warmup (untimed)
        replay(topo, algo, &sched, false);
        // interleave the modes rep by rep: clock-frequency drift and noisy
        // neighbours then hit both paths evenly instead of whichever mode
        // happens to run second
        for _ in 0..reps {
            for (slot, dense) in [(0usize, true), (1usize, false)] {
                let (secs, stats) = replay(topo, algo, &sched, dense);
                cps[slot].push(cycles as f64 / secs);
                stats_pair[slot] = Some(stats);
            }
        }
        // both modes replayed the same schedule: any stats divergence is
        // an active-set correctness bug, not a measurement artefact
        assert_eq!(
            stats_pair[0], stats_pair[1],
            "{name} load {load}: dense and active stats diverged"
        );
        let p =
            Point { load, dense_cps: median(cps[0].clone()), active_cps: median(cps[1].clone()) };
        println!(
            "{name:>18}  load {load:>5.2}  dense {:>12.0} c/s  active {:>12.0} c/s  speedup {:>5.2}x",
            p.dense_cps,
            p.active_cps,
            p.speedup()
        );
        points.push(p);
    }
    points
}

fn points_json(points: &[Point]) -> String {
    let objs: Vec<String> = points
        .iter()
        .map(|p| {
            let mut o = json::Obj::new();
            o.float("load", p.load)
                .float("dense_cycles_per_sec", p.dense_cps)
                .float("active_cycles_per_sec", p.active_cps)
                .float("speedup", p.speedup());
            o.finish()
        })
        .collect();
    json::array(&objs)
}

fn main() {
    let smoke = harness::Args::parse().smoke();
    let (cycles, reps) = if smoke { (4_000, 3) } else { (30_000, 5) };
    println!("# E17 step_perf: {cycles} cycles/rep, median of {reps} (smoke={smoke})");

    let mesh = Mesh2D::new(6, 6);
    let mesh_points =
        measure_fabric("mesh6x6_nafta", &mesh, &Nafta::new(mesh.clone()), cycles, reps);
    let cube = Hypercube::new(4);
    let cube_points =
        measure_fabric("hypercube4_route_c", &cube, &RouteC::new(cube.clone()), cycles, reps);

    let low = &mesh_points[0];
    let sat = &mesh_points[LOADS.len() - 1];
    println!(
        "# headline: low-load speedup {:.2}x, saturation ratio {:.3}",
        low.speedup(),
        sat.speedup()
    );
    if !smoke {
        // the active-set acceptance bar, asserted where the numbers are
        // stable (a dedicated run, not a shared CI runner). The bar is on
        // a *ratio*, so it moves whenever one arm gains more than the
        // other: 5x -> 4x when the sharded engine added a fixed per-cycle
        // cost to both arms (DESIGN.md §14), 4x -> 2.5x when the wiring
        // table and request-set arbitration (PR 16) made an empty node
        // almost free — the dense arm, which visits 36 of them, gained
        // 3.2x and the active arm 2.1x, so both are faster and the ratio
        // is 2.9-3.6x run to run (EXPERIMENTS.md E17). Saturation stays
        // at parity.
        assert!(low.speedup() >= 2.5, "low-load speedup {:.2}x misses the 2.5x bar", low.speedup());
        assert!(
            sat.speedup() >= 0.97,
            "saturation regression {:.1}% exceeds 3%",
            (1.0 - sat.speedup()) * 100.0
        );
    }

    let mut root = json::Obj::new();
    root.str("experiment", "E17")
        .str("binary", "step_perf")
        .bool("smoke", smoke)
        .num("cycles_per_rep", cycles as i64)
        .num("reps", reps as i64)
        .num("msg_len", MSG_LEN as i64)
        .float("low_load_speedup", low.speedup())
        .float("saturation_ratio", sat.speedup())
        .field("mesh6x6_nafta", points_json(&mesh_points))
        .field("hypercube4_route_c", points_json(&cube_points));
    harness::export("BENCH_step", &root.finish());
}

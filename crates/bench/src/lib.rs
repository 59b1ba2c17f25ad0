//! # ftr-bench — benchmark harness
//!
//! Regenerates every table and quantitative claim of the paper's
//! evaluation. Each experiment is a binary under `src/bin/` (see
//! `DESIGN.md` §3 for the experiment index).
//!
//! Shared helpers for the binaries live here.

use ftr_obs::FtbHeader;
use ftr_sim::routing::RoutingAlgorithm;
use ftr_sim::{Network, Pattern, SimConfig, TrafficSource};
use ftr_topo::Topology;
use std::sync::Arc;

pub mod fleetjob;
pub mod harness;
pub mod results;

/// One point of a latency/throughput curve.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered load (flits/node/cycle).
    pub offered: f64,
    /// Mean measured latency (cycles).
    pub latency: f64,
    /// Accepted throughput (flits/node/cycle).
    pub throughput: f64,
    /// Delivered / terminated ratio.
    pub delivery_ratio: f64,
    /// True if the deadlock watchdog fired.
    pub deadlock: bool,
}

/// Runs one open-loop measurement: warmup, measured window, drain.
#[allow(clippy::too_many_arguments)] // an experiment config, spelled out
pub fn measure_load<T: Topology + Clone + 'static>(
    topo: &T,
    algo: &dyn RoutingAlgorithm,
    faults: &ftr_topo::FaultSet,
    pattern: Pattern,
    offered: f64,
    msg_len: u32,
    warmup: u64,
    window: u64,
    seed: u64,
    cfg: SimConfig,
) -> LoadPoint {
    // with FTR_TRACE_DIR set every measured run leaves a capture behind,
    // replayable through `ftr-trace`; without it no sink is attached
    let capture = results::Capture::open(
        &format!("sweep_{}_l{offered:.3}_s{seed}", algo.name()),
        FtbHeader::new().with("seed", seed),
        Vec::new(),
    );
    let b = Network::builder(Arc::new(topo.clone())).config(cfg);
    let mut net = capture.attach(b).build(algo).expect("valid config");
    net.apply_fault_set(faults);
    net.settle_control(1_000_000).expect("control settles");
    let mut tf = TrafficSource::new(pattern, offered, msg_len, seed);

    for _ in 0..warmup {
        for (s, d, l) in tf.tick(topo, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    net.set_measuring(true);
    net.add_measured_cycles(window);
    for _ in 0..window {
        if net.stats.deadlock {
            break;
        }
        for (s, d, l) in tf.tick(topo, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
    }
    net.set_measuring(false);
    net.drain(20 * window);
    capture.finish();

    LoadPoint {
        offered,
        latency: net.stats.latency.mean(),
        throughput: net.stats.throughput(),
        delivery_ratio: net.stats.delivery_ratio(),
        deadlock: net.stats.deadlock,
    }
}

/// Formats a table of load points as aligned text.
pub fn format_curve(name: &str, points: &[LoadPoint]) -> String {
    let mut s = format!("# {name}\n# offered  latency  throughput  delivered  deadlock\n");
    for p in points {
        s.push_str(&format!(
            "{:8.3} {:8.1} {:11.4} {:10.3} {:>9}\n",
            p.offered,
            p.latency,
            p.throughput,
            p.delivery_ratio,
            if p.deadlock { "DEADLOCK" } else { "-" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_algos::XyRouting;
    use ftr_topo::{FaultSet, Mesh2D};

    #[test]
    fn measure_load_produces_sane_point() {
        let mesh = Mesh2D::new(4, 4);
        let algo = XyRouting::new(mesh.clone());
        let p = measure_load(
            &mesh,
            &algo,
            &FaultSet::new(),
            Pattern::Uniform,
            0.1,
            4,
            200,
            400,
            1,
            SimConfig::default(),
        );
        assert!(p.latency > 5.0 && p.latency < 100.0, "{p:?}");
        assert!(p.throughput > 0.05 && p.throughput <= 0.2, "{p:?}");
        assert!((p.delivery_ratio - 1.0).abs() < 1e-9);
        assert!(!p.deadlock);
    }

    #[test]
    fn format_curve_layout() {
        let pts = vec![LoadPoint {
            offered: 0.1,
            latency: 12.5,
            throughput: 0.099,
            delivery_ratio: 1.0,
            deadlock: false,
        }];
        let s = format_curve("test", &pts);
        assert!(s.contains("# test"));
        assert!(s.contains("0.100"));
    }
}

//! Experiment E15 — dynamic-fault campaigns: transient faults, repair,
//! and source retransmission.
//!
//! The paper's fault model (§2) allows faults to "occur at any time"; this
//! campaign exercises the full dynamic lifecycle the simulator now
//! supports: scripted transient link faults (fail, then repair after a
//! fixed delay) hit a 6x6 NAFTA mesh under live uniform traffic, with and
//! without a source-retransmission policy. Hundreds of (retry arm x fault
//! count x seed) runs are fanned over the thread pool; every run must keep
//! the message-accounting invariant and finish without a deadlock
//! verdict. The headline result: with retries the delivery ratio recovers
//! to ~1.0 at every fault rate, while the no-retry baseline visibly loses
//! the worms the transient faults rip.
//!
//! Campaign size, traffic load and fault counts are tunable from the
//! command line (`campaign [runs-per-cell] [load]`) so CI can run a small
//! smoke campaign while the full sweep stays the default. Aggregates go
//! to stdout and `results/campaign.json`.

use ftr_algos::Nafta;
use ftr_bench::campaign::{self, Spec, E15, E15_BASE, FAULT_COUNTS, SIDE};
use ftr_bench::harness;
use ftr_obs::json;
use ftr_sim::sweep::{run_sweep, worker_count};
use ftr_sim::SimStats;

#[derive(Clone, Copy)]
struct RunSpec {
    retry: bool,
    spec: Spec,
}

/// One run; a run that breaks the liveness check panics, and
/// `run_sweep` reports every panicking run.
fn run_one(r: &RunSpec) -> SimStats {
    let (shape, arm) = if r.retry { (&E15, "retry") } else { (&E15_BASE, "base") };
    let label = format!("campaign_{arm}_f{}_s{}", r.spec.faults, r.spec.seed);
    let run = campaign::run(shape, &r.spec, &label, &Nafta::new(campaign::mesh()), Vec::new());
    run.check();
    run.stats
}

struct Cell {
    retry: bool,
    faults: usize,
    runs: usize,
    injected: u64,
    delivery_ratio: f64,
    latency_mean: f64,
    killed: u64,
    unroutable: u64,
    retried: u64,
    abandoned: u64,
    worst_ratio: f64,
}

fn main() {
    let args = harness::Args::parse();
    let runs_per_cell: usize = args.pos(0, "runs-per-cell", 25);
    let load: f64 = args.pos(1, "load", 0.15);

    let mut specs = Vec::new();
    for &retry in &[false, true] {
        for faults in FAULT_COUNTS {
            for seed in 0..runs_per_cell as u64 {
                specs.push(RunSpec { retry, spec: Spec { seed: 1 + seed * 7919, faults, load } });
            }
        }
    }
    let total = specs.len();
    println!(
        "E15 dynamic-fault campaign: {SIDE}x{SIDE} NAFTA mesh, load {load}, \
         transient link faults repaired after {} cycles",
        E15.repair_after
    );
    let threads = worker_count();
    println!("{total} runs ({runs_per_cell} per cell) on {threads} threads\n");

    let outs = run_sweep(specs.clone(), threads, run_one);

    let mut cells: Vec<Cell> = Vec::new();
    for &retry in &[false, true] {
        for faults in FAULT_COUNTS {
            let sel: Vec<&SimStats> = specs
                .iter()
                .zip(&outs)
                .filter(|(r, _)| r.retry == retry && r.spec.faults == faults)
                .map(|(_, s)| s)
                .collect();
            let sum = |f: fn(&SimStats) -> u64| sel.iter().map(|s| f(s)).sum::<u64>();
            let delivered = sum(|s| s.delivered_msgs);
            let done = sum(SimStats::terminated);
            let lat_n = sel.iter().filter(|s| s.delivered_msgs > 0).count() as f64;
            cells.push(Cell {
                retry,
                faults,
                runs: sel.len(),
                injected: sum(|s| s.injected_msgs),
                delivery_ratio: if done == 0 { 0.0 } else { delivered as f64 / done as f64 },
                latency_mean: if lat_n == 0.0 {
                    0.0
                } else {
                    sel.iter().map(|s| s.latency.mean()).sum::<f64>() / lat_n
                },
                killed: sum(|s| s.killed_msgs),
                unroutable: sum(|s| s.unroutable_msgs),
                retried: sum(|s| s.retried_msgs),
                abandoned: sum(|s| s.abandoned_msgs),
                worst_ratio: sel.iter().map(|s| s.delivery_ratio()).fold(1.0, f64::min),
            });
        }
    }

    println!(
        "{:>6} {:>4} {:>10} {:>10} {:>8} {:>7} {:>8} {:>7} {:>10}",
        "retry", "|F|", "delivery", "worst", "killed", "unrte", "retried", "abdnd", "latency"
    );
    for c in &cells {
        println!(
            "{:>6} {:>4} {:>10.5} {:>10.5} {:>8} {:>7} {:>8} {:>7} {:>10.1}",
            if c.retry { "on" } else { "off" },
            c.faults,
            c.delivery_ratio,
            c.worst_ratio,
            c.killed,
            c.unroutable,
            c.retried,
            c.abandoned,
            c.latency_mean,
        );
    }

    // headline claims, enforced so CI catches regressions in the lifecycle
    for c in cells.iter().filter(|c| c.retry && c.faults > 0) {
        assert!(
            c.delivery_ratio >= 0.99,
            "retry arm must recover delivery >= 0.99 at |F|={} (got {})",
            c.faults,
            c.delivery_ratio
        );
    }
    let base_loss: u64 =
        cells.iter().filter(|c| !c.retry && c.faults > 0).map(|c| c.killed + c.unroutable).sum();
    if runs_per_cell >= 10 {
        assert!(base_loss > 0, "baseline must measurably lose messages to transient faults");
        let worst_base =
            cells.iter().filter(|c| !c.retry).map(|c| c.delivery_ratio).fold(1.0, f64::min);
        assert!(
            worst_base < 0.99,
            "no-retry baseline must measurably miss 0.99 at the highest fault rate (got {worst_base})"
        );
    }

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E15 dynamic-fault campaign");
        root.str("topology", &format!("mesh {SIDE}x{SIDE}"));
        root.str("algorithm", "nafta");
        root.float("load", load);
        root.num("repair_after", E15.repair_after);
        root.num("runs", total as u64);
        root.num("runs_per_cell", runs_per_cell as u64);
        root.field(
            "cells",
            json::array(cells.iter().map(|c| {
                let mut o = json::Obj::new();
                o.bool("retry", c.retry)
                    .num("faults", c.faults as u64)
                    .num("runs", c.runs as u64)
                    .num("injected", c.injected)
                    .float("delivery_ratio", c.delivery_ratio)
                    .float("worst_run_ratio", c.worst_ratio)
                    .num("killed", c.killed)
                    .num("unroutable", c.unroutable)
                    .num("retried", c.retried)
                    .num("abandoned", c.abandoned)
                    .float("latency_mean", c.latency_mean);
                o.finish()
            })),
        );
        root.finish()
    };

    let rejected: u64 = outs.iter().map(|s| s.rejected_sends).sum();
    println!("\nall {total} runs balanced, drained, deadlock-free ({rejected} rejected sends)");
    harness::export("campaign", &payload);
}

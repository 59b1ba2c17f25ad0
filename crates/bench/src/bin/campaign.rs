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
use ftr_bench::{harness, results};
use ftr_obs::{json, FtbHeader};
use ftr_sim::sweep::run_sweep;
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, TrafficSource};
use ftr_topo::Mesh2D;
use ftr_trace::DiagnoserSink;
use std::sync::Arc;

const SIDE: u32 = 6;
const REPAIR_AFTER: u64 = 200;
const FAULT_WINDOW: std::ops::Range<u64> = 200..1_400;
const WARM_CYCLES: u64 = 1_800;
const DRAIN_BUDGET: u64 = 60_000;
const MSG_LEN: u32 = 16;

#[derive(Clone, Copy)]
struct RunSpec {
    retry: bool,
    faults: usize,
    seed: u64,
    load: f64,
}

struct RunOut {
    injected: u64,
    delivered: u64,
    killed: u64,
    unroutable: u64,
    retried: u64,
    abandoned: u64,
    rejected: u64,
    latency_mean: f64,
    delivery_ratio: f64,
    deadlock: bool,
    drained: bool,
    balanced: bool,
    /// The online diagnoser's verdict: a fault-tolerant campaign run
    /// must never look deadlocked to the wait-for-graph scan either.
    diag_clean: bool,
}

fn run_one(spec: &RunSpec) -> RunOut {
    let mesh = Mesh2D::new(SIDE, SIDE);
    let plan = FaultPlan::random_transient_links(
        &mesh,
        spec.faults,
        FAULT_WINDOW,
        REPAIR_AFTER,
        spec.seed,
    );
    let mut b = Network::builder(Arc::new(mesh.clone())).fault_plan(plan);
    if spec.retry {
        b = b.retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 });
    }
    // every run carries the online deadlock diagnoser; with
    // FTR_TRACE_DIR set the same stream is also captured to disk
    let diag = Arc::new(DiagnoserSink::default());
    let label = format!(
        "campaign_{}_f{}_s{}",
        if spec.retry { "retry" } else { "base" },
        spec.faults,
        spec.seed
    );
    let header = FtbHeader::new()
        .with("geometry", format!("mesh{SIDE}x{SIDE}"))
        .with("seed", spec.seed)
        .with("faults", spec.faults);
    let capture = results::Capture::open(&label, header, vec![diag.clone()]);
    let mut net = capture.attach(b).build(&Nafta::new(mesh.clone())).expect("valid config");
    net.set_measuring(true);

    let mut tf = TrafficSource::new(Pattern::Uniform, spec.load, MSG_LEN, spec.seed ^ 0x5ca1e);
    // link faults never kill endpoints here, but a rejected send must be
    // counted, not fatal — harness::drive has exactly those semantics
    harness::drive(&mut net, &mut tf, WARM_CYCLES);
    let drained = net.drain(DRAIN_BUDGET);
    diag.scan_now();
    capture.finish();

    let s = &net.stats;
    RunOut {
        injected: s.injected_msgs,
        delivered: s.delivered_msgs,
        killed: s.killed_msgs,
        unroutable: s.unroutable_msgs,
        retried: s.retried_msgs,
        abandoned: s.abandoned_msgs,
        rejected: s.rejected_sends,
        latency_mean: s.latency.mean(),
        delivery_ratio: s.delivery_ratio(),
        deadlock: s.deadlock,
        drained,
        balanced: s.accounting_balanced(),
        diag_clean: diag.deadlock().is_none(),
    }
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

    let fault_counts = [0usize, 4, 8, 12, 16];
    let mut specs = Vec::new();
    for &retry in &[false, true] {
        for &faults in &fault_counts {
            for seed in 0..runs_per_cell as u64 {
                specs.push(RunSpec { retry, faults, seed: 1 + seed * 7919, load });
            }
        }
    }
    let total = specs.len();
    println!(
        "E15 dynamic-fault campaign: {SIDE}x{SIDE} NAFTA mesh, load {load}, \
         transient link faults repaired after {REPAIR_AFTER} cycles"
    );
    println!("{total} runs ({runs_per_cell} per cell) on {} threads\n", harness::threads());

    let outs = run_sweep(specs.clone(), harness::threads(), run_one);

    // hard invariants: every run, no exceptions
    let mut violations = 0usize;
    for (spec, out) in specs.iter().zip(&outs) {
        if !out.balanced || out.deadlock || !out.drained || !out.diag_clean {
            violations += 1;
            eprintln!(
                "INVARIANT VIOLATION: retry={} faults={} seed={} \
                 balanced={} deadlock={} drained={} diagnoser_clean={}",
                spec.retry,
                spec.faults,
                spec.seed,
                out.balanced,
                out.deadlock,
                out.drained,
                out.diag_clean
            );
        }
    }
    assert_eq!(
        violations, 0,
        "campaign runs must stay balanced, drained, and deadlock-free \
         (watchdog and online diagnoser)"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &retry in &[false, true] {
        for &faults in &fault_counts {
            let sel: Vec<&RunOut> = specs
                .iter()
                .zip(&outs)
                .filter(|(s, _)| s.retry == retry && s.faults == faults)
                .map(|(_, o)| o)
                .collect();
            let injected: u64 = sel.iter().map(|o| o.injected).sum();
            let delivered: u64 = sel.iter().map(|o| o.delivered).sum();
            let done: u64 = delivered
                + sel.iter().map(|o| o.killed).sum::<u64>()
                + sel.iter().map(|o| o.unroutable).sum::<u64>();
            let lat_n: f64 = sel.iter().filter(|o| o.delivered > 0).count() as f64;
            cells.push(Cell {
                retry,
                faults,
                runs: sel.len(),
                injected,
                delivery_ratio: if done == 0 { 0.0 } else { delivered as f64 / done as f64 },
                latency_mean: if lat_n == 0.0 {
                    0.0
                } else {
                    sel.iter().map(|o| o.latency_mean).sum::<f64>() / lat_n
                },
                killed: sel.iter().map(|o| o.killed).sum(),
                unroutable: sel.iter().map(|o| o.unroutable).sum(),
                retried: sel.iter().map(|o| o.retried).sum(),
                abandoned: sel.iter().map(|o| o.abandoned).sum(),
                worst_ratio: sel.iter().map(|o| o.delivery_ratio).fold(1.0, f64::min),
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
        root.num("repair_after", REPAIR_AFTER);
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

    let rejected: u64 = outs.iter().map(|o| o.rejected).sum();
    println!("\nall {total} runs balanced, drained, deadlock-free ({rejected} rejected sends)");
    harness::export("campaign", &payload);
}

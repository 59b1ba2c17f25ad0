//! Experiment E21 (fleet half) — resumable 10⁴-run fault campaigns.
//!
//! The statistical claims of E15 rest on hundreds of runs; this driver
//! scales the same dynamic-fault lifecycle (transient link faults on a
//! 6x6 NAFTA mesh, source retransmission on) to fleets of ten thousand
//! deterministic runs through [`ftr_sim::run_fleet`]. Every completed
//! run journals one line to a manifest, so an interrupted fleet — CI
//! timeout, preempted box — resumes where it stopped instead of
//! starting over; a rerun prints how many runs were resumed versus
//! executed. With `FTR_TRACE_DIR` set, each run also streams its full
//! event trace to a compact binary `.ftb` capture (self-describing
//! header carrying geometry/seed/label), cheap enough to keep for the
//! whole fleet and replayable through `ftr-trace`.
//!
//! Hard invariants, per run, attributed to the run's seed on failure:
//! message accounting balances, the network drains, neither the
//! watchdog nor the online diagnoser reports a deadlock, and the trace
//! capture loses no events (see [`ftr_bench::campaign`]).
//!
//! ```text
//! fleet [runs] [load] [manifest] [--smoke]
//! ```
//!
//! Aggregates go to stdout and `results/fleet.json`.

use ftr_bench::campaign::{specs, Fleet, FAULT_COUNTS, SIDE};
use ftr_bench::{harness, results};
use ftr_obs::json;
use ftr_sim::{run_fleet, worker_count};

fn main() {
    let args = harness::Args::parse();
    let runs: usize = args.pos(0, "runs", if args.smoke() { 120 } else { 10_000 });
    let load: f64 = args.pos(1, "load", 0.12);
    let manifest: String = args.pos(
        2,
        "manifest",
        results::results_dir().join("fleet.manifest").display().to_string(),
    );

    let fleet = specs(runs, load);

    println!(
        "E21 fleet: {runs} dynamic-fault runs on a {SIDE}x{SIDE} NAFTA mesh, \
         load {load}, retry on, manifest {manifest}"
    );
    let threads = worker_count();
    let start = std::time::Instant::now();
    let outcome = run_fleet(&Fleet, &fleet, std::path::Path::new(&manifest), threads)
        .expect("fleet manifest I/O");
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "fleet: resumed {} runs from the manifest, executed {} ({elapsed:.1}s on {threads} threads)",
        outcome.resumed, outcome.executed
    );

    // aggregate per fault count
    println!(
        "\n{:>4} {:>6} {:>10} {:>10} {:>8} {:>7} {:>8} {:>10}",
        "|F|", "runs", "delivery", "worst", "killed", "unrte", "retried", "latency"
    );
    let mut cells = Vec::new();
    for &faults in &FAULT_COUNTS {
        let sel: Vec<_> = fleet
            .iter()
            .zip(&outcome.outs)
            .filter(|(s, _)| s.faults == faults)
            .map(|(_, o)| o)
            .collect();
        let delivered: u64 = sel.iter().map(|o| o.delivered).sum();
        let killed: u64 = sel.iter().map(|o| o.killed).sum();
        let unroutable: u64 = sel.iter().map(|o| o.unroutable).sum();
        let retried: u64 = sel.iter().map(|o| o.retried).sum();
        let done = delivered + killed + unroutable;
        let ratio = if done == 0 { 0.0 } else { delivered as f64 / done as f64 };
        let worst = sel.iter().map(|o| o.delivery_ratio()).fold(1.0, f64::min);
        let lat_sum: u64 = sel.iter().map(|o| o.latency_sum).sum();
        let lat_count: u64 = sel.iter().map(|o| o.latency_count).sum();
        let latency = if lat_count == 0 { 0.0 } else { lat_sum as f64 / lat_count as f64 };
        println!(
            "{faults:>4} {:>6} {ratio:>10.5} {worst:>10.5} {killed:>8} {unroutable:>7} \
             {retried:>8} {latency:>10.1}",
            sel.len()
        );
        let mut o = json::Obj::new();
        o.num("faults", faults as u64)
            .num("runs", sel.len() as u64)
            .num("delivered", delivered)
            .num("killed", killed)
            .num("unroutable", unroutable)
            .num("retried", retried)
            .float("delivery_ratio", ratio)
            .float("worst_run_ratio", worst)
            .float("latency_mean", latency);
        cells.push(o.finish());

        // the retry policy must keep fleet-scale delivery essentially
        // lossless at every fault rate (mirrors E15's headline claim)
        assert!(ratio >= 0.99, "fleet delivery ratio at |F|={faults} fell to {ratio}");
    }

    let injected: u64 = outcome.outs.iter().map(|o| o.injected).sum();
    let rejected: u64 = outcome.outs.iter().map(|o| o.rejected).sum();
    let trace_events: u64 = outcome.outs.iter().map(|o| o.trace_events).sum();
    println!(
        "\nall {runs} runs balanced, drained, deadlock-free \
         ({injected} injected, {rejected} rejected sends, {trace_events} traced events)"
    );

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E21 resumable fault-campaign fleet");
        root.str("topology", &format!("mesh {SIDE}x{SIDE}"));
        root.str("algorithm", "nafta");
        root.num("runs", runs as u64);
        root.num("resumed", outcome.resumed as u64);
        root.num("executed", outcome.executed as u64);
        root.float("load", load);
        root.num("threads", threads as u64);
        root.float("elapsed_seconds", elapsed);
        root.num("injected", injected);
        root.num("rejected", rejected);
        root.num("trace_events", trace_events);
        root.bool("invariants_held", true);
        root.field("cells", json::array(cells));
        root.finish()
    };
    harness::export("fleet", &payload);
}

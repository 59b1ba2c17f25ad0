//! Experiment E16 — message-journey tracing and latency attribution.
//!
//! Runs one fully traced 6x6 NAFTA campaign-shaped simulation (transient
//! link faults, repair, source retransmission), folds the event stream
//! into per-message journeys with `ftr-trace`, and publishes the latency
//! attribution: how many cycles of end-to-end latency were spent in the
//! source queue, waiting out retry backoff, blocked on busy channels, and
//! in actual transit.
//!
//! The reconstruction is cross-validated against the engine inline — the
//! journey book's counts and tallies must equal `SimStats` *exactly*, and
//! the four attribution buckets must partition total latency with no
//! remainder. The online deadlock diagnoser rides along and must stay
//! silent; the report records its verdict either way.
//!
//! Usage: `attribution [seed] [load]` (defaults 977, 0.2). Output goes to
//! stdout and `results/attribution.json`; with `FTR_TRACE_DIR` set the
//! raw event stream is also kept as an FTB capture for `ftr-trace` replay.

use ftr_algos::Nafta;
use ftr_bench::campaign::{self, Spec, E16, SIDE};
use ftr_bench::harness;
use ftr_obs::{json, RingSink};
use ftr_trace::{JourneyBook, TraceReport};
use std::sync::Arc;

const FAULTS: usize = 10;

fn main() {
    let args = harness::Args::parse();
    let seed: u64 = args.pos(0, "seed", 977);
    let load: f64 = args.pos(1, "load", 0.2);

    println!(
        "E16 latency attribution: {SIDE}x{SIDE} NAFTA mesh, load {load}, seed {seed}, \
         {FAULTS} transient link faults repaired after {} cycles\n",
        E16.repair_after
    );

    // the run measures from the first injection, so the trace and the
    // stats see the same message population — the exactness check below
    // depends on it
    let ring = Arc::new(RingSink::new(1 << 22));
    let spec = Spec { seed, faults: FAULTS, load };
    let label = format!("attribution_s{seed}");
    let run = campaign::run(&E16, &spec, &label, &Nafta::new(campaign::mesh()), vec![ring.clone()]);
    run.check();
    assert_eq!(ring.dropped(), 0, "ring must hold the full trace");

    let mut book = JourneyBook::new();
    book.fold_all(&ring.events());

    // cross-validation: the reconstruction must agree with the engine
    // exactly, or the report below cannot be trusted
    let s = book.summary();
    let st = &run.stats;
    assert_eq!(book.orphans(), 0, "complete trace has no orphans");
    assert!(book.anomalies().is_empty(), "anomalies: {:?}", book.anomalies());
    assert_eq!(s.injected, st.injected_msgs, "injected");
    assert_eq!(s.delivered, st.delivered_msgs, "delivered");
    assert_eq!(s.killed, st.killed_msgs, "killed");
    assert_eq!(s.unroutable, st.unroutable_msgs, "unroutable");
    assert_eq!(s.retried, st.retried_msgs, "retried");
    assert_eq!(s.in_flight, 0, "drained run leaves nothing open");
    assert_eq!(
        (s.latency.count, s.latency.sum, s.latency.min, s.latency.max),
        (st.latency.count, st.latency.sum, st.latency.min, st.latency.max),
        "latency tally"
    );
    let a = &s.attribution;
    assert_eq!(a.total, st.latency.sum, "attributed cycles == total latency");
    assert_eq!(
        a.src_queue + a.retry_backoff + a.blocked + a.transit,
        a.total,
        "buckets partition the total"
    );

    let report = TraceReport::build(&book, Some(&run.diag), 8);
    print!("{}", report.human_summary());

    if a.total > 0 {
        let pct = |v: u64| 100.0 * v as f64 / a.total as f64;
        println!("\n{:>14} {:>12} {:>8}", "bucket", "cycles", "share");
        for (name, v) in [
            ("transit", a.transit),
            ("blocked", a.blocked),
            ("src_queue", a.src_queue),
            ("retry_backoff", a.retry_backoff),
        ] {
            println!("{name:>14} {v:>12} {:>7.2}%", pct(v));
        }
        println!("{:>14} {:>12} {:>8}", "total", a.total, "100%");
    }

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E16 latency attribution");
        root.str("topology", &format!("mesh {SIDE}x{SIDE}"));
        root.str("algorithm", "nafta");
        root.float("load", load);
        root.num("seed", seed);
        root.num("faults", FAULTS as u64);
        root.num("repair_after", E16.repair_after);
        root.bool("exact_match", true); // asserted above, recorded for CI
        root.field("report", report.to_json());
        root.finish()
    };
    println!("\nreconstruction matches engine stats exactly; diagnoser clean");
    harness::export("attribution", &payload);
}

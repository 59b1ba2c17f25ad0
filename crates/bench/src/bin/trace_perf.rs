//! Experiment E21 (codec half) — what an FTB capture costs.
//!
//! FTB is the one format traces are stored in; it earned that by being
//! ~11x smaller and ~19x faster to encode than the JSON-lines sink it
//! replaced (EXPERIMENTS.md E21 keeps those measurements). What is left
//! to watch is its absolute cost, so that fleet-scale campaigns can keep
//! affording every run's full event trace. This driver measures it on a
//! representative stream — one dynamic-fault campaign run's events
//! captured in memory — and exports `results/BENCH_trace.json`:
//!
//! - **Size**: bytes per event. Must stay at or under 16.
//! - **Encode throughput**: events/sec through `BinSink`, per-rep array
//!   (for the regression gate's median/MAD summary).
//! - **Decode throughput**: events/sec replaying the FTB bytes back
//!   into typed events.
//! - **Fleet wall-clock**: seconds to execute a small fleet of real
//!   campaign runs ([`ftr_bench::fleetjob`]) at 1 and `FTR_THREADS`
//!   workers, with the host's parallelism reported honestly — a 1-CPU
//!   box cannot show a parallel speedup and the JSON says so.
//!
//! ```text
//! trace_perf [--smoke]
//! ```

use ftr_bench::fleetjob::{self, Campaign};
use ftr_bench::{harness, regress};
use ftr_obs::ftb::{BinSink, FtbHeader, FtbReader};
use ftr_obs::{json, RingSink, TraceEvent, TraceSink};
use ftr_sim::{run_fleet, worker_count};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Captures one campaign run's full event stream in memory.
fn capture(cycles_scale: u64, load: f64) -> Vec<TraceEvent> {
    use ftr_algos::Nafta;
    use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, TrafficSource};
    use ftr_topo::Mesh2D;

    let mesh = Mesh2D::new(fleetjob::SIDE, fleetjob::SIDE);
    let plan = FaultPlan::random_transient_links(
        &mesh,
        8,
        fleetjob::FAULT_WINDOW,
        fleetjob::REPAIR_AFTER,
        1,
    );
    let ring = Arc::new(RingSink::new(8_000_000));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
        .trace(ring.clone())
        .build(&Nafta::new(mesh.clone()))
        .expect("valid config");
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, load, fleetjob::MSG_LEN, 0x5ca1e);
    harness::drive(&mut net, &mut tf, fleetjob::WARM_CYCLES * cycles_scale);
    assert!(net.drain(fleetjob::DRAIN_BUDGET), "capture run must drain");
    assert!(net.stats.accounting_balanced() && !net.stats.deadlock);
    assert_eq!(ring.dropped(), 0, "capture ring overflowed");
    ring.drain()
}

fn encode_ftb(events: &[TraceEvent]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let sink = BinSink::new(&mut bytes, FtbHeader::new().with("label", "trace_perf"))
        .expect("in-memory sink");
    for ev in events {
        sink.record(ev);
    }
    sink.finalize().expect("finalize");
    assert_eq!(sink.write_errors(), 0);
    drop(sink);
    bytes
}

/// Times `f` for `reps` repetitions; returns events/sec per rep.
fn throughput(reps: usize, events: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            events as f64 / t.elapsed().as_secs_f64()
        })
        .collect()
}

fn main() {
    let args = harness::Args::parse();
    let smoke = args.smoke();
    let (cycles_scale, load, reps, fleet_runs) =
        if smoke { (2, 0.2, 3, 20) } else { (8, 0.2, 5, 60) };

    println!("E21 trace codec: capturing a dynamic-fault campaign stream…");
    let events = capture(cycles_scale, load);
    let n = events.len();
    assert!(n > 1_000, "capture too small to measure ({n} events)");

    let ftb_buf = encode_ftb(&events);
    let bytes_per_event = ftb_buf.len() as f64 / n as f64;
    println!("{n} events: {} B ({bytes_per_event:.1} B/event)", ftb_buf.len());
    // deterministic, so asserted here as well as gated: a capture is
    // only worth keeping for every run while an event stays this small
    assert!(bytes_per_event <= 16.0, "FTB grew to {bytes_per_event:.1} B/event (bar 16)");

    let ftb_enc = throughput(reps, n, || {
        std::hint::black_box(encode_ftb(&events));
    });
    println!("encode: {:.0} events/s", regress::median(&ftb_enc).unwrap());

    let ftb_dec = throughput(reps, n, || {
        let r = FtbReader::from_reader(Cursor::new(&ftb_buf[..])).expect("header");
        let mut count = 0usize;
        for ev in r {
            std::hint::black_box(ev.expect("decode"));
            count += 1;
        }
        assert_eq!(count, n);
    });
    let decode_eps = regress::median(&ftb_dec).unwrap();
    println!("decode: {decode_eps:.0} events/s");

    // fleet wall-clock: real campaign runs at 1 and FTR_THREADS workers
    let host_parallelism =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as u64;
    let mut thread_counts = vec![1usize];
    if worker_count() > 1 {
        thread_counts.push(worker_count());
    }
    let specs = fleetjob::specs(fleet_runs, 0.12);
    let mut fleet_points = Vec::new();
    for &threads in &thread_counts {
        let manifest = std::env::temp_dir()
            .join(format!("ftr-trace-perf-{}-{threads}.manifest", std::process::id()));
        let _ = std::fs::remove_file(&manifest);
        let t = Instant::now();
        let outcome = run_fleet(&Campaign, &specs, &manifest, threads).expect("fleet I/O");
        let seconds = t.elapsed().as_secs_f64();
        assert_eq!(outcome.executed, fleet_runs, "fresh manifest must execute every run");
        let _ = std::fs::remove_file(&manifest);
        println!(
            "fleet: {fleet_runs} runs on {threads} thread(s): {seconds:.2}s \
             ({:.1} runs/s)",
            fleet_runs as f64 / seconds
        );
        let mut o = json::Obj::new();
        o.num("threads", threads as u64)
            .float("seconds", seconds)
            .float("runs_per_sec", fleet_runs as f64 / seconds);
        fleet_points.push(o.finish());
    }

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E21");
        root.str("binary", "trace_perf");
        root.bool("smoke", smoke);
        root.num("events", n as u64);
        root.num("ftb_bytes", ftb_buf.len() as u64);
        root.float("bytes_per_event_ftb", bytes_per_event);
        root.field("ftb_encode_events_per_sec", json::array(ftb_enc.iter().map(f64::to_string)));
        root.float("decode_events_per_sec", decode_eps);
        root.num("host_parallelism", host_parallelism);
        root.field("fleet", {
            let mut f = json::Obj::new();
            f.num("runs", fleet_runs as u64);
            f.field("points", json::array(fleet_points));
            f.finish()
        });
        root.finish()
    };
    harness::export("BENCH_trace", &payload);
}

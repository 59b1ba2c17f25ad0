//! Differential test: the FTB capture against the live event stream
//! over the full E15 campaign matrix.
//!
//! Every cell of the dynamic-fault campaign (retry off/on × each fault
//! count) runs once with a `TeeSink` feeding the *same* live stream to
//! a `RingSink` sized to hold all of it, a `BinSink` file and the
//! online diagnoser. The decoded capture must then equal the ring event
//! for event — not just in aggregate — and `EventReader` + `replay`
//! must fold it into the same `JourneyBook` as the in-memory events.
//! The diagnoser must stay silent on every cell (these runs are
//! deadlock-free by construction).

use ftr_algos::Nafta;
use ftr_obs::{BinSink, FtbHeader, RingSink, TeeSink, TraceEvent};
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, TrafficSource};
use ftr_topo::Mesh2D;
use ftr_trace::{DiagnoserSink, EventReader, JourneyBook};
use std::sync::Arc;

const SIDE: u32 = 6;
const REPAIR_AFTER: u64 = 200;
const FAULT_WINDOW: std::ops::Range<u64> = 200..1_400;
const WARM_CYCLES: u64 = 1_800;
const DRAIN_BUDGET: u64 = 60_000;
const LOAD: f64 = 0.15;
const MSG_LEN: u32 = 16;

/// Runs one E15 cell with the ring, the capture and the diagnoser
/// attached; returns the live events and the capture's path.
fn run_cell(retry: bool, faults: usize, seed: u64) -> (Vec<TraceEvent>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ftr-ftb-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tag = format!("{}_f{faults}_s{seed}", if retry { "retry" } else { "base" });
    let ftb_path = dir.join(format!("{tag}.ftb"));

    let mesh = Mesh2D::new(SIDE, SIDE);
    let plan = FaultPlan::random_transient_links(&mesh, faults, FAULT_WINDOW, REPAIR_AFTER, seed);
    let ring = Arc::new(RingSink::new(1 << 20));
    let ftb = Arc::new(
        BinSink::create(&ftb_path, FtbHeader::new().with("seed", seed).with("label", &tag))
            .unwrap(),
    );
    let diag = Arc::new(DiagnoserSink::default());
    let mut b = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .trace(Arc::new(TeeSink::new(vec![ring.clone(), ftb.clone(), diag.clone()])));
    if retry {
        b = b.retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 });
    }
    let mut net = b.build(&Nafta::new(mesh.clone())).expect("valid config");
    net.set_measuring(true);

    let mut tf = TrafficSource::new(Pattern::Uniform, LOAD, MSG_LEN, seed ^ 0x5ca1e);
    ftr_bench::harness::drive(&mut net, &mut tf, WARM_CYCLES);
    assert!(net.drain(DRAIN_BUDGET), "cell {tag} failed to drain");
    diag.scan_now();
    assert!(net.stats.accounting_balanced(), "cell {tag} out of balance");
    assert!(!net.stats.deadlock, "cell {tag}: watchdog deadlock");
    assert!(diag.deadlock().is_none(), "cell {tag}: diagnoser deadlock");

    ftb.finalize().unwrap();
    assert_eq!(ftb.write_errors(), 0);
    assert_eq!(ring.dropped(), 0, "cell {tag}: the ring must hold the whole run");
    let live = ring.events();
    assert_eq!(live.len() as u64, ftb.written(), "cell {tag}: sinks saw different event counts");
    (live, ftb_path)
}

// (the name predates the JSONL sink's retirement; the reference is the live stream)
#[test]
fn ftb_equals_jsonl_event_for_event_across_the_campaign_matrix() {
    let mut total_events = 0usize;
    for (cell, &(retry, faults)) in [false, true]
        .iter()
        .flat_map(|&r| [0usize, 4, 8, 12, 16].iter().map(move |&f| (r, f)))
        .collect::<Vec<_>>()
        .iter()
        .enumerate()
    {
        let seed = 1 + cell as u64 * 7919;
        let (live, ftb_path) = run_cell(retry, faults, seed);
        assert!(!live.is_empty(), "cell (retry={retry}, |F|={faults}) captured nothing");

        let reader = EventReader::open(&ftb_path).unwrap();
        assert_eq!(reader.header().seed(), Some(seed));
        let decoded: Vec<TraceEvent> = reader.map(|e| e.unwrap()).collect();
        assert_eq!(
            live.len(),
            decoded.len(),
            "cell (retry={retry}, |F|={faults}): event counts differ"
        );
        for (i, (x, y)) in live.iter().zip(&decoded).enumerate() {
            assert_eq!(x, y, "cell (retry={retry}, |F|={faults}): event {i} differs");
        }
        total_events += live.len();

        // replaying the capture folds to the same book as the live events
        let mut direct = JourneyBook::new();
        direct.fold_all(&live);
        let mut replayed = JourneyBook::new();
        let n =
            ftr_trace::replay(EventReader::open(&ftb_path).unwrap(), &mut replayed, None).unwrap();
        assert_eq!(n, live.len() as u64);
        assert_eq!(
            direct.summary(),
            replayed.summary(),
            "cell (retry={retry}, |F|={faults}): journey books diverge"
        );
    }
    assert!(total_events > 10_000, "matrix too small to be meaningful ({total_events} events)");
}

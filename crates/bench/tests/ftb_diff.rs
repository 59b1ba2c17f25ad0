//! Differential test: the FTB capture against the live event stream
//! over the full E15 campaign matrix.
//!
//! Every cell of the dynamic-fault campaign (retry off/on × each fault
//! count) runs once with a `TeeSink` feeding the *same* live stream to
//! a `RingSink` sized to hold all of it, a `BinSink` file and the
//! online diagnoser. The decoded capture must then equal the ring event
//! for event — not just in aggregate — and `EventReader` + `replay`
//! must fold it into the same `JourneyBook` as the in-memory events,
//! and the capture must stay at or under 16 bytes per event.
//! The diagnoser must stay silent on every cell (these runs are
//! deadlock-free by construction).

use ftr_algos::Nafta;
use ftr_bench::campaign::{self, Spec, E15, E15_BASE, FAULT_COUNTS};
use ftr_obs::{BinSink, FtbHeader, RingSink, TraceEvent};
use ftr_trace::{EventReader, JourneyBook};
use std::sync::Arc;

/// Runs one E15 cell with the ring and the capture attached next to the
/// diagnoser; returns the live events and the capture's path.
fn run_cell(retry: bool, faults: usize, seed: u64) -> (Vec<TraceEvent>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ftr-ftb-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tag = format!("{}_f{faults}_s{seed}", if retry { "retry" } else { "base" });
    let ftb_path = dir.join(format!("{tag}.ftb"));

    let ring = Arc::new(RingSink::new(1 << 20));
    let ftb = Arc::new(
        BinSink::create(&ftb_path, FtbHeader::new().with("seed", seed).with("label", &tag))
            .unwrap(),
    );
    let shape = if retry { &E15 } else { &E15_BASE };
    let spec = Spec { seed, faults, load: 0.15 };
    let sinks = vec![ring.clone() as _, ftb.clone() as _];
    campaign::run(shape, &spec, &tag, &Nafta::new(campaign::mesh()), sinks).check();

    ftb.finalize().unwrap();
    assert_eq!(ftb.write_errors(), 0);
    assert_eq!(ring.dropped(), 0, "cell {tag}: the ring must hold the whole run");
    let live = ring.events();
    assert_eq!(live.len() as u64, ftb.written(), "cell {tag}: sinks saw different event counts");
    // deterministic, so a bar: a capture is only worth keeping for every
    // run while an event stays this small
    let bytes = ftb.bytes_written();
    assert!(
        bytes <= 16 * ftb.written(),
        "cell {tag}: FTB grew to {:.1} B/event (bar 16)",
        bytes as f64 / ftb.written() as f64
    );
    (live, ftb_path)
}

#[test]
fn ftb_equals_the_live_stream_event_for_event_across_the_campaign_matrix() {
    let mut total_events = 0usize;
    for (cell, &(retry, faults)) in [false, true]
        .iter()
        .flat_map(|&r| FAULT_COUNTS.iter().map(move |&f| (r, f)))
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

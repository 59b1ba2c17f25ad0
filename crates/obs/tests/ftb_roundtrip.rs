//! FTB serialization property test: random event streams — every
//! `EventKind` variant, adversarial cycle stamps including maximal
//! deltas, empty traces — must survive `BinSink` → `FtbReader`
//! event-for-event.

use ftr_obs::ftb::{BinSink, FtbHeader, FtbReader};
use ftr_obs::{EventKind, RouteOutcome, TraceEvent, TraceSink};
use ftr_topo::{NodeId, PortId, VcId};
use proptest::prelude::*;

fn arb_outcome() -> impl Strategy<Value = RouteOutcome> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(p, v)| RouteOutcome::Routed(PortId(p), VcId(v))),
        Just(RouteOutcome::Wait),
        Just(RouteOutcome::Deliver),
        Just(RouteOutcome::Unroutable),
    ]
}

fn arb_kind() -> impl Strategy<Value = EventKind> {
    let node = || any::<u32>().prop_map(NodeId);
    let port = || any::<u8>().prop_map(PortId);
    let vc = || any::<u8>().prop_map(VcId);
    prop_oneof![
        (any::<u64>(), node(), node(), any::<u32>()).prop_map(|(msg, src, dst, len_flits)| {
            EventKind::Inject { msg, src, dst, len_flits }
        }),
        (
            node(),
            any::<u64>(),
            prop_oneof![Just(None), port().prop_map(Some)],
            vc(),
            arb_outcome(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(node, msg, in_port, in_vc, outcome, steps, misrouted)| {
                EventKind::RouteDecision { node, msg, in_port, in_vc, outcome, steps, misrouted }
            }),
        (node(), any::<u64>(), port(), vc()).prop_map(|(node, msg, port, vc)| EventKind::VcStall {
            node,
            msg,
            port,
            vc
        }),
        (node(), any::<u64>(), port(), vc())
            .prop_map(|(node, msg, port, vc)| EventKind::VcAcquire { node, msg, port, vc }),
        (node(), any::<u64>(), port(), vc())
            .prop_map(|(node, msg, port, vc)| EventKind::VcRelease { node, msg, port, vc }),
        (node(), any::<u64>(), proptest::collection::vec((port(), vc()), 0..6))
            .prop_map(|(node, msg, wants)| EventKind::RouteWait { node, msg, wants }),
        (node(), any::<u64>()).prop_map(|(node, msg)| EventKind::Deliver { node, msg }),
        any::<u64>().prop_map(|msg| EventKind::Kill { msg }),
        any::<u64>().prop_map(|msg| EventKind::Unroutable { msg }),
        (node(), port()).prop_map(|(node, port)| EventKind::LinkFault { node, port }),
        node().prop_map(|node| EventKind::NodeFault { node }),
        (node(), port()).prop_map(|(node, port)| EventKind::LinkRepair { node, port }),
        node().prop_map(|node| EventKind::NodeRepair { node }),
        (any::<u64>(), any::<u32>()).prop_map(|(msg, attempt)| EventKind::Retry { msg, attempt }),
        (node(), node()).prop_map(|(src, dst)| EventKind::SendRejected { src, dst }),
        (node(), node()).prop_map(|(from, to)| EventKind::ControlSend { from, to }),
        any::<u64>().prop_map(|cycles| EventKind::ControlSettled { cycles }),
        (node(), port(), any::<bool>()).prop_map(|(node, port, pong)| EventKind::Heartbeat {
            node,
            port,
            pong
        }),
        (node(), port(), any::<u32>()).prop_map(|(node, port, misses)| EventKind::Suspect {
            node,
            port,
            misses
        }),
        (node(), port()).prop_map(|(node, port)| EventKind::Alarm { node, port }),
        (node(), port()).prop_map(|(node, port)| EventKind::ControlDrop { node, port }),
    ]
}

/// Cycle stamps biased toward the delta-codec's edges: zero, maximal
/// u64, off-by-one neighbours, plus uniform draws. Consecutive events
/// may jump by nearly `u64::MAX` in either direction — the wrapping
/// zigzag delta must absorb all of it.
fn arb_cycle() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX / 2),
        any::<u64>(),
    ]
}

fn arb_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (arb_cycle(), arb_kind()).prop_map(|(cycle, kind)| TraceEvent { cycle, kind }),
        0..40,
    )
}

/// Writes `events` through a `BinSink`, finalizes, and decodes them
/// back with a streaming reader.
fn ftb_round_trip(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut bytes = Vec::new();
    {
        let header = FtbHeader::new().with("label", "prop").with("seed", 1u64);
        let sink = BinSink::new(&mut bytes, header).expect("vec sink");
        for e in events {
            sink.record(e);
        }
        sink.finalize().expect("finalize");
        assert_eq!(sink.written(), events.len() as u64);
        assert_eq!(sink.write_errors(), 0);
    }
    let mut reader = FtbReader::from_reader(&bytes[..]).expect("header parses");
    assert_eq!(reader.header().get("label"), Some("prop"));
    let back: Vec<TraceEvent> = (&mut reader).map(|r| r.expect("event decodes")).collect();
    assert!(reader.finalized(), "finalized stream must end cleanly");
    back
}

proptest! {
    #[test]
    fn random_streams_round_trip_through_ftb(events in arb_stream()) {
        let back = ftb_round_trip(&events);
        prop_assert_eq!(back, events);
    }
}

#[test]
fn empty_stream_round_trips() {
    assert_eq!(ftb_round_trip(&[]), Vec::<TraceEvent>::new());
}

#[test]
fn maximal_cycle_delta_round_trips() {
    let events = vec![
        TraceEvent { cycle: 0, kind: EventKind::Kill { msg: 0 } },
        TraceEvent { cycle: u64::MAX, kind: EventKind::Kill { msg: 1 } },
        TraceEvent { cycle: 0, kind: EventKind::Kill { msg: 2 } },
    ];
    assert_eq!(ftb_round_trip(&events), events);
}

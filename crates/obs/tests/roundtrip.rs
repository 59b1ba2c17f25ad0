//! Render contract: `TraceEvent::to_json()` is the one human-readable
//! form of an event (`ftr-trace --to-jsonl` prints it per decoded
//! event), so every `EventKind` variant must render as valid JSON that
//! carries its cycle, its tag and every one of its payload fields — a
//! variant that renders with a field missing would silently vanish from
//! every `grep`/`jq` over a capture.

use ftr_obs::json;
use ftr_obs::{EventKind, RouteOutcome, TraceEvent};
use ftr_topo::{NodeId, PortId, VcId};

/// One exemplar per variant, plus shape edge cases (null in_port, every
/// outcome, empty and multi-entry wants).
fn exemplars() -> Vec<EventKind> {
    let outcomes = [
        RouteOutcome::Routed(PortId(1), VcId(1)),
        RouteOutcome::Wait,
        RouteOutcome::Deliver,
        RouteOutcome::Unroutable,
    ];
    let mut kinds = vec![
        EventKind::Inject { msg: 7, src: NodeId(0), dst: NodeId(35), len_flits: 16 },
        EventKind::VcStall { node: NodeId(2), msg: 7, port: PortId(0), vc: VcId(0) },
        EventKind::VcAcquire { node: NodeId(2), msg: 7, port: PortId(3), vc: VcId(1) },
        EventKind::VcRelease { node: NodeId(2), msg: 7, port: PortId(3), vc: VcId(1) },
        EventKind::RouteWait { node: NodeId(2), msg: 7, wants: vec![] },
        EventKind::RouteWait {
            node: NodeId(8),
            msg: u64::MAX,
            wants: vec![(PortId(0), VcId(0)), (PortId(2), VcId(1)), (PortId(3), VcId(4))],
        },
        EventKind::Deliver { node: NodeId(35), msg: 7 },
        EventKind::Kill { msg: 7 },
        EventKind::Unroutable { msg: 7 },
        EventKind::LinkFault { node: NodeId(1), port: PortId(2) },
        EventKind::NodeFault { node: NodeId(1) },
        EventKind::LinkRepair { node: NodeId(1), port: PortId(2) },
        EventKind::NodeRepair { node: NodeId(1) },
        EventKind::Retry { msg: 7, attempt: 3 },
        EventKind::SendRejected { src: NodeId(3), dst: NodeId(4) },
        EventKind::ControlSend { from: NodeId(1), to: NodeId(2) },
        EventKind::ControlSettled { cycles: 9 },
        EventKind::Heartbeat { node: NodeId(1), port: PortId(2), pong: false },
        EventKind::Heartbeat { node: NodeId(2), port: PortId(0), pong: true },
        EventKind::Suspect { node: NodeId(1), port: PortId(2), misses: 3 },
        EventKind::Alarm { node: NodeId(1), port: PortId(2) },
        EventKind::ControlDrop { node: NodeId(4), port: PortId(1) },
    ];
    for (i, outcome) in outcomes.into_iter().enumerate() {
        kinds.push(EventKind::RouteDecision {
            node: NodeId(2),
            msg: 7,
            in_port: if i % 2 == 0 { Some(PortId(3)) } else { None },
            in_vc: VcId(i as u8),
            outcome,
            steps: i as u32,
            misrouted: i % 2 == 1,
        });
    }
    kinds
}

/// The payload field names of a variant, read off its `Debug` form
/// (`Kind { a: .., b: .. }`): identifiers followed by `:` at brace
/// depth 1. Derived, not listed, so a field added to a variant is
/// demanded of the rendering without touching this test.
fn field_names(kind: &EventKind) -> Vec<String> {
    let dbg = format!("{kind:?}");
    let mut names = Vec::new();
    let (mut depth, mut word) = (0i32, String::new());
    for c in dbg.chars() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ':' if depth == 1 && !word.is_empty() => names.push(std::mem::take(&mut word)),
            c if c.is_alphanumeric() || c == '_' => {
                word.push(c);
                continue;
            }
            _ => {}
        }
        word.clear();
    }
    names
}

#[test]
fn every_variant_round_trips_through_json() {
    let mut tags_seen = std::collections::BTreeSet::new();
    for kind in exemplars() {
        tags_seen.insert(kind.tag());
        let ev = TraceEvent { cycle: 123_456, kind };
        let line = ev.to_json();
        assert!(json::validate(&line).is_ok(), "invalid json: {line}");
        assert!(!line.contains('\n'), "one event is one line: {line}");
        let v = json::parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
        assert_eq!(v.get("cycle").and_then(|c| c.as_u64()), Some(123_456), "{line}");
        assert_eq!(v.get("event").and_then(|t| t.as_str()), Some(ev.kind.tag()), "{line}");
        let fields = field_names(&ev.kind);
        assert!(!fields.is_empty(), "no payload fields found in {:?}", ev.kind);
        for f in fields {
            assert!(v.get(&f).is_some(), "`{f}` of {:?} is missing from {line}", ev.kind);
        }
        // the one payload that is not a named field: a grant's channel
        if let EventKind::RouteDecision { outcome: RouteOutcome::Routed(p, vc), .. } = &ev.kind {
            assert_eq!(v.get("out_port").and_then(|x| x.as_u64()), Some(u64::from(p.0)), "{line}");
            assert_eq!(v.get("out_vc").and_then(|x| x.as_u64()), Some(u64::from(vc.0)), "{line}");
        }
    }
    // guard against a variant missing from the exemplar list: the enum
    // has 21 variants, each with its own tag
    assert_eq!(tags_seen.len(), 21, "exemplar list must cover every EventKind variant");
}

//! Machine-readable report and human summary over a folded trace.

use crate::diagnose::{DeadlockWitness, DiagnoserSink, Starvation};
use crate::journey::{BookSummary, ChannelKey, ChannelStats, JourneyBook};
use ftr_obs::json::{self, Obj};
use ftr_obs::Accum;
use std::fmt::Write as _;

/// Everything `ftr-trace` reports about one trace: aggregate journey
/// accounting, latency attribution, channel hot spots, and (when a
/// diagnoser ran) deadlock/starvation findings.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Events folded.
    pub events_total: u64,
    /// First and last cycle stamp, if the trace was non-empty.
    pub span: Option<(u64, u64)>,
    /// Events referencing messages never injected in this trace.
    pub orphans: u64,
    /// Structural inconsistencies found while folding.
    pub anomalies: Vec<String>,
    /// Fault-injection events (link + node).
    pub fault_events: u64,
    /// Repair events (link + node).
    pub repair_events: u64,
    /// Detection alarms (a detector declared a local fault).
    pub alarm_events: u64,
    /// Control-plane words dropped on unusable links.
    pub control_drops: u64,
    /// Journey aggregates.
    pub summary: BookSummary,
    /// Busiest channels, by busy cycles, descending.
    pub top_busy: Vec<(ChannelKey, ChannelStats)>,
    /// Most contended channels, by stalled message-cycles, descending.
    pub top_stalled: Vec<(ChannelKey, ChannelStats)>,
    /// Deadlock witness, when a diagnoser ran and found one.
    pub deadlock: Option<DeadlockWitness>,
    /// Starvation reports, when a diagnoser ran.
    pub starved: Vec<Starvation>,
    /// Events the producing sink failed to write (`write_errors()` of
    /// the `BinSink`), when the producer is known. `Some(n > 0)` brands
    /// the whole report: it was folded from an incomplete trace.
    pub trace_write_errors: Option<u64>,
    /// Why the reader stopped before the capture's END marker, when it
    /// did. `Some` brands the report like `trace_write_errors` does: it
    /// covers only the events before the cut (a crashed or wedged run's
    /// capture). `None` — JSON `null` — for a capture read to its END
    /// and for reports built in-process from a live stream.
    pub truncated: Option<String>,
}

impl TraceReport {
    /// Builds the report from a folded book and an optional diagnoser.
    /// `top` bounds both channel leaderboards.
    pub fn build(book: &JourneyBook, diag: Option<&DiagnoserSink>, top: usize) -> Self {
        let mut by_busy: Vec<(ChannelKey, ChannelStats)> = book.channels().collect();
        let mut by_stall = by_busy.clone();
        by_busy.sort_by(|a, b| b.1.busy_cycles.cmp(&a.1.busy_cycles).then(a.0.cmp(&b.0)));
        by_stall.sort_by(|a, b| b.1.stalled_cycles.cmp(&a.1.stalled_cycles).then(a.0.cmp(&b.0)));
        by_busy.truncate(top);
        by_stall.retain(|(_, s)| s.stalled_cycles > 0);
        by_stall.truncate(top);
        TraceReport {
            events_total: book.events_total(),
            span: book.span(),
            orphans: book.orphans(),
            anomalies: book.anomalies().to_vec(),
            fault_events: book.fault_events(),
            repair_events: book.repair_events(),
            alarm_events: book.alarm_events(),
            control_drops: book.control_drops(),
            summary: book.summary(),
            top_busy: by_busy,
            top_stalled: by_stall,
            deadlock: diag.and_then(DiagnoserSink::deadlock),
            starved: diag.map(|d| d.starved()).unwrap_or_default(),
            trace_write_errors: None,
            truncated: None,
        }
    }

    /// Records how many events the producing sink failed to write, for
    /// reports built in-process next to the sink that captured the
    /// trace (offline consumers cannot know and leave it `None`).
    pub fn with_write_errors(mut self, n: u64) -> Self {
        self.trace_write_errors = Some(n);
        self
    }

    /// Renders the report as one JSON object (validated against the
    /// strict in-tree grammar by construction; the CLI re-validates
    /// before writing).
    pub fn to_json(&self) -> String {
        let tally = |t: &Accum| {
            let mut o = Obj::new();
            o.num("count", t.count);
            o.num("sum", t.sum);
            o.num("min", t.min);
            o.num("max", t.max);
            o.float("mean", t.mean());
            o.finish()
        };
        let chan = |(k, s): &(ChannelKey, ChannelStats)| {
            let mut o = Obj::new();
            o.num("node", k.0);
            o.num("port", k.1);
            o.num("vc", k.2);
            o.num("busy_cycles", s.busy_cycles);
            o.num("acquires", s.acquires);
            o.num("stalled_cycles", s.stalled_cycles);
            o.finish()
        };
        let s = &self.summary;
        let mut o = Obj::new();
        o.num("events", self.events_total);
        match self.span {
            Some((a, b)) => {
                o.num("first_cycle", a);
                o.num("last_cycle", b);
            }
            None => {
                o.field("first_cycle", "null");
                o.field("last_cycle", "null");
            }
        }
        o.num("orphans", self.orphans);
        match self.trace_write_errors {
            Some(n) => o.num("trace_write_errors", n),
            None => o.field("trace_write_errors", "null"),
        };
        match &self.truncated {
            Some(why) => o.str("truncated", why),
            None => o.field("truncated", "null"),
        };
        o.field("anomalies", json::array(self.anomalies.iter().map(|a| json::string(a))));
        o.num("fault_events", self.fault_events);
        o.num("repair_events", self.repair_events);
        o.num("alarm_events", self.alarm_events);
        o.num("control_drops", self.control_drops);
        o.num("injected", s.injected);
        o.num("delivered", s.delivered);
        o.num("killed", s.killed);
        o.num("unroutable", s.unroutable);
        o.num("in_flight", s.in_flight);
        o.num("retried", s.retried);
        o.num("rejected_sends", s.rejected_sends);
        o.field("latency", tally(&s.latency));
        o.field("hops", tally(&s.hops));
        o.field("steps", tally(&s.steps));
        {
            let a = &s.attribution;
            let mut at = Obj::new();
            at.num("total", a.total);
            at.num("src_queue", a.src_queue);
            at.num("retry_backoff", a.retry_backoff);
            at.num("blocked", a.blocked);
            at.num("transit", a.transit);
            o.field("attribution", at.finish());
        }
        o.field("top_busy_channels", json::array(self.top_busy.iter().map(chan)));
        o.field("top_stalled_channels", json::array(self.top_stalled.iter().map(chan)));
        match &self.deadlock {
            Some(w) => {
                let mut d = Obj::new();
                d.num("cycle", w.cycle);
                d.num("knot_size", w.knot_size as u64);
                d.field(
                    "ring",
                    json::array(w.ring.iter().map(|e| {
                        let mut r = Obj::new();
                        r.num("msg", e.msg);
                        r.num("node", e.node);
                        r.num("port", e.port);
                        r.num("vc", e.vc);
                        r.num("holder", e.holder);
                        r.finish()
                    })),
                );
                o.field("deadlock", d.finish());
            }
            None => {
                o.field("deadlock", "null");
            }
        }
        o.field(
            "starved",
            json::array(self.starved.iter().map(|s| {
                let mut r = Obj::new();
                r.num("msg", s.msg);
                r.num("node", s.node);
                r.num("since", s.since);
                r.num("detected", s.detected);
                r.finish()
            })),
        );
        o.finish()
    }

    /// A short human-readable summary (what the CLI prints).
    pub fn human_summary(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        let _ = match self.span {
            Some((a, b)) => {
                writeln!(out, "trace: {} events over cycles {a}..{b}", self.events_total)
            }
            None => writeln!(out, "trace: empty"),
        };
        let _ = writeln!(
            out,
            "messages: {} injected, {} delivered, {} killed, {} unroutable, {} in flight, {} retries",
            s.injected, s.delivered, s.killed, s.unroutable, s.in_flight, s.retried
        );
        if self.fault_events + self.repair_events > 0 {
            let _ = writeln!(
                out,
                "faults: {} injected, {} repaired",
                self.fault_events, self.repair_events
            );
        }
        if self.alarm_events + self.control_drops > 0 {
            let _ = writeln!(
                out,
                "detection: {} alarms, {} control words dropped",
                self.alarm_events, self.control_drops
            );
        }
        if s.latency.count > 0 {
            let _ = writeln!(
                out,
                "latency: mean {:.1} cycles (min {}, max {}), hops mean {:.2}, steps/decision mean {:.2}",
                s.latency.mean(),
                s.latency.min,
                s.latency.max,
                s.hops.mean(),
                s.steps.mean()
            );
            let a = &s.attribution;
            if a.total > 0 {
                let pct = |v: u64| 100.0 * v as f64 / a.total as f64;
                let _ = writeln!(
                    out,
                    "attribution: transit {:.1}%, blocked {:.1}%, source queue {:.1}%, retry backoff {:.1}%",
                    pct(a.transit),
                    pct(a.blocked),
                    pct(a.src_queue),
                    pct(a.retry_backoff)
                );
            }
        }
        for (k, c) in self.top_stalled.iter().take(3) {
            let _ = writeln!(
                out,
                "hot channel: node {} port {} vc {} — {} stalled message-cycles, busy {} cycles",
                k.0, k.1, k.2, c.stalled_cycles, c.busy_cycles
            );
        }
        match &self.deadlock {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "DEADLOCK suspected at cycle {} (knot of {}):",
                    w.cycle, w.knot_size
                );
                for e in &w.ring {
                    let _ = writeln!(
                        out,
                        "  msg {} at node {} wants (port {}, vc {}) held by msg {}",
                        e.msg, e.node, e.port, e.vc, e.holder
                    );
                }
            }
            None => {
                let _ = writeln!(out, "deadlock: none suspected");
            }
        }
        if !self.starved.is_empty() {
            let _ = writeln!(out, "starved messages: {}", self.starved.len());
            for s in self.starved.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  msg {} at node {}: no progress since cycle {} (flagged at {})",
                    s.msg, s.node, s.since, s.detected
                );
            }
        }
        if self.orphans > 0 {
            let _ = writeln!(
                out,
                "warning: {} orphan events — the trace looks truncated",
                self.orphans
            );
        }
        if let Some(n) = self.trace_write_errors.filter(|&n| n > 0) {
            let _ = writeln!(
                out,
                "warning: the capturing sink dropped {n} events — this trace is incomplete"
            );
        }
        if let Some(why) = &self.truncated {
            let _ = writeln!(
                out,
                "warning: capture incomplete ({why}) — this summary covers the {} events before the cut",
                self.events_total
            );
        }
        if !self.anomalies.is_empty() {
            let _ = writeln!(
                out,
                "warning: {} structural anomalies (first: {})",
                self.anomalies.len(),
                self.anomalies[0]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_obs::{EventKind, TraceEvent};
    use ftr_topo::{NodeId, PortId, VcId};

    fn small_book() -> JourneyBook {
        let mut book = JourneyBook::new();
        let evs = [
            TraceEvent {
                cycle: 0,
                kind: EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(2), len_flits: 4 },
            },
            TraceEvent {
                cycle: 1,
                kind: EventKind::RouteDecision {
                    node: NodeId(0),
                    msg: 1,
                    in_port: None,
                    in_vc: VcId(0),
                    outcome: ftr_obs::RouteOutcome::Routed(PortId(0), VcId(0)),
                    steps: 2,
                    misrouted: false,
                },
            },
            TraceEvent {
                cycle: 1,
                kind: EventKind::VcAcquire {
                    node: NodeId(0),
                    msg: 1,
                    port: PortId(0),
                    vc: VcId(0),
                },
            },
            TraceEvent {
                cycle: 6,
                kind: EventKind::VcRelease {
                    node: NodeId(0),
                    msg: 1,
                    port: PortId(0),
                    vc: VcId(0),
                },
            },
            TraceEvent { cycle: 9, kind: EventKind::Deliver { node: NodeId(2), msg: 1 } },
        ];
        book.fold_all(&evs);
        book
    }

    #[test]
    fn report_json_is_valid_and_carries_the_counts() {
        let book = small_book();
        let rep = TraceReport::build(&book, None, 10);
        let j = rep.to_json();
        json::validate(&j).expect("report JSON must satisfy the strict grammar");
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("injected").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("delivered").and_then(|x| x.as_u64()), Some(1));
        assert!(v.get("deadlock").unwrap().is_null());
        let lat = v.get("latency").unwrap();
        assert_eq!(lat.get("sum").and_then(|x| x.as_u64()), Some(9));
        let at = v.get("attribution").unwrap();
        assert_eq!(at.get("total").and_then(|x| x.as_u64()), Some(9));
        assert_eq!(at.get("src_queue").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn write_errors_surface_in_json_and_summary() {
        let book = small_book();
        let clean = TraceReport::build(&book, None, 10);
        let v = json::parse(&clean.to_json()).unwrap();
        assert!(v.get("trace_write_errors").unwrap().is_null(), "unknown producer stays null");

        let dirty = TraceReport::build(&book, None, 10).with_write_errors(3);
        let v = json::parse(&dirty.to_json()).unwrap();
        assert_eq!(v.get("trace_write_errors").and_then(|x| x.as_u64()), Some(3));
        assert!(dirty.human_summary().contains("dropped 3 events"), "{}", dirty.human_summary());

        let whole = TraceReport::build(&book, None, 10).with_write_errors(0);
        assert!(!whole.human_summary().contains("incomplete"));
        assert!(v.get("truncated").unwrap().is_null(), "a capture read to END is not branded");

        let mut cut = TraceReport::build(&book, None, 10);
        cut.truncated = Some("missing END marker".into());
        let j = cut.to_json();
        json::validate(&j).expect("branded report stays valid JSON");
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("truncated").and_then(|x| x.as_str()), Some("missing END marker"));
        assert!(cut.human_summary().contains("capture incomplete (missing END marker)"));
    }

    #[test]
    fn human_summary_mentions_the_headline_numbers() {
        let book = small_book();
        let rep = TraceReport::build(&book, None, 10);
        let text = rep.human_summary();
        assert!(text.contains("1 injected"), "{text}");
        assert!(text.contains("1 delivered"), "{text}");
        assert!(text.contains("deadlock: none suspected"), "{text}");
    }
}

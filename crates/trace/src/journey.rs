//! Offline journey reconstruction: fold a cycle-ordered event stream into
//! per-message [`Journey`]s with exact latency attribution.
//!
//! The reconstruction mirrors the engine's accounting rules precisely —
//! the integration tests assert equality, not approximation, against
//! `SimStats` on deterministic runs:
//!
//! - a journey's latency is `deliver − inject` using the *original*
//!   injection cycle (retries do not reset the baseline, matching
//!   `MsgMeta::inject_cycle`);
//! - a journey's hop count is the number of `VcAcquire` events in its
//!   *final* attempt (each acquire is one switch traversal of the head,
//!   which is how `Header::hops` is counted);
//! - a `Kill`/`Unroutable` event not followed by a `Retry` is the final
//!   termination — this covers both attempts-exhausted rips and the
//!   retry queue's silent abandonment of messages whose endpoint died
//!   during backoff (the engine terminates those without a new event, so
//!   the *last* rip event already names the correct cause).

use ftr_obs::{EventKind, IdMap, TraceEvent};
use std::collections::hash_map::Entry;

/// Online count/sum/min/max accumulator (the trace-side mirror of the
/// simulator's `Accum`, kept dependency-free so `ftr-trace` does not pull
/// the engine in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Tally {
    /// Folds one sample in.
    pub fn add(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// How a journey ended (or that it has not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Tail ejected at `node` on `cycle`.
    Delivered {
        /// Destination node.
        node: u32,
        /// Delivery cycle.
        cycle: u64,
    },
    /// Final kill (ripped by a fault, no further retry).
    Killed {
        /// Cycle of the final rip.
        cycle: u64,
    },
    /// Final unroutable verdict (no further retry).
    Unroutable {
        /// Cycle of the final verdict.
        cycle: u64,
    },
    /// Still in the network (or waiting out a retry backoff) when the
    /// trace ended.
    InFlight,
}

/// The output channel a hop acquired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelUse {
    /// Acquisition cycle.
    pub cycle: u64,
    /// Output port.
    pub port: u8,
    /// Output virtual channel.
    pub vc: u8,
}

/// One routing decision point of one attempt: the head flit at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The deciding node.
    pub node: u32,
    /// Cycle the routing decision completed.
    pub decided_at: u64,
    /// Rule-interpretation steps the decision took.
    pub steps: u32,
    /// The decision put the message on a non-minimal path.
    pub misrouted: bool,
    /// Cycles the head spent blocked at this node (one `VcStall` or
    /// `RouteWait` event per blocked cycle).
    pub blocked_cycles: u64,
    /// The output channel eventually acquired (`None` at the destination,
    /// or if the attempt died blocked here).
    pub acquired: Option<ChannelUse>,
}

/// One injection attempt of a message (the original send, or a retry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Attempt number (1 = original injection; matches the `Retry`
    /// event's `attempt` field).
    pub number: u32,
    /// Cycle this attempt entered the source queue.
    pub start: u64,
    /// Cycle of this attempt's terminal event, once seen.
    pub end: Option<u64>,
    /// Decision points, in path order.
    pub hops: Vec<Hop>,
}

impl Attempt {
    fn new(number: u32, start: u64) -> Self {
        Attempt { number, start, end: None, hops: Vec::new() }
    }

    /// Cycle of the first routing decision, if any was made.
    pub fn first_decision(&self) -> Option<u64> {
        self.hops.first().map(|h| h.decided_at)
    }

    /// Switch traversals (acquired channels) in this attempt.
    pub fn acquires(&self) -> u64 {
        self.hops.iter().filter(|h| h.acquired.is_some()).count() as u64
    }
}

/// Where a delivered message's cycles went. The four buckets are
/// disjoint and sum to `total` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// End-to-end latency: delivery − original injection.
    pub total: u64,
    /// Source queueing: injection (or re-injection) until the first
    /// routing decision of each attempt.
    pub src_queue: u64,
    /// Retry backoff: rip of attempt *n* until re-injection of *n*+1.
    pub retry_backoff: u64,
    /// Blocked cycles: head stalled for a channel (`VcStall`) or held by
    /// the algorithm (`RouteWait`), over all attempts.
    pub blocked: u64,
    /// Everything else: flit movement, decision latency, streaming.
    pub transit: u64,
}

/// The reconstructed life of one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journey {
    /// Message id.
    pub msg: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Message length in flits.
    pub len_flits: u32,
    /// Original injection cycle (attempt 1).
    pub injected_at: u64,
    /// Final outcome.
    pub outcome: Outcome,
    /// Injection attempts, in order.
    pub attempts: Vec<Attempt>,
}

impl Journey {
    /// End-to-end latency in cycles, for delivered journeys.
    pub fn latency(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Delivered { cycle, .. } => Some(cycle - self.injected_at),
            _ => None,
        }
    }

    /// Hops of the delivering attempt (how the engine counts
    /// `SimStats::hops`); `None` unless delivered.
    pub fn hops(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Delivered { .. } => self.attempts.last().map(Attempt::acquires),
            _ => None,
        }
    }

    /// Number of re-injections this journey went through.
    pub fn retries(&self) -> u32 {
        (self.attempts.len() as u32).saturating_sub(1)
    }

    /// Total blocked cycles across all attempts.
    pub fn blocked_cycles(&self) -> u64 {
        self.attempts.iter().flat_map(|a| &a.hops).map(|h| h.blocked_cycles).sum()
    }

    /// Exact latency attribution, for delivered journeys.
    ///
    /// Each bucket covers a disjoint set of cycles within the journey's
    /// lifetime: source-queue windows are `[attempt.start,
    /// first_decision)` (for attempts that died undecided, the whole
    /// attempt), backoff windows are `[attempt.end, next.start)`, and
    /// blocked cycles are individual stall events (at most one per cycle
    /// per message, always at or after the attempt's first decision).
    /// `transit` is the exact remainder, so the buckets always sum to
    /// `total`.
    pub fn attribution(&self) -> Option<Attribution> {
        let total = self.latency()?;
        let mut src_queue = 0u64;
        let mut retry_backoff = 0u64;
        for (i, a) in self.attempts.iter().enumerate() {
            match a.first_decision() {
                Some(fd) => src_queue += fd - a.start,
                // died in the source queue before any decision
                None => src_queue += a.end.unwrap_or(a.start) - a.start,
            }
            if i > 0 {
                if let Some(prev_end) = self.attempts[i - 1].end {
                    retry_backoff += a.start - prev_end;
                }
            }
        }
        let blocked = self.blocked_cycles();
        let transit = total.saturating_sub(src_queue + retry_backoff + blocked);
        Some(Attribution { total, src_queue, retry_backoff, blocked, transit })
    }
}

/// Per-channel utilization and contention, keyed `(node, port, vc)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Cycles the channel was owned by some worm (acquire → release, or
    /// acquire → kill for ripped worms, which release without an event).
    pub busy_cycles: u64,
    /// Times the channel was allocated to a head flit.
    pub acquires: u64,
    /// Message-cycles spent blocked *wanting* this channel (from
    /// `VcStall` on the channel and `RouteWait` want-sets naming it).
    pub stalled_cycles: u64,
}

/// Channel identity: `(node, out_port, out_vc)`.
pub type ChannelKey = (u32, u8, u8);

/// A channel's statistics and, while a worm holds it, the holder.
#[derive(Debug, Default)]
struct ChannelLog {
    stats: ChannelStats,
    /// The owning message and the cycle it acquired the channel.
    open: Option<(u64, u64)>,
}

/// Aggregate view of a folded trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BookSummary {
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Final kills.
    pub killed: u64,
    /// Final unroutable verdicts.
    pub unroutable: u64,
    /// Journeys still open at end of trace.
    pub in_flight: u64,
    /// Re-injection events (attempt-level, matching
    /// `SimStats::retried_msgs`).
    pub retried: u64,
    /// Send rejections (endpoint faulty at send time).
    pub rejected_sends: u64,
    /// Latency of delivered messages.
    pub latency: Tally,
    /// Hops of delivered messages (final attempt).
    pub hops: Tally,
    /// Rule-interpretation steps over every routing decision.
    pub steps: Tally,
    /// Sum of per-journey attributions over delivered messages.
    pub attribution: Attribution,
}

/// Folds a cycle-ordered trace-event stream into journeys and channel
/// statistics. Feed events through [`JourneyBook::fold`] (or
/// [`JourneyBook::fold_all`]) in trace order, then read the results.
///
/// The indexes are hash maps, looked up a few times per event. Journeys
/// are kept in injection order behind their index; the channel map's
/// order is meaningless, so every output over it sorts (`TraceReport`).
#[derive(Debug, Default)]
pub struct JourneyBook {
    /// Journeys in injection order, and where each message's is.
    journeys: Vec<Journey>,
    by_msg: IdMap<u64, usize>,
    channels: IdMap<ChannelKey, ChannelLog>,
    /// Every channel each message acquired since it last terminated, for
    /// closing a killed worm's channels. Closing checks the owner, so a
    /// release leaves its entry here.
    acquired_by_msg: IdMap<u64, Vec<ChannelKey>>,
    retried: u64,
    rejected_sends: u64,
    orphans: u64,
    anomalies: Vec<String>,
    events_total: u64,
    first_cycle: Option<u64>,
    last_cycle: Option<u64>,
    fault_events: u64,
    repair_events: u64,
    alarm_events: u64,
    control_drops: u64,
}

impl JourneyBook {
    /// An empty book.
    pub fn new() -> Self {
        JourneyBook::default()
    }

    /// Folds one event. Events must arrive in trace (cycle) order.
    pub fn fold(&mut self, ev: &TraceEvent) {
        self.events_total += 1;
        if self.first_cycle.is_none() {
            self.first_cycle = Some(ev.cycle);
        }
        self.last_cycle = Some(ev.cycle);
        let cycle = ev.cycle;
        match &ev.kind {
            EventKind::Inject { msg, src, dst, len_flits } => {
                let j = Journey {
                    msg: *msg,
                    src: src.0,
                    dst: dst.0,
                    len_flits: *len_flits,
                    injected_at: cycle,
                    outcome: Outcome::InFlight,
                    attempts: vec![Attempt::new(1, cycle)],
                };
                match self.by_msg.entry(*msg) {
                    Entry::Occupied(at) => {
                        self.journeys[*at.get()] = j;
                        self.anomalies.push(format!("msg {msg}: double inject at cycle {cycle}"));
                    }
                    Entry::Vacant(at) => {
                        at.insert(self.journeys.len());
                        self.journeys.push(j);
                    }
                }
            }
            EventKind::Retry { msg, attempt } => {
                self.retried += 1;
                let Some(j) = self.journey_mut(*msg) else {
                    self.orphans += 1;
                    return;
                };
                j.outcome = Outcome::InFlight;
                j.attempts.push(Attempt::new(*attempt, cycle));
            }
            EventKind::RouteDecision { node, msg, steps, misrouted, .. } => {
                let Some(att) = self.attempt_mut(*msg) else { return };
                att.hops.push(Hop {
                    node: node.0,
                    decided_at: cycle,
                    steps: *steps,
                    misrouted: *misrouted,
                    blocked_cycles: 0,
                    acquired: None,
                });
            }
            EventKind::VcStall { node, msg, port, vc } => {
                self.blocked_cycle(*msg, node.0, cycle);
                self.channels.entry((node.0, port.0, vc.0)).or_default().stats.stalled_cycles += 1;
            }
            EventKind::RouteWait { node, msg, wants } => {
                self.blocked_cycle(*msg, node.0, cycle);
                for (p, v) in wants {
                    self.channels.entry((node.0, p.0, v.0)).or_default().stats.stalled_cycles += 1;
                }
            }
            EventKind::VcAcquire { node, msg, port, vc } => {
                let key = (node.0, port.0, vc.0);
                let Some(att) = self.attempt_mut(*msg) else { return };
                match att.hops.last_mut() {
                    Some(h) if h.node == node.0 => {
                        h.acquired = Some(ChannelUse { cycle, port: port.0, vc: vc.0 });
                    }
                    _ => self
                        .anomalies
                        .push(format!("msg {msg}: acquire at {} without decision", node.0)),
                }
                let ch = self.channels.entry(key).or_default();
                ch.stats.acquires += 1;
                if let Some((owner, since)) = ch.open.replace((*msg, cycle)) {
                    // lost release — close the stale interval here
                    ch.stats.busy_cycles += cycle - since;
                    self.anomalies
                        .push(format!("channel {key:?}: acquired by {msg} while owned by {owner}"));
                }
                self.acquired_by_msg.entry(*msg).or_default().push(key);
            }
            EventKind::VcRelease { node, msg, port, vc } => {
                let key = (node.0, port.0, vc.0);
                match self.channels.get_mut(&key) {
                    Some(ch) if ch.open.is_some_and(|(owner, _)| owner == *msg) => {
                        let (_, since) = ch.open.take().expect("checked");
                        ch.stats.busy_cycles += cycle - since;
                    }
                    _ => {
                        if self.by_msg.contains_key(msg) {
                            self.anomalies
                                .push(format!("msg {msg}: release of unowned channel {key:?}"));
                        } else {
                            self.orphans += 1;
                        }
                    }
                }
            }
            EventKind::Deliver { node, msg } => {
                self.close_channels(*msg, cycle);
                let Some(j) = self.journey_mut(*msg) else {
                    self.orphans += 1;
                    return;
                };
                j.outcome = Outcome::Delivered { node: node.0, cycle };
                if let Some(a) = j.attempts.last_mut() {
                    a.end = Some(cycle);
                }
            }
            EventKind::Kill { msg } => {
                // ripped worms release their channels without VcRelease
                self.close_channels(*msg, cycle);
                let Some(j) = self.journey_mut(*msg) else {
                    self.orphans += 1;
                    return;
                };
                j.outcome = Outcome::Killed { cycle };
                if let Some(a) = j.attempts.last_mut() {
                    a.end = Some(cycle);
                }
            }
            EventKind::Unroutable { msg } => {
                self.close_channels(*msg, cycle);
                let Some(j) = self.journey_mut(*msg) else {
                    self.orphans += 1;
                    return;
                };
                j.outcome = Outcome::Unroutable { cycle };
                if let Some(a) = j.attempts.last_mut() {
                    a.end = Some(cycle);
                }
            }
            EventKind::SendRejected { .. } => self.rejected_sends += 1,
            EventKind::LinkFault { .. } | EventKind::NodeFault { .. } => self.fault_events += 1,
            EventKind::LinkRepair { .. } | EventKind::NodeRepair { .. } => {
                self.repair_events += 1;
            }
            EventKind::ControlSend { .. }
            | EventKind::ControlSettled { .. }
            | EventKind::Heartbeat { .. }
            | EventKind::Suspect { .. } => {}
            EventKind::Alarm { .. } => self.alarm_events += 1,
            EventKind::ControlDrop { .. } => self.control_drops += 1,
        }
    }

    /// Folds a whole stream.
    pub fn fold_all<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.fold(ev);
        }
    }

    fn journey_mut(&mut self, msg: u64) -> Option<&mut Journey> {
        self.by_msg.get(&msg).map(|&at| &mut self.journeys[at])
    }

    fn attempt_mut(&mut self, msg: u64) -> Option<&mut Attempt> {
        let Some(&at) = self.by_msg.get(&msg) else {
            self.orphans += 1;
            return None;
        };
        self.journeys[at].attempts.last_mut()
    }

    /// Charges one blocked cycle to the message's current hop.
    fn blocked_cycle(&mut self, msg: u64, node: u32, cycle: u64) {
        let Some(att) = self.attempt_mut(msg) else { return };
        match att.hops.last_mut() {
            Some(h) if h.node == node => h.blocked_cycles += 1,
            _ => {
                // stall with no matching decision: keep the cycle charged
                // so attribution still balances
                att.hops.push(Hop {
                    node,
                    decided_at: cycle,
                    steps: 0,
                    misrouted: false,
                    blocked_cycles: 1,
                    acquired: None,
                });
                self.anomalies.push(format!("msg {msg}: stall at {node} without decision"));
            }
        }
    }

    /// Closes every channel interval a terminating message still owns.
    fn close_channels(&mut self, msg: u64, cycle: u64) {
        let Some(keys) = self.acquired_by_msg.remove(&msg) else { return };
        for key in keys {
            let Some(ch) = self.channels.get_mut(&key) else { continue };
            if let Some((owner, since)) = ch.open {
                if owner == msg {
                    ch.stats.busy_cycles += cycle - since;
                    ch.open = None;
                }
            }
        }
    }

    /// The reconstructed journeys, in injection order.
    pub fn journeys(&self) -> impl Iterator<Item = &Journey> {
        self.journeys.iter()
    }

    /// Per-channel utilization/contention statistics, in no particular
    /// order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelKey, ChannelStats)> + '_ {
        self.channels.iter().map(|(k, ch)| (*k, ch.stats))
    }

    /// Events whose message id was never injected in this trace (nonzero
    /// means the trace is truncated, e.g. a ring overflowed).
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    /// Structural inconsistencies found while folding. Empty for any
    /// complete trace; entries mean the stream violated engine
    /// invariants and the report is best-effort.
    pub fn anomalies(&self) -> &[String] {
        &self.anomalies
    }

    /// Total events folded.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// First and last cycle stamp seen, if any events were folded.
    pub fn span(&self) -> Option<(u64, u64)> {
        Some((self.first_cycle?, self.last_cycle?))
    }

    /// Fault-injection events seen (link + node).
    pub fn fault_events(&self) -> u64 {
        self.fault_events
    }

    /// Repair events seen (link + node).
    pub fn repair_events(&self) -> u64 {
        self.repair_events
    }

    /// Detection alarms seen (a detector declared a local fault).
    pub fn alarm_events(&self) -> u64 {
        self.alarm_events
    }

    /// Control-plane messages dropped on unusable links.
    pub fn control_drops(&self) -> u64 {
        self.control_drops
    }

    /// Aggregates every journey into one [`BookSummary`].
    pub fn summary(&self) -> BookSummary {
        let mut s = BookSummary {
            injected: self.journeys.len() as u64,
            retried: self.retried,
            rejected_sends: self.rejected_sends,
            ..BookSummary::default()
        };
        for j in &self.journeys {
            for a in &j.attempts {
                for h in &a.hops {
                    s.steps.add(h.steps as u64);
                }
            }
            match j.outcome {
                Outcome::Delivered { .. } => {
                    s.delivered += 1;
                    s.latency.add(j.latency().expect("delivered"));
                    s.hops.add(j.hops().expect("delivered"));
                    let at = j.attribution().expect("delivered");
                    s.attribution.total += at.total;
                    s.attribution.src_queue += at.src_queue;
                    s.attribution.retry_backoff += at.retry_backoff;
                    s.attribution.blocked += at.blocked;
                    s.attribution.transit += at.transit;
                }
                Outcome::Killed { .. } => s.killed += 1,
                Outcome::Unroutable { .. } => s.unroutable += 1,
                Outcome::InFlight => s.in_flight += 1,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_topo::{NodeId, PortId, VcId};

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    /// Detection-layer events fold into dedicated counters without
    /// touching message accounting or raising anomalies.
    #[test]
    fn detection_events_fold_into_counters() {
        let mut book = JourneyBook::new();
        let n = NodeId(3);
        let p = PortId(1);
        book.fold_all(&[
            ev(8, EventKind::Heartbeat { node: n, port: p, pong: false }),
            ev(10, EventKind::Heartbeat { node: n, port: p, pong: true }),
            ev(16, EventKind::Suspect { node: n, port: p, misses: 1 }),
            ev(24, EventKind::Suspect { node: n, port: p, misses: 2 }),
            ev(24, EventKind::ControlDrop { node: n, port: p }),
            ev(32, EventKind::Alarm { node: n, port: p }),
        ]);
        assert_eq!(book.alarm_events(), 1);
        assert_eq!(book.control_drops(), 1);
        assert_eq!(book.orphans(), 0, "protocol events reference no message");
        assert!(book.anomalies().is_empty(), "{:?}", book.anomalies());
        let s = book.summary();
        assert_eq!((s.injected, s.delivered, s.in_flight), (0, 0, 0));
    }

    /// Hand-built trace: inject at 0, decide at 2 (src queue 2), wait 3
    /// cycles, acquire, decide downstream, deliver at 20.
    #[test]
    fn single_journey_attribution_balances() {
        let mut book = JourneyBook::new();
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let p = PortId(0);
        let v = VcId(0);
        let decide = |node, outcome| EventKind::RouteDecision {
            node,
            msg: 9,
            in_port: None,
            in_vc: v,
            outcome,
            steps: 3,
            misrouted: false,
        };
        book.fold_all(&[
            ev(0, EventKind::Inject { msg: 9, src: n0, dst: n1, len_flits: 4 }),
            ev(2, decide(n0, ftr_obs::RouteOutcome::Wait)),
            ev(2, EventKind::RouteWait { node: n0, msg: 9, wants: vec![(p, v)] }),
            ev(3, EventKind::RouteWait { node: n0, msg: 9, wants: vec![(p, v)] }),
            ev(4, EventKind::VcStall { node: n0, msg: 9, port: p, vc: v }),
            ev(5, EventKind::VcAcquire { node: n0, msg: 9, port: p, vc: v }),
            ev(8, decide(n1, ftr_obs::RouteOutcome::Deliver)),
            ev(12, EventKind::VcRelease { node: n0, msg: 9, port: p, vc: v }),
            ev(20, EventKind::Deliver { node: n1, msg: 9 }),
        ]);
        assert_eq!(book.orphans(), 0);
        assert!(book.anomalies().is_empty(), "{:?}", book.anomalies());

        let j = &book.journeys[book.by_msg[&9]];
        assert_eq!(j.latency(), Some(20));
        assert_eq!(j.hops(), Some(1));
        assert_eq!(j.retries(), 0);
        let at = j.attribution().unwrap();
        assert_eq!(at.total, 20);
        assert_eq!(at.src_queue, 2);
        assert_eq!(at.blocked, 3);
        assert_eq!(at.retry_backoff, 0);
        assert_eq!(at.transit, 15);
        assert_eq!(at.src_queue + at.blocked + at.retry_backoff + at.transit, at.total);

        let ch = book.channels[&(0, 0, 0)].stats;
        assert_eq!(ch.acquires, 1);
        assert_eq!(ch.busy_cycles, 7); // 5 → 12
        assert_eq!(ch.stalled_cycles, 3);

        let s = book.summary();
        assert_eq!((s.injected, s.delivered, s.in_flight), (1, 1, 0));
        assert_eq!(s.steps.count, 2);
        assert_eq!(s.steps.sum, 6);
    }

    /// Kill → retry → deliver: backoff window attributed, final outcome
    /// delivered, hops counted from the final attempt only.
    #[test]
    fn retried_journey_tracks_attempts_and_backoff() {
        let mut book = JourneyBook::new();
        let n0 = NodeId(0);
        let p = PortId(1);
        let v = VcId(0);
        let d = |cycle, node| {
            ev(
                cycle,
                EventKind::RouteDecision {
                    node,
                    msg: 4,
                    in_port: None,
                    in_vc: v,
                    outcome: ftr_obs::RouteOutcome::Routed(p, v),
                    steps: 1,
                    misrouted: false,
                },
            )
        };
        book.fold_all(&[
            ev(0, EventKind::Inject { msg: 4, src: n0, dst: NodeId(2), len_flits: 4 }),
            d(1, n0),
            ev(1, EventKind::VcAcquire { node: n0, msg: 4, port: p, vc: v }),
            ev(6, EventKind::Kill { msg: 4 }), // rip: channel closed with no release
            ev(38, EventKind::Retry { msg: 4, attempt: 2 }),
            d(40, n0),
            ev(40, EventKind::VcAcquire { node: n0, msg: 4, port: p, vc: v }),
            d(43, NodeId(1)),
            ev(44, EventKind::VcRelease { node: n0, msg: 4, port: p, vc: v }),
            ev(50, EventKind::Deliver { node: NodeId(2), msg: 4 }),
        ]);
        let j = &book.journeys[book.by_msg[&4]];
        assert_eq!(j.attempts.len(), 2);
        assert_eq!(j.retries(), 1);
        assert_eq!(j.outcome, Outcome::Delivered { node: 2, cycle: 50 });
        assert_eq!(j.latency(), Some(50)); // original inject baseline
        assert_eq!(j.hops(), Some(1)); // final attempt only
        let at = j.attribution().unwrap();
        assert_eq!(at.retry_backoff, 32); // kill@6 → retry@38
        assert_eq!(at.src_queue, 1 + 2); // 0→1, 38→40
        assert_eq!(at.src_queue + at.blocked + at.retry_backoff + at.transit, at.total);
        // both attempts' acquires hit the channel; the kill closed 1→6
        let ch = book.channels[&(0, 1, 0)].stats;
        assert_eq!(ch.acquires, 2);
        assert_eq!(ch.busy_cycles, (6 - 1) + (44 - 40));
        let s = book.summary();
        assert_eq!((s.delivered, s.killed, s.retried), (1, 0, 1));
    }

    /// A kill with no subsequent retry is the final outcome — including
    /// the engine's silent-abandonment path, which terminates without a
    /// new event.
    #[test]
    fn final_kill_without_retry_is_terminal() {
        let mut book = JourneyBook::new();
        book.fold_all(&[
            ev(0, EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(3), len_flits: 4 }),
            ev(5, EventKind::Kill { msg: 1 }),
            ev(0, EventKind::Inject { msg: 2, src: NodeId(0), dst: NodeId(3), len_flits: 4 }),
            ev(6, EventKind::Unroutable { msg: 2 }),
        ]);
        let s = book.summary();
        assert_eq!((s.killed, s.unroutable, s.delivered, s.in_flight), (1, 1, 0, 0));
    }

    #[test]
    fn orphan_events_are_counted_not_fatal() {
        let mut book = JourneyBook::new();
        book.fold(&ev(3, EventKind::Deliver { node: NodeId(1), msg: 77 }));
        book.fold(&ev(
            4,
            EventKind::VcStall { node: NodeId(1), msg: 77, port: PortId(0), vc: VcId(0) },
        ));
        assert_eq!(book.orphans(), 2);
        assert_eq!(book.summary().injected, 0);
    }
}

//! Online stall/deadlock diagnosis over the live event stream.
//!
//! [`DiagnoserSink`] implements `TraceSink`, so it attaches to a running
//! network exactly like any other sink (compose with `TeeSink` to keep
//! an FTB capture at the same time) and needs nothing from the engine's
//! internals. From the event stream it maintains:
//!
//! - a **channel-owner map** — `VcAcquire` names the worm holding each
//!   output virtual channel (`VcRelease` is deliberately *not* treated as
//!   a transfer of ownership: a released channel may still be draining
//!   the releaser's flits downstream, so ownership only changes on the
//!   next acquire or when the owner terminates);
//! - a **want map** — `VcStall` (granted channel unavailable) and
//!   `RouteWait` (algorithm withheld a grant; `wants` lists every channel
//!   it would accept) give, per blocked head, the exact set of channels
//!   that would unblock it.
//!
//! Together these form the classic wait-for graph. Every `scan_period`
//! cycles the diagnoser prunes it to its knot: messages that have been
//! blocked at least `min_blocked` cycles, are *still* blocked (stalled
//! within `stale_window` of now), want at least one channel, and whose
//! every wanted channel is owned by another member of the set. A
//! non-empty fixpoint necessarily contains a cycle, which is extracted
//! and reported as a [`DeadlockWitness`] naming the ring of messages,
//! the node/channel each is parked at, and the holder it waits on. On a
//! wait-for graph that is a DAG (any deadlock-free configuration) the
//! fixpoint is empty, so the diagnoser cannot produce false positives
//! from topology — only from a violated trace contract.
//!
//! Starvation is orthogonal: a message that has made no progress (no
//! decision, no channel acquire) for `starvation_window` cycles is
//! reported once, whether or not it participates in a knot.

use ftr_obs::{EventKind, TraceEvent, TraceSink};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// Channel identity `(node, out_port, out_vc)` — same key as the
/// journey book's channel table.
pub type ChannelKey = (u32, u8, u8);

/// Tuning knobs for the online diagnoser.
#[derive(Clone, Copy, Debug)]
pub struct DiagnoserConfig {
    /// Cycles between wait-for-graph scans.
    pub scan_period: u64,
    /// A blocked message is *current* if it stalled within this many
    /// cycles of the scan (stall events fire once per blocked cycle, so
    /// a small window suffices; it only needs to absorb event-ordering
    /// slack within a cycle).
    pub stale_window: u64,
    /// Minimum consecutive blocked cycles before a message can join a
    /// deadlock candidate set — transient congestion must not qualify.
    pub min_blocked: u64,
    /// Cycles without progress before a message is reported starved
    /// (0 disables starvation reporting).
    pub starvation_window: u64,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            scan_period: 64,
            stale_window: 8,
            min_blocked: 128,
            starvation_window: 4_096,
        }
    }
}

/// One edge of a deadlock ring: `msg`, parked at `node`, wants channel
/// `(node, port, vc)`, which is held by `holder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked message.
    pub msg: u64,
    /// Node its head is parked at.
    pub node: u32,
    /// Wanted output port.
    pub port: u8,
    /// Wanted output virtual channel.
    pub vc: u8,
    /// Message currently owning that channel.
    pub holder: u64,
}

/// A closed cycle in the wait-for graph: `ring[i].holder ==
/// ring[(i+1) % len].msg` for every `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockWitness {
    /// Cycle the scan detected the knot.
    pub cycle: u64,
    /// Size of the whole knot (the ring below may be a subset).
    pub knot_size: usize,
    /// The witness ring, in wait-for order.
    pub ring: Vec<WaitEdge>,
}

/// A message that stopped making progress without (necessarily) being
/// part of a deadlock knot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Starvation {
    /// The starved message.
    pub msg: u64,
    /// Node it was last seen blocked at (its source if never blocked).
    pub node: u32,
    /// Cycle of its last observed progress.
    pub since: u64,
    /// Cycle the scan flagged it.
    pub detected: u64,
}

/// Per-message live state.
#[derive(Debug)]
struct MsgState {
    /// Last cycle with a decision or channel acquire (injection counts).
    last_progress: u64,
    /// Start of the current uninterrupted blocked streak.
    blocked_since: Option<u64>,
    /// Most recent stall: (cycle, node, wanted channels).
    last_wait: Option<(u64, u32, Vec<ChannelKey>)>,
    /// Every channel this message acquired and may still own.
    owned: Vec<ChannelKey>,
}

#[derive(Default)]
struct DiagState {
    cycle: u64,
    next_scan: u64,
    /// Channel → last acquirer (ownership in the wait-for sense).
    owner: HashMap<ChannelKey, u64>,
    msgs: BTreeMap<u64, MsgState>,
    deadlock: Option<DeadlockWitness>,
    starved: Vec<Starvation>,
    scans: u64,
}

/// Online deadlock/starvation diagnoser; see the module docs.
pub struct DiagnoserSink {
    cfg: DiagnoserConfig,
    state: Mutex<DiagState>,
}

impl Default for DiagnoserSink {
    fn default() -> Self {
        DiagnoserSink::new(DiagnoserConfig::default())
    }
}

impl DiagnoserSink {
    /// A diagnoser with the given configuration.
    pub fn new(cfg: DiagnoserConfig) -> Self {
        DiagnoserSink { cfg, state: Mutex::new(DiagState::default()) }
    }

    /// The configuration in force.
    pub fn config(&self) -> DiagnoserConfig {
        self.cfg
    }

    /// The first deadlock witness found, if any.
    pub fn deadlock(&self) -> Option<DeadlockWitness> {
        self.state.lock().deadlock.clone()
    }

    /// Every starvation reported so far (each message at most once per
    /// attempt).
    pub fn starved(&self) -> Vec<Starvation> {
        self.state.lock().starved.clone()
    }

    /// Number of wait-for-graph scans performed.
    pub fn scans(&self) -> u64 {
        self.state.lock().scans
    }

    /// Forces a scan at the current cycle — call after the trace ends,
    /// so a knot formed less than `scan_period` cycles before the end is
    /// still found.
    pub fn scan_now(&self) {
        let mut st = self.state.lock();
        let cycle = st.cycle;
        self.scan(&mut st, cycle);
    }

    fn ingest(&self, ev: &TraceEvent) {
        let mut st = self.state.lock();
        st.cycle = st.cycle.max(ev.cycle);
        let cycle = ev.cycle;
        match &ev.kind {
            EventKind::Inject { msg, src, .. } => {
                st.msgs.insert(
                    *msg,
                    MsgState {
                        last_progress: cycle,
                        blocked_since: None,
                        last_wait: Some((cycle, src.0, Vec::new())),
                        owned: Vec::new(),
                    },
                );
            }
            EventKind::Retry { msg, .. } => {
                if let Some(ms) = st.msgs.get_mut(msg) {
                    ms.last_progress = cycle;
                    ms.blocked_since = None;
                } else {
                    st.msgs.insert(
                        *msg,
                        MsgState {
                            last_progress: cycle,
                            blocked_since: None,
                            last_wait: None,
                            owned: Vec::new(),
                        },
                    );
                }
            }
            EventKind::RouteDecision { msg, .. } => {
                if let Some(ms) = st.msgs.get_mut(msg) {
                    ms.last_progress = cycle;
                    ms.blocked_since = None;
                }
            }
            EventKind::VcStall { node, msg, port, vc } => {
                self.note_blocked(&mut st, *msg, cycle, node.0, vec![(node.0, port.0, vc.0)]);
            }
            EventKind::RouteWait { node, msg, wants } => {
                let wants: Vec<ChannelKey> =
                    wants.iter().map(|(p, v)| (node.0, p.0, v.0)).collect();
                self.note_blocked(&mut st, *msg, cycle, node.0, wants);
            }
            EventKind::VcAcquire { node, msg, port, vc } => {
                let key = (node.0, port.0, vc.0);
                st.owner.insert(key, *msg);
                if let Some(ms) = st.msgs.get_mut(msg) {
                    ms.last_progress = cycle;
                    ms.blocked_since = None;
                    ms.last_wait = None;
                    ms.owned.push(key);
                }
            }
            // ownership survives release until re-acquired or the owner
            // terminates: the channel may still drain the old worm's flits
            EventKind::VcRelease { .. } => {}
            EventKind::Deliver { msg, .. }
            | EventKind::Kill { msg }
            | EventKind::Unroutable { msg } => {
                if let Some(ms) = st.msgs.remove(msg) {
                    for key in ms.owned {
                        if st.owner.get(&key) == Some(msg) {
                            st.owner.remove(&key);
                        }
                    }
                }
            }
            _ => {}
        }
        if st.cycle >= st.next_scan {
            st.next_scan = st.cycle + self.cfg.scan_period;
            let cycle = st.cycle;
            self.scan(&mut st, cycle);
        }
    }

    fn note_blocked(
        &self,
        st: &mut DiagState,
        msg: u64,
        cycle: u64,
        node: u32,
        wants: Vec<ChannelKey>,
    ) {
        let Some(ms) = st.msgs.get_mut(&msg) else { return };
        // stall events fire once per blocked cycle; a gap wider than the
        // freshness window means the streak was interrupted
        let continued = matches!(&ms.last_wait,
            Some((prev, ..)) if cycle.saturating_sub(*prev) <= self.cfg.stale_window);
        if !continued || ms.blocked_since.is_none() {
            ms.blocked_since = Some(cycle);
        }
        ms.last_wait = Some((cycle, node, wants));
    }

    /// Prunes the wait-for graph to its knot and extracts a cycle.
    fn scan(&self, st: &mut DiagState, cycle: u64) {
        st.scans += 1;
        if self.cfg.starvation_window > 0 {
            let mut found: Vec<Starvation> = Vec::new();
            for (&msg, ms) in &st.msgs {
                if cycle.saturating_sub(ms.last_progress) >= self.cfg.starvation_window
                    && !st.starved.iter().any(|s| s.msg == msg && s.since == ms.last_progress)
                {
                    let node = ms.last_wait.as_ref().map(|(_, n, _)| *n).unwrap_or(0);
                    found.push(Starvation { msg, node, since: ms.last_progress, detected: cycle });
                }
            }
            st.starved.extend(found);
        }

        if st.deadlock.is_some() {
            return; // first witness is kept; the run is already condemned
        }
        // candidates: currently blocked (fresh stall), long enough, with a
        // non-empty want set
        let mut members: BTreeMap<u64, (u32, Vec<ChannelKey>)> = BTreeMap::new();
        for (&msg, ms) in &st.msgs {
            let Some(since) = ms.blocked_since else { continue };
            let Some((last, node, wants)) = &ms.last_wait else { continue };
            if cycle.saturating_sub(*last) <= self.cfg.stale_window
                && cycle.saturating_sub(since) >= self.cfg.min_blocked
                && !wants.is_empty()
            {
                members.insert(msg, (*node, wants.clone()));
            }
        }
        // knot fixpoint: drop anyone with an escape channel (a want that
        // is unowned, or owned outside the set)
        loop {
            let escapees: Vec<u64> = members
                .iter()
                .filter(|(_, (_, wants))| {
                    !wants.iter().all(|k| st.owner.get(k).is_some_and(|h| members.contains_key(h)))
                })
                .map(|(&m, _)| m)
                .collect();
            if escapees.is_empty() {
                break;
            }
            for m in escapees {
                members.remove(&m);
            }
        }
        if members.is_empty() {
            return;
        }
        // a non-empty fixpoint has every member waiting on a member, so
        // walking first-want edges must revisit a node: extract the ring
        let knot_size = members.len();
        let start = *members.keys().next().expect("non-empty");
        let mut path: Vec<WaitEdge> = Vec::new();
        let mut seen_at: HashMap<u64, usize> = HashMap::new();
        let mut cur = start;
        let ring = loop {
            if let Some(&i) = seen_at.get(&cur) {
                break path[i..].to_vec();
            }
            seen_at.insert(cur, path.len());
            let (node, wants) = &members[&cur];
            let (key, holder) = wants
                .iter()
                .find_map(|k| st.owner.get(k).map(|&h| (*k, h)))
                .expect("knot member has an owned want");
            path.push(WaitEdge { msg: cur, node: *node, port: key.1, vc: key.2, holder });
            cur = holder;
        };
        st.deadlock = Some(DeadlockWitness { cycle, knot_size, ring });
    }
}

impl TraceSink for DiagnoserSink {
    fn record(&self, ev: &TraceEvent) {
        self.ingest(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_topo::{NodeId, PortId, VcId};

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    fn inject(d: &DiagnoserSink, cycle: u64, msg: u64, src: u32) {
        d.record(&ev(
            cycle,
            EventKind::Inject { msg, src: NodeId(src), dst: NodeId(99), len_flits: 4 },
        ));
    }

    fn acquire(d: &DiagnoserSink, cycle: u64, msg: u64, node: u32, port: u8) {
        d.record(&ev(
            cycle,
            EventKind::VcAcquire { node: NodeId(node), msg, port: PortId(port), vc: VcId(0) },
        ));
    }

    fn wait(d: &DiagnoserSink, cycle: u64, msg: u64, node: u32, port: u8) {
        d.record(&ev(
            cycle,
            EventKind::RouteWait { node: NodeId(node), msg, wants: vec![(PortId(port), VcId(0))] },
        ));
    }

    fn cfg() -> DiagnoserConfig {
        DiagnoserConfig { scan_period: 16, stale_window: 4, min_blocked: 32, starvation_window: 0 }
    }

    /// Two worms each owning the channel the other wants: the minimal
    /// wait-for cycle must be witnessed.
    #[test]
    fn two_cycle_deadlock_is_witnessed() {
        let d = DiagnoserSink::new(cfg());
        inject(&d, 0, 1, 0);
        inject(&d, 0, 2, 1);
        acquire(&d, 1, 1, 0, 0); // msg 1 holds (0,0,0)
        acquire(&d, 1, 2, 1, 0); // msg 2 holds (1,0,0)
        for c in 2..80 {
            wait(&d, c, 1, 1, 0); // msg 1 at node 1 wants (1,0,0)
            wait(&d, c, 2, 0, 0); // msg 2 at node 0 wants (0,0,0)
        }
        let w = d.deadlock().expect("deadlock must be flagged");
        assert_eq!(w.knot_size, 2);
        assert_eq!(w.ring.len(), 2);
        let msgs: Vec<u64> = w.ring.iter().map(|e| e.msg).collect();
        assert!(msgs.contains(&1) && msgs.contains(&2));
        for (i, e) in w.ring.iter().enumerate() {
            assert_eq!(e.holder, w.ring[(i + 1) % w.ring.len()].msg, "ring closes");
        }
    }

    /// A want whose owner eventually releases and moves on is congestion,
    /// not deadlock: the escapee empties the knot.
    #[test]
    fn progressing_chain_is_not_flagged() {
        let d = DiagnoserSink::new(cfg());
        inject(&d, 0, 1, 0);
        inject(&d, 0, 2, 1);
        acquire(&d, 1, 2, 1, 0); // msg 2 holds what msg 1 wants…
        for c in 2..60 {
            wait(&d, c, 1, 1, 0);
        }
        // …but msg 2 itself keeps making progress (decisions), so it is
        // never a member and msg 1 always has its escape through it
        for c in (2..60).step_by(8) {
            d.record(&ev(
                c,
                EventKind::RouteDecision {
                    node: NodeId(2),
                    msg: 2,
                    in_port: None,
                    in_vc: VcId(0),
                    outcome: ftr_obs::RouteOutcome::Wait,
                    steps: 1,
                    misrouted: false,
                },
            ));
        }
        assert!(d.deadlock().is_none(), "chain behind a moving worm is not deadlock");
    }

    /// Termination of the holder breaks the would-be knot.
    #[test]
    fn delivered_holder_clears_ownership() {
        let d = DiagnoserSink::new(cfg());
        inject(&d, 0, 1, 0);
        inject(&d, 0, 2, 1);
        acquire(&d, 1, 1, 0, 0);
        acquire(&d, 1, 2, 1, 0);
        d.record(&ev(3, EventKind::Deliver { node: NodeId(9), msg: 2 }));
        for c in 4..90 {
            wait(&d, c, 1, 1, 0); // wants msg 2's old channel — now unowned
        }
        assert!(d.deadlock().is_none());
    }

    /// A stale blocked record (message stopped emitting stalls) cannot
    /// anchor a witness.
    #[test]
    fn stale_waits_do_not_count() {
        let d = DiagnoserSink::new(cfg());
        inject(&d, 0, 1, 0);
        inject(&d, 0, 2, 1);
        acquire(&d, 1, 1, 0, 0);
        acquire(&d, 1, 2, 1, 0);
        for c in 2..40 {
            wait(&d, c, 1, 1, 0);
            wait(&d, c, 2, 0, 0);
        }
        // both fall silent; advance the clock with unrelated events
        for c in 40..200 {
            d.record(&ev(c, EventKind::ControlSettled { cycles: 1 }));
        }
        d.scan_now();
        assert!(d.deadlock().is_none(), "silence is staleness, not deadlock");
    }

    #[test]
    fn starvation_is_reported_once_per_streak() {
        let d = DiagnoserSink::new(DiagnoserConfig {
            scan_period: 16,
            stale_window: 4,
            min_blocked: 1 << 40, // deadlock path effectively off
            starvation_window: 50,
        });
        inject(&d, 0, 1, 3);
        for c in 1..200 {
            wait(&d, c, 1, 3, 0);
        }
        let starved = d.starved();
        assert_eq!(starved.len(), 1, "{starved:?}");
        assert_eq!(starved[0].msg, 1);
        assert_eq!(starved[0].node, 3);
        assert_eq!(starved[0].since, 0);
    }
}

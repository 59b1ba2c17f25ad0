//! Distributed fault detection: heartbeat / suspicion / alarm.
//!
//! The oracle-notified fault model (`Network::inject_link_fault` calling
//! `on_fault` directly) sidesteps the paper's premise that endpoint
//! control units *learn* fault state through control messages. This
//! module closes that gap with a protocol-level detection layer:
//!
//! * every [`NodeController::on_tick`] period, a [`Detector`] sends a
//!   ping over each monitored port and checks whether the previous
//!   ping's pong came back;
//! * consecutive misses accumulate a per-neighbour suspicion counter;
//!   the first miss raises a [`EventKind::Suspect`], and when the
//!   counter reaches the configured threshold an [`EventKind::Alarm`]
//!   fires and the wrapped algorithm's `on_fault` runs — entering the
//!   existing deactivation/RESET-wave machinery purely from detection;
//! * a pong resuming on an alarmed port un-suspects it and runs the
//!   wrapped algorithm's `on_repair`, so monotone fault knowledge is
//!   un-learned the same way the oracle would have done it.
//!
//! Wrap any algorithm with [`WithDetection`] and run the network with a
//! [`crate::NetworkBuilder::tick_period`] of at least
//! [`MIN_SAFE_TICK_PERIOD`] cycles; combined with
//! [`crate::FaultPlan::silenced`] this is the **no-oracle mode**: faults
//! keep their physical effect but deliver no notification, and recovery
//! depends entirely on the protocol noticing.
//!
//! Detection latency is bounded by `tick_period × (miss_threshold + 1)`
//! cycles; false positives are impossible in a fault-free network as
//! long as the tick period leaves room for the two-cycle ping/pong
//! round trip (see [`MIN_SAFE_TICK_PERIOD`]).

use crate::flit::Header;
use crate::routing::{ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm};
use ftr_obs::EventKind;
use ftr_topo::{NodeId, PortId, Topology, VcId};

/// Distinguished first payload word of detection-layer messages. The
/// value itself is arbitrary; what matters is the three-word shape,
/// which no bundled algorithm interprets (NAFTA consumes exactly
/// two-word payloads, ROUTE_C one- and two-word payloads), so the
/// detector's traffic is transparent to the wrapped protocol.
pub const DET_TAG: i64 = 7001;

/// `payload[1]` of a liveness probe.
pub const DET_PING: i64 = 0;
/// `payload[1]` of a probe response.
pub const DET_PONG: i64 = 1;

/// Smallest tick period (cycles) that cannot produce false positives:
/// a ping sent at tick cycle `T` is delivered at `T+1` and its pong
/// lands at `T+2`, *after* the tick hook of cycle `T+2` has already
/// run — so a period of 2 or less counts every round trip as a miss.
pub const MIN_SAFE_TICK_PERIOD: u64 = 3;

/// Tuning knobs of the detection layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Consecutive missed heartbeats before suspicion hardens into an
    /// alarm (and the wrapped algorithm's `on_fault` runs).
    pub miss_threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { miss_threshold: 3 }
    }
}

/// Per-monitored-port suspicion state.
#[derive(Clone, Copy, Debug, Default)]
struct PortMon {
    /// This port leads to a neighbour and is probed.
    monitored: bool,
    /// Consecutive ticks whose probe went unanswered.
    misses: u32,
    /// A pong arrived since the last tick.
    pong_seen: bool,
    /// The alarm fired (locally declared faulty); stays set until a
    /// pong resumes or an oracle repair notification clears it.
    alarmed: bool,
}

/// What one detector tick concluded (see [`Detector::tick`]): three port
/// sets, bit `p` standing for port `p` ([`ports_of`] lists one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Ports to probe this tick (every monitored, un-alarmed-or-not
    /// port — alarmed ports keep being probed so recovery is noticed).
    pub pings: u64,
    /// Ports whose suspicion just reached the threshold: treat the
    /// link as faulty (run the algorithm's `on_fault`).
    pub alarms: u64,
    /// Alarmed ports whose pongs resumed: the link is usable again
    /// (run the algorithm's `on_repair`).
    pub recoveries: u64,
}

/// The ports of a [`TickOutcome`] set, ascending.
pub fn ports_of(set: u64) -> impl Iterator<Item = PortId> {
    (0..64 - set.leading_zeros() as u8).filter(move |p| set >> p & 1 == 1).map(PortId)
}

/// Reusable heartbeat/suspicion engine for one node — the state machine
/// alone, so it unit-tests without a network. [`DetectorController`]
/// adapts it to the [`NodeController`] control-plane hooks.
#[derive(Clone, Debug)]
pub struct Detector {
    node: NodeId,
    cfg: DetectorConfig,
    ports: Vec<PortMon>,
    /// Tick counter, echoed in probe payloads for trace debugging.
    seq: i64,
    /// Trace events of traced hooks, pending collection by `drain_events`.
    events: Vec<EventKind>,
}

impl Detector {
    /// A detector for `node` probing `monitored` ports (its connected
    /// neighbours); `degree` sizes the port table.
    pub fn new(node: NodeId, degree: usize, monitored: &[PortId], cfg: DetectorConfig) -> Self {
        assert!(degree <= 64, "a tick outcome holds its ports in 64-bit sets");
        let mut ports = vec![PortMon::default(); degree];
        for p in monitored {
            ports[p.idx()].monitored = true;
        }
        Detector { node, cfg, ports, seq: 0, events: Vec::new() }
    }

    /// The configured miss threshold.
    pub fn miss_threshold(&self) -> u32 {
        self.cfg.miss_threshold
    }

    /// True while the port is locally declared faulty.
    pub fn alarmed(&self, p: PortId) -> bool {
        self.ports[p.idx()].alarmed
    }

    /// Current consecutive-miss count of the port.
    pub fn misses(&self, p: PortId) -> u32 {
        self.ports[p.idx()].misses
    }

    /// One detection period: settles the previous round's probes
    /// (miss/suspect/alarm/recovery bookkeeping) and schedules this
    /// round's pings. Ports are evaluated in ascending order, so the
    /// outcome — and the trace events buffered for [`Detector::drain_events`]
    /// under a [`traced`](RouterView::traced) hook — is deterministic.
    pub fn tick(&mut self, traced: bool) -> TickOutcome {
        let mut out = TickOutcome::default();
        let Detector { node, cfg, ports, seq, events } = self;
        let mut note = |kind: EventKind| {
            if traced {
                events.push(kind);
            }
        };
        for (i, m) in ports.iter_mut().enumerate().filter(|(_, m)| m.monitored) {
            let (port, bit) = (PortId(i as u8), 1 << i);
            if m.pong_seen {
                m.pong_seen = false;
                m.misses = 0;
                if m.alarmed {
                    m.alarmed = false;
                    out.recoveries |= bit;
                }
            } else if *seq != 0 {
                // no probe is outstanding before the first tick — a
                // missing pong only counts once a ping was sent
                m.misses += 1;
                if !m.alarmed {
                    note(EventKind::Suspect { node: *node, port, misses: m.misses });
                    if m.misses >= cfg.miss_threshold {
                        m.alarmed = true;
                        note(EventKind::Alarm { node: *node, port });
                        out.alarms |= bit;
                    }
                }
            }
            note(EventKind::Heartbeat { node: *node, port, pong: false });
            out.pings |= bit;
        }
        self.seq += 1;
        out
    }

    /// The ping control message for one port this tick.
    pub fn ping_msg(&self, p: PortId) -> ControlMsg {
        ControlMsg { port: p, payload: vec![DET_TAG, DET_PING, self.seq] }
    }

    /// True if `payload` is detection-layer traffic.
    pub fn is_detector_payload(payload: &[i64]) -> bool {
        payload.len() == 3 && payload[0] == DET_TAG
    }

    /// Handles an incoming detector payload from the neighbour behind
    /// `from`: pings are answered with a pong (and, under a `traced` hook,
    /// noted as a heartbeat event), pongs mark the port live. Returns the
    /// pong, if any. Callers must have checked [`Detector::is_detector_payload`].
    pub fn on_payload(&mut self, from: PortId, payload: &[i64], traced: bool) -> Vec<ControlMsg> {
        debug_assert!(Self::is_detector_payload(payload));
        match payload[1] {
            DET_PING => {
                if traced {
                    let node = self.node;
                    self.events.push(EventKind::Heartbeat { node, port: from, pong: true });
                }
                vec![ControlMsg { port: from, payload: vec![DET_TAG, DET_PONG, payload[2]] }]
            }
            DET_PONG => {
                if let Some(m) = self.ports.get_mut(from.idx()) {
                    m.pong_seen = true;
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// An oracle `on_fault` notification for `port`: align the detector
    /// so it does not re-alarm a fault the protocol already knows.
    pub fn note_oracle_fault(&mut self, port: PortId) {
        if let Some(m) = self.ports.get_mut(port.idx()) {
            m.alarmed = true;
            m.misses = self.cfg.miss_threshold;
            m.pong_seen = false;
        }
    }

    /// An oracle `on_repair` notification for `port`: clear suspicion.
    pub fn note_oracle_repair(&mut self, port: PortId) {
        if let Some(m) = self.ports.get_mut(port.idx()) {
            m.alarmed = false;
            m.misses = 0;
            m.pong_seen = false;
        }
    }

    /// Takes the trace events buffered since the last drain.
    pub fn drain_events(&mut self) -> Vec<EventKind> {
        std::mem::take(&mut self.events)
    }
}

/// [`NodeController`] adapter: runs a [`Detector`] beside any wrapped
/// controller, intercepting detection-layer payloads and translating
/// alarms/recoveries into the wrapped algorithm's `on_fault` /
/// `on_repair` — the detection-triggered entry into its deactivation
/// and RESET-wave machinery.
pub struct DetectorController {
    inner: Box<dyn NodeController>,
    det: Detector,
}

impl DetectorController {
    /// Wraps `inner` with a detector probing `monitored` ports.
    pub fn new(inner: Box<dyn NodeController>, det: Detector) -> Self {
        DetectorController { inner, det }
    }
}

impl NodeController for DetectorController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        header: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        self.inner.route(view, header, in_port, in_vc)
    }

    fn on_tick(&mut self, view: &RouterView<'_>, _cycle: u64) -> Vec<ControlMsg> {
        let out = self.det.tick(view.traced());
        let mut msgs = Vec::with_capacity(out.pings.count_ones() as usize);
        // recoveries first: un-learning must precede this round's pings
        // so the wrapped algorithm's wave is enqueued before probe noise
        for p in ports_of(out.recoveries) {
            msgs.extend(self.inner.on_repair(view, p));
        }
        for p in ports_of(out.alarms) {
            msgs.extend(self.inner.on_fault(view, p));
        }
        msgs.extend(ports_of(out.pings).map(|p| self.det.ping_msg(p)));
        msgs
    }

    fn on_control(
        &mut self,
        view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        if Detector::is_detector_payload(payload) {
            self.det.on_payload(from, payload, view.traced())
        } else {
            self.inner.on_control(view, from, payload)
        }
    }

    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.det.note_oracle_fault(port);
        self.inner.on_fault(view, port)
    }

    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.det.note_oracle_repair(port);
        self.inner.on_repair(view, port)
    }

    fn drain_events(&mut self) -> Vec<EventKind> {
        let mut evs = self.det.drain_events();
        evs.extend(self.inner.drain_events());
        evs
    }

    fn state_word(&self) -> i64 {
        self.inner.state_word()
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        self.inner.relation(view, header, in_port, in_vc)
    }
}

/// Algorithm wrapper adding the detection layer to every node's
/// controller: `WithDetection::new(Nafta::new(mesh), cfg)` behaves
/// exactly like NAFTA except that fault knowledge can also arrive via
/// heartbeat timeouts — enabling the no-oracle mode.
pub struct WithDetection<A> {
    inner: A,
    cfg: DetectorConfig,
}

impl<A: RoutingAlgorithm> WithDetection<A> {
    /// Wraps `inner` with per-node detectors configured by `cfg`.
    pub fn new(inner: A, cfg: DetectorConfig) -> Self {
        WithDetection { inner, cfg }
    }
}

impl<A: RoutingAlgorithm> RoutingAlgorithm for WithDetection<A> {
    fn name(&self) -> String {
        format!("{}+detect", self.inner.name())
    }

    fn num_vcs(&self) -> usize {
        self.inner.num_vcs()
    }

    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let monitored: Vec<PortId> = topo.neighbors(node).into_iter().map(|(p, _)| p).collect();
        let det = Detector::new(node, topo.degree(), &monitored, self.cfg);
        Box::new(DetectorController::new(self.inner.controller(topo, node), det))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(threshold: u32) -> Detector {
        Detector::new(
            NodeId(0),
            4,
            &[PortId(0), PortId(2)],
            DetectorConfig { miss_threshold: threshold },
        )
    }

    fn pong(d: &mut Detector, p: PortId) {
        let out = d.on_payload(p, &[DET_TAG, DET_PONG, 0], true);
        assert!(out.is_empty(), "pongs are not answered");
    }

    #[test]
    fn suspicion_fires_after_exactly_n_missed_heartbeats() {
        let mut d = det(3);
        assert_eq!(d.tick(true).alarms, 0, "first tick sends, cannot miss");
        // port 0 answers, port 2 never does
        for round in 1..=2 {
            pong(&mut d, PortId(0));
            let out = d.tick(true);
            assert_eq!(out.alarms, 0, "below threshold at round {round}");
            assert_eq!(d.misses(PortId(2)), round);
        }
        pong(&mut d, PortId(0));
        let out = d.tick(true);
        assert_eq!(out.alarms, 1 << 2, "alarm at exactly N=3 misses");
        assert!(d.alarmed(PortId(2)));
        assert!(!d.alarmed(PortId(0)));
        // further silence does not re-alarm
        let out = d.tick(true);
        assert_eq!(out.alarms, 0, "alarm fires once");
        // the alarmed port keeps being probed so recovery is noticed
        assert_eq!(out.pings, 0b101);
    }

    #[test]
    fn flapping_within_threshold_raises_no_alarm() {
        let mut d = det(3);
        d.tick(true);
        // two silent rounds (link flapped), then the pong resumes
        d.tick(true);
        d.tick(true);
        assert_eq!(d.misses(PortId(0)), 2, "suspicion accumulated");
        pong(&mut d, PortId(0));
        pong(&mut d, PortId(2));
        let out = d.tick(true);
        assert_eq!(out.alarms, 0);
        assert_eq!(out.recoveries, 0, "never alarmed, nothing to recover");
        assert_eq!(d.misses(PortId(0)), 0, "suspicion cleared by the pong");
        // the suspect trace of the flap was still recorded
        let evs = d.drain_events();
        assert!(evs.iter().any(|e| matches!(e, EventKind::Suspect { port: PortId(0), .. })));
        assert!(!evs.iter().any(|e| matches!(e, EventKind::Alarm { .. })));
    }

    #[test]
    fn pong_resumption_after_repair_unsuspects() {
        let mut d = det(2);
        d.tick(true);
        d.tick(true);
        let out = d.tick(true);
        assert_eq!(ports_of(out.alarms).collect::<Vec<_>>(), [PortId(0), PortId(2)]);
        // repair: pongs resume on port 0 only
        pong(&mut d, PortId(0));
        let out = d.tick(true);
        assert_eq!(out.recoveries, 1);
        assert!(!d.alarmed(PortId(0)));
        assert!(d.alarmed(PortId(2)), "still-silent port stays alarmed");
    }

    #[test]
    fn ping_is_answered_with_matching_pong() {
        let mut d = det(3);
        let replies = d.on_payload(PortId(1), &[DET_TAG, DET_PING, 41], false);
        assert_eq!(
            replies,
            vec![ControlMsg { port: PortId(1), payload: vec![DET_TAG, DET_PONG, 41] }]
        );
    }

    #[test]
    fn oracle_notifications_align_the_detector() {
        let mut d = det(2);
        d.note_oracle_fault(PortId(0));
        assert!(d.alarmed(PortId(0)));
        d.tick(true);
        let out = d.tick(true);
        assert_eq!(out.alarms, 0, "already alarmed by the oracle");
        d.note_oracle_repair(PortId(0));
        assert!(!d.alarmed(PortId(0)));
    }

    #[test]
    fn detector_payload_shape_is_three_words() {
        assert!(Detector::is_detector_payload(&[DET_TAG, DET_PING, 0]));
        assert!(!Detector::is_detector_payload(&[DET_TAG, DET_PING]));
        assert!(!Detector::is_detector_payload(&[1, 2]));
        assert!(!Detector::is_detector_payload(&[1, 2, 3]));
    }
}

//! The control-unit interface between the simulator and routing algorithms.
//!
//! Mirrors the paper's router architecture (Figure 3): the data path asks
//! the control unit (rule bases or a native implementation) where to send
//! each head flit; information units feed link state and load to the
//! control unit; the control unit exchanges small control messages with
//! adjacent nodes to propagate fault knowledge (the "wave like" state
//! propagation of NAFTA/ROUTE_C).

use crate::arena::OutRows;
use crate::flit::Header;
use crate::network::wiring::Wire;
use ftr_obs::EventKind;
use ftr_topo::{NodeId, PortId, Topology, VcId};

/// What the control unit can observe at its node when deciding: a window
/// on the router's information units, read in place (Figure 3: the control
/// unit *reads* link status and output load; nothing is copied for it).
/// Ports and virtual channels are addressed by index.
pub struct RouterView<'a> {
    /// This node.
    pub node: NodeId,
    /// Current cycle.
    pub cycle: u64,
    pub(crate) traced: bool,
    pub(crate) vcs: usize,
    pub(crate) rows: Rows<'a>,
}

/// Where a [`RouterView`] reads from.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// The router itself: the node's wiring row and its arena rows.
    Live(&'a [Wire], OutRows<'a>),
    /// An idealised router without load: of the channels on live links
    /// only the given one is free — all of them for `None`.
    Ideal(&'a [Wire], Option<(usize, usize)>),
    /// Tables the caller owns ([`RouterView::from_tables`]); with `only`,
    /// that channel alone is free.
    Tables {
        free: &'a [Vec<bool>],
        load: &'a [u32],
        alive: &'a [bool],
        only: Option<(usize, usize)>,
    },
}

impl<'a> RouterView<'a> {
    /// A view over caller-owned tables, for driving a controller outside a
    /// network: `free[p][v]`, `load[p]` and `alive[p]` are handed out as
    /// they are. Never [`traced`](Self::traced).
    pub fn from_tables(
        node: NodeId,
        cycle: u64,
        free: &'a [Vec<bool>],
        load: &'a [u32],
        alive: &'a [bool],
    ) -> Self {
        let rows = Rows::Tables { free, load, alive, only: None };
        RouterView { node, cycle, traced: false, vcs: free.first().map_or(0, Vec::len), rows }
    }

    /// This router idealised: of the channels on live links only `(p, v)`
    /// is free — the window [`one_free_grants`] probes a controller with.
    fn only(&self, p: usize, v: usize) -> RouterView<'a> {
        let rows = match self.rows {
            Rows::Live(wires, _) | Rows::Ideal(wires, _) => Rows::Ideal(wires, Some((p, v))),
            Rows::Tables { free, load, alive, .. } => {
                Rows::Tables { free, load, alive, only: Some((p, v)) }
            }
        };
        RouterView { node: self.node, cycle: self.cycle, traced: self.traced, vcs: self.vcs, rows }
    }

    /// Network ports of this router.
    pub fn degree(&self) -> usize {
        match self.rows {
            Rows::Live(wires, _) | Rows::Ideal(wires, _) => wires.len(),
            Rows::Tables { alive, .. } => alive.len(),
        }
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The *local* link status of port `p` (healthy link and live
    /// neighbour — assumption ii makes this locally observable).
    #[inline]
    pub fn alive(&self, p: usize) -> bool {
        match self.rows {
            Rows::Live(wires, _) | Rows::Ideal(wires, _) => wires[p].live,
            Rows::Tables { alive, .. } => alive[p],
        }
    }

    /// Output channel `(p, v)` is allocatable right now: the link is
    /// alive, the VC idle, and at least one credit is left.
    #[inline]
    pub fn free(&self, p: usize, v: usize) -> bool {
        debug_assert!(v < self.vcs, "port {p} has no VC {v}");
        match self.rows {
            Rows::Live(wires, out) => wires[p].live && out.free(p * self.vcs + v),
            Rows::Ideal(wires, only) => wires[p].live && only.is_none_or(|c| c == (p, v)),
            Rows::Tables { free, only, .. } => only.map_or(free[p][v], |c| c == (p, v)),
        }
    }

    /// Amount of data (flits) still assigned to output `p`, the one in its
    /// link register included — NAFTA's selection function ("the amount
    /// of data that still has to pass a node").
    #[inline]
    pub fn load(&self, p: usize) -> u32 {
        match self.rows {
            Rows::Live(_, out) => out.load(p),
            Rows::Ideal(..) => 0,
            Rows::Tables { load, .. } => load[p],
        }
    }

    /// True if any VC of `port` is allocatable.
    pub fn any_vc_free(&self, port: PortId) -> bool {
        (0..self.vcs).any(|v| self.free(port.idx(), v))
    }

    /// First allocatable VC of `port` within a VC range.
    pub fn free_vc_in(&self, port: PortId, vcs: std::ops::Range<usize>) -> Option<VcId> {
        vcs.into_iter().find(|&v| self.free(port.idx(), v)).map(|v| VcId(v as u8))
    }

    /// Whether a trace sink collects what [`NodeController::drain_events`]
    /// returns after this hook; if not, nobody drains and nothing should
    /// be buffered.
    pub fn traced(&self) -> bool {
        self.traced
    }
}

/// Routing verdict for a head flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Forward through this output channel.
    Route(PortId, VcId),
    /// Deliver locally (destination reached).
    Deliver,
    /// No usable output right now (contention). The head stays where it
    /// is and is asked again once the answer can have changed — see the
    /// contract on [`NodeController::route`].
    Wait,
    /// The algorithm cannot route this message at all (destination
    /// unreachable under its fault knowledge) — message is dropped and
    /// counted, which surfaces condition-3 violations (§2.1).
    Unroutable,
}

/// A routing decision plus its cost in rule-interpretation steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The verdict.
    pub verdict: Verdict,
    /// Consecutive rule interpretations this decision needed — the §5
    /// overhead metric (NAFTA: 1 fault-free, up to 3 with faults;
    /// ROUTE_C: always 2).
    pub steps: u32,
    /// Set on a [`Verdict::Wait`] that must be re-asked every cycle
    /// ([`Decision::polled_wait`]); false on every other decision.
    pub polled: bool,
}

impl Decision {
    /// Convenience constructor. A [`Verdict::Wait`] built here promises
    /// the contract on [`NodeController::route`].
    pub fn new(verdict: Verdict, steps: u32) -> Self {
        Decision { verdict, steps, polled: false }
    }

    /// A [`Verdict::Wait`] outside that contract: the head is asked again
    /// every cycle, whatever happens at the node in between.
    pub fn polled_wait(steps: u32) -> Self {
        Decision { verdict: Verdict::Wait, steps, polled: true }
    }
}

/// A control-plane message to an adjacent node (fault/state propagation).
#[derive(Clone, Debug, PartialEq)]
pub struct ControlMsg {
    /// Port to send through (must be alive).
    pub port: PortId,
    /// Algorithm-defined payload words.
    pub payload: Vec<i64>,
}

/// Per-node control unit instantiated by a [`RoutingAlgorithm`].
pub trait NodeController: Send {
    /// Routing decision for the head flit currently at the front of input
    /// `(in_port, in_vc)`; `in_port` is `None` for locally injected
    /// messages. May update the header (mark misrouted, switch virtual
    /// network, count hops).
    ///
    /// # The `Wait` contract
    ///
    /// A head that was told to wait is *parked*: the engine does not ask
    /// again until something the answer may depend on has changed at this
    /// node. So a [`Verdict::Wait`] from [`Decision::new`] must be a
    /// function of the header, `in_port`, `in_vc`, `view.free(..)`,
    /// `view.alive(..)` and controller state that only this node's hooks
    /// (`on_tick`, `on_control`, `on_fault`, `on_repair`) change, and it
    /// must leave the header untouched. `view.load(..)` and `view.cycle`
    /// may rank the outputs a grant chooses from, but never turn a `Wait`
    /// into one. A controller that wants to be re-asked for any other
    /// reason — its answer reads the load, the clock, or state another
    /// node's hook or its own `route` writes — must answer
    /// [`Decision::polled_wait`] instead: a parked head nobody wakes never
    /// moves again, and the watchdog reports it as a deadlock.
    ///
    /// # The grant contract
    ///
    /// A channel granted under some set of free channels is also granted
    /// when it alone is free. So the channels [`one_free_grants`] finds are
    /// all a head can ever be granted — its [`relation`](Self::relation)
    /// and, for a parked head, the channels that would wake it.
    fn route(
        &mut self,
        view: &RouterView<'_>,
        header: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision;

    /// Periodic control-plane hook: invoked for every live node when the
    /// network's tick period elapses (see `NetworkBuilder::tick_period`;
    /// never invoked without one). Runs in ascending node order before the
    /// cycle's control deliveries, so controllers can drive autonomous
    /// protocols — heartbeat probing, timeout bookkeeping, suspicion
    /// escalation — without any oracle notification. Returns control
    /// messages to send this cycle. Default: no-op, which keeps
    /// oracle-notified algorithms unchanged.
    fn on_tick(&mut self, view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        let _ = (view, cycle);
        Vec::new()
    }

    /// Drains trace events the controller wants recorded (heartbeats,
    /// suspicions, alarms). The network calls this after each control-plane
    /// hook (`on_tick`/`on_control`/`on_fault`/`on_repair`) whose view was
    /// [`traced`](RouterView::traced), and stamps the events with the
    /// current cycle. Default: none.
    fn drain_events(&mut self) -> Vec<EventKind> {
        Vec::new()
    }

    /// A control message arrived from the neighbour behind `from`.
    /// Returns follow-up control messages (state propagation).
    fn on_control(
        &mut self,
        view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        let _ = (view, from, payload);
        Vec::new()
    }

    /// The link behind `port` (or the neighbour node) was detected faulty.
    /// Returns control messages announcing the new state.
    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        let _ = (view, port);
        Vec::new()
    }

    /// The link behind `port` (or the neighbour node) was repaired and is
    /// usable again. Algorithms whose fault knowledge accumulates
    /// monotonically must un-learn here (typically by resetting derived
    /// state and starting a reconfiguration wave). Default: no-op, which is
    /// correct only for algorithms that keep no fault state.
    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        let _ = (view, port);
        Vec::new()
    }

    /// Diagnostic snapshot of the controller's fault knowledge (used by
    /// settling-time experiments); algorithm-defined encoding.
    fn state_word(&self) -> i64 {
        0
    }

    /// The *full routing relation* for a message: every output channel the
    /// algorithm might select in some load state. Used by the
    /// channel-dependency deadlock checker and the conditions-1..3
    /// experiments; by the grant contract on [`Self::route`] these are its
    /// [`one_free_grants`].
    fn relation(
        &mut self,
        view: &RouterView<'_>,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        one_free_grants(self, view, header, in_port, in_vc)
    }
}

/// Every channel on a live link that `ctrl` grants when that channel alone
/// is free, in port-then-VC order: the default
/// [`NodeController::relation`] and the `RouteWait` trace event's wanted
/// channels. Header writes of the probed decisions are discarded.
pub fn one_free_grants<C: NodeController + ?Sized>(
    ctrl: &mut C,
    view: &RouterView<'_>,
    header: &Header,
    in_port: Option<PortId>,
    in_vc: VcId,
) -> Vec<(PortId, VcId)> {
    let mut grants = Vec::new();
    for p in (0..view.degree()).filter(|&p| view.alive(p)) {
        for v in 0..view.vcs {
            let (port, vc, mut h) = (PortId(p as u8), VcId(v as u8), *header);
            let verdict = ctrl.route(&view.only(p, v), &mut h, in_port, in_vc).verdict;
            if verdict == Verdict::Route(port, vc) {
                grants.push((port, vc));
            }
        }
    }
    grants
}

/// A routing algorithm: a factory for per-node controllers.
pub trait RoutingAlgorithm: Send + Sync {
    /// Algorithm name for reports.
    fn name(&self) -> String;

    /// Number of virtual channels per physical link the algorithm needs
    /// (NAFTA: 2, ROUTE_C: 5 — the VC count is itself part of the
    /// fault-tolerance hardware cost, §5).
    fn num_vcs(&self) -> usize;

    /// Builds the controller for one node.
    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_helpers() {
        let out_free = vec![vec![false, true], vec![false, false]];
        let v = RouterView::from_tables(NodeId(0), 0, &out_free, &[3, 0], &[true, false]);
        assert_eq!((v.degree(), v.vcs()), (2, 2));
        assert_eq!((v.load(0), v.alive(0), v.alive(1)), (3, true, false));
        assert!(v.any_vc_free(PortId(0)));
        assert!(!v.any_vc_free(PortId(1)));
        assert_eq!(v.free_vc_in(PortId(0), 0..2), Some(VcId(1)));
        assert_eq!(v.free_vc_in(PortId(0), 0..1), None);
    }

    #[test]
    fn a_probe_of_tables_frees_one_channel() {
        let out_free = vec![vec![false, true], vec![true, true]];
        let v = RouterView::from_tables(NodeId(0), 0, &out_free, &[3, 0], &[true, false]);
        let one = v.only(0, 0);
        assert!(one.free(0, 0) && !one.free(0, 1) && !one.free(1, 0));
        assert_eq!((one.load(0), one.alive(1)), (3, false));
    }
}

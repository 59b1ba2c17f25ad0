//! The control unit's neighbour traffic: the control-message queue, the
//! periodic tick, delivery with unit latency, and the single place where a
//! [`NodeController`](crate::routing::NodeController) control-plane hook
//! is invoked.

use super::Network;
use crate::routing::{ControlMsg, RouterView, Rows};
use ftr_obs::EventKind;
use ftr_topo::{NodeId, PortId};

/// A pending control-plane delivery.
pub(super) struct ControlDelivery {
    due: u64,
    to: NodeId,
    from_port: PortId,
    payload: Vec<i64>,
}

/// Which control-plane hook [`Network::call_hook`] runs.
pub(super) enum Hook<'a> {
    /// The tick period elapsed.
    Tick,
    /// Words arrived from the neighbour behind the port.
    Control(PortId, &'a [i64]),
    /// The link behind the port was detected faulty.
    Fault(PortId),
    /// The link behind the port is usable again.
    Repair(PortId),
}

impl Network {
    /// Runs one control-plane hook of `node`'s controller under a view of
    /// the router's current state, wakes the node's parked heads, records
    /// the trace events the hook produced and sends its replies. A faulty
    /// node's control unit does not run.
    pub(super) fn call_hook(&mut self, node: NodeId, hook: Hook<'_>) {
        if self.wiring.node_dead(node.idx()) {
            return;
        }
        let traced = self.sink.is_some();
        let rows = Rows::Live(self.wiring.row(node.idx()), self.chans.out_rows(node.idx()));
        let view = RouterView { node, cycle: self.cycle, traced, vcs: self.vcs, rows };
        let ctrl = &mut self.ctrls[node.idx()];
        let msgs = match hook {
            Hook::Tick => ctrl.on_tick(&view, self.cycle),
            Hook::Control(from, payload) => ctrl.on_control(&view, from, payload),
            Hook::Fault(port) => ctrl.on_fault(&view, port),
            Hook::Repair(port) => ctrl.on_repair(&view, port),
        };
        // whatever the hook did to the controller's state, the node's
        // parked heads may now get another answer
        self.chans.wake(node.idx());
        // detector heartbeats/suspicions/alarms, stamped with the current
        // cycle; an untraced hook was told so and buffered nothing
        if traced {
            for kind in self.ctrls[node.idx()].drain_events() {
                self.emit(|| kind);
            }
        }
        self.enqueue_control(node, msgs);
    }

    /// Counts (and traces) a control-plane message discarded because the
    /// link through `port` at `node` was unusable — at send time or while
    /// the words were on the wire.
    fn drop_control(&mut self, node: NodeId, port: PortId) {
        self.stats.control_dropped += 1;
        self.emit(|| EventKind::ControlDrop { node, port });
        if let Some(m) = &self.metrics {
            m.control_dropped.inc();
        }
    }

    fn enqueue_control(&mut self, from: NodeId, msgs: Vec<ControlMsg>) {
        for msg in msgs {
            let Some((to, from_port)) = self.wiring.live_peer(from.idx(), msg.port.idx()) else {
                // control messages need healthy links too; account for the
                // loss instead of discarding silently
                self.drop_control(from, msg.port);
                continue;
            };
            self.stats.control_msgs += 1;
            self.emit(|| EventKind::ControlSend { from, to });
            if let Some(m) = &self.metrics {
                m.control_msgs.inc();
            }
            self.control.push_back(ControlDelivery {
                due: self.cycle + 1,
                to,
                from_port,
                payload: msg.payload,
            });
        }
    }

    /// Autonomous control-plane tick (heartbeats, suspicion bookkeeping) —
    /// ascending node order for determinism, live nodes only; disabled
    /// unless a tick period was configured.
    pub(super) fn run_tick(&mut self) {
        if self.cfg.tick_period == 0 || !self.cycle.is_multiple_of(self.cfg.tick_period) {
            return;
        }
        for i in 0..self.ctrls.len() {
            self.call_hook(NodeId(i as u32), Hook::Tick);
        }
    }

    /// Lands the control-plane deliveries due this cycle.
    pub(super) fn deliver_control(&mut self) {
        let mut due = std::mem::take(&mut self.scratch.due);
        while self.control.front().is_some_and(|d| d.due <= self.cycle) {
            due.push(self.control.pop_front().expect("checked"));
        }
        for d in due.drain(..) {
            if self.wiring.node_dead(d.to.idx()) {
                continue;
            }
            // time-of-send vs time-of-delivery: the traversed link (and
            // with it the sender node) must still be usable NOW — a link
            // that died after the send at cycle C never lands its words
            // at C+1
            if self.wiring.live_peer(d.to.idx(), d.from_port.idx()).is_none() {
                self.drop_control(d.to, d.from_port);
                continue;
            }
            self.call_hook(d.to, Hook::Control(d.from_port, &d.payload));
        }
        self.scratch.due = due;
    }

    /// Runs only the control plane until it goes quiet; returns the number
    /// of cycles it took, or `None` if `budget` was exhausted (E10
    /// settling-time experiment).
    pub fn settle_control(&mut self, budget: u64) -> Option<u64> {
        let start = self.cycle;
        while !self.control.is_empty() {
            if self.cycle - start >= budget {
                return None;
            }
            self.step();
        }
        let took = self.cycle - start;
        self.emit(|| EventKind::ControlSettled { cycles: took });
        Some(took)
    }
}

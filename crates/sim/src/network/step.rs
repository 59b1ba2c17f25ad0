//! One simulated cycle: [`Network::step`] and the barriers between its
//! phases.

use super::control::ControlDelivery;
use super::Network;
use crate::flit::MessageId;
use std::collections::HashSet;

/// Reusable per-cycle scratch buffers of the step.
///
/// Every phase of [`Network::step`] used to heap-allocate fresh working
/// storage each cycle; keeping the buffers on the network and clearing
/// instead of dropping makes the per-cycle fixed cost allocation-free.
#[derive(Default)]
pub(super) struct StepScratch {
    /// The working set at step entry (node indices, ascending).
    cur: Vec<u32>,
    /// `cur` plus nodes activated by this cycle's link traversal.
    cur_ext: Vec<u32>,
    /// Messages to kill at the current barrier (caught on a just-dead
    /// link, or declared unroutable by this cycle's routing decisions).
    pub(super) doomed: HashSet<MessageId>,
    /// Credits to return upstream after switch allocation: `(node, port,
    /// vc)` of the freed input slot.
    pub(super) credit_returns: Vec<(u32, u8, u8)>,
    /// Slot sets of the node `phase_eject_switch` is serving.
    pub(super) arb: Vec<u64>,
    /// Whether this cycle moved any flit.
    pub(super) moved: bool,
    /// Control deliveries due this cycle.
    pub(super) due: Vec<ControlDelivery>,
}

impl Network {
    /// Advances the network one cycle.
    ///
    /// Every phase iterates the *active set* — the nodes holding staged,
    /// buffered or in-register flits — instead of dense-scanning the whole
    /// topology — and the routing phase consults a controller only for
    /// heads whose answer can have changed; see `DESIGN.md` §12 for the
    /// activation and parked-lane invariants. The retained dense, polling
    /// scan ([`Network::set_dense_reference`]) is observably identical and
    /// serves as the differential-testing oracle. Kills and credit returns
    /// wait for the barrier after their phase (`DESIGN.md` §14).
    pub fn step(&mut self) {
        // 0. scripted fault-plan actions and due retry re-injections
        self.run_plan();
        self.run_retries();

        // 1. the control plane: periodic tick, then the deliveries due
        self.run_tick();
        self.deliver_control();

        // the cycle's working set: ascending node order matches the dense
        // scan, so phase iteration order — and thus arbitration and the
        // trace-event stream — is independent of activation history
        let mut cur = std::mem::take(&mut self.scratch.cur);
        if self.dense_reference {
            cur.extend(0..self.chans.geo().nodes as u32);
        } else {
            self.active_list.sort_unstable();
            cur.append(&mut self.active_list);
        }
        self.scratch.moved = false;

        // 2. link traversal: output registers -> downstream input FIFOs
        self.phase_link(&cur);
        self.kill_doomed(false);

        // nodes that received their first flit during link traversal must
        // route and arbitrate it THIS cycle, exactly as the dense scan does
        let mut cur_ext = std::mem::take(&mut self.scratch.cur_ext);
        cur_ext.extend_from_slice(&cur);
        if !self.dense_reference && !self.active_list.is_empty() {
            cur_ext.append(&mut self.active_list);
            cur_ext.sort_unstable();
        }

        // 3. injection (staging -> injection FIFO) over `cur` + 4. routing
        // decisions over `cur_ext`
        self.phase_inject(&cur);
        self.phase_route(&cur_ext);
        self.kill_doomed(true);

        // 5. ejection + switch allocation
        self.phase_eject_switch(&cur_ext);
        self.apply_credit_returns();

        let moved = self.scratch.moved;

        // 6. watchdog (messages waiting out a retry backoff are in flight
        // but legitimately motionless — not a deadlock)
        if moved {
            self.last_move = self.cycle;
        } else if self.in_flight() > self.retries.len()
            && self.cycle - self.last_move >= self.cfg.deadlock_threshold
        {
            self.stats.deadlock = true;
        }
        self.last_moved = moved;

        // prune the active set: drop nodes whose work drained (delivered,
        // killed, or every flit handed downstream). A node only re-enters
        // through mark_active, so mask ⟺ list ⟺ has-work holds at every
        // cycle boundary. The dense path rebuilds the bookkeeping exactly,
        // keeping mode switches safe at any boundary.
        if self.dense_reference {
            // the dense scan ignores marks made during the step (send,
            // link arrivals); its working set covers every node, so the
            // rebuild below recreates mask and list from scratch
            self.active_list.clear();
        }
        debug_assert!(self.active_list.is_empty());
        debug_assert!(self.chans.masks_consistent(), "occupancy mask out of step with the arena");
        for &ni in &cur_ext {
            let ni = ni as usize;
            let w = self.chans.has_work(ni);
            self.active_mask[ni] = w;
            if w {
                self.active_list.push(ni as u32);
            }
        }
        cur.clear();
        self.scratch.cur = cur;
        cur_ext.clear();
        self.scratch.cur_ext = cur_ext;

        // every message in flight has its header in the table, unless it
        // is waiting out a retry backoff with no flit anywhere
        debug_assert_eq!(
            self.headers.len() + self.retries.len(),
            self.stats.in_flight(),
            "header table out of step with the messages in flight"
        );
        self.cycle += 1;
    }

    /// Kills the messages a barrier collected in `scratch.doomed`, keeping
    /// the set's allocation for the next cycle (trace/retry order is
    /// id-sorted inside kill_messages, so the set's order does not leak).
    fn kill_doomed(&mut self, unroutable: bool) {
        if self.scratch.doomed.is_empty() {
            return;
        }
        let mut doomed = std::mem::take(&mut self.scratch.doomed);
        self.kill_messages(&doomed, unroutable);
        doomed.clear();
        self.scratch.doomed = doomed;
    }

    /// Barrier after ejection/switch: returns freed credits to the
    /// upstream senders. Deferred so that no switch of this cycle sees a
    /// credit freed in the same cycle (`DESIGN.md` §14).
    fn apply_credit_returns(&mut self) {
        let depth = self.cfg.buffer_depth;
        for (ni, p, iv) in self.scratch.credit_returns.drain(..) {
            let Some((m, q)) = self.wiring.peer(ni as usize, p as usize) else { continue };
            let c = self.chans.out_credits(m.idx(), q.idx(), iv as usize);
            // credits plus the flits they stand for never exceed the buffer
            assert!(c < depth, "credit past buffer_depth: the credit invariant was violated");
            self.chans.set_out_credits(m.idx(), q.idx(), iv as usize, c + 1);
        }
    }
}

/// The engine test that must reach private state; everything else lives
/// in `crates/sim/tests/engine.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Header;
    use crate::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
    use ftr_obs::{EventKind, RingSink};
    use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST};
    use std::sync::Arc;

    /// Sends every head east on VC 0.
    struct East;

    impl RoutingAlgorithm for East {
        fn name(&self) -> String {
            "east".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(East)
        }
    }

    impl NodeController for East {
        fn route(
            &mut self,
            view: &RouterView<'_>,
            _h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            let free = view.free(EAST.idx(), 0);
            Decision::new(if free { Verdict::Route(EAST, VcId(0)) } else { Verdict::Wait }, 1)
        }
    }

    /// Regression for the silent flit-loss bug: a flit caught in an output
    /// register when its link dies used to hit a `debug_assert!` only —
    /// release builds dropped the flit on the floor and leaked the message
    /// (accounting never balanced, `drain` hung). This exercises a fault
    /// path that bypasses `inject_link_fault`'s worm ripping by failing
    /// the link through the bare fault-set mutation point — never behind
    /// the wiring table's back. Must pass in debug AND release.
    #[test]
    fn dead_link_flit_is_killed_not_silently_dropped() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let sink = Arc::new(RingSink::new(4096));
        let mut net =
            Network::builder(topo.clone()).trace(sink.clone()).build(&East).expect("valid");
        let id = net.send(topo.node_at(0, 1), topo.node_at(3, 1), 6).unwrap();
        // advance until a flit of the worm sits on the (1,1)->(2,1) link
        let hot = topo.node_at(1, 1);
        for _ in 0..50 {
            if net.output_register_occupied(hot, EAST) {
                break;
            }
            net.step();
        }
        assert!(net.output_register_occupied(hot, EAST), "worm must reach the link");
        // rip the link out from under the engine without killing the worm
        net.set_fault(hot, Some(EAST), true);
        net.step();
        assert_eq!(net.stats.flits_dropped_on_dead_link, 1);
        assert_eq!(net.stats.killed_msgs, 1, "message killed through the normal path");
        assert!(!net.stats.tracks(id), "no leaked in-flight entry");
        assert!(net.stats.accounting_balanced(), "balance must hold in every build profile");
        let killed =
            sink.events().iter().any(|e| matches!(e.kind, EventKind::Kill { msg } if msg == id.0));
        assert!(killed, "kill event emitted");
        assert!(net.drain(1_000), "engine still drains after the drop");
        assert_eq!(net.in_flight(), 0);
    }
}

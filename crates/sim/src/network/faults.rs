//! The fault/repair surface: loud (oracle-notified) and silent link and
//! node faults and repairs, worm kills, the credit rebuild that follows
//! them, and the per-cycle drains of the scripted fault plan and the
//! retry queue.

use super::control::Hook;
use super::{Network, RetryPolicy};
use crate::flit::{Flit, Header, MessageId};
use crate::plan::FaultAction;
use crate::router::RouteState;
use ftr_obs::EventKind;
use ftr_topo::{FaultSet, NodeId, PortId};
use std::collections::HashSet;

/// A killed message waiting out its retry backoff.
pub(super) struct RetryEntry {
    due: u64,
    id: MessageId,
    /// Final-termination cause if the retry is abandoned.
    unroutable: bool,
}

impl Network {
    /// The only place the ground-truth fault set changes: fails
    /// (`faulty`) or repairs node `n` (`port == None`) or the link leaving
    /// it through `port`, then refreshes the wiring table's cached status
    /// bits around the event, which keeps them equal to the fault set, and
    /// wakes the parked heads of every node whose bits were rewritten.
    pub(super) fn set_fault(&mut self, n: NodeId, port: Option<PortId>, faulty: bool) {
        let topo = self.topo.as_ref();
        match (port, faulty) {
            (Some(p), true) => self.faults.fail_link(topo, n, p),
            (Some(p), false) => {
                if let Some(l) = topo.link(n, p) {
                    self.faults.repair_link(l);
                }
            }
            (None, true) => self.faults.fail_node(n),
            (None, false) => self.faults.repair_node(n),
        }
        let chans = &mut self.chans;
        self.wiring.refresh(topo, &self.faults, n, port, |m| chans.wake(m.idx()));
        debug_assert!(self.wiring_consistent(), "wiring table out of step with the fault set");
    }

    /// Whether every cached live-link and node-dead bit equals what the
    /// fault set answers (debug-asserted after every fault and repair).
    pub fn wiring_consistent(&self) -> bool {
        self.wiring.consistent(self.topo.as_ref(), &self.faults)
    }

    /// The active retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Fails the link leaving `n` through `p` at the current cycle: rips
    /// the worms spanning it, notifies both endpoint controllers, and
    /// starts control-plane propagation.
    pub fn inject_link_fault(&mut self, n: NodeId, p: PortId) {
        if let Some((m, q)) = self.link_fault_physical(n, p) {
            self.call_hook(n, Hook::Fault(p));
            self.call_hook(m, Hook::Fault(q));
        }
    }

    /// Fails the link leaving `n` through `p` *silently*: identical
    /// physical effect (worms ripped, link unusable, trace event) but no
    /// `on_fault` notification — no-oracle mode, where the endpoints must
    /// detect the loss through the heartbeat layer.
    pub fn inject_link_fault_silent(&mut self, n: NodeId, p: PortId) {
        self.link_fault_physical(n, p);
    }

    /// Physical half of a link fault; returns the far endpoint `(m, q)`
    /// when the link exists.
    fn link_fault_physical(&mut self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        let (m, q) = self.wiring.peer(n.idx(), p.idx())?;
        self.set_fault(n, Some(p), true);
        self.emit(|| EventKind::LinkFault { node: n, port: p });

        let mut dead: HashSet<MessageId> = HashSet::new();
        for (node, port) in [(n, p), (m, q)] {
            if let Some((_, f)) = self.chans.out_reg(node.idx(), port.idx()) {
                dead.insert(f.msg());
            }
            for v in 0..self.vcs {
                // messages with flits in the FIFO fed by the dead link are
                // still streaming over it unless their tail already crossed
                let fifo = || self.chans.fifo_iter(node.idx(), port.idx(), v).copied();
                let closed: HashSet<MessageId> =
                    fifo().filter(|f| f.closes_worm()).map(Flit::msg).collect();
                dead.extend(fifo().map(Flit::msg).filter(|m| !closed.contains(m)));
                // worms routed OUT across the dead link: the output-channel
                // owner tracks the holding message even when its flits are
                // all in flight elsewhere
                dead.extend(self.chans.out_owner(node.idx(), port.idx(), v));
            }
        }
        self.kill_messages(&dead, false);
        Some((m, q))
    }

    /// Fails node `n`: rips every worm touching it, kills in-flight
    /// messages destined to it, and notifies all alive neighbours.
    pub fn inject_node_fault(&mut self, n: NodeId) {
        self.node_fault_physical(n);
        for p in 0..self.chans.geo().degree {
            if let Some((nb, q)) = self.wiring.peer(n.idx(), p) {
                self.call_hook(nb, Hook::Fault(q));
            }
        }
    }

    /// Fails node `n` *silently*: identical physical effect but no
    /// neighbour `on_fault` notification — a Byzantine-silent node that
    /// simply stops participating (no-oracle mode).
    pub fn inject_node_fault_silent(&mut self, n: NodeId) {
        self.node_fault_physical(n);
    }

    /// Physical half of a node fault.
    fn node_fault_physical(&mut self, n: NodeId) {
        self.set_fault(n, None, true);
        self.emit(|| EventKind::NodeFault { node: n });
        let geo = self.chans.geo();
        let mut dead: HashSet<MessageId> = HashSet::new();
        // everything held by the dead node, messages destined to it
        // anywhere in the network (found through their head flits), and —
        // at its neighbours — worms routed into it (tracked by the
        // output-channel owners) and flits mid-flight towards it
        let headers = &self.headers;
        for node in self.topo.nodes() {
            let ni = node.idx();
            let doomed = |f: &Flit| node == n || (f.is_head() && headers[&f.msg()].dst == n);
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    dead.extend(
                        self.chans.fifo_iter(ni, ip, iv).filter(|f| doomed(f)).map(|f| f.msg()),
                    );
                }
            }
            dead.extend(self.chans.staging(ni).iter().filter(|f| doomed(f)).map(|f| f.msg()));
            for p in 0..geo.degree {
                let into_n = self.wiring.peer(ni, p).is_some_and(|(m, _)| m == n);
                if let Some((_, f)) = self.chans.out_reg(ni, p) {
                    if into_n || doomed(f) {
                        dead.insert(f.msg());
                    }
                }
                if into_n {
                    dead.extend((0..geo.vcs).filter_map(|v| self.chans.out_owner(ni, p, v)));
                }
            }
        }
        self.kill_messages(&dead, false);
    }

    /// Repairs the link leaving `n` through `p`: re-arms it in the fault
    /// set, emits a [`EventKind::LinkRepair`] and — when the link is
    /// actually usable again (both endpoints alive) — notifies both
    /// endpoint controllers through
    /// [`NodeController::on_repair`](crate::routing::NodeController::on_repair)
    /// so they can un-learn their monotone fault knowledge. No-op for
    /// unconnected ports and healthy links.
    pub fn repair_link(&mut self, n: NodeId, p: PortId) {
        if let Some((m, q)) = self.link_repair_physical(n, p) {
            self.call_hook(n, Hook::Repair(p));
            self.call_hook(m, Hook::Repair(q));
        }
    }

    /// Repairs the link leaving `n` through `p` *silently*: the link
    /// carries traffic again but no `on_repair` fires — controllers
    /// re-learn through resumed liveness probes (no-oracle mode).
    pub fn repair_link_silent(&mut self, n: NodeId, p: PortId) {
        self.link_repair_physical(n, p);
    }

    /// Physical half of a link repair; returns the far endpoint `(m, q)`
    /// when the repaired link is usable again (both endpoints alive).
    fn link_repair_physical(&mut self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        if !self.faults.link_faulty(self.topo.as_ref(), n, p) {
            return None;
        }
        self.set_fault(n, Some(p), false);
        self.emit(|| EventKind::LinkRepair { node: n, port: p });
        self.wiring.live_peer(n.idx(), p.idx())
    }

    /// Repairs node `n`: re-arms it with a fresh (rebooted) router and
    /// notifies its controller and every alive neighbour on each incident
    /// healthy link. The repaired node's controller keeps its accumulated
    /// state — algorithms reset it in
    /// [`NodeController::on_repair`](crate::routing::NodeController::on_repair).
    pub fn repair_node(&mut self, n: NodeId) {
        if !self.node_repair_physical(n) {
            return;
        }
        for p in 0..self.chans.geo().degree {
            if let Some((nb, q)) = self.wiring.live_peer(n.idx(), p) {
                self.call_hook(n, Hook::Repair(PortId(p as u8)));
                self.call_hook(nb, Hook::Repair(q));
            }
        }
    }

    /// Repairs node `n` *silently*: hardware comes back empty but no
    /// `on_repair` notifications fire anywhere (no-oracle mode).
    pub fn repair_node_silent(&mut self, n: NodeId) {
        self.node_repair_physical(n);
    }

    /// Physical half of a node repair; true if the node was faulty.
    fn node_repair_physical(&mut self, n: NodeId) -> bool {
        if !self.wiring.node_dead(n.idx()) {
            return false;
        }
        self.set_fault(n, None, false);
        self.emit(|| EventKind::NodeRepair { node: n });
        // the router hardware comes back empty: fresh buffers, credits and
        // allocation state (everything it held was killed at fault time)
        self.chans.reset_node(n.idx());
        self.recompute_credits_and_loads();
        true
    }

    /// Applies a whole static fault set (links then nodes), triggering the
    /// usual controller notifications and control-plane propagation.
    pub fn apply_fault_set(&mut self, fs: &FaultSet) {
        for l in fs.faulty_links().collect::<Vec<_>>() {
            self.inject_link_fault(l.node, l.port);
        }
        for n in fs.faulty_nodes().collect::<Vec<_>>() {
            self.inject_node_fault(n);
        }
    }

    /// Kills a set of messages network-wide (ripped worms / unroutable).
    pub(super) fn kill_messages(&mut self, ids: &HashSet<MessageId>, unroutable: bool) {
        if ids.is_empty() {
            return;
        }
        let geo = self.chans.geo();
        for id in ids {
            self.headers.remove(id);
        }
        let ch = &mut self.chans;
        for n in 0..geo.nodes {
            ch.staging_mut(n).retain(|f| !ids.contains(&f.msg()));
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    // a route whose flits are all in flight is
                    // identified through the output-channel owner;
                    // otherwise through the FIFO front
                    let stale = match ch.route(n, ip, iv) {
                        RouteState::Out(p, v) => {
                            ch.out_owner(n, p.idx(), v.idx()).is_some_and(|m| ids.contains(&m))
                        }
                        _ => false,
                    };
                    let front_dead =
                        ch.fifo_front(n, ip, iv).is_some_and(|f| ids.contains(&f.msg()));
                    ch.fifo_retain(n, ip, iv, |f| !ids.contains(&f.msg()));
                    if front_dead || stale {
                        ch.reset_route(n, ip, iv);
                    }
                }
            }
            for p in 0..geo.degree {
                for v in 0..geo.vcs {
                    if ch.out_owner(n, p, v).is_some_and(|m| ids.contains(&m)) {
                        ch.set_out_owner(n, p, v, None);
                    }
                }
                if ch.out_reg(n, p).is_some_and(|(_, f)| ids.contains(&f.msg())) {
                    ch.set_out_reg(n, p, None);
                }
            }
        }
        // id order, not HashSet order: trace events and retry scheduling
        // must not depend on per-instance hasher state (lockstep
        // differential tests compare event streams across two networks)
        let mut ordered: Vec<MessageId> = ids.iter().copied().collect();
        ordered.sort_unstable();
        for id in ordered {
            if unroutable {
                self.emit(|| EventKind::Unroutable { msg: id.0 });
            } else {
                self.emit(|| EventKind::Kill { msg: id.0 });
            }
            // retry policy: the ripped worm stays logically in flight (same
            // id, same first-attempt inject cycle) and re-enters at its
            // source after the backoff, as long as attempts remain
            match (self.retry, self.stats.meta(id)) {
                (Some(rp), Some(meta)) if meta.attempts < rp.max_attempts => {
                    let due = self.cycle + rp.backoff_cycles.max(1);
                    self.retries.push_back(RetryEntry { due, id, unroutable });
                }
                _ => self.terminate(id, unroutable, self.retry.is_some()),
            }
        }
        self.recompute_credits_and_loads();
    }

    /// Final termination of a killed or unroutable message; `abandoned`
    /// marks one that a retry policy gave up on.
    fn terminate(&mut self, id: MessageId, unroutable: bool, abandoned: bool) {
        if unroutable {
            self.stats.on_unroutable(id);
        } else {
            self.stats.on_kill(id);
        }
        if abandoned {
            self.stats.abandoned_msgs += 1;
        }
    }

    /// Executes fault-plan actions due at the current cycle.
    pub(super) fn run_plan(&mut self) {
        let Some(plan) = &mut self.plan else { return };
        let due: Vec<_> = plan.pop_due(self.cycle).to_vec();
        for pa in due {
            match pa.action {
                FaultAction::FailLink(n, p) => self.inject_link_fault(n, p),
                FaultAction::RepairLink(n, p) => self.repair_link(n, p),
                FaultAction::FailNode(n) => self.inject_node_fault(n),
                FaultAction::RepairNode(n) => self.repair_node(n),
                FaultAction::FailLinkSilent(n, p) => self.inject_link_fault_silent(n, p),
                FaultAction::RepairLinkSilent(n, p) => self.repair_link_silent(n, p),
                FaultAction::FailNodeSilent(n) => self.inject_node_fault_silent(n),
                FaultAction::RepairNodeSilent(n) => self.repair_node_silent(n),
            }
        }
    }

    /// Re-injects messages whose retry backoff elapsed; abandons them when
    /// an endpoint is (still) faulty — end-to-end retransmission cannot
    /// proceed without both endpoints, and waiting indefinitely would stall
    /// the drain loop.
    pub(super) fn run_retries(&mut self) {
        while self.retries.front().is_some_and(|r| r.due <= self.cycle) {
            let r = self.retries.pop_front().expect("checked");
            let Some(meta) = self.stats.meta(r.id).copied() else { continue };
            if self.wiring.node_dead(meta.src.idx()) || self.wiring.node_dead(meta.dst.idx()) {
                self.terminate(r.id, r.unroutable, true);
                continue;
            }
            self.stats.on_retry(r.id);
            let attempt = meta.attempts + 1;
            self.emit(|| EventKind::Retry { msg: r.id.0, attempt });
            self.stage(Header::new(r.id, meta.src, meta.dst, meta.len_flits));
        }
    }

    /// Rebuilds credit counters and adaptivity loads from buffer occupancy
    /// (used after worm kills, which invalidate incremental accounting).
    fn recompute_credits_and_loads(&mut self) {
        let geo = self.chans.geo();
        let depth = self.cfg.buffer_depth;
        let ch = &mut self.chans;
        for n in 0..geo.nodes {
            for p in 0..geo.degree {
                let Some((m, q)) = self.wiring.peer(n, p) else { continue };
                for v in 0..geo.vcs {
                    let occupied = ch.fifo_len(m.idx(), q.idx(), v) as u32;
                    let in_flight =
                        matches!(ch.out_reg(n, p), Some((vc, _)) if vc.idx() == v) as u32;
                    ch.set_out_credits(n, p, v, depth - occupied - in_flight);
                }
            }
        }
        for n in 0..geo.nodes {
            for p in 0..geo.degree {
                ch.set_out_assigned(n, p, 0);
            }
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    if let RouteState::Out(p, _) = ch.route(n, ip, iv) {
                        let buffered = ch.fifo_len(n, ip, iv) as u32;
                        ch.add_out_assigned(n, p.idx(), buffered);
                    }
                }
            }
        }
    }
}

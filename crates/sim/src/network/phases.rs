//! The data path: the node-local phase functions of one cycle — link
//! traversal, injection, routing decisions, ejection and switch
//! allocation — run in ascending node order over the cycle's working set.
//! Within a node they walk the set bits of the arena's occupancy masks in
//! ascending order: the order of a scan over every lane or port, minus the
//! empty lanes and registers, which have nothing to do.

use super::{mark_active, Network};
use crate::flit::MessageId;
use crate::router::{DecisionPhase, RouteState};
use crate::routing::{RouterView, Rows, Verdict};
use ftr_obs::{EventKind, RouteOutcome, TraceEvent};
use ftr_topo::{NodeId, PortId, VcId};

impl Network {
    /// Link traversal: drains each active node's full output registers into
    /// the downstream input FIFOs.
    pub(super) fn phase_link(&mut self, cur: &[u32]) {
        for &ni in cur {
            let ni = ni as usize;
            for p in set_bits(self.chans.reg_word(ni)) {
                let (vc, flit) = self.chans.take_out_reg(ni, p).expect("a set bit holds a flit");
                let Some((m, q)) = self.wiring.live_peer(ni, p) else {
                    // flit caught on a just-failed link. The fault injector
                    // rips every worm touching a dying link, so the message
                    // is normally already killed and untracked; if it IS
                    // still live (a fault path that missed the worm),
                    // dropping the flit silently would leak the message —
                    // stats accounting would never balance and drain()
                    // would hang. Kill it at the barrier instead.
                    if self.stats.tracks(flit.msg()) {
                        self.stats.flits_dropped_on_dead_link += 1;
                        self.scratch.doomed.insert(flit.msg());
                    }
                    continue;
                };
                self.chans.fifo_push_back(m.idx(), q.idx(), vc.idx(), flit);
                mark_active(&mut self.active_mask, &mut self.active_list, m.idx());
                self.scratch.moved = true;
            }
        }
    }

    /// Injection: staging queue -> injection FIFO, bounded by buffer depth.
    pub(super) fn phase_inject(&mut self, cur: &[u32]) {
        let (degree, depth) = (self.chans.geo().degree, self.cfg.buffer_depth as usize);
        for &ni in cur {
            let ni = ni as usize;
            while !self.chans.staging(ni).is_empty() && self.chans.fifo_len(ni, degree, 0) < depth {
                let f = self.chans.staging_mut(ni).pop_front().expect("checked");
                self.chans.fifo_push_back(ni, degree, 0, f);
                self.scratch.moved = true;
            }
        }
    }

    /// Routing decisions over the extended working set: every occupied lane
    /// `l = ip * vcs + iv`, the injection lane last.
    pub(super) fn phase_route(&mut self, cur_ext: &[u32]) {
        let (vcs, words) = (self.vcs, self.chans.geo().lane_words);
        for &ni in cur_ext {
            let n = NodeId(ni);
            if self.wiring.node_dead(n.idx()) {
                continue;
            }
            for w in 0..words {
                for l in set_bits(self.chans.lane_word(n.idx(), w)).map(|b| w * 64 + b) {
                    self.route_one(n, l / vcs, l % vcs);
                }
            }
        }
    }

    /// Decision handling for one input VC.
    fn route_one(&mut self, n: NodeId, ip: usize, iv: usize) {
        let ni = n.idx();
        if self.chans.route(ni, ip, iv) != RouteState::Unrouted {
            return;
        }
        let Some(msg) = self.chans.fifo_front(ni, ip, iv).filter(|f| f.is_head()).map(|f| f.msg())
        else {
            return;
        };

        let degree = self.chans.geo().degree;
        let in_port = if ip < degree { Some(PortId(ip as u8)) } else { None };

        // advance the decision countdown
        match self.chans.phase_of(ni, ip, iv) {
            Some(DecisionPhase::Waiting(c)) if c > 1 => {
                self.chans.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(c - 1)));
                return;
            }
            Some(DecisionPhase::Parked) if !self.dense_reference => {
                // nothing the `Wait` depends on changed since it was given
                // (every such change wakes the lane): the answer stands,
                // and so do the wants probed with it
                self.emit_route_wait(n, msg, ip, iv, false);
                return;
            }
            Some(DecisionPhase::Waiting(_) | DecisionPhase::Parked) => {
                // latency elapsed this cycle, or the polling reference asks a
                // parked head like any other: consult and apply below
                self.chans.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
            }
            Some(DecisionPhase::Ready) | None => {}
        }

        let header = self.headers.get_mut(&msg).expect("a head flit's message has a header");
        let header_copy = *header;

        // destination reached: deliver without consulting the algorithm
        if header_copy.dst == n {
            self.chans.set_route(ni, ip, iv, RouteState::Local);
            let first = !self.chans.counted(ni, ip, iv);
            self.chans.set_counted(ni, ip, iv, true);
            if first {
                self.stats.decision_steps.add(0);
                self.emit(|| EventKind::RouteDecision {
                    node: n,
                    msg: msg.0,
                    in_port,
                    in_vc: VcId(iv as u8),
                    outcome: RouteOutcome::Deliver,
                    steps: 0,
                    misrouted: header_copy.misrouted,
                });
            }
            return;
        }

        // consult the controller
        let rows = Rows::Live(self.wiring.row(ni), self.chans.out_rows(ni));
        let (cycle, traced) = (self.cycle, self.sink.is_some());
        let view = RouterView { node: n, cycle, traced, vcs: self.vcs, rows };
        // the controller edits the message's only header in place
        let dec = self.ctrls[ni].route(&view, header, in_port, VcId(iv as u8));
        let misrouted = header.misrouted;

        let first_sight = self.chans.phase_of(ni, ip, iv).is_none();
        if first_sight {
            if !self.chans.counted(ni, ip, iv) {
                self.chans.set_counted(ni, ip, iv, true);
                self.stats.decision_steps.add(dec.steps as u64);
                self.emit(|| EventKind::RouteDecision {
                    node: n,
                    msg: msg.0,
                    in_port,
                    in_vc: VcId(iv as u8),
                    outcome: match dec.verdict {
                        Verdict::Route(p, v) => RouteOutcome::Routed(p, v),
                        Verdict::Deliver => RouteOutcome::Deliver,
                        Verdict::Wait => RouteOutcome::Wait,
                        Verdict::Unroutable => RouteOutcome::Unroutable,
                    },
                    steps: dec.steps,
                    misrouted,
                });
            }
            // Modeled decision latency: steps × cycles-per-step total cycles,
            // of which this (first-sight) cycle is one. A cost of 0 or 1
            // resolves combinationally — the verdict applies this same cycle —
            // while a cost of c ≥ 2 inserts c − 1 explicit waiting cycles.
            // Zero cost arises legitimately (zero-weighted rules, or
            // `decision_cycles_per_step == 0` modeling a free decision stage)
            // and behaves exactly like cost 1; no clamping needed.
            let delay = dec.steps.saturating_mul(self.cfg.decision_cycles_per_step);
            if delay > 1 {
                self.chans.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(delay - 1)));
                return;
            }
            self.chans.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
        }

        // apply the verdict
        match dec.verdict {
            Verdict::Deliver => {
                self.chans.set_route(ni, ip, iv, RouteState::Local);
            }
            Verdict::Wait => {
                if !dec.polled {
                    self.chans.set_phase(ni, ip, iv, Some(DecisionPhase::Parked));
                }
                self.emit_route_wait(n, msg, ip, iv, true);
            }
            Verdict::Unroutable => {
                self.scratch.doomed.insert(msg);
            }
            Verdict::Route(p, v) => {
                let ok = p.idx() < degree
                    && v.idx() < self.vcs
                    && self.wiring.live_peer(ni, p.idx()).is_some()
                    && self.chans.out_channel_free(ni, p.idx(), v.idx());
                if ok {
                    self.chans.set_out_owner(ni, p.idx(), v.idx(), Some(msg));
                    self.chans.set_route(ni, ip, iv, RouteState::Out(p, v));
                    self.chans.set_misrouted(ni, ip, iv, misrouted);
                    self.chans.add_out_assigned(ni, p.idx(), header_copy.len_flits);
                    self.emit(|| EventKind::VcAcquire { node: n, msg: msg.0, port: p, vc: v });
                } else {
                    // granted a route but the output channel is unusable
                    // this cycle: a VC-allocation stall
                    self.emit(|| EventKind::VcStall { node: n, msg: msg.0, port: p, vc: v });
                }
            }
        }
    }

    /// Trace completeness: a waiting head never reaches the `VcStall` path
    /// (the controller withheld the grant), so each blocked cycle — asked or
    /// parked — and the channels that would unblock it are recorded here: the
    /// diagnoser's wait-for edges. A head just asked is probed (`fresh`); a
    /// parked one re-emits the wants its lane kept from the probe it parked
    /// with, since whatever could change them also wakes the lane.
    fn emit_route_wait(&mut self, n: NodeId, msg: MessageId, ip: usize, iv: usize, fresh: bool) {
        if self.sink.is_none() {
            return;
        }
        let lane = n.idx() * self.chans.geo().lanes + ip * self.vcs + iv;
        let mut wants = std::mem::take(&mut self.lane_wants[lane]);
        if fresh {
            let header = self.headers[&msg];
            let in_port = (ip < self.chans.geo().degree).then_some(PortId(ip as u8));
            wants = self.probe_wants(n, &header, in_port, VcId(iv as u8));
        }
        // the event borrows the lane's list and hands it back
        let ev = TraceEvent {
            cycle: self.cycle,
            kind: EventKind::RouteWait { node: n, msg: msg.0, wants },
        };
        if let Some(sink) = &self.sink {
            sink.record(&ev);
        }
        let EventKind::RouteWait { wants, .. } = ev.kind else { unreachable!() };
        self.lane_wants[lane] = wants;
    }

    /// Ejection then switch allocation over the extended working set.
    ///
    /// Slot `s = ip * vcs + iv` names input lane `(ip, iv)`, in round-robin
    /// order. One pass over a node's occupied lanes ejects (one flit per
    /// input port, delivery first) and builds, per output port, the set of
    /// slots requesting it — routed there, flit buffered, credit left — and
    /// its misrouted subset; each requested output port with an empty
    /// register then picks its winner. Serving one port leaves the other
    /// ports' sets valid (`DESIGN.md` §14): it only blocks the winner's
    /// input port, which later picks mask out. Freed input slots return
    /// their credit upstream after the whole pass.
    pub(super) fn phase_eject_switch(&mut self, cur_ext: &[u32]) {
        let (degree, vcs, lane_words) =
            (self.chans.geo().degree, self.vcs, self.chans.geo().lane_words);
        let slots = (degree + 1) * vcs;
        let words = slots.div_ceil(64);
        // per output port its request row then its misrouted row; last, the
        // row of slots whose input port already moved a flit this cycle
        let mut arb = std::mem::take(&mut self.scratch.arb);
        arb.resize((2 * degree + 1) * words, 0);
        let (sets, blocked) = arb.split_at_mut(2 * degree * words);
        for &ni in cur_ext {
            let n = NodeId(ni);
            let ni = ni as usize;
            sets.fill(0);
            blocked.fill(0);
            // bit `ip`: input port `ip` ejected a flit; bit `p`: some lane
            // requests output port `p`
            let (mut ejected, mut requested) = (0u64, 0u64);
            for w in 0..lane_words {
                for s in set_bits(self.chans.lane_word(ni, w)).map(|b| w * 64 + b) {
                    let (ip, iv) = (s / vcs, s % vcs);
                    match self.chans.route(ni, ip, iv) {
                        RouteState::Local if ejected >> ip & 1 == 0 => {
                            ejected |= 1 << ip;
                            let flit = self.chans.fifo_pop_front(ni, ip, iv).expect("checked");
                            let msg = flit.msg();
                            self.scratch.moved = true;
                            if flit.is_head() {
                                self.stats.on_head_arrival(msg, self.headers[&msg].hops);
                            }
                            if flit.closes_worm() {
                                self.headers.remove(&msg);
                                self.stats.on_deliver(msg, self.cycle);
                                self.emit(|| EventKind::Deliver { node: n, msg: msg.0 });
                                self.chans.reset_route(ni, ip, iv);
                            }
                            if ip < degree {
                                self.scratch.credit_returns.push((ni as u32, ip as u8, iv as u8));
                            }
                        }
                        RouteState::Out(p, ov)
                            if self.chans.out_credits(ni, p.idx(), ov.idx()) > 0 =>
                        {
                            requested |= 1 << p.idx();
                            let row = 2 * p.idx() * words + s / 64;
                            sets[row] |= 1 << (s % 64);
                            if self.chans.misrouted(ni, ip, iv) {
                                sets[row + words] |= 1 << (s % 64);
                            }
                        }
                        _ => {}
                    }
                }
            }
            for ip in set_bits(ejected) {
                block_port(blocked, ip, vcs);
            }

            // switch: one flit per requested output port whose register is
            // empty, round-robin over inputs
            for p in set_bits(requested & !self.chans.reg_word(ni)) {
                let (req, mis) = sets[2 * p * words..][..2 * words].split_at(words);
                let start = self.chans.rr(ni, p) as usize;
                let prioritize = self.cfg.prioritize_misrouted;
                let Some(s) = arbitrate(req, mis, blocked, start, prioritize) else {
                    continue;
                };
                self.chans.set_rr(ni, p, ((s + 1) % slots) as u32);
                let (ip, iv) = (s / vcs, s % vcs);
                let RouteState::Out(_, ov) = self.chans.route(ni, ip, iv) else {
                    unreachable!("only routed lanes request an output")
                };
                block_port(blocked, ip, vcs);
                let flit = self.chans.fifo_pop_front(ni, ip, iv).expect("winner has flit");
                self.scratch.moved = true;
                if flit.is_head() {
                    self.headers
                        .get_mut(&flit.msg())
                        .expect("a head flit's message has a header")
                        .hops += 1;
                }
                if flit.closes_worm() {
                    self.chans.reset_route(ni, ip, iv);
                    self.chans.set_out_owner(ni, p, ov.idx(), None);
                    self.emit(|| EventKind::VcRelease {
                        node: n,
                        msg: flit.msg().0,
                        port: PortId(p as u8),
                        vc: ov,
                    });
                }
                let c = self.chans.out_credits(ni, p, ov.idx());
                self.chans.set_out_credits(ni, p, ov.idx(), c - 1);
                self.chans.sub_out_assigned_sat(ni, p, 1);
                self.chans.set_out_reg(ni, p, Some((ov, flit)));
                if ip < degree {
                    self.scratch.credit_returns.push((ni as u32, ip as u8, iv as u8));
                }
            }
        }
        self.scratch.arb = arb;
    }
}

/// The indices of `word`'s set bits, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (b < 64).then_some(b)
    })
}

/// Marks every slot of input port `ip` as unavailable to the switch.
fn block_port(blocked: &mut [u64], ip: usize, vcs: usize) {
    for s in ip * vcs..(ip + 1) * vcs {
        blocked[s / 64] |= 1 << (s % 64);
    }
}

/// Round-robin winner for one output port: the first unblocked requesting
/// slot at or after `start`, wrapping. With `prioritize` (fairness for
/// misrouted messages) the misrouted requesters are searched first.
fn arbitrate(
    req: &[u64],
    mis: &[u64],
    blocked: &[u64],
    start: usize,
    prioritize: bool,
) -> Option<usize> {
    let pick = |set: &[u64]| {
        let w0 = start / 64;
        let open = |w: usize| set[w] & !blocked[w];
        let hit =
            |w: usize, bits: u64| (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
        // word w0 from `start` up, then the other words in order and w0
        // once more, whole: whatever it still offers lies below `start`
        hit(w0, open(w0) & (!0 << (start % 64)))
            .or_else(|| (w0 + 1..set.len()).chain(0..=w0).find_map(|w| hit(w, open(w))))
    };
    prioritize.then(|| pick(mis)).flatten().or_else(|| pick(req))
}

#[cfg(test)]
mod tests {
    use super::{arbitrate, block_port};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `arbitrate` against the slot scan it replaced — up to two passes
        /// (misrouted only, then everyone) over every slot from the
        /// round-robin pointer, first eligible lane wins — on switches of
        /// 10, 35, 65 (negative-hop on a 12×12 mesh) and 160 slots: one,
        /// two and three words.
        #[test]
        fn bitset_pick_matches_the_slot_scan(
            geo in 0usize..4,
            noise in any::<[u64; 9]>(),
            used_ports in any::<u8>(),
            start in any::<usize>(),
            prioritize in any::<bool>(),
        ) {
            let (degree, vcs) = [(4usize, 2usize), (6, 5), (4, 13), (4, 32)][geo];
            let slots = (degree + 1) * vcs;
            let (words, start) = (slots.div_ceil(64), start % slots);
            // sparse requests, none past the last slot
            let real = |w: usize| if (w + 1) * 64 <= slots { !0 } else { (1u64 << (slots % 64)) - 1 };
            let req: Vec<u64> = (0..words).map(|w| noise[w] & noise[3 + w] & real(w)).collect();
            let mis: Vec<u64> = (0..words).map(|w| req[w] & noise[6 + w]).collect();
            let mut blocked = vec![0; words];
            for ip in (0..=degree).filter(|ip| used_ports >> ip & 1 == 1) {
                block_port(&mut blocked, ip, vcs);
            }
            let bit = |set: &[u64], s: usize| set[s / 64] >> (s % 64) & 1 == 1;
            let scan = |misrouted_only: bool| {
                (0..slots).map(|off| (start + off) % slots).find(|&s| {
                    let used = used_ports >> (s / vcs) & 1 == 1;
                    !used && bit(&req, s) && (!misrouted_only || bit(&mis, s))
                })
            };
            let expected = prioritize.then(|| scan(true)).flatten().or_else(|| scan(false));
            prop_assert_eq!(arbitrate(&req, &mis, &blocked, start, prioritize), expected);
        }
    }
}

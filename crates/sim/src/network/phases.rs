//! The data path: the node-local phase functions one shard runs between
//! two barriers — link traversal, injection, routing decisions, ejection
//! and switch allocation — and the per-shard scratch that carries what
//! crosses a shard boundary to the master.

#![allow(clippy::needless_range_loop)] // index loops mirror the hardware structure

use super::closes_worm;
use super::view::probe_wants;
use super::wiring::Wiring;
use super::SimConfig;
use crate::arena::ChanRef;
use crate::flit::{Flit, Header, MessageId};
use crate::router::{DecisionPhase, RouteState};
use crate::routing::{NodeController, RouterView, Rows, Verdict};
use ftr_obs::{EventKind, RouteOutcome, TraceEvent};
use ftr_topo::{NodeId, PortId, VcId};

/// A flit crossing a shard boundary, parked until the phase barrier.
pub(super) struct Handoff {
    pub(super) node: u32,
    pub(super) port: u8,
    pub(super) vc: u8,
    pub(super) flit: Flit,
}

/// A statistics update recorded inside a shard and replayed by the master
/// at the barrier (SimStats is not sharded; all its accumulators commute,
/// and shard-order replay reproduces the sequential update order).
pub(super) enum StatOp {
    /// Decision-step count of a newly counted routing decision.
    Decision(u64),
    /// A head flit reached its destination with this hop count.
    HeadArrival(MessageId, u32),
    /// A tail ejected: the message is delivered at the current cycle.
    Deliver(MessageId),
}

/// Per-shard working storage: everything a shard produces that crosses its
/// node range is buffered here and applied by the master at the barrier,
/// in shard order.
#[derive(Default)]
pub(super) struct ShardScratch {
    /// In-shard nodes that received their first flit this cycle.
    pub(super) newly_active: Vec<u32>,
    /// Flits destined for another shard's input FIFOs.
    pub(super) handoff: Vec<Handoff>,
    /// Messages whose flit was caught on a just-dead link (pre-filter; the
    /// master applies the liveness check).
    pub(super) dropped: Vec<MessageId>,
    /// Messages declared unroutable by this shard's routing decisions.
    pub(super) unroutable: Vec<MessageId>,
    /// Credits to return upstream after switch allocation: `(node, port,
    /// vc)` of the freed input slot.
    pub(super) credit_returns: Vec<(u32, u8, u8)>,
    /// Trace events in shard-local emission order.
    pub(super) events: Vec<TraceEvent>,
    /// Stats updates in shard-local order.
    pub(super) ops: Vec<StatOp>,
    /// Slot sets of the node `phase_eject_switch` is serving.
    arb: Vec<u64>,
    /// Whether this shard moved any flit this cycle.
    pub(super) moved: bool,
}

impl ShardScratch {
    /// Buffers a trace event for the barrier flush (the closure only runs
    /// when a sink is attached).
    #[inline]
    fn emit(&mut self, ctx: &StepCtx<'_>, kind: impl FnOnce() -> EventKind) {
        if ctx.sink_on {
            self.events.push(TraceEvent { cycle: ctx.cycle, kind: kind() });
        }
    }
}

/// Immutable per-step context shared by every shard.
pub(super) struct StepCtx<'a> {
    pub(super) wiring: &'a Wiring,
    pub(super) cfg: SimConfig,
    pub(super) vcs: usize,
    pub(super) degree: usize,
    pub(super) cycle: u64,
    pub(super) sink_on: bool,
    /// The polling reference (`Network::set_dense_reference`): consult the
    /// controller for every waiting head every cycle, parked or not.
    pub(super) poll_waits: bool,
}

/// Which phase bundle a [`run_shard`] call executes.
#[derive(Clone, Copy)]
pub(super) enum PhaseKind {
    /// Link traversal: output registers -> downstream input FIFOs.
    Link,
    /// Injection (staging -> injection FIFO) then routing decisions.
    InjectRoute,
    /// Ejection then switch allocation.
    EjectSwitch,
}

/// One shard's slice of the world for a phase run.
pub(super) struct ShardTask<'a> {
    /// Owned node range `lo..hi`.
    pub(super) lo: usize,
    pub(super) hi: usize,
    pub(super) ch: ChanRef<'a>,
    pub(super) ctrls: &'a mut [Box<dyn NodeController>],
    pub(super) scr: &'a mut ShardScratch,
    /// Working set restricted to this shard (global ids, ascending).
    pub(super) cur: &'a [u32],
    /// Extended working set restricted to this shard.
    pub(super) cur_ext: &'a [u32],
}

/// Executes one phase bundle for one shard. Free function so it can run
/// on a scoped worker thread without borrowing the `Network`.
pub(super) fn run_shard(ctx: &StepCtx<'_>, phase: PhaseKind, t: &mut ShardTask<'_>) {
    match phase {
        PhaseKind::Link => phase_link(ctx, t),
        PhaseKind::InjectRoute => {
            phase_inject(ctx, t);
            phase_route(ctx, t);
        }
        PhaseKind::EjectSwitch => phase_eject_switch(ctx, t),
    }
}

/// Link traversal: drains each active node's output registers into the
/// downstream input FIFOs (in-shard) or the handoff queue (cross-shard).
fn phase_link(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur {
        let ni = ni as usize;
        for p in 0..ctx.degree {
            let Some((vc, flit)) = t.ch.take_out_reg(ni, p) else {
                continue;
            };
            let Some((m, q)) = ctx.wiring.live_peer(ni, p) else {
                // caught on a just-dead link — the master applies the
                // liveness gate and kills through the normal path
                t.scr.dropped.push(flit.msg);
                continue;
            };
            if m.idx() >= t.lo && m.idx() < t.hi {
                t.ch.fifo_push_back(m.idx(), q.idx(), vc.idx(), flit);
                t.scr.newly_active.push(m.idx() as u32);
            } else {
                t.scr.handoff.push(Handoff { node: m.0, port: q.0, vc: vc.0, flit });
            }
            t.scr.moved = true;
        }
    }
}

/// Injection: staging queue -> injection FIFO, bounded by buffer depth.
fn phase_inject(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur {
        let ni = ni as usize;
        while !t.ch.staging(ni).is_empty()
            && t.ch.fifo_len(ni, ctx.degree, 0) < ctx.cfg.buffer_depth as usize
        {
            let f = t.ch.staging_mut(ni).pop_front().expect("checked");
            t.ch.fifo_push_back(ni, ctx.degree, 0, f);
            t.scr.moved = true;
        }
    }
}

/// Routing decisions over the extended working set.
fn phase_route(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur_ext {
        let n = NodeId(ni);
        if ctx.wiring.node_dead(n.idx()) {
            continue;
        }
        for ip in 0..=ctx.degree {
            let lanes = if ip == ctx.degree { 1 } else { ctx.vcs };
            for iv in 0..lanes {
                route_one(ctx, t, n, ip, iv);
            }
        }
    }
}

/// Decision handling for one input VC.
fn route_one(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>, n: NodeId, ip: usize, iv: usize) {
    let ni = n.idx();
    if t.ch.route(ni, ip, iv) != RouteState::Unrouted {
        return;
    }
    let Some(header_copy) = t.ch.fifo_front(ni, ip, iv).and_then(|f| f.header()).copied() else {
        return;
    };

    let in_port = if ip < ctx.degree { Some(PortId(ip as u8)) } else { None };

    // advance the decision countdown
    match t.ch.phase_of(ni, ip, iv) {
        Some(DecisionPhase::Waiting(c)) if c > 1 => {
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(c - 1)));
            return;
        }
        Some(DecisionPhase::Parked) if !ctx.poll_waits => {
            // nothing the `Wait` depends on changed since it was given
            // (every such change wakes the lane): the answer stands
            emit_route_wait(ctx, t, n, &header_copy, in_port, iv);
            return;
        }
        Some(DecisionPhase::Waiting(_) | DecisionPhase::Parked) => {
            // latency elapsed this cycle, or the polling reference asks a
            // parked head like any other: consult and apply below
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
        }
        Some(DecisionPhase::Ready) | None => {}
    }

    // destination reached: deliver without consulting the algorithm
    if header_copy.dst == n {
        t.ch.set_route(ni, ip, iv, RouteState::Local);
        let first = !t.ch.counted(ni, ip, iv);
        t.ch.set_counted(ni, ip, iv, true);
        if first {
            t.scr.ops.push(StatOp::Decision(0));
            t.scr.emit(ctx, || EventKind::RouteDecision {
                node: n,
                msg: header_copy.msg.0,
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
    let rows = Rows::Live(ctx.wiring.row(ni), t.ch.out_rows(ni));
    let view = RouterView { node: n, cycle: ctx.cycle, traced: ctx.sink_on, vcs: ctx.vcs, rows };
    let mut header = header_copy;
    let dec = t.ctrls[ni - t.lo].route(&view, &mut header, in_port, VcId(iv as u8));
    // write back header updates
    if let Some(h) = t.ch.fifo_front_mut(ni, ip, iv).and_then(|f| f.header_mut()) {
        *h = header;
    }

    let first_sight = t.ch.phase_of(ni, ip, iv).is_none();
    if first_sight {
        if !t.ch.counted(ni, ip, iv) {
            t.ch.set_counted(ni, ip, iv, true);
            t.scr.ops.push(StatOp::Decision(dec.steps as u64));
            t.scr.emit(ctx, || EventKind::RouteDecision {
                node: n,
                msg: header_copy.msg.0,
                in_port,
                in_vc: VcId(iv as u8),
                outcome: match dec.verdict {
                    Verdict::Route(p, v) => RouteOutcome::Routed(p, v),
                    Verdict::Deliver => RouteOutcome::Deliver,
                    Verdict::Wait => RouteOutcome::Wait,
                    Verdict::Unroutable => RouteOutcome::Unroutable,
                },
                steps: dec.steps,
                misrouted: header.misrouted,
            });
        }
        // Modeled decision latency: steps × cycles-per-step total cycles,
        // of which this (first-sight) cycle is one. A cost of 0 or 1
        // resolves combinationally — the verdict applies this same cycle —
        // while a cost of c ≥ 2 inserts c − 1 explicit waiting cycles.
        // Zero cost arises legitimately (zero-weighted rules, or
        // `decision_cycles_per_step == 0` modeling a free decision stage)
        // and behaves exactly like cost 1; no clamping needed.
        let delay = dec.steps.saturating_mul(ctx.cfg.decision_cycles_per_step);
        if delay > 1 {
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(delay - 1)));
            return;
        }
        t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
    }

    // apply the verdict
    match dec.verdict {
        Verdict::Deliver => {
            t.ch.set_route(ni, ip, iv, RouteState::Local);
        }
        Verdict::Wait => {
            if !dec.polled {
                t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Parked));
            }
            emit_route_wait(ctx, t, n, &header, in_port, iv);
        }
        Verdict::Unroutable => {
            t.scr.unroutable.push(header_copy.msg);
        }
        Verdict::Route(p, v) => {
            let ok = p.idx() < ctx.degree
                && v.idx() < ctx.vcs
                && ctx.wiring.live_peer(ni, p.idx()).is_some()
                && t.ch.out_channel_free(ni, p.idx(), v.idx());
            let msg = header_copy.msg.0;
            if ok {
                t.ch.set_out_owner(ni, p.idx(), v.idx(), Some(header_copy.msg));
                t.ch.set_route(ni, ip, iv, RouteState::Out(p, v));
                t.ch.set_misrouted(ni, ip, iv, header.misrouted);
                t.ch.add_out_assigned(ni, p.idx(), header_copy.len_flits);
                t.scr.emit(ctx, || EventKind::VcAcquire { node: n, msg, port: p, vc: v });
            } else {
                // granted a route but the output channel is unusable
                // this cycle: a VC-allocation stall
                t.scr.emit(ctx, || EventKind::VcStall { node: n, msg, port: p, vc: v });
            }
        }
    }
}

/// Trace completeness: a waiting head never reaches the `VcStall` path
/// (the controller withheld the grant), so each blocked cycle — asked or
/// parked — and the channels that would unblock it are recorded here: the
/// diagnoser's wait-for edges.
fn emit_route_wait(
    ctx: &StepCtx<'_>,
    t: &mut ShardTask<'_>,
    n: NodeId,
    header: &Header,
    in_port: Option<PortId>,
    iv: usize,
) {
    if ctx.sink_on {
        let ctrl = t.ctrls[n.idx() - t.lo].as_mut();
        let wants = probe_wants(ctx, ctrl, n, header, in_port, VcId(iv as u8));
        t.scr.emit(ctx, || EventKind::RouteWait { node: n, msg: header.msg.0, wants });
    }
}

/// Ejection then switch allocation over the extended working set.
///
/// Slot `s = ip * vcs + iv` names input lane `(ip, iv)`, in round-robin
/// order. One pass over a node's lanes ejects (one flit per input port,
/// delivery first) and builds, per output port, the set of slots
/// requesting it — routed there, flit buffered, credit left — and its
/// misrouted subset; each free output port then picks its winner. Serving
/// one port leaves the other ports' sets valid (`DESIGN.md` §14): it only
/// blocks the winner's input port, which later picks mask out.
fn phase_eject_switch(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    let nports = ctx.degree + 1;
    let slots = nports * ctx.vcs;
    let words = slots.div_ceil(64);
    // per output port its request row then its misrouted row; last, the
    // row of slots whose input port already moved a flit this cycle
    let mut arb = std::mem::take(&mut t.scr.arb);
    arb.resize((2 * ctx.degree + 1) * words, 0);
    let (sets, blocked) = arb.split_at_mut(2 * ctx.degree * words);
    for &ni in t.cur_ext {
        let n = NodeId(ni);
        let ni = ni as usize;
        sets.fill(0);
        blocked.fill(0);
        let mut requested = false;
        for ip in 0..nports {
            let lanes = if ip == ctx.degree { 1 } else { ctx.vcs };
            let mut ejected = false;
            for iv in 0..lanes {
                if t.ch.fifo_len(ni, ip, iv) == 0 {
                    continue;
                }
                match t.ch.route(ni, ip, iv) {
                    RouteState::Local if !ejected => {
                        ejected = true;
                        let flit = t.ch.fifo_pop_front(ni, ip, iv).expect("checked");
                        t.scr.moved = true;
                        if let Some(h) = flit.header() {
                            t.scr.ops.push(StatOp::HeadArrival(flit.msg, h.hops));
                        }
                        if closes_worm(&flit) {
                            t.scr.ops.push(StatOp::Deliver(flit.msg));
                            t.scr.emit(ctx, || EventKind::Deliver { node: n, msg: flit.msg.0 });
                            t.ch.reset_route(ni, ip, iv);
                        }
                        if ip < ctx.degree {
                            t.scr.credit_returns.push((ni as u32, ip as u8, iv as u8));
                        }
                    }
                    RouteState::Out(p, ov) if t.ch.out_credits(ni, p.idx(), ov.idx()) > 0 => {
                        requested = true;
                        let s = ip * ctx.vcs + iv;
                        let row = 2 * p.idx() * words + s / 64;
                        sets[row] |= 1 << (s % 64);
                        if t.ch.misrouted(ni, ip, iv) {
                            sets[row + words] |= 1 << (s % 64);
                        }
                    }
                    _ => {}
                }
            }
            if ejected {
                block_port(blocked, ip, ctx.vcs);
            }
        }
        if !requested {
            continue;
        }

        // switch: one flit per output port, round-robin over inputs
        for p in 0..ctx.degree {
            if t.ch.out_reg(ni, p).is_some() {
                continue;
            }
            let (req, mis) = sets[2 * p * words..][..2 * words].split_at(words);
            let start = t.ch.rr(ni, p) as usize;
            let Some(s) = arbitrate(req, mis, blocked, start, ctx.cfg.prioritize_misrouted) else {
                continue;
            };
            t.ch.set_rr(ni, p, ((s + 1) % slots) as u32);
            let (ip, iv) = (s / ctx.vcs, s % ctx.vcs);
            let RouteState::Out(_, ov) = t.ch.route(ni, ip, iv) else {
                unreachable!("only routed lanes request an output")
            };
            block_port(blocked, ip, ctx.vcs);
            let mut flit = t.ch.fifo_pop_front(ni, ip, iv).expect("winner has flit");
            t.scr.moved = true;
            if let Some(h) = flit.header_mut() {
                h.hops += 1;
            }
            if closes_worm(&flit) {
                t.ch.reset_route(ni, ip, iv);
                t.ch.set_out_owner(ni, p, ov.idx(), None);
                t.scr.emit(ctx, || EventKind::VcRelease {
                    node: n,
                    msg: flit.msg.0,
                    port: PortId(p as u8),
                    vc: ov,
                });
            }
            let c = t.ch.out_credits(ni, p, ov.idx());
            t.ch.set_out_credits(ni, p, ov.idx(), c - 1);
            t.ch.sub_out_assigned_sat(ni, p, 1);
            t.ch.set_out_reg(ni, p, Some((ov, flit)));
            if ip < ctx.degree {
                t.scr.credit_returns.push((ni as u32, ip as u8, iv as u8));
            }
        }
    }
    t.scr.arb = arb;
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

//! Struct-of-arrays channel arena: the flit and channel storage of every
//! router in one set of flat, node-major arrays.
//!
//! Fixed-capacity ring FIFOs packed into one `Vec<Flit>`, plus parallel
//! arrays for per-lane routing state, per-output channel allocation and
//! credits, and per-port registers. A flit is 8 bytes — its message id and
//! two bits — and a link register 16: the header is not here, the network
//! keeps one per message. Two properties matter beyond cache behaviour:
//!
//! - **Node-major layout**: every array is ordered by node id, so one
//!   node's lanes, output channels and port registers are contiguous in
//!   every array — the rows a [`crate::routing::RouterView`] windows
//!   ([`Channels::out_rows`]).
//! - **Occupancy masks**: per node, one bit per lane (set ⟺ its FIFO holds
//!   a flit) and one bit per port (set ⟺ its link register holds one),
//!   written only by the FIFO and register mutators below. The phases walk
//!   their set bits instead of every lane and port, and the scheduler's
//!   activation predicate ([`Channels::has_work`]) tests their words.
//! - **Bounded FIFOs**: credit-based flow control guarantees a virtual
//!   channel never holds more than `buffer_depth` flits, so each lane is a
//!   ring of exactly `depth` slots; an overflow is a hard assertion (a
//!   credit-accounting bug, never a full buffer).
//!
//! Lane layout per node: ports `0..degree` each contribute `vcs` input
//! lanes, followed by one injection lane (port index `degree`, VC 0).

use crate::flit::{Flit, MessageId};
use crate::router::{DecisionPhase, RouteState};
use ftr_topo::VcId;
use std::collections::VecDeque;

/// Array-shape parameters of [`Channels`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geometry {
    /// Total nodes in the network.
    pub nodes: usize,
    /// Network ports per node.
    pub degree: usize,
    /// Virtual channels per network port.
    pub vcs: usize,
    /// FIFO capacity per lane, in flits.
    pub depth: usize,
    /// Input lanes per node: `degree * vcs` network lanes + 1 injection.
    pub lanes: usize,
    /// Words of a node's lane mask: `lanes.div_ceil(64)`.
    pub lane_words: usize,
}

impl Geometry {
    pub fn new(nodes: usize, degree: usize, vcs: usize, depth: usize) -> Self {
        let lanes = degree * vcs + 1;
        Geometry { nodes, degree, vcs, depth, lanes, lane_words: lanes.div_ceil(64) }
    }

    /// Lanes (VCs) on input port `ip`; the injection port has one.
    #[inline]
    pub fn vcs_at(&self, ip: usize) -> usize {
        if ip == self.degree {
            1
        } else {
            self.vcs
        }
    }

    /// Node-relative lane index of `(ip, iv)` — also the lane's slot in
    /// switch arbitration; the injection lane `(degree, 0)` comes last.
    #[inline]
    fn lane_of(&self, ip: usize, iv: usize) -> usize {
        debug_assert!(iv < self.vcs_at(ip), "port {ip} has no lane {iv}");
        ip * self.vcs + iv
    }
}

const PLACEHOLDER: Flit = Flit::new(MessageId(0), false, false);

/// One node's rows of `out_owner`, `out_credits`, `out_assigned` and
/// `out_reg`, borrowed in place: what the node's information units read
/// ([`crate::routing::RouterView`]).
#[derive(Clone, Copy)]
pub(crate) struct OutRows<'a> {
    owner: &'a [Option<MessageId>],
    credits: &'a [u32],
    assigned: &'a [u32],
    reg: &'a [Option<(VcId, Flit)>],
}

impl OutRows<'_> {
    /// Whether channel `c = p * vcs + v` is allocatable (idle + credit).
    #[inline]
    pub fn free(&self, c: usize) -> bool {
        self.owner[c].is_none() && self.credits[c] > 0
    }

    /// Flits still assigned to port `p`, the one in its link register
    /// included.
    #[inline]
    pub fn load(&self, p: usize) -> u32 {
        self.assigned[p] + self.reg[p].is_some() as u32
    }
}

/// The arena itself — see the module docs for the layout.
pub(crate) struct Channels {
    geo: Geometry,
    /// Ring storage: `depth` slots per lane, `lanes` lanes per node.
    fifo_buf: Vec<Flit>,
    /// Ring head offset per lane.
    fifo_head: Vec<u32>,
    /// Occupied slots per lane.
    fifo_len: Vec<u32>,
    /// Route of the message at each lane's FIFO front.
    route: Vec<RouteState>,
    /// Decision progress per lane.
    phase: Vec<Option<DecisionPhase>>,
    /// Whether the current head's decision steps were counted.
    counted: Vec<bool>,
    /// Fault-misrouted marker of the routed message (fairness hint).
    misrouted: Vec<bool>,
    /// Output-channel owner, indexed `node * degree * vcs + p * vcs + v`.
    out_owner: Vec<Option<MessageId>>,
    /// Downstream credits, same indexing as `out_owner`.
    out_credits: Vec<u32>,
    /// Per node-port link register, indexed `node * degree + p`.
    out_reg: Vec<Option<(VcId, Flit)>>,
    /// Per node-port round-robin arbitration pointer.
    rr: Vec<u32>,
    /// Per node-port flits still assigned to the output (adaptivity load).
    out_assigned: Vec<u32>,
    /// Per node: locally generated flits awaiting the injection FIFO.
    staging: Vec<VecDeque<Flit>>,
    /// Per node `lane_words` words: bit `l` set ⟺ lane `l`'s FIFO is
    /// non-empty.
    lane_mask: Vec<u64>,
    /// Per node one word: bit `p` set ⟺ port `p`'s link register is full.
    reg_mask: Vec<u64>,
}

impl Channels {
    pub fn new(geo: Geometry) -> Self {
        let n = geo.nodes;
        Channels {
            geo,
            fifo_buf: vec![PLACEHOLDER; n * geo.lanes * geo.depth],
            fifo_head: vec![0; n * geo.lanes],
            fifo_len: vec![0; n * geo.lanes],
            route: vec![RouteState::Unrouted; n * geo.lanes],
            phase: vec![None; n * geo.lanes],
            counted: vec![false; n * geo.lanes],
            misrouted: vec![false; n * geo.lanes],
            out_owner: vec![None; n * geo.degree * geo.vcs],
            out_credits: vec![geo.depth as u32; n * geo.degree * geo.vcs],
            out_reg: vec![None; n * geo.degree],
            rr: vec![0; n * geo.degree],
            out_assigned: vec![0; n * geo.degree],
            staging: (0..n).map(|_| VecDeque::new()).collect(),
            lane_mask: vec![0; n * geo.lane_words],
            reg_mask: vec![0; n],
        }
    }

    #[inline]
    pub fn geo(&self) -> Geometry {
        self.geo
    }

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        n * self.geo.lanes + self.geo.lane_of(ip, iv)
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (n * self.geo.degree + p) * self.geo.vcs + v
    }

    #[inline]
    fn np(&self, n: usize, p: usize) -> usize {
        n * self.geo.degree + p
    }

    /// Sets or clears the bit of node `n`'s lane at arena index `l`.
    #[inline]
    fn mark_lane(&mut self, n: usize, l: usize, occupied: bool) {
        let l = l - n * self.geo.lanes;
        let (w, bit) = (n * self.geo.lane_words + l / 64, 1u64 << (l % 64));
        if occupied {
            self.lane_mask[w] |= bit;
        } else {
            self.lane_mask[w] &= !bit;
        }
    }

    // -------------------------------------------------- occupancy masks

    /// Word `w` of node `n`'s lane mask: bit `l` covers lane `w * 64 + l`,
    /// which is `(ip, iv) = (lane / vcs, lane % vcs)`.
    #[inline]
    pub fn lane_word(&self, n: usize, w: usize) -> u64 {
        self.lane_mask[n * self.geo.lane_words + w]
    }

    /// Node `n`'s register mask: bit `p` set ⟺ port `p`'s link register
    /// holds a flit.
    #[inline]
    pub fn reg_word(&self, n: usize) -> u64 {
        self.reg_mask[n]
    }

    /// Whether every mask bit equals what the arrays it caches answer —
    /// lane bit ⟺ `fifo_len > 0`, register bit ⟺ `out_reg.is_some()`.
    pub fn masks_consistent(&self) -> bool {
        fn word(bits: impl Iterator<Item = usize>) -> u64 {
            bits.fold(0, |m, b| m | 1 << (b % 64))
        }
        let g = self.geo;
        (0..g.nodes).all(|n| {
            let lanes_ok = (0..g.lane_words).all(|w| {
                let full = (w * 64..g.lanes.min(w * 64 + 64))
                    .filter(|&l| self.fifo_len[n * g.lanes + l] > 0);
                self.lane_word(n, w) == word(full)
            });
            let full = (0..g.degree).filter(|&p| self.out_reg[self.np(n, p)].is_some());
            lanes_ok && self.reg_mask[n] == word(full)
        })
    }

    // ------------------------------------------------------- FIFO rings

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.fifo_len[self.lane(n, ip, iv)] as usize
    }

    /// Flits of lane `(n, ip, iv)` in FIFO order.
    pub fn fifo_iter(&self, n: usize, ip: usize, iv: usize) -> impl Iterator<Item = &Flit> + '_ {
        let l = self.lane(n, ip, iv);
        let (d, head, len) =
            (self.geo.depth, self.fifo_head[l] as usize, self.fifo_len[l] as usize);
        (0..len).map(move |i| &self.fifo_buf[l * d + (head + i) % d])
    }

    pub fn fifo_push_back(&mut self, n: usize, ip: usize, iv: usize, f: Flit) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let len = self.fifo_len[l] as usize;
        assert!(len < d, "VC FIFO overflow: the credit invariant was violated");
        self.fifo_buf[l * d + (self.fifo_head[l] as usize + len) % d] = f;
        self.fifo_len[l] += 1;
        self.mark_lane(n, l, true);
    }

    pub fn fifo_pop_front(&mut self, n: usize, ip: usize, iv: usize) -> Option<Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        let d = self.geo.depth;
        let f = self.fifo_buf[l * d + self.fifo_head[l] as usize];
        self.fifo_head[l] = ((self.fifo_head[l] as usize + 1) % d) as u32;
        self.fifo_len[l] -= 1;
        if self.fifo_len[l] == 0 {
            self.mark_lane(n, l, false);
        }
        Some(f)
    }

    pub fn fifo_front(&self, n: usize, ip: usize, iv: usize) -> Option<&Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        Some(&self.fifo_buf[l * self.geo.depth + self.fifo_head[l] as usize])
    }

    /// Keeps only flits matching `pred`, compacting the ring in order.
    pub fn fifo_retain(&mut self, n: usize, ip: usize, iv: usize, pred: impl Fn(&Flit) -> bool) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let head = self.fifo_head[l] as usize;
        let len = self.fifo_len[l] as usize;
        let mut kept = 0usize;
        for i in 0..len {
            let f = self.fifo_buf[l * d + (head + i) % d];
            if pred(&f) {
                self.fifo_buf[l * d + (head + kept) % d] = f;
                kept += 1;
            }
        }
        self.fifo_len[l] = kept as u32;
        self.mark_lane(n, l, kept > 0);
    }

    // ------------------------------------------------------- lane state

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.route[self.lane(n, ip, iv)]
    }

    pub fn set_route(&mut self, n: usize, ip: usize, iv: usize, r: RouteState) {
        let l = self.lane(n, ip, iv);
        self.route[l] = r;
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.phase[self.lane(n, ip, iv)]
    }

    pub fn set_phase(&mut self, n: usize, ip: usize, iv: usize, p: Option<DecisionPhase>) {
        let l = self.lane(n, ip, iv);
        self.phase[l] = p;
    }

    pub fn counted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.counted[self.lane(n, ip, iv)]
    }

    pub fn set_counted(&mut self, n: usize, ip: usize, iv: usize, c: bool) {
        let l = self.lane(n, ip, iv);
        self.counted[l] = c;
    }

    pub fn misrouted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.misrouted[self.lane(n, ip, iv)]
    }

    pub fn set_misrouted(&mut self, n: usize, ip: usize, iv: usize, m: bool) {
        let l = self.lane(n, ip, iv);
        self.misrouted[l] = m;
    }

    /// Sends node `n`'s parked heads back to the controller: something
    /// their `Wait` may depend on changed — `out_channel_free` of a channel
    /// flipped (the two setters below), a hook ran, a link bit was rewritten.
    pub fn wake(&mut self, n: usize) {
        for ph in &mut self.phase[n * self.geo.lanes..][..self.geo.lanes] {
            if *ph == Some(DecisionPhase::Parked) {
                *ph = Some(DecisionPhase::Ready);
            }
        }
    }

    /// Resets per-message decision state (after a tail leaves or a kill).
    pub fn reset_route(&mut self, n: usize, ip: usize, iv: usize) {
        let l = self.lane(n, ip, iv);
        self.route[l] = RouteState::Unrouted;
        self.phase[l] = None;
        self.counted[l] = false;
        self.misrouted[l] = false;
    }

    // -------------------------------------------------- output channels

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        self.out_owner[self.oc(n, p, v)]
    }

    pub fn set_out_owner(&mut self, n: usize, p: usize, v: usize, o: Option<MessageId>) {
        let c = self.oc(n, p, v);
        // `out_channel_free` flips iff a channel with credit goes idle <-> owned
        let flips = self.out_owner[c].is_some() != o.is_some() && self.out_credits[c] > 0;
        self.out_owner[c] = o;
        if flips {
            self.wake(n);
        }
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.out_credits[self.oc(n, p, v)]
    }

    pub fn set_out_credits(&mut self, n: usize, p: usize, v: usize, c: u32) {
        let i = self.oc(n, p, v);
        // ... or an idle channel's credit count leaves or reaches zero (the
        // owner is only looked at then: most credit writes cross nothing)
        let flips = (self.out_credits[i] == 0) != (c == 0) && self.out_owner[i].is_none();
        self.out_credits[i] = c;
        if flips {
            self.wake(n);
        }
    }

    /// Whether output VC `(p, v)` of node `n` is allocatable (idle +
    /// credit).
    pub fn out_channel_free(&self, n: usize, p: usize, v: usize) -> bool {
        let c = self.oc(n, p, v);
        self.out_owner[c].is_none() && self.out_credits[c] > 0
    }

    pub fn out_rows(&self, n: usize) -> OutRows<'_> {
        let (c, p, g) = (self.oc(n, 0, 0), self.np(n, 0), self.geo);
        OutRows {
            owner: &self.out_owner[c..c + g.degree * g.vcs],
            credits: &self.out_credits[c..c + g.degree * g.vcs],
            assigned: &self.out_assigned[p..p + g.degree],
            reg: &self.out_reg[p..p + g.degree],
        }
    }

    // -------------------------------------------------- per-port state

    pub fn out_reg(&self, n: usize, p: usize) -> Option<&(VcId, Flit)> {
        self.out_reg[self.np(n, p)].as_ref()
    }

    pub fn take_out_reg(&mut self, n: usize, p: usize) -> Option<(VcId, Flit)> {
        let i = self.np(n, p);
        self.reg_mask[n] &= !(1 << p);
        self.out_reg[i].take()
    }

    pub fn set_out_reg(&mut self, n: usize, p: usize, r: Option<(VcId, Flit)>) {
        let i = self.np(n, p);
        self.reg_mask[n] = (self.reg_mask[n] & !(1 << p)) | (r.is_some() as u64) << p;
        self.out_reg[i] = r;
    }

    pub fn rr(&self, n: usize, p: usize) -> u32 {
        self.rr[self.np(n, p)]
    }

    pub fn set_rr(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.rr[i] = v;
    }

    pub fn set_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] = v;
    }

    pub fn add_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] += v;
    }

    pub fn sub_out_assigned_sat(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] = self.out_assigned[i].saturating_sub(v);
    }

    // ------------------------------------------------------------ nodes

    pub fn staging(&self, n: usize) -> &VecDeque<Flit> {
        &self.staging[n]
    }

    pub fn staging_mut(&mut self, n: usize) -> &mut VecDeque<Flit> {
        &mut self.staging[n]
    }

    /// Whether node `n` has any flit-bearing work — the activation
    /// predicate of the active-set scheduler.
    pub fn has_work(&self, n: usize) -> bool {
        let w = self.geo.lane_words;
        !self.staging[n].is_empty()
            || self.reg_mask[n] != 0
            || self.lane_mask[n * w..(n + 1) * w].iter().any(|&m| m != 0)
    }

    /// Resets node `n` to power-on state (fresh buffers, credits, rr,
    /// registers) — node repair hands back empty hardware.
    pub fn reset_node(&mut self, n: usize) {
        let geo = self.geo;
        for l in n * geo.lanes..(n + 1) * geo.lanes {
            self.fifo_head[l] = 0;
            self.fifo_len[l] = 0;
            self.route[l] = RouteState::Unrouted;
            self.phase[l] = None;
            self.counted[l] = false;
            self.misrouted[l] = false;
        }
        for c in n * geo.degree * geo.vcs..(n + 1) * geo.degree * geo.vcs {
            self.out_owner[c] = None;
            self.out_credits[c] = geo.depth as u32;
        }
        for p in n * geo.degree..(n + 1) * geo.degree {
            self.out_reg[p] = None;
            self.rr[p] = 0;
            self.out_assigned[p] = 0;
        }
        self.staging[n].clear();
        self.lane_mask[n * geo.lane_words..(n + 1) * geo.lane_words].fill(0);
        self.reg_mask[n] = 0;
    }
}

#[cfg(test)]
mod tests;

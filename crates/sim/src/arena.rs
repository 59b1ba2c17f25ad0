//! Struct-of-arrays channel arena: the flit and channel storage of every
//! router in one set of flat, node-major arrays.
//!
//! The engine used to keep a `Vec<RouterNode>` of per-node structs, each
//! holding nested `Vec<Vec<InputVc>>` / `VecDeque<Flit>` heap structures —
//! three pointer hops and an allocator round-trip per FIFO touch. The
//! arena replaces that with fixed-capacity ring FIFOs packed into one
//! `Vec<Flit>` plus parallel arrays for per-lane routing state, per-output
//! channel allocation/credits, and per-port registers. Two properties
//! matter beyond cache behaviour:
//!
//! - **Node-major layout**: every array is ordered by node id, so a
//!   contiguous node range maps to contiguous sub-slices of every array.
//!   [`Channels::split_mut`] cuts the arena into disjoint per-shard
//!   mutable views ([`ChanRef`]) with `split_at_mut` — no locks, no
//!   unsafe — which is what makes the sharded step of
//!   [`crate::Network::step`] possible.
//! - **Bounded FIFOs**: credit-based flow control guarantees a virtual
//!   channel never holds more than `buffer_depth` flits, so each lane is a
//!   ring of exactly `depth` slots; an overflow is a hard assertion (a
//!   credit-accounting bug, never a full buffer).
//!
//! Lane layout per node: ports `0..degree` each contribute `vcs` input
//! lanes, followed by one injection lane (port index `degree`, VC 0).

use crate::flit::{Flit, FlitKind, MessageId};
use crate::router::{DecisionPhase, RouteState};
use ftr_topo::VcId;
use std::collections::VecDeque;

/// Array-shape parameters shared by [`Channels`] and every [`ChanRef`].
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
}

impl Geometry {
    pub fn new(nodes: usize, degree: usize, vcs: usize, depth: usize) -> Self {
        Geometry { nodes, degree, vcs, depth, lanes: degree * vcs + 1 }
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

const PLACEHOLDER: Flit = Flit { kind: FlitKind::Body, msg: MessageId(0), seq: 0 };

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

/// Sends parked lanes back to their controller.
fn wake_lanes(phase: &mut [Option<DecisionPhase>]) {
    for ph in phase {
        if *ph == Some(DecisionPhase::Parked) {
            *ph = Some(DecisionPhase::Ready);
        }
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
        }
    }

    #[inline]
    pub fn geo(&self) -> Geometry {
        self.geo
    }

    // ------------------------------------------------- read-only queries

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        n * self.geo.lanes + self.geo.lane_of(ip, iv)
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (n * self.geo.degree + p) * self.geo.vcs + v
    }

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

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.route[self.lane(n, ip, iv)]
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.phase[self.lane(n, ip, iv)]
    }

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        self.out_owner[self.oc(n, p, v)]
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.out_credits[self.oc(n, p, v)]
    }

    pub fn out_reg(&self, n: usize, p: usize) -> Option<&(VcId, Flit)> {
        self.out_reg[n * self.geo.degree + p].as_ref()
    }

    pub fn staging(&self, n: usize) -> &VecDeque<Flit> {
        &self.staging[n]
    }

    pub fn staging_mut(&mut self, n: usize) -> &mut VecDeque<Flit> {
        &mut self.staging[n]
    }

    pub fn out_rows(&self, n: usize) -> OutRows<'_> {
        let (c, p, g) = (self.oc(n, 0, 0), n * self.geo.degree, self.geo);
        OutRows {
            owner: &self.out_owner[c..c + g.degree * g.vcs],
            credits: &self.out_credits[c..c + g.degree * g.vcs],
            assigned: &self.out_assigned[p..p + g.degree],
            reg: &self.out_reg[p..p + g.degree],
        }
    }

    /// [`ChanRef::wake`] from the master, between phases.
    pub fn wake(&mut self, n: usize) {
        wake_lanes(&mut self.phase[n * self.geo.lanes..][..self.geo.lanes]);
    }

    /// Total flits buffered at node `n` (inputs + output registers),
    /// excluding the staging queue.
    pub fn buffered_flits(&self, n: usize) -> usize {
        let mut total = 0usize;
        for l in n * self.geo.lanes..(n + 1) * self.geo.lanes {
            total += self.fifo_len[l] as usize;
        }
        for p in 0..self.geo.degree {
            total += self.out_reg[n * self.geo.degree + p].is_some() as usize;
        }
        total
    }

    /// Whether node `n` has any flit-bearing work — the activation
    /// predicate of the active-set scheduler.
    pub fn has_work(&self, n: usize) -> bool {
        if !self.staging[n].is_empty() {
            return true;
        }
        if self.fifo_len[n * self.geo.lanes..(n + 1) * self.geo.lanes].iter().any(|&l| l > 0) {
            return true;
        }
        self.out_reg[n * self.geo.degree..(n + 1) * self.geo.degree].iter().any(|r| r.is_some())
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
    }

    // ----------------------------------------------------- shard views

    /// One mutable view over the whole arena (the master/sequential path).
    pub fn full_mut(&mut self) -> ChanRef<'_> {
        let geo = self.geo;
        ChanRef {
            base: 0,
            geo,
            fifo_buf: &mut self.fifo_buf,
            fifo_head: &mut self.fifo_head,
            fifo_len: &mut self.fifo_len,
            route: &mut self.route,
            phase: &mut self.phase,
            counted: &mut self.counted,
            misrouted: &mut self.misrouted,
            out_owner: &mut self.out_owner,
            out_credits: &mut self.out_credits,
            out_reg: &mut self.out_reg,
            rr: &mut self.rr,
            out_assigned: &mut self.out_assigned,
            staging: &mut self.staging,
        }
    }

    /// Cuts the arena into disjoint mutable views along `bounds` (node
    /// indices, ascending, `bounds[0] == 0`, last == `nodes`), one view at
    /// a time as the iterator is consumed. Each view addresses nodes
    /// `bounds[i]..bounds[i+1]` with *global* node ids.
    pub fn split_mut<'a>(
        &'a mut self,
        bounds: &'a [usize],
    ) -> impl Iterator<Item = ChanRef<'a>> + 'a {
        debug_assert!(bounds.len() >= 2);
        debug_assert_eq!(bounds[0], 0);
        debug_assert_eq!(*bounds.last().expect("non-empty"), self.geo.nodes);
        let mut rest = self.full_mut();
        bounds.windows(2).map(move |w| rest.split_front(w[1] - w[0]))
    }
}

/// Detaches the first `k` elements of `*s`, leaving the remainder in place.
fn cut<'a, T>(s: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let (front, rest) = std::mem::take(s).split_at_mut(k);
    *s = rest;
    front
}

/// Mutable view over a contiguous node range of the arena. All accessors
/// take *global* node ids; a view created by [`Channels::split_mut`] may
/// only touch nodes inside its range (debug-asserted).
pub(crate) struct ChanRef<'a> {
    base: usize,
    geo: Geometry,
    fifo_buf: &'a mut [Flit],
    fifo_head: &'a mut [u32],
    fifo_len: &'a mut [u32],
    route: &'a mut [RouteState],
    phase: &'a mut [Option<DecisionPhase>],
    counted: &'a mut [bool],
    misrouted: &'a mut [bool],
    out_owner: &'a mut [Option<MessageId>],
    out_credits: &'a mut [u32],
    out_reg: &'a mut [Option<(VcId, Flit)>],
    rr: &'a mut [u32],
    out_assigned: &'a mut [u32],
    staging: &'a mut [VecDeque<Flit>],
}

impl<'a> ChanRef<'a> {
    /// Splits off a view of the first `cnt` nodes; `self` keeps the rest.
    fn split_front(&mut self, cnt: usize) -> ChanRef<'a> {
        let geo = self.geo;
        let front = ChanRef {
            base: self.base,
            geo,
            fifo_buf: cut(&mut self.fifo_buf, cnt * geo.lanes * geo.depth),
            fifo_head: cut(&mut self.fifo_head, cnt * geo.lanes),
            fifo_len: cut(&mut self.fifo_len, cnt * geo.lanes),
            route: cut(&mut self.route, cnt * geo.lanes),
            phase: cut(&mut self.phase, cnt * geo.lanes),
            counted: cut(&mut self.counted, cnt * geo.lanes),
            misrouted: cut(&mut self.misrouted, cnt * geo.lanes),
            out_owner: cut(&mut self.out_owner, cnt * geo.degree * geo.vcs),
            out_credits: cut(&mut self.out_credits, cnt * geo.degree * geo.vcs),
            out_reg: cut(&mut self.out_reg, cnt * geo.degree),
            rr: cut(&mut self.rr, cnt * geo.degree),
            out_assigned: cut(&mut self.out_assigned, cnt * geo.degree),
            staging: cut(&mut self.staging, cnt),
        };
        self.base += cnt;
        front
    }

    #[inline]
    fn local(&self, n: usize) -> usize {
        debug_assert!(n >= self.base, "node {n} below shard base {}", self.base);
        n - self.base
    }

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.local(n) * self.geo.lanes + self.geo.lane_of(ip, iv)
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (self.local(n) * self.geo.degree + p) * self.geo.vcs + v
    }

    #[inline]
    fn np(&self, n: usize, p: usize) -> usize {
        self.local(n) * self.geo.degree + p
    }

    // ------------------------------------------------------- FIFO rings

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.fifo_len[self.lane(n, ip, iv)] as usize
    }

    pub fn fifo_push_back(&mut self, n: usize, ip: usize, iv: usize, f: Flit) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let len = self.fifo_len[l] as usize;
        assert!(len < d, "VC FIFO overflow: the credit invariant was violated");
        self.fifo_buf[l * d + (self.fifo_head[l] as usize + len) % d] = f;
        self.fifo_len[l] += 1;
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
        Some(f)
    }

    pub fn fifo_front(&self, n: usize, ip: usize, iv: usize) -> Option<&Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        Some(&self.fifo_buf[l * self.geo.depth + self.fifo_head[l] as usize])
    }

    pub fn fifo_front_mut(&mut self, n: usize, ip: usize, iv: usize) -> Option<&mut Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        Some(&mut self.fifo_buf[l * self.geo.depth + self.fifo_head[l] as usize])
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
        let l = self.local(n) * self.geo.lanes;
        wake_lanes(&mut self.phase[l..l + self.geo.lanes]);
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
        self.out_reg[i].take()
    }

    pub fn set_out_reg(&mut self, n: usize, p: usize, r: Option<(VcId, Flit)>) {
        let i = self.np(n, p);
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

    pub fn staging_mut(&mut self, n: usize) -> &mut VecDeque<Flit> {
        let i = self.local(n);
        &mut self.staging[i]
    }

    pub fn staging(&self, n: usize) -> &VecDeque<Flit> {
        &self.staging[self.local(n)]
    }
}

#[cfg(test)]
mod tests;

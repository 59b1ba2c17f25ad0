//! The wiring table: per `(node, port)` the peer node and its reverse
//! port, resolved once at build, plus the local link status the paper's
//! information units hold (§2.1 assumption ii) — a live-link bit per port
//! and a dead bit per node — so the cycle path asks neither `dyn Topology`
//! nor the [`FaultSet`]. The bits are a cache of the fault set: they stay
//! correct only while every fault-set mutation goes through
//! `Network::set_fault`, which calls [`Wiring::refresh`];
//! [`Wiring::consistent`] is the guard.

use ftr_topo::{FaultSet, NodeId, PortId, Topology};

/// One end of a link as seen from `(node, port)`, packed into 8 bytes (a
/// 256×256 mesh has 262 144 of them).
#[derive(Clone, Copy)]
pub(crate) struct Wire {
    /// Peer node; `UNWIRED` when the port is not connected.
    peer: u32,
    /// The peer's port leading back (`Topology::port_towards(peer, node)`).
    rev: u8,
    /// `FaultSet::link_usable(node, port)`: wired, healthy, both ends alive.
    pub(crate) live: bool,
}

const UNWIRED: u32 = u32::MAX;

pub(super) struct Wiring {
    degree: usize,
    /// Indexed `node * degree + port`.
    wires: Vec<Wire>,
    /// Per node: `FaultSet::node_faulty`.
    dead: Vec<bool>,
}

impl Wiring {
    /// Resolves every port of a fault-free `topo` (one neighbour scan per
    /// wired port, for the reverse port).
    pub(super) fn new(topo: &dyn Topology) -> Self {
        let wire = |(n, p)| match topo.neighbor(n, p) {
            Some(m) => {
                let rev = topo.port_towards(m, n).expect("links are undirected");
                Wire { peer: m.0, rev: rev.0, live: true }
            }
            None => Wire { peer: UNWIRED, rev: 0, live: false },
        };
        let wires =
            topo.nodes().flat_map(|n| topo.ports().map(move |p| (n, p))).map(wire).collect();
        Wiring { degree: topo.degree(), wires, dead: vec![false; topo.num_nodes()] }
    }

    /// The `(node, port)` at the far end of `(n, p)`; `None` for an
    /// unconnected (or out-of-range) port and, with `live_only`, for a link
    /// no flit or control word may traverse right now.
    #[inline]
    fn far_end(&self, n: usize, p: usize, live_only: bool) -> Option<(NodeId, PortId)> {
        let w = (p < self.degree).then(|| self.wires[n * self.degree + p])?;
        (w.peer != UNWIRED && (w.live || !live_only)).then_some((NodeId(w.peer), PortId(w.rev)))
    }

    /// Who is wired to `(n, p)`, whatever the link's health.
    #[inline]
    pub(super) fn peer(&self, n: usize, p: usize) -> Option<(NodeId, PortId)> {
        self.far_end(n, p, false)
    }

    /// Who a flit leaving through `(n, p)` reaches, if the link is usable.
    #[inline]
    pub(super) fn live_peer(&self, n: usize, p: usize) -> Option<(NodeId, PortId)> {
        self.far_end(n, p, true)
    }

    #[inline]
    pub(super) fn node_dead(&self, n: usize) -> bool {
        self.dead[n]
    }

    /// Node `n`'s ports, in port order.
    pub(super) fn row(&self, n: usize) -> &[Wire] {
        &self.wires[n * self.degree..(n + 1) * self.degree]
    }

    /// Re-derives the bits a fault or repair of node `n` (`port == None`)
    /// or of the link behind `(n, port)` can have changed: both endpoints
    /// of a link event, a node and its neighbours on a node event. Each
    /// node whose live-link bits were rewritten is reported to `touched`.
    pub(super) fn refresh(
        &mut self,
        topo: &dyn Topology,
        faults: &FaultSet,
        n: NodeId,
        port: Option<PortId>,
        mut touched: impl FnMut(NodeId),
    ) {
        self.dead[n.idx()] = faults.node_faulty(n);
        self.refresh_ports(topo, faults, n);
        touched(n);
        for p in (0..self.degree).filter(|&p| port.is_none_or(|q| q.idx() == p)) {
            if let Some((m, _)) = self.peer(n.idx(), p) {
                self.refresh_ports(topo, faults, m);
                touched(m);
            }
        }
    }

    fn refresh_ports(&mut self, topo: &dyn Topology, faults: &FaultSet, n: NodeId) {
        for p in topo.ports() {
            self.wires[n.idx() * self.degree + p.idx()].live = faults.link_usable(topo, n, p);
        }
    }

    /// Whether every cached bit equals what the fault set answers.
    pub(super) fn consistent(&self, topo: &dyn Topology, faults: &FaultSet) -> bool {
        topo.nodes().all(|n| {
            self.dead[n.idx()] == faults.node_faulty(n)
                && self
                    .row(n.idx())
                    .iter()
                    .zip(topo.ports())
                    .all(|(w, p)| w.live == faults.link_usable(topo, n, p))
        })
    }
}

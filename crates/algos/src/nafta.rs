//! NAFTA — New Adaptive Fault-Tolerant routing Algorithm (Cunningham &
//! Avresky \[CuA95\]), reconstructed from the paper's §2.2 description.
//!
//! NAFTA = NARA + fault tolerance:
//!
//! * **Fault states, propagated wave-like.** Fault information spreads by
//!   neighbour exchange "beginning with the node where a fault is known
//!   first". Three waves are implemented:
//!   1. *deactivation*: a healthy node with ≥ 2 unusable directions
//!      (dead link, dead neighbour, or deactivated neighbour) deactivates
//!      itself and announces it — iterated to a fixpoint this completes
//!      concave fault patterns to convex (rectangular) blocks, excluding
//!      some healthy nodes exactly as the paper says ("violating
//!      condition 3");
//!   2. *column fault*: a node with any dead link or deactivation floods
//!      "my column contains a fault" along its column;
//!   3. *dead-end east/west*: the paper's example state — "dead-end-east
//!      meaning that all columns to the east have at least one fault" —
//!      accumulated westward (resp. eastward) as an AND-chain over column
//!      faults. Used to steer misrouting away from hopeless regions.
//! * **Routing.** Fully adaptive minimal inside the NARA virtual networks
//!   while a safe minimal direction exists (condition 1). When faults block
//!   every minimal direction, the message is *misrouted* along the fault
//!   region boundary: it stays inside its virtual network (so no
//!   south-dependency can appear in network 0), never turns back through
//!   its arrival port (no 180° dependency), is marked `misrouted` in the
//!   header, and carries the hop counter as livelock bound (§3).
//! * **Decision steps.** One rule interpretation in the fault-free case,
//!   two when fault state restricts the choice, three when misrouting —
//!   matching the §5 claim "NAFTA in the fault-free case proceeds with one
//!   step and in the worst case needs three".

use crate::common::max_hops;
use crate::vnet::{Lane, MeshVcMode, VNET_NO_SOUTH};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH, SOUTH, WEST};

/// Control-message tags.
const TAG_DEACT: i64 = 1;
const TAG_COLFAULT: i64 = 2;
const TAG_DEADEND_E: i64 = 3;
const TAG_DEADEND_W: i64 = 4;
const TAG_LINKS: i64 = 5;
/// Reconfiguration wave after a repair: `[TAG_RESET, epoch]`. All wave
/// state is accumulated monotonically (OR), so un-learning a repaired
/// fault needs an explicit epoch-tagged reset flood — every node clears
/// its remote-derived state, re-derives local contributions and
/// re-announces, re-running the §2.2 propagation from scratch.
const TAG_RESET: i64 = 6;

/// Up to four mesh directions in preference order, on the stack: what the
/// decision path uses for every direction list, so a `route` call
/// allocates nothing. Order matters — misrouting takes the *first*
/// available preference.
#[derive(Clone, Copy)]
struct Ports {
    dirs: [PortId; 4],
    len: usize,
}

impl Ports {
    fn of(dirs: &[PortId]) -> Self {
        let mut out = Ports { dirs: [EAST; 4], len: 0 };
        for &d in dirs {
            out.push(d);
        }
        out
    }

    fn push(&mut self, d: PortId) {
        self.dirs[self.len] = d;
        self.len += 1;
    }

    fn as_slice(&self) -> &[PortId] {
        &self.dirs[..self.len]
    }

    /// The directions `keep` accepts, order kept.
    fn filtered(self, keep: impl Fn(PortId) -> bool) -> Self {
        let mut out = Ports::of(&[]);
        for &d in self.as_slice() {
            if keep(d) {
                out.push(d);
            }
        }
        out
    }
}

/// The NAFTA algorithm.
#[derive(Clone)]
pub struct Nafta {
    mesh: Mesh2D,
}

impl Nafta {
    /// Creates NAFTA for a mesh.
    pub fn new(mesh: Mesh2D) -> Self {
        Nafta { mesh }
    }
}

impl RoutingAlgorithm for Nafta {
    fn name(&self) -> String {
        "nafta".into()
    }

    fn num_vcs(&self) -> usize {
        2
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(NaftaController::new(self.mesh.clone(), node))
    }
}

/// Per-node NAFTA state (the registers of Table 1).
pub struct NaftaController {
    mesh: Mesh2D,
    node: NodeId,
    hop_limit: u32,
    /// Direction unusable: dead link or dead neighbour (locally observed).
    link_dead: [bool; 4],
    /// Neighbour announced it is deactivated (or faulty).
    neighbor_unsafe: [bool; 4],
    /// This node completed a concave fault pattern and took itself out.
    deactivated: bool,
    /// Column-fault knowledge from north/south segments of the own column.
    col_seg: [bool; 2], // [from north, from south]
    /// Dead-end accumulators received from east/west neighbours.
    de_in: [bool; 2], // [from east: all columns east faulty, from west]
    /// Dead-link bitmask each neighbour advertised (bit = direction index
    /// at the neighbour).
    nb_dead: [u8; 4],
    /// Last values sent per (port, tag-slot) to avoid re-flooding.
    last_sent: [[Option<i64>; 5]; 4],
    /// Reconfiguration epoch: bumped by each repair-triggered reset wave so
    /// concurrent/stale waves are absorbed instead of looping forever.
    epoch: u64,
}

impl NaftaController {
    fn new(mesh: Mesh2D, node: NodeId) -> Self {
        let hop_limit = max_hops(mesh.num_nodes());
        NaftaController {
            mesh,
            node,
            hop_limit,
            link_dead: [false; 4],
            neighbor_unsafe: [false; 4],
            deactivated: false,
            col_seg: [false; 2],
            de_in: [false; 2],
            nb_dead: [0; 4],
            last_sent: [[None; 5]; 4],
            epoch: 0,
        }
    }

    /// Joins reconfiguration epoch `e`: forgets every remote-derived fact,
    /// re-derives the local ones, and floods both the reset marker and the
    /// fresh announcements to all reachable neighbours.
    fn start_reset(&mut self, e: u64) -> Vec<ControlMsg> {
        self.epoch = e;
        self.neighbor_unsafe = [false; 4];
        self.deactivated = false;
        self.col_seg = [false; 2];
        self.de_in = [false; 2];
        self.nb_dead = [0; 4];
        self.last_sent = [[None; 5]; 4];
        self.update_deactivation();
        let mut out: Vec<ControlMsg> = ftr_topo::mesh::MESH_PORTS
            .iter()
            .filter(|&&p| self.mesh.neighbor(self.node, p).is_some() && !self.link_dead[p.idx()])
            .map(|&p| ControlMsg { port: p, payload: vec![TAG_RESET, e as i64] })
            .collect();
        out.extend(self.broadcast_updates());
        out
    }

    /// Local contribution to the column-fault wave.
    fn col_contrib(&self) -> bool {
        self.deactivated || self.link_dead.iter().any(|&b| b)
    }

    /// This node's column is known to contain a fault.
    pub fn col_fault(&self) -> bool {
        self.col_contrib() || self.col_seg[0] || self.col_seg[1]
    }

    /// Dead-end-east: every column strictly east contains a fault.
    /// Vacuously true on the east border.
    pub fn dead_end_east(&self) -> bool {
        let (x, _) = self.mesh.coords(self.node);
        if x + 1 == self.mesh.width() {
            true
        } else {
            self.de_in[0]
        }
    }

    /// Dead-end-west analog.
    pub fn dead_end_west(&self) -> bool {
        let (x, _) = self.mesh.coords(self.node);
        if x == 0 {
            true
        } else {
            self.de_in[1]
        }
    }

    /// A direction is unusable for forwarding: boundary, dead, or leads to
    /// a deactivated node (other than the destination itself).
    fn dir_blocked(&self, d: PortId, dst: NodeId) -> bool {
        match self.mesh.neighbor(self.node, d) {
            None => true,
            Some(nb) => self.link_dead[d.idx()] || (self.neighbor_unsafe[d.idx()] && nb != dst),
        }
    }

    /// Recomputes the deactivation predicate; returns true if it flipped.
    fn update_deactivation(&mut self) -> bool {
        if self.deactivated {
            return false;
        }
        let bad = ftr_topo::mesh::MESH_PORTS
            .iter()
            .filter(|&&d| {
                self.mesh.neighbor(self.node, d).is_some()
                    && (self.link_dead[d.idx()] || self.neighbor_unsafe[d.idx()])
            })
            .count();
        if bad >= 2 {
            self.deactivated = true;
            true
        } else {
            false
        }
    }

    /// Emits every control value whose content changed since last sent.
    fn broadcast_updates(&mut self) -> Vec<ControlMsg> {
        let mut out = Vec::new();
        let deact = i64::from(self.deactivated);
        // column wave: northward message carries info about the southern
        // segment (own contribution + what the south told us) and vice versa
        let col_to_north = i64::from(self.col_contrib() || self.col_seg[1]);
        let col_to_south = i64::from(self.col_contrib() || self.col_seg[0]);
        // dead-end waves: westward message = own column fault AND all east
        let de_to_west = i64::from(self.col_fault() && self.dead_end_east());
        let de_to_east = i64::from(self.col_fault() && self.dead_end_west());

        let dead_mask: i64 =
            self.link_dead.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| 1i64 << i).sum();
        let plan: [(PortId, i64, usize, i64); 12] = [
            (EAST, TAG_DEACT, 0, deact),
            (WEST, TAG_DEACT, 0, deact),
            (NORTH, TAG_DEACT, 0, deact),
            (SOUTH, TAG_DEACT, 0, deact),
            (NORTH, TAG_COLFAULT, 1, col_to_north),
            (SOUTH, TAG_COLFAULT, 1, col_to_south),
            (WEST, TAG_DEADEND_E, 2, de_to_west),
            (EAST, TAG_DEADEND_W, 3, de_to_east),
            (EAST, TAG_LINKS, 4, dead_mask),
            (WEST, TAG_LINKS, 4, dead_mask),
            (NORTH, TAG_LINKS, 4, dead_mask),
            (SOUTH, TAG_LINKS, 4, dead_mask),
        ];
        for (port, tag, slot, val) in plan {
            if self.mesh.neighbor(self.node, port).is_none() || self.link_dead[port.idx()] {
                continue;
            }
            if self.last_sent[port.idx()][slot] == Some(val) {
                continue;
            }
            // deactivation is only worth announcing once true
            if tag == TAG_DEACT && val == 0 {
                continue;
            }
            if tag == TAG_COLFAULT && val == 0 && self.last_sent[port.idx()][slot].is_none() {
                continue; // quiet default
            }
            if (tag == TAG_DEADEND_E || tag == TAG_DEADEND_W || tag == TAG_LINKS)
                && val == 0
                && self.last_sent[port.idx()][slot].is_none()
            {
                continue;
            }
            self.last_sent[port.idx()][slot] = Some(val);
            out.push(ControlMsg { port, payload: vec![tag, val] });
        }
        out
    }

    /// One-hop trap lookahead: would forwarding through `d` enter a node
    /// that (given the virtual network and the banned turns) has no exit?
    /// Uses the dead-link sets neighbours advertise over the control plane
    /// — this is exactly the "set 1" fault information of §2.2.
    fn enters_trap(&self, d: PortId, vnet: u8, dst: NodeId) -> bool {
        let Some(nb) = self.mesh.neighbor(self.node, d) else { return true };
        if nb == dst {
            return false;
        }
        // exits the message would have at nb, arriving from opposite(d)
        let arrival = (ftr_topo::mesh::opposite(d), VcId(vnet));
        let exits = MeshVcMode::NaraPair.lane(arrival, self.mesh.offset(nb, dst));
        !ftr_topo::mesh::MESH_PORTS.iter().any(|&e| {
            exits.permits(e)
                && self.mesh.neighbor(nb, e).is_some()
                && (self.nb_dead[d.idx()] >> e.idx()) & 1 == 0
        })
    }

    /// The lanes the data path offers a head bound for `dst` here.
    fn lanes(
        &self,
        dst: NodeId,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> impl Iterator<Item = Lane> {
        MeshVcMode::NaraPair.lanes(in_port.map(|p| (p, in_vc)), self.mesh.offset(self.node, dst))
    }

    /// Candidate outputs for a message in `lane`, with the step count of
    /// the decision. Deterministic in (node, dst, lane) so the same
    /// function backs `route` and `relation`.
    fn candidates(&self, dst: NodeId, lane: Lane) -> (Ports, u32, bool) {
        let (dx, dy) = self.mesh.offset(self.node, dst);
        let vnet = lane.vnet;
        let allowed = |d: PortId| lane.permits(d);
        let open = |d: PortId| !self.dir_blocked(d, dst) && !self.enters_trap(d, vnet, dst);
        // `Mesh2D::minimal_directions`, in its order: east/west first
        let mut minimal = Ports::of(&[]);
        if dx != 0 {
            minimal.push(if dx > 0 { EAST } else { WEST });
        }
        if dy != 0 {
            minimal.push(if dy > 0 { NORTH } else { SOUTH });
        }
        let allowed_min = minimal.filtered(allowed);
        let open_min = allowed_min.filtered(open);
        let fault_involved = open_min.len != allowed_min.len;
        if open_min.len != 0 {
            return (open_min, if fault_involved { 2 } else { 1 }, false);
        }
        // misroute along the region boundary, preference-ordered
        let vertical = if vnet == VNET_NO_SOUTH { NORTH } else { SOUTH };
        let (towards, away) = if dx >= 0 { (EAST, WEST) } else { (WEST, EAST) };
        // only let the dead-end state veto the towards-side when the
        // destination is strictly on the other side — at dx == 0 the
        // message may well need to loop around through the "dead-end"
        // region (its columns have faults, not walls)
        let towards_dead_end = match towards {
            p if p == EAST => self.dead_end_east() && dx < 0,
            _ => self.dead_end_west() && dx > 0,
        };
        let (h1, h2) = if towards_dead_end { (away, towards) } else { (towards, away) };
        // in network 0 a north escape is always recoverable (one-way
        // switch); in network 1 a south escape past the destination row is
        // not, so prefer horizontal escapes unless south still helps
        let vertical_first = vnet == VNET_NO_SOUTH || dy < 0;
        let prefs = if vertical_first { [vertical, h1, h2] } else { [h1, h2, vertical] };
        (Ports::of(&prefs).filtered(|d| allowed(d) && open(d)), 3, true)
    }
}

impl NodeController for NaftaController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, 3);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 1);
        }
        let mut best: Option<(Ports, u32, bool, u8)> = None;
        for lane in self.lanes(h.dst, in_port, in_vc) {
            let (opts, steps, misroute) = self.candidates(h.dst, lane);
            if opts.len != 0 && best.is_none_or(|(_, bsteps, _, _)| steps < bsteps) {
                best = Some((opts, steps, misroute, lane.vnet));
            }
        }
        let Some((opts, steps, misroute, vnet)) = best else {
            return Decision::new(Verdict::Unroutable, 3);
        };

        // `allocatable` then `least_loaded` of `crate::common`, in place:
        // the load ranks the open outputs, it never opens one
        let mut avail = opts
            .as_slice()
            .iter()
            .copied()
            .filter(|p| view.alive(p.idx()) && view.free(p.idx(), vnet as usize));
        let pick = if misroute {
            // boundary traversal follows the preference order strictly
            avail.next()
        } else {
            avail.min_by_key(|p| (view.load(p.idx()), p.idx()))
        };
        if let Some(p) = pick {
            h.vnet = vnet;
            if misroute {
                h.misrouted = true;
            }
            Decision::new(Verdict::Route(p, VcId(vnet)), steps)
        } else {
            Decision::new(Verdict::Wait, steps)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        if view.node == h.dst {
            return Vec::new();
        }
        let mut out = Vec::new();
        for lane in self.lanes(h.dst, in_port, in_vc) {
            let (opts, _steps, _mis) = self.candidates(h.dst, lane);
            for &p in opts.as_slice() {
                if view.alive(p.idx()) {
                    out.push((p, VcId(lane.vnet)));
                }
            }
        }
        out
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = true;
        self.update_deactivation();
        self.broadcast_updates()
    }

    fn on_repair(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = false;
        self.start_reset(self.epoch + 1)
    }

    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        if payload.len() != 2 {
            return Vec::new();
        }
        let (tag, val) = (payload[0], payload[1] != 0);
        if tag == TAG_RESET {
            let e = payload[1] as u64;
            if e > self.epoch {
                // first contact with this reconfiguration wave: clear and
                // re-announce everywhere (forwards the wave itself too)
                return self.start_reset(e);
            }
            // duplicate/stale wave: the sender just cleared its state, so
            // everything we already told it is forgotten — re-send
            self.last_sent[from.idx()] = [None; 5];
            return self.broadcast_updates();
        }
        // TAG_LINKS carries a bitmask, handled below with the raw payload
        match tag {
            TAG_DEACT if val => {
                self.neighbor_unsafe[from.idx()] = true;
                self.update_deactivation();
            }
            TAG_COLFAULT => {
                // from NORTH = information about the column segment above
                if from == NORTH {
                    self.col_seg[0] |= val;
                } else if from == SOUTH {
                    self.col_seg[1] |= val;
                }
            }
            TAG_DEADEND_E if from == EAST => {
                self.de_in[0] |= val;
            }
            TAG_DEADEND_W if from == WEST => {
                self.de_in[1] |= val;
            }
            TAG_LINKS => {
                self.nb_dead[from.idx()] |= payload[1] as u8;
            }
            _ => {}
        }
        self.broadcast_updates()
    }

    fn state_word(&self) -> i64 {
        i64::from(self.deactivated)
            | (i64::from(self.dead_end_east()) << 1)
            | (i64::from(self.dead_end_west()) << 2)
            | (i64::from(self.col_fault()) << 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::FaultSet;
    use std::sync::Arc;

    fn net_with(mesh: &Mesh2D, faults: &[(u32, u32, PortId)]) -> Network {
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        for &(x, y, p) in faults {
            net.inject_link_fault(topo.node_at(x, y), p);
        }
        net.settle_control(10_000).expect("settles");
        net
    }

    #[test]
    fn behaves_like_nara_when_fault_free() {
        let mesh = Mesh2D::new(4, 4);
        let mut net = net_with(&mesh, &[]);
        net.set_measuring(true);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0);
        assert_eq!(net.stats.decision_steps.max, 1, "one interpretation fault-free");
    }

    #[test]
    fn routes_around_single_link_fault() {
        let mesh = Mesh2D::new(4, 4);
        let mut net = net_with(&mesh, &[(1, 1, EAST)]);
        net.set_measuring(true);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(200_000), "all messages deliverable around one fault");
        assert_eq!(net.stats.delivered_msgs, 240);
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn worst_case_needs_up_to_three_steps() {
        let mesh = Mesh2D::new(5, 5);
        // block the whole minimal quadrant exit of (2,2) towards east
        let mut net = net_with(&mesh, &[(2, 2, EAST), (2, 2, NORTH)]);
        net.set_measuring(true);
        net.send(mesh.node_at(2, 2), mesh.node_at(4, 4), 2).unwrap();
        assert!(net.drain(10_000));
        assert_eq!(net.stats.delivered_msgs, 1);
        assert_eq!(net.stats.decision_steps.max, 3, "misroute decision = 3 steps");
    }

    #[test]
    fn concave_pattern_deactivates_corner_node() {
        // L-shaped fault around (2,2): dead links to its east and north
        // neighbours leave it with 2 unusable directions -> deactivated
        let mesh = Mesh2D::new(5, 5);
        let net = net_with(&mesh, &[(2, 2, EAST), (2, 2, NORTH)]);
        let sw = net.controller(mesh.node_at(2, 2)).state_word();
        assert_eq!(sw & 1, 1, "corner of concave pattern deactivates");
        // its neighbours have only one bad direction each -> stay active
        let w = net.controller(mesh.node_at(1, 2)).state_word();
        assert_eq!(w & 1, 0);
    }

    #[test]
    fn deactivation_wave_completes_rectangles() {
        // two deactivating nodes in a row merge into a block: (1,2) and
        // (2,2) each lose their north and south links
        let mesh = Mesh2D::new(5, 5);
        let net = net_with(&mesh, &[(1, 2, NORTH), (1, 2, SOUTH), (2, 2, NORTH), (2, 2, SOUTH)]);
        assert_eq!(net.controller(mesh.node_at(1, 2)).state_word() & 1, 1);
        assert_eq!(net.controller(mesh.node_at(2, 2)).state_word() & 1, 1);
        // (0,2) now sees a dead-ended east neighbour? it has one unusable
        // direction (east neighbour deactivated) -> still active
        assert_eq!(net.controller(mesh.node_at(0, 2)).state_word() & 1, 0);
    }

    #[test]
    fn dead_end_east_wave() {
        // make every column east of x=1 contain a fault: nodes (2,*), (3,*),
        // (4,*) — one dead link per column suffices for the column wave
        let mesh = Mesh2D::new(5, 3);
        let net = net_with(&mesh, &[(2, 1, NORTH), (3, 0, NORTH), (4, 1, SOUTH)]);
        // node (1,1): all columns east (2,3,4) have faults
        let sw = net.controller(mesh.node_at(1, 1)).state_word();
        assert_eq!((sw >> 1) & 1, 1, "dead-end-east set");
        // node (3,1) is itself in a faulty column; columns east of it (4)
        // all faulty -> dead-end-east too
        let sw3 = net.controller(mesh.node_at(3, 1)).state_word();
        assert_eq!((sw3 >> 1) & 1, 1);
        // node (2,1): column 3 and 4 east are faulty -> dead-end-east; but
        // (0,1) westwards: column west of nothing... check west flag clear
        let sw0 = net.controller(mesh.node_at(1, 1)).state_word();
        assert_eq!((sw0 >> 2) & 1, 0, "west is clean (border col 0 is healthy)");
    }

    #[test]
    fn cdg_acyclic_even_with_faults() {
        let mesh = Mesh2D::new(5, 5);
        let algo = Nafta::new(mesh.clone());
        for seed in [1u64, 7, 23] {
            let mut faults = FaultSet::new();
            faults.inject_random_links(&mesh, 4, true, seed);
            let g = crate::conditions::build_cdg(&mesh, &algo, &faults);
            assert!(!g.has_cycle(), "seed {seed}: cycle {:?}", g.find_cycle());
        }
    }

    #[test]
    fn conditions_fault_free() {
        let mesh = Mesh2D::new(4, 4);
        let algo = Nafta::new(mesh.clone());
        let rep = crate::conditions::check_conditions(&mesh, &algo, &FaultSet::new(), None);
        assert_eq!(rep.cond1_ok, rep.cond1_pairs, "fully adaptive minimal");
        assert_eq!(rep.cond2_ok, rep.cond2_pairs);
        assert_eq!(rep.cond3_ok, rep.cond3_pairs);
    }

    #[test]
    fn conditions_mostly_hold_with_sparse_faults() {
        let mesh = Mesh2D::new(5, 5);
        let algo = Nafta::new(mesh.clone());
        let mut faults = FaultSet::new();
        faults.inject_random_links(&mesh, 3, true, 13);
        let rep = crate::conditions::check_conditions(&mesh, &algo, &faults, None);
        // condition 2 should hold for the overwhelming majority
        assert!(ConditionsReport::ratio(rep.cond2_ok, rep.cond2_pairs) > 0.9, "{rep:?}");
        // condition 3 may be violated (convex completion) but rarely here
        assert!(ConditionsReport::ratio(rep.cond3_ok, rep.cond3_pairs) > 0.85, "{rep:?}");
        use crate::conditions::ConditionsReport;
    }

    #[test]
    fn sustained_traffic_with_faults_drains() {
        let mesh = Mesh2D::new(6, 6);
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        net.inject_link_fault(topo.node_at(2, 2), EAST);
        net.inject_link_fault(topo.node_at(3, 3), NORTH);
        net.settle_control(10_000).unwrap();
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 4, 11);
        for _ in 0..1_500 {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(30_000), "drains despite faults");
        assert!(!net.stats.deadlock);
        assert!(net.stats.delivered_msgs > 500);
        assert_eq!(net.stats.unroutable_msgs, 0);
    }

    #[test]
    fn repair_reset_wave_restores_fault_free_state() {
        let mesh = Mesh2D::new(5, 5);
        let topo = Arc::new(mesh.clone());
        // baseline state words of a never-faulted network (the dead-end
        // flags are vacuously true on the borders, so "fully reset" means
        // "identical to fresh", not "all zero")
        let fresh =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        let baseline: Vec<i64> = mesh.nodes().map(|n| fresh.controller(n).state_word()).collect();

        let mut net =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        net.inject_link_fault(topo.node_at(2, 2), EAST);
        net.inject_link_fault(topo.node_at(2, 2), NORTH);
        net.settle_control(10_000).expect("settles");
        assert_eq!(net.controller(mesh.node_at(2, 2)).state_word() & 1, 1, "deactivated");

        net.repair_link(topo.node_at(2, 2), EAST);
        net.repair_link(topo.node_at(2, 2), NORTH);
        net.settle_control(10_000).expect("reset wave settles");
        let after: Vec<i64> = mesh.nodes().map(|n| net.controller(n).state_word()).collect();
        assert_eq!(after, baseline, "every node un-learned the repaired faults");

        // and routing is fully minimal again
        net.set_measuring(true);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(200_000));
        assert_eq!(net.stats.delivered_msgs, 600);
        assert_eq!(net.stats.excess_hops, 0, "minimal routing restored");
        assert_eq!(net.stats.decision_steps.max, 1, "fault-free decisions again");
    }

    #[test]
    fn partial_repair_keeps_remaining_fault_knowledge() {
        // faults in columns 2 and 3; repairing column 2's must not erase
        // what the network knows about column 3's
        let mesh = Mesh2D::new(5, 3);
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        net.inject_link_fault(topo.node_at(2, 1), NORTH);
        net.inject_link_fault(topo.node_at(3, 0), NORTH);
        net.settle_control(10_000).expect("settles");
        assert_eq!((net.controller(mesh.node_at(2, 0)).state_word() >> 3) & 1, 1);
        assert_eq!((net.controller(mesh.node_at(3, 1)).state_word() >> 3) & 1, 1);

        net.repair_link(topo.node_at(2, 1), NORTH);
        net.settle_control(10_000).expect("reset settles");
        // column 2 clean again, column 3 still known faulty
        assert_eq!((net.controller(mesh.node_at(2, 0)).state_word() >> 3) & 1, 0);
        assert_eq!((net.controller(mesh.node_at(3, 1)).state_word() >> 3) & 1, 1);
    }

    #[test]
    fn dynamic_fault_mid_run_recovers() {
        let mesh = Mesh2D::new(6, 6);
        let topo = Arc::new(mesh.clone());
        let mut net =
            Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.15, 4, 21);
        for cycle in 0..2_000u32 {
            if cycle == 700 {
                net.inject_link_fault(topo.node_at(3, 3), EAST);
            }
            if cycle == 900 {
                net.inject_node_fault(topo.node_at(1, 4));
            }
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        let drained = net.drain(30_000);
        assert!(
            drained,
            "in_flight={} deadlock={} delivered={} killed={} unroutable={}\n{}",
            net.in_flight(),
            net.stats.deadlock,
            net.stats.delivered_msgs,
            net.stats.killed_msgs,
            net.stats.unroutable_msgs,
            net.dump_occupancy()
        );
        assert!(!net.stats.deadlock);
        // ripped worms are bounded (a handful at the fault instant)
        assert!(net.stats.killed_msgs < 20, "killed {}", net.stats.killed_msgs);
        assert!(net.stats.delivered_msgs > 400);
    }
}

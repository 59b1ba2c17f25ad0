//! Channel-dependency-graph deadlock analysis (Dally & Seitz \[DaS87\]).
//!
//! The paper's §3 "Deadlock Avoidance" discussion builds on the classic
//! result that a wormhole routing algorithm is deadlock-free if the directed
//! graph whose vertices are virtual channels and whose edges are the
//! "message holds c1 and requests c2" dependencies is acyclic. This module
//! constructs that graph for an arbitrary routing relation and fault set and
//! looks for cycles, which lets the test-suite *prove* (by exhaustion over
//! destinations) that the turn-model virtual networks of NARA/NAFTA and the
//! phase scheme of ROUTE_C are deadlock-free, and that naive fully-adaptive
//! routing on a single channel is not.

use crate::faults::FaultSet;
use crate::ids::{NodeId, PortId, VcId};
use crate::Topology;
use std::collections::VecDeque;
use std::fmt;

/// A directed virtual channel: the channel leaving `node` through `port` on
/// virtual lane `vc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// Upstream endpoint.
    pub node: NodeId,
    /// Port at `node` through which the channel leaves.
    pub port: PortId,
    /// Virtual lane index.
    pub vc: VcId,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.node, self.port, self.vc)
    }
}

/// The routing relation handed to [`ChannelDependencyGraph::build`].
///
/// Arguments: current node, the channel the (head) flit occupies on arrival
/// (`None` for freshly injected messages; the `PortId` is the *input* port at
/// the current node), and the destination. Returns every output channel the
/// algorithm may select in *some* network state — supply the full relation,
/// not one choice, otherwise the acyclicity check proves nothing.
pub type RoutingRelation<'a> =
    dyn Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 'a;

/// The channel dependency graph of a routing relation on a faulty network.
pub struct ChannelDependencyGraph {
    num_vcs: usize,
    degree: usize,
    /// Adjacency: edges[c] = the channels that c may wait on, ascending
    /// and without repeats.
    edges: Vec<Vec<u32>>,
    /// Channels actually reachable by some message.
    used: Vec<bool>,
}

impl ChannelDependencyGraph {
    fn chan_index(&self, c: Channel) -> usize {
        (c.node.idx() * self.degree + c.port.idx()) * self.num_vcs + c.vc.idx()
    }

    fn chan_from_index(&self, i: usize) -> Channel {
        let vc = i % self.num_vcs;
        let rest = i / self.num_vcs;
        Channel {
            node: NodeId((rest / self.degree) as u32),
            port: PortId((rest % self.degree) as u8),
            vc: VcId(vc as u8),
        }
    }

    /// Builds the dependency graph by walking every (source, destination)
    /// message through the routing relation, recording which channel each
    /// held channel can wait for.
    pub fn build(
        topo: &dyn Topology,
        faults: &FaultSet,
        num_vcs: usize,
        routing: &RoutingRelation<'_>,
    ) -> Self {
        let degree = topo.degree();
        let n_chan = topo.num_nodes() * degree * num_vcs;
        let mut g = ChannelDependencyGraph {
            num_vcs,
            degree,
            edges: vec![Vec::new(); n_chan],
            used: vec![false; n_chan],
        };

        // BFS over "channel states", one destination at a time. A state is
        // a held channel; successors are the channels requested next.
        let mut seen = vec![false; n_chan];
        let mut queue: VecDeque<Channel> = VecDeque::new();
        for dst in topo.nodes() {
            if faults.node_faulty(dst) {
                continue;
            }
            seen.fill(false);

            // Injection: any alive source may request its first channel.
            for src in topo.nodes() {
                if src == dst || faults.node_faulty(src) {
                    continue;
                }
                for (p, vc) in routing(src, None, dst) {
                    if !faults.link_usable(topo, src, p) {
                        continue;
                    }
                    let c = Channel { node: src, port: p, vc };
                    let ci = g.chan_index(c);
                    g.used[ci] = true;
                    if !seen[ci] {
                        seen[ci] = true;
                        queue.push_back(c);
                    }
                }
            }

            while let Some(c) = queue.pop_front() {
                let here = match topo.neighbor(c.node, c.port) {
                    Some(m) => m,
                    None => continue,
                };
                if here == dst {
                    continue; // message drains, no further dependency
                }
                let in_port =
                    topo.port_towards(here, c.node).expect("channel endpoint is adjacent");
                let ci = g.chan_index(c);
                for (p, vc) in routing(here, Some((in_port, c.vc)), dst) {
                    if !faults.link_usable(topo, here, p) {
                        continue;
                    }
                    let next = Channel { node: here, port: p, vc };
                    let ni = g.chan_index(next);
                    g.edges[ci].push(ni as u32);
                    g.used[ni] = true;
                    if !seen[ni] {
                        seen[ni] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        for e in &mut g.edges {
            e.sort_unstable();
            e.dedup();
        }
        g
    }

    /// Number of channels any message can occupy.
    pub fn num_used_channels(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }

    /// True if the dependency graph contains a cycle (⇒ deadlock possible).
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Returns one dependency cycle for diagnostics, or `None` if acyclic.
    pub fn find_cycle(&self) -> Option<Vec<Channel>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.edges.len();
        let mut color = vec![WHITE; n];
        let mut parent: Vec<u32> = vec![u32::MAX; n];

        for start in 0..n {
            if color[start] != WHITE || !self.used[start] {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, position in
            // its edge list).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some((u, pos)) = stack.last_mut() {
                if let Some(&v) = self.edges[*u].get(*pos) {
                    let v = v as usize;
                    *pos += 1;
                    match color[v] {
                        WHITE => {
                            parent[v] = *u as u32;
                            color[v] = GRAY;
                            stack.push((v, 0));
                        }
                        GRAY => {
                            // found a back edge u -> v: reconstruct cycle
                            let mut cyc = vec![self.chan_from_index(v)];
                            let mut cur = *u;
                            while cur != v {
                                cyc.push(self.chan_from_index(cur));
                                cur = parent[cur] as usize;
                            }
                            cyc.reverse();
                            return Some(cyc);
                        }
                        _ => {}
                    }
                } else {
                    color[*u] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // test relation closures spell out the full signature
mod tests {
    use super::*;
    use crate::mesh::{Mesh2D, EAST, NORTH, SOUTH, WEST};

    /// XY dimension-order routing on one VC: provably deadlock-free.
    fn xy(
        m: &Mesh2D,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + '_ {
        move |cur, _in, dst| {
            let (dx, dy) = m.offset(cur, dst);
            let p = if dx > 0 {
                EAST
            } else if dx < 0 {
                WEST
            } else if dy > 0 {
                NORTH
            } else if dy < 0 {
                SOUTH
            } else {
                return vec![];
            };
            vec![(p, VcId(0))]
        }
    }

    /// Fully adaptive minimal on one VC: has cyclic dependencies.
    fn fully_adaptive(
        m: &Mesh2D,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + '_ {
        move |cur, _in, dst| {
            m.minimal_directions(cur, dst).into_iter().map(|p| (p, VcId(0))).collect()
        }
    }

    #[test]
    fn xy_routing_is_acyclic() {
        let m = Mesh2D::new(4, 4);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&m, &f, 1, &xy(&m));
        assert!(!g.has_cycle(), "XY routing must be deadlock-free");
        assert!(g.num_used_channels() > 0);
    }

    #[test]
    fn unrestricted_adaptive_has_cycle() {
        let m = Mesh2D::new(3, 3);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&m, &f, 1, &fully_adaptive(&m));
        let cyc = g.find_cycle().expect("minimal adaptive on 1 VC deadlocks");
        assert!(cyc.len() >= 4, "mesh cycles have length >= 4, got {cyc:?}");
    }

    #[test]
    fn west_first_turn_model_is_acyclic() {
        // West-first: go west first (all the way), afterwards never turn west.
        let m = Mesh2D::new(4, 4);
        let f = FaultSet::new();
        let wf = |cur: NodeId, _in: Option<(PortId, VcId)>, dst: NodeId| {
            let (dx, dy) = m.offset(cur, dst);
            if dx < 0 {
                return vec![(WEST, VcId(0))];
            }
            let mut out = vec![];
            if dx > 0 {
                out.push((EAST, VcId(0)));
            }
            if dy > 0 {
                out.push((NORTH, VcId(0)));
            }
            if dy < 0 {
                out.push((SOUTH, VcId(0)));
            }
            out
        };
        let g = ChannelDependencyGraph::build(&m, &f, 1, &wf);
        assert!(!g.has_cycle(), "west-first turn model is deadlock-free");
    }

    #[test]
    fn faults_remove_channels() {
        let m = Mesh2D::new(4, 4);
        let mut f = FaultSet::new();
        let g0 = ChannelDependencyGraph::build(&m, &f, 1, &xy(&m));
        f.fail_link(&m, m.node_at(1, 1), EAST);
        let g1 = ChannelDependencyGraph::build(&m, &f, 1, &xy(&m));
        assert!(g1.num_used_channels() < g0.num_used_channels());
    }

    #[test]
    fn cycle_report_is_a_real_cycle() {
        let m = Mesh2D::new(3, 3);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&m, &f, 1, &fully_adaptive(&m));
        let cyc = g.find_cycle().unwrap();
        // every consecutive pair (and the wrap pair) must be an edge
        for i in 0..cyc.len() {
            let a = cyc[i];
            let b = cyc[(i + 1) % cyc.len()];
            let ai = g.chan_index(a);
            let bi = g.chan_index(b);
            assert!(g.edges[ai].contains(&(bi as u32)), "{a:?} -> {b:?} missing");
        }
    }

    /// The NARA/NAFTA two-virtual-network turn-model discipline (§2.2):
    /// network 0 routes E/W/N, network 1 routes E/W/S plus a committed
    /// north climb in the destination column, switching 0 → 1 is one-way,
    /// and 180° turns are banned.
    fn nara_pair(
        m: &Mesh2D,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + '_ {
        move |cur, inc, dst| {
            let (dx, dy) = m.offset(cur, dst);
            if dx == 0 && dy == 0 {
                return vec![];
            }
            if let Some((ip, iv)) = inc {
                if iv == VcId(1) && ip == SOUTH {
                    // committed climb: keep going north in network 1
                    return vec![(NORTH, VcId(1))];
                }
            }
            let vnets: Vec<u8> = match inc {
                Some((_, iv)) => {
                    // one-way switch into the no-north network on overshoot
                    vec![if iv == VcId(0) && dy < 0 { 1 } else { iv.idx() as u8 }]
                }
                None if dy > 0 => vec![0],
                None if dy < 0 => vec![1],
                None => vec![0, 1],
            };
            let in_port = inc.map(|(p, _)| p);
            let mut out = vec![];
            for v in vnets {
                let mut dirs = vec![];
                if dx > 0 {
                    dirs.push(EAST);
                }
                if dx < 0 {
                    dirs.push(WEST);
                }
                if v == 0 {
                    if dy > 0 {
                        dirs.push(NORTH);
                    }
                } else {
                    if dy < 0 {
                        dirs.push(SOUTH);
                    }
                    if dx == 0 && dy > 0 {
                        dirs.push(NORTH); // terminal climb entry
                    }
                }
                dirs.retain(|&d| Some(d) != in_port);
                out.extend(dirs.into_iter().map(|d| (d, VcId(v))));
            }
            out
        }
    }

    #[test]
    fn nara_virtual_network_pair_is_acyclic() {
        let m = Mesh2D::new(4, 4);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&m, &f, 2, &nara_pair(&m));
        assert!(!g.has_cycle(), "the two-virtual-network turn model is deadlock-free");
        assert!(g.num_used_channels() > 0);
    }

    #[test]
    fn nara_virtual_network_pair_stays_acyclic_under_faults() {
        let m = Mesh2D::new(4, 4);
        let mut f = FaultSet::new();
        f.fail_link(&m, m.node_at(1, 1), EAST);
        f.fail_link(&m, m.node_at(2, 2), NORTH);
        let g = ChannelDependencyGraph::build(&m, &f, 2, &nara_pair(&m));
        assert!(!g.has_cycle());
    }

    /// Deterministic shortest-way dimension-order routing on a torus; with
    /// `vcs = 1` the wrap links close dependency rings, with `vcs = 2` a
    /// dateline upgrade (VC 1 after crossing the wrap link) breaks them.
    fn torus_dor(
        t: &crate::Torus2D,
        vcs: usize,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + '_ {
        move |cur, inc, dst| {
            if cur == dst {
                return vec![];
            }
            let (cx, cy) = t.coords(cur);
            let (dx, dy) = t.coords(dst);
            let (w, h) = (t.width(), t.height());
            let ring = |off: u32, size: u32, pos: u32, fwd: PortId, bwd: PortId| {
                let forward = off <= size / 2;
                let port = if forward { fwd } else { bwd };
                let wraps = (forward && pos == size - 1) || (!forward && pos == 0);
                (port, wraps)
            };
            let ox = (dx + w - cx) % w;
            let (port, wraps, same_dim) = if ox != 0 {
                let (p, wr) = ring(ox, w, cx, EAST, WEST);
                (p, wr, [EAST, WEST])
            } else {
                let oy = (dy + h - cy) % h;
                let (p, wr) = ring(oy, h, cy, NORTH, SOUTH);
                (p, wr, [NORTH, SOUTH])
            };
            let carried = match inc {
                Some((ip, iv)) if same_dim.contains(&ip) => iv.idx() as u8,
                _ => 0,
            };
            let vc = if vcs > 1 && wraps { 1 } else { carried };
            vec![(port, VcId(vc))]
        }
    }

    #[test]
    fn torus_wraparound_closes_a_ring_on_one_vc() {
        let t = crate::Torus2D::new(4, 4);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&t, &f, 1, &torus_dor(&t, 1));
        let cyc = g.find_cycle().expect("torus DOR without datelines deadlocks");
        // the witness is a full unidirectional ring of one dimension
        assert_eq!(cyc.len(), 4, "expected a wrap ring, got {cyc:?}");
        let port = cyc[0].port;
        assert!(cyc.iter().all(|c| c.port == port), "mixed-port witness {cyc:?}");
    }

    #[test]
    fn torus_dateline_virtual_channels_are_acyclic() {
        let t = crate::Torus2D::new(4, 4);
        let f = FaultSet::new();
        let g = ChannelDependencyGraph::build(&t, &f, 2, &torus_dor(&t, 2));
        assert!(!g.has_cycle(), "dateline VCs break torus wrap cycles");
        assert!(g.num_used_channels() > 0);
    }
}

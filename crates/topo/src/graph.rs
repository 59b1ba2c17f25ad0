//! Graph analyses over the healthy part of a faulty network.
//!
//! Everything here treats `(Topology, FaultSet)` as an undirected graph whose
//! vertices are the alive nodes and whose edges are the usable links. These
//! analyses back the paper's conditions 1–3 checks (§2.1): whether every
//! minimal path is intact, and whether a path exists at all.

use crate::faults::FaultSet;
use crate::ids::NodeId;
use crate::Topology;
use std::collections::VecDeque;

/// Distance label meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` over usable links, `UNREACHABLE` where no path
/// exists. Entry for `src` itself is 0 unless `src` is faulty.
pub fn bfs_distances(topo: &dyn Topology, faults: &FaultSet, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; topo.num_nodes()];
    if faults.node_faulty(src) {
        return dist;
    }
    dist[src.idx()] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(n) = q.pop_front() {
        let d = dist[n.idx()];
        for p in topo.ports() {
            if !faults.link_usable(topo, n, p) {
                continue;
            }
            let m = topo.neighbor(n, p).expect("usable link has endpoint");
            if dist[m.idx()] == UNREACHABLE {
                dist[m.idx()] = d + 1;
                q.push_back(m);
            }
        }
    }
    dist
}

/// Shortest-path distance between two nodes over usable links, or `None` if
/// disconnected.
pub fn distance(topo: &dyn Topology, faults: &FaultSet, a: NodeId, b: NodeId) -> Option<u32> {
    let d = bfs_distances(topo, faults, a)[b.idx()];
    (d != UNREACHABLE).then_some(d)
}

/// True if all alive nodes form a single connected component.
/// A network with zero alive nodes counts as connected (vacuously).
pub fn is_connected(topo: &dyn Topology, faults: &FaultSet) -> bool {
    let start = match topo.nodes().find(|&n| !faults.node_faulty(n)) {
        Some(n) => n,
        None => return true,
    };
    let dist = bfs_distances(topo, faults, start);
    topo.nodes().filter(|&n| !faults.node_faulty(n)).all(|n| dist[n.idx()] != UNREACHABLE)
}

/// True if *every* minimal path between `a` and `b` is intact — the premise
/// of condition 1 (§2.1). Checked by counting minimal paths with and without
/// faults via dynamic programming over the BFS layering; counts saturate so
/// huge path counts cannot overflow.
pub fn all_minimal_paths_intact(
    topo: &dyn Topology,
    faults: &FaultSet,
    a: NodeId,
    b: NodeId,
) -> bool {
    count_minimal_paths(topo, &FaultSet::new(), a, b) == count_minimal_paths(topo, faults, a, b)
}

/// Number of minimal-length (w.r.t. the fault-free topology) paths from `a`
/// to `b` that only use usable links, saturating at `u64::MAX`.
pub fn count_minimal_paths(topo: &dyn Topology, faults: &FaultSet, a: NodeId, b: NodeId) -> u64 {
    if faults.node_faulty(a) || faults.node_faulty(b) {
        return 0;
    }
    if a == b {
        return 1;
    }
    let target = topo.min_distance(a, b);
    // DP over nodes ordered by remaining distance: ways[n] = number of
    // minimal continuations from n. Process by decreasing distance-to-b.
    let mut order: Vec<NodeId> = topo
        .nodes()
        .filter(|&n| {
            !faults.node_faulty(n) && topo.min_distance(a, n) + topo.min_distance(n, b) == target
        })
        .collect();
    order.sort_by_key(|&n| std::cmp::Reverse(topo.min_distance(a, n)));
    let mut ways = vec![0u64; topo.num_nodes()];
    ways[b.idx()] = 1;
    for &n in &order {
        if n == b {
            continue;
        }
        let dn = topo.min_distance(n, b);
        let mut acc: u64 = 0;
        for p in topo.ports() {
            if !faults.link_usable(topo, n, p) {
                continue;
            }
            let m = topo.neighbor(n, p).expect("usable link has endpoint");
            if topo.min_distance(a, m) + topo.min_distance(m, b) == target
                && topo.min_distance(m, b) + 1 == dn
            {
                acc = acc.saturating_add(ways[m.idx()]);
            }
        }
        ways[n.idx()] = acc;
    }
    ways[a.idx()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::Hypercube;
    use crate::mesh::{Mesh2D, EAST};

    #[test]
    fn bfs_matches_manhattan_when_fault_free() {
        let m = Mesh2D::new(5, 5);
        let f = FaultSet::new();
        let src = m.node_at(2, 2);
        let d = bfs_distances(&m, &f, src);
        for n in m.nodes() {
            assert_eq!(d[n.idx()], m.min_distance(src, n));
        }
    }

    #[test]
    fn fault_lengthens_path() {
        let m = Mesh2D::new(3, 1);
        let mut f = FaultSet::new();
        f.fail_link(&m, m.node_at(0, 0), EAST);
        // 1-row mesh: breaking the only link disconnects
        assert_eq!(distance(&m, &f, m.node_at(0, 0), m.node_at(2, 0)), None);
        assert!(!is_connected(&m, &f));
    }

    #[test]
    fn detour_distance() {
        let m = Mesh2D::new(3, 2);
        let mut f = FaultSet::new();
        f.fail_link(&m, m.node_at(0, 0), EAST);
        // route 0,0 -> 2,0 must detour north: length 4 instead of 2
        assert_eq!(distance(&m, &f, m.node_at(0, 0), m.node_at(2, 0)), Some(4));
        assert!(is_connected(&m, &f));
    }

    #[test]
    fn faulty_node_has_no_component() {
        let m = Mesh2D::new(3, 3);
        let mut f = FaultSet::new();
        f.fail_node(m.node_at(1, 1));
        // a dead node reaches nothing, not even itself
        assert!(bfs_distances(&m, &f, m.node_at(1, 1)).iter().all(|&d| d == UNREACHABLE));
        // ring around the dead center is still one component
        assert!(is_connected(&m, &f));
    }

    #[test]
    fn minimal_path_count_mesh() {
        let m = Mesh2D::new(4, 4);
        let f = FaultSet::new();
        // (0,0) -> (2,2): C(4,2) = 6 minimal paths
        assert_eq!(count_minimal_paths(&m, &f, m.node_at(0, 0), m.node_at(2, 2)), 6);
        assert_eq!(count_minimal_paths(&m, &f, m.node_at(0, 0), m.node_at(3, 0)), 1);
        assert_eq!(count_minimal_paths(&m, &f, m.node_at(1, 1), m.node_at(1, 1)), 1);
    }

    #[test]
    fn minimal_path_count_hypercube() {
        let h = Hypercube::new(3);
        let f = FaultSet::new();
        // distance-3 pair: 3! = 6 minimal orders
        assert_eq!(count_minimal_paths(&h, &f, NodeId(0), NodeId(7)), 6);
        assert_eq!(count_minimal_paths(&h, &f, NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn condition_premises() {
        let m = Mesh2D::new(4, 4);
        let mut f = FaultSet::new();
        let a = m.node_at(0, 0);
        let b = m.node_at(2, 2);
        assert!(all_minimal_paths_intact(&m, &f, a, b));
        f.fail_link(&m, m.node_at(1, 1), EAST);
        assert!(!all_minimal_paths_intact(&m, &f, a, b));
        // one cut link leaves the other minimal paths
        assert_eq!(distance(&m, &f, a, b), Some(m.min_distance(a, b)));
    }
}

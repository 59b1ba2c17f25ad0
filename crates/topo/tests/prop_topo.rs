//! Property-based tests of the topology substrate.

use ftr_topo::spanning::SpanningTree;
use ftr_topo::{graph, FaultSet, Hypercube, KAryNCube, Mesh2D, NodeId, Topology};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = Mesh2D> {
    (1u32..=8, 1u32..=8).prop_map(|(w, h)| Mesh2D::new(w, h))
}

fn arb_torus() -> impl Strategy<Value = KAryNCube> {
    (3u32..=7, 1u32..=3).prop_map(|(k, n)| KAryNCube::torus(k, n))
}

fn arb_cube() -> impl Strategy<Value = Hypercube> {
    (1u32..=6).prop_map(Hypercube::new)
}

proptest! {
    /// Adjacency is symmetric: some port leads back from every neighbour.
    #[test]
    fn mesh_adjacency_symmetric(m in arb_mesh(), n in 0u32..64) {
        let n = NodeId(n % m.num_nodes() as u32);
        for (p, nb) in m.neighbors(n) {
            prop_assert_eq!(m.port_towards(nb, n).is_some(), true);
            prop_assert_eq!(m.neighbor(n, p), Some(nb));
        }
    }

    /// min_distance is a metric: symmetry + triangle inequality + identity.
    #[test]
    fn mesh_distance_is_metric(m in arb_mesh(), a in 0u32..64, b in 0u32..64, c in 0u32..64) {
        let n = m.num_nodes() as u32;
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        prop_assert_eq!(m.min_distance(a, a), 0);
        prop_assert_eq!(m.min_distance(a, b), m.min_distance(b, a));
        prop_assert!(m.min_distance(a, c) <= m.min_distance(a, b) + m.min_distance(b, c));
    }

    /// BFS over a fault-free network equals the closed-form distance, on
    /// every topology kind.
    #[test]
    fn bfs_matches_min_distance(m in arb_mesh(), t in arb_torus(), h in arb_cube()) {
        let f = FaultSet::new();
        for topo in [&m as &dyn Topology, &t, &h] {
            let src = NodeId(0);
            let d = graph::bfs_distances(topo, &f, src);
            for n in topo.nodes() {
                prop_assert_eq!(d[n.idx()], topo.min_distance(src, n));
            }
        }
    }

    /// keep_connected fault injection preserves connectivity, and a fault
    /// can only lengthen the distance across the network.
    #[test]
    fn faulty_paths_are_valid(seed in 0u64..500, nfaults in 0usize..8) {
        let m = Mesh2D::new(6, 6);
        let mut f = FaultSet::new();
        f.inject_random_links(&m, nfaults, true, seed);
        prop_assert!(graph::is_connected(&m, &f));
        let (a, b) = (NodeId(0), NodeId(35));
        prop_assert!(graph::distance(&m, &f, a, b).expect("connected") >= m.min_distance(a, b));
    }

    /// Spanning trees span every reachable node with exactly one parentage
    /// and no fault edges.
    #[test]
    fn spanning_tree_invariants(seed in 0u64..500, nfaults in 0usize..6) {
        let m = Mesh2D::new(5, 5);
        let mut f = FaultSet::new();
        f.inject_random_links(&m, nfaults, true, seed);
        let t = SpanningTree::build(&m, &f, NodeId(0));
        let mut in_tree = 0;
        for n in m.nodes() {
            if t.contains(n) {
                in_tree += 1;
                if n != t.root() {
                    let p = t.parent(n).expect("non-root has parent");
                    let port = m.port_towards(n, p).expect("parent adjacent");
                    prop_assert!(f.link_usable(&m, n, port));
                    prop_assert_eq!(t.depth(n).unwrap(), t.depth(p).unwrap() + 1);
                }
            }
        }
        prop_assert_eq!(t.tree_links(&m).len(), in_tree - 1);
    }

    /// Minimal-path counting agrees with a brute-force DFS enumeration on
    /// small meshes.
    #[test]
    fn minimal_path_count_matches_bruteforce(
        w in 2u32..=4, hgt in 2u32..=4, seed in 0u64..100, nf in 0usize..4
    ) {
        let m = Mesh2D::new(w, hgt);
        let mut f = FaultSet::new();
        f.inject_random_links(&m, nf, false, seed);
        let a = NodeId(0);
        let b = NodeId(w * hgt - 1);

        fn dfs(m: &Mesh2D, f: &FaultSet, cur: NodeId, dst: NodeId, budget: u32) -> u64 {
            if cur == dst {
                return 1;
            }
            if budget == 0 {
                return 0;
            }
            let mut total = 0;
            for (p, nb) in m.neighbors(cur) {
                if f.link_usable(m, cur, p) && m.min_distance(nb, dst) + 1 == m.min_distance(cur, dst) {
                    total += dfs(m, f, nb, dst, budget - 1);
                }
            }
            total
        }

        let expected = if f.node_faulty(a) || f.node_faulty(b) {
            0
        } else {
            dfs(&m, &f, a, b, m.min_distance(a, b))
        };
        prop_assert_eq!(graph::count_minimal_paths(&m, &f, a, b), expected);
    }

    /// Canonical links partition the edge set: every (node, port) pair with
    /// a neighbour maps to exactly one canonical link.
    #[test]
    fn canonical_links_partition(h in arb_cube()) {
        let links = h.links();
        let mut count = 0;
        for n in h.nodes() {
            for p in h.ports() {
                if h.neighbor(n, p).is_some() {
                    count += 1;
                    let l = h.link(n, p).unwrap();
                    prop_assert!(links.contains(&l));
                }
            }
        }
        prop_assert_eq!(count, links.len() * 2, "each link seen from both ends");
    }
}

//! General k-ary n-cube: `n` dimensions of radix `k`, optionally with
//! wrap-around links (torus) — the family "k-ary n cubes" the paper cites
//! for the planar adaptive router.
//!
//! Ports follow the workspace convention `2·dim + sign`: port `2d` moves
//! +1 in dimension `d`, port `2d+1` moves −1. [`Mesh2D`] is the
//! ergonomic 2-D mesh; this type covers the 2-D torus (`torus(k, 2)`, the
//! ports of [`crate::mesh`]) and higher dimensions (3-D meshes, rings,
//! hyper-tori).
//!
//! [`Mesh2D`]: crate::mesh::Mesh2D

use crate::ids::{NodeId, PortId};
use crate::Topology;

/// A k-ary n-cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KAryNCube {
    radix: u32,
    dims: u32,
    wrap: bool,
}

impl KAryNCube {
    /// Creates a mesh-like (no wrap) k-ary n-cube.
    pub fn mesh(radix: u32, dims: u32) -> Self {
        Self::new(radix, dims, false)
    }

    /// Creates a torus-like (wrap-around) k-ary n-cube. Radix must be ≥ 3
    /// so links stay simple (no double edges between a node pair).
    pub fn torus(radix: u32, dims: u32) -> Self {
        assert!(radix >= 3, "wrap-around needs radix >= 3");
        Self::new(radix, dims, true)
    }

    fn new(radix: u32, dims: u32, wrap: bool) -> Self {
        assert!(radix >= 2, "radix must be >= 2");
        assert!((1..=8).contains(&dims), "1..=8 dimensions supported");
        let nodes = (radix as u64).checked_pow(dims).expect("size overflows");
        assert!(nodes <= u32::MAX as u64, "network too large");
        KAryNCube { radix, dims, wrap }
    }

    /// The radix `k`.
    pub fn radix(&self) -> u32 {
        self.radix
    }

    /// The dimension count `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// True for the torus variant.
    pub fn wraps(&self) -> bool {
        self.wrap
    }

    /// Mixed-radix coordinates of a node (dimension 0 least significant).
    pub fn coords(&self, n: NodeId) -> Vec<u32> {
        let mut rest = n.0;
        (0..self.dims)
            .map(|_| {
                let c = rest % self.radix;
                rest /= self.radix;
                c
            })
            .collect()
    }

    /// Node at the given coordinates.
    pub fn node_at(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len(), self.dims as usize);
        let mut id = 0u32;
        for &c in coords.iter().rev() {
            debug_assert!(c < self.radix);
            id = id * self.radix + c;
        }
        NodeId(id)
    }

    /// Per-dimension distance with optional wrap.
    fn dim_dist(&self, a: u32, b: u32) -> u32 {
        let d = a.abs_diff(b);
        if self.wrap {
            d.min(self.radix - d)
        } else {
            d
        }
    }
}

impl Topology for KAryNCube {
    fn name(&self) -> String {
        format!("{}-ary {}-{}", self.radix, self.dims, if self.wrap { "torus" } else { "mesh" })
    }

    fn num_nodes(&self) -> usize {
        (self.radix as u64).pow(self.dims) as usize
    }

    fn degree(&self) -> usize {
        2 * self.dims as usize
    }

    fn neighbor(&self, n: NodeId, p: PortId) -> Option<NodeId> {
        let d = (p.idx() / 2) as u32;
        if d >= self.dims {
            return None;
        }
        let plus = p.idx().is_multiple_of(2);
        let mut coords = self.coords(n);
        let c = coords[d as usize];
        let next = if plus {
            if c + 1 < self.radix {
                c + 1
            } else if self.wrap {
                0
            } else {
                return None;
            }
        } else if c > 0 {
            c - 1
        } else if self.wrap {
            self.radix - 1
        } else {
            return None;
        };
        coords[d as usize] = next;
        Some(self.node_at(&coords))
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coords(a);
        let cb = self.coords(b);
        ca.iter().zip(&cb).map(|(&x, &y)| self.dim_dist(x, y)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh2D, SOUTH, WEST};

    #[test]
    fn matches_mesh2d_structure() {
        let k = KAryNCube::mesh(4, 2);
        let m = Mesh2D::new(4, 4);
        assert_eq!(k.num_nodes(), m.num_nodes());
        assert_eq!(k.links().len(), m.links().len());
        for a in k.nodes() {
            for b in k.nodes() {
                assert_eq!(k.min_distance(a, b), m.min_distance(a, b));
            }
        }
    }

    #[test]
    fn matches_torus2d_structure() {
        // the 2-D torus: four wired ports everywhere, 2N links, wrap links
        // at the edges, and the shorter way round in each dimension
        let k = KAryNCube::torus(5, 2);
        assert_eq!(k.links().len(), 2 * k.num_nodes());
        let ring = |a: u32, b: u32| a.abs_diff(b).min(5 - a.abs_diff(b));
        for a in k.nodes() {
            assert_eq!(k.neighbors(a).len(), 4);
            for b in k.nodes() {
                let (ca, cb) = (k.coords(a), k.coords(b));
                assert_eq!(k.min_distance(a, b), ring(ca[0], cb[0]) + ring(ca[1], cb[1]));
            }
        }
        let corner = k.node_at(&[0, 0]);
        assert_eq!(k.neighbor(corner, WEST), Some(k.node_at(&[4, 0])));
        assert_eq!(k.neighbor(corner, SOUTH), Some(k.node_at(&[0, 4])));
    }

    #[test]
    fn three_dimensional_mesh() {
        let k = KAryNCube::mesh(3, 3);
        assert_eq!(k.num_nodes(), 27);
        assert_eq!(k.degree(), 6);
        // center node has all 6 neighbours
        let center = k.node_at(&[1, 1, 1]);
        assert_eq!(k.neighbors(center).len(), 6);
        // corner has 3
        let corner = k.node_at(&[0, 0, 0]);
        assert_eq!(k.neighbors(corner).len(), 3);
        assert_eq!(k.min_distance(corner, k.node_at(&[2, 2, 2])), 6);
    }

    #[test]
    fn coords_roundtrip() {
        let k = KAryNCube::torus(5, 3);
        for n in k.nodes() {
            assert_eq!(k.node_at(&k.coords(n)), n);
        }
    }

    #[test]
    fn adjacency_symmetric() {
        let k = KAryNCube::torus(3, 3);
        for n in k.nodes() {
            for (p, nb) in k.neighbors(n) {
                assert!(k.port_towards(nb, n).is_some());
                assert_eq!(k.neighbor(n, p), Some(nb));
            }
        }
    }

    #[test]
    fn ring_is_1d_torus() {
        let k = KAryNCube::torus(6, 1);
        assert_eq!(k.num_nodes(), 6);
        assert_eq!(k.degree(), 2);
        assert_eq!(k.min_distance(NodeId(0), NodeId(5)), 1, "wraps");
        assert_eq!(k.min_distance(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    #[should_panic(expected = "radix >= 3")]
    fn small_wrap_radix_rejected() {
        KAryNCube::torus(2, 2);
    }
}

//! Two-dimensional torus (2-ary wrap-around mesh).
//!
//! Shares the port convention of [`crate::mesh`]: `0`=east, `1`=west,
//! `2`=north, `3`=south — but every port is wired thanks to the wrap links.

use crate::ids::{NodeId, PortId};
use crate::mesh::{EAST, NORTH, SOUTH, WEST};
use crate::Topology;

/// A `width × height` torus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torus2D {
    width: u32,
    height: u32,
}

impl Torus2D {
    /// Creates a torus. Panics if either dimension is smaller than 3
    /// (smaller radixes create double links between the same node pair,
    /// which the canonical [`crate::ids::LinkId`] cannot distinguish).
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width >= 3 && height >= 3, "torus dimensions must be >= 3");
        Torus2D { width, height }
    }

    /// Torus width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Torus height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Coordinates `(x, y)` of a node.
    pub fn coords(&self, n: NodeId) -> (u32, u32) {
        (n.0 % self.width, n.0 / self.width)
    }

    /// Node at coordinates `(x, y)`.
    pub fn node_at(&self, x: u32, y: u32) -> NodeId {
        debug_assert!(x < self.width && y < self.height);
        NodeId(y * self.width + x)
    }

    fn wrap_dist(d: u32, size: u32) -> u32 {
        d.min(size - d)
    }
}

impl Topology for Torus2D {
    fn name(&self) -> String {
        format!("torus {}x{}", self.width, self.height)
    }

    fn num_nodes(&self) -> usize {
        (self.width * self.height) as usize
    }

    fn degree(&self) -> usize {
        4
    }

    fn neighbor(&self, n: NodeId, p: PortId) -> Option<NodeId> {
        let (x, y) = self.coords(n);
        let (w, h) = (self.width, self.height);
        let m = match p {
            EAST => self.node_at((x + 1) % w, y),
            WEST => self.node_at((x + w - 1) % w, y),
            NORTH => self.node_at(x, (y + 1) % h),
            SOUTH => self.node_at(x, (y + h - 1) % h),
            _ => return None,
        };
        Some(m)
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        Self::wrap_dist(ax.abs_diff(bx), self.width) + Self::wrap_dist(ay.abs_diff(by), self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ports_wired() {
        let t = Torus2D::new(4, 4);
        for n in t.nodes() {
            assert_eq!(t.neighbors(n).len(), 4);
        }
    }

    #[test]
    fn wraparound_neighbors() {
        let t = Torus2D::new(4, 3);
        let corner = t.node_at(0, 0);
        assert_eq!(t.neighbor(corner, WEST), Some(t.node_at(3, 0)));
        assert_eq!(t.neighbor(corner, SOUTH), Some(t.node_at(0, 2)));
    }

    #[test]
    fn wrap_distance_shorter() {
        let t = Torus2D::new(8, 8);
        // straight distance 7, wrap distance 1
        assert_eq!(t.min_distance(t.node_at(0, 0), t.node_at(7, 0)), 1);
        assert_eq!(t.min_distance(t.node_at(0, 0), t.node_at(4, 4)), 8);
    }

    #[test]
    fn link_count_is_2n() {
        let t = Torus2D::new(5, 4);
        assert_eq!(t.links().len(), 2 * t.num_nodes());
    }

    #[test]
    #[should_panic(expected = ">= 3")]
    fn small_radix_rejected() {
        Torus2D::new(2, 4);
    }
}

//! Two-dimensional mesh — the topology of NARA/NAFTA.
//!
//! Ports follow the `2*dim + sign` convention used throughout the workspace:
//! port `0` = +x (east), `1` = -x (west), `2` = +y (north), `3` = -y (south).
//! Node `(x, y)` has id `y * width + x`; `(0, 0)` is the south-west corner.

use crate::ids::{NodeId, PortId};
use crate::Topology;

/// Port leading in +x direction.
pub const EAST: PortId = PortId(0);
/// Port leading in -x direction.
pub const WEST: PortId = PortId(1);
/// Port leading in +y direction.
pub const NORTH: PortId = PortId(2);
/// Port leading in -y direction.
pub const SOUTH: PortId = PortId(3);

/// All four mesh directions in port order.
pub const MESH_PORTS: [PortId; 4] = [EAST, WEST, NORTH, SOUTH];

/// Returns the opposite mesh direction (`EAST` ↔ `WEST`, `NORTH` ↔ `SOUTH`).
pub fn opposite(p: PortId) -> PortId {
    PortId(p.0 ^ 1)
}

/// A `width × height` two-dimensional mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mesh2D {
    width: u32,
    height: u32,
}

impl Mesh2D {
    /// Creates a mesh. Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!((width as u64) * (height as u64) <= u32::MAX as u64, "mesh too large");
        Mesh2D { width, height }
    }

    /// Mesh width (number of columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height (number of rows).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Coordinates `(x, y)` of a node.
    pub fn coords(&self, n: NodeId) -> (u32, u32) {
        debug_assert!(n.idx() < self.num_nodes());
        (n.0 % self.width, n.0 / self.width)
    }

    /// Node at coordinates `(x, y)`.
    pub fn node_at(&self, x: u32, y: u32) -> NodeId {
        debug_assert!(x < self.width && y < self.height);
        NodeId(y * self.width + x)
    }

    /// The displacement `(dx, dy)` from `from` to `to`.
    pub fn offset(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        (tx as i32 - fx as i32, ty as i32 - fy as i32)
    }

    /// The set of mesh directions along minimal paths from `from` to `to`
    /// (the `minimal(dx, dy)` function used in the paper's NARA excerpt).
    /// Empty iff `from == to`.
    pub fn minimal_directions(&self, from: NodeId, to: NodeId) -> Vec<PortId> {
        let (dx, dy) = self.offset(from, to);
        let mut dirs = Vec::with_capacity(2);
        if dx > 0 {
            dirs.push(EAST);
        } else if dx < 0 {
            dirs.push(WEST);
        }
        if dy > 0 {
            dirs.push(NORTH);
        } else if dy < 0 {
            dirs.push(SOUTH);
        }
        dirs
    }
}

impl Topology for Mesh2D {
    fn name(&self) -> String {
        format!("mesh {}x{}", self.width, self.height)
    }

    fn num_nodes(&self) -> usize {
        (self.width * self.height) as usize
    }

    fn degree(&self) -> usize {
        4
    }

    fn neighbor(&self, n: NodeId, p: PortId) -> Option<NodeId> {
        let (x, y) = self.coords(n);
        match p {
            EAST if x + 1 < self.width => Some(self.node_at(x + 1, y)),
            WEST if x > 0 => Some(self.node_at(x - 1, y)),
            NORTH if y + 1 < self.height => Some(self.node_at(x, y + 1)),
            SOUTH if y > 0 => Some(self.node_at(x, y - 1)),
            _ => None,
        }
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (dx, dy) = self.offset(a, b);
        dx.unsigned_abs() + dy.unsigned_abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let m = Mesh2D::new(5, 3);
        for n in m.nodes() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn neighbor_geometry() {
        let m = Mesh2D::new(4, 4);
        let c = m.node_at(1, 1);
        assert_eq!(m.neighbor(c, EAST), Some(m.node_at(2, 1)));
        assert_eq!(m.neighbor(c, WEST), Some(m.node_at(0, 1)));
        assert_eq!(m.neighbor(c, NORTH), Some(m.node_at(1, 2)));
        assert_eq!(m.neighbor(c, SOUTH), Some(m.node_at(1, 0)));
    }

    #[test]
    fn boundary_ports_unconnected() {
        let m = Mesh2D::new(4, 4);
        let sw = m.node_at(0, 0);
        assert_eq!(m.neighbor(sw, WEST), None);
        assert_eq!(m.neighbor(sw, SOUTH), None);
        let ne = m.node_at(3, 3);
        assert_eq!(m.neighbor(ne, EAST), None);
        assert_eq!(m.neighbor(ne, NORTH), None);
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.min_distance(m.node_at(0, 0), m.node_at(7, 7)), 14);
        assert_eq!(m.min_distance(m.node_at(3, 4), m.node_at(3, 4)), 0);
        assert_eq!(m.min_distance(m.node_at(5, 2), m.node_at(2, 6)), 7);
    }

    #[test]
    fn minimal_directions_cover_quadrants() {
        let m = Mesh2D::new(8, 8);
        let c = m.node_at(4, 4);
        assert_eq!(m.minimal_directions(c, m.node_at(6, 6)), vec![EAST, NORTH]);
        assert_eq!(m.minimal_directions(c, m.node_at(2, 2)), vec![WEST, SOUTH]);
        assert_eq!(m.minimal_directions(c, m.node_at(4, 7)), vec![NORTH]);
        assert_eq!(m.minimal_directions(c, c), Vec::<PortId>::new());
    }

    #[test]
    fn opposite_direction_is_involution() {
        for p in MESH_PORTS {
            assert_ne!(opposite(p), p);
            assert_eq!(opposite(opposite(p)), p);
        }
        assert_eq!(opposite(EAST), WEST);
        assert_eq!(opposite(NORTH), SOUTH);
    }

    #[test]
    fn single_row_mesh() {
        let m = Mesh2D::new(6, 1);
        assert_eq!(m.num_nodes(), 6);
        for n in m.nodes() {
            assert_eq!(m.neighbor(n, NORTH), None);
            assert_eq!(m.neighbor(n, SOUTH), None);
        }
        assert_eq!(m.links().len(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        Mesh2D::new(0, 4);
    }
}

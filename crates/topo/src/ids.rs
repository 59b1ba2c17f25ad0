//! Strongly-typed identifiers for network entities.
//!
//! Using newtypes instead of bare integers prevents the classic simulator bug
//! of indexing a per-port array with a node id. All ids are small `Copy`
//! types so they can be passed by value everywhere.

use std::fmt;

/// Identifier of a network node (router + attached processing element).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a router port (one per attached link, plus the local
/// injection/ejection port which is handled separately by the simulator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u8);

impl PortId {
    /// The port id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a virtual channel multiplexed onto a physical link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId(pub u8);

impl VcId {
    /// The virtual-channel id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Canonical identifier of a *bidirectional* physical link.
///
/// The paper's fault model (assumption i) treats a link as one unit: "links
/// are bi-directional and both directions fail together". A link is named by
/// its lower-numbered endpoint and the port leaving that endpoint, so the two
/// directed views of the same wire compare equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LinkId {
    /// The lower-numbered endpoint of the link.
    pub node: NodeId,
    /// The port at `node` through which the link leaves.
    pub port: PortId,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l({},{})", self.node, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId(42);
        assert_eq!(n.idx(), 42);
        assert_eq!(format!("{n}"), "n42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(PortId(0) < PortId(3));
        assert!(VcId(0) < VcId(1));
    }

    #[test]
    fn link_id_is_canonical_value() {
        let a = LinkId { node: NodeId(3), port: PortId(1) };
        let b = LinkId { node: NodeId(3), port: PortId(1) };
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), "l(n3,p1)");
    }
}

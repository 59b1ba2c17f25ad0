//! The mesh data path's channel allocator: which virtual network a head
//! decides in and which directions it may take there.
//!
//! §2.2 puts deadlock prevention in the data path, not in the routing
//! decision: "Two virtual channels are used per link forming two virtual
//! networks, called south-last and north-last. By prohibiting a direction
//! change for messages that once have been transmitted southern (resp.
//! northern), cycles of dependencies are avoided." This module is that
//! discipline, once, for everything that routes on a mesh — native
//! [`crate::Nara`] and [`crate::Nafta`], the rule host in `ftr-core` and
//! the static lift in `ftr-analyze` — so what is proved is what runs.
//!
//! Network 0 routes E/W/N only. Network 1 routes E/W/S plus a *committed*
//! north climb: a message may turn into north to recover an overshot
//! destination row, but only from the destination column, and turns *out
//! of* north are banned — once climbing it climbs until delivery.
//! 180-degree turns are banned in both networks. A message needing north
//! is injected into network 0, one needing south into network 1; a
//! network-0 message that overshot its destination row (now needs south)
//! switches 0 → 1, never back, so cross-network dependencies are one-way
//! and the combined channel dependency graph stays acyclic.

use ftr_topo::{PortId, VcId, EAST, NORTH, SOUTH, WEST};

/// Virtual network 0: may route E/W/N (south-last-free).
pub const VNET_NO_SOUTH: u8 = 0;
/// Virtual network 1: may route E/W/S (plus the committed north climb).
pub const VNET_NO_NORTH: u8 = 1;

/// How the data path assigns virtual channels to the directions a mesh
/// router decides on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshVcMode {
    /// One virtual network: every decision stays on the arrival VC and
    /// may take any direction.
    SingleVc,
    /// The NARA/NAFTA two-virtual-network discipline (§2.2).
    NaraPair,
}

/// One decision as the data path frames it: the network the head decides
/// in — the VC it leaves on — and the directions it may take there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    /// The virtual network.
    pub vnet: u8,
    /// Permitted directions, bit = port index.
    pub permitted: u8,
}

impl Lane {
    /// True if the data path lets the head leave through `dir`.
    pub fn permits(self, dir: PortId) -> bool {
        self.permitted & (1 << dir.idx()) != 0
    }
}

/// Every mesh direction.
const ANY_DIR: u8 = 0b1111;

fn mask(dirs: &[PortId]) -> u8 {
    dirs.iter().fold(0, |m, d| m | 1 << d.idx())
}

impl MeshVcMode {
    /// Virtual channels per link this data path needs.
    pub fn num_vcs(self) -> usize {
        match self {
            MeshVcMode::SingleVc => 1,
            MeshVcMode::NaraPair => 2,
        }
    }

    /// The lane of a head in flight: it arrived through `arrival.0` on VC
    /// `arrival.1` and its destination lies `(dx, dy)` away.
    pub fn lane(self, arrival: (PortId, VcId), (dx, dy): (i32, i32)) -> Lane {
        let (in_port, in_vc) = (arrival.0, arrival.1.idx() as u8);
        if self == MeshVcMode::SingleVc {
            return Lane { vnet: in_vc, permitted: ANY_DIR };
        }
        // committed climb: the message was *already in network 1* and
        // moving north (one that arrived northbound on network 0 and
        // switches below is not climbing — it was escaping)
        if in_vc == VNET_NO_NORTH && in_port == SOUTH {
            return Lane { vnet: VNET_NO_NORTH, permitted: mask(&[NORTH]) };
        }
        let vnet = if in_vc == VNET_NO_SOUTH && dy < 0 { VNET_NO_NORTH } else { in_vc };
        Lane { vnet, permitted: Self::network_dirs(vnet, dx, dy) & !mask(&[in_port]) }
    }

    /// The lanes a head may decide in, in preference order: its
    /// [`lane`](Self::lane) in flight; at injection (`arrival` is `None`)
    /// the network its row offset requires — either, for pure horizontal
    /// movement.
    pub fn lanes(
        self,
        arrival: Option<(PortId, VcId)>,
        (dx, dy): (i32, i32),
    ) -> impl Iterator<Item = Lane> {
        let at = |vnet| Lane { vnet, permitted: Self::network_dirs(vnet, dx, dy) };
        let (first, second) = match (arrival, self) {
            (Some(arrival), _) => (self.lane(arrival, (dx, dy)), None),
            (None, MeshVcMode::SingleVc) => (Lane { vnet: 0, permitted: ANY_DIR }, None),
            (None, MeshVcMode::NaraPair) if dy > 0 => (at(VNET_NO_SOUTH), None),
            (None, MeshVcMode::NaraPair) if dy < 0 => (at(VNET_NO_NORTH), None),
            (None, MeshVcMode::NaraPair) => (at(VNET_NO_SOUTH), Some(at(VNET_NO_NORTH))),
        };
        std::iter::once(first).chain(second)
    }

    /// What a network of the pair routes, before the 180° ban.
    fn network_dirs(vnet: u8, dx: i32, dy: i32) -> u8 {
        if vnet == VNET_NO_SOUTH {
            mask(&[EAST, WEST, NORTH])
        } else if dx == 0 && dy > 0 {
            ANY_DIR // terminal climb: only from the destination column
        } else {
            mask(&[EAST, WEST, SOUTH])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MeshVcMode::{NaraPair, SingleVc};

    fn lanes(mode: MeshVcMode, arrival: Option<(PortId, u8)>, offset: (i32, i32)) -> Vec<Lane> {
        mode.lanes(arrival.map(|(p, v)| (p, VcId(v))), offset).collect()
    }

    #[test]
    fn injection_network_follows_the_row_offset() {
        let ewn = mask(&[EAST, WEST, NORTH]);
        let ews = mask(&[EAST, WEST, SOUTH]);
        assert_eq!(lanes(NaraPair, None, (1, 3)), [Lane { vnet: 0, permitted: ewn }]);
        assert_eq!(lanes(NaraPair, None, (1, -1)), [Lane { vnet: 1, permitted: ews }]);
        assert_eq!(
            lanes(NaraPair, None, (2, 0)),
            [Lane { vnet: 0, permitted: ewn }, Lane { vnet: 1, permitted: ews }]
        );
        assert_eq!(lanes(SingleVc, None, (2, 0)), [Lane { vnet: 0, permitted: ANY_DIR }]);
    }

    #[test]
    fn in_flight_discipline() {
        // no 180° turn: a head that came in through WEST was moving east
        assert_eq!(
            lanes(NaraPair, Some((WEST, 0)), (1, 1)),
            [Lane { vnet: 0, permitted: mask(&[EAST, NORTH]) }]
        );
        // overshoot: network 0 needing south switches one-way to network 1
        assert_eq!(
            lanes(NaraPair, Some((WEST, 0)), (1, -1)),
            [Lane { vnet: 1, permitted: mask(&[EAST, SOUTH]) }]
        );
        assert_eq!(lanes(NaraPair, Some((WEST, 1)), (1, 1))[0].vnet, 1, "never back");
        // terminal climb only from the destination column, then committed
        assert!(!lanes(NaraPair, Some((WEST, 1)), (1, 2))[0].permits(NORTH));
        assert!(lanes(NaraPair, Some((WEST, 1)), (0, 2))[0].permits(NORTH));
        assert_eq!(
            lanes(NaraPair, Some((SOUTH, 1)), (3, 2)),
            [Lane { vnet: 1, permitted: mask(&[NORTH]) }]
        );
        // a northbound arrival on network 0 that switches is escaping, not climbing
        assert_eq!(
            lanes(NaraPair, Some((SOUTH, 0)), (1, -1)),
            [Lane { vnet: 1, permitted: mask(&[EAST, WEST]) }]
        );
        // one network: the arrival VC, every direction
        assert_eq!(
            lanes(SingleVc, Some((SOUTH, 1)), (1, -1)),
            [Lane { vnet: 1, permitted: ANY_DIR }]
        );
    }
}

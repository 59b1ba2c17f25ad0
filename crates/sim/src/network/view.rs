//! The information units: what a control unit may observe at its node.
//!
//! Every [`RouterView`] the engine hands a [`NodeController`] is a window
//! on the node's own row of the wiring table, and nothing is copied for
//! it: beside that row, routing consults (`phases`) and control-plane
//! hooks (`control`) read the node's arena rows, while the idealised
//! router here — [`Network::query_relation`]'s and the `RouteWait`
//! probe's — has no state to read.

use super::Network;
use crate::flit::Header;
use crate::routing::{one_free_grants, NodeController, RouterView, Rows};
use ftr_topo::{NodeId, PortId, VcId};

impl Network {
    /// Output channels the controller would accept *right now* for a head
    /// it asked to wait, in the grant contract's terms: its
    /// [`one_free_grants`] under this node's idealised router. Runs only
    /// while a trace sink is attached (the `RouteWait` wait-for edges).
    pub(super) fn probe_wants(
        &mut self,
        n: NodeId,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let (view, ctrl) = self.idealised(n);
        one_free_grants(ctrl, &view, header, in_port, in_vc)
    }

    /// Queries a controller's full routing relation under an idealised
    /// all-free view (used by deadlock and conditions analyses).
    pub fn query_relation(
        &mut self,
        n: NodeId,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let (view, ctrl) = self.idealised(n);
        ctrl.relation(&view, header, in_port, in_vc)
    }

    /// Node `n`'s controller and its router idealised: no load, every
    /// channel on a live link free.
    fn idealised(&mut self, n: NodeId) -> (RouterView<'_>, &mut dyn NodeController) {
        let (cycle, traced, rows) =
            (self.cycle, self.sink.is_some(), Rows::Ideal(self.wiring.row(n.idx()), None));
        let view = RouterView { node: n, cycle, traced, vcs: self.vcs, rows };
        (view, self.ctrls[n.idx()].as_mut())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the hardware structure
mod tests {
    use super::super::wiring::Wiring;
    use super::*;
    use crate::arena::{Channels, Geometry, OutRows};
    use crate::flit::{Flit, MessageId};
    use ftr_topo::{FaultSet, Mesh2D, Topology};
    use proptest::prelude::*;

    /// The per-port copy every consult and hook used to make — the tables
    /// a `RouterView` borrowed before it became a window — kept as the
    /// window's oracle.
    struct Tables {
        free: Vec<Vec<bool>>,
        load: Vec<u32>,
        alive: Vec<bool>,
    }

    fn fill(
        wiring: &Wiring,
        n: usize,
        vcs: usize,
        free: impl Fn(usize, usize) -> bool,
        load: impl Fn(usize) -> u32,
    ) -> Tables {
        let alive: Vec<bool> = wiring.row(n).iter().map(|w| w.live).collect();
        let free = alive
            .iter()
            .enumerate()
            .map(|(p, &alive)| (0..vcs).map(|v| alive && free(p, v)).collect())
            .collect();
        let load = (0..alive.len()).map(load).collect();
        Tables { free, load, alive }
    }

    fn live<'a>(
        wiring: &'a Wiring,
        out: OutRows<'a>,
        vcs: usize,
        node: NodeId,
        cycle: u64,
        traced: bool,
    ) -> RouterView<'a> {
        RouterView { node, cycle, traced, vcs, rows: Rows::Live(wiring.row(node.idx()), out) }
    }

    fn ideal(
        wiring: &Wiring,
        vcs: usize,
        node: NodeId,
        cycle: u64,
        traced: bool,
        only: Option<(usize, usize)>,
    ) -> RouterView<'_> {
        RouterView { node, cycle, traced, vcs, rows: Rows::Ideal(wiring.row(node.idx()), only) }
    }

    fn same(view: &RouterView<'_>, t: &Tables, vcs: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!((view.degree(), view.vcs()), (t.alive.len(), vcs));
        for p in 0..t.alive.len() {
            let port = PortId(p as u8);
            prop_assert_eq!(view.alive(p), t.alive[p]);
            prop_assert_eq!(view.load(p), t.load[p]);
            prop_assert_eq!(view.any_vc_free(port), t.free[p].iter().any(|&f| f));
            for lo in 0..=vcs {
                prop_assert_eq!(lo < vcs && view.free(p, lo), lo < vcs && t.free[p][lo]);
                for hi in lo..=vcs {
                    let first = (lo..hi).find(|&v| t.free[p][v]).map(|v| VcId(v as u8));
                    prop_assert_eq!(view.free_vc_in(port, lo..hi), first);
                }
            }
        }
        Ok(())
    }

    /// One random router state on a 3×3 mesh with `vcs` channels per port.
    fn check(vcs: usize, noise: [u64; 3]) -> Result<(), TestCaseError> {
        let mesh = Mesh2D::new(3, 3);
        let mut word = noise[0] | 1;
        let mut rnd = |bound: u64| {
            word ^= word << 13;
            word ^= word >> 7;
            word ^= word << 17;
            word % bound
        };
        // dead links (border ports are unwired already) and a dead node
        let mut wiring = Wiring::new(&mesh);
        let mut faults = FaultSet::new();
        for n in mesh.nodes() {
            for p in mesh.ports().filter(|&p| mesh.neighbor(n, p).is_some()) {
                if rnd(4) == 0 {
                    faults.fail_link(&mesh, n, p);
                    wiring.refresh(&mesh, &faults, n, Some(p), |_| {});
                }
            }
        }
        if rnd(2) == 0 {
            let n = NodeId(rnd(9) as u32);
            faults.fail_node(n);
            wiring.refresh(&mesh, &faults, n, None, |_| {});
        }
        prop_assert!(wiring.consistent(&mesh, &faults));

        // owners, credits down to 0, assigned counts, occupied registers
        let mut chans = Channels::new(Geometry::new(9, 4, vcs, 4));
        let mut assigned = [[0u32; 4]; 9];
        for n in 0..9 {
            for p in 0..4 {
                for v in 0..vcs {
                    chans.set_out_owner(n, p, v, (rnd(3) == 0).then_some(MessageId(rnd(99))));
                    chans.set_out_credits(n, p, v, rnd(3) as u32);
                }
                assigned[n][p] = rnd(40) as u32;
                chans.set_out_assigned(n, p, assigned[n][p]);
                let flit = Flit::new(MessageId(rnd(99)), false, false);
                chans.set_out_reg(n, p, (rnd(2) == 0).then_some((VcId(0), flit)));
            }
        }

        let (cycle, traced) = (noise[1], noise[2] & 1 == 1);
        for n in 0..9 {
            // a consult's and a hook's window: cut from the whole arena
            let node = NodeId(n as u32);
            let view = live(&wiring, chans.out_rows(n), vcs, node, cycle, traced);
            prop_assert_eq!((view.node, view.cycle, view.traced()), (node, cycle, traced));
            let copied = fill(
                &wiring,
                n,
                vcs,
                |p, v| chans.out_channel_free(n, p, v),
                |p| assigned[n][p] + chans.out_reg(n, p).is_some() as u32,
            );
            same(&view, &copied, vcs)?;
            // `query_relation`'s window, then the probe's for every channel
            let all_free = fill(&wiring, n, vcs, |_, _| true, |_| 0);
            same(&ideal(&wiring, vcs, node, cycle, traced, None), &all_free, vcs)?;
            for only in (0..4).flat_map(|p| (0..vcs).map(move |v| (p, v))) {
                let one_free = fill(&wiring, n, vcs, |p, v| (p, v) == only, |_| 0);
                same(&ideal(&wiring, vcs, node, cycle, traced, Some(only)), &one_free, vcs)?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The live window, the probe's one-channel window and the all-free
        /// window against the tables the old fill produced from the same
        /// router state.
        #[test]
        fn every_window_reads_what_the_fill_copied(
            geo in 0usize..4,
            noise in any::<[u64; 3]>(),
        ) {
            check([1, 2, 5, 13][geo], noise)?;
        }
    }
}

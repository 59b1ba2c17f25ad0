//! The information units: what a control unit may observe at its node.
//!
//! Every [`RouterView`] the engine hands a [`NodeController`] — live
//! decisions on the shards, control-plane hooks on the master, the
//! idealised view of [`Network::query_relation`] and the `RouteWait`
//! probe — borrows from a [`ViewData`] built by the one constructor here.

use super::phases::StepCtx;
use super::Network;
use crate::arena::ChanRef;
use crate::flit::Header;
use crate::routing::{NodeController, RouterView, Verdict};
use ftr_topo::{FaultSet, NodeId, PortId, Topology, VcId};

/// Owned per-node snapshot backing a [`RouterView`].
pub(super) struct ViewData {
    out_free: Vec<Vec<bool>>,
    out_load: Vec<u32>,
    link_alive: Vec<bool>,
}

impl ViewData {
    /// Snapshot for node `n` with `vcs` channels per port: link liveness
    /// comes from the fault set, `free(p, v)` says whether output channel
    /// `(p, v)` is allocatable (asked for live links only — a dead link
    /// has no free channel) and `load(p)` is the adaptivity load of `p`.
    pub(super) fn new(
        topo: &dyn Topology,
        faults: &FaultSet,
        n: NodeId,
        vcs: usize,
        free: impl Fn(usize, usize) -> bool,
        load: impl Fn(usize) -> u32,
    ) -> Self {
        let degree = topo.degree();
        let link_alive: Vec<bool> =
            (0..degree).map(|p| faults.link_usable(topo, n, PortId(p as u8))).collect();
        let out_free = link_alive
            .iter()
            .enumerate()
            .map(|(p, &alive)| (0..vcs).map(|v| alive && free(p, v)).collect())
            .collect();
        ViewData { out_free, out_load: (0..degree).map(load).collect(), link_alive }
    }

    /// The router's actual state, read through an arena view: a channel is
    /// free when idle with credit; load counts the flits still assigned to
    /// the output plus the one in its link register.
    pub(super) fn live(
        topo: &dyn Topology,
        faults: &FaultSet,
        n: NodeId,
        vcs: usize,
        ch: &ChanRef<'_>,
    ) -> Self {
        let ni = n.idx();
        Self::new(
            topo,
            faults,
            n,
            vcs,
            |p, v| ch.out_channel_free(ni, p, v),
            |p| ch.out_assigned(ni, p) + ch.out_reg(ni, p).is_some() as u32,
        )
    }

    pub(super) fn view(&self, node: NodeId, cycle: u64) -> RouterView<'_> {
        RouterView {
            node,
            cycle,
            out_free: &self.out_free,
            out_load: &self.out_load,
            link_alive: &self.link_alive,
        }
    }
}

/// Output channels the controller would accept *right now* for a head it
/// asked to wait: each live `(port, vc)` is probed under a synthetic view
/// where exactly that channel is free, and kept when the controller grants
/// it. Runs only while a trace sink is attached (the `RouteWait` wait-for
/// edges); header mutations made by the probed decisions are discarded, so
/// a controller whose `route` is a pure function of view + header — every
/// in-tree algorithm — is unperturbed.
pub(super) fn probe_wants(
    ctx: &StepCtx<'_>,
    ctrl: &mut dyn NodeController,
    n: NodeId,
    header: &Header,
    in_port: Option<PortId>,
    in_vc: VcId,
) -> Vec<(PortId, VcId)> {
    let mut vd = ViewData::new(ctx.topo, ctx.faults, n, ctx.vcs, |_, _| false, |_| 0);
    let mut wants = Vec::new();
    for p in 0..ctx.degree {
        if !vd.link_alive[p] {
            continue;
        }
        for v in 0..ctx.vcs {
            vd.out_free[p][v] = true;
            let mut h = *header;
            let dec = ctrl.route(&vd.view(n, ctx.cycle), &mut h, in_port, in_vc);
            vd.out_free[p][v] = false;
            if dec.verdict == Verdict::Route(PortId(p as u8), VcId(v as u8)) {
                wants.push((PortId(p as u8), VcId(v as u8)));
            }
        }
    }
    wants
}

impl Network {
    /// Queries a controller's full routing relation under an idealised
    /// all-free view (used by deadlock and conditions analyses).
    pub fn query_relation(
        &mut self,
        n: NodeId,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let vd = ViewData::new(self.topo.as_ref(), &self.faults, n, self.vcs, |_, _| true, |_| 0);
        self.ctrls[n.idx()].relation(&vd.view(n, self.cycle), header, in_port, in_vc)
    }
}

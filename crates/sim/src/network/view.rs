//! The information units: what a control unit may observe at its node.
//!
//! Every [`RouterView`] the engine hands a [`NodeController`] — live
//! decisions on the shards, control-plane hooks on the master, the
//! idealised view of [`Network::query_relation`] and the `RouteWait`
//! probe — borrows from a [`ViewData`] refilled by the one `fill` here.

use super::phases::StepCtx;
use super::wiring::Wiring;
use super::Network;
use crate::arena::ChanRef;
use crate::flit::Header;
use crate::routing::{NodeController, RouterView, Verdict};
use ftr_topo::{NodeId, PortId, VcId};

/// Per-node snapshot backing a [`RouterView`]. The storage belongs to a
/// shard's or the master's scratch and is refilled in place for each
/// consult, so a view costs no allocation once its vectors have grown to
/// the router's geometry.
#[derive(Default)]
pub(super) struct ViewData {
    out_free: Vec<Vec<bool>>,
    out_load: Vec<u32>,
    link_alive: Vec<bool>,
}

impl ViewData {
    /// Snapshot for node `n` with `vcs` channels per port: link liveness
    /// comes from the wiring table, `free(p, v)` says whether output
    /// channel `(p, v)` is allocatable (asked for live links only — a dead
    /// link has no free channel) and `load(p)` is the adaptivity load of `p`.
    pub(super) fn fill(
        &mut self,
        wiring: &Wiring,
        n: usize,
        vcs: usize,
        free: impl Fn(usize, usize) -> bool,
        load: impl Fn(usize) -> u32,
    ) {
        self.link_alive.clear();
        self.link_alive.extend(wiring.live_ports(n));
        self.out_free.resize_with(self.link_alive.len(), Vec::new);
        for (p, (row, &alive)) in self.out_free.iter_mut().zip(&self.link_alive).enumerate() {
            row.clear();
            row.extend((0..vcs).map(|v| alive && free(p, v)));
        }
        self.out_load.clear();
        self.out_load.extend((0..self.link_alive.len()).map(load));
    }

    /// The router's actual state, read through an arena view: a channel is
    /// free when idle with credit; load counts the flits still assigned to
    /// the output plus the one in its link register.
    pub(super) fn fill_live(&mut self, wiring: &Wiring, n: usize, vcs: usize, ch: &ChanRef<'_>) {
        self.fill(
            wiring,
            n,
            vcs,
            |p, v| ch.out_channel_free(n, p, v),
            |p| ch.out_assigned(n, p) + ch.out_reg(n, p).is_some() as u32,
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
    vd: &mut ViewData,
    ctrl: &mut dyn NodeController,
    n: NodeId,
    header: &Header,
    in_port: Option<PortId>,
    in_vc: VcId,
) -> Vec<(PortId, VcId)> {
    vd.fill(ctx.wiring, n.idx(), ctx.vcs, |_, _| false, |_| 0);
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
        let vd = &mut self.scratch.view;
        vd.fill(&self.wiring, n.idx(), self.vcs, |_, _| true, |_| 0);
        self.ctrls[n.idx()].relation(&vd.view(n, self.cycle), header, in_port, in_vc)
    }
}

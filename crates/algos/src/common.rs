//! Shared helpers for the routing algorithms.

use ftr_sim::routing::RouterView;
use ftr_topo::{PortId, VcId};

/// Livelock guard: messages exceeding this many hops are declared
/// unroutable (§3 "Lifelock Avoidance" — sufficiently long paths must be
/// permitted, but delivery requires finite paths; the bound is generous so
/// only genuinely trapped messages trip it).
pub fn max_hops(num_nodes: usize) -> u32 {
    (4 * num_nodes + 16) as u32
}

/// Among `candidates`, picks the output with the lowest assigned load
/// (NAFTA's selection function: prefer the port with the least data still
/// to pass). Ties break to the earliest candidate.
pub fn least_loaded(
    view: &RouterView<'_>,
    candidates: &[(PortId, VcId)],
) -> Option<(PortId, VcId)> {
    candidates.iter().copied().min_by_key(|(p, _)| (view.load(p.idx()), p.idx()))
}

/// Filters `(port, vc)` candidates down to those currently allocatable.
pub fn allocatable(view: &RouterView<'_>, candidates: &[(PortId, VcId)]) -> Vec<(PortId, VcId)> {
    candidates
        .iter()
        .copied()
        .filter(|(p, v)| view.alive(p.idx()) && view.free(p.idx(), v.idx()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_topo::NodeId;

    fn view<'a>(
        out_free: &'a [Vec<bool>],
        out_load: &'a [u32],
        link_alive: &'a [bool],
    ) -> RouterView<'a> {
        RouterView::from_tables(NodeId(0), 0, out_free, out_load, link_alive)
    }

    #[test]
    fn least_loaded_prefers_low_load() {
        let free = vec![vec![true], vec![true], vec![true]];
        let load = vec![5, 1, 3];
        let alive = vec![true, true, true];
        let v = view(&free, &load, &alive);
        let cands = [(PortId(0), VcId(0)), (PortId(1), VcId(0)), (PortId(2), VcId(0))];
        assert_eq!(least_loaded(&v, &cands), Some((PortId(1), VcId(0))));
    }

    #[test]
    fn allocatable_filters_dead_and_busy() {
        let free = vec![vec![true, false], vec![true, true]];
        let load = vec![0, 0];
        let alive = vec![true, false];
        let v = view(&free, &load, &alive);
        let cands = [(PortId(0), VcId(0)), (PortId(0), VcId(1)), (PortId(1), VcId(0))];
        assert_eq!(allocatable(&v, &cands), vec![(PortId(0), VcId(0))]);
    }

    #[test]
    fn max_hops_scales() {
        assert!(max_hops(64) > 64);
        assert!(max_hops(16) >= 80);
    }
}

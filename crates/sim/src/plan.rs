//! Scripted dynamic-fault lifecycles.
//!
//! A [`FaultPlan`] is a cycle-ordered script of fault injections and
//! repairs the network executes from inside [`crate::Network::step`], so a
//! whole fault campaign (inject at cycle c, repair d cycles later, under
//! live traffic) is deterministic for a given seed and reproducible across
//! machines and thread counts. Generators build common scenarios — random
//! transient link/node faults with a fixed repair delay — on top of the
//! same deterministic [`SimpleRng`] the static fault injectors use.

use ftr_topo::{NodeId, PortId, SimpleRng, Topology};

/// One scripted action on the network's fault state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the link leaving this node through this port.
    FailLink(NodeId, PortId),
    /// Repair the link leaving this node through this port.
    RepairLink(NodeId, PortId),
    /// Fail this node.
    FailNode(NodeId),
    /// Repair this node.
    RepairNode(NodeId),
    /// Fail the link *silently*: full physical effect (worms ripped,
    /// link unusable) but no `on_fault` oracle notification — the
    /// endpoints must detect the loss themselves (no-oracle mode).
    FailLinkSilent(NodeId, PortId),
    /// Repair the link silently: the link carries traffic again but no
    /// `on_repair` notification fires — controllers re-learn through
    /// resumed liveness probes.
    RepairLinkSilent(NodeId, PortId),
    /// Fail this node silently (Byzantine-silent node: it just stops).
    FailNodeSilent(NodeId),
    /// Repair this node silently.
    RepairNodeSilent(NodeId),
}

/// A [`FaultAction`] scheduled at an absolute cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedAction {
    /// Cycle the action fires on (executed at the start of that cycle).
    pub cycle: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A cycle-ordered script of fault injections and repairs.
///
/// Build one with [`FaultPlan::at`] / [`FaultPlan::transient_link`] or the
/// random generators, attach it through
/// [`crate::NetworkBuilder::fault_plan`], and the network drains due
/// actions every cycle.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Sorted by cycle (stable: equal-cycle actions keep insertion order).
    actions: Vec<PlannedAction>,
    next: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at `cycle` (builder style).
    pub fn at(mut self, cycle: u64, action: FaultAction) -> Self {
        self.push(cycle, action);
        self
    }

    /// Schedules `action` at `cycle`.
    pub fn push(&mut self, cycle: u64, action: FaultAction) {
        debug_assert_eq!(self.next, 0, "plans are built before the network runs");
        self.actions.push(PlannedAction { cycle, action });
        self.actions.sort_by_key(|a| a.cycle);
    }

    /// Schedules a transient link fault: fail at `cycle`, repair
    /// `repair_after` cycles later.
    pub fn transient_link(self, cycle: u64, n: NodeId, p: PortId, repair_after: u64) -> Self {
        self.at(cycle, FaultAction::FailLink(n, p))
            .at(cycle + repair_after, FaultAction::RepairLink(n, p))
    }

    /// Schedules a transient node fault: fail at `cycle`, repair
    /// `repair_after` cycles later.
    pub fn transient_node(self, cycle: u64, n: NodeId, repair_after: u64) -> Self {
        self.at(cycle, FaultAction::FailNode(n))
            .at(cycle + repair_after, FaultAction::RepairNode(n))
    }

    /// Generates `count` random transient link faults: each picks a
    /// distinct link, fails it at a random cycle in `window`, and repairs
    /// it `repair_after` cycles later. Deterministic per seed.
    pub fn random_transient_links(
        topo: &dyn Topology,
        count: usize,
        window: std::ops::Range<u64>,
        repair_after: u64,
        seed: u64,
    ) -> Self {
        let mut rng = SimpleRng::new(seed);
        let links = topo.links();
        let mut picked: Vec<usize> = Vec::new();
        let mut plan = FaultPlan::new();
        let span = window.end.saturating_sub(window.start).max(1);
        while picked.len() < count.min(links.len()) {
            let i = rng.below(links.len());
            if picked.contains(&i) {
                continue;
            }
            picked.push(i);
            let at = window.start + rng.next_u64() % span;
            plan = plan.transient_link(at, links[i].node, links[i].port, repair_after);
        }
        plan
    }

    /// Generates `count` random transient node faults (distinct nodes,
    /// random fault cycle in `window`, repair after `repair_after`).
    pub fn random_transient_nodes(
        topo: &dyn Topology,
        count: usize,
        window: std::ops::Range<u64>,
        repair_after: u64,
        seed: u64,
    ) -> Self {
        let mut rng = SimpleRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = topo.num_nodes();
        let mut picked: Vec<usize> = Vec::new();
        let mut plan = FaultPlan::new();
        let span = window.end.saturating_sub(window.start).max(1);
        while picked.len() < count.min(n) {
            let i = rng.below(n);
            if picked.contains(&i) {
                continue;
            }
            picked.push(i);
            let at = window.start + rng.next_u64() % span;
            plan = plan.transient_node(at, NodeId(i as u32), repair_after);
        }
        plan
    }

    /// Converts every scripted action into its silent (no-oracle)
    /// counterpart: same cycles, same physical effects, but controllers
    /// get no `on_fault`/`on_repair` notification and must rely on the
    /// detection layer. Idempotent on already-silent actions.
    pub fn silenced(mut self) -> Self {
        for pa in &mut self.actions {
            pa.action = match pa.action {
                FaultAction::FailLink(n, p) => FaultAction::FailLinkSilent(n, p),
                FaultAction::RepairLink(n, p) => FaultAction::RepairLinkSilent(n, p),
                FaultAction::FailNode(n) => FaultAction::FailNodeSilent(n),
                FaultAction::RepairNode(n) => FaultAction::RepairNodeSilent(n),
                silent => silent,
            };
        }
        self
    }

    /// Merges another plan's remaining actions into this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        for a in &other.actions[other.next..] {
            self.push(a.cycle, a.action);
        }
        self
    }

    /// Actions due at `cycle` (strictly: scheduled at or before it),
    /// advancing the script cursor past them.
    pub fn pop_due(&mut self, cycle: u64) -> &[PlannedAction] {
        let start = self.next;
        while self.next < self.actions.len() && self.actions[self.next].cycle <= cycle {
            self.next += 1;
        }
        &self.actions[start..self.next]
    }

    /// True once every scripted action has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.actions.len()
    }

    /// All scripted actions, in firing order (diagnostics/reports).
    pub fn actions(&self) -> &[PlannedAction] {
        &self.actions
    }

    /// Cycle of the last scripted action (0 for an empty plan) — useful to
    /// size the run so the whole lifecycle is exercised.
    pub fn last_cycle(&self) -> u64 {
        self.actions.last().map_or(0, |a| a.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_topo::Mesh2D;

    #[test]
    fn actions_fire_in_cycle_order() {
        let mut plan = FaultPlan::new().at(50, FaultAction::FailNode(NodeId(1))).transient_link(
            10,
            NodeId(0),
            PortId(0),
            25,
        );
        assert_eq!(plan.actions().len(), 3);
        assert!(plan.pop_due(5).is_empty());
        let due = plan.pop_due(10);
        assert_eq!(
            due,
            &[PlannedAction { cycle: 10, action: FaultAction::FailLink(NodeId(0), PortId(0)) }]
        );
        let due = plan.pop_due(60);
        assert_eq!(due.len(), 2, "repair at 35 and node fault at 50");
        assert_eq!(due[0].cycle, 35);
        assert_eq!(due[1].cycle, 50);
        assert!(plan.exhausted());
        assert_eq!(plan.last_cycle(), 50);
    }

    #[test]
    fn random_transient_links_deterministic_and_distinct() {
        let m = Mesh2D::new(6, 6);
        let a = FaultPlan::random_transient_links(&m, 8, 100..500, 200, 42);
        let b = FaultPlan::random_transient_links(&m, 8, 100..500, 200, 42);
        assert_eq!(a.actions(), b.actions(), "same seed, same plan");
        assert_eq!(a.actions().len(), 16, "8 faults + 8 repairs");
        let mut fails = Vec::new();
        for pa in a.actions() {
            match pa.action {
                FaultAction::FailLink(n, p) => {
                    assert!((100..500).contains(&pa.cycle));
                    assert!(!fails.contains(&(n, p)), "links are distinct");
                    fails.push((n, p));
                }
                FaultAction::RepairLink(n, p) => {
                    let fail = a
                        .actions()
                        .iter()
                        .find(|x| x.action == FaultAction::FailLink(n, p))
                        .expect("matching fail");
                    assert_eq!(pa.cycle, fail.cycle + 200);
                }
                _ => panic!("unexpected action"),
            }
        }
        let c = FaultPlan::random_transient_links(&m, 8, 100..500, 200, 43);
        assert_ne!(a.actions(), c.actions(), "different seed, different plan");
    }

    #[test]
    fn merge_keeps_order() {
        let a = FaultPlan::new().at(30, FaultAction::FailNode(NodeId(0)));
        let b = FaultPlan::new().at(10, FaultAction::FailNode(NodeId(1)));
        let mut m = a.merge(b);
        assert_eq!(m.pop_due(10)[0].action, FaultAction::FailNode(NodeId(1)));
    }
}

//! The native NAFTA decision does not touch the allocator: `route` — the
//! virtual-network choice, the allowed and minimal direction lists, the
//! trap lookahead, the misrouting preferences and the channel pick — works
//! on the stack, fault-free and with fault state learnt.
//!
//! This file holds exactly one test: the counter is process-wide, so a
//! second test running beside it would be counted too.

use ftr_algos::Nafta;
use ftr_sim::routing::{ControlMsg, NodeController, RouterView, RoutingAlgorithm};
use ftr_sim::{Header, MessageId};
use ftr_topo::mesh::opposite;
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation made
/// while `COUNTING` is set.
struct Counting;

impl Counting {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Whether the link behind `(n, p)` is one of `dead`, named from either end.
fn is_dead(mesh: &Mesh2D, dead: &[(NodeId, PortId)], n: NodeId, p: PortId) -> bool {
    let far = mesh.neighbor(n, p).map(|m| (m, opposite(p)));
    dead.iter().any(|&l| l == (n, p) || Some(l) == far)
}

/// NAFTA controllers of a 6×6 mesh that learnt `dead` through `on_fault`
/// at both endpoints, the announcements carried to a fixpoint by hand.
fn controllers(mesh: &Mesh2D, dead: &[(NodeId, PortId)]) -> Vec<Box<dyn NodeController>> {
    let algo = Nafta::new(mesh.clone());
    let mut ctrls: Vec<_> = mesh.nodes().map(|n| algo.controller(mesh, n)).collect();
    let (free, load, alive) = (vec![vec![true; 2]; 4], vec![0; 4], vec![true; 4]);
    let view = |node| RouterView::from_tables(node, 0, &free, &load, &alive);
    let mut wire: Vec<(NodeId, ControlMsg)> = Vec::new();
    for &(n, p) in dead {
        let m = mesh.neighbor(n, p).expect("a wired link");
        for (node, port) in [(n, p), (m, opposite(p))] {
            wire.extend(
                ctrls[node.idx()].on_fault(&view(node), port).into_iter().map(|c| (node, c)),
            );
        }
    }
    while let Some((from, msg)) = wire.pop() {
        let to = mesh.neighbor(from, msg.port).expect("announcements follow links");
        if is_dead(mesh, dead, from, msg.port) {
            continue;
        }
        let replies = ctrls[to.idx()].on_control(&view(to), opposite(msg.port), &msg.payload);
        wire.extend(replies.into_iter().map(|c| (to, c)));
    }
    ctrls
}

#[test]
fn nafta_route_does_not_allocate() {
    let mesh = Mesh2D::new(6, 6);
    let faulty = [(mesh.node_at(2, 2), EAST), (mesh.node_at(3, 3), NORTH)];
    for dead in [&[][..], &faulty[..]] {
        let mut ctrls = controllers(&mesh, dead);
        let mut out_free = vec![vec![false; 2]; 4];
        let out_load = vec![3, 0, 2, 1];
        let mut calls = 0u64;
        // a corner, an edge, and the nodes around the dead links
        for node in
            [(0, 0), (3, 0), (2, 2), (3, 2), (3, 3), (2, 3)].map(|(x, y)| mesh.node_at(x, y))
        {
            let link_alive: Vec<bool> = mesh
                .ports()
                .map(|p| mesh.neighbor(node, p).is_some() && !is_dead(&mesh, dead, node, p))
                .collect();
            let ctrl = &mut ctrls[node.idx()];
            for dst in mesh.nodes().filter(|&d| d != node) {
                let inputs = mesh.ports().flat_map(|p| [(Some(p), VcId(0)), (Some(p), VcId(1))]);
                for (in_port, in_vc) in inputs.chain([(None, VcId(0))]) {
                    // every pattern of the eight output channels
                    for pattern in 0..256usize {
                        for (i, free) in out_free.iter_mut().flatten().enumerate() {
                            *free = pattern >> i & 1 == 1;
                        }
                        let view =
                            RouterView::from_tables(node, calls, &out_free, &out_load, &link_alive);
                        let mut h = Header::new(MessageId(1), node, dst, 4);
                        COUNTING.store(true, Ordering::Relaxed);
                        let decision = ctrl.route(&view, &mut h, in_port, in_vc);
                        COUNTING.store(false, Ordering::Relaxed);
                        std::hint::black_box(decision);
                        calls += 1;
                    }
                }
            }
        }
        assert!(calls >= 10_000, "{calls} calls");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(allocations, 0, "allocations in {calls} route calls, dead links {dead:?}");
    }
}

//! The cycle path does not touch the allocator: once the scratch buffers
//! have grown to the traffic's size, `Network::step` — working-set
//! upkeep, shard fan-out, link traversal, routing consults with their
//! `RouterView`s, switch arbitration, credit returns — allocates nothing.
//!
//! This file holds exactly one test: the counter is process-wide, so a
//! second test running beside it would be counted too.

mod common;

use ftr_sim::SimConfig;
use ftr_topo::NodeId;
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

#[test]
fn steady_state_steps_do_not_allocate() {
    // no sink, no metrics: the configuration the ledger times. One shard,
    // then three run inline (36 nodes is far below the spawn threshold)
    for threads in [1, 3] {
        let (_, mut net) = common::mesh_net(6, 1, SimConfig { threads, ..Default::default() });
        assert_eq!(net.threads(), threads);
        // one long worm per node, so flits move on every link for the whole
        // measured window without a send or a delivery inside it
        for i in 0..36 {
            net.send(NodeId(i), NodeId(35 - i), 4_000).unwrap();
        }
        net.run(500); // warm-up: every scratch vector reaches its working size

        COUNTING.store(true, Ordering::Relaxed);
        for _ in 0..1_000 {
            net.step();
            assert!(net.last_step_moved());
        }
        COUNTING.store(false, Ordering::Relaxed);

        assert_eq!(net.in_flight(), 36, "every worm is still streaming");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(allocations, 0, "allocations on the cycle path with {threads} shard(s)");
    }
}

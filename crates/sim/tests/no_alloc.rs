//! The cycle path does not touch the allocator: once the scratch buffers
//! have grown to the traffic's size, `Network::step` — working-set
//! upkeep, shard fan-out, link traversal, routing consults with their
//! `RouterView`s, switch arbitration, credit returns — allocates nothing.
//!
//! This file holds exactly one test (see `common/counting.rs`).

mod common;
#[path = "common/counting.rs"]
mod counting;

use ftr_sim::SimConfig;

#[test]
fn steady_state_steps_do_not_allocate() {
    // no sink, no metrics: the configuration the ledger times. One shard,
    // then three run inline (36 nodes is far below the spawn threshold)
    for threads in [1, 3] {
        let (_, mut net) = common::mesh_net(6, 1, SimConfig { threads, ..Default::default() });
        assert_eq!(net.threads(), threads);
        common::stream_worms(&mut net);

        let allocations = counting::allocations_in(|| {
            for _ in 0..1_000 {
                net.step();
                assert!(net.last_step_moved());
            }
        });

        assert_eq!(net.in_flight(), 36, "every worm is still streaming");
        assert_eq!(allocations, 0, "allocations on the cycle path with {threads} shard(s)");
    }
}

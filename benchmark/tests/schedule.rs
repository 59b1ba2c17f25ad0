//! The offered load is a function of the seed and nothing else.

use ftr_ledger::schedule::Schedule;
use ftr_topo::{FaultSet, Mesh2D, NodeId};

fn draw(seed: u64, dead: &FaultSet) -> Schedule {
    Schedule::draw(&Mesh2D::new(6, 6), dead, 0.2, 8, 2_000, seed)
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    let none = FaultSet::new();
    let a = draw(1, &none);
    assert_eq!(a, draw(1, &none));
    assert_ne!(a, draw(2, &none));
    assert_eq!(a.cycles, 2_000);
    // 36 nodes x 2000 cycles x 0.2/8 messages per node and cycle
    assert!((1_500..2_100).contains(&a.sends.len()), "{} sends", a.sends.len());
    assert!(a.sends.windows(2).all(|w| w[0].cycle <= w[1].cycle), "ascending by cycle");
    assert!(a.sends.iter().all(|m| m.src != m.dst && m.len == 8 && m.cycle < 2_000));
}

#[test]
fn dead_nodes_neither_send_nor_receive() {
    let mut dead = FaultSet::new();
    dead.fail_node(NodeId(5));
    let s = draw(1, &dead);
    assert!(!s.sends.is_empty());
    assert!(s.sends.iter().all(|m| m.src != NodeId(5) && m.dst != NodeId(5)));
}

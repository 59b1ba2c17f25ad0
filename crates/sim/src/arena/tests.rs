//! Unit tests of the channel arena.

use super::*;

fn flit(msg: u64, head: bool) -> Flit {
    Flit::new(MessageId(msg), head, false)
}

#[test]
fn ring_fifo_push_pop_wraps() {
    let mut ch = Channels::new(Geometry::new(2, 2, 1, 3));
    for round in 0..5u64 {
        ch.fifo_push_back(1, 0, 0, flit(round, true));
        ch.fifo_push_back(1, 0, 0, flit(round + 100, false));
        assert_eq!(ch.fifo_len(1, 0, 0), 2);
        assert_eq!(ch.fifo_pop_front(1, 0, 0).unwrap().msg(), MessageId(round));
        assert_eq!(ch.fifo_pop_front(1, 0, 0).unwrap().msg(), MessageId(round + 100));
        assert!(ch.fifo_pop_front(1, 0, 0).is_none());
    }
}

#[test]
#[should_panic(expected = "credit invariant")]
fn ring_fifo_overflow_is_fatal() {
    let mut ch = Channels::new(Geometry::new(1, 1, 1, 2));
    ch.fifo_push_back(0, 0, 0, flit(1, true));
    ch.fifo_push_back(0, 0, 0, flit(1, false));
    ch.fifo_push_back(0, 0, 0, flit(1, false));
}

#[test]
fn retain_compacts_in_order() {
    let mut ch = Channels::new(Geometry::new(1, 1, 1, 4));
    // wrap the ring first so retain must handle a non-zero head
    ch.fifo_push_back(0, 0, 0, flit(9, true));
    ch.fifo_pop_front(0, 0, 0);
    for (m, head) in [(1u64, true), (2, true), (1, false), (2, false)] {
        ch.fifo_push_back(0, 0, 0, flit(m, head));
    }
    ch.fifo_retain(0, 0, 0, |f| f.msg() != MessageId(2));
    let kept: Vec<_> = ch.fifo_iter(0, 0, 0).map(|f| (f.msg().0, f.is_head())).collect();
    assert_eq!(kept, vec![(1, true), (1, false)]);
}

#[test]
fn injection_lane_is_last() {
    let geo = Geometry::new(3, 4, 2, 4);
    assert_eq!(geo.lanes, 9);
    assert_eq!(geo.lane_of(4, 0), 8);
    assert_eq!(geo.vcs_at(4), 1);
    assert_eq!(geo.vcs_at(0), 2);
}

#[test]
fn only_a_flip_of_channel_free_wakes_parked_lanes() {
    let mut ch = Channels::new(Geometry::new(2, 2, 2, 4));
    let park = |ch: &mut Channels| {
        ch.set_phase(1, 0, 1, Some(DecisionPhase::Parked));
        ch.set_phase(1, 2, 0, Some(DecisionPhase::Parked));
    };
    let parked = |ch: &Channels| {
        [ch.phase_of(1, 0, 1), ch.phase_of(1, 2, 0)].map(|p| p == Some(DecisionPhase::Parked))
    };
    ch.set_out_owner(1, 0, 0, Some(MessageId(7))); // owned VC, credits 4
    ch.set_out_credits(1, 1, 1, 3); // idle VC with credit
    ch.set_out_credits(1, 1, 0, 0); // idle VC out of credit
    ch.set_out_owner(0, 0, 0, Some(MessageId(8)));
    park(&mut ch);
    // writes that leave `out_channel_free` where it was wake nothing
    ch.set_out_credits(1, 0, 0, 2);
    ch.set_out_credits(1, 0, 0, 1); // credit 2 -> 1 on an owned VC
    ch.set_out_credits(1, 1, 1, 2); // 3 -> 2 on an idle one
    ch.set_out_owner(1, 0, 0, Some(MessageId(9)));
    ch.set_out_owner(0, 0, 0, None); // another node's channel
    assert_eq!(parked(&ch), [true, true]);
    // a credit arriving at an idle VC frees it
    ch.set_out_credits(1, 1, 0, 1);
    assert_eq!(parked(&ch), [false, false]);
    assert_eq!(ch.phase_of(1, 0, 1), Some(DecisionPhase::Ready));
    // so does a release with credit left, and a grant takes one away
    park(&mut ch);
    ch.set_out_owner(1, 0, 0, None);
    assert_eq!(parked(&ch), [false, false]);
    park(&mut ch);
    ch.set_out_owner(1, 1, 1, Some(MessageId(3)));
    assert_eq!(parked(&ch), [false, false]);
    // a countdown is not a parked lane
    ch.set_phase(1, 0, 0, Some(DecisionPhase::Waiting(2)));
    park(&mut ch);
    ch.wake(1);
    assert_eq!(ch.phase_of(1, 0, 0), Some(DecisionPhase::Waiting(2)));
    assert_eq!(parked(&ch), [false, false]);
    park(&mut ch);
    ch.reset_node(1);
    assert_eq!(ch.phase_of(1, 0, 1), None);
    assert_eq!(ch.phase_of(1, 2, 0), None);
}

#[test]
fn reset_node_restores_power_on_state() {
    let mut ch = Channels::new(Geometry::new(2, 2, 2, 4));
    ch.fifo_push_back(1, 0, 1, flit(3, true));
    ch.set_route(1, 0, 1, RouteState::Local);
    ch.set_out_owner(1, 1, 0, Some(MessageId(3)));
    ch.set_out_credits(1, 1, 0, 1);
    ch.set_rr(1, 0, 3);
    ch.set_out_reg(1, 1, Some((VcId(0), flit(3, false))));
    ch.staging_mut(1).push_back(flit(4, true));
    assert!(ch.has_work(1) && !ch.has_work(0));
    ch.reset_node(1);
    assert!(!ch.has_work(1));
    assert_eq!(ch.route(1, 0, 1), RouteState::Unrouted);
    assert_eq!(ch.out_owner(1, 1, 0), None);
    assert_eq!(ch.out_credits(1, 1, 0), 4);
}

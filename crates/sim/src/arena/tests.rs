//! Unit tests of the channel arena.

use super::*;

fn flit(msg: u64, seq: u32) -> Flit {
    Flit { kind: FlitKind::Body, msg: MessageId(msg), seq }
}

#[test]
fn ring_fifo_push_pop_wraps() {
    let mut ch = Channels::new(Geometry::new(2, 2, 1, 3));
    let mut v = ch.full_mut();
    for round in 0..5u64 {
        v.fifo_push_back(1, 0, 0, flit(round, 0));
        v.fifo_push_back(1, 0, 0, flit(round + 100, 1));
        assert_eq!(v.fifo_len(1, 0, 0), 2);
        assert_eq!(v.fifo_pop_front(1, 0, 0).unwrap().msg, MessageId(round));
        assert_eq!(v.fifo_pop_front(1, 0, 0).unwrap().msg, MessageId(round + 100));
        assert!(v.fifo_pop_front(1, 0, 0).is_none());
    }
}

#[test]
#[should_panic(expected = "credit invariant")]
fn ring_fifo_overflow_is_fatal() {
    let mut ch = Channels::new(Geometry::new(1, 1, 1, 2));
    let mut v = ch.full_mut();
    v.fifo_push_back(0, 0, 0, flit(1, 0));
    v.fifo_push_back(0, 0, 0, flit(1, 1));
    v.fifo_push_back(0, 0, 0, flit(1, 2));
}

#[test]
fn retain_compacts_in_order() {
    let mut ch = Channels::new(Geometry::new(1, 1, 1, 4));
    let mut v = ch.full_mut();
    // wrap the ring first so retain must handle a non-zero head
    v.fifo_push_back(0, 0, 0, flit(9, 0));
    v.fifo_pop_front(0, 0, 0);
    for (m, s) in [(1u64, 0u32), (2, 0), (1, 1), (2, 1)] {
        v.fifo_push_back(0, 0, 0, flit(m, s));
    }
    v.fifo_retain(0, 0, 0, |f| f.msg != MessageId(2));
    let kept: Vec<_> = ch.fifo_iter(0, 0, 0).map(|f| (f.msg.0, f.seq)).collect();
    assert_eq!(kept, vec![(1, 0), (1, 1)]);
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
fn split_views_address_global_ids() {
    let mut ch = Channels::new(Geometry::new(4, 2, 1, 2));
    let mut views: Vec<_> = ch.split_mut(&[0, 2, 4]).collect();
    let (a, b) = views.split_at_mut(1);
    a[0].fifo_push_back(1, 0, 0, flit(7, 0));
    b[0].fifo_push_back(3, 1, 0, flit(8, 0));
    b[0].set_rr(2, 1, 5);
    drop(views);
    assert_eq!(ch.fifo_len(1, 0, 0), 1);
    assert_eq!(ch.fifo_iter(3, 1, 0).next().unwrap().msg, MessageId(8));
    assert_eq!(ch.full_mut().rr(2, 1), 5);
    assert!(ch.has_work(1));
    assert!(!ch.has_work(0));
}

#[test]
fn only_a_flip_of_channel_free_wakes_parked_lanes() {
    let mut ch = Channels::new(Geometry::new(2, 2, 2, 4));
    let park = |v: &mut ChanRef<'_>| {
        v.set_phase(1, 0, 1, Some(DecisionPhase::Parked));
        v.set_phase(1, 2, 0, Some(DecisionPhase::Parked));
    };
    let parked = |v: &ChanRef<'_>| {
        [v.phase_of(1, 0, 1), v.phase_of(1, 2, 0)].map(|p| p == Some(DecisionPhase::Parked))
    };
    let mut v = ch.full_mut();
    v.set_out_owner(1, 0, 0, Some(MessageId(7))); // owned VC, credits 4
    v.set_out_credits(1, 1, 1, 3); // idle VC with credit
    v.set_out_credits(1, 1, 0, 0); // idle VC out of credit
    v.set_out_owner(0, 0, 0, Some(MessageId(8)));
    park(&mut v);
    // writes that leave `out_channel_free` where it was wake nothing
    v.set_out_credits(1, 0, 0, 2);
    v.set_out_credits(1, 0, 0, 1); // credit 2 -> 1 on an owned VC
    v.set_out_credits(1, 1, 1, 2); // 3 -> 2 on an idle one
    v.set_out_owner(1, 0, 0, Some(MessageId(9)));
    v.set_out_owner(0, 0, 0, None); // another node's channel
    assert_eq!(parked(&v), [true, true]);
    // a credit arriving at an idle VC frees it
    v.set_out_credits(1, 1, 0, 1);
    assert_eq!(parked(&v), [false, false]);
    assert_eq!(v.phase_of(1, 0, 1), Some(DecisionPhase::Ready));
    // so does a release with credit left, and a grant takes one away
    park(&mut v);
    v.set_out_owner(1, 0, 0, None);
    assert_eq!(parked(&v), [false, false]);
    park(&mut v);
    v.set_out_owner(1, 1, 1, Some(MessageId(3)));
    assert_eq!(parked(&v), [false, false]);
    // a countdown is not a parked lane
    v.set_phase(1, 0, 0, Some(DecisionPhase::Waiting(2)));
    park(&mut v);
    v.wake(1);
    assert_eq!(v.phase_of(1, 0, 0), Some(DecisionPhase::Waiting(2)));
    assert_eq!(parked(&v), [false, false]);
    park(&mut v);
    ch.reset_node(1);
    assert_eq!(ch.phase_of(1, 0, 1), None);
    assert_eq!(ch.phase_of(1, 2, 0), None);
}

#[test]
fn reset_node_restores_power_on_state() {
    let mut ch = Channels::new(Geometry::new(2, 2, 2, 4));
    {
        let mut v = ch.full_mut();
        v.fifo_push_back(1, 0, 1, flit(3, 0));
        v.set_route(1, 0, 1, RouteState::Local);
        v.set_out_owner(1, 1, 0, Some(MessageId(3)));
        v.set_out_credits(1, 1, 0, 1);
        v.set_rr(1, 0, 3);
        v.set_out_reg(1, 1, Some((VcId(0), flit(3, 1))));
        v.staging_mut(1).push_back(flit(4, 0));
    }
    ch.reset_node(1);
    assert!(!ch.has_work(1));
    assert_eq!(ch.route(1, 0, 1), RouteState::Unrouted);
    assert_eq!(ch.out_owner(1, 1, 0), None);
    assert_eq!(ch.out_credits(1, 1, 0), 4);
    assert_eq!(ch.buffered_flits(1), 0);
}

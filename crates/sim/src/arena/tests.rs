//! Unit tests of the channel arena.

use super::*;
use proptest::prelude::*;

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

/// The activation predicate the occupancy masks replaced: a scan of the
/// node's staging queue, FIFO lengths and link registers.
fn has_work_by_scan(ch: &Channels, n: usize) -> bool {
    let g = ch.geo;
    !ch.staging[n].is_empty()
        || ch.fifo_len[n * g.lanes..(n + 1) * g.lanes].iter().any(|&l| l > 0)
        || ch.out_reg[n * g.degree..(n + 1) * g.degree].iter().any(|r| r.is_some())
}

#[test]
fn the_injection_lane_of_sixteen_vcs_opens_the_second_word() {
    let mut ch = Channels::new(Geometry::new(2, 4, 16, 2));
    assert_eq!(ch.geo().lane_words, 2);
    ch.fifo_push_back(1, 4, 0, flit(1, true));
    assert_eq!([ch.lane_word(1, 0), ch.lane_word(1, 1)], [0, 1]);
    ch.fifo_push_back(1, 3, 15, flit(2, true));
    assert_eq!(ch.lane_word(1, 0), 1 << 63);
    ch.fifo_pop_front(1, 4, 0);
    assert_eq!(ch.lane_word(1, 1), 0);
    assert!(ch.has_work(1) && !ch.has_work(0) && ch.masks_consistent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random pushes, pops, retains, register writes and takes, staging
    /// edits and resets on three mask widths — 9 lanes (one word), 65 (the
    /// injection lane alone in word 1) and 129 (three words): after every
    /// operation each mask bit equals what it caches, and `has_work` equals
    /// the scan it replaced.
    #[test]
    fn masks_track_every_mutation_across_mask_widths(
        geo in 0usize..3,
        ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..300),
    ) {
        let (degree, vcs) = [(4usize, 2usize), (4, 16), (4, 32)][geo];
        let mut ch = Channels::new(Geometry::new(3, degree, vcs, 3));
        let g = ch.geo();
        for (op, r) in ops {
            let n = (r % 3) as usize;
            let ip = (r >> 8) as usize % (degree + 1);
            let iv = (r >> 16) as usize % g.vcs_at(ip);
            let p = (r >> 24) as usize % degree;
            let (msg, head) = (r >> 32 & 3, r >> 40 & 1 == 1);
            match op {
                0..=4 => {
                    if ch.fifo_len(n, ip, iv) < g.depth {
                        ch.fifo_push_back(n, ip, iv, flit(msg, head));
                    }
                }
                5 | 6 => {
                    ch.fifo_pop_front(n, ip, iv);
                }
                7 => ch.fifo_retain(n, ip, iv, |f| f.msg() != MessageId(msg)),
                8 => ch.set_out_reg(n, p, head.then_some((VcId(0), flit(msg, false)))),
                9 => {
                    ch.take_out_reg(n, p);
                }
                10 => {
                    if head {
                        ch.staging_mut(n).push_back(flit(msg, true));
                    } else {
                        ch.staging_mut(n).pop_front();
                    }
                }
                _ => ch.reset_node(n),
            }
            prop_assert!(ch.masks_consistent(), "op {} on node {}", op, n);
            for m in 0..3 {
                prop_assert_eq!(ch.has_work(m), has_work_by_scan(&ch, m));
            }
        }
    }
}

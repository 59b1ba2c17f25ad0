//! The rule host on hypercubes: ROUTE_C executed *entirely* by the rule
//! machinery in the live network, through [`CubeIo`].

use crate::rule_router::RuleHost;
use crate::RouterConfiguration;
use ftr_algos::rule_io::CubeIo;
use ftr_topo::Hypercube;

/// Rule-driven ROUTE_C for hypercubes: per head flit `decide_dir` and
/// `decide_vc` fire (the paper's "always two steps", measured live), and
/// `update_state` (Figure 4) propagates fault states over the control
/// plane.
pub type CubeRuleRouter = RuleHost<CubeIo>;

impl CubeRuleRouter {
    /// Builds the router from a ROUTE_C configuration (use
    /// `ftr_algos::rules_src::route_c_source(dim)` for the matching
    /// program). Panics like [`RuleHost::bind`]: the stripped
    /// `route_c_nft` lacks part of the interface.
    pub fn new(config: RouterConfiguration, cube: Hypercube) -> Self {
        Self::bind(config, cube)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src::route_c_source;
    use ftr_sim::routing::{Decision, RouterView, RoutingAlgorithm, Verdict};
    use ftr_sim::Header;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::{NodeId, PortId, VcId};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn rule_route_c(dim: u32) -> CubeRuleRouter {
        CubeRuleRouter::new(
            configure("route_c", &route_c_source(dim)).unwrap(),
            Hypercube::new(dim),
        )
    }

    fn rule_cube_net(dim: u32) -> Network {
        let cube = Arc::new(Hypercube::new(dim));
        Network::builder(cube).build(&rule_route_c(dim)).expect("valid config")
    }

    #[test]
    fn route_c_waits_are_parked() {
        // the program reads `out_queue` only where it ranks a grant: its
        // two `RETURN(7)` rules read `misr`, `phase` and `freevc`, so a
        // load change alone cannot end the wait (`CubeIo::parks`)
        let (cube, algo) = (Hypercube::new(4), rule_route_c(4));
        let (busy, load, alive) = (vec![vec![false; 5]; 4], vec![2, 0, 5, 1], vec![true; 4]);
        let view = RouterView::from_tables(NodeId(3), 0, &busy, &load, &alive);
        let mut header = Header::new(ftr_sim::MessageId(1), NodeId(3), NodeId(12), 4);
        let before = header;
        let d = algo.controller(&cube, NodeId(3)).route(&view, &mut header, None, VcId(0));
        assert_eq!(d, Decision::new(Verdict::Wait, 2));
        assert_eq!(header, before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The `Wait` contract, for the parked waits of rule-driven
        /// ROUTE_C: after any history of fault and control hooks, a head
        /// told to wait under one load vector is told the same under
        /// another, and its header is left alone.
        #[test]
        fn a_parked_route_c_wait_ignores_the_loads(
            hooks in proptest::collection::vec((0u8..4, 0i64..6, any::<bool>()), 0..6),
            free in proptest::collection::vec(any::<u8>(), 4),
            loads in proptest::collection::vec(0u32..300, 8),
            dead in 0u8..16,
            dst in 1u32..16,
            hops in 0u32..4,
        ) {
            let (cube, algo) = (Hypercube::new(4), rule_route_c(4));
            let mut ctl = algo.controller(&cube, NodeId(0));
            // control words outside 2..=4 are ignored, as a neighbour's would be
            let idle = RouterView::from_tables(NodeId(0), 0, &[], &[], &[]);
            for &(port, code, fault) in &hooks {
                if fault {
                    ctl.on_fault(&idle, PortId(port));
                } else {
                    ctl.on_control(&idle, PortId(port), &[code]);
                }
            }
            // bit v of free[p]: channel class v of port p is free
            let free: Vec<Vec<bool>> =
                free.iter().map(|f| (0..5).map(|v| f >> v & 1 != 0).collect()).collect();
            let alive: Vec<bool> = (0..4).map(|p| dead >> p & 1 == 0).collect();
            let mut header = Header::new(ftr_sim::MessageId(1), NodeId(0), NodeId(dst), 4);
            header.hops = hops;
            let ask = |ctl: &mut Box<dyn ftr_sim::routing::NodeController>, load: &[u32]| {
                let view = RouterView::from_tables(NodeId(0), 0, &free, load, &alive);
                let mut h = header;
                (ctl.route(&view, &mut h, None, VcId(0)), h)
            };
            let (first, h1) = ask(&mut ctl, &loads[..4]);
            if first.verdict == Verdict::Wait && !first.polled {
                let (second, h2) = ask(&mut ctl, &loads[4..]);
                prop_assert_eq!(second, first);
                prop_assert_eq!((h1, h2), (header, header));
            }
        }
    }

    #[test]
    fn rule_driven_route_c_delivers_all_pairs() {
        let mut net = rule_cube_net(4);
        net.set_measuring(true);
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a != b {
                    net.send(NodeId(a), NodeId(b), 2).unwrap();
                }
            }
        }
        assert!(net.drain(300_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "two-phase minimal");
        assert_eq!(
            net.stats.decision_steps.max, 2,
            "the paper's 'always two interpretations', measured live"
        );
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn rule_driven_route_c_survives_node_fault() {
        let mut net = rule_cube_net(4);
        net.inject_node_fault(NodeId(5));
        net.settle_control(10_000).expect("settles");
        net.set_measuring(true);
        let cube = Hypercube::new(4);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 9);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.unroutable_msgs, 0);
        assert!(net.stats.delivered_msgs > 200);
    }

    /// Many-to-one traffic at node 0 across its dead link 0#0: `rounds`
    /// rounds of one `len`-flit worm from each source, five cycles apart,
    /// then a drain. Returns (delivered, sent, deadlock).
    fn hot_spot_on_dead_link(
        algo: &dyn ftr_sim::RoutingAlgorithm,
        sources: &[u32],
        len: u32,
    ) -> (u64, u64, bool) {
        let mut net = Network::builder(Arc::new(Hypercube::new(4))).build(algo).expect("valid");
        net.inject_link_fault(NodeId(0), PortId(0));
        net.settle_control(10_000).expect("settles");
        for _ in 0..200 {
            for &s in sources {
                net.send(NodeId(s), NodeId(0), len).unwrap();
            }
            for _ in 0..5 {
                net.step();
            }
        }
        net.drain(400_000);
        (net.stats.delivered_msgs, 200 * sources.len() as u64, net.stats.deadlock)
    }

    #[test]
    fn rule_driven_route_c_drains_on_one_dead_link_like_native() {
        // ROADMAP item 1's reproduction. `decide_vc` used to commit to the
        // least-loaded candidate even when its class was busy, and the
        // host then waited: 499 of 800 and 1 446 of 1 600 delivered, then
        // a deadlock. Each class now picks among the candidates that hold
        // it free (1(a)), as native allocates over every candidate.
        let (cube, rules) = (Hypercube::new(4), rule_route_c(4));
        let native = ftr_algos::RouteC::new(cube);
        let odd: Vec<u32> = (1..16).step_by(2).collect();
        for (sources, len) in [(&[1, 3, 5, 9][..], 16), (&odd[..], 32), (&[1, 3, 5, 9][..], 4)] {
            let rule_arm = hot_spot_on_dead_link(&rules, sources, len);
            let (delivered, sent, deadlock) = hot_spot_on_dead_link(&native, sources, len);
            assert_eq!((delivered, deadlock), (sent, false), "native {sources:?} x {len}");
            assert_eq!(rule_arm, (delivered, sent, false), "rules {sources:?} x {len}");
        }
    }

    #[test]
    fn native_route_c_knots_on_two_dead_links_at_one_node() {
        // ROADMAP item 1's open question, answered: native ROUTE_C's
        // cycle does become a knot. Links 0#0 and 0#1 dead, uniform load
        // 0.3 in 8-flit worms for 1 500 cycles, rejected sends dropped.
        // Pins today's verdicts: (delivered, sent, deadlock) per seed.
        let (rules, native) = (rule_route_c(4), ftr_algos::RouteC::new(Hypercube::new(4)));
        let run = |algo: &dyn RoutingAlgorithm, seed| {
            let (delivered, sent, deadlock, _) =
                uniform_on_dead_links(algo, 4, &[(0, 0), (0, 1)], 0.3, 1_500, seed);
            (delivered, sent, deadlock)
        };
        for (seed, native_arm, rule_arm) in [
            (5, (297, 891, true), (888, 891, true)),
            (6, (638, 895, true), (895, 895, false)),
            (7, (470, 881, true), (853, 881, true)),
        ] {
            assert_eq!(run(&native, seed), native_arm, "native, seed {seed}");
            assert_eq!(run(&rules, seed), rule_arm, "rules, seed {seed}");
        }
    }

    /// A `dim`-cube with the `(node, port)` links `dead` killed and
    /// settled, `cycles` cycles of uniform 8-flit worms at `load` (rejected
    /// sends dropped), then a drain: (delivered, sent, deadlock, drained).
    fn uniform_on_dead_links(
        algo: &dyn RoutingAlgorithm,
        dim: u32,
        dead: &[(u32, u8)],
        load: f64,
        cycles: u32,
        seed: u64,
    ) -> (u64, u64, bool, bool) {
        let cube = Hypercube::new(dim);
        let mut net = Network::builder(Arc::new(cube.clone())).build(algo).expect("valid");
        for &(node, port) in dead {
            net.inject_link_fault(NodeId(node), PortId(port));
        }
        net.settle_control(10_000).expect("settles");
        let (mut tf, mut sent) = (TrafficSource::new(Pattern::Uniform, load, 8, seed), 0);
        for _ in 0..cycles {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                sent += u64::from(net.send(s, d, l).is_ok());
            }
            net.step();
        }
        let drained = net.drain(100_000);
        (net.stats.delivered_msgs, sent, net.stats.deadlock, drained)
    }

    /// ROADMAP item 19's run on one dead link of the `dim`-cube: true when
    /// worms are left in flight after the drain.
    fn stuck_on_dead_link(
        algo: &dyn RoutingAlgorithm,
        dim: u32,
        link: (u32, u8),
        seed: u64,
    ) -> bool {
        !uniform_on_dead_links(algo, dim, &[link], 0.1, 600, seed).3
    }

    /// How many runs of item 19's sweep are stuck: every link of the
    /// `dim`-cube dead alone, as `(node, port)` from its lower end, once
    /// per seed.
    fn stuck_runs(
        algo: &dyn RoutingAlgorithm,
        dim: u32,
        seeds: std::ops::RangeInclusive<u64>,
    ) -> usize {
        let ports = dim as u8;
        let links = (0..1u32 << dim)
            .flat_map(|n| (0..ports).filter(move |p| n & 1 << p == 0).map(move |p| (n, p)));
        let runs = links.flat_map(|l| seeds.clone().map(move |s| (l, s)));
        runs.filter(|&(l, s)| stuck_on_dead_link(algo, dim, l, s)).count()
    }

    #[test]
    fn native_route_c_drains_on_link_7_3() {
        // ROADMAP item 19's witness: message 4 (15 → 7) misroutes 15 → 14
        // around the dead link, and a phase recomputed at 14 used to send
        // it straight back on n14.p0.v0 until it waited on its own tail
        let native = ftr_algos::RouteC::new(Hypercube::new(4));
        assert!(!stuck_on_dead_link(&native, 4, (7, 3), 1));
    }

    #[test]
    fn the_single_dead_link_sweep() {
        // item 19(d): every single dead link of the 4-cube. Native has no
        // stuck run. The rule arm still derives the phase at every node
        // (item 19(b)): a known defect, pinned by its count. Its runs
        // cost ~10x native's in a debug build, so it samples seeds 1-3.
        let (rules, native) = (rule_route_c(4), ftr_algos::RouteC::new(Hypercube::new(4)));
        assert_eq!(stuck_runs(&native, 4, 1..=10), 0, "native stuck runs of 320");
        assert_eq!(stuck_runs(&rules, 4, 1..=3), 27, "rule stuck runs of 96 (item 19(b))");
    }

    #[test]
    fn the_single_dead_link_sweep_of_the_6_cube() {
        // item 19(d)'s 6-cube sample: all 192 single dead links, seed 1.
        // The rule arm's stuck runs are item 19(b)'s known defect.
        let (rules, native) = (rule_route_c(6), ftr_algos::RouteC::new(Hypercube::new(6)));
        assert_eq!(stuck_runs(&native, 6, 1..=1), 0, "native stuck runs of 192");
        assert_eq!(stuck_runs(&rules, 6, 1..=1), 13, "rule stuck runs of 192 (item 19(b))");
    }

    #[test]
    #[should_panic(
        expected = "rule program `route_c_nft`: resolve error: the program does not declare `okdirs`"
    )]
    fn the_stripped_program_is_refused_at_construction() {
        let cfg = configure("route_c_nft", ftr_algos::rules_src::ROUTE_C_NFT).unwrap();
        CubeRuleRouter::new(cfg, Hypercube::new(4));
    }

    #[test]
    #[should_panic(
        expected = "rule program `route_c`: resolve error: `neighb_state` is declared over \
                    `fault_states`, which has no symbol `ounsafe`"
    )]
    fn a_state_type_without_a_fault_state_is_refused_at_construction() {
        let src = route_c_source(4).replace("ounsafe", "ocunsafe");
        CubeRuleRouter::new(configure("route_c", &src).unwrap(), Hypercube::new(4));
    }

    #[test]
    fn state_propagation_through_rule_machine() {
        // three dead neighbours around node 0 flip its rule-held state to
        // unsafe, exactly like the native implementation
        let mut net = rule_cube_net(4);
        for n in [1u32, 2, 4] {
            net.inject_node_fault(NodeId(n));
        }
        net.settle_control(10_000).unwrap();
        assert!(
            net.controller(NodeId(0)).state_word() >= 2,
            "node 0 should be unsafe, got {}",
            net.controller(NodeId(0)).state_word()
        );
        let far = net.controller(NodeId(15)).state_word();
        assert_eq!(far, 0, "antipode stays safe");
    }
}

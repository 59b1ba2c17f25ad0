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
    use ftr_sim::routing::{Decision, RouterView, RoutingAlgorithm};
    use ftr_sim::Header;
    use ftr_sim::{Network, Pattern, TrafficSource};
    use ftr_topo::{NodeId, PortId, VcId};
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
    fn route_c_waits_are_polled() {
        // `decide_vc` takes `argmin(out_queue, cands)` over *all*
        // candidates and the host waits when the chosen one is busy, so a
        // load change alone can end the wait: it must be re-asked
        let (cube, algo) = (Hypercube::new(4), rule_route_c(4));
        let (busy, load, alive) = (vec![vec![false; 5]; 4], vec![2, 0, 5, 1], vec![true; 4]);
        let view = RouterView::from_tables(NodeId(3), 0, &busy, &load, &alive);
        let mut header = Header::new(ftr_sim::MessageId(1), NodeId(3), NodeId(12), 4);
        let before = header;
        let d = algo.controller(&cube, NodeId(3)).route(&view, &mut header, None, VcId(0));
        assert_eq!(d, Decision::polled_wait(2));
        assert_eq!(header, before);
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
    fn rule_driven_route_c_deadlocks_on_one_dead_link_where_native_drains() {
        // Pins today's verdict, not the wanted one: the rule host deadlocks
        // on this schedule and native ROUTE_C does not. Fixing the rule arm
        // (ROADMAP item 1(a)) flips the first two rows to full delivery.
        let (cube, rules) = (Hypercube::new(4), rule_route_c(4));
        let native = ftr_algos::RouteC::new(cube);
        let odd: Vec<u32> = (1..16).step_by(2).collect();
        for (sources, len, rule_arm) in [
            (&[1, 3, 5, 9][..], 16, (499, 800, true)),
            (&odd[..], 32, (1_446, 1_600, true)),
            (&[1, 3, 5, 9][..], 4, (800, 800, false)),
        ] {
            assert_eq!(
                hot_spot_on_dead_link(&rules, sources, len),
                rule_arm,
                "{sources:?} x {len}"
            );
            let (delivered, sent, deadlock) = hot_spot_on_dead_link(&native, sources, len);
            assert_eq!((delivered, deadlock), (sent, false), "native {sources:?} x {len}");
        }
    }

    #[test]
    fn native_route_c_knots_on_two_dead_links_at_one_node() {
        // ROADMAP item 1's open question, answered: native ROUTE_C's
        // cycle does become a knot. Links 0#0 and 0#1 dead, uniform load
        // 0.3 in 8-flit worms for 1 500 cycles, rejected sends dropped.
        // Pins today's verdicts: (delivered, sent, deadlock) per seed.
        let (cube, rules) = (Hypercube::new(4), rule_route_c(4));
        let native = ftr_algos::RouteC::new(cube.clone());
        let run = |algo: &dyn ftr_sim::RoutingAlgorithm, seed| {
            let mut net = Network::builder(Arc::new(cube.clone())).build(algo).expect("valid");
            net.inject_link_fault(NodeId(0), PortId(0));
            net.inject_link_fault(NodeId(0), PortId(1));
            net.settle_control(10_000).expect("settles");
            let (mut tf, mut sent) = (TrafficSource::new(Pattern::Uniform, 0.3, 8, seed), 0);
            for _ in 0..1_500 {
                for (s, d, l) in tf.tick(&cube, net.faults()) {
                    sent += u64::from(net.send(s, d, l).is_ok());
                }
                net.step();
            }
            net.drain(100_000);
            (net.stats.delivered_msgs, sent, net.stats.deadlock)
        };
        for (seed, native_arm, rule_arm) in [
            (5, (297, 891, true), (888, 891, true)),
            (6, (638, 895, true), (895, 895, false)),
            (7, (470, 881, true), (858, 881, true)),
        ] {
            assert_eq!(run(&native, seed), native_arm, "native, seed {seed}");
            assert_eq!(run(&rules, seed), rule_arm, "rules, seed {seed}");
        }
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

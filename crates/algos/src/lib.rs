//! # ftr-algos — routing algorithms, native and rule-based
//!
//! The algorithms evaluated in the paper and their baselines, each as a
//! native implementation of [`ftr_sim::routing::RoutingAlgorithm`], plus
//! the rule-language source programs that the rule-based router compiles
//! (shipped in `crates/algos/rules/` and embedded via [`rules_src`]):
//!
//! * [`dor`] — dimension-order XY / e-cube (oblivious baselines),
//! * [`turn`] — west-first turn model (partially adaptive baseline),
//! * [`nara`] — fully adaptive minimal mesh routing over two virtual
//!   networks (the non-fault-tolerant base of NAFTA),
//! * [`nafta`] — NAFTA: NARA + wave-propagated fault states, convex fault
//!   region completion and boundary misrouting,
//! * [`route_c`] — ROUTE_C on hypercubes: safety states and two-phase
//!   routing on five virtual channels,
//! * [`negative_hop`] — the diameter-many-VCs static scheme of \[BoC96\]
//!   (§3's "no changes to the deadlock avoidance are necessary at all"),
//! * [`rule_io`] — the message interface: the host↔program convention the
//!   rule programs' `INPUT`/`VARIABLE` declarations follow, bound once,
//! * [`vnet`] — the mesh data path's channel allocator: the NARA pair's
//!   two-virtual-network discipline, shared by `nara`, `nafta`, the rule
//!   host and the static lift,
//! * [`spanning_tree`] — the §2.1 spanning-tree strawman,
//! * [`conditions`] — empirical checks of conditions 1–3 and the
//!   channel-dependency deadlock bridge.

pub mod common;
pub mod conditions;
pub mod dor;
pub mod nafta;
pub mod nara;
pub mod negative_hop;
pub mod route_c;
pub mod rule_io;
pub mod rules_src;
pub mod spanning_tree;
pub mod turn;
pub mod vnet;

pub use conditions::{build_cdg, check_conditions, ConditionsReport};
pub use dor::{EcubeRouting, KAryDor, XyRouting};
pub use nafta::Nafta;
pub use nara::Nara;
pub use negative_hop::NegativeHop;
pub use route_c::RouteC;
pub use spanning_tree::SpanningTreeRouting;
pub use turn::WestFirst;

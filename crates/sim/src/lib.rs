//! # ftr-sim — cycle-level wormhole network simulator
//!
//! The evaluation substrate for the flexible fault-tolerant router
//! (Döring et al., IPPS 1998). Implements the paper's network model:
//! wormhole switching with flits (§2.2), virtual channels by link
//! multiplexing, input-buffered routers with credit flow control, a
//! control unit consulted per head flit with *configurable decision
//! latency* (the \[DLO97\] routing-decision-time effect the paper builds on),
//! a control plane for neighbour fault/state propagation, and dynamic fault
//! injection with worm-kill semantics.
//!
//! Routing algorithms plug in through [`routing::RoutingAlgorithm`] /
//! [`routing::NodeController`] — natively implemented algorithms live in
//! `ftr-algos`, and the rule-based router of `ftr-core` drives the same
//! interface through compiled rule programs.
//!
//! ## Quick tour
//!
//! ```
//! use ftr_sim::{Network, SimConfig, routing::*, flit::Header};
//! use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
//! use std::sync::Arc;
//!
//! /// Minimal XY dimension-order routing (deadlock-free on meshes).
//! struct Xy(Mesh2D);
//! struct XyCtl(Mesh2D);
//! impl RoutingAlgorithm for Xy {
//!     fn name(&self) -> String { "xy".into() }
//!     fn num_vcs(&self) -> usize { 1 }
//!     fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
//!         Box::new(XyCtl(self.0.clone()))
//!     }
//! }
//! impl NodeController for XyCtl {
//!     fn route(&mut self, view: &RouterView<'_>, h: &mut Header,
//!              _ip: Option<PortId>, _iv: VcId) -> Decision {
//!         let (dx, dy) = self.0.offset(view.node, h.dst);
//!         let p = if dx > 0 { ftr_topo::EAST } else if dx < 0 { ftr_topo::WEST }
//!                 else if dy > 0 { ftr_topo::NORTH } else { ftr_topo::SOUTH };
//!         if view.free(p.idx(), 0) {
//!             Decision::new(Verdict::Route(p, VcId(0)), 1)
//!         } else {
//!             Decision::new(Verdict::Wait, 1)
//!         }
//!     }
//! }
//!
//! let topo = Arc::new(Mesh2D::new(4, 4));
//! let mut net = Network::builder(topo.clone())
//!     .build(&Xy((*topo).clone()))
//!     .expect("valid configuration");
//! net.send(NodeId(0), NodeId(15), 4).expect("endpoints alive");
//! assert!(net.drain(1_000));
//! assert_eq!(net.stats.delivered_msgs, 1);
//! ```
//!
//! [`SimStats`] is the run's record. To observe *why* its numbers come out
//! the way they do, attach a trace sink via [`NetworkBuilder`] — see
//! `ftr-obs`.

mod arena;
pub mod detect;
pub mod envlock;
pub mod fleet;
pub mod flit;
pub mod network;
pub mod plan;
pub mod router;
pub mod routing;
pub mod stats;
pub mod sweep;
pub mod traffic;

pub use detect::{Detector, DetectorConfig, DetectorController, WithDetection};
pub use fleet::{run_fleet, FleetJob, FleetOutcome};
pub use flit::{Flit, Header, MessageId};
pub use network::{BuildError, Network, NetworkBuilder, RetryPolicy, SendError, SimConfig};
pub use plan::{FaultAction, FaultPlan, PlannedAction};
pub use routing::{ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
pub use stats::{Accum, SimStats};
pub use sweep::{run_sweep, worker_count};
pub use traffic::{Pattern, TrafficSource};

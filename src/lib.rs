//! # ftrouter — flexible fault-tolerant router (IPPS'98 reproduction)
//!
//! Umbrella crate re-exporting the workspace: topologies (`topo`), the
//! cycle-level simulator (`sim`), the rule interpreter (`rules`), native
//! routing algorithms (`algos`), the configuration pipeline (`core`), the
//! observability layer (`obs`), and trace analysis (`trace`). Most
//! programs only need the [`prelude`].

pub use ftr_algos as algos;
pub use ftr_core as core;
pub use ftr_obs as obs;
pub use ftr_rules as rules;
pub use ftr_sim as sim;
pub use ftr_topo as topo;
pub use ftr_trace as trace;

/// The types nearly every experiment touches, importable in one line:
///
/// ```
/// use ftrouter::prelude::*;
/// # use std::sync::Arc;
///
/// let mesh = Mesh2D::new(4, 4);
/// let sink = Arc::new(RingSink::new(1024));
/// let mut net = Network::builder(Arc::new(mesh.clone()))
///     .trace(sink.clone())
///     .build(&XyRouting::new(mesh))
///     .expect("valid configuration");
/// net.send(NodeId(0), NodeId(15), 4).expect("endpoints alive");
/// assert!(net.drain(1_000));
/// assert!(!sink.is_empty());
/// ```
pub mod prelude {
    pub use ftr_algos::{Nafta, Nara, RouteC, XyRouting};
    pub use ftr_obs::{EventKind, RingSink, TraceEvent, TraceSink};
    pub use ftr_rules::{InterpProbe, Machine, Program};
    pub use ftr_sim::{
        BuildError, FaultAction, FaultPlan, Network, NetworkBuilder, Pattern, RetryPolicy,
        SendError, SimConfig, SimStats, TrafficSource,
    };
    pub use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId};
    pub use ftr_trace::{DiagnoserConfig, DiagnoserSink, JourneyBook, TraceReport};
}

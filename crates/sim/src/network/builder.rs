//! Validated construction: [`SimConfig`], [`BuildError`] and the fluent
//! [`NetworkBuilder`] — the instrumentation seam of the observability
//! layer.

use super::wiring::Wiring;
use super::{Network, RetryPolicy};
use crate::arena::{Channels, Geometry};
use crate::plan::FaultPlan;
use crate::routing::RoutingAlgorithm;
use crate::stats::SimStats;
use ftr_obs::TraceSink;
use ftr_topo::{FaultSet, NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Buffer depth per virtual channel (flits).
    pub buffer_depth: u32,
    /// Cycles one rule-interpretation step costs (the §4.3 delay model:
    /// wiring + 2 FCFB + memory access collapses to a per-step latency).
    pub decision_cycles_per_step: u32,
    /// Cycles without flit movement (while messages are in flight) that
    /// trigger the deadlock watchdog.
    pub deadlock_threshold: u64,
    /// Favour misrouted messages in switch allocation (§3: compensate "the
    /// double disadvantage of the longer path and higher loaded links").
    pub prioritize_misrouted: bool,
    /// Period (cycles) of the autonomous control-plane tick: every
    /// `tick_period` cycles each live controller's
    /// [`crate::routing::NodeController::on_tick`] runs (heartbeat probing, suspicion
    /// bookkeeping). `0` disables ticking entirely — the default, which
    /// keeps oracle-notified configurations byte-identical.
    pub tick_period: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_depth: 4,
            decision_cycles_per_step: 1,
            deadlock_threshold: 2_000,
            prioritize_misrouted: false,
            tick_period: 0,
        }
    }
}

/// Validation failures of [`NetworkBuilder::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `buffer_depth` must be at least one flit.
    ZeroBufferDepth,
    /// The deadlock watchdog threshold must be non-zero.
    ZeroDeadlockThreshold,
    /// The routing algorithm must request at least one virtual channel.
    NoVirtualChannels,
    /// The topology has no nodes.
    EmptyTopology,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroBufferDepth => write!(f, "buffer_depth must be >= 1 flit"),
            BuildError::ZeroDeadlockThreshold => write!(f, "deadlock_threshold must be >= 1"),
            BuildError::NoVirtualChannels => {
                write!(f, "routing algorithm must use >= 1 virtual channel")
            }
            BuildError::EmptyTopology => write!(f, "topology has no nodes"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent, validated construction of a [`Network`] — the instrumentation
/// seam of the observability layer.
///
/// ```
/// use ftr_sim::{NetworkBuilder, routing::*};
/// # use ftr_sim::flit::Header;
/// use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
/// use std::sync::Arc;
/// # struct Stay;
/// # struct StayCtl;
/// # impl RoutingAlgorithm for Stay {
/// #     fn name(&self) -> String { "stay".into() }
/// #     fn num_vcs(&self) -> usize { 1 }
/// #     fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
/// #         Box::new(StayCtl)
/// #     }
/// # }
/// # impl NodeController for StayCtl {
/// #     fn route(&mut self, _v: &RouterView<'_>, _h: &mut Header,
/// #              _ip: Option<PortId>, _iv: VcId) -> Decision {
/// #         Decision::new(Verdict::Wait, 1)
/// #     }
/// # }
/// let sink = Arc::new(ftr_obs::RingSink::new(1024));
/// let net = NetworkBuilder::new(Arc::new(Mesh2D::new(4, 4)))
///     .buffer_depth(8)
///     .trace(sink.clone())
///     .build(&Stay)
///     .expect("valid configuration");
/// assert_eq!(net.cycle(), 0);
/// ```
pub struct NetworkBuilder {
    topo: Arc<dyn Topology>,
    cfg: SimConfig,
    sink: Option<Arc<dyn TraceSink>>,
    retry: Option<RetryPolicy>,
    plan: Option<FaultPlan>,
}

impl NetworkBuilder {
    /// Starts a builder over `topo` with the default [`SimConfig`].
    pub fn new(topo: Arc<dyn Topology>) -> Self {
        NetworkBuilder { topo, cfg: SimConfig::default(), sink: None, retry: None, plan: None }
    }

    /// Replaces the whole engine configuration at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Buffer depth per virtual channel, in flits.
    pub fn buffer_depth(mut self, flits: u32) -> Self {
        self.cfg.buffer_depth = flits;
        self
    }

    /// Cycles one rule-interpretation step costs (§4.3 delay model).
    pub fn decision_cycles_per_step(mut self, cycles: u32) -> Self {
        self.cfg.decision_cycles_per_step = cycles;
        self
    }

    /// Idle cycles (with messages in flight) before the deadlock watchdog
    /// fires.
    pub fn deadlock_threshold(mut self, cycles: u64) -> Self {
        self.cfg.deadlock_threshold = cycles;
        self
    }

    /// Favour fault-misrouted messages in switch allocation (§3).
    pub fn prioritize_misrouted(mut self, on: bool) -> Self {
        self.cfg.prioritize_misrouted = on;
        self
    }

    /// Period (cycles) of the autonomous control-plane tick; `0`
    /// (default) disables [`crate::routing::NodeController::on_tick`] entirely.
    pub fn tick_period(mut self, cycles: u64) -> Self {
        self.cfg.tick_period = cycles;
        self
    }

    /// Does nothing: the engine has one sequential step, so every build is
    /// the same whatever `n` says. Kept only because the ledger
    /// (`benchmark/`) still calls it; item 2(b) drops that call and 2(c)
    /// deletes this method.
    #[deprecated(note = "the engine has no parallel step; this is a no-op")]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Attaches a trace sink. With no sink, the network never constructs
    /// a [`ftr_obs::TraceEvent`].
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enables source retransmission of killed/unroutable messages.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attaches a scripted fault plan the network executes cycle by cycle.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Validates the configuration and builds the network running `algo`
    /// on every node.
    pub fn build(self, algo: &dyn RoutingAlgorithm) -> Result<Network, BuildError> {
        if self.cfg.buffer_depth == 0 {
            return Err(BuildError::ZeroBufferDepth);
        }
        if self.cfg.deadlock_threshold == 0 {
            return Err(BuildError::ZeroDeadlockThreshold);
        }
        let vcs = algo.num_vcs();
        if vcs == 0 {
            return Err(BuildError::NoVirtualChannels);
        }
        let n = self.topo.num_nodes();
        if n == 0 {
            return Err(BuildError::EmptyTopology);
        }
        let degree = self.topo.degree();
        let cfg = self.cfg;
        let chans = Channels::new(Geometry::new(n, degree, vcs, cfg.buffer_depth as usize));
        let ctrls = (0..n).map(|i| algo.controller(self.topo.as_ref(), NodeId(i as u32))).collect();
        let stats = SimStats::for_nodes(n);
        Ok(Network {
            cfg,
            vcs,
            faults: FaultSet::new(),
            wiring: Wiring::new(self.topo.as_ref()),
            topo: self.topo,
            chans,
            ctrls,
            control: VecDeque::new(),
            cycle: 0,
            next_msg: 0,
            last_move: 0,
            measuring: false,
            stats,
            headers: Default::default(),
            sink: self.sink,
            retry: self.retry,
            retries: VecDeque::new(),
            plan: self.plan,
            active_mask: vec![false; n],
            active_list: Vec::new(),
            dense_reference: false,
            last_moved: false,
            scratch: Default::default(),
        })
    }
}

//! The cycle-level network engine.
//!
//! Drives the per-node routers under the control of a
//! [`RoutingAlgorithm`](crate::routing::RoutingAlgorithm): link traversal,
//! injection, routing decisions with configurable latency, switch
//! allocation (round-robin), ejection, credit-based flow control,
//! control-plane propagation of fault state, and dynamic fault injection
//! with worm-kill semantics (messages ripped by a fault are removed
//! network-wide and counted, standing in for the higher-level recovery
//! protocols the paper's §2.1 mentions).
//!
//! The files follow the router's own blocks (Figure 3):
//!
//! - `builder` — [`SimConfig`], [`BuildError`], [`NetworkBuilder`];
//! - `wiring` — who is behind each port, and the cached link and node
//!   status the data path reads instead of the topology and fault set;
//! - `view` — the information units: the windows a
//!   [`RouterView`](crate::routing::RouterView) reads the router through;
//! - `control` — the control unit's neighbour traffic: the control
//!   queue, the periodic tick, delivery, and the single call site of
//!   every [`NodeController`] control-plane hook;
//! - `faults` — the fault/repair surface, worm kills, the credit rebuild,
//!   and the fault-plan and retry drains;
//! - `step` — [`Network::step`] and the barriers between phases;
//! - `phases` — the data path: link traversal, injection, routing,
//!   ejection and switch allocation.
//!
//! All data-path state lives in the struct-of-arrays `crate::arena`; the
//! step executes as a sequence of *phases*, each over the cycle's working
//! set in ascending node order. See `DESIGN.md` §14.

mod builder;
mod control;
mod faults;
mod phases;
mod step;
mod view;
pub(crate) mod wiring;

pub use builder::{BuildError, NetworkBuilder, SimConfig};

use crate::arena::Channels;
use crate::flit::{Flit, Header, MessageId};
use crate::plan::FaultPlan;
use crate::routing::NodeController;
use crate::stats::{MsgMeta, SimStats};
use ftr_obs::{EventKind, IdMap, TraceEvent, TraceSink};
use ftr_topo::{FaultSet, NodeId, PortId, Topology, VcId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why [`Network::send`] rejected an injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The source node is faulty.
    FaultySource,
    /// The destination node is faulty (assumption iii: no messages to
    /// faulty destinations).
    FaultyDestination,
    /// `src == dst` — self-messages never enter the network.
    SelfMessage,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::FaultySource => write!(f, "source node is faulty"),
            SendError::FaultyDestination => write!(f, "destination node is faulty"),
            SendError::SelfMessage => write!(f, "self-messages never enter the network"),
        }
    }
}

impl std::error::Error for SendError {}

/// Source-retransmission policy: killed or unroutable messages are
/// re-injected at their source after a backoff, up to an attempt budget —
/// the end-to-end recovery protocol §2.1 assumes above the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total injection attempts allowed per message (1 = no retries).
    pub max_attempts: u32,
    /// Cycles between a worm being ripped and its re-injection.
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_cycles: 32 }
    }
}

/// The header of every message with a flit in the network, stored once
/// per message (§2.2: only the head flit carries routing information).
/// Looked up by id, never iterated, so its order cannot leak into a run.
type Headers = IdMap<MessageId, Header>;

/// Marks node `ni` as having flit-bearing work. Idempotent; every path
/// that hands a node a flit (injection, retry re-injection, link
/// traversal) must call this or the active-set scheduler would strand
/// the flit.
#[inline]
fn mark_active(mask: &mut [bool], list: &mut Vec<u32>, ni: usize) {
    if !mask[ni] {
        mask[ni] = true;
        list.push(ni as u32);
    }
}

/// The simulated network.
pub struct Network {
    topo: Arc<dyn Topology>,
    cfg: SimConfig,
    vcs: usize,
    /// Ground truth; changed only by `set_fault`, which keeps `wiring`'s
    /// cached status bits equal to it.
    faults: FaultSet,
    wiring: wiring::Wiring,
    /// All per-node data-path state (FIFOs, routes, credits, registers).
    chans: Channels,
    ctrls: Vec<Box<dyn NodeController>>,
    control: VecDeque<control::ControlDelivery>,
    cycle: u64,
    next_msg: u64,
    last_move: u64,
    measuring: bool,
    /// Aggregated statistics: the run's only record.
    pub stats: SimStats,
    /// One header per message with flits staged or in the network: written
    /// by `stage`, read and written when the head is routed or crosses a
    /// switch, removed at delivery or kill.
    headers: Headers,
    sink: Option<Arc<dyn TraceSink>>,
    /// Per input lane, the `RouteWait` wants last probed for its head: what
    /// a parked head re-emits every cycle. Empty without a sink.
    lane_wants: Vec<Vec<(PortId, VcId)>>,
    retry: Option<RetryPolicy>,
    retries: VecDeque<faults::RetryEntry>,
    plan: Option<FaultPlan>,
    /// Active-set scheduling: `active_mask[n]` ⟺ node `n` is in
    /// `active_list` ⟺ (between steps) node `n` has flit-bearing work.
    /// Every flit source (injection, link traversal, retry re-injection)
    /// marks its node; `step` iterates only the marked set.
    active_mask: Vec<bool>,
    active_list: Vec<u32>,
    /// Retained reference path: iterate every node in every phase and
    /// consult the controller for every waiting head every cycle, exactly
    /// as the pre-active-set, polling engine did. Differential tests run
    /// it in lockstep against the active-set, parking path.
    dense_reference: bool,
    /// Whether the most recent `step` moved any flit.
    last_moved: bool,
    scratch: step::StepScratch,
}

impl Network {
    /// Starts a [`NetworkBuilder`] over `topo`.
    pub fn builder(topo: Arc<dyn Topology>) -> NetworkBuilder {
        NetworkBuilder::new(topo)
    }

    /// Emits a trace event; the closure only runs when a sink is attached
    /// (zero-cost-when-disabled contract).
    #[inline]
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(&TraceEvent { cycle: self.cycle, kind: kind() });
        }
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Switches `step` onto the reference path: every phase iterates
    /// every node, as the pre-active-set engine did, *and* every waiting
    /// head is put to its controller every cycle instead of staying parked
    /// until its node's state changes. The two paths are observably
    /// identical — same `SimStats`, same trace-event stream, same
    /// per-cycle movement — which the lockstep differential tests enforce;
    /// the reference exists as that test's oracle and as a debugging
    /// fallback. Switching is safe at any cycle boundary.
    pub fn set_dense_reference(&mut self, on: bool) {
        self.dense_reference = on;
    }

    /// Whether the most recent [`Network::step`] moved any flit (link
    /// traversal, injection, ejection or switch). Differential tests
    /// compare this per cycle across step paths.
    pub fn last_step_moved(&self) -> bool {
        self.last_moved
    }

    /// Nodes currently in the active set (ascending order; diagnostics).
    pub fn active_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<u32> = self.active_list.clone();
        v.sort_unstable();
        v.into_iter().map(NodeId).collect()
    }

    /// Whether node `n` holds any flit-bearing work (diagnostics).
    pub fn node_has_work(&self, n: NodeId) -> bool {
        self.chans.has_work(n.idx())
    }

    /// Whether every bit of the arena's occupancy masks equals what the
    /// FIFOs and link registers it caches answer (debug-asserted at every
    /// step's prune).
    pub fn masks_consistent(&self) -> bool {
        self.chans.masks_consistent()
    }

    /// Whether the output link register of `(n, p)` holds an in-flight
    /// flit (diagnostics).
    pub fn output_register_occupied(&self, n: NodeId, p: PortId) -> bool {
        self.chans.out_reg(n.idx(), p.idx()).is_some()
    }

    /// The topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Ground-truth fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Marks subsequently injected messages as part of the measurement
    /// window (and records the window length).
    pub fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
    }

    /// Adds to the measured-cycles count used for throughput.
    pub fn add_measured_cycles(&mut self, c: u64) {
        self.stats.measured_cycles += c;
    }

    /// Injects a message at `src` for `dst`.
    ///
    /// An injection the network must refuse — a faulty endpoint (a
    /// scheduled send racing a dynamic fault; assumption iii: no messages
    /// to faulty nodes) or `src == dst` — returns a [`SendError`], is
    /// counted in [`SimStats::rejected_sends`] and traced as
    /// [`EventKind::SendRejected`]; it never aborts the run, in any build
    /// profile.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len_flits: u32,
    ) -> Result<MessageId, SendError> {
        let rejection = if src == dst {
            Some(SendError::SelfMessage)
        } else if self.wiring.node_dead(src.idx()) {
            Some(SendError::FaultySource)
        } else if self.wiring.node_dead(dst.idx()) {
            Some(SendError::FaultyDestination)
        } else {
            None
        };
        if let Some(e) = rejection {
            self.stats.rejected_sends += 1;
            self.emit(|| EventKind::SendRejected { src, dst });
            return Err(e);
        }
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        let header = Header::new(id, src, dst, len_flits);
        self.stats.on_inject(
            id,
            MsgMeta {
                inject_cycle: self.cycle,
                src,
                dst,
                len_flits: len_flits.max(1),
                measured: self.measuring,
                hops: 0,
                min_dist: self.topo.min_distance(src, dst),
                attempts: 1,
            },
        );
        self.emit(|| EventKind::Inject { msg: id.0, src, dst, len_flits });
        self.stage(header);
        Ok(id)
    }

    /// Queues a whole message at its source's staging buffer (first
    /// injection and retry re-injection alike).
    fn stage(&mut self, header: Header) {
        let src = header.src.idx();
        self.headers.insert(header.msg, header);
        self.chans.staging_mut(src).extend(Flit::sequence(header));
        mark_active(&mut self.active_mask, &mut self.active_list, src);
    }

    /// Messages in flight (injected, not yet terminated).
    pub fn in_flight(&self) -> usize {
        self.stats.in_flight()
    }

    /// Runs `cycles` steps (stops early on deadlock).
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            if self.stats.deadlock {
                break;
            }
            self.step();
        }
    }

    /// Runs until all in-flight messages terminate or `budget` cycles
    /// elapse. Returns true if the network drained.
    pub fn drain(&mut self, budget: u64) -> bool {
        let start = self.cycle;
        while self.in_flight() > 0 && !self.stats.deadlock {
            if self.cycle - start >= budget {
                return false;
            }
            self.step();
        }
        let drained = self.in_flight() == 0;
        debug_assert!(!drained || self.headers.is_empty(), "a drained network keeps a header");
        drained
    }

    /// Human-readable dump of every occupied buffer — debugging aid for
    /// stuck or deadlocked networks.
    pub fn dump_occupancy(&self) -> String {
        use std::fmt::Write as _;
        let geo = self.chans.geo();
        let mut s = String::new();
        for ni in 0..geo.nodes {
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    if self.chans.fifo_len(ni, ip, iv) != 0 {
                        let _ = writeln!(
                            s,
                            "n{ni} in[{ip}][{iv}] route={:?} phase={:?} flits={:?}",
                            self.chans.route(ni, ip, iv),
                            self.chans.phase_of(ni, ip, iv),
                            self.chans.fifo_iter(ni, ip, iv).map(|f| f.msg().0).collect::<Vec<_>>()
                        );
                    }
                }
            }
            for p in 0..geo.degree {
                if let Some((v, f)) = self.chans.out_reg(ni, p) {
                    let _ = writeln!(s, "n{ni} outreg[{p}] vc={v} msg={}", f.msg().0);
                }
            }
            for p in 0..geo.degree {
                for v in 0..geo.vcs {
                    let owner = self.chans.out_owner(ni, p, v);
                    let credits = self.chans.out_credits(ni, p, v);
                    if owner.is_some() || credits != self.cfg.buffer_depth {
                        let _ =
                            writeln!(s, "n{ni} out[{p}][{v}] owner={owner:?} credits={credits}");
                    }
                }
            }
            if !self.chans.staging(ni).is_empty() {
                let _ = writeln!(s, "n{ni} staging={}", self.chans.staging(ni).len());
            }
        }
        s
    }

    /// Direct read access to a controller (diagnostics/experiments).
    pub fn controller(&self, n: NodeId) -> &dyn NodeController {
        self.ctrls[n.idx()].as_ref()
    }
}

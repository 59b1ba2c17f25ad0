//! Per-input-VC routing state of the router microarchitecture.
//!
//! The data-path half of Figure 1/3 — input FIFOs per virtual channel,
//! credit counters, output registers, round-robin connection unit — lives
//! in the struct-of-arrays `crate::arena`; this module keeps the small
//! state machines each input VC carries: the current [`RouteState`] of the
//! message at the FIFO front and the [`DecisionPhase`] of its pending
//! routing decision. The control half (routing) lives behind the
//! [`crate::routing::NodeController`] trait.

use ftr_topo::{PortId, VcId};

/// Routing state of one input virtual channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteState {
    /// No decision yet for the message at the FIFO front.
    Unrouted,
    /// Message is being delivered locally.
    Local,
    /// Message holds this output channel.
    Out(PortId, VcId),
}

/// Progress of the routing decision for the head at the FIFO front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionPhase {
    /// The decision is being computed; this many cycles remain.
    Waiting(u32),
    /// The decision latency elapsed; the controller is consulted each
    /// cycle (at no further modeled cost) until it grants.
    Ready,
    /// The controller answered a `Wait` it did not mark as polled: by the
    /// contract on [`crate::routing::NodeController::route`] the answer
    /// stands until the node's channel state, link status or controller
    /// state changes, so the head is not asked again until one of them
    /// does and the lane goes back to [`DecisionPhase::Ready`].
    Parked,
}

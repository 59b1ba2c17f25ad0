//! Typed, cycle-stamped trace events.
//!
//! Every event the simulator, router and control plane can emit is a
//! variant of [`EventKind`]; a [`TraceEvent`] stamps it with the cycle it
//! happened on. Message ids are plain `u64` (the simulator's `MessageId`
//! newtype lives above this crate in the dependency graph).

use crate::json::{self, Obj};
use ftr_topo::{NodeId, PortId, VcId};

/// What a routing decision concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The message was assigned this output port and virtual channel.
    Routed(PortId, VcId),
    /// The algorithm asked the message to wait.
    Wait,
    /// Deliver locally (destination reached, or algorithm verdict).
    Deliver,
    /// No healthy route exists (condition-3 violation).
    Unroutable,
}

impl RouteOutcome {
    fn name(self) -> &'static str {
        match self {
            RouteOutcome::Routed(..) => "routed",
            RouteOutcome::Wait => "wait",
            RouteOutcome::Deliver => "deliver",
            RouteOutcome::Unroutable => "unroutable",
        }
    }
}

/// One observable occurrence inside the simulated network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A message entered the network at its source.
    Inject {
        /// Message id.
        msg: u64,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Message length in flits.
        len_flits: u32,
    },
    /// A routing decision completed for the head flit at `node` (emitted
    /// once per message per node, when the decision's step count is
    /// charged — the paper's per-decision quantity).
    RouteDecision {
        /// Deciding node.
        node: NodeId,
        /// Message id.
        msg: u64,
        /// Input port (`None` = injection queue).
        in_port: Option<PortId>,
        /// Input virtual channel.
        in_vc: VcId,
        /// The verdict.
        outcome: RouteOutcome,
        /// Consecutive rule interpretations the decision took (§5).
        steps: u32,
        /// The message is travelling a non-minimal path due to faults.
        misrouted: bool,
    },
    /// A routed message could not take its granted output channel this
    /// cycle (VC busy or no credit) — allocation stall.
    VcStall {
        /// Stalling node.
        node: NodeId,
        /// Message id.
        msg: u64,
        /// Output port the verdict chose.
        port: PortId,
        /// Output virtual channel the verdict chose.
        vc: VcId,
    },
    /// The head flit acquired its granted output virtual channel: the
    /// channel's owner is now this message (wormhole allocation point).
    VcAcquire {
        /// Allocating node.
        node: NodeId,
        /// Message id.
        msg: u64,
        /// Acquired output port.
        port: PortId,
        /// Acquired output virtual channel.
        vc: VcId,
    },
    /// The tail flit passed the switch at `node`: the output channel is
    /// free for re-allocation (killed worms release without this event).
    VcRelease {
        /// Releasing node.
        node: NodeId,
        /// Message id.
        msg: u64,
        /// Released output port.
        port: PortId,
        /// Released output virtual channel.
        vc: VcId,
    },
    /// The algorithm asked the head flit to wait — blocked with no granted
    /// channel. `wants` lists every output channel the algorithm would
    /// accept right now (probed under single-free views), the edge set the
    /// online deadlock diagnoser consumes. Emitted once per blocked cycle.
    RouteWait {
        /// Blocking node.
        node: NodeId,
        /// Message id.
        msg: u64,
        /// Acceptable output channels `(port, vc)` this cycle.
        wants: Vec<(PortId, VcId)>,
    },
    /// Tail flit ejected: the message is fully delivered.
    Deliver {
        /// Destination node.
        node: NodeId,
        /// Message id.
        msg: u64,
    },
    /// The message was ripped by a dynamic fault and removed network-wide.
    Kill {
        /// Message id.
        msg: u64,
    },
    /// The algorithm declared the message unroutable; it was removed.
    Unroutable {
        /// Message id.
        msg: u64,
    },
    /// The link leaving `node` through `port` failed.
    LinkFault {
        /// Link endpoint.
        node: NodeId,
        /// Failed port.
        port: PortId,
    },
    /// `node` failed.
    NodeFault {
        /// The failed node.
        node: NodeId,
    },
    /// The link leaving `node` through `port` was repaired and re-armed.
    LinkRepair {
        /// Link endpoint.
        node: NodeId,
        /// Repaired port.
        port: PortId,
    },
    /// `node` was repaired and rejoined the network.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// A killed or unroutable message was re-injected at its source by the
    /// retry policy.
    Retry {
        /// Message id (stable across attempts).
        msg: u64,
        /// Attempt number of the re-injection (first retry = 2).
        attempt: u32,
    },
    /// An injection was rejected because an endpoint was faulty at send
    /// time (a scheduled send racing a dynamic fault).
    SendRejected {
        /// Intended source.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
    },
    /// A control-plane message was sent over a link (fault/state
    /// propagation traffic).
    ControlSend {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The control plane went quiet after fault injection (E10 settling
    /// wave complete).
    ControlSettled {
        /// Cycles from the settle request until quiescence.
        cycles: u64,
    },
    /// A liveness probe (ping) or its response (pong) left `node` through
    /// `port` — detection-layer heartbeat traffic.
    Heartbeat {
        /// Probing node.
        node: NodeId,
        /// Port the probe left through.
        port: PortId,
        /// `false` = ping, `true` = pong.
        pong: bool,
    },
    /// The detector at `node` began suspecting the neighbour behind
    /// `port` after consecutive missed heartbeats.
    Suspect {
        /// Suspecting node.
        node: NodeId,
        /// Port towards the suspected neighbour.
        port: PortId,
        /// Consecutive misses when suspicion was raised.
        misses: u32,
    },
    /// Suspicion hardened into an alarm: the detector at `node` declared
    /// the link through `port` faulty and triggered reconfiguration.
    Alarm {
        /// Alarming node.
        node: NodeId,
        /// Port of the locally declared fault.
        port: PortId,
    },
    /// A control-plane message was discarded at `node` because the link
    /// through `port` was unusable (at send or at delivery time).
    ControlDrop {
        /// Endpoint where the drop happened.
        node: NodeId,
        /// Port of the unusable link at that endpoint.
        port: PortId,
    },
}

impl EventKind {
    /// Stable lowercase tag for exporters and filters.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Inject { .. } => "inject",
            EventKind::RouteDecision { .. } => "route_decision",
            EventKind::VcStall { .. } => "vc_stall",
            EventKind::VcAcquire { .. } => "vc_acquire",
            EventKind::VcRelease { .. } => "vc_release",
            EventKind::RouteWait { .. } => "route_wait",
            EventKind::Deliver { .. } => "deliver",
            EventKind::Kill { .. } => "kill",
            EventKind::Unroutable { .. } => "unroutable",
            EventKind::LinkFault { .. } => "link_fault",
            EventKind::NodeFault { .. } => "node_fault",
            EventKind::LinkRepair { .. } => "link_repair",
            EventKind::NodeRepair { .. } => "node_repair",
            EventKind::Retry { .. } => "retry",
            EventKind::SendRejected { .. } => "send_rejected",
            EventKind::ControlSend { .. } => "control_send",
            EventKind::ControlSettled { .. } => "control_settled",
            EventKind::Heartbeat { .. } => "heartbeat",
            EventKind::Suspect { .. } => "suspect",
            EventKind::Alarm { .. } => "alarm",
            EventKind::ControlDrop { .. } => "control_drop",
        }
    }

    /// The message the event is about, if any.
    pub fn msg(&self) -> Option<u64> {
        match self {
            EventKind::Inject { msg, .. }
            | EventKind::RouteDecision { msg, .. }
            | EventKind::VcStall { msg, .. }
            | EventKind::VcAcquire { msg, .. }
            | EventKind::VcRelease { msg, .. }
            | EventKind::RouteWait { msg, .. }
            | EventKind::Deliver { msg, .. }
            | EventKind::Kill { msg }
            | EventKind::Unroutable { msg }
            | EventKind::Retry { msg, .. } => Some(*msg),
            _ => None,
        }
    }

    /// The node the event happened at, if the event is node-local.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            EventKind::Inject { src, .. } => Some(*src),
            EventKind::RouteDecision { node, .. }
            | EventKind::VcStall { node, .. }
            | EventKind::VcAcquire { node, .. }
            | EventKind::VcRelease { node, .. }
            | EventKind::RouteWait { node, .. }
            | EventKind::Deliver { node, .. }
            | EventKind::LinkFault { node, .. }
            | EventKind::NodeFault { node }
            | EventKind::LinkRepair { node, .. }
            | EventKind::NodeRepair { node }
            | EventKind::Heartbeat { node, .. }
            | EventKind::Suspect { node, .. }
            | EventKind::Alarm { node, .. }
            | EventKind::ControlDrop { node, .. } => Some(*node),
            _ => None,
        }
    }
}

/// A cycle-stamped event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event occurred on.
    pub cycle: u64,
    /// The event.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Renders the event as one JSON object (no newline) — the single
    /// human-readable form of an event, streamed one per line by
    /// `ftr-trace --to-jsonl`. Nothing parses it back: FTB is the only
    /// format traces are stored in.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.num("cycle", self.cycle);
        o.str("event", self.kind.tag());
        match &self.kind {
            EventKind::Inject { msg, src, dst, len_flits } => {
                o.num("msg", *msg);
                o.num("src", src.0);
                o.num("dst", dst.0);
                o.num("len_flits", *len_flits);
            }
            EventKind::RouteDecision { node, msg, in_port, in_vc, outcome, steps, misrouted } => {
                o.num("node", node.0);
                o.num("msg", *msg);
                match in_port {
                    Some(p) => o.num("in_port", p.0),
                    None => o.field("in_port", "null"),
                };
                o.num("in_vc", in_vc.0);
                o.str("outcome", outcome.name());
                if let RouteOutcome::Routed(p, v) = outcome {
                    o.num("out_port", p.0);
                    o.num("out_vc", v.0);
                }
                o.num("steps", *steps);
                o.bool("misrouted", *misrouted);
            }
            EventKind::VcStall { node, msg, port, vc }
            | EventKind::VcAcquire { node, msg, port, vc }
            | EventKind::VcRelease { node, msg, port, vc } => {
                o.num("node", node.0);
                o.num("msg", *msg);
                o.num("port", port.0);
                o.num("vc", vc.0);
            }
            EventKind::RouteWait { node, msg, wants } => {
                o.num("node", node.0);
                o.num("msg", *msg);
                o.field(
                    "wants",
                    json::array(wants.iter().map(|(p, v)| format!("[{},{}]", p.0, v.0))),
                );
            }
            EventKind::Deliver { node, msg } => {
                o.num("node", node.0);
                o.num("msg", *msg);
            }
            EventKind::Kill { msg } | EventKind::Unroutable { msg } => {
                o.num("msg", *msg);
            }
            EventKind::LinkFault { node, port } | EventKind::LinkRepair { node, port } => {
                o.num("node", node.0);
                o.num("port", port.0);
            }
            EventKind::NodeFault { node } | EventKind::NodeRepair { node } => {
                o.num("node", node.0);
            }
            EventKind::Retry { msg, attempt } => {
                o.num("msg", *msg);
                o.num("attempt", *attempt);
            }
            EventKind::SendRejected { src, dst } => {
                o.num("src", src.0);
                o.num("dst", dst.0);
            }
            EventKind::ControlSend { from, to } => {
                o.num("from", from.0);
                o.num("to", to.0);
            }
            EventKind::ControlSettled { cycles } => {
                o.num("cycles", *cycles);
            }
            EventKind::Heartbeat { node, port, pong } => {
                o.num("node", node.0);
                o.num("port", port.0);
                o.bool("pong", *pong);
            }
            EventKind::Suspect { node, port, misses } => {
                o.num("node", node.0);
                o.num("port", port.0);
                o.num("misses", *misses);
            }
            EventKind::Alarm { node, port } | EventKind::ControlDrop { node, port } => {
                o.num("node", node.0);
                o.num("port", port.0);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn every_variant_renders_valid_json() {
        let kinds = [
            EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(5), len_flits: 4 },
            EventKind::RouteDecision {
                node: NodeId(2),
                msg: 1,
                in_port: Some(PortId(3)),
                in_vc: VcId(0),
                outcome: RouteOutcome::Routed(PortId(1), VcId(1)),
                steps: 3,
                misrouted: true,
            },
            EventKind::RouteDecision {
                node: NodeId(2),
                msg: 1,
                in_port: None,
                in_vc: VcId(0),
                outcome: RouteOutcome::Wait,
                steps: 1,
                misrouted: false,
            },
            EventKind::VcStall { node: NodeId(2), msg: 1, port: PortId(0), vc: VcId(0) },
            EventKind::VcAcquire { node: NodeId(2), msg: 1, port: PortId(0), vc: VcId(1) },
            EventKind::VcRelease { node: NodeId(2), msg: 1, port: PortId(0), vc: VcId(1) },
            EventKind::RouteWait { node: NodeId(2), msg: 1, wants: vec![] },
            EventKind::RouteWait {
                node: NodeId(2),
                msg: 1,
                wants: vec![(PortId(0), VcId(0)), (PortId(3), VcId(1))],
            },
            EventKind::Deliver { node: NodeId(5), msg: 1 },
            EventKind::Kill { msg: 1 },
            EventKind::Unroutable { msg: 1 },
            EventKind::LinkFault { node: NodeId(1), port: PortId(2) },
            EventKind::NodeFault { node: NodeId(1) },
            EventKind::LinkRepair { node: NodeId(1), port: PortId(2) },
            EventKind::NodeRepair { node: NodeId(1) },
            EventKind::Retry { msg: 1, attempt: 2 },
            EventKind::SendRejected { src: NodeId(3), dst: NodeId(4) },
            EventKind::ControlSend { from: NodeId(1), to: NodeId(2) },
            EventKind::ControlSettled { cycles: 9 },
            EventKind::Heartbeat { node: NodeId(1), port: PortId(2), pong: false },
            EventKind::Heartbeat { node: NodeId(2), port: PortId(0), pong: true },
            EventKind::Suspect { node: NodeId(1), port: PortId(2), misses: 3 },
            EventKind::Alarm { node: NodeId(1), port: PortId(2) },
            EventKind::ControlDrop { node: NodeId(1), port: PortId(2) },
        ];
        for kind in kinds {
            let ev = TraceEvent { cycle: 7, kind };
            let j = ev.to_json();
            assert!(validate(&j).is_ok(), "invalid json: {j}");
            assert!(j.contains(&format!("\"event\":\"{}\"", ev.kind.tag())), "{j}");
        }
    }
}

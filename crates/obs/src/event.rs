//! Typed, cycle-stamped trace events.
//!
//! Every event the simulator, router and control plane can emit is a
//! variant of [`EventKind`]; a [`TraceEvent`] stamps it with the cycle it
//! happened on. Message ids are plain `u64` (the simulator's `MessageId`
//! newtype lives above this crate in the dependency graph).
//!
//! The `events!` table below is the schema: per kind, its FTB opcode, tag,
//! variant and fields in wire order. The enum, [`EventKind::tag`], the FTB
//! field codec and the JSON view of [`TraceEvent::to_json`] come from it,
//! each field through the one `Field` codec of its type.

use crate::ftb::{put_varint, read_u8, read_varint, ReadError};
use crate::json::{self, Obj};
use ftr_topo::{NodeId, PortId, VcId};
use std::io::Read;

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

/// One field type's codec: its FTB bytes, read back, and its JSON
/// rendering under the field's name (which also labels a malformed value).
pub(crate) trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError>;
    fn json(&self, o: &mut Obj, name: &str);
}

/// A LEB128 varint.
impl Field for u64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    #[inline]
    fn read<R: Read>(r: &mut R, _: &str) -> Result<Self, ReadError> {
        read_varint(r)
    }
    fn json(&self, o: &mut Obj, name: &str) {
        o.num(name, *self);
    }
}

/// A varint that must fit 32 bits.
impl Field for u32 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        u64::from(*self).put(out);
    }
    #[inline]
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
        let v = read_varint(r)?;
        Ok(u32::try_from(v).map_err(|_| format!("`{name}` {v} out of u32 range"))?)
    }
    fn json(&self, o: &mut Obj, name: &str) {
        o.num(name, *self);
    }
}

/// One raw byte.
impl Field for u8 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn read<R: Read>(r: &mut R, _: &str) -> Result<Self, ReadError> {
        read_u8(r)
    }
    fn json(&self, o: &mut Obj, name: &str) {
        o.num(name, *self);
    }
}

/// One byte, 0 or 1.
impl Field for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
        match read_u8(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad `{name}` byte {b}").into()),
        }
    }
    fn json(&self, o: &mut Obj, name: &str) {
        o.bool(name, *self);
    }
}

/// Ids are coded as the integer they wrap: a node id as a `u32`
/// varint, a port or virtual channel as one byte.
macro_rules! id_fields {
    ($($id:ident($int:ty)),*) => {$(
        impl Field for $id {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            #[inline]
            fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
                Ok($id(<$int>::read(r, name)?))
            }
            fn json(&self, o: &mut Obj, name: &str) {
                self.0.json(o, name);
            }
        }
    )*};
}

id_fields!(NodeId(u32), PortId(u8), VcId(u8));

/// A presence byte (0 absent, 1 present), then the value; JSON `null`
/// when absent.
impl<T: Field> Field for Option<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    #[inline]
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
        match read_u8(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r, name)?)),
            b => Err(format!("bad `{name}` presence byte {b}").into()),
        }
    }
    fn json(&self, o: &mut Obj, name: &str) {
        if let Some(v) = self {
            v.json(o, name);
        } else {
            o.field(name, "null");
        }
    }
}

/// A verdict byte (0 routed, 1 wait, 2 deliver, 3 unroutable); a grant
/// carries its channel as `out_port`, `out_vc`.
impl Field for RouteOutcome {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RouteOutcome::Routed(p, v) => out.extend([0, p.0, v.0]),
            RouteOutcome::Wait => out.push(1),
            RouteOutcome::Deliver => out.push(2),
            RouteOutcome::Unroutable => out.push(3),
        }
    }
    #[inline]
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
        Ok(match read_u8(r)? {
            0 => RouteOutcome::Routed(Field::read(r, "out_port")?, Field::read(r, "out_vc")?),
            1 => RouteOutcome::Wait,
            2 => RouteOutcome::Deliver,
            3 => RouteOutcome::Unroutable,
            b => return Err(format!("bad `{name}` byte {b}").into()),
        })
    }
    fn json(&self, o: &mut Obj, name: &str) {
        let verdict = match self {
            RouteOutcome::Routed(..) => "routed",
            RouteOutcome::Wait => "wait",
            RouteOutcome::Deliver => "deliver",
            RouteOutcome::Unroutable => "unroutable",
        };
        o.str(name, verdict);
        if let RouteOutcome::Routed(p, v) = self {
            p.json(o, "out_port");
            v.json(o, "out_vc");
        }
    }
}

/// A varint count, then `(port, vc)` byte pairs; JSON `[[port,vc],…]`.
impl Field for Vec<(PortId, VcId)> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (p, v) in self {
            out.extend([p.0, v.0]);
        }
    }
    #[inline]
    fn read<R: Read>(r: &mut R, name: &str) -> Result<Self, ReadError> {
        let len = read_varint(r)?;
        if len > 1 << 16 {
            return Err(format!("`{name}` list of {len} entries is implausible").into());
        }
        (0..len).map(|_| Ok((Field::read(r, name)?, Field::read(r, name)?))).collect()
    }
    fn json(&self, o: &mut Obj, name: &str) {
        o.field(name, json::array(self.iter().map(|(p, v)| format!("[{},{}]", p.0, v.0))));
    }
}

/// Declares the event schema: per kind, `opcode "tag" Variant { fields }`
/// with the fields in wire order (which is also their JSON order). A
/// repeated opcode is an unreachable pattern in `read_fields`.
macro_rules! events {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$doc:meta])* $op:literal $tag:literal $kind:ident {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
        },)*
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$doc])* $kind { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl $name {
            /// Stable lowercase tag for exporters and filters.
            pub fn tag(&self) -> &'static str {
                match self {
                    $($name::$kind { .. } => $tag,)*
                }
            }

            /// The FTB opcode.
            #[inline]
            pub(crate) fn opcode(&self) -> u8 {
                match self {
                    $($name::$kind { .. } => $op,)*
                }
            }

            /// Appends the fields in wire order.
            #[inline]
            pub(crate) fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$kind { $($field),* } => { $($field.put(out);)* })*
                }
            }

            /// Reads the fields of the kind with opcode `op`.
            #[inline]
            pub(crate) fn read_fields(op: u8, r: &mut impl Read) -> Result<Self, ReadError> {
                Ok(match op {
                    $($op => $name::$kind { $($field: Field::read(r, stringify!($field))?,)* },)*
                    _ => return Err(format!("unknown FTB opcode {op:#04x}").into()),
                })
            }

            /// Adds every field to `o` under its own name.
            fn json_fields(&self, o: &mut Obj) {
                match self {
                    $($name::$kind { $($field),* } => { $($field.json(o, stringify!($field));)* })*
                }
            }
        }
    };
}

events! {
    /// One observable occurrence inside the simulated network.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum EventKind {
        /// A message entered the network at its source.
        1 "inject" Inject {
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
        2 "route_decision" RouteDecision {
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
        3 "vc_stall" VcStall {
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
        4 "vc_acquire" VcAcquire {
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
        5 "vc_release" VcRelease {
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
        6 "route_wait" RouteWait {
            /// Blocking node.
            node: NodeId,
            /// Message id.
            msg: u64,
            /// Acceptable output channels `(port, vc)` this cycle.
            wants: Vec<(PortId, VcId)>,
        },
        /// Tail flit ejected: the message is fully delivered.
        7 "deliver" Deliver {
            /// Destination node.
            node: NodeId,
            /// Message id.
            msg: u64,
        },
        /// The message was ripped by a dynamic fault and removed network-wide.
        8 "kill" Kill {
            /// Message id.
            msg: u64,
        },
        /// The algorithm declared the message unroutable; it was removed.
        9 "unroutable" Unroutable {
            /// Message id.
            msg: u64,
        },
        /// The link leaving `node` through `port` failed.
        10 "link_fault" LinkFault {
            /// Link endpoint.
            node: NodeId,
            /// Failed port.
            port: PortId,
        },
        /// `node` failed.
        11 "node_fault" NodeFault {
            /// The failed node.
            node: NodeId,
        },
        /// The link leaving `node` through `port` was repaired and re-armed.
        12 "link_repair" LinkRepair {
            /// Link endpoint.
            node: NodeId,
            /// Repaired port.
            port: PortId,
        },
        /// `node` was repaired and rejoined the network.
        13 "node_repair" NodeRepair {
            /// The repaired node.
            node: NodeId,
        },
        /// A killed or unroutable message was re-injected at its source by the
        /// retry policy.
        14 "retry" Retry {
            /// Message id (stable across attempts).
            msg: u64,
            /// Attempt number of the re-injection (first retry = 2).
            attempt: u32,
        },
        /// An injection was rejected because an endpoint was faulty at send
        /// time (a scheduled send racing a dynamic fault).
        15 "send_rejected" SendRejected {
            /// Intended source.
            src: NodeId,
            /// Intended destination.
            dst: NodeId,
        },
        /// A control-plane message was sent over a link (fault/state
        /// propagation traffic).
        16 "control_send" ControlSend {
            /// Sender.
            from: NodeId,
            /// Receiver.
            to: NodeId,
        },
        /// The control plane went quiet after fault injection (E10 settling
        /// wave complete).
        17 "control_settled" ControlSettled {
            /// Cycles from the settle request until quiescence.
            cycles: u64,
        },
        /// A liveness probe (ping) or its response (pong) left `node` through
        /// `port` — detection-layer heartbeat traffic.
        18 "heartbeat" Heartbeat {
            /// Probing node.
            node: NodeId,
            /// Port the probe left through.
            port: PortId,
            /// `false` = ping, `true` = pong.
            pong: bool,
        },
        /// The detector at `node` began suspecting the neighbour behind
        /// `port` after consecutive missed heartbeats.
        19 "suspect" Suspect {
            /// Suspecting node.
            node: NodeId,
            /// Port towards the suspected neighbour.
            port: PortId,
            /// Consecutive misses when suspicion was raised.
            misses: u32,
        },
        /// Suspicion hardened into an alarm: the detector at `node` declared
        /// the link through `port` faulty and triggered reconfiguration.
        20 "alarm" Alarm {
            /// Alarming node.
            node: NodeId,
            /// Port of the locally declared fault.
            port: PortId,
        },
        /// A control-plane message was discarded at `node` because the link
        /// through `port` was unusable (at send or at delivery time).
        21 "control_drop" ControlDrop {
            /// Endpoint where the drop happened.
            node: NodeId,
            /// Port of the unusable link at that endpoint.
            port: PortId,
        },
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
        self.kind.json_fields(&mut o);
        o.finish()
    }
}

//! Flits and message headers.
//!
//! Wormhole switching (§2.2): "every message in the network is divided into
//! flits (flow control units) transmitted in a pipelined fashion". Only the
//! head flit carries routing information; body and tail flits follow the
//! path the head reserved. So a [`Flit`] is only its message id and two
//! bits, and the network keeps each message's [`Header`] once, beside the
//! flits, for the head to be routed by.

use ftr_topo::NodeId;
use std::num::NonZeroU64;

/// Unique message identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// Routing information of a message, read and written when its head flit
/// is routed. The message interface of the rule-based router can *modify*
/// headers in flight (§3 "Lifelock Avoidance": messages on non-minimal
/// paths due to faults are marked and treated exceptionally), so the fields
/// here are mutable state, not immutable metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Message id.
    pub msg: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total length in flits (head + body + tail).
    pub len_flits: u32,
    /// Set when the message was forced off a minimal path by faults.
    pub misrouted: bool,
    /// Hops taken so far (path-length counter for livelock control).
    pub hops: u32,
    /// Virtual-network tag (e.g. NAFTA's north-last / south-last choice).
    pub vnet: u8,
    /// Algorithm phase (e.g. ROUTE_C's increasing/decreasing coordinate
    /// phases).
    pub phase: u8,
}

impl Header {
    /// Creates a fresh header for an injected message.
    pub fn new(msg: MessageId, src: NodeId, dst: NodeId, len_flits: u32) -> Self {
        Header { msg, src, dst, len_flits, misrouted: false, hops: 0, vnet: 0, phase: 0 }
    }
}

/// Always set, so a flit is never zero and `Option<(VcId, Flit)>` needs
/// no tag of its own.
const PRESENT: u64 = 1 << 63;
const HEAD: u64 = 1 << 62;
const CLOSES: u64 = 1 << 61;

/// One flow-control unit: the owning message's id, whether this is the
/// head flit, and whether it closes the worm (a tail, or the head of a
/// single-flit message).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Flit(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Flit>() == 8);
const _: () = assert!(std::mem::size_of::<Option<(ftr_topo::VcId, Flit)>>() <= 16);

impl Flit {
    /// Largest message id a flit can carry.
    const MAX_MSG: u64 = CLOSES - 1;

    /// Packs one flit of message `msg`.
    pub const fn new(msg: MessageId, head: bool, closes: bool) -> Self {
        assert!(msg.0 <= Self::MAX_MSG, "message id does not fit in a flit");
        let bits = PRESENT | msg.0 | if head { HEAD } else { 0 } | if closes { CLOSES } else { 0 };
        Flit(NonZeroU64::new(bits).expect("the PRESENT bit is set"))
    }

    /// The flits of a whole message, head first. A 1-flit message is a
    /// single head flit that also closes the worm.
    pub fn sequence(header: Header) -> impl ExactSizeIterator<Item = Flit> {
        let (msg, n) = (header.msg, header.len_flits.max(1));
        (0..n).map(move |i| Flit::new(msg, i == 0, i == n - 1))
    }

    /// The owning message.
    #[inline]
    pub fn msg(self) -> MessageId {
        MessageId(self.0.get() & Self::MAX_MSG)
    }

    /// True for the head flit, the one routed by its message's header.
    #[inline]
    pub fn is_head(self) -> bool {
        self.0.get() & HEAD != 0
    }

    /// True for the flit that closes its worm and releases the channels
    /// behind it.
    #[inline]
    pub fn closes_worm(self) -> bool {
        self.0.get() & CLOSES != 0
    }
}

impl std::fmt::Debug for Flit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flit")
            .field("msg", &self.msg().0)
            .field("head", &self.is_head())
            .field("closes", &self.closes_worm())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_up_to_the_largest_id() {
        for id in [0, 1, 7, 1 << 40, Flit::MAX_MSG] {
            for (head, closes) in [(false, false), (true, false), (false, true), (true, true)] {
                let f = Flit::new(MessageId(id), head, closes);
                assert_eq!((f.msg(), f.is_head(), f.closes_worm()), (MessageId(id), head, closes));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_id_past_the_largest_is_refused() {
        Flit::new(MessageId(Flit::MAX_MSG + 1), true, false);
    }

    #[test]
    fn single_flit_message() {
        let h = Header::new(MessageId(2), NodeId(1), NodeId(2), 1);
        let seq: Vec<Flit> = Flit::sequence(h).collect();
        assert_eq!(seq, [Flit::new(MessageId(2), true, true)]);
    }

    #[test]
    fn sequence_structure() {
        for len in [1u32, 2, 8] {
            let h = Header::new(MessageId(9), NodeId(0), NodeId(5), len);
            let seq: Vec<Flit> = Flit::sequence(h).collect();
            assert_eq!(seq.len(), len as usize);
            for (i, f) in seq.iter().enumerate() {
                assert_eq!(f.msg(), MessageId(9));
                assert_eq!(f.is_head(), i == 0, "flit {i} of {len}");
                assert_eq!(f.closes_worm(), i + 1 == len as usize, "flit {i} of {len}");
            }
        }
    }
}

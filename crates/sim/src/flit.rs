//! Flits and message headers.
//!
//! Wormhole switching (§2.2): "every message in the network is divided into
//! flits (flow control units) transmitted in a pipelined fashion". Only the
//! head flit carries routing information; body/tail flits follow the path
//! the head reserved.

use ftr_topo::NodeId;

/// Unique message identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// Routing information carried in the head flit. The message interface of
/// the rule-based router can *modify* headers in flight (§3 "Lifelock
/// Avoidance": messages on non-minimal paths due to faults are marked and
/// treated exceptionally), so the fields here are mutable state, not
/// immutable metadata.
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

/// Flit payload kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlitKind {
    /// Head flit carrying the header.
    Head(Header),
    /// Body flit.
    Body,
    /// Tail flit (releases channel state as it passes).
    Tail,
}

/// One flow-control unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Kind (head carries the header).
    pub kind: FlitKind,
    /// Owning message.
    pub msg: MessageId,
    /// Sequence number within the message (0 = head).
    pub seq: u32,
}

impl Flit {
    /// Builds the flit sequence of a whole message. A 1-flit message is a
    /// single head flit that also acts as tail.
    pub fn sequence(header: Header) -> Vec<Flit> {
        let n = header.len_flits.max(1);
        (0..n)
            .map(|seq| {
                let kind = if seq == 0 {
                    FlitKind::Head(header)
                } else if seq == n - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                };
                Flit { kind, msg: header.msg, seq }
            })
            .collect()
    }

    /// True for the last flit of its message (head-only messages included).
    pub fn is_tail(&self, len_flits: u32) -> bool {
        self.seq + 1 == len_flits.max(1)
    }

    /// The header if this is a head flit.
    pub fn header(&self) -> Option<&Header> {
        match &self.kind {
            FlitKind::Head(h) => Some(h),
            _ => None,
        }
    }

    /// Mutable header access for the message interface.
    pub fn header_mut(&mut self) -> Option<&mut Header> {
        match &mut self.kind {
            FlitKind::Head(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_structure() {
        let h = Header::new(MessageId(1), NodeId(0), NodeId(5), 4);
        let seq = Flit::sequence(h);
        assert_eq!(seq.len(), 4);
        assert!(matches!(seq[0].kind, FlitKind::Head(_)));
        assert!(matches!(seq[1].kind, FlitKind::Body));
        assert!(matches!(seq[2].kind, FlitKind::Body));
        assert!(matches!(seq[3].kind, FlitKind::Tail));
        assert!(seq[3].is_tail(4));
        assert!(!seq[0].is_tail(4));
    }

    #[test]
    fn single_flit_message() {
        let h = Header::new(MessageId(2), NodeId(1), NodeId(2), 1);
        let seq = Flit::sequence(h);
        assert_eq!(seq.len(), 1);
        assert!(matches!(seq[0].kind, FlitKind::Head(_)));
        assert!(seq[0].is_tail(1));
    }

    #[test]
    fn header_mutation_through_flit() {
        let h = Header::new(MessageId(3), NodeId(0), NodeId(9), 2);
        let mut seq = Flit::sequence(h);
        seq[0].header_mut().unwrap().misrouted = true;
        seq[0].header_mut().unwrap().hops = 7;
        let hh = seq[0].header().unwrap();
        assert!(hh.misrouted);
        assert_eq!(hh.hops, 7);
        assert!(seq[1].header().is_none());
    }
}

//! Simulation statistics: latency, throughput, routing-decision overhead.

use crate::flit::MessageId;
pub use ftr_obs::Accum;
use ftr_topo::NodeId;
use std::collections::HashMap;

/// Per-message bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgMeta {
    /// Cycle the message was handed to the source node (the *first*
    /// attempt when the retry policy re-injects — end-to-end latency spans
    /// all attempts).
    pub inject_cycle: u64,
    /// Source node (needed to re-inject on retry).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len_flits: u32,
    /// Whether it belongs to the measurement window.
    pub measured: bool,
    /// Hops recorded when the head arrived (set at delivery).
    pub hops: u32,
    /// Minimal distance in the fault-free topology (dilation baseline).
    pub min_dist: u32,
    /// Injection attempts so far (1 = original injection).
    pub attempts: u32,
}

/// Aggregated results of one simulation.
///
/// `PartialEq` compares every field including the in-flight bookkeeping —
/// the lockstep differential tests use it to prove the active-set and
/// dense-scan step paths bit-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Messages handed to source nodes.
    pub injected_msgs: u64,
    /// Messages fully delivered (tail ejected).
    pub delivered_msgs: u64,
    /// Measured messages delivered.
    pub measured_delivered: u64,
    /// Flits of measured messages delivered.
    pub measured_flits: u64,
    /// Messages killed by dynamic faults (ripped worms).
    pub killed_msgs: u64,
    /// Messages the algorithm declared unroutable (condition-3 violations).
    pub unroutable_msgs: u64,
    /// Re-injections performed by the retry policy (attempt-level count; a
    /// message retried twice contributes 2).
    pub retried_msgs: u64,
    /// Messages the retry policy gave up on (attempts exhausted or an
    /// endpoint dead at retry time). Every abandoned message is also
    /// counted in `killed_msgs`/`unroutable_msgs` by its final cause.
    pub abandoned_msgs: u64,
    /// Injections rejected at `send` because an endpoint was faulty (never
    /// entered the network; excluded from `injected_msgs`).
    pub rejected_sends: u64,
    /// Flits of still-live messages caught in the output register of a
    /// link that died without the fault injector ripping their worm. Each
    /// such message is killed through the normal kill path (counted in
    /// `killed_msgs`, `Kill` trace event) instead of leaking; a non-zero
    /// value flags a fault injector that missed a worm.
    pub flits_dropped_on_dead_link: u64,
    /// Latency of measured messages (inject → tail ejected), cycles.
    pub latency: Accum,
    /// Hops of measured messages.
    pub hops: Accum,
    /// Path dilation numerator: sum of (hops - min_dist) over measured.
    pub excess_hops: u64,
    /// Latency of measured messages that stayed on a minimal path.
    pub latency_direct: Accum,
    /// Latency of measured messages that were detoured (hops > minimal).
    pub latency_detoured: Accum,
    /// Rule-interpretation steps per routing decision.
    pub decision_steps: Accum,
    /// Control-plane messages exchanged (fault propagation traffic).
    pub control_msgs: u64,
    /// Control-plane messages discarded on unusable links — at send time
    /// or between send and their next-cycle delivery.
    pub control_dropped: u64,
    /// Deadlock detected by the watchdog.
    pub deadlock: bool,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Number of nodes (for throughput normalisation).
    pub num_nodes: usize,
    /// Per-message bookkeeping (in flight and historical).
    meta: HashMap<MessageId, MsgMeta>,
}

impl SimStats {
    /// Fresh stats for a network of `num_nodes` nodes.
    pub fn for_nodes(num_nodes: usize) -> Self {
        SimStats { num_nodes, ..Default::default() }
    }

    /// Registers an injected message.
    pub fn on_inject(&mut self, id: MessageId, meta: MsgMeta) {
        self.injected_msgs += 1;
        self.meta.insert(id, meta);
    }

    /// Records the hop count observed when a head flit reaches its
    /// destination.
    pub fn on_head_arrival(&mut self, id: MessageId, hops: u32) {
        if let Some(m) = self.meta.get_mut(&id) {
            m.hops = hops;
        }
    }

    /// Registers a completed delivery (tail ejected) at `cycle`.
    pub fn on_deliver(&mut self, id: MessageId, cycle: u64) {
        self.delivered_msgs += 1;
        if let Some(m) = self.meta.remove(&id) {
            if m.measured {
                self.measured_delivered += 1;
                self.measured_flits += m.len_flits as u64;
                let lat = cycle - m.inject_cycle;
                self.latency.add(lat);
                if m.hops > m.min_dist {
                    self.latency_detoured.add(lat);
                } else {
                    self.latency_direct.add(lat);
                }
                self.hops.add(m.hops as u64);
                self.excess_hops += (m.hops.saturating_sub(m.min_dist)) as u64;
            }
        }
    }

    /// Registers a killed message.
    pub fn on_kill(&mut self, id: MessageId) {
        self.killed_msgs += 1;
        self.meta.remove(&id);
    }

    /// Registers a retry re-injection: the message stays in flight (same
    /// id, same first-attempt `inject_cycle`) with one more attempt on its
    /// ledger.
    pub fn on_retry(&mut self, id: MessageId) {
        self.retried_msgs += 1;
        if let Some(m) = self.meta.get_mut(&id) {
            m.attempts += 1;
        }
    }

    /// Bookkeeping of an in-flight message (None once terminated).
    pub fn meta(&self, id: MessageId) -> Option<&MsgMeta> {
        self.meta.get(&id)
    }

    /// Registers an unroutable message.
    pub fn on_unroutable(&mut self, id: MessageId) {
        self.unroutable_msgs += 1;
        self.meta.remove(&id);
    }

    /// Messages injected but not yet delivered/killed.
    pub fn in_flight(&self) -> usize {
        self.meta.len()
    }

    /// Messages that terminated (delivered, killed, or unroutable).
    pub fn terminated(&self) -> u64 {
        self.delivered_msgs + self.killed_msgs + self.unroutable_msgs
    }

    /// The conservation invariant every simulation must maintain:
    /// `delivered + killed + unroutable + in_flight == injected`.
    /// A violation means a message leaked or was double-counted.
    pub fn accounting_balanced(&self) -> bool {
        self.terminated() + self.in_flight() as u64 == self.injected_msgs
    }

    /// True while a message is still tracked (injected, not terminated).
    pub fn tracks(&self, id: MessageId) -> bool {
        self.meta.contains_key(&id)
    }

    /// Accepted throughput in flits/node/cycle over the measurement window.
    pub fn throughput(&self) -> f64 {
        if self.measured_cycles == 0 || self.num_nodes == 0 {
            0.0
        } else {
            self.measured_flits as f64 / (self.measured_cycles as f64 * self.num_nodes as f64)
        }
    }

    /// Mean path dilation in extra hops per measured message.
    pub fn mean_excess_hops(&self) -> f64 {
        if self.hops.count == 0 {
            0.0
        } else {
            self.excess_hops as f64 / self.hops.count as f64
        }
    }

    /// Fraction of injected messages eventually delivered (of those that
    /// terminated).
    pub fn delivery_ratio(&self) -> f64 {
        let done = self.delivered_msgs + self.killed_msgs + self.unroutable_msgs;
        if done == 0 {
            0.0
        } else {
            self.delivered_msgs as f64 / done as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_basics() {
        let mut a = Accum::default();
        assert_eq!(a.mean(), 0.0);
        a.add(10);
        a.add(20);
        a.add(3);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 3);
        assert_eq!(a.max, 20);
        assert!((a.mean() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_accounting() {
        let mut s = SimStats { num_nodes: 4, measured_cycles: 100, ..Default::default() };
        let meta = MsgMeta {
            inject_cycle: 5,
            src: NodeId(0),
            dst: NodeId(3),
            len_flits: 4,
            measured: true,
            hops: 0,
            min_dist: 2,
            attempts: 1,
        };
        s.on_inject(MessageId(1), meta);
        s.on_inject(MessageId(2), meta);
        s.on_inject(MessageId(3), meta);
        assert_eq!(s.in_flight(), 3);
        s.on_head_arrival(MessageId(1), 3);
        s.on_deliver(MessageId(1), 25);
        s.on_kill(MessageId(2));
        s.on_unroutable(MessageId(3));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.latency.mean(), 20.0);
        assert_eq!(s.excess_hops, 1);
        assert!((s.delivery_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.throughput() - 4.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn accounting_invariant_holds_through_lifecycle() {
        let mut s = SimStats::default();
        let meta = MsgMeta {
            inject_cycle: 0,
            src: NodeId(0),
            dst: NodeId(1),
            len_flits: 1,
            measured: false,
            hops: 0,
            min_dist: 1,
            attempts: 1,
        };
        assert!(s.accounting_balanced(), "empty stats balance");
        for i in 0..4 {
            s.on_inject(MessageId(i), meta);
            assert!(s.accounting_balanced(), "after inject {i}");
        }
        s.on_deliver(MessageId(0), 10);
        assert!(s.accounting_balanced());
        s.on_kill(MessageId(1));
        assert!(s.accounting_balanced());
        s.on_unroutable(MessageId(2));
        assert!(s.accounting_balanced());
        assert_eq!(s.terminated(), 3);
        assert_eq!(s.in_flight(), 1);
        // a double-termination would break the balance
        s.on_kill(MessageId(0));
        assert!(!s.accounting_balanced(), "double-count must be visible");
    }

    #[test]
    fn unmeasured_messages_skip_latency() {
        let mut s = SimStats::default();
        s.on_inject(
            MessageId(9),
            MsgMeta {
                inject_cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                len_flits: 4,
                measured: false,
                hops: 0,
                min_dist: 1,
                attempts: 1,
            },
        );
        s.on_deliver(MessageId(9), 50);
        assert_eq!(s.delivered_msgs, 1);
        assert_eq!(s.measured_delivered, 0);
        assert_eq!(s.latency.count, 0);
    }

    #[test]
    fn retry_keeps_message_in_flight_and_latency_spans_attempts() {
        let mut s = SimStats::default();
        s.on_inject(
            MessageId(1),
            MsgMeta {
                inject_cycle: 10,
                src: NodeId(0),
                dst: NodeId(5),
                len_flits: 4,
                measured: true,
                hops: 0,
                min_dist: 2,
                attempts: 1,
            },
        );
        // worm ripped, retry scheduled: no termination, accounting still balanced
        s.on_retry(MessageId(1));
        assert!(s.accounting_balanced());
        assert_eq!(s.retried_msgs, 1);
        assert_eq!(s.meta(MessageId(1)).unwrap().attempts, 2);
        assert_eq!(s.in_flight(), 1);
        // delivered on the second attempt: latency runs from the FIRST inject
        s.on_head_arrival(MessageId(1), 2);
        s.on_deliver(MessageId(1), 110);
        assert_eq!(s.latency.mean(), 100.0);
        assert!(s.accounting_balanced());
        assert_eq!(s.delivery_ratio(), 1.0);
    }
}

//! One simulated cycle: [`Network::step`], the phase fan-out over the
//! shards, and the barriers that merge what the shards produced.

use super::control::ControlDelivery;
use super::phases::{run_shard, PhaseKind, ShardTask, StatOp, StepCtx};
use super::{mark_active, Network};
use crate::flit::MessageId;
use std::collections::HashSet;

/// How often (in cycles) per-node buffer occupancy is sampled into the
/// metrics registry when one is attached.
const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

/// Reusable per-cycle scratch buffers of the master loop.
///
/// Every phase of [`Network::step`] used to heap-allocate fresh working
/// storage each cycle; keeping the buffers on the network and clearing
/// instead of dropping makes the per-cycle fixed cost allocation-free.
/// Per-shard working storage lives in `ShardScratch`.
#[derive(Default)]
pub(super) struct StepScratch {
    /// The working set at step entry (node indices, ascending).
    cur: Vec<u32>,
    /// `cur` plus nodes activated by this cycle's link traversal.
    cur_ext: Vec<u32>,
    /// Messages to kill at the current barrier (caught on a just-dead
    /// link, or declared unroutable by this cycle's routing decisions).
    doomed: HashSet<MessageId>,
    /// Control deliveries due this cycle.
    pub(super) due: Vec<ControlDelivery>,
}

impl Network {
    /// Advances the network one cycle.
    ///
    /// Every phase iterates the *active set* — the nodes holding staged,
    /// buffered or in-register flits — instead of dense-scanning the whole
    /// topology — and the routing phase consults a controller only for
    /// heads whose answer can have changed; see `DESIGN.md` §12 for the
    /// activation and parked-lane invariants. The retained dense, polling
    /// scan ([`Network::set_dense_reference`]) is observably identical and
    /// serves as the differential-testing oracle. With more
    /// than one shard the phases run in parallel over disjoint node ranges
    /// and the cross-shard effects merge at conservative barriers, in
    /// shard order — bit-identical to the sequential engine (`DESIGN.md`
    /// §14).
    pub fn step(&mut self) {
        // 0. scripted fault-plan actions and due retry re-injections
        self.run_plan();
        self.run_retries();

        // periodic buffer-occupancy sampling (only when metrics attached);
        // cycle 0 — before any traffic can have entered the network — is
        // skipped so short runs don't skew the histogram's low bins with a
        // guaranteed all-zero sample per node
        if let Some(m) = &self.metrics {
            if self.cycle != 0 && self.cycle.is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
                for ni in 0..self.chans.geo().nodes {
                    m.buffer_occupancy.observe(self.chans.buffered_flits(ni) as u64);
                }
            }
        }

        // 1. the control plane: periodic tick, then the deliveries due
        self.run_tick();
        self.deliver_control();

        // the cycle's working set: ascending node order matches the dense
        // scan, so phase iteration order — and thus arbitration and the
        // trace-event stream — is independent of activation history
        let mut cur = std::mem::take(&mut self.scratch.cur);
        if self.dense_reference {
            cur.extend(0..self.chans.geo().nodes as u32);
        } else {
            self.active_list.sort_unstable();
            cur.append(&mut self.active_list);
        }
        for scr in &mut self.shard_scratch {
            scr.moved = false;
        }

        // 2. link traversal: output registers -> downstream input FIFOs
        // (cross-shard arrivals park in the handoff queues and apply at
        // the barrier, in shard order = ascending sender order)
        self.run_phase(PhaseKind::Link, &cur, &cur);
        self.apply_handoffs_and_marks();
        self.merge_dropped_and_kill();

        // nodes that received their first flit during link traversal must
        // route and arbitrate it THIS cycle, exactly as the dense scan does
        let mut cur_ext = std::mem::take(&mut self.scratch.cur_ext);
        cur_ext.extend_from_slice(&cur);
        if !self.dense_reference && !self.active_list.is_empty() {
            cur_ext.append(&mut self.active_list);
            cur_ext.sort_unstable();
        }

        // 3. injection (staging -> injection FIFO) + 4. routing decisions;
        // both touch only node-local state, so they fuse into one parallel
        // phase — injection over `cur`, routing over `cur_ext`
        self.run_phase(PhaseKind::InjectRoute, &cur, &cur_ext);
        self.flush_shards();
        self.merge_unroutable_and_kill();

        // 5. ejection + switch allocation
        self.run_phase(PhaseKind::EjectSwitch, &cur, &cur_ext);
        self.flush_shards();
        self.apply_credit_returns();

        let moved = self.shard_scratch.iter().any(|s| s.moved);

        // 6. watchdog (messages waiting out a retry backoff are in flight
        // but legitimately motionless — not a deadlock)
        if moved {
            self.last_move = self.cycle;
        } else if self.in_flight() > self.retries.len()
            && self.cycle - self.last_move >= self.cfg.deadlock_threshold
        {
            self.stats.deadlock = true;
        }
        self.last_moved = moved;

        // prune the active set: drop nodes whose work drained (delivered,
        // killed, or every flit handed downstream). A node only re-enters
        // through mark_active, so mask ⟺ list ⟺ has-work holds at every
        // cycle boundary. The dense path rebuilds the bookkeeping exactly,
        // keeping mode switches safe at any boundary.
        if self.dense_reference {
            // the dense scan ignores marks made during the step (send,
            // link arrivals); its working set covers every node, so the
            // rebuild below recreates mask and list from scratch
            self.active_list.clear();
        }
        debug_assert!(self.active_list.is_empty());
        for &ni in &cur_ext {
            let ni = ni as usize;
            let w = self.chans.has_work(ni);
            self.active_mask[ni] = w;
            if w {
                self.active_list.push(ni as u32);
            }
        }
        cur.clear();
        self.scratch.cur = cur;
        cur_ext.clear();
        self.scratch.cur_ext = cur_ext;

        self.cycle += 1;
    }

    /// Runs one phase over every shard — inline when the working set is
    /// small (or there is a single shard), on scoped OS threads otherwise.
    /// Shards only touch their own node range; anything that crosses a
    /// boundary lands in the shard's scratch for the master to merge. The
    /// tasks are cut from the arena as they run or spawn: no allocation.
    fn run_phase(&mut self, phase: PhaseKind, cur: &[u32], cur_ext: &[u32]) {
        let ctx = &StepCtx {
            wiring: &self.wiring,
            cfg: self.cfg,
            vcs: self.vcs,
            degree: self.chans.geo().degree,
            cycle: self.cycle,
            sink_on: self.sink.is_some(),
            poll_waits: self.dense_reference,
        };
        let mut ctrls = self.ctrls.as_mut_slice();
        let mut tasks = self
            .chans
            .split_mut(&self.shard_bounds)
            .zip(self.shard_scratch.iter_mut())
            .zip(self.shard_bounds.windows(2))
            .map(|((ch, scr), w)| {
                let (lo, hi) = (w[0], w[1]);
                let (head, rest) = std::mem::take(&mut ctrls).split_at_mut(hi - lo);
                ctrls = rest;
                let (cur, cur_ext) = (sub_range(cur, lo, hi), sub_range(cur_ext, lo, hi));
                ShardTask { lo, hi, ch, ctrls: head, scr, cur, cur_ext }
            });
        if self.shard_bounds.len() > 2 && cur_ext.len() >= self.cfg.spawn_threshold {
            crossbeam::thread::scope(|s| {
                let mut first = tasks.next().expect("at least one shard");
                for mut t in tasks {
                    s.spawn(move |_| run_shard(ctx, phase, &mut t));
                }
                run_shard(ctx, phase, &mut first);
            })
            .expect("simulation shard panicked");
        } else {
            tasks.for_each(|mut t| run_shard(ctx, phase, &mut t));
        }
    }

    /// Barrier after link traversal: applies cross-shard flit handoffs and
    /// activation marks, in shard order (= ascending sender order, which
    /// is what the sequential scan produced).
    fn apply_handoffs_and_marks(&mut self) {
        let Network { chans, shard_scratch, active_mask, active_list, .. } = self;
        let mut ch = chans.full_mut();
        for scr in shard_scratch {
            for h in scr.handoff.drain(..) {
                ch.fifo_push_back(h.node as usize, h.port as usize, h.vc as usize, h.flit);
                mark_active(active_mask, active_list, h.node as usize);
            }
            for ni in scr.newly_active.drain(..) {
                mark_active(active_mask, active_list, ni as usize);
            }
        }
    }

    /// Barrier after link traversal, part 2: flits caught on just-dead
    /// links. The shards report candidates; the master applies the
    /// liveness gate and the kill, exactly as the sequential loop did.
    fn merge_dropped_and_kill(&mut self) {
        let Network { shard_scratch, scratch, stats, .. } = self;
        for scr in shard_scratch {
            for msg in scr.dropped.drain(..) {
                // flit caught on a just-failed link. The fault injector
                // rips every worm touching a dying link, so the message is
                // normally already killed and untracked; if it IS still
                // live (a fault path that missed the worm), dropping the
                // flit silently would leak the message — stats accounting
                // would never balance and drain() would hang. Kill it
                // through the normal path instead.
                if stats.tracks(msg) {
                    stats.flits_dropped_on_dead_link += 1;
                    scratch.doomed.insert(msg);
                }
            }
        }
        self.kill_doomed(false);
    }

    /// Barrier after routing: merges per-shard unroutable verdicts and
    /// kills them (trace/retry order is id-sorted inside kill_messages, so
    /// the merge order does not leak).
    fn merge_unroutable_and_kill(&mut self) {
        let Network { shard_scratch, scratch, .. } = self;
        for scr in shard_scratch {
            scratch.doomed.extend(scr.unroutable.drain(..));
        }
        self.kill_doomed(true);
    }

    /// Kills the messages a barrier collected in `scratch.doomed`, keeping
    /// the set's allocation for the next cycle.
    fn kill_doomed(&mut self, unroutable: bool) {
        if self.scratch.doomed.is_empty() {
            return;
        }
        let mut doomed = std::mem::take(&mut self.scratch.doomed);
        self.kill_messages(&doomed, unroutable);
        doomed.clear();
        self.scratch.doomed = doomed;
    }

    /// Drains per-shard trace events into the sink and replays per-shard
    /// stats ops, in shard order — concatenating the shard-local streams
    /// reproduces the sequential ascending-node emission order.
    fn flush_shards(&mut self) {
        let Network { shard_scratch, sink, stats, metrics, cycle, .. } = self;
        let (metrics, cycle) = (metrics.as_ref(), *cycle);
        for scr in shard_scratch {
            // (events are only buffered while a sink is attached)
            if let Some(sink) = sink {
                for e in scr.events.drain(..) {
                    sink.record(&e);
                }
            }
            for op in scr.ops.drain(..) {
                match op {
                    StatOp::Decision(steps) => {
                        stats.decision_steps.add(steps);
                        if let Some(m) = metrics {
                            m.decision_steps.observe(steps);
                        }
                    }
                    StatOp::HeadArrival(msg, hops) => stats.on_head_arrival(msg, hops),
                    StatOp::Deliver(msg) => {
                        let meta = stats.on_deliver(msg, cycle);
                        if let Some(m) = metrics {
                            m.delivered.inc();
                            if let Some(meta) = meta {
                                m.latency.observe(cycle - meta.inject_cycle);
                                m.hops.observe(meta.hops as u64);
                                m.excess_hops
                                    .observe(meta.hops.saturating_sub(meta.min_dist) as u64);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Barrier after ejection/switch: returns freed credits to the
    /// upstream senders (each input lane frees at most one slot per cycle,
    /// so the increments commute; shard order matches the sequential
    /// application order anyway).
    fn apply_credit_returns(&mut self) {
        let depth = self.cfg.buffer_depth;
        let mut ch = self.chans.full_mut();
        for scr in &mut self.shard_scratch {
            for (ni, p, iv) in scr.credit_returns.drain(..) {
                let Some((m, q)) = self.wiring.peer(ni as usize, p as usize) else { continue };
                let c = ch.out_credits(m.idx(), q.idx(), iv as usize);
                ch.set_out_credits(m.idx(), q.idx(), iv as usize, (c + 1).min(depth));
            }
        }
    }
}

/// Restricts a sorted node-id slice to the half-open range `lo..hi`.
fn sub_range(xs: &[u32], lo: usize, hi: usize) -> &[u32] {
    let a = xs.partition_point(|&x| (x as usize) < lo);
    let b = xs.partition_point(|&x| (x as usize) < hi);
    &xs[a..b]
}

/// The two engine tests that must reach private state; everything else
/// lives in `crates/sim/tests/engine.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Header;
    use crate::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
    use ftr_obs::{EventKind, MetricsRegistry, RingSink};
    use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId, EAST};
    use std::sync::Arc;

    /// Sends every head east on VC 0.
    struct East;

    impl RoutingAlgorithm for East {
        fn name(&self) -> String {
            "east".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(East)
        }
    }

    impl NodeController for East {
        fn route(
            &mut self,
            view: &RouterView<'_>,
            _h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            let free = view.free(EAST.idx(), 0);
            Decision::new(if free { Verdict::Route(EAST, VcId(0)) } else { Verdict::Wait }, 1)
        }
    }

    /// Regression for the silent flit-loss bug: a flit caught in an output
    /// register when its link dies used to hit a `debug_assert!` only —
    /// release builds dropped the flit on the floor and leaked the message
    /// (accounting never balanced, `drain` hung). This exercises a fault
    /// path that bypasses `inject_link_fault`'s worm ripping by failing
    /// the link through the bare fault-set mutation point — never behind
    /// the wiring table's back. Must pass in debug AND release.
    #[test]
    fn dead_link_flit_is_killed_not_silently_dropped() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let sink = Arc::new(RingSink::new(4096));
        let mut net =
            Network::builder(topo.clone()).trace(sink.clone()).build(&East).expect("valid");
        let id = net.send(topo.node_at(0, 1), topo.node_at(3, 1), 6).unwrap();
        // advance until a flit of the worm sits on the (1,1)->(2,1) link
        let hot = topo.node_at(1, 1);
        for _ in 0..50 {
            if net.output_register_occupied(hot, EAST) {
                break;
            }
            net.step();
        }
        assert!(net.output_register_occupied(hot, EAST), "worm must reach the link");
        // rip the link out from under the engine without killing the worm
        net.set_fault(hot, Some(EAST), true);
        net.step();
        assert_eq!(net.stats.flits_dropped_on_dead_link, 1);
        assert_eq!(net.stats.killed_msgs, 1, "message killed through the normal path");
        assert!(!net.stats.tracks(id), "no leaked in-flight entry");
        assert!(net.stats.accounting_balanced(), "balance must hold in every build profile");
        let killed =
            sink.events().iter().any(|e| matches!(e.kind, EventKind::Kill { msg } if msg == id.0));
        assert!(killed, "kill event emitted");
        assert!(net.drain(1_000), "engine still drains after the drop");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn occupancy_sampling_skips_cycle_zero() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        // shorter than one period: no samples at all (cycle 0 used to
        // contribute a guaranteed all-zero sample per node)
        let registry = Arc::new(MetricsRegistry::new());
        let mut net =
            Network::builder(topo.clone()).metrics(registry.clone()).build(&East).expect("valid");
        net.run(OCCUPANCY_SAMPLE_PERIOD);
        let snap = registry.histogram_snapshot("sim.buffer_occupancy").expect("registered");
        assert_eq!(snap.count, 0, "no sample before the first full period");
        // k cycles sample at p, 2p, ... floor(k/p) times, once per node
        let registry = Arc::new(MetricsRegistry::new());
        let mut net =
            Network::builder(topo.clone()).metrics(registry.clone()).build(&East).expect("valid");
        net.run(2 * OCCUPANCY_SAMPLE_PERIOD + 1); // cycles 0..=2p run; p and 2p sample
        let snap = registry.histogram_snapshot("sim.buffer_occupancy").expect("registered");
        assert_eq!(snap.count, 2 * topo.num_nodes() as u64);
    }
}

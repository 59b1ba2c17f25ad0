//! The offered load, drawn before the timed region.
//!
//! Simulated side the benchmark is an open loop: every node is a Bernoulli
//! source with uniform destinations ([`TrafficSource`]), and the sends are
//! due at fixed cycles whatever the network does. Drawing them up front
//! keeps the generator out of the timed region and makes the program under
//! test see only `(cycle, src, dst, len)` tuples.

use ftr_sim::{Network, Pattern, TrafficSource};
use ftr_topo::{FaultSet, NodeId, Topology};

/// One send, due at `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Send {
    /// Cycle the source hands the message to its router.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len: u32,
}

/// A sparse, cycle-ordered list of sends over `cycles` offered cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Offered cycles (the last send is due before this).
    pub cycles: u64,
    /// The sends, ascending by cycle.
    pub sends: Vec<Send>,
}

impl Schedule {
    /// Draws `cycles` cycles of uniform traffic at `load` flits/node/cycle
    /// from `seed`. Nodes in `dead` neither send nor receive, so no send
    /// of the schedule is ever refused.
    pub fn draw(
        topo: &dyn Topology,
        dead: &FaultSet,
        load: f64,
        len: u32,
        cycles: u64,
        seed: u64,
    ) -> Self {
        let mut tf = TrafficSource::new(Pattern::Uniform, load, len, seed);
        let mut sends = Vec::new();
        for cycle in 0..cycles {
            sends.extend(tf.tick(topo, dead).into_iter().map(|(src, dst, len)| Send {
                cycle,
                src,
                dst,
                len,
            }));
        }
        Schedule { cycles, sends }
    }

    /// Offers the whole schedule to `net`, stepping once per offered
    /// cycle. `on_send` and `on_step` wrap each call (the traced pass times
    /// them; the untraced pass passes plain calls). Returns the number of
    /// sends the network refused.
    pub fn offer(
        &self,
        net: &mut Network,
        mut on_send: impl FnMut(&mut Network, &Send) -> bool,
        mut on_step: impl FnMut(&mut Network),
    ) -> u64 {
        let mut refused = 0;
        let mut next = 0;
        for cycle in 0..self.cycles {
            while next < self.sends.len() && self.sends[next].cycle == cycle {
                refused += !on_send(net, &self.sends[next]) as u64;
                next += 1;
            }
            on_step(net);
        }
        refused
    }
}

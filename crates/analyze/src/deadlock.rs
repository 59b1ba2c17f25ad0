//! Layer 2: static deadlock verification of compiled rule programs.
//!
//! A compiled rule program answers one routing query at a time; the
//! Dally/Seitz check in [`ftr_topo::cdg`] needs the *full routing
//! relation* — every output channel the program could select in any
//! network state. [`ProgramLift`] lifts a compiled program into that
//! relation by firing the real rule machine over an enumeration of the
//! per-decision inputs it cannot otherwise know (which outputs are free,
//! which output queue is shortest, which dead-end flags are set) and
//! taking the union of the decisions. The lift is a sound
//! over-approximation: every channel the live router could request
//! appears, so an acyclic channel dependency graph proves deadlock
//! freedom.
//!
//! The enumeration is the message interface's ([`RuleIo::channels`] in
//! `ftr_algos::rule_io`), and the live rule host's `relation` runs the
//! same one, so the relation proved acyclic here is the one the routers
//! run. On a mesh, virtual-channel assignment is the *data path's* job,
//! not the rule program's (§2.2): the lift asks the channel allocator
//! ([`ftr_algos::vnet`]) the rule host asks, selected the same way
//! ([`MeshIo::mode`](ftr_algos::rule_io::MeshIo): derived from the
//! program's own declarations, never chosen).
//!
//! Verification then exhausts destinations (via the CDG construction) and
//! fault sets up to a configurable budget, reporting a concrete cycle
//! witness on failure.

use ftr_algos::rule_io::{self, CubeIo, MeshIo, Query, RuleIo, Unit};
pub use ftr_algos::vnet::MeshVcMode;
use ftr_rules::{CompiledProgram, InputMap, Machine, RegFile, Result, RuleError};
use ftr_topo::cdg::{Channel, ChannelDependencyGraph};
use ftr_topo::faults::SimpleRng;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId};
use std::cell::{Cell, RefCell};

/// One falsification: a fault scenario whose channel dependency graph
/// contains a cycle.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// Human-readable description of the injected faults.
    pub faults: String,
    /// The dependency cycle (consecutive channels wait on each other,
    /// wrapping around).
    pub cycle: Vec<Channel>,
}

/// Outcome of a verification run.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Program name.
    pub program: String,
    /// Topology description, e.g. `mesh 3x3` or `hypercube d=4`.
    pub topology: String,
    /// Virtual channels the analysis modelled.
    pub num_vcs: usize,
    /// Number of fault scenarios whose CDG was built and checked.
    pub fault_sets_checked: usize,
    /// Most channels any message could occupy in one scenario; zero means
    /// the program makes no routing decision on this topology (a cube
    /// program on a mesh, a mesh program on a cube) and nothing was proved.
    pub channels_used: usize,
    /// Scenarios with a dependency cycle (empty ⇒ deadlock-free for every
    /// checked scenario).
    pub failures: Vec<CycleWitness>,
    /// Rule cascades the lift fired to build the checked relations.
    pub interpretations: u64,
}

impl DeadlockReport {
    /// True if no checked scenario produced a cycle.
    pub fn verified(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        if self.channels_used == 0 {
            format!("{}: skipped on {} — does not drive this topology", self.program, self.topology)
        } else if self.verified() {
            format!(
                "{}: deadlock-free on {} ({} VCs) — CDG acyclic for all {} fault scenarios \
                 ({} interpretations)",
                self.program,
                self.topology,
                self.num_vcs,
                self.fault_sets_checked,
                self.interpretations
            )
        } else {
            let w = &self.failures[0];
            format!(
                "{}: DEADLOCK POSSIBLE on {} ({} VCs) — {}/{} scenarios cyclic; \
                 e.g. [{}] cycle {:?} ({} interpretations)",
                self.program,
                self.topology,
                self.num_vcs,
                self.failures.len(),
                self.fault_sets_checked,
                w.faults,
                w.cycle,
                self.interpretations
            )
        }
    }
}

// ---------------------------------------------------------------------------
// the lift

/// Marks a computed memo entry (channel masks use the low 40 bits at most).
const KNOWN: u64 = 1 << 63;

/// Lifts a compiled program into the routing relation of message
/// interface `I`'s topology: every channel [`RuleIo::channels`] answers,
/// memoised on everything a decision can depend on — (lane, usable ports,
/// node, destination).
pub struct ProgramLift<I: RuleIo> {
    topo: I::Topo,
    io: I,
    reads: I::Reads,
    /// The machine the lift fires; `None` for a program that does not make
    /// the interface's decisions ([`RuleIo::drives`]: a cube program on a
    /// mesh, a mesh program or the stripped `route_c_nft` on a cube). It
    /// lifts to the empty relation.
    unit: Option<RefCell<Unit<I>>>,
    /// The registers as the program declares them.
    fresh: RegFile,
    /// Ports per node; usable masks have this many bits.
    ports: usize,
    /// Channel masks with [`KNOWN`] set; 0 where not computed yet. Usable
    /// masks vary slowest after the lane, so the pages of masks no query
    /// asks for are never touched.
    memo: RefCell<Vec<u64>>,
    /// Cascades fired so far.
    fired: Cell<u64>,
}

/// The lift of 2-D mesh programs, on the data path the program's
/// declarations select (the [`MeshIo`] convention of the rule router).
pub type MeshProgramLift = ProgramLift<MeshIo>;

/// The lift of ROUTE_C-style hypercube programs (the [`CubeIo`]
/// convention: `decide_dir`, then `decide_vc` with the `chosen` register
/// carrying the argmin result).
pub type CubeProgramLift = ProgramLift<CubeIo>;

impl<I: RuleIo> ProgramLift<I> {
    /// Creates the lift (compile `ftr_algos::rules_src::route_c_source(d)`
    /// for a `d`-cube program). Fails if the program declares a name of
    /// the message interface differently, or for a smaller topology than
    /// `topo`, or if a node of `topo` has more than 8 ports.
    pub fn new(compiled: CompiledProgram, topo: I::Topo) -> Result<Self> {
        let prog = &compiled.prog;
        let io = I::bind_for(prog, &topo)?;
        let (ports, n) = (topo.degree(), topo.num_nodes());
        if ports > 8 {
            let name = topo.name();
            return Err(RuleError::resolve(format!("the lift takes 8 ports, {name} has {ports}")));
        }
        let (drives, reads, fresh) =
            (io.drives(prog).is_ok(), io.reads(&compiled), RegFile::new(prog));
        let unit = drives.then(|| {
            let mut machine = Machine::from_compiled(compiled);
            let node = io.init(&topo, NodeId(0), &mut machine);
            RefCell::new(Unit { topo: topo.clone(), machine, inputs: InputMap::new(), node })
        });
        let memo = RefCell::new(vec![0; (io.num_vcs() << ports) * n * n]);
        Ok(ProgramLift { topo, io, reads, unit, fresh, ports, memo, fired: Cell::new(0) })
    }

    /// Number of virtual channels the data path models.
    pub fn num_vcs(&self) -> usize {
        self.io.num_vcs()
    }

    /// Every channel the program can choose for `q`, memoised.
    fn channels(&self, unit: &RefCell<Unit<I>>, q: Query) -> u64 {
        let n = self.topo.num_nodes();
        let lane = usize::from(q.lane.vnet) << self.ports | q.ok as usize;
        let key = (lane * n + q.cur.idx()) * n + q.dst.idx();
        let hit = self.memo.borrow()[key];
        if hit != 0 {
            return hit & !KNOWN;
        }
        let u = &mut *unit.borrow_mut();
        u.machine.regs_mut().clone_from(&self.fresh);
        self.io.init(&u.topo, q.cur, &mut u.machine);
        let (chans, fired) = self.io.channels(u, &self.reads, q);
        self.fired.set(self.fired.get() + fired);
        self.memo.borrow_mut()[key] = chans | KNOWN;
        chans
    }

    /// The full routing relation under a fault set, in the closure form
    /// [`ChannelDependencyGraph::build`] expects: the union over every
    /// lane the data path offers (both networks at a horizontal mesh
    /// injection, where the host takes the first), with the ports whose
    /// links are usable (link and both endpoints alive).
    #[allow(clippy::type_complexity)]
    pub fn relation<'s>(
        &'s self,
        faults: &'s FaultSet,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 's {
        let topo = &self.topo;
        let usable: Vec<u64> = topo
            .nodes()
            .map(|cur| {
                let ports = topo.ports().filter(|&p| faults.link_usable(topo, cur, p));
                ports.fold(0, |ok, p| ok | 1 << p.idx())
            })
            .collect();
        move |cur, at, dst| {
            let Some(unit) = &self.unit else { return Vec::new() };
            rule_io::relation(&self.io, topo, (cur, dst), at, |lane| {
                let ok = usable[cur.idx()] & u64::from(lane.permitted);
                self.channels(unit, Query { cur, dst, lane, ok })
            })
        }
    }

    /// Proves (or refutes) deadlock freedom of the lifted program for every
    /// link-fault set of at most `max_faults` links (deterministically
    /// sampled beyond `max_fault_sets` sets), by exhaustion over
    /// destinations.
    pub fn verify(
        &self,
        program: &str,
        max_faults: usize,
        max_fault_sets: usize,
    ) -> DeadlockReport {
        let (topo, vcs, before) = (&self.topo, self.num_vcs(), self.fired.get());
        let mut report = DeadlockReport {
            program: program.into(),
            topology: I::label(topo),
            num_vcs: vcs,
            fault_sets_checked: 0,
            channels_used: 0,
            failures: Vec::new(),
            interpretations: 0,
        };
        for set in &fault_sets(&unique_links(topo), max_faults, max_fault_sets, 0x5eed) {
            let mut faults = FaultSet::new();
            for &(n, p) in set {
                faults.fail_link(topo, n, p);
            }
            let g = ChannelDependencyGraph::build(topo, &faults, vcs, &self.relation(&faults));
            report.fault_sets_checked += 1;
            report.channels_used = report.channels_used.max(g.num_used_channels());
            if let Some(cycle) = g.find_cycle() {
                report.failures.push(CycleWitness { faults: describe_faults(topo, set), cycle });
            }
        }
        report.interpretations = self.fired.get() - before;
        report
    }
}

// ---------------------------------------------------------------------------
// fault-set enumeration and the verification drivers

/// All unique links of a topology as (node, port) with the lower node id.
fn unique_links(topo: &dyn Topology) -> Vec<(NodeId, PortId)> {
    let mut links = Vec::new();
    for n in topo.nodes() {
        for p in topo.ports() {
            if let Some(nb) = topo.neighbor(n, p) {
                if n.idx() < nb.idx() {
                    links.push((n, p));
                }
            }
        }
    }
    links
}

/// Every subset of `links` with at most `max_faults` elements; if that
/// exceeds `cap`, a deterministic sample without repeats: the fault-free
/// scenario first, then `cap - 1` distinct others.
fn fault_sets(
    links: &[(NodeId, PortId)],
    max_faults: usize,
    cap: usize,
    seed: u64,
) -> Vec<Vec<(NodeId, PortId)>> {
    let mut sets: Vec<Vec<(NodeId, PortId)>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..max_faults {
        let mut next = Vec::new();
        for combo in &frontier {
            let start = combo.last().map_or(0, |&l| l + 1);
            for i in start..links.len() {
                let mut c = combo.clone();
                c.push(i);
                sets.push(c.iter().map(|&j| links[j]).collect());
                next.push(c);
            }
        }
        frontier = next;
    }
    let cap = cap.max(1);
    if sets.len() > cap {
        // a partial Fisher–Yates shuffle of everything after the fault-free set
        let mut rng = SimpleRng::new(seed);
        for i in 1..cap {
            let j = i + rng.below(sets.len() - i);
            sets.swap(i, j);
        }
        sets.truncate(cap);
    }
    sets
}

fn describe_faults(topo: &dyn Topology, set: &[(NodeId, PortId)]) -> String {
    if set.is_empty() {
        return "fault-free".into();
    }
    set.iter().map(|(n, p)| format!("link {}#{}", n.idx(), p.idx())).collect::<Vec<_>>().join(", ")
        + &format!(" ({} faults)", set.len())
        + &format!(" on {}", topo.name())
}

/// [`MeshProgramLift::verify`] on a fresh lift, asserting that `mode` is
/// the data path the program's declarations select. Kept only because
/// the ledger (`benchmark/`) still calls it; it goes with item 2(b)/(c).
///
/// # Panics
///
/// If [`MeshProgramLift::new`] refuses the program (the message is its
/// error), or `mode` is not the derived one.
#[deprecated(note = "the data path is derived from the program: use `MeshProgramLift::verify`")]
pub fn verify_mesh(
    program_name: &str,
    compiled: &CompiledProgram,
    width: u32,
    height: u32,
    mode: MeshVcMode,
    max_faults: usize,
    max_fault_sets: usize,
) -> DeadlockReport {
    let lift = MeshProgramLift::new(compiled.clone(), Mesh2D::new(width, height))
        .unwrap_or_else(|e| panic!("{program_name}: {e}"));
    let derived = lift.io.mode;
    assert_eq!(mode, derived, "{program_name}: its declarations select the {derived:?} data path");
    lift.verify(program_name, max_faults, max_fault_sets)
}

/// [`CubeProgramLift::verify`] on a fresh lift.
///
/// # Panics
///
/// If [`CubeProgramLift::new`] refuses the program; the message is its error.
pub fn verify_cube(
    program_name: &str,
    compiled: &CompiledProgram,
    dim: u32,
    max_faults: usize,
    max_fault_sets: usize,
) -> DeadlockReport {
    CubeProgramLift::new(compiled.clone(), Hypercube::new(dim))
        .unwrap_or_else(|e| panic!("{program_name}: {e}"))
        .verify(program_name, max_faults, max_fault_sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fault_set_enumeration_counts() {
        let mesh = Mesh2D::new(3, 3);
        let links = unique_links(&mesh);
        assert_eq!(links.len(), 12); // 2*3*3 - 3 - 3
        let sets = fault_sets(&links, 2, usize::MAX, 1);
        // empty + 12 singles + C(12,2) pairs
        assert_eq!(sets.len(), 1 + 12 + 66);
        let sets1 = fault_sets(&links, 1, usize::MAX, 1);
        assert_eq!(sets1.len(), 13);
    }

    #[test]
    fn sampling_keeps_fault_free_scenario() {
        let mesh = Mesh2D::new(4, 4);
        let links = unique_links(&mesh);
        let sets = fault_sets(&links, 2, 10, 7);
        assert_eq!(sets.len(), 10);
        assert!(sets[0].is_empty());
    }

    #[test]
    fn sampling_draws_distinct_scenarios() {
        // the 4-cube with at most one dead link: 33 scenarios
        let links = unique_links(&Hypercube::new(4));
        for cap in [1, 2, 16, 32, 33, 34, 512] {
            let sets = fault_sets(&links, 1, cap, 0x5eed);
            assert_eq!(sets.len(), cap.min(33), "cap {cap}");
            assert!(sets[0].is_empty(), "cap {cap}");
            let distinct: BTreeSet<_> = sets.iter().collect();
            assert_eq!(distinct.len(), sets.len(), "cap {cap}: a scenario repeats");
        }
    }
}

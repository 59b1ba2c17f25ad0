//! Layer 2: static deadlock verification of compiled rule programs.
//!
//! A compiled rule program answers one routing query at a time; the
//! Dally/Seitz check in [`ftr_topo::cdg`] needs the *full routing
//! relation* — every output channel the program could select in any
//! network state. This module lifts a compiled program into that relation
//! by firing the real rule machine over an enumeration of the
//! per-decision inputs it cannot otherwise know (which outputs are free,
//! which output queue is shortest, which dead-end flags are set) and
//! taking the union of the decisions. The lift is a sound
//! over-approximation: every channel the live router could request
//! appears, so an acyclic channel dependency graph proves deadlock
//! freedom.
//!
//! Virtual-channel assignment is the *data path's* job, not the rule
//! program's (§2.2): a mesh program computes directions, and the channel
//! allocator ([`ftr_algos::vnet`]) says which virtual network a head
//! decides in and which directions it may take there. The lift asks the
//! same allocator the live router does, selected the same way
//! ([`MeshIo::mode`]: derived from the program's own declarations, never
//! chosen), and presents each decision through the same function
//! ([`MeshIo::present`]) — so the relation proved acyclic here contains
//! every decision the rule host can make.
//!
//! Verification then exhausts destinations (via the CDG construction) and
//! fault sets up to a configurable budget, reporting a concrete cycle
//! witness on failure.

use ftr_algos::rule_io::{self, CubeIo, DirSets, MeshIo, PortInfo, Ret, DECIDE_DIR, DECIDE_VC};
use ftr_algos::vnet::Lane;
pub use ftr_algos::vnet::MeshVcMode;
use ftr_rules::value::{Type, Value};
use ftr_rules::{CompiledProgram, InputMap, Machine, Program, RegFile, Result};
use ftr_topo::cdg::{Channel, ChannelDependencyGraph};
use ftr_topo::faults::SimpleRng;
use ftr_topo::mesh::MESH_PORTS;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

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
                "{}: deadlock-free on {} ({} VCs) — CDG acyclic for all {} fault scenarios",
                self.program, self.topology, self.num_vcs, self.fault_sets_checked
            )
        } else {
            let w = &self.failures[0];
            format!(
                "{}: DEADLOCK POSSIBLE on {} ({} VCs) — {}/{} scenarios cyclic; \
                 e.g. [{}] cycle {:?}",
                self.program,
                self.topology,
                self.num_vcs,
                self.failures.len(),
                self.fault_sets_checked,
                w.faults,
                w.cycle
            )
        }
    }
}

/// Empties `im`, then defaults every input to the lowest element of its
/// domain (the empty set for sets): what a lift does not drive reads as
/// that.
fn reset_to_defaults(im: &mut InputMap, prog: &Program) {
    im.clear();
    for decl in &prog.inputs {
        let lowest = match decl.elem {
            Type::Scalar(d) => d.value_at(0),
            Type::Set(d) => Value::empty_set(d),
        };
        im.set_default(prog, &decl.name, lowest).expect("the name is declared");
    }
}

// ---------------------------------------------------------------------------
// mesh lift

/// Lifts a compiled 2-D mesh program (the [`MeshIo`] convention of the
/// rule router) into a routing relation. Decisions are memoised on
/// everything they can depend on: (node, destination, virtual network,
/// open-direction mask, dead-end flags).
pub struct MeshProgramLift {
    mesh: Mesh2D,
    prog: Program,
    io: MeshIo,
    /// The entry event (the rule-router convention); a program without
    /// one, or one that cannot read where the message is going, makes no
    /// routing decision on a mesh and lifts to the empty relation.
    entry: Option<String>,
    mode: MeshVcMode,
    machine: RefCell<Machine>,
    inputs: RefCell<InputMap>,
    #[allow(clippy::type_complexity)]
    memo: RefCell<HashMap<(u32, u32, u8, u8, bool, bool), Vec<u8>>>,
}

impl MeshProgramLift {
    /// Creates the lift on the data path the program's declarations
    /// select. Fails if the program declares a name of the message
    /// interface differently, or for a smaller mesh than `mesh`.
    pub fn new(compiled: CompiledProgram, mesh: Mesh2D) -> Result<Self> {
        let prog = compiled.prog.clone();
        let io = MeshIo::bind(&prog)?;
        let mode = io.mode(&prog);
        io.fits(&prog, mesh.width(), mesh.height(), mode.num_vcs())?;
        Ok(MeshProgramLift {
            mesh,
            io,
            entry: rule_io::entry(&prog)
                .ok()
                .filter(|_| io.xdes.is_some() && io.ydes.is_some())
                .map(|rb| rb.name.clone()),
            prog,
            mode,
            machine: RefCell::new(Machine::from_compiled(compiled)),
            inputs: RefCell::new(InputMap::new()),
            memo: RefCell::new(HashMap::new()),
        })
    }

    /// The data path the program gets.
    pub fn mode(&self) -> MeshVcMode {
        self.mode
    }

    /// Number of virtual channels that data path models.
    pub fn num_vcs(&self) -> usize {
        self.mode.num_vcs()
    }

    /// Every direction the program can return for this query, across all
    /// free-output patterns, queue-minimum positions, and (implicitly,
    /// via the caller's enumeration) dead-end flags.
    fn raw_dirs(
        &self,
        cur: NodeId,
        dst: NodeId,
        lane: Lane,
        live: u8,
        dead_ends: (bool, bool),
    ) -> Vec<u8> {
        let Some(entry) = self.entry.as_deref() else { return Vec::new() };
        let open = live & lane.permitted;
        let key = (cur.0, dst.0, lane.vnet, open, dead_ends.0, dead_ends.1);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        let mut out: BTreeSet<u8> = BTreeSet::new();
        let (mut machine, mut im) = (self.machine.borrow_mut(), self.inputs.borrow_mut());
        // every pattern below overwrites the same cells, so one reset serves all
        reset_to_defaults(&mut im, &self.prog);

        // free patterns: everything open free, each open direction alone,
        // and nothing free (the escalation path)
        let mut free_patterns: Vec<u8> = vec![open, 0];
        free_patterns.extend((0..4).map(|d| 1 << d).filter(|bit| open & bit != 0));
        for fp in free_patterns {
            // queue patterns: each direction as the unique argmin
            for qmin in 0..4usize {
                let regs = machine.regs_mut();
                *regs = RegFile::new(&self.prog);
                self.io.init_node(&self.prog, regs, self.mesh.coords(cur));
                let dst = self.mesh.coords(dst);
                let legal = self.io.present(&self.prog, regs, &mut im, dst, lane, dead_ends, |d| {
                    PortInfo {
                        free: fp & (1 << d) != 0,
                        linkok: live & (1 << d) != 0,
                        out_queue: if d == qmin { 0 } else { 9 },
                    }
                });
                if let Ok(casc) = machine.fire_cascade(entry, &[], &im) {
                    if let Some(Ret::Dir(d)) = casc.last_return().map(rule_io::decode) {
                        if d < 4 && legal >> d & 1 != 0 {
                            out.insert(d);
                        }
                    }
                }
            }
        }
        let dirs: Vec<u8> = out.into_iter().collect();
        self.memo.borrow_mut().insert(key, dirs.clone());
        dirs
    }

    /// The full routing relation under a fault set, in the closure form
    /// [`ChannelDependencyGraph::build`] expects: the union over every
    /// lane the allocator offers (both networks at a horizontal
    /// injection, where the host takes the first).
    #[allow(clippy::type_complexity)]
    pub fn relation<'s>(
        &'s self,
        faults: &'s FaultSet,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 's {
        move |cur, inc, dst| {
            let mut live: u8 = 0;
            for &p in &MESH_PORTS {
                if let Some(nb) = self.mesh.neighbor(cur, p) {
                    if faults.link_usable(&self.mesh, cur, p) && !faults.node_faulty(nb) {
                        live |= 1 << p.idx();
                    }
                }
            }
            // dead-end flags depend on global fault knowledge; enumerate
            // both values of each (conservative union)
            let de_combos: &[(bool, bool)] = if self.io.de_east.is_some() {
                &[(false, false), (true, false), (false, true), (true, true)]
            } else {
                &[(false, false)]
            };
            let mut out = Vec::new();
            for lane in self.mode.lanes(inc, self.mesh.offset(cur, dst)) {
                let mut dirs: BTreeSet<u8> = BTreeSet::new();
                for &de in de_combos {
                    dirs.extend(self.raw_dirs(cur, dst, lane, live, de));
                }
                out.extend(dirs.into_iter().map(|d| (PortId(d), VcId(lane.vnet))));
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// hypercube lift

/// Lifts a compiled ROUTE_C-style hypercube program (the [`CubeIo`]
/// convention: two interpretation steps, `decide_dir` then `decide_vc`,
/// with the `chosen` register carrying the argmin result) into a routing
/// relation.
pub struct CubeProgramLift {
    cube: Hypercube,
    prog: Program,
    io: CubeIo,
    /// False for a program that does not declare the whole interface (the
    /// stripped `route_c_nft`, any mesh program): it makes no cube
    /// decision and lifts to the empty relation.
    drives: bool,
    machine: RefCell<Machine>,
    inputs: RefCell<InputMap>,
    #[allow(clippy::type_complexity)]
    memo: RefCell<HashMap<(u32, u32, u8), Vec<(u8, u8)>>>,
}

impl CubeProgramLift {
    /// Creates the lift for a `d`-dimensional cube program (compile
    /// `ftr_algos::rules_src::route_c_source(d)` for a matching program).
    /// Fails if the program declares a name of the message interface
    /// differently, or is a full ROUTE_C program for fewer dimensions than
    /// `cube` has.
    pub fn new(compiled: CompiledProgram, cube: Hypercube) -> Result<Self> {
        let prog = compiled.prog.clone();
        let io = CubeIo::bind(&prog)?;
        let drives = io.require_all(&prog).is_ok();
        if drives {
            io.fits(&prog, cube.dim())?;
        }
        Ok(CubeProgramLift {
            cube,
            io,
            drives,
            prog,
            machine: RefCell::new(Machine::from_compiled(compiled)),
            inputs: RefCell::new(InputMap::new()),
            memo: RefCell::new(HashMap::new()),
        })
    }

    /// All (port, vc) pairs the two-step decision can produce for this
    /// query, across every free-channel pattern and queue-minimum
    /// position.
    fn raw_channels(&self, cur: NodeId, dst: NodeId, ok: u8) -> Vec<(u8, u8)> {
        if !self.drives {
            return Vec::new();
        }
        let key = (cur.0, dst.0, ok);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        let (dim, prog) = (self.cube.dim(), &self.prog);
        let (mut machine, mut im) = (self.machine.borrow_mut(), self.inputs.borrow_mut());
        let diff = self.cube.diff(cur, dst) as u64;
        let (up, down) = (diff & !(cur.0 as u64), diff & cur.0 as u64);
        let sets = DirSets { dim, up, down, ok: ok.into() };
        let mut out: BTreeSet<(u8, u8)> = BTreeSet::new();

        // step 1: decide_dir is deterministic in the direction sets
        reset_to_defaults(&mut im, prog);
        self.io.load_dir(prog, &mut im, sets, |_| 0);
        *machine.regs_mut() = RegFile::new(prog);
        let cands = match machine.fire_cascade(DECIDE_DIR, &[], &im).map(|c| c.last_return()) {
            Ok(Some(Value::Set { mask, .. })) => mask,
            _ => 0,
        };

        // step 2: decide_vc across free-channel-class singletons × argmin
        // positions (one per candidate output)
        for qmin in (0..dim as usize).filter(|q| cands & (1 << q) != 0) {
            self.io.load_dir(prog, &mut im, sets, |d| if d == qmin { 0 } else { 9 });
            for fv in 0..rule_io::CUBE_VCS {
                self.io.load_vc(prog, &mut im, sets, cands, |v| v == fv);
                *machine.regs_mut() = RegFile::new(prog);
                let Ok(casc) = machine.fire_cascade(DECIDE_VC, &[], &im) else { continue };
                match self.io.channel(prog, machine.regs(), casc.last_return()) {
                    Some((port, vc)) if port < dim as usize && cands & (1 << port) != 0 => {
                        out.insert((port as u8, vc as u8));
                    }
                    _ => {}
                }
            }
        }
        let chans: Vec<(u8, u8)> = out.into_iter().collect();
        self.memo.borrow_mut().insert(key, chans.clone());
        chans
    }

    /// The full routing relation under a fault set.
    #[allow(clippy::type_complexity)]
    pub fn relation<'s>(
        &'s self,
        faults: &'s FaultSet,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 's {
        move |cur, _inc, dst| {
            let dim = self.cube.dim() as usize;
            let mut ok: u8 = 0;
            for d in 0..dim {
                let p = PortId(d as u8);
                if let Some(nb) = self.cube.neighbor(cur, p) {
                    if faults.link_usable(&self.cube, cur, p)
                        && (nb == dst || !faults.node_faulty(nb))
                    {
                        ok |= 1 << d;
                    }
                }
            }
            self.raw_channels(cur, dst, ok).into_iter().map(|(p, v)| (PortId(p), VcId(v))).collect()
        }
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
/// exceeds `cap`, a deterministic sample (always including the fault-free
/// scenario).
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
    if sets.len() > cap {
        let mut rng = SimpleRng::new(seed);
        let mut sampled = vec![sets[0].clone()];
        while sampled.len() < cap {
            sampled.push(sets[1 + rng.below(sets.len() - 1)].clone());
        }
        sets = sampled;
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

/// Builds the CDG of every enumerated link-fault set of `topo` with
/// `cdg` and checks acyclicity by exhaustion over destinations.
fn verify(
    program: &str,
    topo: &dyn Topology,
    topology: String,
    num_vcs: usize,
    max_faults: usize,
    max_fault_sets: usize,
    cdg: impl Fn(&FaultSet) -> ChannelDependencyGraph,
) -> DeadlockReport {
    let mut report = DeadlockReport {
        program: program.into(),
        topology,
        num_vcs,
        fault_sets_checked: 0,
        channels_used: 0,
        failures: Vec::new(),
    };
    for set in &fault_sets(&unique_links(topo), max_faults, max_fault_sets, 0x5eed) {
        let mut faults = FaultSet::new();
        for &(n, p) in set {
            faults.fail_link(topo, n, p);
        }
        let g = cdg(&faults);
        report.fault_sets_checked += 1;
        report.channels_used = report.channels_used.max(g.num_used_channels());
        if let Some(cycle) = g.find_cycle() {
            report.failures.push(CycleWitness { faults: describe_faults(topo, set), cycle });
        }
    }
    report
}

impl MeshProgramLift {
    /// Proves (or refutes) deadlock freedom of the lifted program on its
    /// derived data path, for every link-fault set of at most `max_faults`
    /// links (deterministically sampled beyond `max_fault_sets` sets).
    pub fn verify(
        &self,
        program: &str,
        max_faults: usize,
        max_fault_sets: usize,
    ) -> DeadlockReport {
        let (mesh, vcs) = (&self.mesh, self.num_vcs());
        let topology = format!("mesh {}x{}", mesh.width(), mesh.height());
        verify(program, mesh, topology, vcs, max_faults, max_fault_sets, |faults| {
            ChannelDependencyGraph::build(mesh, faults, vcs, &self.relation(faults))
        })
    }
}

impl CubeProgramLift {
    /// Hypercube analogue of [`MeshProgramLift::verify`] for ROUTE_C-style
    /// programs.
    pub fn verify(
        &self,
        program: &str,
        max_faults: usize,
        max_fault_sets: usize,
    ) -> DeadlockReport {
        let (cube, vcs) = (&self.cube, rule_io::CUBE_VCS);
        let topology = format!("hypercube d={}", cube.dim());
        verify(program, cube, topology, vcs, max_faults, max_fault_sets, |faults| {
            ChannelDependencyGraph::build(cube, faults, vcs, &self.relation(faults))
        })
    }
}

/// [`MeshProgramLift::verify`] on a fresh lift. `mode` must be the data
/// path the program's declarations select ([`MeshProgramLift::mode`]): it
/// cannot be chosen, so a proof is never about a router nobody builds.
///
/// # Panics
///
/// If [`MeshProgramLift::new`] refuses the program (the message is its
/// error), or `mode` is not the derived one.
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
    assert_eq!(
        mode,
        lift.mode(),
        "{program_name}: its declarations select the {:?} data path",
        lift.mode()
    );
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
}

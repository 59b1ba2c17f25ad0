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

use crate::lints::{walk_cmds, walk_expr};
use ftr_algos::rule_io::{self, CubeIo, DirSets, MeshIo, PortInfo, Ret, DECIDE_DIR, DECIDE_VC};
use ftr_algos::vnet::Lane;
pub use ftr_algos::vnet::MeshVcMode;
use ftr_rules::ast::{Builtin, Expr, IndexedRef, Ref, Rule};
use ftr_rules::compile::FeatureKind;
use ftr_rules::value::{Type, Value};
use ftr_rules::{CompiledProgram, InputMap, Machine, Program, RegFile, Result};
use ftr_topo::cdg::{Channel, ChannelDependencyGraph};
use ftr_topo::faults::SimpleRng;
use ftr_topo::mesh::MESH_PORTS;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId};
use std::cell::{Cell, RefCell};
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

/// A class of the cells the mesh lift enumerates, as a bit: the `free`
/// input.
const FREE: u8 = 1;
/// The `out_queue` input, read directly or through `argmin`/`argmax`.
const QUEUE: u8 = 2;
/// The `de_east`/`de_west` registers.
const DEADEND: u8 = 4;
/// What a failed cascade counts as having read.
const EVERYTHING: u8 = FREE | QUEUE | DEADEND;
/// A memo slot not computed yet (direction masks use the low four bits).
const UNKNOWN: u8 = u8::MAX;
/// The dead-end flag values the lift tries (`(de_east, de_west)`).
const DEAD_ENDS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Which enumerated classes each step of a cascade can read: per rule
/// base, every feature (the table executor evaluates them all), and per
/// rule, its conclusion.
struct ReadClasses {
    bases: Vec<u8>,
    rules: Vec<Vec<u8>>,
}

impl ReadClasses {
    fn new(compiled: &CompiledProgram, io: &MeshIo) -> Self {
        let input = |i: usize| {
            (if io.free == Some(i) { FREE } else { 0 })
                | (if io.out_queue == Some(i) { QUEUE } else { 0 })
        };
        let class = |e: &Expr| match e {
            Expr::Ref(Ref::Input(i)) | Expr::Indexed { target: IndexedRef::Input(i), .. } => {
                input(*i)
            }
            // the queue input sits in the builtin, not among its arguments
            Expr::Call { builtin: Builtin::ArgMin(i) | Builtin::ArgMax(i), .. } => input(*i),
            Expr::Ref(Ref::Var(v)) | Expr::Indexed { target: IndexedRef::Var(v), .. }
                if [io.de_east, io.de_west].contains(&Some(*v)) =>
            {
                DEADEND
            }
            _ => 0,
        };
        let bases = compiled
            .bases
            .iter()
            .map(|cb| {
                let mut read = 0;
                for f in &cb.features {
                    let (FeatureKind::Direct { subject: e, .. }
                    | FeatureKind::Predicate { expr: e }) = &f.kind;
                    walk_expr(e, &mut |e| read |= class(e));
                }
                read
            })
            .collect();
        let rules = compiled
            .prog
            .rulebases
            .iter()
            .map(|rb| {
                let conclusion = |r: &Rule| {
                    let mut read = 0;
                    walk_cmds(&r.conclusion, &mut |e| read |= class(e));
                    read
                };
                rb.rules.iter().map(conclusion).collect()
            })
            .collect();
        ReadClasses { bases, rules }
    }

    /// What a cascade that interpreted `path` read.
    fn of(&self, path: &[(usize, Option<usize>)]) -> u8 {
        path.iter()
            .fold(0, |read, &(b, r)| read | self.bases[b] | r.map_or(0, |r| self.rules[b][r]))
    }
}

/// Lifts a compiled 2-D mesh program (the [`MeshIo`] convention of the
/// rule router) into a routing relation. Decisions are memoised on
/// everything they can depend on: (node, destination, virtual network,
/// open-direction mask).
pub struct MeshProgramLift {
    mesh: Mesh2D,
    prog: Program,
    io: MeshIo,
    /// False for a program without the entry base (the rule-router
    /// convention) or one that cannot read where the message is going: it
    /// makes no routing decision on a mesh and lifts to the empty relation.
    drives: bool,
    mode: MeshVcMode,
    reads: ReadClasses,
    machine: RefCell<Machine>,
    inputs: RefCell<InputMap>,
    /// Direction masks indexed by (node, destination, virtual network,
    /// open mask); [`UNKNOWN`] where not computed yet.
    memo: RefCell<Vec<u8>>,
    /// Cascades fired so far.
    fired: Cell<u64>,
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
        // every fire overwrites the same cells, so one reset serves all
        let mut inputs = InputMap::new();
        reset_to_defaults(&mut inputs, &prog);
        let n = mesh.num_nodes();
        Ok(MeshProgramLift {
            drives: rule_io::entry(&prog).is_ok() && io.xdes.is_some() && io.ydes.is_some(),
            reads: ReadClasses::new(&compiled, &io),
            memo: RefCell::new(vec![UNKNOWN; n * n * mode.num_vcs() * 16]),
            mesh,
            io,
            prog,
            mode,
            machine: RefCell::new(Machine::from_compiled(compiled)),
            inputs: RefCell::new(inputs),
            fired: Cell::new(0),
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

    /// Every direction the program can return for this query, as a mask.
    fn dirs(&self, cur: NodeId, dst: NodeId, lane: Lane, live: u8) -> u8 {
        if !self.drives {
            return 0;
        }
        let open = live & lane.permitted;
        let n = self.mesh.num_nodes();
        let key = ((cur.idx() * n + dst.idx()) * self.num_vcs() + usize::from(lane.vnet)) * 16
            + usize::from(open);
        let hit = self.memo.borrow()[key];
        if hit != UNKNOWN {
            return hit;
        }
        let dirs = self.fire_patterns(cur, dst, lane, open);
        self.memo.borrow_mut()[key] = dirs;
        dirs
    }

    /// Fires the entry cascade over the free patterns (everything open
    /// free, nothing free — the escalation path — and each open direction
    /// alone), each direction as the unique queue minimum and every
    /// dead-end flag combination; returns the union of the legal answers.
    ///
    /// A cascade is a deterministic function of the cells it reads, so a
    /// pattern that differs from a fired one only in classes the fired
    /// path never read replays that path and is skipped: the flag loop
    /// stops at a path that did not read a flag, the queue loop at a
    /// position where no fire read a queue, the free loop after the first
    /// pattern if no fire read `free`.
    fn fire_patterns(&self, cur: NodeId, dst: NodeId, lane: Lane, open: u8) -> u8 {
        let (mut machine, mut im) = (self.machine.borrow_mut(), self.inputs.borrow_mut());
        let mut template = RegFile::new(&self.prog);
        self.io.init_node(&self.prog, &mut template, self.mesh.coords(cur));
        let dst = self.mesh.coords(dst);
        let dead_ends = if self.io.de_east.is_some() { &DEAD_ENDS[..] } else { &DEAD_ENDS[..1] };
        let frees = std::iter::once(open)
            .chain((open != 0).then_some(0))
            .chain((0..4).map(|d| 1 << d).filter(|&bit| open & bit != 0 && bit != open));

        let mut dirs = 0;
        for (i, free) in frees.enumerate() {
            let mut read_free = false;
            for qmin in 0..MESH_PORTS.len() {
                let mut read_queue = false;
                for &de in dead_ends {
                    machine.regs_mut().clone_from(&template);
                    self.io.present(&self.prog, machine.regs_mut(), &mut im, dst, lane, de, |d| {
                        PortInfo {
                            free: free & (1 << d) != 0,
                            linkok: open & (1 << d) != 0,
                            out_queue: if d == qmin { 0 } else { 9 },
                        }
                    });
                    self.fired.set(self.fired.get() + 1);
                    let read = match machine.fire_base(rule_io::ENTRY, &[], &im) {
                        Ok(fired) => {
                            if let Some(Ret::Dir(d @ 0..=3)) =
                                fired.last_return.map(rule_io::decode)
                            {
                                dirs |= open & 1 << d;
                            }
                            self.reads.of(machine.path())
                        }
                        Err(_) => EVERYTHING,
                    };
                    read_free |= read & FREE != 0;
                    read_queue |= read & QUEUE != 0;
                    if read & DEADEND == 0 {
                        break;
                    }
                }
                if !read_queue {
                    break;
                }
            }
            if i == 0 && !read_free {
                break;
            }
        }
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
        let mesh = &self.mesh;
        let live: Vec<u8> = mesh
            .nodes()
            .map(|cur| {
                MESH_PORTS.iter().fold(0, |live, &p| match mesh.neighbor(cur, p) {
                    Some(nb) if faults.link_usable(mesh, cur, p) && !faults.node_faulty(nb) => {
                        live | 1 << p.idx()
                    }
                    _ => live,
                })
            })
            .collect();
        move |cur, inc, dst| {
            let mut out = Vec::new();
            for lane in self.mode.lanes(inc, mesh.offset(cur, dst)) {
                let dirs = self.dirs(cur, dst, lane, live[cur.idx()]);
                out.extend(
                    (0..4).filter(|d| dirs >> d & 1 != 0).map(|d| (PortId(d), VcId(lane.vnet))),
                );
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
    /// Cascades fired so far.
    fired: Cell<u64>,
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
            fired: Cell::new(0),
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
        self.fired.set(self.fired.get() + 1);
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
                self.fired.set(self.fired.get() + 1);
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

/// Builds the CDG of every enumerated link-fault set of `topo` with
/// `cdg` and checks acyclicity by exhaustion over destinations; `fired`
/// counts the lift's cascades.
#[allow(clippy::too_many_arguments)]
fn verify(
    program: &str,
    topo: &dyn Topology,
    topology: String,
    num_vcs: usize,
    max_faults: usize,
    max_fault_sets: usize,
    fired: &Cell<u64>,
    cdg: impl Fn(&FaultSet) -> ChannelDependencyGraph,
) -> DeadlockReport {
    let before = fired.get();
    let mut report = DeadlockReport {
        program: program.into(),
        topology,
        num_vcs,
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
        let g = cdg(&faults);
        report.fault_sets_checked += 1;
        report.channels_used = report.channels_used.max(g.num_used_channels());
        if let Some(cycle) = g.find_cycle() {
            report.failures.push(CycleWitness { faults: describe_faults(topo, set), cycle });
        }
    }
    report.interpretations = fired.get() - before;
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
        verify(program, mesh, topology, vcs, max_faults, max_fault_sets, &self.fired, |faults| {
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
        verify(program, cube, topology, vcs, max_faults, max_fault_sets, &self.fired, |faults| {
            ChannelDependencyGraph::build(cube, faults, vcs, &self.relation(faults))
        })
    }
}

/// [`MeshProgramLift::verify`] on a fresh lift, asserting that `mode` is
/// the data path the program's declarations select
/// ([`MeshProgramLift::mode`]). Kept only because the ledger
/// (`benchmark/`) still calls it; it goes with ROADMAP 1(b)/(c).
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

//! The message interface: how a host (the live router in `ftr-core`, the
//! static lift in `ftr-analyze`) talks to a rule program.
//!
//! The paper wires message interface and information units to the rule
//! interpreters once, when the router is configured (Figure 3; §4.3's
//! "configurable wiring"). This module is that wiring and the only place
//! that spells the names; DESIGN.md ("Message interface") tabulates what
//! each one means, the `.rules` files next door declare them.
//!
//! A host binds a program **once** ([`MeshIo::bind`], [`CubeIo::bind`]):
//! every name resolves to its index in `Program::inputs` / `vars` /
//! `rulebases`, an absent one to `None`, a present one of another shape
//! or element kind to an error naming it. The host then states what it
//! requires ([`entry`], [`CubeIo::require_all`]) and checks its topology
//! against the declared domains (`fits`). An input binds to a typed
//! [`Port`] that writes words into the host's [`InputMap`], laid out for
//! the program: the `load*` methods write one decision through them.
//!
//! [`RuleIo`] is everything topology-specific a host needs, so the live
//! router (`ftr_core::RuleHost`) and the static lift
//! (`ftr_analyze::ProgramLift`) are each written once: a decision, and
//! the enumeration of every decision that both their relations run.

use crate::vnet::{Lane, MeshVcMode};
use ftr_rules::ast::{reads, reads_cmds, Command, Expr, Program, Ref, Rule, RuleBase};
use ftr_rules::compile::FeatureKind;
use ftr_rules::{
    CompiledProgram, Domain, Elem, InputMap, Machine, Port, RegFile, Result, RuleError, Subset,
    Type, Value,
};
use ftr_sim::flit::Header;
use ftr_sim::routing::{ControlMsg, Decision, RouterView, Verdict};
use ftr_topo::{Hypercube, Mesh2D, NodeId, PortId, Topology, VcId};

/// Host event `send_newmessage(dim, code)`: report state `code` across `dim`.
pub const SEND_NEWMESSAGE: &str = "send_newmessage";
/// Mesh register: this node's x coordinate.
pub const XPOS: &str = "xpos";
/// Mesh register: this node's y coordinate.
pub const YPOS: &str = "ypos";
/// Mesh header input: the destination's x coordinate.
pub const XDES: &str = "xdes";
/// Mesh header input: the destination's y coordinate.
pub const YDES: &str = "ydes";
/// Channel classes of the ROUTE_C data path.
pub const CUBE_VCS: usize = 5;
/// Mesh return code: no usable output exists.
pub const RET_UNROUTABLE: i64 = 13;
/// Mesh return code: wait — the host asks again later.
pub const RET_WAIT: i64 = 14;
/// Mesh return code: deliver locally.
pub const RET_DELIVER: i64 = 15;
const MESH_PORTS: usize = ftr_topo::mesh::MESH_PORTS.len(); // 0 = E, 1 = W, 2 = N, 3 = S
const OUT_QUEUE_MAX: u32 = 255; // where the `out_queue` load counter saturates

/// What a mesh program's entry cascade told the router: a port (0..=11),
/// or one of the three codes; any other value counts as unroutable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ret {
    Dir(u8),
    Unroutable,
    Wait,
    Deliver,
}

/// Decodes the last `RETURN` of a mesh routing cascade.
pub fn decode(ret: Value) -> Ret {
    match ret {
        Value::Int(d @ 0..=11) => Ret::Dir(d as u8),
        Value::Int(RET_DELIVER) => Ret::Deliver,
        Value::Int(RET_WAIT) => Ret::Wait,
        _ => Ret::Unroutable, // RET_UNROUTABLE, and anything outside the convention
    }
}

/// Index of the rule base [`entry`] vouches for.
pub const ENTRY: usize = 0;

/// The rule base a head flit fires on a mesh: the program's first, which
/// must take no parameters.
pub fn entry(prog: &Program) -> Result<&RuleBase> {
    prog.rulebases.first().filter(|rb| rb.params.is_empty()).ok_or_else(|| {
        RuleError::resolve("a head flit fires the first rule base, which must take no parameters")
    })
}

/// An element kind: its name and its test.
type Kind = (&'static str, fn(Type) -> bool);
const BOOL: Kind = (<bool as Elem>::KIND, <bool as Elem>::declared);
const INT: Kind = (<i64 as Elem>::KIND, <i64 as Elem>::declared);
const SYM: Kind = (<u32 as Elem>::KIND, <u32 as Elem>::declared);
const SET: Kind = (Subset::KIND, Subset::declared);

/// A declaration's layout: no index, or one index. `n > 0` asks the
/// element domain (scalar) or the index domain (array) to cover `0..n`.
#[derive(Clone, Copy)]
enum Shape {
    Scalar(usize),
    Array(usize),
}
use Shape::{Array, Scalar};

/// Index of declaration `name` among `decls`, checked against `shape` and `kind`.
fn slot<'p>(
    decls: impl Iterator<Item = (&'p String, &'p Vec<Domain>, Type)>,
    name: &str,
    shape: Shape,
    kind: Kind,
) -> Result<Option<usize>> {
    let Some((i, (_, idx, elem))) = decls.enumerate().find(|(_, d)| d.0 == name) else {
        return Ok(None);
    };
    let covers =
        |d: Domain, n: usize| matches!(d, Domain::Int { lo, hi } if lo <= 0 && hi >= n as i64 - 1);
    let (layout, n, fits) = match shape {
        Scalar(n) => ("scalar", n, idx.is_empty() && (n == 0 || covers(elem.domain(), n))),
        Array(n) => ("array indexed from 0", n, matches!(idx[..], [d] if covers(d, n.max(1)))),
    };
    if fits && kind.1(elem) {
        return Ok(Some(i));
    }
    let range = if n == 0 { String::new() } else { format!(" covering 0 TO {}", n - 1) };
    Err(RuleError::resolve(format!(
        "`{name}` must be declared as {} {layout}{range}, but is declared over {idx:?} with \
         elements {elem:?}",
        kind.0
    )))
}

/// The typed port of input `name`, checked against `shape` and its kind.
fn input<T: Elem>(prog: &Program, name: &str, shape: Shape) -> Result<Option<Port<T>>> {
    let decls = prog.inputs.iter().map(|d| (&d.name, &d.index_domains, d.elem));
    slot(decls, name, shape, (T::KIND, T::declared))?.map(|i| Port::bind(prog, i)).transpose()
}

fn var(prog: &Program, name: &str, shape: Shape, kind: Kind) -> Result<Option<usize>> {
    slot(prog.vars.iter().map(|d| (&d.name, &d.index_domains, d.elem)), name, shape, kind)
}

fn base(prog: &Program, name: &str) -> Result<Option<usize>> {
    Ok(prog.rulebase(name).map(|(i, _)| i))
}

/// The error for a name a host requires and the program does not declare.
fn undeclared(name: &str) -> RuleError {
    RuleError::resolve(format!("the program does not declare `{name}`"))
}

/// One table per interface: the struct of slots, its resolution and
/// `slots` all come from it, so a name is spelled once — as the field it
/// binds to (a `Port` or an index). `$g` is the host's geometry; zeros ask
/// for any size. Fields after the table are derived by `bind` from `$init`.
macro_rules! interface {
    ($(#[$doc:meta])* $io:ident($g:ident: $geom:ty) {
        $($field:ident: $fty:ty = $resolve:ident($($arg:expr),*),)*
    } $($derived:ident: $dty:ty = $init:expr,)*) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $io {
            $(pub $field: Option<$fty>,)*
            $(pub $derived: $dty,)*
        }

        impl $io {
            fn resolve(prog: &Program, $g: $geom) -> Result<Self> {
                Ok($io {
                    $($field: $resolve(prog, stringify!($field) $(, $arg)*)?,)*
                    $($derived: $init,)*
                })
            }

            /// Every name of the interface with the slot it bound to.
            pub fn slots(&self) -> Vec<(&'static str, Option<usize>)> {
                vec![$((stringify!($field), self.$field.map(usize::from)),)*]
            }
        }
    };
}

interface! {
    /// A 2-D mesh program's interface: header and per-port inputs, then
    /// the registers a host writes; then the data path the declarations
    /// select. Geometry: (width, height, channels).
    MeshIo(g: (usize, usize, usize)) {
        xdes: Port<i64> = input(Scalar(g.0)), ydes: Port<i64> = input(Scalar(g.1)),
        invc: Port<i64> = input(Scalar(g.2)), out_queue: Port<i64> = input(Array(MESH_PORTS)),
        free: Port<bool> = input(Array(MESH_PORTS)), linkok: Port<bool> = input(Array(MESH_PORTS)),
        xpos: usize = var(Scalar(g.0), INT), ypos: usize = var(Scalar(g.1), INT),
        usable: usize = var(Scalar(0), SET), de_east: usize = var(Scalar(0), BOOL),
        de_west: usize = var(Scalar(0), BOOL),
    }
    mode: MeshVcMode = MeshVcMode::SingleVc,
}

interface! {
    /// A ROUTE_C-style hypercube program's interface: inputs, the
    /// registers a host reads, the rule bases it fires. Geometry:
    /// (dimensions, channel classes).
    CubeIo(g: (usize, usize)) {
        diffup: Port<Subset> = input(Scalar(g.0)), diffdown: Port<Subset> = input(Scalar(g.0)),
        okdirs: Port<Subset> = input(Scalar(g.0)), out_queue: Port<i64> = input(Array(g.0)),
        new_state: Port<u32> = input(Array(g.0)), phase: Port<i64> = input(Scalar(0)),
        misr: Port<bool> = input(Scalar(0)), freevc: Port<bool> = input(Array(g.1)),
        freedirs: Port<Subset> = input(Array(g.1)),
        neighb_state: usize = var(Array(g.0), SYM), chosen: usize = var(Scalar(g.0), INT),
        state: usize = var(Scalar(0), SYM),
        decide_dir: usize = base(), decide_vc: usize = base(), update_state: usize = base(),
    }
    parks: bool = false,
}

/// Empties `im`, then defaults every input to the lowest element of its
/// domain (the empty set for sets): what an enumeration does not drive
/// reads as that.
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

/// Writes `v` at index `k` of a declared input.
fn feed<T: Elem>(im: &mut InputMap, port: Option<Port<T>>, k: usize, v: T) {
    if let Some(p) = port {
        p.write(im, k, v);
    }
}

/// Writes the set `mask` at index `k` of a declared set input, over the
/// domain it declares: a smaller cube's direction sets are words of a
/// program for a larger one, not spills.
fn feed_set(im: &mut InputMap, port: Option<Port<Subset>>, k: usize, mask: u64) {
    if let Some(p) = port {
        p.write(im, k, Subset { dom: p.dom(), mask });
    }
}

fn write(regs: &mut RegFile, prog: &Program, slot: Option<usize>, v: Value) {
    if let Some(i) = slot {
        regs.write(prog, i, &[], v).expect("bind() fixed the kind and fits() the value range");
    }
}

/// One output port as the information units report it: allocatable on the
/// arrival channel, physically alive, flits still assigned to it.
#[derive(Clone, Copy, Debug)]
pub struct PortInfo {
    pub free: bool,
    pub linkok: bool,
    pub out_queue: u32,
}

// ---------------------------------------------------------------------------
// what every host drives

/// The channel a head arrived on; `None` at injection.
pub type Arrival = Option<(PortId, VcId)>;

/// One node as a host drives it: its topology, its control unit (Figure
/// 3) — the rule machine and the input map every fire reuses — and what
/// the interface keeps beside them.
pub struct Unit<I: RuleIo> {
    pub topo: I::Topo,
    pub machine: Machine,
    pub inputs: InputMap,
    pub node: I::Node,
}

/// One decision the enumeration answers: at `cur`, for `dst`, in `lane`,
/// with the ports in `ok` usable.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub cur: NodeId,
    pub dst: NodeId,
    pub lane: Lane,
    pub ok: u64,
}

/// A message interface as a host drives it. The live router
/// (`ftr_core::RuleHost`) and the static lift (`ftr_analyze::ProgramLift`)
/// are generic over it, so a topology's decision, and the enumeration of
/// every decision that both their relations run, each exist once.
pub trait RuleIo: Copy + Send + Sync + 'static {
    /// The topology the interface routes on.
    type Topo: Topology + Clone + Send + Sync + 'static;
    /// What a host keeps per node beside its machine.
    type Node: Send + 'static;
    /// What [`RuleIo::channels`] derives once per program.
    type Reads: Send + Sync + 'static;

    /// Binds `prog` (see [`MeshIo::bind`]) and checks `topo` against the
    /// domains it declares.
    fn bind_for(prog: &Program, topo: &Self::Topo) -> Result<Self>;
    /// Whether `prog` makes this interface's decisions; the error names
    /// what it lacks. A live host refuses such a program, the lift lifts
    /// it to the empty relation.
    fn drives(&self, prog: &Program) -> Result<()>;
    /// Virtual channels per link the data path needs.
    fn num_vcs(&self) -> usize;
    /// How a report names `topo`.
    fn label(topo: &Self::Topo) -> String {
        topo.name()
    }
    /// Configuration time, for a program the interface drives: loads
    /// `node`'s registers into `m` and returns what its host keeps.
    fn init(&self, topo: &Self::Topo, node: NodeId, m: &mut Machine) -> Self::Node;
    /// What [`RuleIo::channels`] needs to know of the compiled program.
    fn reads(&self, compiled: &CompiledProgram) -> Self::Reads;
    /// One decision at `view.node` for the head `h`: load the inputs,
    /// fire, decode.
    fn route(&self, u: &mut Unit<Self>, view: &RouterView, h: &mut Header, at: Arrival)
        -> Decision;
    /// The ports a live host lets the program use towards `dst`, as a mask.
    fn usable(&self, u: &Unit<Self>, view: &RouterView, dst: NodeId) -> u64;
    /// The lanes a decision at `cur` for `dst` may be made in; by default
    /// one, in which the program chooses the channel class itself.
    fn lanes(
        &self,
        _: &Self::Topo,
        _: NodeId,
        _: NodeId,
        _: Arrival,
    ) -> impl Iterator<Item = Lane> {
        std::iter::once(Lane { vnet: 0, permitted: u8::MAX })
    }
    /// Every channel the program can choose for `q`, whatever the loads,
    /// the free channels and the flags no host reports hold: a mask with
    /// bit `port * num_vcs + vc`, and the cascades fired to find it. Every
    /// fire starts from the registers the machine holds, and it holds them
    /// again afterwards.
    fn channels(&self, u: &mut Unit<Self>, reads: &Self::Reads, q: Query) -> (u64, u64);
    /// The link behind `port` failed: what the program tells the neighbours.
    fn on_fault(&self, _: &mut Unit<Self>, _port: PortId) -> Vec<ControlMsg> {
        Vec::new()
    }
    /// A neighbour's control message arrived through `from`.
    fn on_control(&self, _: &mut Unit<Self>, _from: PortId, _: &[i64]) -> Vec<ControlMsg> {
        Vec::new()
    }
    /// The program's state word, a symbol index; 0 without one.
    fn state_word(&self, _: &Machine) -> i64 {
        0
    }
}

/// Every channel the program can choose at `cur` for `dst`: `channels` of
/// every lane the data path offers, lane by lane, each in port order. The
/// live host's relation and the lift's both end here.
pub fn relation<I: RuleIo>(
    io: &I,
    topo: &I::Topo,
    (cur, dst): (NodeId, NodeId),
    at: Arrival,
    mut channels: impl FnMut(Lane) -> u64,
) -> Vec<(PortId, VcId)> {
    let vcs = io.num_vcs();
    let mut out = Vec::new();
    for lane in io.lanes(topo, cur, dst, at) {
        let mut mask = channels(lane);
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            out.push((PortId((bit / vcs) as u8), VcId((bit % vcs) as u8)));
            mask &= mask - 1;
        }
    }
    out
}

/// A rule host's decision: a `Wait` that may have read what the
/// `NodeController::route` contract rules out (`polls`) is re-asked every
/// cycle. The mesh host sees which inputs its program declares, not which
/// of them a given `RETURN` read, so a program that declares the load
/// input may have waited on it; the cube host knows more
/// ([`CubeIo::parks`]).
fn decision(verdict: Verdict, steps: u32, polls: bool) -> Decision {
    if verdict == Verdict::Wait && polls {
        Decision::polled_wait(steps)
    } else {
        Decision::new(verdict, steps)
    }
}

// ---------------------------------------------------------------------------
// the mesh

/// A class of the cells the mesh enumeration varies, as a bit: the `free`
/// input.
const FREE: u8 = 1;
/// The `out_queue` input, read directly or through `argmin`/`argmax`.
const QUEUE: u8 = 2;
/// The `de_east`/`de_west` registers.
const DEADEND: u8 = 4;
/// What a failed cascade counts as having read.
const EVERYTHING: u8 = FREE | QUEUE | DEADEND;
/// The dead-end flag values the enumeration tries (`(de_east, de_west)`).
const DEAD_ENDS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Which varied classes each step of a mesh cascade can read: per rule
/// base, every feature (the table executor evaluates them all), and per
/// rule, its conclusion.
pub struct ReadClasses {
    bases: Vec<u8>,
    rules: Vec<Vec<u8>>,
}

impl ReadClasses {
    fn new(compiled: &CompiledProgram, io: &MeshIo) -> Self {
        let (free, queue) = (io.free.map(|p| p.input()), io.out_queue.map(|p| p.input()));
        let input = |i: usize| {
            (if free == Some(i) { FREE } else { 0 }) | (if queue == Some(i) { QUEUE } else { 0 })
        };
        let class = |r: Ref| match r {
            Ref::Input(i) => input(i),
            Ref::Var(v) if [io.de_east, io.de_west].contains(&Some(v)) => DEADEND,
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
                    reads(e, &mut |r| read |= class(r));
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
                    reads_cmds(&r.conclusion, &mut |r| read |= class(r));
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

impl MeshIo {
    /// Resolves the interface against `prog`: `None` for what it does not
    /// declare, an error for what it declares with another shape or kind.
    /// The data path is derived here, from the program's own declarations:
    /// `invc` over exactly two networks is the NARA pair, anything else one
    /// network. Host and lift both read it here, so neither can be told
    /// otherwise.
    pub fn bind(prog: &Program) -> Result<Self> {
        let mut io = Self::resolve(prog, (0, 0, 0))?;
        let invc = io.invc.map(|p| prog.inputs[p.input()].elem.domain());
        if let Some(Domain::Int { lo: 0, hi: 1 }) = invc {
            io.mode = MeshVcMode::NaraPair;
        }
        Ok(io)
    }

    /// Checks that the coordinates of a `width` × `height` mesh and `vcs`
    /// virtual channels stay inside the domains the program declares, and
    /// that a two-network program gets exactly its two channels.
    pub fn fits(&self, prog: &Program, width: u32, height: u32, vcs: usize) -> Result<()> {
        Self::resolve(prog, (width as usize, height as usize, vcs))?;
        if self.mode == MeshVcMode::NaraPair && vcs != 2 {
            return Err(RuleError::resolve(format!(
                "`invc` is declared over two virtual networks, so the program runs on the NARA \
                 pair data path, which needs exactly 2 virtual channels, not {vcs}"
            )));
        }
        Ok(())
    }

    /// Presents one decision to the program — the one way a host (the
    /// live router, the static lift) does it. `invc` is the lane's
    /// network, and a direction exists for the program only where the
    /// link is alive *and* the data path permits it: `free`, `linkok` and
    /// the `usable` register all carry live ∩ permitted, so the program
    /// chooses among legal directions. Returns that mask — the directions
    /// the program may answer with, leaving on VC `lane.vnet`.
    #[allow(clippy::too_many_arguments)]
    pub fn present(
        &self,
        prog: &Program,
        regs: &mut RegFile,
        im: &mut InputMap,
        dst: (u32, u32),
        lane: Lane,
        dead_ends: (bool, bool),
        port: impl Fn(usize) -> PortInfo,
    ) -> u8 {
        let ports: [PortInfo; MESH_PORTS] = std::array::from_fn(|d| {
            let p = port(d);
            PortInfo { linkok: p.linkok && lane.permits(ftr_topo::PortId(d as u8)), ..p }
        });
        let open = (0..MESH_PORTS).filter(|&d| ports[d].linkok).fold(0, |m, d| m | 1 << d);
        // the fault knowledge a program's own fault bases would have
        // accumulated: the live router has none wired and reports what it
        // sees, the static lift enumerates it
        if let Some(i) = self.usable {
            let dom = prog.vars[i].elem.domain();
            write(regs, prog, self.usable, Value::Set { dom, mask: u64::from(open) });
        }
        write(regs, prog, self.de_east, Value::Bool(dead_ends.0));
        write(regs, prog, self.de_west, Value::Bool(dead_ends.1));
        self.load(im, dst, lane.vnet as usize, |d| ports[d]);
        open
    }

    /// Writes one decision's inputs: the header fields and, per port, what
    /// `port` reports. A dead link is never `free`; `out_queue` saturates.
    fn load(
        &self,
        im: &mut InputMap,
        dst: (u32, u32),
        invc: usize,
        port: impl Fn(usize) -> PortInfo,
    ) {
        feed(im, self.xdes, 0, i64::from(dst.0));
        feed(im, self.ydes, 0, i64::from(dst.1));
        feed(im, self.invc, 0, invc as i64);
        for d in 0..MESH_PORTS {
            let p = port(d);
            feed(im, self.free, d, p.linkok && p.free);
            feed(im, self.linkok, d, p.linkok);
            feed(im, self.out_queue, d, queue_len(p.out_queue));
        }
    }
}

impl RuleIo for MeshIo {
    type Topo = Mesh2D;
    type Node = ();
    type Reads = ReadClasses;

    fn bind_for(prog: &Program, mesh: &Mesh2D) -> Result<Self> {
        let io = Self::bind(prog)?;
        io.fits(prog, mesh.width(), mesh.height(), io.num_vcs()).map(|()| io)
    }

    /// A program drives a mesh if it has the entry rule base and can read
    /// where the message is going.
    fn drives(&self, prog: &Program) -> Result<()> {
        entry(prog)?;
        self.xdes.ok_or_else(|| undeclared(XDES))?;
        self.ydes.ok_or_else(|| undeclared(YDES)).map(|_| ())
    }

    fn num_vcs(&self) -> usize {
        self.mode.num_vcs()
    }

    /// Loads the node's coordinates.
    fn init(&self, mesh: &Mesh2D, node: NodeId, m: &mut Machine) {
        let ((prog, regs), (x, y)) = (m.program_and_regs(), mesh.coords(node));
        write(regs, prog, self.xpos, Value::Int(i64::from(x)));
        write(regs, prog, self.ypos, Value::Int(i64::from(y)));
    }

    fn reads(&self, compiled: &CompiledProgram) -> ReadClasses {
        ReadClasses::new(compiled, self)
    }

    /// The program's entry cascade, fired once in the first lane the
    /// allocator offers (at injection it stands for both), decoded by
    /// [`decode`]; the direction leaves on the lane's VC.
    fn route(
        &self,
        u: &mut Unit<Self>,
        view: &RouterView,
        h: &mut Header,
        at: Arrival,
    ) -> Decision {
        let lane = self.lanes(&u.topo, view.node, h.dst, at).next();
        let lane = lane.expect("the allocator always offers a lane");
        let (vc, dst) = (lane.vnet as usize, u.topo.coords(h.dst));
        let port =
            |d| PortInfo { free: view.free(d, vc), linkok: view.alive(d), out_queue: view.load(d) };
        u.inputs.clear();
        let (prog, regs) = u.machine.program_and_regs();
        // the dead-end waves are not wired to this host: both flags read false
        let open = self.present(prog, regs, &mut u.inputs, dst, lane, (false, false), port);
        let Ok(fired) = u.machine.fire_base(ENTRY, &[], &u.inputs) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let verdict = match fired.last_return.map_or(Ret::Wait, decode) {
            Ret::Dir(d) if d < 4 && open >> d & 1 != 0 && view.free(d as usize, vc) => {
                h.vnet = lane.vnet;
                Verdict::Route(PortId(d), VcId(lane.vnet))
            }
            Ret::Dir(_) | Ret::Wait => Verdict::Wait,
            Ret::Deliver => Verdict::Deliver,
            Ret::Unroutable => Verdict::Unroutable,
        };
        decision(verdict, fired.steps.max(1), self.out_queue.is_some())
    }

    fn usable(&self, _: &Unit<Self>, view: &RouterView, _: NodeId) -> u64 {
        (0..MESH_PORTS).filter(|&d| view.alive(d)).fold(0, |ok, d| ok | 1 << d)
    }

    fn lanes(
        &self,
        t: &Mesh2D,
        cur: NodeId,
        dst: NodeId,
        at: Arrival,
    ) -> impl Iterator<Item = Lane> {
        self.mode.lanes(at, t.offset(cur, dst))
    }

    /// Fires the entry cascade over the free patterns (everything open
    /// free, nothing free — the escalation path — and each open direction
    /// alone), each direction as the unique queue minimum and every
    /// dead-end flag combination; answers the union of the legal
    /// directions, on the lane's VC.
    ///
    /// A cascade is a deterministic function of the cells it reads, so a
    /// pattern that differs from a fired one only in classes the fired
    /// path never read replays that path and is skipped: the flag loop
    /// stops at a path that did not read a flag, the queue loop at a
    /// position where no fire read a queue, the free loop after the first
    /// pattern if no fire read `free`.
    fn channels(&self, u: &mut Unit<Self>, reads: &ReadClasses, q: Query) -> (u64, u64) {
        let (regs, dst) = (u.machine.regs().clone(), u.topo.coords(q.dst));
        let open = (q.ok & u64::from(q.lane.permitted)) as u8;
        reset_to_defaults(&mut u.inputs, u.machine.program());
        let dead_ends = if self.de_east.is_some() { &DEAD_ENDS[..] } else { &DEAD_ENDS[..1] };
        let frees = std::iter::once(open)
            .chain((open != 0).then_some(0))
            .chain((0..4).map(|d| 1 << d).filter(|&bit| open & bit != 0 && bit != open));

        let (mut dirs, mut fired) = (0u8, 0);
        for (i, free) in frees.enumerate() {
            let mut read_free = false;
            for qmin in 0..MESH_PORTS {
                let mut read_queue = false;
                for &de in dead_ends {
                    let (prog, live) = u.machine.program_and_regs();
                    live.clone_from(&regs);
                    self.present(prog, live, &mut u.inputs, dst, q.lane, de, |d| PortInfo {
                        free: free & (1 << d) != 0,
                        linkok: open & (1 << d) != 0,
                        out_queue: if d == qmin { 0 } else { 9 },
                    });
                    fired += 1;
                    let read = match u.machine.fire_base(ENTRY, &[], &u.inputs) {
                        Ok(f) => {
                            if let Some(Ret::Dir(d @ 0..=3)) = f.last_return.map(decode) {
                                dirs |= open & 1 << d;
                            }
                            reads.of(u.machine.path())
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
        u.machine.regs_mut().clone_from(&regs);
        let (vcs, vc) = (self.num_vcs(), usize::from(q.lane.vnet));
        let chans = (0..MESH_PORTS).filter(|d| dirs >> d & 1 != 0).map(|d| 1 << (d * vcs + vc));
        (chans.sum(), fired)
    }
}

fn queue_len(q: u32) -> i64 {
    i64::from(q.min(OUT_QUEUE_MAX))
}

// ---------------------------------------------------------------------------
// the hypercube

/// The direction sets of one decision on a `dim`-cube, as dimension
/// bitmasks: the dimensions to correct 0 → 1, those to correct 1 → 0, and
/// those that may be taken at all (link alive, neighbour safe or the
/// destination). Native `RouteC` builds its phases from the same sets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DirSets {
    dim: u32,
    pub(crate) up: u64,
    pub(crate) down: u64,
    pub(crate) ok: u64,
}

impl DirSets {
    /// The sets of the decision `cur → dst` on `cube`, given the usable
    /// dimensions `ok`.
    pub(crate) fn new(cube: &Hypercube, cur: NodeId, dst: NodeId, ok: u64) -> Self {
        let (diff, here) = (u64::from(cube.diff(cur, dst)), u64::from(cur.0));
        DirSets { dim: cube.dim(), up: diff & !here, down: diff & here, ok }
    }
}

/// The `fault_states` a cube host reads and reports, as symbol indices
/// of the type of `neighb_state`.
#[derive(Clone, Copy)]
struct FaultStates {
    lfault: u32,
    ounsafe: u32,
    faulty: u32,
}

/// What a cube host keeps per node beside its machine.
pub struct CubeNode {
    /// The rule bases it fires, as [`CubeIo`] bound them.
    decide_dir: usize,
    decide_vc: usize,
    update_state: usize,
    states: FaultStates,
    /// Links this node was told are dead (the information unit's view),
    /// one bit per dimension.
    dead: u64,
    hop_limit: u32,
}

impl CubeIo {
    /// Resolves the interface against `prog`, like [`MeshIo::bind`].
    pub fn bind(prog: &Program) -> Result<Self> {
        let mut io = Self::resolve(prog, (0, 0))?;
        io.parks = io.waits_park(prog);
        Ok(io)
    }

    /// Whether `decide_vc`'s own waits — a `RETURN` outside the channel
    /// classes, or none — keep the `Wait` contract, so the host parks
    /// them: no premise of either base and nothing `decide_dir` returns
    /// reads `out_queue`, `decide_dir` only returns, and a waiting rule of
    /// `decide_vc` returns a literal and does nothing else. `route_c.rules`
    /// qualifies: its two `RETURN(7)` rules read `misr`, `phase` and
    /// `freevc`, which the host derives from the free channels, the live
    /// links and the fault states its hooks keep.
    fn waits_park(&self, prog: &Program) -> bool {
        let (Some(dir), Some(vc)) = (self.decide_dir, self.decide_vc) else { return false };
        let queue = self.out_queue.map(|p| Ref::Input(p.input()));
        let no_queue = |e: &Expr| {
            let mut read = false;
            reads(e, &mut |r| read |= Some(r) == queue);
            !read
        };
        let class = |c: &Command| matches!(c, Command::Return(Expr::Lit(Value::Int(v))) if (0..CUBE_VCS as i64).contains(v));
        let literal = |c: &Command| matches!(c, Command::Return(Expr::Lit(_)));
        let (dir, vc) = (&prog.rulebases[dir].rules, &prog.rulebases[vc].rules);
        dir.iter().all(|r| {
            no_queue(&r.premise)
                && r.conclusion.iter().all(|c| matches!(c, Command::Return(e) if no_queue(e)))
        }) && vc.iter().all(|r| {
            no_queue(&r.premise)
                && (r.conclusion.iter().any(class) || r.conclusion.iter().all(literal))
        })
    }

    /// Checks that a `dim`-cube stays inside the domains the program
    /// declares. A program for a larger cube fits: its sets are bitmasks,
    /// so it runs as the `dim`-dimensional subcube restriction.
    pub fn fits(&self, prog: &Program, dim: u32) -> Result<()> {
        Self::resolve(prog, (dim as usize, 0)).map(|_| ())
    }

    /// What the live ROUTE_C router requires: every slot bound, and
    /// `freevc` covering the five channel classes.
    pub fn require_all(&self, prog: &Program) -> Result<()> {
        if let Some((name, _)) = self.slots().into_iter().find(|(_, slot)| slot.is_none()) {
            return Err(undeclared(name));
        }
        Self::resolve(prog, (0, CUBE_VCS)).map(|_| ())
    }

    /// `lfault`, `ounsafe` and `faulty` in the symbol type of `neighb_state`.
    fn fault_states(&self, prog: &Program) -> Result<FaultStates> {
        let Some(Type::Scalar(Domain::Sym(ty))) = self.neighb_state.map(|i| prog.vars[i].elem)
        else {
            return Err(undeclared("neighb_state"));
        };
        let ty = &prog.sym_types[ty];
        let find = |name: &str| {
            let idx = ty.symbols.iter().position(|s| s == name);
            idx.map(|i| i as u32).ok_or_else(|| {
                RuleError::resolve(format!(
                    "`neighb_state` is declared over `{}`, which has no symbol `{name}`",
                    ty.name
                ))
            })
        };
        Ok(FaultStates {
            lfault: find("lfault")?,
            ounsafe: find("ounsafe")?,
            faulty: find("faulty")?,
        })
    }

    /// Step 1 inputs: the direction sets and the load of each output.
    fn load_dir(&self, im: &mut InputMap, s: DirSets, q: impl Fn(usize) -> u32) {
        feed_set(im, self.diffup, 0, s.up);
        feed_set(im, self.diffdown, 0, s.down);
        feed_set(im, self.okdirs, 0, s.ok);
        for d in 0..s.dim as usize {
            feed(im, self.out_queue, d, queue_len(q(d)));
        }
    }

    /// Step 2 inputs, derived from step 1's candidate set: the phase and
    /// the misroute flag (both returned, for the header) and, per channel
    /// class, the candidates `free` holds it free on (`freevc`: any).
    fn load_vc(
        &self,
        im: &mut InputMap,
        s: DirSets,
        cands: u64,
        free: impl Fn(usize) -> u64,
    ) -> (u8, bool) {
        let (phase, misr) = (u8::from(s.up == 0), cands & (s.up | s.down) == 0);
        feed(im, self.phase, 0, i64::from(phase));
        feed(im, self.misr, 0, misr);
        for v in 0..CUBE_VCS {
            let dirs = free(v);
            feed(im, self.freevc, v, dirs != 0);
            feed_set(im, self.freedirs, v, dirs);
        }
        (phase, misr)
    }

    /// What step 2 decided: the output dimension it left in `chosen` and
    /// the channel class it returned; `None` for its wait code (7).
    fn channel(&self, m: &Machine, ret: Option<Value>) -> Option<(usize, usize)> {
        match (m.regs().raw(self.chosen?).first(), ret) {
            (Some(&Value::Int(port)), Some(Value::Int(vc)))
                if (0..CUBE_VCS as i64).contains(&vc) =>
            {
                Some((port as usize, vc as usize))
            }
            _ => None,
        }
    }

    /// `update_state(dir)` inputs: the neighbour across `dir` reported
    /// state `reported`; every other dimension reads symbol 0 (`safe`).
    fn load_update(&self, im: &mut InputMap, dim: u32, dir: usize, reported: u32) {
        for d in 0..dim as usize {
            feed(im, self.new_state, d, if d == dir { reported } else { 0 });
        }
    }

    /// Symbol index held by register `slot` (`neighb_state` at `[d]`,
    /// `state` at `[]`); 0 (`safe`) when the program has no such register.
    fn sym(m: &Machine, slot: Option<usize>, idx: &[Value]) -> u32 {
        match slot.map(|i| m.regs().read(m.program(), i, idx)) {
            Some(Ok(Value::Sym { idx, .. })) => idx,
            _ => 0,
        }
    }

    /// Drives `update_state(dir)` with a reported neighbour state; converts
    /// generated `send_newmessage` events into control messages.
    fn update(&self, u: &mut Unit<Self>, dir: PortId, reported: u32) -> Vec<ControlMsg> {
        u.inputs.clear();
        self.load_update(&mut u.inputs, u.topo.dim(), dir.idx(), reported);
        let args = [Value::Int(dir.idx() as i64)];
        if u.machine.fire_base(u.node.update_state, &args, &u.inputs).is_err() {
            return Vec::new();
        }
        let alive = |d: i64| d < i64::from(u.topo.dim()) && u.node.dead >> d & 1 == 0;
        u.machine
            .host_events()
            .filter_map(|event| match event {
                (SEND_NEWMESSAGE, &[Value::Int(d), Value::Int(code)]) if d >= 0 && alive(d) => {
                    Some(ControlMsg { port: PortId(d as u8), payload: vec![code] })
                }
                _ => None,
            })
            .collect()
    }
}

impl RuleIo for CubeIo {
    type Topo = Hypercube;
    type Node = CubeNode;
    type Reads = ();

    /// A program that is not a full cube program decides nothing here, so
    /// only a full one is checked against the cube's size.
    fn bind_for(prog: &Program, cube: &Hypercube) -> Result<Self> {
        let io = Self::bind(prog)?;
        if io.require_all(prog).is_ok() {
            io.fits(prog, cube.dim())?;
        }
        Ok(io)
    }

    fn drives(&self, prog: &Program) -> Result<()> {
        self.require_all(prog)?;
        self.fault_states(prog).map(|_| ())
    }

    fn num_vcs(&self) -> usize {
        CUBE_VCS
    }

    fn label(cube: &Hypercube) -> String {
        format!("hypercube d={}", cube.dim())
    }

    /// ROUTE_C state is address-free: the machine needs no coordinates.
    fn init(&self, cube: &Hypercube, _: NodeId, m: &mut Machine) -> CubeNode {
        let base = |slot: Option<usize>| slot.expect("drives() found every rule base");
        CubeNode {
            decide_dir: base(self.decide_dir),
            decide_vc: base(self.decide_vc),
            update_state: base(self.update_state),
            states: self.fault_states(m.program()).expect("drives() resolved the fault states"),
            dead: 0,
            hop_limit: 4 * cube.num_nodes() as u32 + 16,
        }
    }

    fn reads(&self, _: &CompiledProgram) {}

    /// The paper's two interpretation steps: `decide_dir` (which output
    /// dimensions are legal) and `decide_vc` (channel selection +
    /// adaptivity argmin into the `chosen` register).
    fn route(&self, u: &mut Unit<Self>, view: &RouterView, h: &mut Header, _: Arrival) -> Decision {
        if h.hops > u.node.hop_limit {
            return Decision::new(Verdict::Unroutable, 2);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 2);
        }
        let dim = u.topo.dim();
        let sets = DirSets::new(&u.topo, view.node, h.dst, self.usable(u, view, h.dst));
        let open = |d: usize, vc: usize| view.alive(d) && view.free(d, vc);

        // --- step 1: decide_dir
        u.inputs.clear();
        self.load_dir(&mut u.inputs, sets, |d| view.load(d));
        let Ok(step1) = u.machine.fire_base(u.node.decide_dir, &[], &u.inputs) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let cands = match step1.last_return {
            Some(Value::Set { mask, .. }) if mask != 0 => mask,
            _ => return Decision::new(Verdict::Unroutable, step1.steps.max(1)),
        };
        let cand = |d: usize| d < dim as usize && cands & (1 << d) != 0;

        // --- step 2: decide_vc (channel + adaptivity argmin over the
        // candidates that hold the class free)
        let mut free = [0u64; CUBE_VCS];
        for d in (0..dim as usize).filter(|&d| cand(d) && view.alive(d)) {
            for (vc, dirs) in free.iter_mut().enumerate() {
                *dirs |= u64::from(view.free(d, vc)) << d;
            }
        }
        let (phase, misr) = self.load_vc(&mut u.inputs, sets, cands, |vc| free[vc]);
        let Ok(step2) = u.machine.fire_base(u.node.decide_vc, &[], &u.inputs) else {
            return Decision::new(Verdict::Unroutable, step1.steps.max(1) + 1);
        };
        let (verdict, polls) = match self.channel(&u.machine, step2.last_return) {
            Some((port, vc)) if cand(port) && open(port, vc) => {
                h.misrouted |= misr;
                h.phase = phase;
                (Verdict::Route(PortId(port as u8), VcId(vc as u8)), false)
            }
            // a class whose chosen output is not open: the choice may have
            // read the loads
            Some(_) => (Verdict::Wait, true),
            None => (Verdict::Wait, !self.parks),
        };
        decision(verdict, step1.steps + step2.steps, polls)
    }

    /// A dimension is usable if its link is alive and the neighbour behind
    /// it is the destination or not known to be unsafe.
    fn usable(&self, u: &Unit<Self>, view: &RouterView, dst: NodeId) -> u64 {
        // the row of `neighb_state`, and the dimension its first cell holds
        let (states, first) = match self.neighb_state {
            Some(v) => (u.machine.regs().raw(v), u.machine.program().vars[v].index_domains[0]),
            None => (&[][..], Domain::Bool),
        };
        let first = match first {
            Domain::Int { lo, .. } => lo,
            _ => 0,
        };
        let mut ok = 0;
        for d in 0..u.topo.dim() as usize {
            let nb = u.topo.neighbor(view.node, PortId(d as u8)).expect("cube port");
            let state = match states.get((d as i64 - first) as usize) {
                Some(&Value::Sym { idx, .. }) => idx,
                _ => 0,
            };
            if view.alive(d) && (nb == dst || state < u.node.states.ounsafe) {
                ok |= 1 << d;
            }
        }
        ok
    }

    /// `decide_dir` once, then `decide_vc` with each candidate as the
    /// unique queue minimum and each channel class alone free on every
    /// candidate, every fire from the inputs' defaults.
    fn channels(&self, u: &mut Unit<Self>, _: &(), q: Query) -> (u64, u64) {
        let (s, regs) = (DirSets::new(&u.topo, q.cur, q.dst, q.ok), u.machine.regs().clone());
        let (machine, im, node) = (&mut u.machine, &mut u.inputs, &u.node);
        let mut fired = 0;
        let mut fire = |machine: &mut Machine, base: usize, im: &InputMap| {
            fired += 1;
            machine.regs_mut().clone_from(&regs);
            machine.fire_base(base, &[], im).ok().and_then(|f| f.last_return)
        };
        // step 1: decide_dir is deterministic in the direction sets
        reset_to_defaults(im, machine.program());
        self.load_dir(im, s, |_| 0);
        let cands = match fire(machine, node.decide_dir, im) {
            Some(Value::Set { mask, .. }) => mask,
            _ => 0,
        };
        let mut out = 0;
        // step 2: decide_vc across argmin positions (one per candidate
        // output) × free-channel-class singletons
        for qmin in (0..s.dim as usize).filter(|q| cands & (1 << q) != 0) {
            self.load_dir(im, s, |d| if d == qmin { 0 } else { 9 });
            for fv in 0..CUBE_VCS {
                self.load_vc(im, s, cands, |v| if v == fv { cands } else { 0 });
                let ret = fire(machine, node.decide_vc, im);
                match self.channel(machine, ret) {
                    Some((p, vc)) if p < s.dim as usize && cands & (1 << p) != 0 => {
                        out |= 1 << (p * CUBE_VCS + vc);
                    }
                    _ => {}
                }
            }
        }
        machine.regs_mut().clone_from(&regs);
        (out, fired)
    }

    fn on_fault(&self, u: &mut Unit<Self>, port: PortId) -> Vec<ControlMsg> {
        u.node.dead |= 1 << port.idx();
        self.update(u, port, u.node.states.lfault)
    }

    /// A neighbour reports `ounsafe`, `sunsafe` or `faulty`.
    fn on_control(&self, u: &mut Unit<Self>, from: PortId, payload: &[i64]) -> Vec<ControlMsg> {
        let reports = i64::from(u.node.states.ounsafe)..=i64::from(u.node.states.faulty);
        match payload {
            &[code] if reports.contains(&code) => self.update(u, from, code as u32),
            _ => Vec::new(),
        }
    }

    fn state_word(&self, m: &Machine) -> i64 {
        i64::from(Self::sym(m, self.state, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules_src;
    use ftr_rules::parse;

    fn shipped(name: &str) -> Program {
        parse(rules_src::all().into_iter().find(|p| p.0 == name).expect("shipped").1).unwrap()
    }

    fn absent(slots: Vec<(&'static str, Option<usize>)>) -> Vec<&'static str> {
        slots.into_iter().filter(|s| s.1.is_none()).map(|s| s.0).collect()
    }

    #[test]
    fn shipped_mesh_programs_bind_with_exactly_their_optional_slots() {
        let no_fault_state = ["usable", "de_east", "de_west"];
        for (name, vcs, not_declared) in [
            ("xy", 1, [&["invc", "out_queue"][..], &no_fault_state].concat()),
            ("naive_adaptive", 1, [&["invc", "out_queue"][..], &no_fault_state].concat()),
            ("west_first", 1, [&["invc"][..], &no_fault_state].concat()),
            ("nafta", 2, vec!["linkok"]),
        ] {
            let prog = shipped(name);
            let io = MeshIo::bind(&prog).unwrap();
            assert_eq!(absent(io.slots()), not_declared, "{name}");
            io.fits(&prog, 32, 32, vcs).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(entry(&prog).unwrap().params.is_empty(), "{name}");
        }
        // the exported names are the ones the table binds
        let bound = MeshIo::bind(&shipped("xy")).unwrap().slots();
        for name in [XPOS, YPOS, XDES, YDES] {
            assert!(bound.iter().any(|s| s.0 == name && s.1.is_some()), "{name}");
        }
    }

    #[test]
    fn route_c_binds_every_slot_and_its_stripped_variant_only_some() {
        for prog in [shipped("route_c"), parse(&rules_src::route_c_source(4)).unwrap()] {
            let io = CubeIo::bind(&prog).unwrap();
            assert_eq!(absent(io.slots()), Vec::<&str>::new());
            io.require_all(&prog).unwrap();
            io.fits(&prog, 4).unwrap();
        }
        let four = parse(&rules_src::route_c_source(4)).unwrap();
        let err = CubeIo::bind(&four).unwrap().fits(&four, 5).unwrap_err().to_string();
        assert!(err.contains("`diffup` must be declared as set scalar covering 0 TO 4"), "{err}");
        assert!(err.contains("Int { lo: 0, hi: 3 }"), "{err}");

        // bindable (the static lift takes it), refused by the live router
        let nft = shipped("route_c_nft");
        let io = CubeIo::bind(&nft).unwrap();
        assert_eq!(
            absent(io.slots()),
            [
                "okdirs",
                "new_state",
                "phase",
                "misr",
                "freedirs",
                "neighb_state",
                "state",
                "decide_vc",
                "update_state"
            ]
        );
        io.fits(&nft, 4).unwrap();
        let err = io.require_all(&nft).unwrap_err().to_string();
        assert!(err.contains("does not declare `okdirs`"), "{err}");
    }

    #[test]
    fn a_name_declared_differently_is_an_error_naming_it() {
        for (decl, name) in [
            ("INPUT free[dirs] IN 0 TO 3", "free"),
            ("INPUT linkok IN bool", "linkok"),
            ("INPUT out_queue[dirs, dirs] IN 0 TO 255", "out_queue"),
            ("INPUT free[0 TO 2] IN bool", "free"),
            ("INPUT diffup IN 0 TO 3", "diffup"),
            ("VARIABLE xpos IN bool", "xpos"),
        ] {
            let prog = parse(&format!("CONSTANT dirs = 0 TO 3\n{decl}\n")).unwrap();
            let err = match name {
                "diffup" => CubeIo::bind(&prog).map(|_| ()),
                _ => MeshIo::bind(&prog).map(|_| ()),
            }
            .expect_err(decl)
            .to_string();
            assert!(err.contains(&format!("`{name}` must be declared as")), "{decl}: {err}");
        }
        let prog = parse("ON f(d IN 0 TO 3) RETURNS 0 TO 15\n IF TRUE THEN RETURN(d);\nEND f;");
        assert!(entry(&prog.unwrap()).unwrap_err().to_string().contains("no parameters"));
    }

    #[test]
    fn fits_names_the_declaration_and_both_ranges() {
        let (xy, nafta) = (shipped("xy"), shipped("nafta"));
        let err = MeshIo::bind(&xy).unwrap().fits(&xy, 40, 4, 1).unwrap_err().to_string();
        assert!(
            err.contains("`xdes` must be declared as integer scalar covering 0 TO 39"),
            "{err}"
        );
        assert!(err.contains("Int { lo: 0, hi: 31 }"), "{err}");
        let err = MeshIo::bind(&nafta).unwrap().fits(&nafta, 6, 6, 3).unwrap_err().to_string();
        assert!(err.contains("`invc` must be declared as integer scalar covering 0 TO 2"), "{err}");
    }

    #[test]
    fn loads_declared_inputs_only() {
        let prog = parse(
            "CONSTANT dirs = 0 TO 3\nINPUT free[dirs] IN bool\nINPUT out_queue[dirs] IN 0 TO 255\n",
        )
        .unwrap();
        let io = MeshIo::bind(&prog).unwrap();
        io.fits(&prog, 8, 8, 1).unwrap();
        let ports = [(true, true, 3), (false, true, 400), (true, false, 0), (true, true, 7)];
        let mut im = InputMap::for_program(&prog);
        io.load(&mut im, (1, 2), 0, |d| PortInfo {
            free: ports[d].0,
            linkok: ports[d].1,
            out_queue: ports[d].2,
        });
        // free(2) is false because the link is dead even though the VC is free
        assert_eq!(im.read_input(&prog, 0, &[Value::Int(2)]).unwrap(), Value::Bool(false));
        assert_eq!(im.read_input(&prog, 0, &[Value::Int(0)]).unwrap(), Value::Bool(true));
        // out_queue saturates at 255
        assert_eq!(im.read_input(&prog, 1, &[Value::Int(1)]).unwrap(), Value::Int(255));
    }

    #[test]
    fn a_larger_cube_program_loads_a_decision_as_words() {
        // the shipped d = 6 ROUTE_C on a 4-cube: each set input holds the
        // 4-cube's directions over the domain the program declares, so no
        // cell spills to the AST walk
        let prog = shipped("route_c");
        let io = CubeIo::bind(&prog).unwrap();
        io.fits(&prog, 4).unwrap();
        let s = DirSets::new(&Hypercube::new(4), NodeId(0b0101), NodeId(0b0011), 0b1011);
        let mut im = InputMap::for_program(&prog);
        io.load_dir(&mut im, s, |d| d as u32);
        io.load_vc(&mut im, s, s.up | s.down, |v| s.ok >> v);
        let mut loaded = 0;
        for (i, decl) in prog.inputs.iter().enumerate() {
            let ks = decl.index_domains.first().map_or(1, |d| d.size(prog.sym_sizes()));
            for k in 0..ks {
                let idx: Vec<Value> = decl.index_domains.iter().map(|d| d.value_at(k)).collect();
                let Ok(v) = im.read_input(&prog, i, &idx) else { continue };
                let declared = match (decl.elem, v) {
                    (Type::Set(d), Value::Set { dom, .. }) => dom == d,
                    (Type::Scalar(d), v) => d.contains(&v, prog.sym_sizes()),
                    _ => false,
                };
                assert!(declared, "`{}`{idx:?} holds {v:?}, not a {:?}", decl.name, decl.elem);
                loaded += 1;
            }
        }
        // diffup, diffdown, okdirs, 4 queues, phase, misr, 5 × (freevc, freedirs)
        assert_eq!(loaded, 19);
    }

    #[test]
    fn return_codes_decode_once() {
        assert_eq!(decode(Value::Int(3)), Ret::Dir(3));
        assert_eq!(decode(Value::Int(11)), Ret::Dir(11));
        assert_eq!(decode(Value::Int(RET_UNROUTABLE)), Ret::Unroutable);
        assert_eq!(decode(Value::Int(RET_WAIT)), Ret::Wait);
        assert_eq!(decode(Value::Int(RET_DELIVER)), Ret::Deliver);
        assert_eq!(decode(Value::Int(12)), Ret::Unroutable);
        assert_eq!(decode(Value::Bool(true)), Ret::Unroutable);
    }
}

//! The message interface: how a host (the live routers in `ftr-core`, the
//! static lifts in `ftr-analyze`) talks to a rule program.
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
//! against the declared domains (`fits`). After that the `load*` methods
//! write one decision's inputs by index and cannot fail.

use crate::vnet::{Lane, MeshVcMode};
use ftr_rules::ast::{Program, RuleBase};
use ftr_rules::{Domain, InputMap, Machine, RegFile, Result, RuleError, Type, Value};
use ftr_topo::{Hypercube, NodeId, PortId, VcId};
use std::collections::BTreeSet;

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
const BOOL: Kind = ("bool", |t| matches!(t, Type::Scalar(Domain::Bool)));
const INT: Kind = ("integer", |t| matches!(t, Type::Scalar(Domain::Int { .. })));
const SYM: Kind = ("symbol", |t| matches!(t, Type::Scalar(Domain::Sym(_))));
const SET: Kind = ("set", |t| matches!(t, Type::Set(_)));

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

fn input(prog: &Program, name: &str, shape: Shape, kind: Kind) -> Result<Option<usize>> {
    slot(prog.inputs.iter().map(|d| (&d.name, &d.index_domains, d.elem)), name, shape, kind)
}

fn var(prog: &Program, name: &str, shape: Shape, kind: Kind) -> Result<Option<usize>> {
    slot(prog.vars.iter().map(|d| (&d.name, &d.index_domains, d.elem)), name, shape, kind)
}

fn base(prog: &Program, name: &str) -> Result<Option<usize>> {
    Ok(prog.rulebase(name).map(|(i, _)| i))
}

/// One table per interface: the struct of slots, its resolution and
/// `slots` all come from it, so a name is spelled once — as the field it
/// binds to. `$g` is the host's geometry; zeros ask for any size.
macro_rules! interface {
    ($(#[$doc:meta])* $io:ident($g:ident: $geom:ty) { $($field:ident: $resolve:ident($($arg:expr),*),)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $io {
            $(pub $field: Option<usize>,)*
        }

        impl $io {
            fn resolve(prog: &Program, $g: $geom) -> Result<Self> {
                Ok($io { $($field: $resolve(prog, stringify!($field) $(, $arg)*)?,)* })
            }

            /// Every name of the interface with the slot it bound to.
            pub fn slots(&self) -> Vec<(&'static str, Option<usize>)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

interface! {
    /// A 2-D mesh program's interface: header and per-port inputs, then
    /// the registers a host writes. Geometry: (width, height, channels).
    MeshIo(g: (usize, usize, usize)) {
        xdes: input(Scalar(g.0), INT), ydes: input(Scalar(g.1), INT), invc: input(Scalar(g.2), INT),
        free: input(Array(MESH_PORTS), BOOL), linkok: input(Array(MESH_PORTS), BOOL),
        out_queue: input(Array(MESH_PORTS), INT),
        xpos: var(Scalar(g.0), INT), ypos: var(Scalar(g.1), INT),
        usable: var(Scalar(0), SET), de_east: var(Scalar(0), BOOL), de_west: var(Scalar(0), BOOL),
    }
}

interface! {
    /// A ROUTE_C-style hypercube program's interface: inputs, the
    /// registers a host reads, the rule bases it fires. Geometry:
    /// (dimensions, channel classes).
    CubeIo(g: (usize, usize)) {
        diffup: input(Scalar(g.0), SET), diffdown: input(Scalar(g.0), SET),
        okdirs: input(Scalar(g.0), SET), cands: input(Scalar(g.0), SET),
        out_queue: input(Array(g.0), INT), new_state: input(Array(g.0), SYM),
        phase: input(Scalar(0), INT), misr: input(Scalar(0), BOOL), freevc: input(Array(g.1), BOOL),
        neighb_state: var(Array(g.0), SYM), chosen: var(Scalar(g.0), INT),
        state: var(Scalar(0), SYM),
        decide_dir: base(), decide_vc: base(), update_state: base(),
    }
}

/// Empties `im`, then defaults every input to the lowest element of its
/// domain (the empty set for sets): what an enumeration does not drive
/// reads as that.
pub fn reset_to_defaults(im: &mut InputMap, prog: &Program) {
    im.clear();
    for decl in &prog.inputs {
        let lowest = match decl.elem {
            Type::Scalar(d) => d.value_at(0),
            Type::Set(d) => Value::empty_set(d),
        };
        im.set_default(prog, &decl.name, lowest).expect("the name is declared");
    }
}

fn put(im: &mut InputMap, prog: &Program, slot: Option<usize>, idx: &[Value], v: Value) {
    if let Some(i) = slot {
        im.set_at(prog, i, idx, v).expect("bind() fixed the arity and fits() the index range");
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

impl MeshIo {
    /// Resolves the interface against `prog`: `None` for what it does not
    /// declare, an error for what it declares with another shape or kind.
    pub fn bind(prog: &Program) -> Result<Self> {
        Self::resolve(prog, (0, 0, 0))
    }

    /// The data path this program gets, derived from its own declarations:
    /// `invc` over exactly two networks is the NARA pair, anything else one
    /// network. Host and lift both ask here, so neither can be told otherwise.
    pub fn mode(&self, prog: &Program) -> MeshVcMode {
        match self.invc.map(|i| prog.inputs[i].elem.domain()) {
            Some(Domain::Int { lo: 0, hi: 1 }) => MeshVcMode::NaraPair,
            _ => MeshVcMode::SingleVc,
        }
    }

    /// Checks that the coordinates of a `width` × `height` mesh and `vcs`
    /// virtual channels stay inside the domains the program declares, and
    /// that a two-network program gets exactly its two channels.
    pub fn fits(&self, prog: &Program, width: u32, height: u32, vcs: usize) -> Result<()> {
        Self::resolve(prog, (width as usize, height as usize, vcs))?;
        if self.mode(prog) == MeshVcMode::NaraPair && vcs != 2 {
            return Err(RuleError::resolve(format!(
                "`invc` is declared over two virtual networks, so the program runs on the NARA \
                 pair data path, which needs exactly 2 virtual channels, not {vcs}"
            )));
        }
        Ok(())
    }

    /// Configuration time: loads the node's coordinates.
    pub fn init_node(&self, prog: &Program, regs: &mut RegFile, (x, y): (u32, u32)) {
        write(regs, prog, self.xpos, Value::Int(i64::from(x)));
        write(regs, prog, self.ypos, Value::Int(i64::from(y)));
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
        self.set_fault_view(prog, regs, u64::from(open), dead_ends);
        self.load(prog, im, dst, lane.vnet as usize, |d| ports[d]);
        open
    }

    /// Overwrites the fault knowledge a program's own fault bases would
    /// have accumulated: the live router has no such bases wired and
    /// reports what it sees, the static lift enumerates it.
    fn set_fault_view(&self, prog: &Program, regs: &mut RegFile, usable: u64, de: (bool, bool)) {
        if let Some(i) = self.usable {
            let dom = prog.vars[i].elem.domain();
            write(regs, prog, self.usable, Value::Set { dom, mask: usable });
        }
        write(regs, prog, self.de_east, Value::Bool(de.0));
        write(regs, prog, self.de_west, Value::Bool(de.1));
    }

    /// Writes one decision's inputs: the header fields and, per port, what
    /// `port` reports. A dead link is never `free`; `out_queue` saturates.
    fn load(
        &self,
        prog: &Program,
        im: &mut InputMap,
        dst: (u32, u32),
        invc: usize,
        port: impl Fn(usize) -> PortInfo,
    ) {
        put(im, prog, self.xdes, &[], Value::Int(i64::from(dst.0)));
        put(im, prog, self.ydes, &[], Value::Int(i64::from(dst.1)));
        put(im, prog, self.invc, &[], Value::Int(invc as i64));
        for d in 0..MESH_PORTS {
            let (p, idx) = (port(d), [Value::Int(d as i64)]);
            put(im, prog, self.free, &idx, Value::Bool(p.linkok && p.free));
            put(im, prog, self.linkok, &idx, Value::Bool(p.linkok));
            put(im, prog, self.out_queue, &idx, queue_len(p.out_queue));
        }
    }
}

fn queue_len(q: u32) -> Value {
    Value::Int(i64::from(q.min(OUT_QUEUE_MAX)))
}

/// The direction sets of one decision on a `dim`-cube, as dimension
/// bitmasks: the dimensions to correct 0 → 1, those to correct 1 → 0, and
/// those that may be taken at all (link alive, neighbour safe or the
/// destination).
#[derive(Clone, Copy, Debug)]
pub struct DirSets {
    pub dim: u32,
    pub up: u64,
    pub down: u64,
    pub ok: u64,
}

impl DirSets {
    /// The sets of the decision `cur → dst` on `cube`, given the usable
    /// dimensions `ok`.
    pub fn new(cube: &Hypercube, cur: NodeId, dst: NodeId, ok: u64) -> Self {
        let (diff, here) = (u64::from(cube.diff(cur, dst)), u64::from(cur.0));
        DirSets { dim: cube.dim(), up: diff & !here, down: diff & here, ok }
    }

    fn value(&self, mask: u64) -> Value {
        Value::Set { dom: Domain::Int { lo: 0, hi: i64::from(self.dim) - 1 }, mask }
    }
}

impl CubeIo {
    /// Resolves the interface against `prog`, like [`MeshIo::bind`].
    pub fn bind(prog: &Program) -> Result<Self> {
        Self::resolve(prog, (0, 0))
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
            return Err(RuleError::resolve(format!("the program does not declare `{name}`")));
        }
        Self::resolve(prog, (0, CUBE_VCS)).map(|_| ())
    }

    /// Step 1 inputs: the direction sets and the load of each output.
    pub fn load_dir(
        &self,
        prog: &Program,
        im: &mut InputMap,
        s: DirSets,
        q: impl Fn(usize) -> u32,
    ) {
        put(im, prog, self.diffup, &[], s.value(s.up));
        put(im, prog, self.diffdown, &[], s.value(s.down));
        put(im, prog, self.okdirs, &[], s.value(s.ok));
        for d in 0..s.dim as usize {
            put(im, prog, self.out_queue, &[Value::Int(d as i64)], queue_len(q(d)));
        }
    }

    /// Step 2 inputs, derived from step 1's candidate set: the phase and
    /// the misroute flag (both returned, for the header) and which channel
    /// classes are free.
    pub fn load_vc(
        &self,
        prog: &Program,
        im: &mut InputMap,
        s: DirSets,
        cands: u64,
        freevc: impl Fn(usize) -> bool,
    ) -> (u8, bool) {
        let (phase, misr) = (u8::from(s.up == 0), cands & (s.up | s.down) == 0);
        put(im, prog, self.cands, &[], s.value(cands));
        put(im, prog, self.phase, &[], Value::Int(i64::from(phase)));
        put(im, prog, self.misr, &[], Value::Bool(misr));
        for v in 0..CUBE_VCS {
            put(im, prog, self.freevc, &[Value::Int(v as i64)], Value::Bool(freevc(v)));
        }
        (phase, misr)
    }

    /// What step 2 decided: the output dimension it left in `chosen` and
    /// the channel class it returned; `None` for its wait code (7).
    pub fn channel(
        &self,
        prog: &Program,
        regs: &RegFile,
        ret: Option<Value>,
    ) -> Option<(usize, usize)> {
        match (regs.read(prog, self.chosen?, &[]), ret) {
            (Ok(Value::Int(port)), Some(Value::Int(vc))) if (0..CUBE_VCS as i64).contains(&vc) => {
                Some((port as usize, vc as usize))
            }
            _ => None,
        }
    }

    /// Every channel the two steps can choose for one decision with sets
    /// `s`, whatever the queues and free channel classes hold: `decide_dir`
    /// once, then `decide_vc` with each candidate as the unique queue
    /// minimum and each channel class alone free. Every fire starts from
    /// the registers `regs` and the inputs' defaults. Returns the channels
    /// in order and the cascades fired; nothing unless both rule bases are
    /// bound. The live host's `relation` and the static lift both ask here.
    pub fn channels(
        &self,
        machine: &mut Machine,
        im: &mut InputMap,
        regs: &RegFile,
        s: DirSets,
    ) -> (Vec<(PortId, VcId)>, u64) {
        let (Some(decide_dir), Some(decide_vc)) = (self.decide_dir, self.decide_vc) else {
            return (Vec::new(), 0);
        };
        let mut fired = 0;
        let mut fire = |machine: &mut Machine, base: usize, im: &InputMap| {
            fired += 1;
            machine.regs_mut().clone_from(regs);
            machine.fire_base(base, &[], im).ok().and_then(|f| f.last_return)
        };
        // step 1: decide_dir is deterministic in the direction sets
        reset_to_defaults(im, machine.program());
        self.load_dir(machine.program(), im, s, |_| 0);
        let cands = match fire(machine, decide_dir, im) {
            Some(Value::Set { mask, .. }) => mask,
            _ => 0,
        };
        let mut out = BTreeSet::new();
        // step 2: decide_vc across argmin positions (one per candidate
        // output) × free-channel-class singletons
        for qmin in (0..s.dim as usize).filter(|q| cands & (1 << q) != 0) {
            self.load_dir(machine.program(), im, s, |d| if d == qmin { 0 } else { 9 });
            for fv in 0..CUBE_VCS {
                self.load_vc(machine.program(), im, s, cands, |v| v == fv);
                let ret = fire(machine, decide_vc, im);
                let chan = self.channel(machine.program(), machine.regs(), ret);
                let chan = chan.filter(|&(p, _)| p < s.dim as usize && cands & (1 << p) != 0);
                out.extend(chan.map(|(port, vc)| (PortId(port as u8), VcId(vc as u8))));
            }
        }
        (out.into_iter().collect(), fired)
    }

    /// `update_state(dir)` inputs: the neighbour across `dir` reported
    /// state `reported`; every other dimension reads symbol 0 (`safe`).
    pub fn load_update(
        &self,
        prog: &Program,
        im: &mut InputMap,
        dim: u32,
        dir: usize,
        reported: u32,
    ) {
        let Some(Type::Scalar(Domain::Sym(ty))) = self.new_state.map(|i| prog.inputs[i].elem)
        else {
            return;
        };
        for d in 0..dim as usize {
            let idx = if d == dir { reported } else { 0 };
            put(im, prog, self.new_state, &[Value::Int(d as i64)], Value::Sym { ty, idx });
        }
    }

    /// Symbol index held by register `slot` (`neighb_state` at `[d]`,
    /// `state` at `[]`); 0 (`safe`) when the program has no such register.
    pub fn sym(prog: &Program, regs: &RegFile, slot: Option<usize>, idx: &[Value]) -> u32 {
        match slot.map(|i| regs.read(prog, i, idx)) {
            Some(Ok(Value::Sym { idx, .. })) => idx,
            _ => 0,
        }
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
                "cands",
                "new_state",
                "phase",
                "misr",
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
        let mut im = InputMap::new();
        io.load(&prog, &mut im, (1, 2), 0, |d| PortInfo {
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

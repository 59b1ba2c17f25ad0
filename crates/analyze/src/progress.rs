//! FTR013 — the progress lint.
//!
//! A fault-tolerant router that never drops messages can still fail to
//! make progress: if the turns its rules permit close a cycle, a ring of
//! messages can hold each other's channels and wait forever (livelock /
//! deadlock at the routing-relation level). This module decides, per
//! program, one of:
//!
//! * **Proved** — an abstract *turn screen* shows at least one turn of
//!   every routing cycle direction is impossible, so no message ring can
//!   close (the classic turn-model argument, checked against the actual
//!   rules rather than against the algorithm the author intended);
//! * **Livelock** — the screen found a complete rotation and a concrete
//!   four-message ring on a 2×2 square was *validated against the
//!   reference evaluator*: every message provably waits for the channel
//!   the next one holds, under legal `free`/`linkok` inputs;
//! * **Inconclusive** — the screen could not exclude a rotation but no
//!   concrete witness validated (reported as a note, not a warning);
//! * **NotApplicable** — the program's entry base is not a
//!   `route_msg()`-shaped mesh router (e.g. the NAFTA event pipeline or
//!   the hypercube router), so the mesh turn model does not apply.
//!
//! The screen works on sign states `(sx, sy)` where `sx` abstracts
//! `xpos ? xdes` into `{<, =, >}` (and `sy` likewise): a turn `d1 → d2`
//! is possible iff some sign state can return `d1` and some successor
//! state (after moving one hop along `d1`) can return `d2`. Return-value
//! abstraction goes through [`crate::absint`], with `argmin`/`argmax`
//! candidate sets kept as exact bitmasks so adaptive-choice rules do not
//! smear into interval hulls.

use crate::absint::{self, AbsEnv, AbsVal, TopoFacts};
use ftr_algos::rule_io::{self, MeshIo, Ret};
use ftr_rules::ast::{BinOp, Builtin, Command, Expr, Program, Ref};
use ftr_rules::env::{InputMap, RegFile};
use ftr_rules::eval::fire_reference;
use ftr_rules::value::{Domain, Type, Value};
use ftr_rules::CompiledProgram;

/// Direction encoding shared with the mesh router convention.
const E: u8 = 0;
const W: u8 = 1;
const N: u8 = 2;
const S: u8 = 3;

const DIR_NAMES: [&str; 4] = ["east", "west", "north", "south"];

/// Outcome of the progress check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressVerdict {
    /// No rotation of turns can close: rings are impossible.
    Proved,
    /// A validated four-message ring witness exists.
    Livelock,
    /// The screen is positive but no witness validated.
    Inconclusive,
    /// The program is not a mesh `route_msg()` router.
    NotApplicable,
}

/// One message of a validated livelock ring.
#[derive(Clone, Debug)]
pub struct RingMessage {
    /// Node the message is parked at.
    pub node: (i64, i64),
    /// Node it came from (tail of the channel it holds).
    pub prev: (i64, i64),
    /// Direction of the channel it occupies (`prev → node`).
    pub holds: u8,
    /// Direction it asks for at `node` (the next message's channel).
    pub wants: u8,
    /// Its destination.
    pub dst: (i64, i64),
}

/// Result of [`check_progress`].
#[derive(Clone, Debug)]
pub struct ProgressReport {
    /// The verdict.
    pub verdict: ProgressVerdict,
    /// Entry rule base analyzed, when applicable.
    pub rulebase: Option<String>,
    /// Which rotation closed ("clockwise"/"counter-clockwise"), if any.
    pub rotation: Option<&'static str>,
    /// The validated ring (empty unless [`ProgressVerdict::Livelock`]).
    pub witness: Vec<RingMessage>,
    /// Human-readable detail.
    pub detail: String,
}

impl ProgressReport {
    /// One-paragraph description suitable for a diagnostic message.
    pub fn describe(&self) -> String {
        match self.verdict {
            ProgressVerdict::Livelock => {
                let mut s = format!(
                    "progress violation: a {} four-message ring validated against \
                     the reference evaluator — ",
                    self.rotation.unwrap_or("closed")
                );
                for (i, m) in self.witness.iter().enumerate() {
                    if i > 0 {
                        s.push_str("; ");
                    }
                    s.push_str(&format!(
                        "message at ({},{}) for ({},{}) holds the {} channel from \
                         ({},{}) and waits {}",
                        m.node.0,
                        m.node.1,
                        m.dst.0,
                        m.dst.1,
                        DIR_NAMES[m.holds as usize],
                        m.prev.0,
                        m.prev.1,
                        DIR_NAMES[m.wants as usize]
                    ));
                }
                s.push_str(" — each waits on the channel the next holds, forever");
                s
            }
            _ => self.detail.clone(),
        }
    }
}

fn report(verdict: ProgressVerdict, rulebase: Option<String>, detail: &str) -> ProgressReport {
    ProgressReport { verdict, rulebase, rotation: None, witness: Vec::new(), detail: detail.into() }
}

/// The mesh-router shape the lint understands.
struct MeshShape {
    entry: usize,
    xpos: usize,
    ypos: usize,
    xdes: usize,
    ydes: usize,
    free: usize,
    linkok: Option<usize>,
    /// Effective coordinate bounds per axis (declared ∧ topology).
    xb: (i64, i64),
    yb: (i64, i64),
}

fn int_bound(t: Type) -> Option<(i64, i64)> {
    match t {
        Type::Scalar(Domain::Int { lo, hi }) => Some((lo, hi)),
        _ => None,
    }
}

fn detect_shape(prog: &Program, topo: &TopoFacts) -> Option<MeshShape> {
    let entry = 0;
    let (rlo, rhi) = int_bound(rule_io::entry(prog).ok()?.returns?)?;
    if rlo > 0 || rhi < rule_io::RET_DELIVER {
        return None;
    }
    let io = MeshIo::bind(prog).ok()?;
    // a bound `free` is a bool array over (at least) the four directions
    let (xpos, ypos, xdes, ydes, free) = (io.xpos?, io.ypos?, io.xdes?, io.ydes?, io.free?);
    let clamp = |name: &str, b: (i64, i64)| -> (i64, i64) {
        match topo.int_bounds.iter().find(|(n, _, _)| n == name) {
            Some(&(_, lo, hi)) => (b.0.max(lo), b.1.min(hi)),
            None => b,
        }
    };
    let meet2 = |a: (i64, i64), b: (i64, i64)| (a.0.max(b.0), a.1.min(b.1));
    let xb = meet2(
        clamp(rule_io::XPOS, int_bound(prog.vars[xpos].elem)?),
        clamp(rule_io::XDES, int_bound(prog.inputs[xdes].elem)?),
    );
    let yb = meet2(
        clamp(rule_io::YPOS, int_bound(prog.vars[ypos].elem)?),
        clamp(rule_io::YDES, int_bound(prog.inputs[ydes].elem)?),
    );
    Some(MeshShape { entry, xpos, ypos, xdes, ydes, free, linkok: io.linkok, xb, yb })
}

/// Sign of `pos ? des` on one axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sign {
    Lt,
    Eq,
    Gt,
}
const SIGNS: [Sign; 3] = [Sign::Lt, Sign::Eq, Sign::Gt];

fn sign_expr(var: usize, input: usize, s: Sign) -> Expr {
    let op = match s {
        Sign::Lt => BinOp::Lt,
        Sign::Eq => BinOp::Eq,
        Sign::Gt => BinOp::Gt,
    };
    Expr::Bin(op, Box::new(Expr::Ref(Ref::Var(var))), Box::new(Expr::Ref(Ref::Input(input))))
}

/// Sign transitions of the moved axis after one hop in `dir`
/// (`towards` = E on x, N on y; `away` = W on x, S on y).
fn post_signs(s: Sign, towards: bool) -> &'static [Sign] {
    match (s, towards) {
        (Sign::Lt, true) => &[Sign::Lt, Sign::Eq],
        (Sign::Eq, true) => &[Sign::Gt],
        (Sign::Gt, true) => &[Sign::Gt],
        (Sign::Lt, false) => &[Sign::Lt],
        (Sign::Eq, false) => &[Sign::Lt],
        (Sign::Gt, false) => &[Sign::Gt, Sign::Eq],
    }
}

/// Can the abstract value of `ret` under `env` be direction `d`?
/// `argmin`/`argmax` keep their candidate set exact instead of the
/// interval hull, which is what separates oblivious from adaptive rules.
fn can_return_dir(prog: &Program, env: &AbsEnv, ret: &Expr, d: u8) -> bool {
    if let Expr::Call { builtin: Builtin::ArgMin(_) | Builtin::ArgMax(_), args } = ret {
        if let Some(AbsVal::Set { dom: Domain::Int { lo, .. }, may, .. }) =
            args.first().map(|a| absint::abs_eval(prog, env, a))
        {
            let bit = i64::from(d) - lo;
            return (0..64).contains(&bit) && may & (1u64 << bit) != 0;
        }
    }
    match absint::abs_eval(prog, env, ret) {
        AbsVal::Int { lo, hi } => lo <= i64::from(d) && i64::from(d) <= hi,
        _ => true,
    }
}

fn rule_return(prog: &Program, rb: usize, rule: usize) -> Option<&Expr> {
    prog.rulebases[rb].rules[rule].conclusion.iter().find_map(|c| match c {
        Command::Return(e) => Some(e),
        _ => None,
    })
}

/// The turn screen plus witness validation.
pub fn check_progress(compiled: &CompiledProgram, topo: &TopoFacts) -> ProgressReport {
    let prog = &compiled.prog;
    let Some(shape) = detect_shape(prog, topo) else {
        return report(
            ProgressVerdict::NotApplicable,
            None,
            "entry base is not a route_msg()-shaped mesh router",
        );
    };
    let base_name = prog.rulebases[shape.entry].name.clone();
    let cb = &compiled.bases[shape.entry];
    let mono = absint::monotone_facts(prog);
    let seed = AbsEnv::seed(prog, shape.entry, topo, &mono);

    // per sign state: the refined environment (None = state impossible,
    // e.g. Gt on a degenerate axis)
    let mut envs: Vec<Vec<Option<AbsEnv>>> = Vec::new();
    for &sx in &SIGNS {
        let mut row = Vec::new();
        for &sy in &SIGNS {
            let ex = sign_expr(shape.xpos, shape.xdes, sx);
            let ey = sign_expr(shape.ypos, shape.ydes, sy);
            row.push(absint::assume_all(prog, &seed, &[(&ex, true), (&ey, true)]));
        }
        envs.push(row);
    }

    // returnable[state][dir]: some rule can win under the state and its
    // return value can be `dir`
    let mut returnable = [[[false; 4]; 3]; 3];
    for (ix, _) in SIGNS.iter().enumerate() {
        for (iy, _) in SIGNS.iter().enumerate() {
            let Some(env) = &envs[ix][iy] else { continue };
            for ri in 0..cb.premises.len() {
                let mut items: Vec<(&Expr, bool)> = vec![(&cb.premises[ri], true)];
                for p in cb.premises.iter().take(ri) {
                    items.push((p, false));
                }
                let Some(refined) = absint::assume_all(prog, env, &items) else { continue };
                let Some(ret) = rule_return(prog, shape.entry, ri) else { continue };
                for d in 0..4u8 {
                    if !returnable[ix][iy][d as usize] && can_return_dir(prog, &refined, ret, d) {
                        returnable[ix][iy][d as usize] = true;
                    }
                }
            }
        }
    }

    let idx = |s: Sign| SIGNS.iter().position(|&x| x == s).unwrap();
    let turn_possible = |d1: u8, d2: u8| -> bool {
        for &sx in &SIGNS {
            for &sy in &SIGNS {
                if !returnable[idx(sx)][idx(sy)][d1 as usize] {
                    continue;
                }
                // one hop along d1 changes one axis's sign
                let (nxs, nys): (&[Sign], &[Sign]) = match d1 {
                    E => (post_signs(sx, true), &[sy]),
                    W => (post_signs(sx, false), &[sy]),
                    N => (&[sx], post_signs(sy, true)),
                    _ => (&[sx], post_signs(sy, false)),
                };
                for &nx in nxs {
                    for &ny in nys {
                        if returnable[idx(nx)][idx(ny)][d2 as usize] {
                            return true;
                        }
                    }
                }
            }
        }
        false
    };

    // a ring needs all four turns of one rotation
    let ccw: [(u8, u8); 4] = [(E, N), (N, W), (W, S), (S, E)];
    let cw: [(u8, u8); 4] = [(E, S), (S, W), (W, N), (N, E)];
    let mut open_rotations = Vec::new();
    for (name, turns) in [("counter-clockwise", ccw), ("clockwise", cw)] {
        if turns.iter().all(|&(a, b)| turn_possible(a, b)) {
            open_rotations.push((name, turns));
        }
    }
    if open_rotations.is_empty() {
        return report(
            ProgressVerdict::Proved,
            Some(base_name),
            "turn screen: both ring rotations contain an impossible turn — \
             no message ring can close",
        );
    }

    // witness phase: a 2x2 square needs a 4-wide coordinate window
    if shape.xb.1 - shape.xb.0 < 3 || shape.yb.1 - shape.yb.0 < 3 {
        return ProgressReport {
            verdict: ProgressVerdict::Inconclusive,
            rulebase: Some(base_name),
            rotation: Some(open_rotations[0].0),
            witness: Vec::new(),
            detail: format!(
                "turn screen could not exclude the {} rotation, and the \
                 coordinate space is too small for a ring witness",
                open_rotations[0].0
            ),
        };
    }
    let (ox, oy) = (shape.xb.0, shape.yb.0);
    for (name, _) in &open_rotations {
        let ring = ring_witness(name, ox, oy);
        if validate_witness(prog, &shape, &ring) {
            return ProgressReport {
                verdict: ProgressVerdict::Livelock,
                rulebase: Some(base_name),
                rotation: Some(name),
                witness: ring,
                detail: String::new(),
            };
        }
    }
    ProgressReport {
        verdict: ProgressVerdict::Inconclusive,
        rulebase: Some(base_name),
        rotation: Some(open_rotations[0].0),
        witness: Vec::new(),
        detail: format!(
            "turn screen could not exclude the {} rotation, but no concrete \
             ring witness validated against the reference evaluator — \
             progress unproven",
            open_rotations[0].0
        ),
    }
}

/// The canonical four-message ring on the unit square, offset to the
/// program's coordinate window.
fn ring_witness(rotation: &str, ox: i64, oy: i64) -> Vec<RingMessage> {
    let at = |x: i64, y: i64| (ox + x, oy + y);
    if rotation == "counter-clockwise" {
        // A=(1,1) -E-> B=(2,1) -N-> C=(2,2) -W-> D=(1,2) -S-> A
        vec![
            RingMessage { node: at(2, 1), prev: at(1, 1), holds: E, wants: N, dst: at(2, 3) },
            RingMessage { node: at(2, 2), prev: at(2, 1), holds: N, wants: W, dst: at(0, 2) },
            RingMessage { node: at(1, 2), prev: at(2, 2), holds: W, wants: S, dst: at(1, 0) },
            RingMessage { node: at(1, 1), prev: at(1, 2), holds: S, wants: E, dst: at(2, 1) },
        ]
    } else {
        // A=(1,2) -E-> B=(2,2) -S-> C=(2,1) -W-> D=(1,1) -N-> A
        vec![
            RingMessage { node: at(2, 2), prev: at(1, 2), holds: E, wants: S, dst: at(2, 0) },
            RingMessage { node: at(2, 1), prev: at(2, 2), holds: S, wants: W, dst: at(0, 1) },
            RingMessage { node: at(1, 1), prev: at(2, 1), holds: W, wants: N, dst: at(1, 3) },
            RingMessage { node: at(1, 2), prev: at(1, 1), holds: N, wants: E, dst: at(2, 2) },
        ]
    }
}

/// Fires the entry base once with concrete coordinates and a given
/// `free` bitmask (`linkok` all true), via the reference evaluator.
fn run_router(
    prog: &Program,
    shape: &MeshShape,
    inputs: &mut InputMap,
    node: (i64, i64),
    dst: (i64, i64),
    free_mask: u8,
) -> Option<Ret> {
    let mut regs = RegFile::new(prog);
    regs.write(prog, shape.xpos, &[], Value::Int(node.0)).ok()?;
    regs.write(prog, shape.ypos, &[], Value::Int(node.1)).ok()?;
    inputs.clear();
    inputs.set_at(prog, shape.xdes, &[], Value::Int(dst.0)).ok()?;
    inputs.set_at(prog, shape.ydes, &[], Value::Int(dst.1)).ok()?;
    for d in 0..4i64 {
        let v = Value::Bool(free_mask & (1 << d) != 0);
        inputs.set_at(prog, shape.free, &[Value::Int(d)], v).ok()?;
    }
    if let Some(lk) = shape.linkok {
        // every declared index, not just the four directions
        let [Domain::Int { lo, hi }] = prog.inputs[lk].index_domains[..] else { return None };
        for d in lo..=hi {
            inputs.set_at(prog, lk, &[Value::Int(d)], Value::Bool(true)).ok()?;
        }
    }
    let out = fire_reference(prog, shape.entry, &[], &mut regs, &*inputs).ok()?;
    out.returned.map(rule_io::decode)
}

/// A witness is valid when, for every message: (1) with its wanted
/// channel busy and everything else free it *waits*; (2) with everything
/// free it takes exactly the wanted channel; (3) at its previous node
/// some legal `free` configuration (with the held channel free) actually
/// routed it onto the channel it holds.
fn validate_witness(prog: &Program, shape: &MeshShape, ring: &[RingMessage]) -> bool {
    let mut inputs = InputMap::new();
    let mut run = |node, dst, free_mask| run_router(prog, shape, &mut inputs, node, dst, free_mask);
    for m in ring {
        let busy_want = 0x0f & !(1u8 << m.wants);
        if run(m.node, m.dst, busy_want) != Some(Ret::Wait) {
            return false;
        }
        if run(m.node, m.dst, 0x0f) != Some(Ret::Dir(m.wants)) {
            return false;
        }
        let inbound_ok = (0u8..16).any(|mask| {
            mask & (1 << m.holds) != 0 && run(m.prev, m.dst, mask) == Some(Ret::Dir(m.holds))
        });
        if !inbound_ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_rules::{compile, parse, CompileOptions};

    fn compiled(src: &str) -> CompiledProgram {
        compile(&parse(src).unwrap(), &CompileOptions::default()).unwrap()
    }

    #[test]
    fn non_mesh_program_is_not_applicable() {
        let c = compiled(
            "VARIABLE n IN 0 TO 3 INIT 0\n\
             ON f() RETURNS 0 TO 3\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        );
        let r = check_progress(&c, &TopoFacts::none());
        assert_eq!(r.verdict, ProgressVerdict::NotApplicable);
    }

    #[test]
    fn post_sign_transitions() {
        assert_eq!(post_signs(Sign::Lt, true), &[Sign::Lt, Sign::Eq]);
        assert_eq!(post_signs(Sign::Eq, true), &[Sign::Gt]);
        assert_eq!(post_signs(Sign::Gt, false), &[Sign::Gt, Sign::Eq]);
    }
}

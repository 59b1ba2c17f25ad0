//! Forward abstract interpretation over compiled rule programs.
//!
//! The ARON table compiler (ftr-rules) reasons *propositionally*: every
//! atom becomes an independent feature bit, so the table contains entries
//! for physically impossible combinations (`n < 2 AND n > 5` gets a
//! feature-space cell even though no `n` satisfies it). This module adds
//! the semantic layer: each register, input and parameter carries an
//! **abstract value** — an integer interval, a symbol/boolean
//! possibility mask, or a must/may set pair — seeded from the declared
//! domains, optional topology facts ([`TopoFacts`]) and the monotone
//! fault-state invariants the program maintains, and guards are checked
//! for satisfiability by narrowing those values through the guard's
//! atoms.
//!
//! Everything here is a *may*-analysis: [`sat`] answering `false` is a
//! proof of unsatisfiability (the lints and the optimizer only act on
//! that direction); answering `true` just means the analysis could not
//! refute the guard. The same engine backs the FTR009–FTR012 lints, the
//! progress lint (FTR013, see [`crate::progress`]) and the certified
//! optimizer ([`crate::opt`]), whose certificates re-validate against
//! facts recomputed here.

use ftr_algos::rule_io::{XDES, XPOS, YDES, YPOS};
use ftr_rules::ast::{BinOp, Builtin, Command, Expr, IndexedRef, Program, Ref, UnOp};
use ftr_rules::value::{Domain, Type, Value};
use ftr_rules::CompiledProgram;
use std::collections::{HashMap, HashSet};

/// Branch budget of one satisfiability query. Disjunctions split the
/// environment; when the budget is exhausted the query conservatively
/// answers "satisfiable".
const SAT_BUDGET: u32 = 4096;

/// An abstract value: the over-approximated set of runtime values an
/// expression can take.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbsVal {
    /// Integers in `[lo, hi]`; empty (bottom) iff `lo > hi`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Symbols of type `ty` whose index bit is set in `mask`; bottom iff
    /// `mask == 0`.
    Sym {
        /// Symbol-type index.
        ty: usize,
        /// Possibility bitmask over symbol indices.
        mask: u64,
    },
    /// Booleans: which truth values are possible; bottom iff neither.
    Bool {
        /// `false` is possible.
        can_f: bool,
        /// `true` is possible.
        can_t: bool,
    },
    /// Sets over `dom`: every bit of `must` is definitely a member, no
    /// bit outside `may` can be one. Bottom iff `must & !may != 0`.
    Set {
        /// Element domain.
        dom: Domain,
        /// Definite members.
        must: u64,
        /// Possible members.
        may: u64,
    },
    /// Unknown value of unknown kind (top).
    Any,
}

impl AbsVal {
    /// Full abstraction of a scalar domain.
    pub fn from_domain(prog: &Program, d: Domain) -> AbsVal {
        match d {
            Domain::Int { lo, hi } => AbsVal::Int { lo, hi },
            Domain::Sym(t) => AbsVal::Sym { ty: t, mask: low_mask(prog.sym_size(t) as u64) },
            Domain::Bool => AbsVal::Bool { can_f: true, can_t: true },
        }
    }

    /// Full abstraction of a declared type (scalar or set).
    pub fn from_type(prog: &Program, t: Type) -> AbsVal {
        match t {
            Type::Scalar(d) => AbsVal::from_domain(prog, d),
            Type::Set(d) => {
                AbsVal::Set { dom: d, must: 0, may: low_mask(d.size(prog.sym_sizes())) }
            }
        }
    }

    /// Exact abstraction of one concrete value.
    pub fn singleton(v: Value) -> AbsVal {
        match v {
            Value::Int(x) => AbsVal::Int { lo: x, hi: x },
            Value::Sym { ty, idx } => AbsVal::Sym { ty, mask: 1u64 << idx },
            Value::Bool(b) => AbsVal::Bool { can_f: !b, can_t: b },
            Value::Set { dom, mask } => AbsVal::Set { dom, must: mask, may: mask },
        }
    }

    /// True if no concrete value is represented.
    pub fn is_bottom(&self) -> bool {
        match *self {
            AbsVal::Int { lo, hi } => lo > hi,
            AbsVal::Sym { mask, .. } => mask == 0,
            AbsVal::Bool { can_f, can_t } => !can_f && !can_t,
            AbsVal::Set { must, may, .. } => must & !may != 0,
            AbsVal::Any => false,
        }
    }

    /// The single concrete value, if the abstraction pins one down.
    pub fn as_const(&self) -> Option<Value> {
        match *self {
            AbsVal::Int { lo, hi } if lo == hi => Some(Value::Int(lo)),
            AbsVal::Sym { ty, mask } if mask.count_ones() == 1 => {
                Some(Value::Sym { ty, idx: mask.trailing_zeros() })
            }
            AbsVal::Bool { can_f: true, can_t: false } => Some(Value::Bool(false)),
            AbsVal::Bool { can_f: false, can_t: true } => Some(Value::Bool(true)),
            AbsVal::Set { dom, must, may } if must == may => Some(Value::Set { dom, mask: must }),
            _ => None,
        }
    }

    /// The definite truth value, for boolean abstractions.
    pub fn truth(&self) -> Option<bool> {
        match *self {
            AbsVal::Bool { can_f: false, can_t: true } => Some(true),
            AbsVal::Bool { can_f: true, can_t: false } => Some(false),
            _ => None,
        }
    }

    /// Least upper bound. Incompatible kinds widen to [`AbsVal::Any`].
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (*self, *other) {
            (a, b) if a.is_bottom() => b,
            (a, b) if b.is_bottom() => a,
            (AbsVal::Int { lo: a, hi: b }, AbsVal::Int { lo: c, hi: d }) => {
                AbsVal::Int { lo: a.min(c), hi: b.max(d) }
            }
            (AbsVal::Sym { ty: t, mask: a }, AbsVal::Sym { ty: u, mask: b }) if t == u => {
                AbsVal::Sym { ty: t, mask: a | b }
            }
            (AbsVal::Bool { can_f: a, can_t: b }, AbsVal::Bool { can_f: c, can_t: d }) => {
                AbsVal::Bool { can_f: a || c, can_t: b || d }
            }
            (
                AbsVal::Set { dom, must: am, may: ay },
                AbsVal::Set { dom: d2, must: bm, may: by },
            ) if dom == d2 => AbsVal::Set { dom, must: am & bm, may: ay | by },
            _ => AbsVal::Any,
        }
    }

    /// Greatest lower bound; `None` when the result is empty (the two
    /// abstractions are contradictory) or the kinds are incomparable
    /// (in which case the caller keeps its own value).
    pub fn meet(&self, other: &AbsVal) -> Option<AbsVal> {
        let met = match (*self, *other) {
            (AbsVal::Any, b) => b,
            (a, AbsVal::Any) => a,
            (AbsVal::Int { lo: a, hi: b }, AbsVal::Int { lo: c, hi: d }) => {
                AbsVal::Int { lo: a.max(c), hi: b.min(d) }
            }
            (AbsVal::Sym { ty: t, mask: a }, AbsVal::Sym { ty: u, mask: b }) if t == u => {
                AbsVal::Sym { ty: t, mask: a & b }
            }
            (AbsVal::Bool { can_f: a, can_t: b }, AbsVal::Bool { can_f: c, can_t: d }) => {
                AbsVal::Bool { can_f: a && c, can_t: b && d }
            }
            (
                AbsVal::Set { dom, must: am, may: ay },
                AbsVal::Set { dom: d2, must: bm, may: by },
            ) if dom == d2 => AbsVal::Set { dom, must: am | bm, may: ay & by },
            // incomparable kinds: no refinement, but no contradiction either
            (a, _) => a,
        };
        if met.is_bottom() {
            None
        } else {
            Some(met)
        }
    }
}

fn low_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bitmask of domain ordinals a scalar abstraction can take, or `None`
/// when unknown / not representable in 64 bits.
fn scalar_bits(a: &AbsVal, dom: Domain) -> Option<u64> {
    match (*a, dom) {
        (AbsVal::Int { lo, hi }, Domain::Int { lo: dlo, hi: dhi }) => {
            let lo = lo.max(dlo);
            let hi = hi.min(dhi);
            if lo > hi || (dhi - dlo) >= 64 {
                return (lo > hi).then_some(0);
            }
            let mut m = 0u64;
            for v in lo..=hi {
                m |= 1u64 << (v - dlo);
            }
            Some(m)
        }
        (AbsVal::Sym { ty, mask }, Domain::Sym(t)) if ty == t => Some(mask),
        (AbsVal::Bool { can_f, can_t }, Domain::Bool) => {
            Some(u64::from(can_f) | (u64::from(can_t) << 1))
        }
        _ => None,
    }
}

/// Scalar abstraction of a set of domain ordinals.
fn bits_to_scalar(mask: u64, dom: Domain) -> AbsVal {
    match dom {
        Domain::Int { lo, .. } => {
            if mask == 0 {
                AbsVal::Int { lo: 1, hi: 0 }
            } else {
                AbsVal::Int {
                    lo: lo + mask.trailing_zeros() as i64,
                    hi: lo + (63 - mask.leading_zeros() as i64),
                }
            }
        }
        Domain::Sym(t) => AbsVal::Sym { ty: t, mask },
        Domain::Bool => AbsVal::Bool { can_f: mask & 1 != 0, can_t: mask & 2 != 0 },
    }
}

/// Topology invariants the host guarantees, by declared name.
///
/// The router hardware writes node coordinates and destination headers;
/// on a `w × h` mesh they never leave `[0, w-1] × [0, h-1]` even though
/// the program declares a generous `0 TO maxc`. Seeding these bounds
/// makes boundary-dependent rules analyzable.
#[derive(Clone, Debug)]
pub struct TopoFacts {
    /// `(name, lo, hi)` — applied to any register or input of that name.
    pub int_bounds: Vec<(String, i64, i64)>,
    /// Registers the host writes directly between decisions (mesh
    /// coordinates by convention). They are never INIT-pinned: any value
    /// of the declared domain (clamped by `int_bounds`) may appear.
    pub host_written: Vec<String>,
}

impl Default for TopoFacts {
    fn default() -> TopoFacts {
        TopoFacts { int_bounds: Vec::new(), host_written: vec![XPOS.into(), YPOS.into()] }
    }
}

impl TopoFacts {
    /// No topology knowledge: declared domains only (mesh coordinates
    /// still count as host-written).
    pub fn none() -> TopoFacts {
        TopoFacts::default()
    }

    /// Mesh coordinate bounds for the `xpos/ypos/xdes/ydes` convention.
    pub fn mesh(width: u32, height: u32) -> TopoFacts {
        TopoFacts {
            int_bounds: vec![
                (XPOS.into(), 0, i64::from(width) - 1),
                (XDES.into(), 0, i64::from(width) - 1),
                (YPOS.into(), 0, i64::from(height) - 1),
                (YDES.into(), 0, i64::from(height) - 1),
            ],
            ..TopoFacts::default()
        }
    }

    /// Is `name` a register the host writes directly?
    pub fn is_host_written(&self, name: &str) -> bool {
        self.host_written.iter().any(|h| h == name)
    }

    fn bound_for(&self, name: &str) -> Option<(i64, i64)> {
        self.int_bounds.iter().find(|(n, _, _)| n == name).map(|&(_, lo, hi)| (lo, hi))
    }
}

/// How the program's own writes can move a register between decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monotonicity {
    /// Never written (holds its INIT value unless the host intervenes).
    NeverWritten,
    /// Set register that only ever gains elements.
    GrowingSet,
    /// Set register that only ever loses elements.
    ShrinkingSet,
    /// Integer register that never decreases.
    NonDecreasing,
    /// Integer register that never increases.
    NonIncreasing,
    /// No direction can be established.
    Unknown,
}

/// The abstract environment: one abstraction per register, input and
/// parameter, plus term-keyed refinements accumulated while assuming a
/// guard. Indexed registers/inputs are cell-summarized (one abstraction
/// covers every cell); term refinements are keyed on the syntactic
/// expression, which is sound within a single guard because equal terms
/// denote equal values under one valuation.
#[derive(Clone, Debug)]
pub struct AbsEnv {
    /// Per register (indexed like `Program::vars`).
    pub vars: Vec<AbsVal>,
    /// Per input (indexed like `Program::inputs`).
    pub inputs: Vec<AbsVal>,
    /// Per parameter of the rule base under analysis.
    pub params: Vec<AbsVal>,
    terms: HashMap<Expr, AbsVal>,
    /// Ordering knowledge between term pairs: bit0 = `l < r` possible,
    /// bit1 = `l = r` possible, bit2 = `l > r` possible. Intervals alone
    /// cannot express `xpos < xdes` over two free slots; this can.
    rels: HashMap<(Expr, Expr), u8>,
}

/// Possible-orderings bitset for one assumed comparison.
fn rel_of(op: BinOp) -> u8 {
    match op {
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Ge => 0b110,
        BinOp::Gt => 0b100,
        _ => 0b111,
    }
}

/// Mirrors a relation bitset to the swapped operand order.
fn rel_flip(bits: u8) -> u8 {
    (bits & 0b010) | ((bits & 0b001) << 2) | ((bits & 0b100) >> 2)
}

impl AbsEnv {
    /// Seeds the environment for one rule base: declared domains, meet
    /// with topology bounds, meet with monotonicity-derived invariants.
    pub fn seed(prog: &Program, rb_idx: usize, topo: &TopoFacts, mono: &[Monotonicity]) -> AbsEnv {
        let clamp = |name: &str, a: AbsVal| -> AbsVal {
            match (topo.bound_for(name), a) {
                (Some((lo, hi)), AbsVal::Int { lo: a, hi: b }) => {
                    AbsVal::Int { lo: a.max(lo), hi: b.min(hi) }
                }
                (_, a) => a,
            }
        };
        let vars = prog
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut a = clamp(&v.name, AbsVal::from_type(prog, v.elem));
                if topo.is_host_written(&v.name) {
                    // the host may store any (clamped) domain value at any
                    // time, so INIT-relative invariants do not hold
                    return a;
                }
                // monotone invariants relative to INIT hold across every
                // decision epoch: a growing set always contains its INIT
                // elements, a non-decreasing counter never drops below it
                match (mono.get(i), v.init, a) {
                    (Some(Monotonicity::NeverWritten), init, _) => a = AbsVal::singleton(init),
                    (
                        Some(Monotonicity::GrowingSet),
                        Value::Set { mask, .. },
                        AbsVal::Set { dom, must, may },
                    ) => a = AbsVal::Set { dom, must: must | mask, may },
                    (
                        Some(Monotonicity::ShrinkingSet),
                        Value::Set { mask, .. },
                        AbsVal::Set { dom, must, may },
                    ) => a = AbsVal::Set { dom, must, may: may & mask },
                    (
                        Some(Monotonicity::NonDecreasing),
                        Value::Int(init),
                        AbsVal::Int { lo, hi },
                    ) => a = AbsVal::Int { lo: lo.max(init), hi },
                    (
                        Some(Monotonicity::NonIncreasing),
                        Value::Int(init),
                        AbsVal::Int { lo, hi },
                    ) => a = AbsVal::Int { lo, hi: hi.min(init) },
                    _ => {}
                }
                a
            })
            .collect();
        let inputs =
            prog.inputs.iter().map(|d| clamp(&d.name, AbsVal::from_type(prog, d.elem))).collect();
        let params = prog.rulebases[rb_idx]
            .params
            .iter()
            .map(|p| AbsVal::from_domain(prog, p.dom))
            .collect();
        AbsEnv { vars, inputs, params, terms: HashMap::new(), rels: HashMap::new() }
    }

    /// Currently-possible orderings of `(l, r)` (`0b111` when unknown).
    fn get_rel(&self, l: &Expr, r: &Expr) -> u8 {
        if let Some(&b) = self.rels.get(&(l.clone(), r.clone())) {
            b
        } else if let Some(&b) = self.rels.get(&(r.clone(), l.clone())) {
            rel_flip(b)
        } else {
            0b111
        }
    }

    /// Narrows the orderings of `(l, r)` to `bits` (already met by the
    /// caller); stores in whichever orientation is already keyed.
    fn set_rel(&mut self, l: &Expr, r: &Expr, bits: u8) {
        if let Some(b) = self.rels.get_mut(&(r.clone(), l.clone())) {
            *b = rel_flip(bits);
        } else {
            self.rels.insert((l.clone(), r.clone()), bits);
        }
    }

    /// Looks up a term refinement.
    fn term(&self, e: &Expr) -> Option<AbsVal> {
        self.terms.get(e).copied()
    }

    /// Narrows a term to `a`. Returns `false` on contradiction (bottom).
    fn refine(&mut self, prog: &Program, e: &Expr, a: AbsVal) -> bool {
        let cur = abs_eval(prog, self, e);
        let Some(met) = cur.meet(&a) else { return false };
        match e {
            Expr::Lit(_) => true, // consistency was the check
            Expr::Ref(Ref::Var(i)) => {
                self.vars[*i] = met;
                true
            }
            Expr::Ref(Ref::Input(i)) => {
                self.inputs[*i] = met;
                true
            }
            Expr::Ref(Ref::Param(i)) => {
                self.params[*i] = met;
                true
            }
            _ => {
                self.terms.insert(e.clone(), met);
                true
            }
        }
    }
}

/// Abstract evaluation of an expression under an environment.
pub fn abs_eval(prog: &Program, env: &AbsEnv, e: &Expr) -> AbsVal {
    if !matches!(e, Expr::Lit(_)) {
        if let Some(t) = env.term(e) {
            return t;
        }
    }
    match e {
        Expr::Lit(v) => AbsVal::singleton(*v),
        Expr::Ref(Ref::Const(i)) => AbsVal::singleton(prog.consts[*i].value),
        Expr::Ref(Ref::Var(i)) => env.vars[*i],
        Expr::Ref(Ref::Input(i)) => env.inputs[*i],
        Expr::Ref(Ref::Param(i)) => env.params.get(*i).copied().unwrap_or(AbsVal::Any),
        Expr::Ref(Ref::Bound(_)) => AbsVal::Any,
        Expr::Indexed { target: IndexedRef::Var(i), .. } => env.vars[*i],
        Expr::Indexed { target: IndexedRef::Input(i), .. } => env.inputs[*i],
        Expr::Un(UnOp::Neg, x) => match abs_eval(prog, env, x) {
            AbsVal::Int { lo, hi } => {
                AbsVal::Int { lo: hi.saturating_neg(), hi: lo.saturating_neg() }
            }
            _ => AbsVal::Any,
        },
        Expr::Un(UnOp::Not, x) => match abs_eval(prog, env, x) {
            AbsVal::Bool { can_f, can_t } => AbsVal::Bool { can_f: can_t, can_t: can_f },
            _ => AbsVal::Bool { can_f: true, can_t: true },
        },
        Expr::Bin(op, l, r) => abs_bin(prog, env, *op, l, r),
        Expr::Quant { .. } => AbsVal::Bool { can_f: true, can_t: true },
        Expr::Call { builtin, args } => abs_call(prog, env, *builtin, args),
    }
}

fn int_of(a: AbsVal) -> Option<(i64, i64)> {
    match a {
        AbsVal::Int { lo, hi } => Some((lo, hi)),
        _ => None,
    }
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

fn abs_bin(prog: &Program, env: &AbsEnv, op: BinOp, l: &Expr, r: &Expr) -> AbsVal {
    let la = abs_eval(prog, env, l);
    let ra = abs_eval(prog, env, r);
    let both = AbsVal::Bool { can_f: true, can_t: true };
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let (Some((a, b)), Some((c, d))) = (int_of(la), int_of(ra)) else {
                return AbsVal::Any;
            };
            let (lo, hi) = match op {
                BinOp::Add => (a.saturating_add(c), b.saturating_add(d)),
                BinOp::Sub => (a.saturating_sub(d), b.saturating_sub(c)),
                BinOp::Mul => {
                    let ps = [
                        (a as i128) * (c as i128),
                        (a as i128) * (d as i128),
                        (b as i128) * (c as i128),
                        (b as i128) * (d as i128),
                    ];
                    (clamp_i128(*ps.iter().min().unwrap()), clamp_i128(*ps.iter().max().unwrap()))
                }
                _ => unreachable!(),
            };
            AbsVal::Int { lo, hi }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some((a, b)), Some((c, d))) = (int_of(la), int_of(ra)) else { return both };
            let (can_t, can_f) = match op {
                BinOp::Lt => (a < d, b >= c),
                BinOp::Le => (a <= d, b > c),
                BinOp::Gt => (b > c, a <= d),
                BinOp::Ge => (b >= c, a < d),
                _ => unreachable!(),
            };
            AbsVal::Bool { can_f, can_t }
        }
        BinOp::Eq | BinOp::Ne => {
            let eq = match (la, ra) {
                (AbsVal::Int { lo: a, hi: b }, AbsVal::Int { lo: c, hi: d }) => AbsVal::Bool {
                    can_t: a.max(c) <= b.min(d),
                    can_f: !(a == b && c == d && a == c),
                },
                (AbsVal::Sym { ty: t, mask: m }, AbsVal::Sym { ty: u, mask: n }) if t == u => {
                    AbsVal::Bool { can_t: m & n != 0, can_f: !(m == n && m.count_ones() == 1) }
                }
                (AbsVal::Bool { can_f: a, can_t: b }, AbsVal::Bool { can_f: c, can_t: d }) => {
                    AbsVal::Bool { can_t: (a && c) || (b && d), can_f: (a && d) || (b && c) }
                }
                (sa @ AbsVal::Set { .. }, sb @ AbsVal::Set { .. }) => {
                    match (sa.as_const(), sb.as_const()) {
                        (Some(x), Some(y)) => AbsVal::Bool { can_t: x == y, can_f: x != y },
                        _ => both,
                    }
                }
                _ => both,
            };
            match (op, eq) {
                (BinOp::Eq, v) => v,
                (BinOp::Ne, AbsVal::Bool { can_f, can_t }) => {
                    AbsVal::Bool { can_f: can_t, can_t: can_f }
                }
                _ => both,
            }
        }
        BinOp::In => {
            let AbsVal::Set { dom, must, may } = ra else { return both };
            let Some(bits) = scalar_bits(&la, dom) else { return both };
            AbsVal::Bool {
                can_t: bits & may != 0,
                can_f: !(bits.count_ones() == 1 && bits & must != 0),
            }
        }
        BinOp::And => {
            let (x, y) = (abs_truth(la), abs_truth(ra));
            AbsVal::Bool { can_t: x.1 && y.1, can_f: x.0 || y.0 }
        }
        BinOp::Or => {
            let (x, y) = (abs_truth(la), abs_truth(ra));
            AbsVal::Bool { can_t: x.1 || y.1, can_f: x.0 && y.0 }
        }
    }
}

/// `(can_f, can_t)` of a boolean abstraction (unknown kinds: both).
fn abs_truth(a: AbsVal) -> (bool, bool) {
    match a {
        AbsVal::Bool { can_f, can_t } => (can_f, can_t),
        _ => (true, true),
    }
}

fn abs_call(prog: &Program, env: &AbsEnv, builtin: Builtin, args: &[Expr]) -> AbsVal {
    let arg = |i: usize| args.get(i).map(|a| abs_eval(prog, env, a)).unwrap_or(AbsVal::Any);
    match builtin {
        Builtin::Min | Builtin::Max => {
            let (Some((a, b)), Some((c, d))) = (int_of(arg(0)), int_of(arg(1))) else {
                return AbsVal::Any;
            };
            match builtin {
                Builtin::Min => AbsVal::Int { lo: a.min(c), hi: b.min(d) },
                _ => AbsVal::Int { lo: a.max(c), hi: b.max(d) },
            }
        }
        Builtin::AbsDiff => {
            let (Some((a, b)), Some((c, d))) = (int_of(arg(0)), int_of(arg(1))) else {
                return AbsVal::Any;
            };
            let lo_d = a.saturating_sub(d);
            let hi_d = b.saturating_sub(c);
            let lo = if lo_d <= 0 && hi_d >= 0 { 0 } else { lo_d.abs().min(hi_d.abs()) };
            AbsVal::Int { lo, hi: lo_d.abs().max(hi_d.abs()) }
        }
        Builtin::Xor => {
            let (Some((a, _)), Some((c, _))) = (int_of(arg(0)), int_of(arg(1))) else {
                return AbsVal::Any;
            };
            if a < 0 || c < 0 {
                return AbsVal::Any;
            }
            let (Some((_, b)), Some((_, d))) = (int_of(arg(0)), int_of(arg(1))) else {
                return AbsVal::Any;
            };
            let bits = 64 - (b.max(d).max(1) as u64).leading_zeros();
            AbsVal::Int { lo: 0, hi: low_mask(u64::from(bits)) as i64 }
        }
        Builtin::Popcount => AbsVal::Int { lo: 0, hi: 64 },
        Builtin::Bit => AbsVal::Bool { can_f: true, can_t: true },
        Builtin::LatMax => match (arg(0), arg(1)) {
            (AbsVal::Sym { ty: t, mask: m }, AbsVal::Sym { ty: u, mask: n }) if t == u => {
                let mut out = 0u64;
                for i in 0..64u32 {
                    if m & (1u64 << i) == 0 {
                        continue;
                    }
                    for j in 0..64u32 {
                        if n & (1u64 << j) != 0 {
                            out |= 1u64 << i.max(j);
                        }
                    }
                }
                AbsVal::Sym { ty: t, mask: out }
            }
            _ => AbsVal::Any,
        },
        Builtin::Card => match arg(0) {
            AbsVal::Set { must, may, .. } => {
                AbsVal::Int { lo: i64::from(must.count_ones()), hi: i64::from(may.count_ones()) }
            }
            _ => AbsVal::Any,
        },
        Builtin::Union | Builtin::Isect | Builtin::Diff => match (arg(0), arg(1)) {
            (
                AbsVal::Set { dom, must: am, may: ay },
                AbsVal::Set { dom: d2, must: bm, may: by },
            ) if dom == d2 => match builtin {
                Builtin::Union => AbsVal::Set { dom, must: am | bm, may: ay | by },
                Builtin::Isect => AbsVal::Set { dom, must: am & bm, may: ay & by },
                _ => AbsVal::Set { dom, must: am & !by, may: ay & !bm },
            },
            _ => AbsVal::Any,
        },
        Builtin::Include | Builtin::Exclude => {
            let AbsVal::Set { dom, must, may } = arg(0) else { return AbsVal::Any };
            let ss = prog.sym_sizes();
            let ebit = args
                .get(1)
                .and_then(|e| abs_eval(prog, env, e).as_const())
                .and_then(|v| dom.ordinal(&v, ss))
                .map(|k| 1u64 << k);
            let include = matches!(builtin, Builtin::Include);
            match (include, ebit) {
                (true, Some(b)) => AbsVal::Set { dom, must: must | b, may: may | b },
                (true, None) => AbsVal::Set { dom, must, may: low_mask(dom.size(ss)) },
                (false, Some(b)) => AbsVal::Set { dom, must: must & !b, may: may & !b },
                (false, None) => AbsVal::Set { dom, must: 0, may },
            }
        }
        Builtin::ArgMin(i) | Builtin::ArgMax(i) => {
            // result: an index of the input's index domain, drawn from the
            // may-members of the set argument
            let idom = prog.inputs.get(i).and_then(|d| d.index_domains.first().copied());
            match (arg(0), idom) {
                (AbsVal::Set { may, .. }, Some(d)) if may != 0 => bits_to_scalar(may, d),
                (_, Some(d)) => AbsVal::from_domain(prog, d),
                _ => AbsVal::Any,
            }
        }
    }
}

/// Flattens a (possibly negated) expression into a conjunct list.
fn conjuncts<'a>(e: &'a Expr, pos: bool, out: &mut Vec<(&'a Expr, bool)>) {
    match (e, pos) {
        (Expr::Un(UnOp::Not, x), _) => conjuncts(x, !pos, out),
        (Expr::Bin(BinOp::And, l, r), true) | (Expr::Bin(BinOp::Or, l, r), false) => {
            conjuncts(l, pos, out);
            conjuncts(r, pos, out);
        }
        _ => out.push((e, pos)),
    }
}

/// Assumes `e` holds with polarity `pos`, narrowing `env`. `None` means
/// the assumption is definitely unsatisfiable; `Some` is an environment
/// consistent with it (possibly unrefined when the budget ran out).
pub fn assume(
    prog: &Program,
    env: AbsEnv,
    e: &Expr,
    pos: bool,
    budget: &mut u32,
) -> Option<AbsEnv> {
    let mut items = Vec::new();
    conjuncts(e, pos, &mut items);
    let mut cur = env;
    // two rounds so later conjuncts narrow earlier ones (`a < b AND b < 3`)
    let rounds = if items.len() > 1 { 2 } else { 1 };
    for _ in 0..rounds {
        for &(x, p) in &items {
            cur = assume_leaf(prog, cur, x, p, budget)?;
        }
    }
    Some(cur)
}

fn assume_leaf(
    prog: &Program,
    env: AbsEnv,
    e: &Expr,
    pos: bool,
    budget: &mut u32,
) -> Option<AbsEnv> {
    match (e, pos) {
        (Expr::Lit(Value::Bool(b)), _) => (*b == pos).then_some(env),
        (Expr::Un(UnOp::Not, x), _) => assume_leaf(prog, env, x, !pos, budget),
        // a disjunction at leaf level: branch under budget
        (Expr::Bin(BinOp::Or, l, r), true) | (Expr::Bin(BinOp::And, l, r), false) => {
            if *budget == 0 {
                return Some(env); // give up refining, stay sound
            }
            *budget -= 1;
            let a = assume(prog, env.clone(), l, pos, budget);
            let b = assume(prog, env.clone(), r, pos, budget);
            match (a, b) {
                (None, None) => None,
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                // both branches possible: no single refinement is sound
                (Some(_), Some(_)) => Some(env),
            }
        }
        (Expr::Bin(BinOp::And, ..), true) | (Expr::Bin(BinOp::Or, ..), false) => {
            assume(prog, env, e, pos, budget)
        }
        (Expr::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r), _) => {
            let eff = if pos { *op } else { negate_cmp(*op) };
            assume_cmp(prog, env, eff, l, r)
        }
        (Expr::Bin(BinOp::Eq, l, r), _) => assume_eq(prog, env, l, r, pos),
        (Expr::Bin(BinOp::Ne, l, r), _) => assume_eq(prog, env, l, r, !pos),
        (Expr::Bin(BinOp::In, l, r), _) => assume_in(prog, env, l, r, pos),
        // anything else: check abstract truth, refine if it is a plain term
        _ => {
            let a = abs_eval(prog, &env, e);
            let (can_f, can_t) = abs_truth(a);
            if pos && !can_t {
                return None;
            }
            if !pos && !can_f {
                return None;
            }
            let mut env = env;
            let want = AbsVal::Bool { can_f: !pos, can_t: pos };
            if matches!(a, AbsVal::Bool { .. }) && !env.refine(prog, e, want) {
                return None;
            }
            Some(env)
        }
    }
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        other => other,
    }
}

fn assume_cmp(prog: &Program, mut env: AbsEnv, op: BinOp, l: &Expr, r: &Expr) -> Option<AbsEnv> {
    // relational knowledge first: `xpos < xdes` then `NOT (xpos < xdes)`
    // (or the mirrored `xdes < xpos`) is a contradiction even though the
    // two interval slots overlap
    let met = env.get_rel(l, r) & rel_of(op);
    if met == 0 {
        return None;
    }
    env.set_rel(l, r, met);
    let la = abs_eval(prog, &env, l);
    let ra = abs_eval(prog, &env, r);
    let (Some((a, b)), Some((c, d))) = (int_of(la), int_of(ra)) else {
        // non-integer comparison: only check it is not definitely false
        return Some(env);
    };
    let (lnew, rnew) = match op {
        BinOp::Lt => {
            if a >= d {
                return None;
            }
            ((a, b.min(d - 1)), (c.max(a + 1), d))
        }
        BinOp::Le => {
            if a > d {
                return None;
            }
            ((a, b.min(d)), (c.max(a), d))
        }
        BinOp::Gt => {
            if b <= c {
                return None;
            }
            ((a.max(c + 1), b), (c, d.min(b - 1)))
        }
        BinOp::Ge => {
            if b < c {
                return None;
            }
            ((a.max(c), b), (c, d.min(b)))
        }
        _ => return Some(env),
    };
    if !env.refine(prog, l, AbsVal::Int { lo: lnew.0, hi: lnew.1 }) {
        return None;
    }
    if !env.refine(prog, r, AbsVal::Int { lo: rnew.0, hi: rnew.1 }) {
        return None;
    }
    Some(env)
}

fn assume_eq(prog: &Program, mut env: AbsEnv, l: &Expr, r: &Expr, pos: bool) -> Option<AbsEnv> {
    let met = env.get_rel(l, r) & rel_of(if pos { BinOp::Eq } else { BinOp::Ne });
    if met == 0 {
        return None;
    }
    env.set_rel(l, r, met);
    let la = abs_eval(prog, &env, l);
    let ra = abs_eval(prog, &env, r);
    if pos {
        // meet both sides with each other
        match la.meet(&ra) {
            None => None,
            Some(met) => {
                if !env.refine(prog, l, met) || !env.refine(prog, r, met) {
                    return None;
                }
                Some(env)
            }
        }
    } else {
        // disequality: exclude a pinned-down side from the other
        let exclude = |env: &mut AbsEnv, term: &Expr, a: AbsVal, v: Value| -> Option<bool> {
            let narrowed = match (a, v) {
                (AbsVal::Int { lo, hi }, Value::Int(x)) => {
                    if lo == hi && lo == x {
                        return None;
                    }
                    if lo == x {
                        AbsVal::Int { lo: lo + 1, hi }
                    } else if hi == x {
                        AbsVal::Int { lo, hi: hi - 1 }
                    } else {
                        return Some(false);
                    }
                }
                (AbsVal::Sym { ty, mask }, Value::Sym { ty: t, idx }) if ty == t => {
                    let m = mask & !(1u64 << idx);
                    if m == 0 {
                        return None;
                    }
                    AbsVal::Sym { ty, mask: m }
                }
                (AbsVal::Bool { .. }, Value::Bool(b)) => AbsVal::Bool { can_f: b, can_t: !b },
                _ => return Some(false),
            };
            Some(env.refine(prog, term, narrowed))
        };
        match (la.as_const(), ra.as_const()) {
            (Some(x), Some(y)) => (x != y).then_some(env),
            (Some(x), None) => exclude(&mut env, r, ra, x).map(|_| env),
            (None, Some(y)) => exclude(&mut env, l, la, y).map(|_| env),
            (None, None) => Some(env),
        }
    }
}

fn assume_in(prog: &Program, mut env: AbsEnv, l: &Expr, r: &Expr, pos: bool) -> Option<AbsEnv> {
    let la = abs_eval(prog, &env, l);
    let ra = abs_eval(prog, &env, r);
    let AbsVal::Set { dom, must, may } = ra else { return Some(env) };
    let Some(bits) = scalar_bits(&la, dom) else { return Some(env) };
    if pos {
        if bits & may == 0 {
            return None;
        }
        // scalar can only be a may-member
        if !env.refine(prog, l, bits_to_scalar(bits & may, dom)) {
            return None;
        }
        // a pinned-down scalar is definitely a member
        if bits.count_ones() == 1 {
            let rset = AbsVal::Set { dom, must: must | bits, may };
            if !env.refine(prog, r, rset) {
                return None;
            }
        }
    } else {
        if bits.count_ones() == 1 {
            if bits & must != 0 {
                return None;
            }
            // a pinned-down scalar is definitely not a member
            let rset = AbsVal::Set { dom, must, may: may & !bits };
            if !env.refine(prog, r, rset) {
                return None;
            }
        } else if bits & !must == 0 {
            // every possible scalar value is a definite member
            return None;
        } else if !env.refine(prog, l, bits_to_scalar(bits & !must, dom)) {
            return None;
        }
    }
    Some(env)
}

/// Assumes a sequence of (expression, polarity) constraints jointly,
/// returning the refined environment, or `None` when they are proved
/// contradictory. Constraints are processed twice so refinements from
/// later items narrow earlier ones.
pub fn assume_all(prog: &Program, env: &AbsEnv, items: &[(&Expr, bool)]) -> Option<AbsEnv> {
    let mut budget = SAT_BUDGET;
    let mut cur = env.clone();
    for round in 0..2 {
        for &(e, p) in items {
            cur = assume(prog, cur, e, p, &mut budget)?;
        }
        if items.len() <= 1 || round == 1 {
            break;
        }
    }
    Some(cur)
}

/// Checks whether a sequence of (expression, polarity) assumptions is
/// jointly satisfiable under `env`; `false` is a proof of unsatisfiability.
pub fn sat_all(prog: &Program, env: &AbsEnv, items: &[(&Expr, bool)]) -> bool {
    assume_all(prog, env, items).is_some()
}

/// Satisfiability of one guard (over-approximate: `false` is a proof).
pub fn sat(prog: &Program, env: &AbsEnv, guard: &Expr) -> bool {
    sat_all(prog, env, &[(guard, true)])
}

/// Per-register write-shape classification; see [`Monotonicity`].
pub fn monotone_facts(prog: &Program) -> Vec<Monotonicity> {
    let mut facts = vec![Monotonicity::NeverWritten; prog.vars.len()];
    fn visit(prog: &Program, cmds: &[Command], facts: &mut [Monotonicity]) {
        for c in cmds {
            match c {
                Command::Assign { var, value, .. } => {
                    let dir = classify_write(prog, *var, value);
                    facts[*var] = combine_mono(facts[*var], dir);
                }
                Command::ForAll { body, .. } => visit(prog, body, facts),
                _ => {}
            }
        }
    }
    for rb in &prog.rulebases {
        for rule in &rb.rules {
            visit(prog, &rule.conclusion, &mut facts);
        }
    }
    facts
}

fn combine_mono(old: Monotonicity, new: Monotonicity) -> Monotonicity {
    match (old, new) {
        (Monotonicity::NeverWritten, n) => n,
        (o, n) if o == n => o,
        _ => Monotonicity::Unknown,
    }
}

/// True if `e` is a read of register `var` (any indices).
fn reads_var(e: &Expr, var: usize) -> bool {
    matches!(e, Expr::Ref(Ref::Var(v)) if *v == var)
        || matches!(e, Expr::Indexed { target: IndexedRef::Var(v), .. } if *v == var)
}

fn classify_write(prog: &Program, var: usize, value: &Expr) -> Monotonicity {
    match value {
        Expr::Call { builtin: Builtin::Include | Builtin::Union, args }
            if args.first().is_some_and(|a| reads_var(a, var)) =>
        {
            Monotonicity::GrowingSet
        }
        Expr::Call { builtin: Builtin::Exclude | Builtin::Diff, args }
            if args.first().is_some_and(|a| reads_var(a, var)) =>
        {
            Monotonicity::ShrinkingSet
        }
        Expr::Call { builtin: Builtin::LatMax, args } if args.iter().any(|a| reads_var(a, var)) => {
            Monotonicity::NonDecreasing
        }
        Expr::Bin(BinOp::Add, l, r) if reads_var(l, var) || reads_var(r, var) => {
            let other = if reads_var(l, var) { r } else { l };
            match nonneg_const(prog, other) {
                Some(true) => Monotonicity::NonDecreasing,
                _ => Monotonicity::Unknown,
            }
        }
        Expr::Bin(BinOp::Sub, l, r) if reads_var(l, var) => match nonneg_const(prog, r) {
            Some(true) => Monotonicity::NonIncreasing,
            _ => Monotonicity::Unknown,
        },
        // min(v + c, cap) with cap >= declared hi keeps non-decreasing
        Expr::Call { builtin: Builtin::Min, args } if args.len() == 2 => {
            let sub = classify_write(prog, var, &args[0]);
            let cap_ok = match (&prog.vars[var].elem, const_int(prog, &args[1])) {
                (Type::Scalar(Domain::Int { hi, .. }), Some(c)) => c >= *hi,
                _ => false,
            };
            if sub == Monotonicity::NonDecreasing && cap_ok {
                Monotonicity::NonDecreasing
            } else {
                Monotonicity::Unknown
            }
        }
        _ => Monotonicity::Unknown,
    }
}

fn const_int(prog: &Program, e: &Expr) -> Option<i64> {
    match e {
        Expr::Lit(Value::Int(v)) => Some(*v),
        Expr::Ref(Ref::Const(i)) => match prog.consts[*i].value {
            Value::Int(v) => Some(v),
            _ => None,
        },
        _ => None,
    }
}

fn nonneg_const(prog: &Program, e: &Expr) -> Option<bool> {
    const_int(prog, e).map(|v| v >= 0)
}

/// A provably constant atom inside one rule's guard.
#[derive(Clone, Debug)]
pub struct ConstAtom {
    /// Rule index within the base.
    pub rule: usize,
    /// The atom (in expanded guard IR form).
    pub atom: Expr,
    /// Its forced truth value.
    pub truth: bool,
}

/// Everything the engine proved about one program.
#[derive(Clone, Debug)]
pub struct Facts {
    /// Per base, per rule: `false` means the rule is *proved* unreachable
    /// (its guard, conjoined with the negations of all earlier guards,
    /// is unsatisfiable over the seeded environment).
    pub reachable: Vec<Vec<bool>>,
    /// Per base, per rule: `Some(i)` when the rule's guard semantically
    /// entails the (earlier) rule `i`'s guard — the rule can never win.
    pub entailed_by: Vec<Vec<Option<usize>>>,
    /// Per register: the flow-insensitive abstract hull of every value
    /// the program's own writes can produce (starting from INIT).
    pub reg_hull: Vec<AbsVal>,
    /// Per register: `Some(v)` when it provably holds `v` at every
    /// decision point (unless the host writes it directly).
    pub const_regs: Vec<Option<Value>>,
    /// Per register: write-shape monotonicity.
    pub monotone: Vec<Monotonicity>,
    /// Per base: atoms with a forced truth value in reachable rules.
    pub const_atoms: Vec<Vec<ConstAtom>>,
}

/// Runs the engine over a compiled program.
pub fn analyze_program(compiled: &CompiledProgram, topo: &TopoFacts) -> Facts {
    let prog = &compiled.prog;
    let monotone = monotone_facts(prog);

    // ---- flow-insensitive register hull ----------------------------------
    let full_hull: Vec<AbsVal> =
        prog.vars.iter().map(|v| AbsVal::from_type(prog, v.elem)).collect();
    let mut hull: Vec<AbsVal> = prog
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if topo.is_host_written(&v.name) {
                // host writes can land anywhere in the (clamped) domain
                match (topo.bound_for(&v.name), full_hull[i]) {
                    (Some((lo, hi)), AbsVal::Int { lo: a, hi: b }) => {
                        AbsVal::Int { lo: a.max(lo), hi: b.min(hi) }
                    }
                    (_, a) => a,
                }
            } else {
                AbsVal::singleton(v.init)
            }
        })
        .collect();
    let mut writes: Vec<(usize, usize, &Expr)> = Vec::new(); // (rb, var, value)
    fn collect_writes<'a>(rb: usize, cmds: &'a [Command], out: &mut Vec<(usize, usize, &'a Expr)>) {
        for c in cmds {
            match c {
                Command::Assign { var, value, .. } => out.push((rb, *var, value)),
                Command::ForAll { body, .. } => collect_writes(rb, body, out),
                _ => {}
            }
        }
    }
    for (bi, rb) in prog.rulebases.iter().enumerate() {
        for (ri, rule) in rb.rules.iter().enumerate() {
            // skip rules the table already proves unsatisfiable
            if compiled.bases[bi].rule_applicable.get(ri) == Some(&0) {
                continue;
            }
            collect_writes(bi, &rule.conclusion, &mut writes);
        }
    }
    for iter in 0..24 {
        let mut dirty = vec![false; hull.len()];
        for &(bi, var, value) in &writes {
            let mut env = AbsEnv::seed(prog, bi, topo, &monotone);
            env.vars = hull.clone();
            let mut v = abs_eval(prog, &env, value);
            // runtime writes outside the declared domain error out, so the
            // reachable-value hull stays inside it
            v = v.meet(&full_hull[var]).unwrap_or(full_hull[var]);
            if matches!(v, AbsVal::Any) {
                v = full_hull[var];
            }
            let joined = hull[var].join(&v);
            if joined != hull[var] {
                hull[var] = joined;
                dirty[var] = true;
            }
        }
        if !dirty.iter().any(|&d| d) {
            break;
        }
        if iter == 15 {
            // widen: long join chains (counters) jump to the full domain —
            // but only the registers that are still growing, so stable
            // hulls (constants) keep their precision
            for (var, d) in dirty.into_iter().enumerate() {
                if d {
                    hull[var] = hull[var].join(&full_hull[var]);
                }
            }
        }
    }
    let const_regs: Vec<Option<Value>> = hull.iter().map(AbsVal::as_const).collect();

    // ---- per-base guard analyses -----------------------------------------
    let mut reachable = Vec::new();
    let mut entailed_by = Vec::new();
    let mut const_atoms = Vec::new();
    for (bi, cb) in compiled.bases.iter().enumerate() {
        let mut env = AbsEnv::seed(prog, bi, topo, &monotone);
        // registers can be narrowed by what the program can actually write
        for (slot, h) in env.vars.iter_mut().zip(&hull) {
            if let Some(met) = slot.meet(h) {
                *slot = met;
            }
        }
        let prems = &cb.premises;
        let n = prems.len();
        let mut reach = vec![true; n];
        let mut entail = vec![None; n];
        for j in 0..n {
            // reachability: guard_j plus the negation of every earlier guard
            let mut items: Vec<(&Expr, bool)> = vec![(&prems[j], true)];
            for p in prems.iter().take(j) {
                items.push((p, false));
            }
            reach[j] = sat_all(prog, &env, &items);
            if !reach[j] {
                // distinguish "self-unsatisfiable" from "covered by earlier
                // rules": the entailment lint reports the latter
                if sat(prog, &env, &prems[j]) {
                    for (i, p) in prems.iter().enumerate().take(j) {
                        if !sat_all(prog, &env, &[(&prems[j], true), (p, false)]) {
                            entail[j] = Some(i);
                            break;
                        }
                    }
                }
                continue;
            }
            // semantic shadowing even when the combined negation query
            // was too weak: pairwise entailment is cheaper and sharper
            for (i, p) in prems.iter().enumerate().take(j) {
                if sat(prog, &env, &prems[j])
                    && !sat_all(prog, &env, &[(&prems[j], true), (p, false)])
                {
                    entail[j] = Some(i);
                    reach[j] = false;
                    break;
                }
            }
        }
        // constant atoms in reachable rules
        let mut atoms = Vec::new();
        let mut seen: HashSet<&Expr> = HashSet::new();
        for (ri, p) in prems.iter().enumerate() {
            if !reach[ri] {
                continue;
            }
            let mut leaves = Vec::new();
            conjuncts(p, true, &mut leaves);
            let mut stack: Vec<&Expr> = leaves.iter().map(|&(e, _)| e).collect();
            while let Some(atom) = stack.pop() {
                match atom {
                    Expr::Lit(_) => continue,
                    Expr::Bin(BinOp::And | BinOp::Or, l, r) => {
                        stack.push(l);
                        stack.push(r);
                        continue;
                    }
                    Expr::Un(UnOp::Not, x) => {
                        stack.push(x);
                        continue;
                    }
                    _ => {}
                }
                if !seen.insert(atom) {
                    continue;
                }
                if let Some(t) = abs_eval(prog, &env, atom).truth() {
                    atoms.push(ConstAtom { rule: ri, atom: atom.clone(), truth: t });
                }
            }
        }
        reachable.push(reach);
        entailed_by.push(entail);
        const_atoms.push(atoms);
    }

    Facts { reachable, entailed_by, reg_hull: hull, const_regs, monotone, const_atoms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_rules::{compile, parse, CompileOptions};

    fn compiled(src: &str) -> CompiledProgram {
        compile(&parse(src).unwrap(), &CompileOptions::default()).unwrap()
    }

    #[test]
    fn interval_contradiction_is_unreachable() {
        let c = compiled(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 1\n\
               IF n < 2 AND n > 5 THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert!(!f.reachable[0][0], "n<2 AND n>5 is unsatisfiable");
        assert!(f.reachable[0][1]);
    }

    #[test]
    fn semantic_entailment_detected() {
        // n > 5 entails n > 3; the table compiler cannot see it (two
        // independent predicate bits), the interval domain can
        let c = compiled(
            "INPUT n IN 0 TO 15\n\
             ON f() RETURNS 0 TO 1\n\
               IF n > 3 THEN RETURN(0);\n\
               IF n > 5 THEN RETURN(1);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert!(!f.reachable[0][1]);
        assert_eq!(f.entailed_by[0][1], Some(0));
        // the syntactic table lint does NOT flag it: rule 1 wins abstract
        // entries where (n>3)=0, (n>5)=1
        assert!(c.bases[0].rule_applicable[1] > 0);
    }

    #[test]
    fn topology_bounds_prove_unreachability() {
        let c = compiled(
            "CONSTANT maxc = 31\n\
             VARIABLE xpos IN 0 TO maxc INIT 0\n\
             INPUT xdes IN 0 TO maxc\n\
             ON f() RETURNS 0 TO 1\n\
               IF xpos > 5 THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        );
        let unbounded = analyze_program(&c, &TopoFacts::none());
        assert!(unbounded.reachable[0][0]);
        let bounded = analyze_program(&c, &TopoFacts::mesh(4, 4));
        assert!(!bounded.reachable[0][0], "xpos <= 3 on a 4x4 mesh");
    }

    #[test]
    fn constant_register_found() {
        let c = compiled(
            "VARIABLE z IN 0 TO 7 INIT 3\n\
             VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 7\n\
               IF n < 7 THEN n <- n + 1, z <- 3;\n\
               IF TRUE THEN RETURN(z);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert_eq!(f.const_regs[0], Some(Value::Int(3)), "z is always 3");
        assert_eq!(f.const_regs[1], None, "n varies");
    }

    #[test]
    fn constant_atom_found() {
        // out_q is declared 0..255, so out_q(d) <= 255 is always true
        let c = compiled(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE out_q[dirs] IN 0 TO 255 INIT 0\n\
             ON f(d IN dirs) RETURNS 0 TO 1\n\
               IF out_q(d) <= 255 AND out_q(d) > 3 THEN RETURN(1);\n\
               IF TRUE THEN out_q(d) <- min(out_q(d) + 1, 255), RETURN(0);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert_eq!(f.const_atoms[0].len(), 1);
        assert!(f.const_atoms[0][0].truth);
    }

    #[test]
    fn monotone_classification() {
        let c = compiled(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE total IN 0 TO 255 INIT 0\n\
             VARIABLE usable IN SETOF dirs INIT {0, 1, 2, 3}\n\
             VARIABLE deadset IN SETOF dirs\n\
             VARIABLE temp IN 0 TO 7 INIT 0\n\
             ON f(d IN dirs) RETURNS 0 TO 1\n\
               IF TRUE THEN total <- min(total + 1, 255),\n\
                 usable <- exclude(usable, d),\n\
                 deadset <- include(deadset, d),\n\
                 temp <- 5, RETURN(0);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert_eq!(f.monotone[0], Monotonicity::NonDecreasing);
        assert_eq!(f.monotone[1], Monotonicity::ShrinkingSet);
        assert_eq!(f.monotone[2], Monotonicity::GrowingSet);
        assert_eq!(f.monotone[3], Monotonicity::Unknown);
    }

    #[test]
    fn set_membership_narrowing() {
        // EXISTS-expanded membership guards: `0 IN s AND NOT (0 IN s)`
        // must be unsatisfiable through the must/may domain
        let c = compiled(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE s IN SETOF dirs INIT {0, 1, 2, 3}\n\
             ON f() RETURNS 0 TO 1\n\
               IF 0 IN s AND NOT (0 IN s) THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert!(!f.reachable[0][0]);
    }

    #[test]
    fn sat_is_conservative_on_reachable_rules() {
        let c = compiled(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             INPUT m IN 0 TO 7\n\
             ON f() RETURNS 0 TO 1\n\
               IF n < 4 AND m > 2 THEN RETURN(1);\n\
               IF n >= 4 OR m <= 2 THEN RETURN(0);\n\
             END f;",
        );
        let f = analyze_program(&c, &TopoFacts::none());
        assert!(f.reachable[0].iter().all(|&r| r), "both rules genuinely reachable");
    }
}

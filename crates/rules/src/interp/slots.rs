//! Slot code: a compiled rule base lowered once to flat op lists over one
//! `u64` slot array — what the table executor runs on every fire.
//!
//! Every value of the language fits a word: an integer (two's
//! complement), a symbol index, a boolean (0 or 1) or a set mask over the
//! set's domain (≤ 64 elements). Lowering fixes the [`Kind`] of every
//! slot, resolves names to cells, layouts and domains to offsets and
//! bounds, and evaluates each distinct subexpression of a base once: a
//! conclusion reuses what the premise stage computed, since both read the
//! pre-state. An op is then a few integer instructions.
//!
//! The code checks at run time what the reference evaluator fails on, and
//! what keeps a word canonical: a value read from a register or a
//! parameter must be of its declared kind (a set over its declared domain,
//! with no bit outside it), an input cell must hold a word (the input map
//! keeps what is of another kind or domain as a spilled value, and copies
//! nothing unchecked), an index must lie in its domain, a
//! digit in its radix, a write in its register's domain, and two writes to
//! one cell must agree. A failed check makes the code give up ("bail")
//! before any register changes; the executor then re-runs the fire by the
//! AST walk, so every outcome and every error is the reference's own. That
//! is also why `AND` and `OR` evaluate both operands here: an operand the
//! walk would have skipped can only cost a bail, never a different answer.

use crate::ast::{BinOp, Builtin, CellLayout, Command, Expr, Program, Quant, Ref, RuleBase, UnOp};
use crate::compile::{Feature, FeatureKind};
use crate::env::{InputMap, RegFile};
use crate::eval::hull_domain;
use crate::frame::Frame;
use crate::value::{Domain, Type, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a word in the slot array.
type Slot = u32;

/// What the word in a slot stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Int,
    Sym(usize),
    Bool,
    /// A set over `dom`; `live` are the bits that stand for elements.
    Set {
        dom: Domain,
        live: u64,
    },
}

impl Kind {
    fn scalar(dom: Domain) -> Kind {
        match dom {
            Domain::Int { .. } => Kind::Int,
            Domain::Sym(t) => Kind::Sym(t),
            Domain::Bool => Kind::Bool,
        }
    }

    fn set(prog: &Program, dom: Domain) -> Kind {
        Kind::Set { dom, live: prog.live_mask(dom) }
    }

    fn of_type(prog: &Program, t: Type) -> Kind {
        match t {
            Type::Scalar(d) => Kind::scalar(d),
            Type::Set(d) => Kind::set(prog, d),
        }
    }

    fn of_value(prog: &Program, v: &Value) -> Kind {
        match *v {
            Value::Int(_) => Kind::Int,
            Value::Sym { ty, .. } => Kind::Sym(ty),
            Value::Bool(_) => Kind::Bool,
            Value::Set { dom, .. } => Kind::set(prog, dom),
        }
    }

    /// The word of `v`, if it is of this kind; a set must be over this
    /// domain and carry no bit outside it.
    #[inline]
    fn word(self, v: &Value) -> Option<u64> {
        match (self, *v) {
            (Kind::Int, Value::Int(x)) => Some(x as u64),
            (Kind::Sym(t), Value::Sym { ty, idx }) if ty == t => Some(u64::from(idx)),
            (Kind::Bool, Value::Bool(b)) => Some(u64::from(b)),
            (Kind::Set { dom, live }, Value::Set { dom: d, mask })
                if d == dom && mask & !live == 0 =>
            {
                Some(mask)
            }
            _ => None,
        }
    }

    /// The value a word of this kind stands for.
    #[inline]
    fn value(self, w: u64) -> Value {
        match self {
            Kind::Int => Value::Int(w as i64),
            Kind::Sym(ty) => Value::Sym { ty, idx: w as u32 },
            Kind::Bool => Value::Bool(w != 0),
            Kind::Set { dom, .. } => Value::Set { dom, mask: w },
        }
    }
}

/// How far a set over `dom` moves up in `hull` (a hull of `dom`).
fn shift(dom: Domain, hull: Domain) -> u32 {
    (dom.base() - hull.base()).clamp(0, 64) as u32
}

/// The range a word written to a scalar register must lie in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Check {
    Any,
    Range(i64, i64),
}

/// One instruction. `dst` and every other slot operand index the slot
/// array; `base`/`size` turn a scalar word into an ordinal of a domain.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Op {
    Const { dst: Slot, w: u64 },
    Param { dst: Slot, param: u32 },
    Var { dst: Slot, var: u32, at: At },
    // an input word; `at` is its index in the map, `default` the input's default
    Input { dst: Slot, at: At, default: u32 },
    // dst = acc + ordinal(src) * stride; bails outside the domain
    Index { dst: Slot, src: Slot, base: i64, size: u64, stride: u64, acc: Slot },
    Not { dst: Slot, a: Slot },
    Neg { dst: Slot, a: Slot },
    Add { dst: Slot, a: Slot, b: Slot },
    Sub { dst: Slot, a: Slot, b: Slot },
    Mul { dst: Slot, a: Slot, b: Slot },
    Lt { dst: Slot, a: Slot, b: Slot },
    Le { dst: Slot, a: Slot, b: Slot },
    Eq { dst: Slot, a: Slot, b: Slot },
    And { dst: Slot, a: Slot, b: Slot },
    Or { dst: Slot, a: Slot, b: Slot },
    Min { dst: Slot, a: Slot, b: Slot },
    Max { dst: Slot, a: Slot, b: Slot },
    AbsDiff { dst: Slot, a: Slot, b: Slot },
    Xor { dst: Slot, a: Slot, b: Slot },
    // `latmax` of two symbols of one type
    MaxSym { dst: Slot, a: Slot, b: Slot },
    // `popcount` of an integer, `card` of a set
    Popcount { dst: Slot, a: Slot },
    Bit { dst: Slot, a: Slot, b: Slot },
    // two sets equal once moved into their hull
    SetEq { dst: Slot, a: Slot, b: Slot, sa: u32, sb: u32 },
    // two sets of different element kinds: equal only when both are empty
    BothEmpty { dst: Slot, a: Slot, b: Slot },
    In { dst: Slot, elem: Slot, set: Slot, base: i64, size: u64 },
    Union { dst: Slot, a: Slot, b: Slot, sa: u32, sb: u32 },
    Isect { dst: Slot, a: Slot, b: Slot, sa: u32, sb: u32 },
    Diff { dst: Slot, a: Slot, b: Slot, sa: u32, sb: u32 },
    // `include`/`exclude`; bails when the element is outside the domain
    Include { dst: Slot, set: Slot, elem: Slot, base: i64, size: u64, add: bool },
    // `argmin`/`argmax` of an integer input over the set's members: member
    // `k` reads word `k + shift`, and only the members in `valid` have one
    ArgBest { dst: Slot, set: Slot, shift: i64, default: u32, valid: u64, base: i64, max: bool },
    // a quantifier: `body` (in `SlotCode::bodies`) leaves each member's
    // truth in `out`
    Quant { dst: Slot, set: Slot, binder: Slot, base: i64, out: Slot, body: Body, all: bool },
    // premise stage: one digit of the table index
    Digit { src: Slot, stride: u64, radix: u64 },
    // a digit wired straight from the word of a boolean or symbol input
    Wire { at: u32, default: u32, stride: u64, radix: u64 },
    // a check that fails whatever the inputs hold
    Bail,
    Write { var: u32, at: At, src: Slot, check: Check },
    Return { src: Slot },
    Arg { src: Slot },
    Emit { event: u32, argc: u32 },
    ForAll { set: Slot, binder: Slot, base: i64, body: Body },
}

/// Where a cell of a register (in its row) or an input (in the input map)
/// lies: fixed at lowering, or in a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum At {
    Fixed(u32),
    Slot(Slot),
}

impl At {
    #[inline]
    fn cell(self, w: &[u64]) -> usize {
        match self {
            At::Fixed(c) => c as usize,
            At::Slot(s) => w[s as usize] as usize,
        }
    }
}

/// A range of [`SlotCode::bodies`].
type Body = (u32, u32);

/// One compiled rule base as slot code: the premise stage, then one
/// conclusion per rule.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotCode {
    /// `ops[..premise]` computes the table index; `ops[rules[r]]` is rule
    /// `r`'s conclusion.
    ops: Vec<Op>,
    /// The bodies of quantifiers and `FORALL` commands.
    bodies: Vec<Op>,
    kinds: Vec<Kind>,
    premise: u32,
    rules: Vec<(u32, u32)>,
}

/// An op with [`KEY`] for its `dst`, and the kind of its result: what
/// value numbering looks an op up by.
type Key = (Kind, Op);

/// `dst` in a [`Key`].
const KEY: Slot = Slot::MAX;

/// FxHash's multiplicative step, one per integer a key writes: lowering
/// hashes every op it makes, and its own ops need none of SipHash's
/// defence against chosen keys.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Lowering<'p> {
    prog: &'p Program,
    rb: &'p RuleBase,
    ops: Vec<Op>,
    bodies: Vec<Op>,
    kinds: Vec<Kind>,
    /// The ops already computed outside quantifier bodies, by [`Key`]:
    /// their slot and block (0 the premise stage, `r + 1` rule `r`'s
    /// conclusion).
    memo: HashMap<Key, (Slot, u32), BuildHasherDefault<KeyHasher>>,
    /// The block being lowered.
    block: u32,
    /// Binder slots, innermost last.
    binders: Vec<Slot>,
}

impl SlotCode {
    /// Lowers rule base `rb` of `prog`, whose table is indexed by
    /// `features` in radices `radices`: one pass over its expressions.
    pub(crate) fn lower(prog: &Program, rb: usize, features: &[Feature], radices: &[u64]) -> Self {
        let rb = &prog.rulebases[rb];
        let mut l = Lowering {
            prog,
            rb,
            ops: Vec::new(),
            bodies: Vec::new(),
            kinds: Vec::new(),
            memo: HashMap::default(),
            block: 0,
            binders: Vec::new(),
        };
        let mut stride = 1u64;
        for (f, &radix) in features.iter().zip(radices) {
            let src = match &f.kind {
                FeatureKind::Direct { subject, .. } => match l.wire(subject) {
                    Some((at, default)) => {
                        l.ops.push(Op::Wire { at, default, stride, radix });
                        stride = stride.saturating_mul(radix);
                        continue;
                    }
                    None => l.expr(subject),
                },
                FeatureKind::Predicate { expr } => l.boolean(expr),
            };
            l.ops.push(Op::Digit { src, stride, radix });
            stride = stride.saturating_mul(radix);
        }
        let premise = l.ops.len() as u32;
        let mut rules = Vec::with_capacity(rb.rules.len());
        for rule in &rb.rules {
            let start = l.ops.len() as u32;
            l.block += 1;
            l.commands(&rule.conclusion);
            rules.push((start, l.ops.len() as u32));
        }
        SlotCode { ops: l.ops, bodies: l.bodies, kinds: l.kinds, premise, rules }
    }

    /// Words the slot array needs.
    pub(crate) fn words(&self) -> usize {
        self.kinds.len()
    }

    /// Steps 1 and 2's index: the premise stage over `w` (at least
    /// [`SlotCode::words`] long), or `None` if a check failed.
    #[inline]
    pub(crate) fn premise(
        &self,
        w: &mut [u64],
        prog: &Program,
        params: &[Value],
        regs: &RegFile,
        inputs: &InputMap,
        fx: &mut Frame,
    ) -> Option<u64> {
        let mut idx = 0;
        let run = Run { code: self, prog, params, regs, inputs: inputs.serving(prog) };
        run.ops(&self.ops[..self.premise as usize], w, fx, &mut idx).map(|()| idx)
    }

    /// Step 3 for `rule` over the slot array the premise stage of the same
    /// fire left: queues the effects in `fx` and commits the writes. False
    /// if a check failed; then no register has changed.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn conclusion(
        &self,
        w: &mut [u64],
        rule: usize,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        fx: &mut Frame,
    ) -> bool {
        let Some(&(start, end)) = self.rules.get(rule) else { return false };
        let run = Run { code: self, prog, params, regs, inputs: inputs.serving(prog) };
        let done = run.ops(&self.ops[start as usize..end as usize], w, fx, &mut 0);
        done.is_some() && fx.commit_checked(prog, regs)
    }
}

impl<'p> Lowering<'p> {
    fn slot(&mut self, kind: Kind) -> Slot {
        self.kinds.push(kind);
        (self.kinds.len() - 1) as Slot
    }

    fn kind(&self, s: Slot) -> Kind {
        self.kinds[s as usize]
    }

    /// The slot of `make(dst)`, a result of `kind`. An op computed before
    /// from the same operands is reused (value numbering), so each
    /// distinct subexpression runs once per fire.
    fn op(&mut self, kind: Kind, make: impl Fn(Slot) -> Op) -> Slot {
        let block = self.block;
        let (dst, seen) = match self.memo.entry((kind, make(KEY))) {
            // the premise's slots stay valid in every conclusion, one
            // conclusion's are not there when another runs
            Entry::Occupied(e) if e.get().1 == 0 || e.get().1 == block => return e.get().0,
            e => (self.kinds.len() as Slot, e),
        };
        self.kinds.push(kind);
        self.ops.push(make(dst));
        // a body's slots hold the last member's values once it is done
        if self.binders.is_empty() {
            seen.insert_entry((dst, block));
        }
        dst
    }

    /// A slot of `kind` behind a check that always fails.
    fn bail(&mut self, kind: Kind) -> Slot {
        self.ops.push(Op::Bail);
        self.slot(kind)
    }

    fn konst(&mut self, v: Value) -> Slot {
        let kind = Kind::of_value(self.prog, &v);
        match kind.word(&v) {
            Some(w) => self.op(kind, |dst| Op::Const { dst, w }),
            None => self.bail(kind),
        }
    }

    /// The word of a boolean or symbol input a direct feature reads, if it
    /// is one at a fixed cell, and the word of the input's default.
    fn wire(&self, e: &Expr) -> Option<(u32, u32)> {
        let (input, indices) = match e {
            Expr::Ref(Ref::Input(i)) => (*i, &[][..]),
            Expr::Indexed { target: crate::ast::IndexedRef::Input(i), indices } => {
                (*i, &indices[..])
            }
            _ => return None,
        };
        let layout = self.prog.input_layout(input);
        if indices.len() != layout.dims.len() {
            return None;
        }
        let mut at = self.prog.input_first(input)? as u64;
        for (ix, dim) in indices.iter().zip(&layout.dims) {
            let Expr::Lit(v) = ix else { return None };
            at += dim.dom.ordinal(v, self.prog.sym_sizes())? * dim.stride;
        }
        match self.prog.inputs[input].elem {
            Type::Scalar(Domain::Bool | Domain::Sym(_)) => Some((at as u32, self.default(input))),
            _ => None,
        }
    }

    /// The word of input `input`'s default.
    fn default(&self, input: usize) -> u32 {
        (self.prog.input_cells() + input) as u32
    }

    /// `e`, which must be a boolean.
    fn boolean(&mut self, e: &'p Expr) -> Slot {
        let s = self.expr(e);
        if self.kind(s) == Kind::Bool {
            s
        } else {
            self.bail(Kind::Bool)
        }
    }

    /// `make` over two integers, a result of `kind`.
    fn int2(
        &mut self,
        a: &'p Expr,
        b: &'p Expr,
        kind: Kind,
        make: fn(Slot, Slot, Slot) -> Op,
    ) -> Slot {
        let (a, b) = (self.expr(a), self.expr(b));
        if (self.kind(a), self.kind(b)) != (Kind::Int, Kind::Int) {
            return self.bail(kind);
        }
        self.op(kind, |dst| make(dst, a, b))
    }

    fn expr(&mut self, e: &'p Expr) -> Slot {
        let prog = self.prog;
        match e {
            Expr::Lit(v) => self.konst(*v),
            Expr::Ref(Ref::Const(i)) => self.konst(prog.consts[*i].value),
            Expr::Ref(Ref::Var(v)) => self.read_var(*v, &[]),
            Expr::Ref(Ref::Input(i)) => self.read_input(*i, &[]),
            Expr::Ref(Ref::Param(p)) => match self.rb.params.get(*p) {
                Some(param) => {
                    self.op(Kind::scalar(param.dom), |dst| Op::Param { dst, param: *p as u32 })
                }
                None => self.bail(Kind::Int),
            },
            Expr::Ref(Ref::Bound(d)) => match self.binders.len().checked_sub(1 + d) {
                Some(i) => self.binders[i],
                None => self.bail(Kind::Int),
            },
            Expr::Indexed { target, indices } => match *target {
                crate::ast::IndexedRef::Var(v) => self.read_var(v, indices),
                crate::ast::IndexedRef::Input(i) => self.read_input(i, indices),
            },
            Expr::Un(UnOp::Not, a) => {
                let a = self.boolean(a);
                self.op(Kind::Bool, |dst| Op::Not { dst, a })
            }
            Expr::Un(UnOp::Neg, a) => {
                let a = self.expr(a);
                if self.kind(a) != Kind::Int {
                    return self.bail(Kind::Int);
                }
                self.op(Kind::Int, |dst| Op::Neg { dst, a })
            }
            Expr::Bin(op, l, r) => self.bin(*op, l, r),
            Expr::Quant { q, set, body, .. } => {
                let set = self.expr(set);
                let Kind::Set { dom, .. } = self.kind(set) else { return self.bail(Kind::Bool) };
                let binder = self.slot(Kind::scalar(dom));
                let (body, out) = self.body(binder, |l| l.boolean(body));
                let dst = self.slot(Kind::Bool);
                let all = *q == Quant::Forall;
                self.ops.push(Op::Quant { dst, set, binder, base: dom.base(), out, body, all });
                dst
            }
            Expr::Call { builtin, args } => self.call(*builtin, args),
        }
    }

    fn bin(&mut self, op: BinOp, l: &'p Expr, r: &'p Expr) -> Slot {
        let (int, bool) = (Kind::Int, Kind::Bool);
        match op {
            BinOp::Add => self.int2(l, r, int, |dst, a, b| Op::Add { dst, a, b }),
            BinOp::Sub => self.int2(l, r, int, |dst, a, b| Op::Sub { dst, a, b }),
            BinOp::Mul => self.int2(l, r, int, |dst, a, b| Op::Mul { dst, a, b }),
            BinOp::Lt => self.int2(l, r, bool, |dst, a, b| Op::Lt { dst, a, b }),
            BinOp::Le => self.int2(l, r, bool, |dst, a, b| Op::Le { dst, a, b }),
            BinOp::Gt => self.int2(r, l, bool, |dst, a, b| Op::Lt { dst, a, b }),
            BinOp::Ge => self.int2(r, l, bool, |dst, a, b| Op::Le { dst, a, b }),
            BinOp::Eq => self.eq(l, r),
            BinOp::Ne => {
                let a = self.eq(l, r);
                self.op(bool, |dst| Op::Not { dst, a })
            }
            BinOp::And | BinOp::Or => {
                let (a, b) = (self.boolean(l), self.boolean(r));
                match op {
                    BinOp::And => self.op(bool, |dst| Op::And { dst, a, b }),
                    _ => self.op(bool, |dst| Op::Or { dst, a, b }),
                }
            }
            BinOp::In => {
                let (elem, set) = (self.expr(l), self.expr(r));
                let Kind::Set { dom, .. } = self.kind(set) else { return self.bail(bool) };
                if self.kind(elem) != Kind::scalar(dom) {
                    // no ordinal in the domain: never a member
                    return self.konst(Value::Bool(false));
                }
                let (base, size) = (dom.base(), dom.size(self.prog.sym_sizes()).min(64));
                self.op(bool, |dst| Op::In { dst, elem, set, base, size })
            }
        }
    }

    /// `l = r` as [`crate::eval::values_equal`] decides it.
    fn eq(&mut self, l: &'p Expr, r: &'p Expr) -> Slot {
        let (a, b) = (self.expr(l), self.expr(r));
        match (self.kind(a), self.kind(b)) {
            (Kind::Set { dom: da, .. }, Kind::Set { dom: db, .. }) => match hull_domain(da, db) {
                Ok(hull) => {
                    let (sa, sb) = (shift(da, hull), shift(db, hull));
                    self.op(Kind::Bool, |dst| Op::SetEq { dst, a, b, sa, sb })
                }
                Err(_) => self.op(Kind::Bool, |dst| Op::BothEmpty { dst, a, b }),
            },
            (ka, kb) if ka == kb => self.op(Kind::Bool, |dst| Op::Eq { dst, a, b }),
            _ => self.konst(Value::Bool(false)),
        }
    }

    fn call(&mut self, builtin: Builtin, args: &'p [Expr]) -> Slot {
        let one = matches!(
            builtin,
            Builtin::Popcount | Builtin::Card | Builtin::ArgMin(_) | Builtin::ArgMax(_)
        );
        if args.len() != if one { 1 } else { 2 } {
            return self.bail(Kind::Int);
        }
        let int = Kind::Int;
        match builtin {
            Builtin::Min => self.int2(&args[0], &args[1], int, |dst, a, b| Op::Min { dst, a, b }),
            Builtin::Max => self.int2(&args[0], &args[1], int, |dst, a, b| Op::Max { dst, a, b }),
            Builtin::AbsDiff => {
                self.int2(&args[0], &args[1], int, |dst, a, b| Op::AbsDiff { dst, a, b })
            }
            Builtin::Xor => self.int2(&args[0], &args[1], int, |dst, a, b| Op::Xor { dst, a, b }),
            Builtin::Bit => {
                self.int2(&args[0], &args[1], Kind::Bool, |dst, a, b| Op::Bit { dst, a, b })
            }
            Builtin::Popcount | Builtin::Card => {
                let a = self.expr(&args[0]);
                let fits = match self.kind(a) {
                    Kind::Int => builtin == Builtin::Popcount,
                    Kind::Set { .. } => builtin == Builtin::Card,
                    _ => false,
                };
                if !fits {
                    return self.bail(int);
                }
                self.op(int, |dst| Op::Popcount { dst, a })
            }
            Builtin::LatMax => {
                let (a, b) = (self.expr(&args[0]), self.expr(&args[1]));
                match (self.kind(a), self.kind(b)) {
                    (Kind::Sym(x), Kind::Sym(y)) if x == y => {
                        self.op(Kind::Sym(x), |dst| Op::MaxSym { dst, a, b })
                    }
                    (ka, _) => self.bail(ka),
                }
            }
            Builtin::Union | Builtin::Isect | Builtin::Diff => {
                let (a, b) = (self.expr(&args[0]), self.expr(&args[1]));
                let (Kind::Set { dom: da, .. }, Kind::Set { dom: db, .. }) =
                    (self.kind(a), self.kind(b))
                else {
                    return self.bail(int);
                };
                let hull = match hull_domain(da, db) {
                    Ok(h) if h.size(self.prog.sym_sizes()) <= 64 => h,
                    _ => return self.bail(Kind::set(self.prog, da)),
                };
                let (sa, sb) = (shift(da, hull), shift(db, hull));
                self.op(Kind::set(self.prog, hull), |dst| match builtin {
                    Builtin::Union => Op::Union { dst, a, b, sa, sb },
                    Builtin::Isect => Op::Isect { dst, a, b, sa, sb },
                    _ => Op::Diff { dst, a, b, sa, sb },
                })
            }
            Builtin::Include | Builtin::Exclude => {
                let (set, elem) = (self.expr(&args[0]), self.expr(&args[1]));
                let kind = self.kind(set);
                let Kind::Set { dom, .. } = kind else { return self.bail(int) };
                if self.kind(elem) != Kind::scalar(dom) {
                    return self.bail(kind);
                }
                let (base, size) = (dom.base(), dom.size(self.prog.sym_sizes()).min(64));
                let add = builtin == Builtin::Include;
                self.op(kind, |dst| Op::Include { dst, set, elem, base, size, add })
            }
            Builtin::ArgMin(input) | Builtin::ArgMax(input) => {
                let set = self.expr(&args[0]);
                let Kind::Set { dom, .. } = self.kind(set) else { return self.bail(int) };
                let (elem, first) = (self.prog.inputs[input].elem, self.prog.input_first(input));
                let (Type::Scalar(Domain::Int { .. }), Some(first)) = (elem, first) else {
                    return self.bail(Kind::scalar(dom));
                };
                let dims = &self.prog.input_layout(input).dims;
                // the members with a cell, and how far their words lie from their ordinals
                let (mut valid, mut shift) = (0u64, 0i64);
                if let [dim] = &dims[..] {
                    let n = dom.size(self.prog.sym_sizes()).min(64);
                    for k in 0..n {
                        if let Some(c) = dim.dom.ordinal(&dom.value_at(k), self.prog.sym_sizes()) {
                            (valid, shift) = (valid | 1 << k, (first as u64 + c) as i64 - k as i64);
                        }
                    }
                }
                let (max, default, base) =
                    (matches!(builtin, Builtin::ArgMax(_)), self.default(input), dom.base());
                self.op(Kind::scalar(dom), |dst| Op::ArgBest {
                    dst,
                    set,
                    shift,
                    default,
                    valid,
                    base,
                    max,
                })
            }
        }
    }

    /// The cell `indices` address in `layout`, counted from `first`;
    /// `None` after lowering a check that always fails.
    fn cell(&mut self, first: usize, layout: &'p CellLayout, indices: &'p [Expr]) -> Option<At> {
        if indices.len() != layout.dims.len() || first + layout.cells > u32::MAX as usize {
            self.ops.push(Op::Bail);
            return None;
        }
        let (mut fixed, mut moving) = (first as u64, Vec::new());
        for (ix, dim) in indices.iter().zip(&layout.dims) {
            let known = match ix {
                Expr::Lit(v) => Some(*v),
                Expr::Ref(Ref::Const(i)) => Some(self.prog.consts[*i].value),
                _ => None,
            };
            match known.map(|v| dim.dom.ordinal(&v, self.prog.sym_sizes())) {
                Some(Some(ord)) => fixed += ord * dim.stride,
                Some(None) => {
                    self.ops.push(Op::Bail);
                    return None;
                }
                None => moving.push((self.expr(ix), *dim)),
            }
        }
        if moving.is_empty() {
            return Some(At::Fixed(fixed as u32));
        }
        let mut acc = self.op(Kind::Int, |dst| Op::Const { dst, w: fixed });
        for (src, dim) in moving {
            if self.kind(src) != Kind::scalar(dim.dom) {
                self.ops.push(Op::Bail);
                return None;
            }
            let (base, size, stride) =
                (dim.dom.base(), dim.dom.size(self.prog.sym_sizes()), dim.stride);
            acc = self.op(Kind::Int, |dst| Op::Index { dst, src, base, size, stride, acc });
        }
        Some(At::Slot(acc))
    }

    fn read_var(&mut self, var: usize, indices: &'p [Expr]) -> Slot {
        let kind = Kind::of_type(self.prog, self.prog.vars[var].elem);
        match self.cell(0, self.prog.var_layout(var), indices) {
            Some(at) => self.op(kind, |dst| Op::Var { dst, var: var as u32, at }),
            None => self.slot(kind),
        }
    }

    fn read_input(&mut self, input: usize, indices: &'p [Expr]) -> Slot {
        let kind = Kind::of_type(self.prog, self.prog.inputs[input].elem);
        // an input too large to store has no words
        let Some(first) = self.prog.input_first(input) else { return self.bail(kind) };
        let default = self.default(input);
        match self.cell(first, self.prog.input_layout(input), indices) {
            Some(at) => self.op(kind, |dst| Op::Input { dst, at, default }),
            None => self.slot(kind),
        }
    }

    /// Lowers a quantifier's or a `FORALL`'s body into [`SlotCode::bodies`]
    /// with `binder` innermost.
    fn body<R>(&mut self, binder: Slot, f: impl FnOnce(&mut Self) -> R) -> (Body, R) {
        let outer = std::mem::take(&mut self.ops);
        self.binders.push(binder);
        let r = f(self);
        self.binders.pop();
        let body = std::mem::replace(&mut self.ops, outer);
        let start = self.bodies.len() as u32;
        self.bodies.extend(body);
        ((start, self.bodies.len() as u32), r)
    }

    fn commands(&mut self, cmds: &'p [Command]) {
        for cmd in cmds {
            match cmd {
                Command::Assign { var, indices, value } => {
                    let at = self.cell(0, self.prog.var_layout(*var), indices);
                    let src = self.expr(value);
                    let Some(check) = self.check(*var, self.kind(src)) else {
                        self.ops.push(Op::Bail);
                        continue;
                    };
                    if let Some(at) = at {
                        self.ops.push(Op::Write { var: *var as u32, at, src, check });
                    }
                }
                Command::Return(e) => {
                    let src = self.expr(e);
                    self.ops.push(Op::Return { src });
                }
                Command::Emit { id, args, .. } => {
                    let args: Vec<Slot> = args.iter().map(|a| self.expr(a)).collect();
                    self.ops.extend(args.iter().map(|&src| Op::Arg { src }));
                    self.ops.push(Op::Emit { event: *id as u32, argc: args.len() as u32 });
                }
                Command::ForAll { set, body, .. } => {
                    let set = self.expr(set);
                    let Kind::Set { dom, .. } = self.kind(set) else {
                        self.ops.push(Op::Bail);
                        continue;
                    };
                    let binder = self.slot(Kind::scalar(dom));
                    let (body, ()) = self.body(binder, |l| l.commands(body));
                    self.ops.push(Op::ForAll { set, binder, base: dom.base(), body });
                }
            }
        }
    }

    /// What a word of `kind` written to `var` is checked against, as
    /// [`RegFile::write`] checks it; `None` if no such word fits.
    fn check(&self, var: usize, kind: Kind) -> Option<Check> {
        match (self.prog.vars[var].elem, kind) {
            (Type::Scalar(Domain::Int { lo, hi }), Kind::Int) => Some(Check::Range(lo, hi)),
            (Type::Scalar(Domain::Sym(t)), Kind::Sym(k)) if t == k => {
                Some(Check::Range(0, self.prog.sym_size(t) as i64 - 1))
            }
            (Type::Scalar(Domain::Bool), Kind::Bool) => Some(Check::Any),
            (Type::Set(d), Kind::Set { dom, .. }) => match (d, dom) {
                (Domain::Int { .. }, Domain::Int { .. }) | (Domain::Bool, Domain::Bool) => {
                    Some(Check::Any)
                }
                (Domain::Sym(x), Domain::Sym(y)) if x == y => Some(Check::Any),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One run of slot code: what its ops read.
struct Run<'a> {
    code: &'a SlotCode,
    prog: &'a Program,
    params: &'a [Value],
    regs: &'a RegFile,
    /// The map if it serves the program, else an empty one.
    inputs: &'a InputMap,
}

/// `(a << sa) op (b << sb)` within a hull of at most 64 elements.
#[inline]
fn moved(w: &[u64], a: Slot, b: Slot, sa: u32, sb: u32) -> (u64, u64) {
    (w[a as usize] << sa, w[b as usize] << sb)
}

impl Run<'_> {
    #[inline]
    fn load(&self, dst: Slot, v: Option<&Value>) -> Option<u64> {
        self.code.kinds[dst as usize].word(v?)
    }

    /// Runs `ops` over the slot array `w`; `None` as soon as a check fails.
    fn ops(&self, ops: &[Op], w: &mut [u64], fx: &mut Frame, idx: &mut u64) -> Option<()> {
        for op in ops {
            match *op {
                Op::Const { dst, w: v } => w[dst as usize] = v,
                Op::Param { dst, param } => {
                    w[dst as usize] = self.load(dst, self.params.get(param as usize))?
                }
                Op::Var { dst, var, at } => {
                    let v = self.regs.raw(var as usize).get(at.cell(w));
                    w[dst as usize] = self.load(dst, v)?;
                }
                Op::Input { dst, at, default } => {
                    w[dst as usize] = self.inputs.word(at.cell(w), default as usize)?
                }
                Op::Index { dst, src, base, size, stride, acc } => {
                    let ord = w[src as usize].wrapping_sub(base as u64);
                    if ord >= size {
                        return None;
                    }
                    w[dst as usize] = w[acc as usize] + ord * stride;
                }
                Op::Not { dst, a } => w[dst as usize] = w[a as usize] ^ 1,
                Op::Neg { dst, a } => w[dst as usize] = w[a as usize].wrapping_neg(),
                Op::Add { dst, a, b } => {
                    w[dst as usize] = w[a as usize].wrapping_add(w[b as usize])
                }
                Op::Sub { dst, a, b } => {
                    w[dst as usize] = w[a as usize].wrapping_sub(w[b as usize])
                }
                Op::Mul { dst, a, b } => {
                    w[dst as usize] = w[a as usize].wrapping_mul(w[b as usize])
                }
                Op::Lt { dst, a, b } => {
                    w[dst as usize] = u64::from((w[a as usize] as i64) < w[b as usize] as i64)
                }
                Op::Le { dst, a, b } => {
                    w[dst as usize] = u64::from(w[a as usize] as i64 <= w[b as usize] as i64)
                }
                Op::Eq { dst, a, b } => w[dst as usize] = u64::from(w[a as usize] == w[b as usize]),
                Op::And { dst, a, b } => w[dst as usize] = w[a as usize] & w[b as usize],
                Op::Or { dst, a, b } => w[dst as usize] = w[a as usize] | w[b as usize],
                Op::Min { dst, a, b } => {
                    w[dst as usize] = (w[a as usize] as i64).min(w[b as usize] as i64) as u64
                }
                Op::Max { dst, a, b } => {
                    w[dst as usize] = (w[a as usize] as i64).max(w[b as usize] as i64) as u64
                }
                Op::AbsDiff { dst, a, b } => {
                    let d = (w[a as usize] as i64).wrapping_sub(w[b as usize] as i64);
                    w[dst as usize] = d.wrapping_abs() as u64;
                }
                Op::Xor { dst, a, b } => w[dst as usize] = w[a as usize] ^ w[b as usize],
                Op::MaxSym { dst, a, b } => w[dst as usize] = w[a as usize].max(w[b as usize]),
                Op::Popcount { dst, a } => w[dst as usize] = u64::from(w[a as usize].count_ones()),
                Op::Bit { dst, a, b } => {
                    let i = w[b as usize];
                    if i >= 64 {
                        return None;
                    }
                    w[dst as usize] = w[a as usize] >> i & 1;
                }
                Op::SetEq { dst, a, b, sa, sb } => {
                    let (x, y) = (u128::from(w[a as usize]), u128::from(w[b as usize]));
                    w[dst as usize] = u64::from(x << sa == y << sb);
                }
                Op::BothEmpty { dst, a, b } => {
                    w[dst as usize] = u64::from(w[a as usize] | w[b as usize] == 0)
                }
                Op::In { dst, elem, set, base, size } => {
                    let ord = w[elem as usize].wrapping_sub(base as u64);
                    w[dst as usize] = u64::from(ord < size && w[set as usize] >> ord & 1 != 0);
                }
                Op::Union { dst, a, b, sa, sb } => {
                    let (x, y) = moved(w, a, b, sa, sb);
                    w[dst as usize] = x | y;
                }
                Op::Isect { dst, a, b, sa, sb } => {
                    let (x, y) = moved(w, a, b, sa, sb);
                    w[dst as usize] = x & y;
                }
                Op::Diff { dst, a, b, sa, sb } => {
                    let (x, y) = moved(w, a, b, sa, sb);
                    w[dst as usize] = x & !y;
                }
                Op::Include { dst, set, elem, base, size, add } => {
                    let ord = w[elem as usize].wrapping_sub(base as u64);
                    if ord >= size {
                        return None;
                    }
                    let s = w[set as usize];
                    w[dst as usize] = if add { s | 1 << ord } else { s & !(1 << ord) };
                }
                Op::ArgBest { dst, set, shift, default, valid, base, max } => {
                    let mut rest = w[set as usize];
                    if rest == 0 || rest & !valid != 0 {
                        return None;
                    }
                    let mut best: Option<(i64, u32)> = None;
                    while rest != 0 {
                        let k = rest.trailing_zeros();
                        rest &= rest - 1;
                        let at = (i64::from(k) + shift) as usize;
                        let v = self.inputs.word(at, default as usize)? as i64;
                        let better = match best {
                            None => true,
                            Some((b, _)) => (v > b && max) || (v < b && !max),
                        };
                        if better {
                            best = Some((v, k));
                        }
                    }
                    let (_, k) = best?;
                    w[dst as usize] = base.wrapping_add(i64::from(k)) as u64;
                }
                Op::Quant { dst, set, binder, base, out, body, all } => {
                    let (mut rest, mut holds) = (w[set as usize], all);
                    let body = &self.code.bodies[body.0 as usize..body.1 as usize];
                    while rest != 0 {
                        let k = rest.trailing_zeros();
                        rest &= rest - 1;
                        w[binder as usize] = base.wrapping_add(i64::from(k)) as u64;
                        self.ops(body, w, fx, idx)?;
                        // the first member that decides ends the scan
                        if (w[out as usize] != 0) != all {
                            holds = !all;
                            break;
                        }
                    }
                    w[dst as usize] = u64::from(holds);
                }
                Op::Digit { src, stride, radix } => {
                    let d = w[src as usize];
                    if d >= radix {
                        return None;
                    }
                    *idx += d * stride;
                }
                Op::Wire { at, default, stride, radix } => {
                    let d = self.inputs.word(at as usize, default as usize)?;
                    if d >= radix {
                        return None;
                    }
                    *idx += d * stride;
                }
                Op::Bail => return None,
                Op::Write { var, at, src, check } => {
                    self.write(var, at.cell(w), src, check, w, fx)?
                }
                Op::Return { src } => {
                    let v = self.code.kinds[src as usize].value(w[src as usize]);
                    fx.queue_return(self.prog, v).ok()?;
                }
                Op::Arg { src } => {
                    fx.push_arg(self.code.kinds[src as usize].value(w[src as usize]))
                }
                Op::Emit { event, argc } => fx.queue_emit(event as usize, argc as usize),
                Op::ForAll { set, binder, base, body } => {
                    let mut rest = w[set as usize];
                    let body = &self.code.bodies[body.0 as usize..body.1 as usize];
                    while rest != 0 {
                        let k = rest.trailing_zeros();
                        rest &= rest - 1;
                        w[binder as usize] = base.wrapping_add(i64::from(k)) as u64;
                        self.ops(body, w, fx, idx)?;
                    }
                }
            }
        }
        Some(())
    }

    #[inline]
    fn write(
        &self,
        var: u32,
        cell: usize,
        src: Slot,
        check: Check,
        w: &[u64],
        fx: &mut Frame,
    ) -> Option<()> {
        let word = w[src as usize];
        if let Check::Range(lo, hi) = check {
            if !(lo..=hi).contains(&(word as i64)) {
                return None;
            }
        }
        let v = self.code.kinds[src as usize].value(word);
        fx.queue_write(var as usize, Ok(cell), v);
        Some(())
    }
}

//! Recursive-descent parser producing the resolved, typed AST.
//!
//! Resolution and type checking happen during the single parse pass:
//! declarations precede use (as in the paper's examples), so every
//! identifier can be resolved against the symbol table built so far, and
//! every expression is typed bottom-up as it is constructed.

use crate::ast::*;
use crate::error::{Pos, Result, RuleError};
use crate::lexer::lex;
use crate::token::{Keyword as Kw, Spanned, Tok};
use crate::value::{Domain, Type, Value};
use std::collections::HashMap;

/// Parses a complete rule program.
pub fn parse(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        prog: Program::default(),
        domains: HashMap::new(),
        params: Vec::new(),
        bounds: Vec::new(),
    };
    p.program()?;
    p.prog.resolve_events();
    Ok(p.prog)
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    prog: Program,
    /// Named domains: symbol types and `CONSTANT d = lo TO hi` ranges.
    domains: HashMap<String, Domain>,
    /// Parameters of the rule base currently being parsed.
    params: Vec<Param>,
    /// Stack of quantifier binders, innermost last.
    bounds: Vec<(String, Domain)>,
}

impl Parser {
    // ------------------------------------------------------------- helpers

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, k: Kw) -> Result<()> {
        self.expect(&Tok::Kw(k))
    }

    fn err(&self, msg: String) -> RuleError {
        RuleError::Parse { pos: self.pos(), msg }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn int_lit(&mut self) -> Result<i64> {
        let neg = self.eat(&Tok::Minus);
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    fn dom_size(&self, d: Domain) -> u64 {
        d.size(self.prog.sym_sizes())
    }

    fn full_set(&self, d: Domain) -> Result<Value> {
        Value::full_set(d, self.prog.sym_sizes()).map_err(|e| match e {
            RuleError::Eval { msg } => RuleError::Resolve { msg },
            other => other,
        })
    }

    fn check_fresh(&self, name: &str) -> Result<()> {
        let clash = self.domains.contains_key(name)
            || self.prog.consts.iter().any(|c| c.name == name)
            || self.prog.vars.iter().any(|v| v.name == name)
            || self.prog.inputs.iter().any(|v| v.name == name)
            || self.prog.symbol_value(name).is_some();
        if clash {
            Err(RuleError::resolve(format!("name `{name}` already declared")))
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------- program

    fn program(&mut self) -> Result<()> {
        loop {
            match self.peek().clone() {
                Tok::Eof => return Ok(()),
                Tok::Kw(Kw::Constant) => self.constant_decl()?,
                Tok::Kw(Kw::Variable) => self.var_decl()?,
                Tok::Kw(Kw::Input) => self.input_decl()?,
                Tok::Kw(Kw::On) => self.rulebase()?,
                other => return Err(self.err(format!("expected declaration, found {other}"))),
            }
        }
    }

    /// `CONSTANT name = {a, b, c}` — symbol type + full-set constant
    /// `CONSTANT name = lo TO hi`  — named integer domain + full-set constant
    /// `CONSTANT name = <int>`     — plain integer constant
    fn constant_decl(&mut self) -> Result<()> {
        self.expect_kw(Kw::Constant)?;
        let name = self.ident()?;
        self.check_fresh(&name)?;
        self.expect(&Tok::Eq)?;
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                let mut symbols = Vec::new();
                if !self.eat(&Tok::RBrace) {
                    loop {
                        let s = self.ident()?;
                        if self.prog.symbol_value(&s).is_some() {
                            return Err(RuleError::resolve(format!(
                                "symbol `{s}` already declared in another type"
                            )));
                        }
                        if symbols.contains(&s) {
                            return Err(RuleError::resolve(format!(
                                "duplicate symbol `{s}` in type `{name}`"
                            )));
                        }
                        symbols.push(s);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RBrace)?;
                }
                if symbols.is_empty() {
                    return Err(RuleError::resolve(format!("symbol type `{name}` is empty")));
                }
                let t = self.prog.sym_types.len();
                self.prog.declare_sym_type(SymType { name: name.clone(), symbols });
                let dom = Domain::Sym(t);
                self.domains.insert(name.clone(), dom);
                let full = self.full_set(dom)?;
                self.prog.consts.push(ConstDecl { name, value: full, ty: Type::Set(dom) });
            }
            _ => {
                let lo = self.const_int_bound()?;
                if self.eat(&Tok::Kw(Kw::To)) {
                    let hi = self.const_int_bound()?;
                    if hi < lo {
                        return Err(RuleError::resolve(format!(
                            "empty range {lo} TO {hi} for `{name}`"
                        )));
                    }
                    let dom = Domain::Int { lo, hi };
                    self.domains.insert(name.clone(), dom);
                    let full = self.full_set(dom)?;
                    self.prog.consts.push(ConstDecl { name, value: full, ty: Type::Set(dom) });
                } else {
                    self.prog.consts.push(ConstDecl {
                        name,
                        value: Value::Int(lo),
                        ty: Type::Scalar(Domain::Int { lo, hi: lo }),
                    });
                }
            }
        }
        Ok(())
    }

    /// An integer bound: a constant expression, `+`/`-` over integer
    /// literals and previously declared integer constants (`d - 1`).
    fn const_int_bound(&mut self) -> Result<i64> {
        let (mut v, mut neg) = (0i64, false);
        loop {
            let t = match self.peek().clone() {
                Tok::Int(_) | Tok::Minus => self.int_lit()?,
                Tok::Ident(name) => {
                    self.bump();
                    let c = self.prog.consts.iter().find(|c| c.name == name);
                    let c = c.ok_or_else(|| {
                        RuleError::resolve(format!("unknown integer constant `{name}`"))
                    })?;
                    let not_int =
                        |_| RuleError::resolve(format!("`{name}` is not an integer constant"));
                    c.value.as_int().map_err(not_int)?
                }
                other => return Err(self.err(format!("expected integer bound, found {other}"))),
            };
            v = if neg { v.checked_sub(t) } else { v.checked_add(t) }
                .ok_or_else(|| RuleError::resolve("constant expression overflows".to_string()))?;
            neg = match self.peek() {
                Tok::Plus => false,
                Tok::Minus => true,
                _ => return Ok(v),
            };
            self.bump();
        }
    }

    /// A domain expression: `lo TO hi` over constant expressions, a named
    /// domain, or `bool`.
    fn domain(&mut self) -> Result<Domain> {
        if let Tok::Ident(name) = self.peek().clone() {
            if name == "bool" {
                self.bump();
                return Ok(Domain::Bool);
            }
            if let Some(&dom) = self.domains.get(&name) {
                self.bump();
                return Ok(dom);
            }
            if !self.prog.consts.iter().any(|c| c.name == name) {
                return Err(RuleError::resolve(format!("unknown domain `{name}`")));
            }
        }
        let lo = self.const_int_bound()?;
        self.expect_kw(Kw::To)?;
        let hi = self.const_int_bound()?;
        if hi < lo {
            return Err(RuleError::resolve(format!("empty range {lo} TO {hi}")));
        }
        Ok(Domain::Int { lo, hi })
    }

    /// A type expression: domain or `SETOF domain`.
    fn type_expr(&mut self) -> Result<Type> {
        if self.eat(&Tok::Kw(Kw::SetOf)) {
            let d = self.domain()?;
            if self.dom_size(d) > 64 {
                return Err(RuleError::resolve("set domain larger than 64 elements".to_string()));
            }
            Ok(Type::Set(d))
        } else {
            Ok(Type::Scalar(self.domain()?))
        }
    }

    /// `VARIABLE name[doms] IN type [INIT expr]`
    fn var_decl(&mut self) -> Result<()> {
        let pos = self.pos();
        self.expect_kw(Kw::Variable)?;
        let name = self.ident()?;
        self.check_fresh(&name)?;
        let index_domains = self.index_domains()?;
        self.expect_kw(Kw::In)?;
        let elem = self.type_expr()?;
        let init = if self.eat(&Tok::Kw(Kw::Init)) {
            let (e, t) = self.expr()?;
            self.check_assignable(elem, t)?;
            self.const_eval(&e)?
        } else {
            self.default_value(elem)?
        };
        self.prog.declare_var(VarDecl { name, index_domains, elem, init, pos });
        Ok(())
    }

    /// `INPUT name[doms] IN type`
    fn input_decl(&mut self) -> Result<()> {
        let pos = self.pos();
        self.expect_kw(Kw::Input)?;
        let name = self.ident()?;
        self.check_fresh(&name)?;
        let index_domains = self.index_domains()?;
        self.expect_kw(Kw::In)?;
        let elem = self.type_expr()?;
        self.prog.declare_input(InputDecl { name, index_domains, elem, pos });
        Ok(())
    }

    fn index_domains(&mut self) -> Result<Vec<Domain>> {
        let mut out = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                out.push(self.domain()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBracket)?;
        }
        Ok(out)
    }

    fn default_value(&self, t: Type) -> Result<Value> {
        Ok(match t {
            Type::Scalar(d) => d.value_at(0),
            Type::Set(d) => Value::empty_set(d),
        })
    }

    // ----------------------------------------------------------- rule base

    /// `ON name(params) [RETURNS type] [NFT] rules END [name] [;]`
    fn rulebase(&mut self) -> Result<()> {
        let pos = self.pos();
        self.expect_kw(Kw::On)?;
        let name = self.ident()?;
        if self.prog.rulebase(&name).is_some() {
            return Err(RuleError::resolve(format!("rule base `{name}` already defined")));
        }
        self.params.clear();
        self.expect(&Tok::LParen)?;
        if !self.eat(&Tok::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect_kw(Kw::In)?;
                let dom = self.domain()?;
                if self.params.iter().any(|p| p.name == pname) {
                    return Err(RuleError::resolve(format!("duplicate parameter `{pname}`")));
                }
                self.params.push(Param { name: pname, dom });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let returns = if self.eat(&Tok::Kw(Kw::Returns)) { Some(self.type_expr()?) } else { None };
        let nft = self.eat(&Tok::Kw(Kw::Nft));

        let mut rules = Vec::new();
        while self.peek() == &Tok::Kw(Kw::If) {
            rules.push(self.rule(returns)?);
        }
        self.expect_kw(Kw::End)?;
        if let Tok::Ident(end_name) = self.peek().clone() {
            self.bump();
            if end_name != name {
                return Err(RuleError::resolve(format!(
                    "END `{end_name}` does not match ON `{name}`"
                )));
            }
        }
        self.eat(&Tok::Semi);
        let params = std::mem::take(&mut self.params);
        self.prog.rulebases.push(RuleBase { name, params, returns, nft, rules, pos });
        Ok(())
    }

    fn rule(&mut self, returns: Option<Type>) -> Result<Rule> {
        let pos = self.pos();
        self.expect_kw(Kw::If)?;
        let (premise, pt) = self.expr()?;
        if pt != Type::Scalar(Domain::Bool) {
            return Err(RuleError::resolve("rule premise must be boolean".to_string()));
        }
        self.expect_kw(Kw::Then)?;
        let mut conclusion = vec![self.command(returns)?];
        while self.eat(&Tok::Comma) {
            conclusion.push(self.command(returns)?);
        }
        self.expect(&Tok::Semi)?;
        Ok(Rule { premise, conclusion, pos })
    }

    fn command(&mut self, returns: Option<Type>) -> Result<Command> {
        match self.peek().clone() {
            Tok::Kw(Kw::Return) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let (e, t) = self.expr()?;
                self.expect(&Tok::RParen)?;
                let rt = returns.ok_or_else(|| {
                    RuleError::resolve("RETURN in a rule base without RETURNS".to_string())
                })?;
                self.check_assignable(rt, t)?;
                Ok(Command::Return(e))
            }
            Tok::Bang => {
                self.bump();
                let event = self.ident()?;
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                if !self.eat(&Tok::RParen) {
                    loop {
                        let (e, _t) = self.expr()?;
                        args.push(e);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                let id = self.prog.intern_event(&event);
                Ok(Command::Emit { event, id, args })
            }
            Tok::Kw(Kw::Forall) => {
                self.bump();
                let binder = self.ident()?;
                self.expect_kw(Kw::In)?;
                let (set, st) = self.expr()?;
                let dom = match st {
                    Type::Set(d) => d,
                    _ => {
                        return Err(RuleError::resolve(
                            "FORALL command must range over a set".to_string(),
                        ))
                    }
                };
                self.expect(&Tok::Colon)?;
                self.bounds.push((binder, dom));
                let body = vec![self.command(returns)?];
                self.bounds.pop();
                Ok(Command::ForAll { dom, set, body })
            }
            Tok::Ident(_) => {
                // assignment: lvalue <- expr
                let name = self.ident()?;
                let var = self.prog.vars.iter().position(|v| v.name == name).ok_or_else(|| {
                    RuleError::resolve(format!("assignment to non-register `{name}`"))
                })?;
                let decl = self.prog.vars[var].clone();
                let mut indices = Vec::new();
                if self.eat(&Tok::LParen) {
                    loop {
                        let (e, t) = self.expr()?;
                        indices.push((e, t));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                if indices.len() != decl.index_domains.len() {
                    return Err(RuleError::resolve(format!(
                        "`{name}` expects {} indices, got {}",
                        decl.index_domains.len(),
                        indices.len()
                    )));
                }
                for ((_, t), d) in indices.iter().zip(&decl.index_domains) {
                    self.check_assignable(Type::Scalar(*d), *t)?;
                }
                self.expect(&Tok::Assign)?;
                let (value, vt) = self.expr()?;
                self.check_assignable(decl.elem, vt)?;
                Ok(Command::Assign {
                    var,
                    indices: indices.into_iter().map(|(e, _)| e).collect(),
                    value,
                })
            }
            other => Err(self.err(format!("expected command, found {other}"))),
        }
    }

    /// Kind-level assignability: Int ranges unify (runtime range check),
    /// symbol types and set domains must match exactly.
    fn check_assignable(&self, target: Type, value: Type) -> Result<()> {
        let ok = match (target, value) {
            (Type::Scalar(a), Type::Scalar(b)) => self.same_kind(a, b),
            (Type::Set(a), Type::Set(b)) => self.same_kind(a, b),
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(RuleError::resolve(format!(
                "type mismatch: cannot use {value:?} where {target:?} is expected"
            )))
        }
    }

    fn same_kind(&self, a: Domain, b: Domain) -> bool {
        matches!((a, b), (Domain::Int { .. }, Domain::Int { .. }) | (Domain::Bool, Domain::Bool))
            || matches!((a, b), (Domain::Sym(x), Domain::Sym(y)) if x == y)
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<(Expr, Type)> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<(Expr, Type)> {
        let (mut e, mut t) = self.and_expr()?;
        while self.eat(&Tok::Kw(Kw::Or)) {
            let (r, rt) = self.and_expr()?;
            self.require_bool(t)?;
            self.require_bool(rt)?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(r));
            t = Type::Scalar(Domain::Bool);
        }
        Ok((e, t))
    }

    fn and_expr(&mut self) -> Result<(Expr, Type)> {
        let (mut e, mut t) = self.not_expr()?;
        while self.eat(&Tok::Kw(Kw::And)) {
            let (r, rt) = self.not_expr()?;
            self.require_bool(t)?;
            self.require_bool(rt)?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(r));
            t = Type::Scalar(Domain::Bool);
        }
        Ok((e, t))
    }

    fn not_expr(&mut self) -> Result<(Expr, Type)> {
        if self.eat(&Tok::Kw(Kw::Not)) {
            let (e, t) = self.not_expr()?;
            self.require_bool(t)?;
            Ok((Expr::Un(UnOp::Not, Box::new(e)), Type::Scalar(Domain::Bool)))
        } else {
            self.cmp_expr()
        }
    }

    fn require_bool(&self, t: Type) -> Result<()> {
        if t == Type::Scalar(Domain::Bool) {
            Ok(())
        } else {
            Err(RuleError::resolve(format!("expected boolean, got {t:?}")))
        }
    }

    fn cmp_expr(&mut self) -> Result<(Expr, Type)> {
        let (l, lt) = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::Kw(Kw::In) => BinOp::In,
            _ => return Ok((l, lt)),
        };
        self.bump();
        let (r, rt) = self.add_expr()?;
        let bool_t = Type::Scalar(Domain::Bool);
        match op {
            BinOp::Eq | BinOp::Ne => {
                let ok = match (lt, rt) {
                    (Type::Scalar(a), Type::Scalar(b)) => self.same_kind(a, b),
                    (Type::Set(a), Type::Set(b)) => self.same_kind(a, b),
                    _ => false,
                };
                if !ok {
                    return Err(RuleError::resolve(format!("cannot compare {lt:?} with {rt:?}")));
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                self.require_int(lt)?;
                self.require_int(rt)?;
            }
            BinOp::In => {
                let (elem, dom) = match (lt, rt) {
                    (Type::Scalar(a), Type::Set(b)) => (a, b),
                    _ => {
                        return Err(RuleError::resolve(format!(
                            "IN expects scalar IN set, got {lt:?} IN {rt:?}"
                        )))
                    }
                };
                if !self.same_kind(elem, dom) {
                    return Err(RuleError::resolve(format!(
                        "IN over mismatched kinds: {elem:?} vs {dom:?}"
                    )));
                }
            }
            _ => unreachable!(),
        }
        Ok((Expr::Bin(op, Box::new(l), Box::new(r)), bool_t))
    }

    fn require_int(&self, t: Type) -> Result<(i64, i64)> {
        match t {
            Type::Scalar(Domain::Int { lo, hi }) => Ok((lo, hi)),
            _ => Err(RuleError::resolve(format!("expected integer, got {t:?}"))),
        }
    }

    fn add_expr(&mut self) -> Result<(Expr, Type)> {
        let (mut e, mut t) = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let (r, rt) = self.mul_expr()?;
            let (llo, lhi) = self.require_int(t)?;
            let (rlo, rhi) = self.require_int(rt)?;
            t = match op {
                BinOp::Add => int_range(llo.checked_add(rlo), lhi.checked_add(rhi))?,
                BinOp::Sub => int_range(llo.checked_sub(rhi), lhi.checked_sub(rlo))?,
                _ => unreachable!(),
            };
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok((e, t))
    }

    fn mul_expr(&mut self) -> Result<(Expr, Type)> {
        let (mut e, mut t) = self.unary_expr()?;
        while self.eat(&Tok::Star) {
            let (r, rt) = self.unary_expr()?;
            let (llo, lhi) = self.require_int(t)?;
            let (rlo, rhi) = self.require_int(rt)?;
            let cands =
                [(llo, rlo), (llo, rhi), (lhi, rlo), (lhi, rhi)].map(|(a, b)| a.checked_mul(b));
            let lo = cands.iter().try_fold(i64::MAX, |m, c| Some(m.min((*c)?)));
            let hi = cands.iter().try_fold(i64::MIN, |m, c| Some(m.max((*c)?)));
            t = int_range(lo, hi)?;
            e = Expr::Bin(BinOp::Mul, Box::new(e), Box::new(r));
        }
        Ok((e, t))
    }

    fn unary_expr(&mut self) -> Result<(Expr, Type)> {
        if self.eat(&Tok::Minus) {
            let (e, t) = self.unary_expr()?;
            let (lo, hi) = self.require_int(t)?;
            Ok((Expr::Un(UnOp::Neg, Box::new(e)), int_range(hi.checked_neg(), lo.checked_neg())?))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<(Expr, Type)> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok((Expr::Lit(Value::Int(v)), Type::Scalar(Domain::Int { lo: v, hi: v })))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok((Expr::Lit(Value::Bool(true)), Type::Scalar(Domain::Bool)))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok((Expr::Lit(Value::Bool(false)), Type::Scalar(Domain::Bool)))
            }
            Tok::LParen => {
                self.bump();
                let et = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(et)
            }
            Tok::LBrace => self.set_literal(),
            Tok::Kw(Kw::Exists) => self.quantifier(Quant::Exists),
            Tok::Kw(Kw::Forall) => self.quantifier(Quant::Forall),
            Tok::Ident(name) => {
                self.bump();
                self.name_expr(name)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    /// `{e1, e2, ...}` — constant set literal.
    fn set_literal(&mut self) -> Result<(Expr, Type)> {
        self.expect(&Tok::LBrace)?;
        let mut vals = Vec::new();
        if !self.eat(&Tok::RBrace) {
            loop {
                let (e, _t) = self.expr()?;
                vals.push(self.const_eval(&e)?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
        }
        if vals.is_empty() {
            return Err(RuleError::resolve(
                "empty set literal needs a context; use a typed constant".to_string(),
            ));
        }
        // derive the element domain
        let dom = match vals[0] {
            Value::Int(_) => {
                let ints: Result<Vec<i64>> = vals.iter().map(|v| v.as_int()).collect();
                let ints =
                    ints.map_err(|_| RuleError::resolve("mixed kinds in set literal".to_string()))?;
                Domain::Int { lo: *ints.iter().min().unwrap(), hi: *ints.iter().max().unwrap() }
            }
            Value::Sym { ty, .. } => {
                if !vals.iter().all(|v| matches!(v, Value::Sym { ty: t2, .. } if *t2 == ty)) {
                    return Err(RuleError::resolve(
                        "mixed symbol types in set literal".to_string(),
                    ));
                }
                Domain::Sym(ty)
            }
            Value::Bool(_) => Domain::Bool,
            Value::Set { .. } => {
                return Err(RuleError::resolve("sets of sets are not supported".to_string()))
            }
        };
        if self.dom_size(dom) > 64 {
            return Err(RuleError::resolve("set literal domain exceeds 64 elements".to_string()));
        }
        let mut mask = 0u64;
        for v in &vals {
            let k = dom.ordinal(v, self.prog.sym_sizes()).expect("element in derived domain");
            mask |= 1 << k;
        }
        Ok((Expr::Lit(Value::Set { dom, mask }), Type::Set(dom)))
    }

    fn quantifier(&mut self, q: Quant) -> Result<(Expr, Type)> {
        self.bump(); // EXISTS / FORALL
        let binder = self.ident()?;
        self.expect_kw(Kw::In)?;
        let (set, st) = self.expr()?;
        let dom = match st {
            Type::Set(d) => d,
            _ => return Err(RuleError::resolve("quantifier must range over a set".to_string())),
        };
        self.expect(&Tok::Colon)?;
        self.bounds.push((binder, dom));
        let (body, bt) = self.or_expr()?;
        self.bounds.pop();
        self.require_bool(bt)?;
        Ok((
            Expr::Quant { q, dom, set: Box::new(set), body: Box::new(body) },
            Type::Scalar(Domain::Bool),
        ))
    }

    /// Resolve a bare or applied identifier.
    fn name_expr(&mut self, name: String) -> Result<(Expr, Type)> {
        // applied form: name(args)
        if self.peek() == &Tok::LParen {
            // builtins first
            if let Some(bt) = builtin_by_name(&name) {
                return self.builtin_call(name, bt);
            }
            if let Some(vi) = self.prog.vars.iter().position(|v| v.name == name) {
                return self.indexed_read(IndexedRef::Var(vi));
            }
            if let Some(ii) = self.prog.inputs.iter().position(|v| v.name == name) {
                return self.indexed_read(IndexedRef::Input(ii));
            }
            return Err(RuleError::resolve(format!("`{name}` is not an array, input or builtin")));
        }
        // bound binders, innermost first
        for (depth, (bname, dom)) in self.bounds.iter().rev().enumerate() {
            if *bname == name {
                return Ok((Expr::Ref(Ref::Bound(depth)), Type::Scalar(*dom)));
            }
        }
        if let Some(pi) = self.params.iter().position(|p| p.name == name) {
            let dom = self.params[pi].dom;
            return Ok((Expr::Ref(Ref::Param(pi)), Type::Scalar(dom)));
        }
        if let Some(ci) = self.prog.consts.iter().position(|c| c.name == name) {
            let ty = self.prog.consts[ci].ty;
            return Ok((Expr::Ref(Ref::Const(ci)), ty));
        }
        if let Some(vi) = self.prog.vars.iter().position(|v| v.name == name) {
            let d = &self.prog.vars[vi];
            if !d.index_domains.is_empty() {
                return Err(RuleError::resolve(format!("array `{name}` used without indices")));
            }
            return Ok((Expr::Ref(Ref::Var(vi)), d.elem));
        }
        if let Some(ii) = self.prog.inputs.iter().position(|v| v.name == name) {
            let d = &self.prog.inputs[ii];
            if !d.index_domains.is_empty() {
                return Err(RuleError::resolve(format!(
                    "input array `{name}` used without indices"
                )));
            }
            return Ok((Expr::Ref(Ref::Input(ii)), d.elem));
        }
        if let Some(v) = self.prog.symbol_value(&name) {
            let ty = match v {
                Value::Sym { ty, .. } => Type::Scalar(Domain::Sym(ty)),
                _ => unreachable!(),
            };
            return Ok((Expr::Lit(v), ty));
        }
        Err(RuleError::resolve(format!("unknown name `{name}`")))
    }

    fn indexed_read(&mut self, target: IndexedRef) -> Result<(Expr, Type)> {
        let (doms, elem, name) = match target {
            IndexedRef::Var(i) => {
                let d = &self.prog.vars[i];
                (d.index_domains.clone(), d.elem, d.name.clone())
            }
            IndexedRef::Input(i) => {
                let d = &self.prog.inputs[i];
                (d.index_domains.clone(), d.elem, d.name.clone())
            }
        };
        self.expect(&Tok::LParen)?;
        let mut indices = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (e, t) = self.expr()?;
                indices.push((e, t));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        if indices.len() != doms.len() {
            return Err(RuleError::resolve(format!(
                "`{name}` expects {} indices, got {}",
                doms.len(),
                indices.len()
            )));
        }
        for ((_, t), d) in indices.iter().zip(&doms) {
            self.check_assignable(Type::Scalar(*d), *t)?;
        }
        Ok((Expr::Indexed { target, indices: indices.into_iter().map(|(e, _)| e).collect() }, elem))
    }

    fn builtin_call(&mut self, name: String, b: Builtin) -> Result<(Expr, Type)> {
        self.expect(&Tok::LParen)?;
        // argmin/argmax take the input name as first argument
        if matches!(b, Builtin::ArgMin(_) | Builtin::ArgMax(_)) {
            let iname = self.ident()?;
            let ii = self.prog.inputs.iter().position(|i| i.name == iname).ok_or_else(|| {
                RuleError::resolve(format!("`{iname}` is not an input (argmin/argmax)"))
            })?;
            let decl = self.prog.inputs[ii].clone();
            if decl.index_domains.len() != 1 {
                return Err(RuleError::resolve(format!(
                    "argmin/argmax input `{iname}` must have exactly one index domain"
                )));
            }
            if !matches!(decl.elem, Type::Scalar(Domain::Int { .. })) {
                return Err(RuleError::resolve(
                    "argmin/argmax input must hold integers".to_string(),
                ));
            }
            self.expect(&Tok::Comma)?;
            let (set, st) = self.expr()?;
            self.expect(&Tok::RParen)?;
            let idx_dom = decl.index_domains[0];
            match st {
                Type::Set(d) if self.same_kind(d, idx_dom) => {}
                _ => {
                    return Err(RuleError::resolve(
                        "argmin/argmax set must range over the input's index domain".to_string(),
                    ))
                }
            }
            let bt = match b {
                Builtin::ArgMin(_) => Builtin::ArgMin(ii),
                _ => Builtin::ArgMax(ii),
            };
            return Ok((Expr::Call { builtin: bt, args: vec![set] }, Type::Scalar(idx_dom)));
        }

        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let arity = match b {
            Builtin::Popcount | Builtin::Card => 1,
            _ => 2,
        };
        if args.len() != arity {
            return Err(RuleError::resolve(format!(
                "`{name}` expects {arity} arguments, got {}",
                args.len()
            )));
        }
        let ty = match b {
            Builtin::Min | Builtin::Max => {
                let (alo, ahi) = self.require_int(args[0].1)?;
                let (blo, bhi) = self.require_int(args[1].1)?;
                Type::Scalar(Domain::Int { lo: alo.min(blo), hi: ahi.max(bhi) })
            }
            Builtin::AbsDiff => {
                let (alo, ahi) = self.require_int(args[0].1)?;
                let (blo, bhi) = self.require_int(args[1].1)?;
                let hi = ahi.checked_sub(blo).zip(bhi.checked_sub(alo));
                int_range(Some(0), hi.map(|(a, b)| a.max(b).max(0)))?
            }
            Builtin::Xor => {
                let (alo, ahi) = self.require_int(args[0].1)?;
                let (blo, bhi) = self.require_int(args[1].1)?;
                if alo < 0 || blo < 0 {
                    return Err(RuleError::resolve("xor needs non-negative ranges".to_string()));
                }
                let bits = 64 - (ahi.max(bhi).max(1) as u64).leading_zeros();
                Type::Scalar(Domain::Int { lo: 0, hi: (u64::MAX >> (64 - bits)) as i64 })
            }
            Builtin::Popcount => {
                let (alo, _ahi) = self.require_int(args[0].1)?;
                if alo < 0 {
                    return Err(RuleError::resolve(
                        "popcount needs non-negative range".to_string(),
                    ));
                }
                Type::Scalar(Domain::Int { lo: 0, hi: 64 })
            }
            Builtin::Bit => {
                self.require_int(args[0].1)?;
                self.require_int(args[1].1)?;
                Type::Scalar(Domain::Bool)
            }
            Builtin::LatMax => {
                let (a, b) = (args[0].1, args[1].1);
                match (a, b) {
                    (Type::Scalar(Domain::Sym(x)), Type::Scalar(Domain::Sym(y))) if x == y => a,
                    _ => {
                        return Err(RuleError::resolve(
                            "latmax expects two symbols of the same type".to_string(),
                        ))
                    }
                }
            }
            Builtin::Card => match args[0].1 {
                Type::Set(d) => {
                    let n = self.dom_size(d) as i64;
                    Type::Scalar(Domain::Int { lo: 0, hi: n })
                }
                _ => return Err(RuleError::resolve("card expects a set".to_string())),
            },
            Builtin::Union | Builtin::Isect | Builtin::Diff => {
                let (a, b) = (args[0].1, args[1].1);
                match (a, b) {
                    (Type::Set(x), Type::Set(y)) if self.same_kind(x, y) => a,
                    _ => {
                        return Err(RuleError::resolve(
                            "set operation expects two sets over the same domain".to_string(),
                        ))
                    }
                }
            }
            Builtin::Include | Builtin::Exclude => {
                let (a, b) = (args[0].1, args[1].1);
                match (a, b) {
                    (Type::Set(x), Type::Scalar(y)) if self.same_kind(x, y) => a,
                    _ => {
                        return Err(RuleError::resolve(
                            "include/exclude expect (set, element of its domain)".to_string(),
                        ))
                    }
                }
            }
            Builtin::ArgMin(_) | Builtin::ArgMax(_) => unreachable!("handled above"),
        };
        Ok((Expr::Call { builtin: b, args: args.into_iter().map(|(e, _)| e).collect() }, ty))
    }

    /// Constant folding for INIT values and set literals:
    /// [`Program::const_value`], or why not.
    fn const_eval(&self, e: &Expr) -> Result<Value> {
        self.prog.const_value(e).ok_or_else(|| {
            let mut why = "constant expression overflows";
            walk_expr(e, &mut |x| match x {
                Expr::Lit(_) | Expr::Ref(Ref::Const(_)) | Expr::Un(UnOp::Neg, _) => {}
                Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, ..) => {}
                Expr::Bin(..) => why = "non-arithmetic operator in constant expression",
                _ => why = "expression is not constant",
            });
            RuleError::resolve(why.to_string())
        })
    }
}

/// The integer type `lo TO hi` of an expression, or a resolve error when
/// a bound overflowed.
fn int_range(lo: Option<i64>, hi: Option<i64>) -> Result<Type> {
    match (lo, hi) {
        (Some(lo), Some(hi)) => Ok(Type::Scalar(Domain::Int { lo, hi })),
        _ => Err(RuleError::resolve("integer range overflows".to_string())),
    }
}

fn builtin_by_name(name: &str) -> Option<Builtin> {
    Some(match name {
        "min" => Builtin::Min,
        "max" => Builtin::Max,
        "absdiff" => Builtin::AbsDiff,
        "xor" => Builtin::Xor,
        "popcount" => Builtin::Popcount,
        "bit" => Builtin::Bit,
        "latmax" => Builtin::LatMax,
        "card" => Builtin::Card,
        "union" => Builtin::Union,
        "isect" => Builtin::Isect,
        "diff" => Builtin::Diff,
        "include" => Builtin::Include,
        "exclude" => Builtin::Exclude,
        "argmin" => Builtin::ArgMin(usize::MAX),
        "argmax" => Builtin::ArgMax(usize::MAX),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_ranges_and_constants_are_resolve_errors() {
        for src in [
            "VARIABLE x IN 0 TO 3 INIT 9223372036854775807 + 1",
            "VARIABLE x IN 0 TO 3 INIT 4611686018427387904 * 4",
            "VARIABLE s IN SETOF 0 TO 3 INIT {9223372036854775807 + 1}",
            "VARIABLE x IN 0 TO 3 INIT -(-9223372036854775807 - 1)",
            "INPUT a IN 0 TO 9223372036854775806\nINPUT b IN -2 TO 0\n\
             ON f() RETURNS 0 TO 1\n IF absdiff(a, b) > 0 THEN RETURN(1);\nEND f;",
        ] {
            let err = parse(src).expect_err(src);
            assert!(matches!(err, RuleError::Resolve { .. }), "{src}: {err}");
            assert!(err.to_string().contains("overflows"), "{src}: {err}");
        }
        // a domain as wide as `i64` counts its elements without overflow,
        // and `xor`'s bound reaches `i64::MAX` without passing it
        let wide = "INPUT a IN 0 TO 9223372036854775807\n\
                    VARIABLE v[-9223372036854775807 - 1 TO 9223372036854775807] IN bool\n\
                    ON f() RETURNS 0 TO 1\n IF xor(a, a) > 0 THEN RETURN(1);\nEND f;";
        parse(wide).unwrap();
    }

    #[test]
    fn parses_minimal_program() {
        let p = parse(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE count IN 0 TO 7 INIT 0\n\
             INPUT load[dirs] IN 0 TO 15\n\
             ON tick(d IN dirs) RETURNS 0 TO 3\n\
               IF load(d) > 7 THEN RETURN(0);\n\
               IF TRUE THEN count <- count + 1, RETURN(1);\n\
             END tick;",
        )
        .unwrap();
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.vars.len(), 1);
        assert_eq!(p.inputs.len(), 1);
        assert_eq!(p.rulebases.len(), 1);
        assert_eq!(p.rulebases[0].rules.len(), 2);
        assert!(!p.rulebases[0].nft);
    }

    #[test]
    fn parses_symbol_types_and_sets() {
        let p = parse(
            "CONSTANT states = {safe, faulty, unsafe_o}\n\
             VARIABLE st IN states INIT safe\n\
             ON upd(s IN states)\n\
               IF s IN {faulty, unsafe_o} AND st = safe THEN st <- s;\n\
             END upd;",
        )
        .unwrap();
        assert_eq!(p.sym_types[0].symbols.len(), 3);
        assert_eq!(p.vars[0].init, Value::Sym { ty: 0, idx: 0 });
    }

    #[test]
    fn parses_figure4_style_rules() {
        // Slightly adapted excerpt of the paper's Figure 4 (ROUTE_C update).
        let src = "
-- fault states of ROUTE_C
CONSTANT fault_states = {safe, ounsafe, sunsafe, lfault, faulty}
CONSTANT dirs = 0 TO 5
CONSTANT ndirs = 6
VARIABLE number_unsafe IN 0 TO 6 INIT 0
VARIABLE number_faulty IN 0 TO 6 INIT 0
VARIABLE neighb_state[dirs] IN fault_states INIT safe
VARIABLE state IN fault_states INIT safe
INPUT new_state[dirs] IN fault_states

ON update_state(dir IN dirs)
  IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
  THEN neighb_state(dir) <- new_state(dir),
       number_faulty <- number_faulty + 1,
       number_unsafe <- number_unsafe + 1;
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe AND number_unsafe = 2
  THEN state <- ounsafe,
       number_unsafe <- number_unsafe + 1,
       FORALL i IN dirs: !send_newmessage(i, ounsafe),
       neighb_state(dir) <- new_state(dir);
END update_state;
";
        let p = parse(src).unwrap();
        let rb = &p.rulebases[0];
        assert_eq!(rb.name, "update_state");
        assert_eq!(rb.rules.len(), 2);
        // second rule: 4 commands, one of which is a FORALL emit
        assert_eq!(rb.rules[1].conclusion.len(), 4);
        assert!(rb.rules[1].conclusion.iter().any(|c| matches!(c, Command::ForAll { .. })));
    }

    #[test]
    fn parses_quantified_premise() {
        let src = "
CONSTANT dirs = 0 TO 3
INPUT free[dirs] IN bool
INPUT queue[dirs] IN 0 TO 255
ON pick() RETURNS dirs
  IF EXISTS i IN dirs: free(i) AND (FORALL j IN dirs: queue(i) <= queue(j))
  THEN RETURN(argmin(queue, dirs));
END pick;
";
        let p = parse(src).unwrap();
        let rb = &p.rulebases[0];
        assert!(matches!(rb.rules[0].premise, Expr::Quant { q: Quant::Exists, .. }));
        assert!(matches!(
            rb.rules[0].conclusion[0],
            Command::Return(Expr::Call { builtin: Builtin::ArgMin(1), .. })
        ));
    }

    #[test]
    fn nft_marker_and_returns() {
        let p = parse("ON f() RETURNS 0 TO 1 NFT IF TRUE THEN RETURN(0); END f;").unwrap();
        assert!(p.rulebases[0].nft);
        assert!(p.rulebases[0].returns.is_some());
    }

    #[test]
    fn rejects_unknown_name() {
        let e = parse("ON f() IF nope = 1 THEN RETURN(1); END f;");
        assert!(matches!(e, Err(RuleError::Resolve { .. })));
    }

    #[test]
    fn rejects_type_mismatch() {
        let e = parse("CONSTANT s = {a, b}\nON f(x IN s) IF x = 3 THEN x; END f;");
        assert!(e.is_err());
    }

    #[test]
    fn rejects_return_without_returns() {
        let e = parse("ON f() IF TRUE THEN RETURN(1); END f;");
        assert!(matches!(e, Err(RuleError::Resolve { .. })));
    }

    #[test]
    fn rejects_duplicate_rulebase() {
        let e = parse("ON f() END f; ON f() END f;");
        assert!(matches!(e, Err(RuleError::Resolve { .. })));
    }

    #[test]
    fn rejects_mismatched_end_name() {
        let e = parse("ON f() END g;");
        assert!(matches!(e, Err(RuleError::Resolve { .. })));
    }

    #[test]
    fn rejects_symbol_sharing_between_types() {
        let e = parse("CONSTANT a = {x, y}\nCONSTANT b = {y, z}\n");
        assert!(matches!(e, Err(RuleError::Resolve { .. })));
    }

    #[test]
    fn set_literal_of_ints() {
        let p = parse("VARIABLE x IN 0 TO 9 INIT 0\nON f() IF x IN {1, 3, 5} THEN x <- 0; END f;")
            .unwrap();
        match &p.rulebases[0].rules[0].premise {
            Expr::Bin(BinOp::In, _, rhs) => match **rhs {
                Expr::Lit(Value::Set { dom: Domain::Int { lo: 1, hi: 5 }, mask }) => {
                    assert_eq!(mask, 0b10101);
                }
                ref other => panic!("unexpected rhs {other:?}"),
            },
            other => panic!("unexpected premise {other:?}"),
        }
    }

    #[test]
    fn index_arity_checked() {
        let e = parse(
            "CONSTANT dirs = 0 TO 3\nINPUT q[dirs, dirs] IN 0 TO 3\n\
             ON f() IF q(1) = 0 THEN q; END f;",
        );
        assert!(e.is_err());
    }

    #[test]
    fn int_const_in_ranges() {
        let p = parse("CONSTANT n = 8\nVARIABLE x IN 0 TO n INIT 3\n").unwrap();
        assert_eq!(p.vars[0].elem, Type::Scalar(Domain::Int { lo: 0, hi: 8 }));
        assert_eq!(p.vars[0].init, Value::Int(3));
    }

    #[test]
    fn constant_expressions_in_bounds_and_rules() {
        let p = parse(
            "CONSTANT d = 4\nCONSTANT dims = 0 TO d - 1\n\
             VARIABLE x IN 0 TO d + 1 INIT 0\nINPUT q[d - 3 TO d] IN bool\n\
             ON f(i IN 1 - d TO -1 + d) IF x = d - 1 THEN x <- min(x + 1, d + 1); END f;",
        )
        .unwrap();
        assert_eq!(p.consts[1].ty, Type::Set(Domain::Int { lo: 0, hi: 3 }));
        assert_eq!(p.vars[0].elem, Type::Scalar(Domain::Int { lo: 0, hi: 5 }));
        assert_eq!(p.inputs[0].index_domains, vec![Domain::Int { lo: 1, hi: 4 }]);
        assert_eq!(p.rulebases[0].params[0].dom, Domain::Int { lo: -3, hi: 3 });
        // in a premise the constant stays a reference; compile folds it
        let Expr::Bin(BinOp::Eq, _, rhs) = &p.rulebases[0].rules[0].premise else { panic!() };
        assert!(matches!(&**rhs, Expr::Bin(BinOp::Sub, l, _) if **l == Expr::Ref(Ref::Const(0))));
        let folded = crate::compile::fold_consts(&p, rhs).unwrap();
        assert_eq!(folded, Expr::Lit(Value::Int(3)));
        for bad in [
            "CONSTANT d = 4\nVARIABLE x IN 0 TO d - 5\n",
            "CONSTANT s = 0 TO 3\nCONSTANT e = s + 1\n",
        ] {
            assert!(matches!(parse(bad), Err(RuleError::Resolve { .. })), "{bad}");
        }
    }

    #[test]
    fn setof_type() {
        let p = parse("CONSTANT dirs = 0 TO 3\nVARIABLE avail IN SETOF dirs\n").unwrap();
        assert_eq!(p.vars[0].elem, Type::Set(Domain::Int { lo: 0, hi: 3 }));
        assert_eq!(p.vars[0].init, Value::empty_set(Domain::Int { lo: 0, hi: 3 }));
    }
}

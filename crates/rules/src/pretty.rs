//! Pretty-printer: resolved AST → rule-language source.
//!
//! Useful for debugging compiled configurations, for the paper's
//! "transformations on rule bases" idea (a transformation is AST → AST;
//! printing makes the result inspectable), and as a test oracle: printing
//! a parsed program and re-parsing it must produce an equivalent program.

use crate::ast::*;
use crate::value::{Domain, Type, Value};
use std::fmt::Write;

/// Renders a whole program as parseable source.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for st in &p.sym_types {
        let _ = writeln!(out, "CONSTANT {} = {{{}}}", st.name, st.symbols.join(", "));
    }
    for c in &p.consts {
        match (&c.ty, &c.value) {
            // full-set constants of symbol types were emitted above
            (Type::Set(Domain::Sym(_)), _) => {}
            (Type::Set(Domain::Int { lo, hi }), _) => {
                let _ = writeln!(out, "CONSTANT {} = {lo} TO {hi}", c.name);
            }
            (_, Value::Int(v)) => {
                let _ = writeln!(out, "CONSTANT {} = {v}", c.name);
            }
            _ => {}
        }
    }
    for v in &p.vars {
        let idx = print_index_domains(p, &v.index_domains);
        // omit INIT when it is the type's default (empty sets in
        // particular have no literal syntax)
        let default = match v.elem {
            Type::Scalar(d) => d.value_at(0),
            Type::Set(d) => Value::empty_set(d),
        };
        if v.init == default {
            let _ = writeln!(out, "VARIABLE {}{idx} IN {}", v.name, print_type(p, &v.elem));
        } else {
            let _ = writeln!(
                out,
                "VARIABLE {}{idx} IN {} INIT {}",
                v.name,
                print_type(p, &v.elem),
                print_value(p, &v.init)
            );
        }
    }
    for i in &p.inputs {
        let idx = print_index_domains(p, &i.index_domains);
        let _ = writeln!(out, "INPUT {}{idx} IN {}", i.name, print_type(p, &i.elem));
    }
    for rb in &p.rulebases {
        let _ = writeln!(out);
        let params = rb
            .params
            .iter()
            .map(|pa| format!("{} IN {}", pa.name, print_domain(p, &pa.dom)))
            .collect::<Vec<_>>()
            .join(", ");
        let returns =
            rb.returns.map(|t| format!(" RETURNS {}", print_type(p, &t))).unwrap_or_default();
        let nft = if rb.nft { " NFT" } else { "" };
        let _ = writeln!(out, "ON {}({params}){returns}{nft}", rb.name);
        for (ri, rule) in rb.rules.iter().enumerate() {
            let binders = BinderNames::new(rb, ri);
            let _ = writeln!(out, "  IF {}", print_expr(p, rb, &rule.premise, &binders));
            let cmds = rule
                .conclusion
                .iter()
                .map(|c| print_command(p, rb, c, &binders))
                .collect::<Vec<_>>()
                .join(",\n       ");
            let _ = writeln!(out, "  THEN {cmds};");
        }
        let _ = writeln!(out, "END {};", rb.name);
    }
    out
}

/// Deterministic fresh names for de Bruijn binders.
struct BinderNames {
    prefix: String,
}

impl BinderNames {
    fn new(rb: &RuleBase, rule: usize) -> Self {
        let _ = rb;
        BinderNames { prefix: format!("q{rule}_") }
    }

    fn name(&self, depth_from_root: usize) -> String {
        format!("{}{}", self.prefix, depth_from_root)
    }
}

fn print_index_domains(p: &Program, doms: &[Domain]) -> String {
    if doms.is_empty() {
        String::new()
    } else {
        format!("[{}]", doms.iter().map(|d| print_domain(p, d)).collect::<Vec<_>>().join(", "))
    }
}

fn print_domain(p: &Program, d: &Domain) -> String {
    match d {
        Domain::Int { lo, hi } => format!("{lo} TO {hi}"),
        Domain::Sym(t) => p.sym_types[*t].name.clone(),
        Domain::Bool => "bool".into(),
    }
}

fn print_type(p: &Program, t: &Type) -> String {
    match t {
        Type::Scalar(d) => print_domain(p, d),
        Type::Set(d) => format!("SETOF {}", print_domain(p, d)),
    }
}

fn print_value(p: &Program, v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Bool(true) => "TRUE".into(),
        Value::Bool(false) => "FALSE".into(),
        Value::Sym { .. } | Value::Set { .. } => p.display_value(v),
    }
}

fn print_expr(p: &Program, rb: &RuleBase, e: &Expr, binders: &BinderNames) -> String {
    print_expr_d(p, rb, e, binders, 0)
}

fn print_expr_d(
    p: &Program,
    rb: &RuleBase,
    e: &Expr,
    binders: &BinderNames,
    depth: usize,
) -> String {
    match e {
        Expr::Lit(v) => print_value(p, v),
        Expr::Ref(r) => match r {
            Ref::Const(i) => p.consts[*i].name.clone(),
            Ref::Var(i) => p.vars[*i].name.clone(),
            Ref::Input(i) => p.inputs[*i].name.clone(),
            Ref::Param(i) => rb.params[*i].name.clone(),
            Ref::Bound(d) => binders.name(depth - 1 - d),
        },
        Expr::Indexed { target, indices } => {
            let name = match target {
                IndexedRef::Var(i) => &p.vars[*i].name,
                IndexedRef::Input(i) => &p.inputs[*i].name,
            };
            let args = indices
                .iter()
                .map(|i| print_expr_d(p, rb, i, binders, depth))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{name}({args})")
        }
        Expr::Un(op, inner) => {
            let i = print_expr_d(p, rb, inner, binders, depth);
            match op {
                UnOp::Not => format!("NOT ({i})"),
                UnOp::Neg => format!("-({i})"),
            }
        }
        Expr::Bin(op, l, r) => {
            let ls = print_expr_d(p, rb, l, binders, depth);
            let rs = print_expr_d(p, rb, r, binders, depth);
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Eq => "=",
                BinOp::Ne => "/=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::In => "IN",
            };
            format!("({ls} {sym} {rs})")
        }
        Expr::Quant { q, set, body, .. } => {
            let kw = match q {
                Quant::Exists => "EXISTS",
                Quant::Forall => "FORALL",
            };
            let name = binders.name(depth);
            let s = print_expr_d(p, rb, set, binders, depth);
            let b = print_expr_d(p, rb, body, binders, depth + 1);
            format!("({kw} {name} IN {s}: {b})")
        }
        Expr::Call { builtin, args } => {
            let argv: Vec<String> =
                args.iter().map(|a| print_expr_d(p, rb, a, binders, depth)).collect();
            match builtin {
                Builtin::ArgMin(i) => format!("argmin({}, {})", p.inputs[*i].name, argv[0]),
                Builtin::ArgMax(i) => format!("argmax({}, {})", p.inputs[*i].name, argv[0]),
                other => {
                    let name = match other {
                        Builtin::Min => "min",
                        Builtin::Max => "max",
                        Builtin::AbsDiff => "absdiff",
                        Builtin::Xor => "xor",
                        Builtin::Popcount => "popcount",
                        Builtin::Bit => "bit",
                        Builtin::LatMax => "latmax",
                        Builtin::Card => "card",
                        Builtin::Union => "union",
                        Builtin::Isect => "isect",
                        Builtin::Diff => "diff",
                        Builtin::Include => "include",
                        Builtin::Exclude => "exclude",
                        Builtin::ArgMin(_) | Builtin::ArgMax(_) => unreachable!(),
                    };
                    format!("{name}({})", argv.join(", "))
                }
            }
        }
    }
}

fn print_command(p: &Program, rb: &RuleBase, c: &Command, binders: &BinderNames) -> String {
    print_command_d(p, rb, c, binders, 0)
}

fn print_command_d(
    p: &Program,
    rb: &RuleBase,
    c: &Command,
    binders: &BinderNames,
    depth: usize,
) -> String {
    match c {
        Command::Assign { var, indices, value } => {
            let name = &p.vars[*var].name;
            let idx = if indices.is_empty() {
                String::new()
            } else {
                format!(
                    "({})",
                    indices
                        .iter()
                        .map(|i| print_expr_d(p, rb, i, binders, depth))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            format!("{name}{idx} <- {}", print_expr_d(p, rb, value, binders, depth))
        }
        Command::Return(e) => format!("RETURN({})", print_expr_d(p, rb, e, binders, depth)),
        Command::Emit { event, args, .. } => {
            let argv = args
                .iter()
                .map(|a| print_expr_d(p, rb, a, binders, depth))
                .collect::<Vec<_>>()
                .join(", ");
            format!("!{event}({argv})")
        }
        Command::ForAll { set, body, .. } => {
            let name = binders.name(depth);
            let s = print_expr_d(p, rb, set, binders, depth);
            let b = print_command_d(p, rb, &body[0], binders, depth + 1);
            format!("FORALL {name} IN {s}: {b}")
        }
    }
}

/// One-line rendering of an expression for diagnostics (Figure-7 style
/// configuration dumps). Quantifier binders get positional names.
pub fn describe_expr(p: &Program, rb: &RuleBase, e: &Expr) -> String {
    let binders = BinderNames { prefix: "i".into() };
    print_expr(p, rb, e, &binders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::parser::parse;

    /// Round trip: print(parse(src)) re-parses, and the re-parsed program
    /// compiles to *identical* rule tables (semantic equality).
    #[test]
    fn roundtrip_shipped_style_program() {
        let src = "
CONSTANT st = {safe, warn, dead}
CONSTANT dirs = 0 TO 3
CONSTANT lim = 7
VARIABLE state IN st INIT safe
VARIABLE count IN 0 TO 7 INIT 0
VARIABLE marks[dirs] IN bool
VARIABLE avail IN SETOF dirs INIT {0, 1, 2, 3}
INPUT level[dirs] IN 0 TO 9
INPUT q[dirs] IN 0 TO 255

ON check(d IN dirs) RETURNS 0 TO 15 NFT
  IF state = safe AND level(d) > 6 THEN RETURN(argmin(q, avail));
  IF EXISTS i IN avail: level(i) = 0 THEN count <- count + 1, RETURN(14);
  IF d IN {1, 3} THEN marks(d) <- TRUE, RETURN(13);
  IF TRUE THEN state <- warn,
               avail <- exclude(avail, d),
               FORALL i IN avail: !notify(i, count),
               RETURN(15);
END check;
";
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));

        let o = CompileOptions::default();
        let c1 = compile(&p1, &o).unwrap();
        let c2 = compile(&p2, &o).unwrap();
        assert_eq!(c1.bases.len(), c2.bases.len());
        for (a, b) in c1.bases.iter().zip(&c2.bases) {
            assert_eq!(a.table, b.table, "tables diverged:\n{printed}");
            assert_eq!(a.entries, b.entries);
            assert_eq!(a.width_bits, b.width_bits);
        }
    }

    #[test]
    fn roundtrip_all_shipped_programs() {
        // exercised with the real shipped sources via ftr-algos in the
        // integration suite; here a structural smoke check on Figure 4
        let src = "
CONSTANT fault_states = {safe, ounsafe, sunsafe, lfault, faulty}
CONSTANT dirs = 0 TO 5
VARIABLE number_unsafe IN 0 TO 7 INIT 0
VARIABLE number_faulty IN 0 TO 7 INIT 0
VARIABLE neighb_state[dirs] IN fault_states INIT safe
VARIABLE state IN fault_states INIT safe
INPUT new_state[dirs] IN fault_states

ON update_state(dir IN dirs)
  IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
  THEN neighb_state(dir) <- new_state(dir),
       number_faulty <- number_faulty + 1;
END update_state;
";
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(p1.rulebases[0].rules.len(), p2.rulebases[0].rules.len());
        assert!(
            printed.contains("CONSTANT fault_states = {safe, ounsafe, sunsafe, lfault, faulty}")
        );
        assert!(printed.contains("number_faulty <- (number_faulty + 1)"));
    }
}

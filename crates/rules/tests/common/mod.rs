//! The parametric family of random well-typed rule programs, shared by
//! the property tests in `prop_rules.rs` and the fill differential in
//! `src/compile.rs` (which includes this file by path); and the shipped
//! programs with random environments drawn from their declarations, and
//! the paper's Figure 4, for the executor differentials in `prop_rules.rs`
//! and `src/interp.rs` (and `src/eval.rs`' Figure 4 test).
#![allow(dead_code)]

use ftr_rules::ast::Program;
use ftr_rules::{Domain, Elem, InputMap, Port, RegFile, Subset, Type, Value};
use proptest::prelude::*;

/// The programs `crates/algos/rules` ships, as `ftr_algos::rules_src::all`
/// names them (`rules_src_lists_every_shipped_file` keeps the two in step).
pub const SHIPPED: [(&str, &str); 6] = [
    ("xy", include_str!("../../../algos/rules/xy.rules")),
    ("west_first", include_str!("../../../algos/rules/west_first.rules")),
    ("nafta", include_str!("../../../algos/rules/nafta.rules")),
    ("route_c", include_str!("../../../algos/rules/route_c.rules")),
    ("route_c_nft", include_str!("../../../algos/rules/route_c_nft.rules")),
    ("naive_adaptive", include_str!("../../../algos/rules/naive_adaptive.rules")),
];

/// The paper's Figure 4 (ROUTE_C's `update_state`): set membership, a
/// quantified command that emits, writes to several registers.
pub const FIGURE4: &str = "
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
       number_faulty <- number_faulty + 1,
       number_unsafe <- number_unsafe + 1;
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe AND number_unsafe = 2
  THEN state <- ounsafe,
       number_unsafe <- number_unsafe + 1,
       FORALL i IN dirs: !send_newmessage(i, ounsafe),
       neighb_state(dir) <- new_state(dir);
END update_state;
";

/// splitmix64: the draws of one environment, from one seed.
pub struct Draw(pub u64);

impl Draw {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An element of `dom`.
    pub fn scalar(&mut self, prog: &Program, dom: Domain) -> Value {
        dom.value_at(self.next() % dom.size(prog.sym_sizes()))
    }

    /// A value of type `ty`: a set holds each element with chance 1/2.
    pub fn value(&mut self, prog: &Program, ty: Type) -> Value {
        match ty {
            Type::Scalar(dom) => self.scalar(prog, dom),
            Type::Set(dom) => Value::Set { dom, mask: self.next() & prog.live_mask(dom) },
        }
    }
}

/// Every cell of every register, input and parameter of base `rb` drawn
/// from its declared domain, except the `unset`-th input cell (counting
/// through every input's cells in declaration order), which is left
/// without a value.
pub fn random_env(
    prog: &Program,
    rb: usize,
    d: &mut Draw,
    unset: usize,
) -> (RegFile, InputMap, Vec<Value>) {
    let mut regs = RegFile::new(prog);
    for (v, decl) in prog.vars.iter().enumerate() {
        for cell in cells(&decl.index_domains, prog) {
            regs.write(prog, v, &cell, d.value(prog, decl.elem)).unwrap();
        }
    }
    let (mut inputs, mut n) = (InputMap::new(), 0);
    for (i, decl) in prog.inputs.iter().enumerate() {
        for cell in cells(&decl.index_domains, prog) {
            if n != unset {
                inputs.set_at(prog, i, &cell, d.value(prog, decl.elem)).unwrap();
            }
            n += 1;
        }
    }
    let params = prog.rulebases[rb].params.iter().map(|p| d.scalar(prog, p.dom)).collect();
    (regs, inputs, params)
}

/// `im`'s values written again through typed [`Port`]s (by `set_at` where
/// an input's layout takes no port), except the `odd`-th input cell
/// (counted as in [`random_env`]), which gets a value just outside its
/// domain where one exists: the one after its last integer or symbol, a
/// set with a bit past its elements.
pub fn ported(prog: &Program, im: &InputMap, odd: usize) -> InputMap {
    fn write<T: Elem>(prog: &Program, i: usize, k: usize, v: T, out: &mut InputMap) -> bool {
        Port::bind(prog, i).map(|p: Port<T>| p.write(out, k, v)).is_ok()
    }
    let (mut out, mut n) = (InputMap::for_program(prog), 0);
    for (i, decl) in prog.inputs.iter().enumerate() {
        for cell in cells(&decl.index_domains, prog) {
            // a port's index: none for a scalar, one from 0 up for an array
            let k = match cell[..] {
                [] => Some(0),
                [Value::Int(x)] => usize::try_from(x).ok(),
                _ => None,
            };
            let (Ok(v), Some(k)) = (im.read_input(prog, i, &cell), k) else {
                if let Ok(v) = im.read_input(prog, i, &cell) {
                    out.set_at(prog, i, &cell, v).unwrap();
                }
                n += 1;
                continue;
            };
            let (dom, odd) = (decl.elem.domain(), n == odd);
            let size = dom.size(prog.sym_sizes());
            let written = match (decl.elem, v) {
                (Type::Scalar(Domain::Int { hi, .. }), Value::Int(x)) => {
                    write(prog, i, k, if odd { hi + 1 } else { x }, &mut out)
                }
                (Type::Scalar(Domain::Sym(_)), Value::Sym { idx, .. }) => {
                    write(prog, i, k, if odd { size as u32 } else { idx }, &mut out)
                }
                (_, Value::Bool(b)) => write(prog, i, k, b, &mut out),
                (Type::Set(_), Value::Set { dom, mask }) => {
                    let mask = if odd && size < 64 { mask | 1 << size } else { mask };
                    write(prog, i, k, Subset { dom, mask }, &mut out)
                }
                _ => false,
            };
            if !written {
                out.set_at(prog, i, &cell, v).unwrap();
            }
            n += 1;
        }
    }
    out
}

/// Every index tuple of an array over `doms`, row-major.
pub fn cells(doms: &[Domain], prog: &Program) -> Vec<Vec<Value>> {
    doms.iter().fold(vec![Vec::new()], |acc, dom| {
        let n = dom.size(prog.sym_sizes());
        acc.iter()
            .flat_map(|prefix| {
                (0..n).map(move |k| [prefix.clone(), vec![dom.value_at(k)]].concat())
            })
            .collect()
    })
}

/// Generates a small rule program over a fixed environment: integer
/// counter, symbol state, bool array, int array — with randomized rule
/// premises drawn from a grammar of comparisons, membership tests and
/// quantifiers.
pub fn gen_program(premises: &[String], conclusions: &[String]) -> String {
    let mut rules = String::new();
    for (p, c) in premises.iter().zip(conclusions) {
        rules.push_str(&format!("  IF {p} THEN {c};\n"));
    }
    format!(
        "CONSTANT st = {{alpha, beta, gamma}}\n\
         CONSTANT dirs = 0 TO 3\n\
         VARIABLE state IN st INIT alpha\n\
         VARIABLE count IN 0 TO 15 INIT 0\n\
         VARIABLE flags[dirs] IN bool\n\
         INPUT level[dirs] IN 0 TO 7\n\
         INPUT go IN bool\n\
         ON f(d IN dirs) RETURNS 0 TO 15\n{rules}END f;"
    )
}

pub fn arb_premise() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("state = alpha".to_string()),
        Just("state = beta".to_string()),
        Just("state IN {beta, gamma}".to_string()),
        Just("count = 0".to_string()),
        Just("count > 3".to_string()),
        Just("count <= 9".to_string()),
        Just("go".to_string()),
        Just("flags(d)".to_string()),
        Just("level(d) > 2".to_string()),
        Just("level(d) = 7".to_string()),
        Just("level(0) < level(1)".to_string()),
        Just("EXISTS i IN dirs: flags(i)".to_string()),
        Just("FORALL i IN dirs: level(i) < 6".to_string()),
        Just("d IN {0, 2}".to_string()),
        Just("TRUE".to_string()),
    ];
    // combine 1-3 atoms with AND / OR / NOT
    proptest::collection::vec((atom, any::<u8>()), 1..4).prop_map(|parts| {
        let mut out = String::new();
        for (i, (a, tag)) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(if tag % 2 == 0 { " AND " } else { " OR " });
            }
            if tag % 3 == 0 {
                out.push_str(&format!("NOT ({a})"));
            } else {
                out.push_str(&format!("({a})"));
            }
        }
        out
    })
}

pub fn arb_conclusion() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("RETURN(1)".to_string()),
        Just("RETURN(d)".to_string()),
        Just("count <- min(count + 1, 15), RETURN(2)".to_string()),
        Just("state <- beta, RETURN(3)".to_string()),
        Just("flags(d) <- TRUE, RETURN(4)".to_string()),
        Just("state <- latmax(state, beta), RETURN(5)".to_string()),
        Just("RETURN(min(count, 9))".to_string()),
    ]
}

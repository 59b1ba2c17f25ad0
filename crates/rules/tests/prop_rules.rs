//! Property-based tests of the rule-language pipeline: the ARON
//! compilation and its building blocks are semantics-preserving on
//! generated programs from a parametric family.

use ftr_rules::compile::{expand_quantifiers, fold_consts};
use ftr_rules::eval::{eval_expr, EvalCtx};
use ftr_rules::{compile, fire_reference, parse, CompileOptions, InputMap, RegFile, Value};
use proptest::prelude::*;

mod common;
use common::{arb_conclusion, arb_premise, gen_program, random_env, Draw, SHIPPED};

/// Every base of every shipped program, fired by the reference evaluator
/// and by the compiled table from one environment drawn from the
/// declarations, `unset` naming an input cell left without a value: the
/// same outcome and registers, or the same error. The one asymmetry is
/// the premise stage's: the table computes every feature, so it may read
/// the unset cell where the reference had already fired a rule.
fn shipped_bases_agree(seed: u64, unset: usize) -> Result<(), TestCaseError> {
    for (name, src) in SHIPPED {
        let prog = parse(src).unwrap();
        let compiled = compile(&prog, &CompileOptions::default()).unwrap();
        let mut d = Draw(seed);
        for (rb, base) in compiled.bases.iter().enumerate() {
            let label = format!("{name}::{} seed {seed} unset {unset}", prog.rulebases[rb].name);
            let (mut regs_a, im, params) = random_env(&prog, rb, &mut d, unset);
            let (before, mut regs_b) = (regs_a.clone(), regs_a.clone());
            let r = fire_reference(&prog, rb, &params, &mut regs_a, &im);
            let k = base.fire(&prog, &params, &mut regs_b, &im);
            match (r, k) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "outcome: {}", label),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "{}", label),
                (Ok(_), Err(b)) => {
                    prop_assert!(b.to_string().ends_with("has no value"), "{label}: {b}");
                    // a premise stage that fails writes nothing
                    regs_a = before;
                }
                (Err(a), Ok(_)) => prop_assert!(false, "{label}: only the reference failed: {a}"),
            }
            prop_assert_eq!(regs_a, regs_b, "registers: {}", label);
        }
    }
    Ok(())
}

#[test]
fn shipped_lists_every_program_in_the_rules_directory() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../algos/rules");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rules"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut listed: Vec<String> = SHIPPED.iter().map(|(n, _)| n.to_string()).collect();
    listed.sort();
    assert_eq!(files, listed);
}

/// A randomized environment for the fixed declarations above.
fn build_env(
    prog: &ftr_rules::Program,
    state_idx: u32,
    count: i64,
    flags: [bool; 4],
    levels: [i64; 4],
    go: bool,
) -> (RegFile, InputMap) {
    let mut regs = RegFile::new(prog);
    regs.write(prog, 0, &[], Value::Sym { ty: 0, idx: state_idx }).unwrap();
    regs.write(prog, 1, &[], Value::Int(count)).unwrap();
    for (i, &f) in flags.iter().enumerate() {
        regs.write(prog, 2, &[Value::Int(i as i64)], Value::Bool(f)).unwrap();
    }
    let mut im = InputMap::new();
    for (i, &l) in levels.iter().enumerate() {
        im.set(prog, "level", &[Value::Int(i as i64)], Value::Int(l)).unwrap();
    }
    im.set(prog, "go", &[], Value::Bool(go)).unwrap();
    (regs, im)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central ARON property: compiled table selection ≡ reference
    /// first-match semantics, for random programs and random environments,
    /// and for every base of every shipped program ([`shipped_bases_agree`]).
    #[test]
    fn compiled_equals_reference(
        seed in any::<u64>(),
        unset in 0usize..96,
        premises in proptest::collection::vec(arb_premise(), 1..6),
        conclusions in proptest::collection::vec(arb_conclusion(), 6),
        state_idx in 0u32..3,
        count in 0i64..16,
        flags in any::<[bool; 4]>(),
        levels in proptest::array::uniform4(0i64..8),
        go in any::<bool>(),
        d in 0i64..4,
    ) {
        let src = gen_program(&premises, &conclusions[..premises.len()]);
        let prog = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let compiled = compile(&prog, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{src}"));

        let (mut regs_a, im) = build_env(&prog, state_idx, count, flags, levels, go);
        let mut regs_b = regs_a.clone();
        let params = [Value::Int(d)];

        let r = fire_reference(&prog, 0, &params, &mut regs_a, &im);
        let k = compiled.bases[0].fire(&prog, &params, &mut regs_b, &im);
        match (r, k) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "outcome diverged\n{}", src);
                prop_assert_eq!(regs_a, regs_b, "state diverged\n{}", src);
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "one side errored: {a:?} vs {b:?}\n{src}"),
        }
        shipped_bases_agree(seed, unset)?;
    }

    /// Quantifier expansion and constant folding preserve semantics of the
    /// premise under every environment.
    #[test]
    fn expansion_preserves_semantics(
        premise in arb_premise(),
        state_idx in 0u32..3,
        count in 0i64..16,
        flags in any::<[bool; 4]>(),
        levels in proptest::array::uniform4(0i64..8),
        go in any::<bool>(),
        d in 0i64..4,
    ) {
        let src = gen_program(&[premise], &["RETURN(1)".to_string()]);
        let prog = parse(&src).unwrap();
        let e0 = prog.rulebases[0].rules[0].premise.clone();
        let e1 = expand_quantifiers(&prog, &e0).unwrap();
        let e2 = fold_consts(&prog, &e1).unwrap();

        let (regs, im) = build_env(&prog, state_idx, count, flags, levels, go);
        let params = [Value::Int(d)];
        let mut ctx = EvalCtx::new(&prog, &regs, &im, &params);
        let v0 = eval_expr(&mut ctx, &e0).unwrap();
        let mut ctx = EvalCtx::new(&prog, &regs, &im, &params);
        let v1 = eval_expr(&mut ctx, &e1).unwrap();
        let mut ctx = EvalCtx::new(&prog, &regs, &im, &params);
        let v2 = eval_expr(&mut ctx, &e2).unwrap();
        prop_assert_eq!(v0, v1, "expansion changed semantics\n{}", src);
        prop_assert_eq!(v1, v2, "folding changed semantics\n{}", src);
    }

    /// Pretty-printing any generated program round-trips to identical
    /// compiled tables.
    #[test]
    fn pretty_roundtrip_generated(
        premises in proptest::collection::vec(arb_premise(), 1..5),
        conclusions in proptest::collection::vec(arb_conclusion(), 5),
    ) {
        let src = gen_program(&premises, &conclusions[..premises.len()]);
        let p1 = parse(&src).unwrap();
        let printed = ftr_rules::pretty::print_program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        let o = CompileOptions::default();
        let c1 = compile(&p1, &o).unwrap();
        let c2 = compile(&p2, &o).unwrap();
        prop_assert_eq!(&c1.bases[0].table, &c2.bases[0].table, "\n{}", printed);
    }

    /// Table geometry invariant: entries equals the product of the feature
    /// radices, and every entry indexes a real rule (or 0).
    #[test]
    fn table_geometry(
        premises in proptest::collection::vec(arb_premise(), 1..6),
        conclusions in proptest::collection::vec(arb_conclusion(), 6),
    ) {
        let src = gen_program(&premises, &conclusions[..premises.len()]);
        let prog = parse(&src).unwrap();
        let compiled = compile(&prog, &CompileOptions::default()).unwrap();
        let b = &compiled.bases[0];
        let product: u64 = b.radices.iter().product();
        prop_assert_eq!(b.entries, product.max(1));
        prop_assert_eq!(b.table.len() as u64, b.entries);
        for &e in &b.table {
            if let Some(nz) = e {
                prop_assert!((nz.get() as usize) <= premises.len());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Leaf differentials: the mask set operations against the element-list
// oracle, the dense `InputMap` against a hash-map model, and the effects
// frame's parallel-write rules through both executors.

mod leaves {
    use super::*;
    use ftr_rules::ast::{BinOp, Builtin, Expr, IndexedRef, Program, Quant, Ref};
    use ftr_rules::eval::{set_elements, values_equal};
    use ftr_rules::Domain;
    use std::collections::HashMap;

    /// Set registers over an integer domain that does not start at 0, one
    /// overlapping it with other bounds, one too far off to share a hull of
    /// 64, a symbol type and the booleans; `w` weighs the elements of `lo`.
    const SETS: &str = "
CONSTANT sy = {a, b, c, d, e}
CONSTANT lo = -3 TO 4
CONSTANT hi = 2 TO 9
CONSTANT far = 100 TO 103
VARIABLE s0 IN SETOF lo
VARIABLE s1 IN SETOF lo
VARIABLE s2 IN SETOF hi
VARIABLE s3 IN SETOF far
VARIABLE y0 IN SETOF sy
VARIABLE y1 IN SETOF sy
VARIABLE b0 IN SETOF bool
VARIABLE b1 IN SETOF bool
VARIABLE seen[lo] IN bool
INPUT w[lo] IN 0 TO 7
ON mark()
  IF TRUE THEN FORALL i IN s0: seen(i) <- TRUE;
END mark;
";

    fn key(v: &Value) -> i64 {
        match *v {
            Value::Int(x) => x,
            Value::Sym { idx, .. } => i64::from(idx),
            Value::Bool(b) => i64::from(b),
            Value::Set { .. } => unreachable!("sets of sets do not exist"),
        }
    }

    /// Elements in a canonical order whatever domain they were listed over.
    fn sorted(mut elems: Vec<Value>) -> Vec<Value> {
        elems.sort_by_key(key);
        elems.dedup();
        elems
    }

    fn var(i: usize) -> Expr {
        Expr::Ref(Ref::Var(i))
    }

    fn call(builtin: Builtin, args: &[Expr]) -> Expr {
        Expr::Call { builtin, args: args.to_vec() }
    }

    /// The registers of `SETS` holding `masks` as they come: bits at or
    /// beyond a domain's size are garbage every operation must ignore.
    fn set_regs(prog: &Program, masks: &[u64]) -> RegFile {
        let mut regs = RegFile::new(prog);
        for (i, &mask) in masks.iter().enumerate() {
            let dom = prog.vars[i].elem.domain();
            regs.write(prog, i, &[], Value::Set { dom, mask }).unwrap();
        }
        regs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mask_builtins_match_the_element_oracle(
            masks in proptest::collection::vec(any::<u64>(), 8),
            weights in proptest::collection::vec(0i64..8, 8),
            probe in -5i64..12,
            bar in 0i64..8,
        ) {
            let prog = parse(SETS).unwrap();
            let mut regs = set_regs(&prog, &masks);
            let mut im = InputMap::new();
            for (k, &wt) in weights.iter().enumerate() {
                im.set(&prog, "w", &[Value::Int(k as i64 - 3)], Value::Int(wt)).unwrap();
            }
            let elems = |i: usize| set_elements(&prog, &regs.read(&prog, i, &[]).unwrap()).unwrap();
            let eval = |e: &Expr| eval_expr(&mut EvalCtx::new(&prog, &regs, &im, &[]), e);
            let listed = |v: Value| sorted(set_elements(&prog, &v).unwrap());

            // same domain, unequal bounds, a hull past 64 elements, symbols, booleans
            for (a, b) in [(0, 1), (1, 2), (2, 0), (0, 3), (4, 5), (6, 7)] {
                let (ea, eb) = (elems(a), elems(b));
                prop_assert_eq!(
                    eval(&call(Builtin::Card, &[var(a)])).unwrap(),
                    Value::Int(ea.len() as i64)
                );
                let both: Vec<Value> = ea.iter().chain(&eb).copied().collect();
                let common: Vec<Value> = ea.iter().filter(|v| eb.contains(v)).copied().collect();
                let only: Vec<Value> = ea.iter().filter(|v| !eb.contains(v)).copied().collect();
                for (builtin, want) in
                    [(Builtin::Union, both), (Builtin::Isect, common), (Builtin::Diff, only)]
                {
                    match eval(&call(builtin, &[var(a), var(b)])) {
                        Ok(got) => prop_assert_eq!(listed(got), sorted(want), "{:?}", builtin),
                        // no set holds the hull of `lo` and `far`
                        Err(_) => prop_assert_eq!((a, b), (0, 3), "{:?}", builtin),
                    }
                }
                let same = sorted(ea.clone()) == sorted(eb.clone());
                let (va, vb) = (regs.read(&prog, a, &[]).unwrap(), regs.read(&prog, b, &[]).unwrap());
                prop_assert_eq!(values_equal(&prog, &va, &vb), same);
                let ne = Expr::Bin(BinOp::Ne, Box::new(var(a)), Box::new(var(b)));
                prop_assert_eq!(eval(&ne).unwrap(), Value::Bool(!same));
            }

            // membership, include and exclude: in the domain, or an error
            let x = Expr::Lit(Value::Int(probe));
            let member = Expr::Bin(BinOp::In, Box::new(x.clone()), Box::new(var(0)));
            prop_assert_eq!(eval(&member).unwrap(), Value::Bool(elems(0).contains(&Value::Int(probe))));
            let with: Vec<Value> = elems(0).into_iter().chain([Value::Int(probe)]).collect();
            let without: Vec<Value> =
                elems(0).into_iter().filter(|v| *v != Value::Int(probe)).collect();
            for (builtin, want) in [(Builtin::Include, with), (Builtin::Exclude, without)] {
                match eval(&call(builtin, &[var(0), x.clone()])) {
                    Ok(got) => prop_assert_eq!(listed(got), sorted(want)),
                    Err(_) => prop_assert!(!(-3..=4).contains(&probe)),
                }
            }

            // argmin/argmax: the first best element in canonical order
            let weight = |v: &Value| weights[(key(v) + 3) as usize];
            for (builtin, better) in [
                (Builtin::ArgMin(0), (|new, best| new < best) as fn(i64, i64) -> bool),
                (Builtin::ArgMax(0), |new, best| new > best),
            ] {
                let mut best: Option<Value> = None;
                for v in elems(0) {
                    if best.is_none_or(|b| better(weight(&v), weight(&b))) {
                        best = Some(v);
                    }
                }
                prop_assert_eq!(eval(&call(builtin, &[var(0)])).ok(), best);
            }

            // quantifiers and the FORALL command visit exactly the elements
            let heavy = Expr::Bin(
                BinOp::Ge,
                Box::new(Expr::Indexed {
                    target: IndexedRef::Input(0),
                    indices: vec![Expr::Ref(Ref::Bound(0))],
                }),
                Box::new(Expr::Lit(Value::Int(bar))),
            );
            for (q, want) in [
                (Quant::Exists, elems(0).iter().any(|v| weight(v) >= bar)),
                (Quant::Forall, elems(0).iter().all(|v| weight(v) >= bar)),
            ] {
                let dom = Domain::Int { lo: -3, hi: 4 };
                let e = Expr::Quant { q, dom, set: Box::new(var(0)), body: Box::new(heavy.clone()) };
                prop_assert_eq!(eval(&e).unwrap(), Value::Bool(want));
            }
            let members = elems(0);
            fire_reference(&prog, 0, &[], &mut regs, &im).unwrap();
            for k in -3..=4 {
                let marked = regs.read(&prog, 8, &[Value::Int(k)]).unwrap();
                prop_assert_eq!(marked, Value::Bool(members.contains(&Value::Int(k))));
            }
        }
    }

    const INPUTS: &str = "
CONSTANT sy = {a, b, c}
INPUT plain IN 0 TO 9
INPUT row[-2 TO 3] IN 0 TO 9
INPUT grid[0 TO 3, sy] IN 0 TO 9
INPUT cube[bool, 1 TO 2, sy] IN 0 TO 9
";
    const NAMES: [&str; 5] = ["plain", "row", "grid", "cube", "absent"];

    /// An index value from a small pool that is inside some domains of
    /// `INPUTS`, outside others and of the wrong kind for the rest.
    fn index(code: u8) -> Value {
        match code % 12 {
            c @ 0..=7 => Value::Int(i64::from(c) - 3),
            c @ 8..=9 => Value::Bool(c == 9),
            c => Value::Sym { ty: 0, idx: u32::from(c) - 10 },
        }
    }

    /// What the dense map must behave like: values keyed by input and
    /// per-dimension ordinals, defaults keyed by input.
    #[derive(Default)]
    struct Model {
        values: HashMap<(usize, Vec<u64>), Value>,
        defaults: HashMap<usize, Value>,
    }

    impl Model {
        fn key(prog: &Program, input: usize, idx: &[Value]) -> Option<(usize, Vec<u64>)> {
            let doms = &prog.inputs[input].index_domains;
            if doms.len() != idx.len() {
                return None;
            }
            let ords: Option<Vec<u64>> =
                idx.iter().zip(doms).map(|(v, d)| d.ordinal(v, prog.sym_sizes())).collect();
            Some((input, ords?))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dense_input_map_behaves_like_the_hash_map_model(
            script in proptest::collection::vec(
                (0u8..6, 0usize..5, proptest::collection::vec(any::<u8>(), 0..4), 0i64..10),
                1..60,
            ),
        ) {
            let prog = parse(INPUTS).unwrap();
            let (mut im, mut model) = (InputMap::new(), Model::default());
            for (op, which, idx, v) in script {
                let idx: Vec<Value> = idx.into_iter().map(index).collect();
                let (input, v) = (which.min(3), Value::Int(v));
                match op {
                    0 => {
                        let named = which < 4;
                        let key = if named { Model::key(&prog, input, &idx) } else { None };
                        let got = im.set(&prog, NAMES[which], &idx, v);
                        prop_assert_eq!(got.is_ok(), key.is_some(), "set {} {:?}", which, idx);
                        key.map(|k| model.values.insert(k, v));
                    }
                    1 => {
                        let key = Model::key(&prog, input, &idx);
                        let got = im.set_at(&prog, input, &idx, v);
                        prop_assert_eq!(got.is_ok(), key.is_some(), "set_at {} {:?}", input, idx);
                        key.map(|k| model.values.insert(k, v));
                    }
                    2 => {
                        let got = im.set_default(&prog, NAMES[which], v);
                        prop_assert_eq!(got.is_ok(), which < 4);
                        if which < 4 {
                            model.defaults.insert(input, v);
                        }
                    }
                    3 => {
                        im.clear();
                        model = Model::default();
                    }
                    _ => {
                        let want = Model::key(&prog, input, &idx).and_then(|k| {
                            model.values.get(&k).or(model.defaults.get(&input)).copied()
                        });
                        prop_assert_eq!(im.read_input(&prog, input, &idx).ok(), want);
                    }
                }
            }
        }
    }

    /// Four parallel writes to indexed registers whose cells and values
    /// come from inputs: two writes may meet in one cell (with one value: a
    /// duplicate; with two: a conflict), an index may leave its domain and
    /// so may a value.
    const WRITES: &str = "
CONSTANT dirs = 0 TO 3
VARIABLE arr[dirs] IN 0 TO 7
VARIABLE grid[dirs, dirs] IN bool
INPUT i1 IN 0 TO 5
INPUT i2 IN 0 TO 5
INPUT v1 IN 0 TO 9
INPUT v2 IN 0 TO 9
ON f() RETURNS 0 TO 1
  IF TRUE THEN arr(i1) <- v1, arr(i2) <- v2,
               grid(i1, i2) <- v1 < v2, grid(i2, i1) <- v2 < v1, RETURN(1);
END f;
";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parallel_writes_agree_across_executors_and_with_the_sequential_reading(
            i1 in 0i64..6, i2 in 0i64..6, v1 in 0i64..10, v2 in 0i64..10,
        ) {
            let prog = parse(WRITES).unwrap();
            let compiled = compile(&prog, &CompileOptions::default()).unwrap();
            let mut im = InputMap::new();
            for (name, v) in [("i1", i1), ("i2", i2), ("v1", v1), ("v2", v2)] {
                im.set(&prog, name, &[], Value::Int(v)).unwrap();
            }

            // the writes in order; the first that fails ends the commit and
            // leaves the earlier ones applied
            let mut want = RegFile::new(&prog);
            let mut done: Vec<(usize, Vec<i64>, Value)> = Vec::new();
            let mut failed = false;
            for (reg, idx, v) in [
                (0, vec![i1], Value::Int(v1)),
                (0, vec![i2], Value::Int(v2)),
                (1, vec![i1, i2], Value::Bool(v1 < v2)),
                (1, vec![i2, i1], Value::Bool(v2 < v1)),
            ] {
                let in_domain = idx.iter().all(|i| (0..4).contains(i));
                let first = done.iter().find(|d| d.0 == reg && d.1 == idx).map(|d| d.2);
                let fits = v != Value::Int(8) && v != Value::Int(9);
                if !in_domain || first.is_some_and(|f| f != v) || (first.is_none() && !fits) {
                    failed = true;
                    break;
                }
                if first.is_none() {
                    let cell: Vec<Value> = idx.iter().map(|&i| Value::Int(i)).collect();
                    want.write(&prog, reg, &cell, v).unwrap();
                    done.push((reg, idx, v));
                }
            }

            let fresh = || RegFile::new(&prog);
            let (mut r, mut t) = (fresh(), fresh());
            let reference = fire_reference(&prog, 0, &[], &mut r, &im);
            let table = compiled.bases[0].fire(&prog, &[], &mut t, &im);
            prop_assert_eq!(reference.is_err(), failed);
            prop_assert_eq!(reference.as_ref().ok(), table.as_ref().ok());
            prop_assert_eq!(table.is_err(), failed);
            // an index or a value outside its domain, or a conflict: the
            // table fails with the reference's own words
            let text = |r: &Result<_, ftr_rules::RuleError>| r.as_ref().err().map(|e| e.to_string());
            prop_assert_eq!(text(&reference), text(&table));
            prop_assert_eq!(&r, &want, "reference registers");
            prop_assert_eq!(&t, &want, "table registers");
        }
    }
}

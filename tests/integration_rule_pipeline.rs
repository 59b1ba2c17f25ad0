//! Integration: the full rule pipeline — parse → compile → execute — on
//! the shipped programs, with the compiled interpreter differentially
//! tested against the reference evaluator on randomized states.

use ftrouter::rules::{compile, fire_reference, parse, CompileOptions, InputMap, RegFile, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Randomizes every register and input of a program within their domains.
fn randomize(prog: &ftrouter::rules::Program, rng: &mut StdRng) -> (RegFile, InputMap) {
    let ss = prog.sym_sizes();
    let mut regs = RegFile::new(prog);
    for (vi, v) in prog.vars.iter().enumerate() {
        // enumerate all cells through their index domains
        let dims: Vec<u64> = v.index_domains.iter().map(|d| d.size(ss)).collect();
        let cells: u64 = dims.iter().product::<u64>().max(1);
        for cell in 0..cells {
            // unflatten into index values
            let mut rest = cell;
            let mut idx = Vec::new();
            for (k, d) in v.index_domains.iter().enumerate().rev() {
                let sz = dims[k];
                idx.push((d, rest % sz));
                rest /= sz;
            }
            idx.reverse();
            let idx_vals: Vec<Value> = idx.iter().map(|(d, k)| d.value_at(*k)).collect();
            let val = random_value(&v.elem, prog, rng);
            regs.write(prog, vi, &idx_vals, val).expect("value in domain");
        }
    }
    let mut im = InputMap::new();
    for inp in &prog.inputs {
        let dims: Vec<u64> = inp.index_domains.iter().map(|d| d.size(ss)).collect();
        let cells: u64 = dims.iter().product::<u64>().max(1);
        for cell in 0..cells {
            let mut rest = cell;
            let mut idx = Vec::new();
            for (k, d) in inp.index_domains.iter().enumerate().rev() {
                let sz = dims[k];
                idx.push((d, rest % sz));
                rest /= sz;
            }
            idx.reverse();
            let idx_vals: Vec<Value> = idx.iter().map(|(d, k)| d.value_at(*k)).collect();
            let val = random_value(&inp.elem, prog, rng);
            im.set(prog, &inp.name, &idx_vals, val).expect("input in domain");
        }
    }
    (regs, im)
}

fn random_value(
    t: &ftrouter::rules::Type,
    prog: &ftrouter::rules::Program,
    rng: &mut StdRng,
) -> Value {
    let ss = prog.sym_sizes();
    match t {
        ftrouter::rules::Type::Scalar(d) => {
            let n = d.size(ss);
            d.value_at(rng.gen_range(0..n))
        }
        ftrouter::rules::Type::Set(d) => {
            let n = d.size(ss);
            let mask = rng.gen::<u64>() & ((1u64 << n) - 1).max(1);
            Value::Set { dom: *d, mask }
        }
    }
}

/// Core differential property: for every shipped program, rule base and
/// random state, the ARON-compiled table selects exactly the rule the
/// reference evaluator selects, produces the same return value and leaves
/// identical register state.
#[test]
fn compiled_interpreter_matches_reference_on_shipped_programs() {
    let mut rng = StdRng::seed_from_u64(2024);
    for (name, src) in ftrouter::algos::rules_src::all() {
        let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled =
            compile(&prog, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ss = prog.sym_sizes();

        for (rbi, rb) in prog.rulebases.iter().enumerate() {
            for _trial in 0..60 {
                let (mut regs_a, im) = randomize(&prog, &mut rng);
                let mut regs_b = regs_a.clone();
                let params: Vec<Value> = rb
                    .params
                    .iter()
                    .map(|p| {
                        let n = p.dom.size(ss);
                        p.dom.value_at(rng.gen_range(0..n))
                    })
                    .collect();

                let reference = fire_reference(&prog, rbi, &params, &mut regs_a, &im);
                let compiled_out = compiled.bases[rbi].fire(&prog, &params, &mut regs_b, &im);

                match (reference, compiled_out) {
                    (Ok(r), Ok(c)) => {
                        assert_eq!(
                            r, c,
                            "{name}/{}: outcome diverged (params {params:?})",
                            rb.name
                        );
                        assert_eq!(regs_a, regs_b, "{name}/{}: post-state diverged", rb.name);
                    }
                    (Err(_), Err(_)) => {} // both reject (e.g. domain overflow)
                    (r, c) => {
                        panic!("{name}/{}: one side errored: ref={r:?} compiled={c:?}", rb.name)
                    }
                }
            }
        }
    }
}

/// The compiled tables of the shipped programs stay within sane bounds —
/// a regression guard for accidental feature-space blow-ups.
#[test]
fn shipped_table_sizes_are_bounded() {
    for (name, src) in ftrouter::algos::rules_src::all() {
        let prog = parse(src).unwrap();
        let compiled = compile(&prog, &CompileOptions::default()).unwrap();
        for b in &compiled.bases {
            assert!(
                b.entries <= 1 << 14,
                "{name}/{}: {} entries — restructure the premises",
                prog.rulebases[b.rb].name,
                b.entries
            );
        }
    }
}

/// Pretty-printer round trip on every shipped program: the printed source
/// re-parses and compiles to identical rule tables.
#[test]
fn pretty_roundtrip_shipped_programs() {
    use ftrouter::rules::pretty::print_program;
    for (name, src) in ftrouter::algos::rules_src::all() {
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 =
            parse(&printed).unwrap_or_else(|e| panic!("{name} reparse failed: {e}\n{printed}"));
        let o = CompileOptions::default();
        let c1 = compile(&p1, &o).unwrap();
        let c2 = compile(&p2, &o).unwrap();
        for (a, b) in c1.bases.iter().zip(&c2.bases) {
            assert_eq!(a.table, b.table, "{name}: tables diverged");
            assert_eq!(a.width_bits, b.width_bits, "{name}");
        }
        // nft markers and names survive
        for (r1, r2) in p1.rulebases.iter().zip(&p2.rulebases) {
            assert_eq!(r1.name, r2.name);
            assert_eq!(r1.nft, r2.nft);
        }
    }
}

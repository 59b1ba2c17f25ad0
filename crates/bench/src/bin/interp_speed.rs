//! Experiment E9 — rule-interpretation speed (the §4.3 performance claim).
//!
//! "It is possible to transform the rule base and apply a fast hardware
//! interpreter which is able to outperform software solutions and offers
//! more complex realizations than table-based methods." In software the
//! analogous comparison is: compiled-table interpretation (premise
//! features + one lookup) and its bytecode lowering vs naive sequential
//! rule scanning (the reference evaluator, the "software solution"), with
//! a raw precomputed table lookup and a native Rust implementation as the
//! two bounds.
//!
//! Each row is the median, over batches, of the mean time per decision
//! in a batch; one register file serves a whole row. `--smoke` runs
//! CI-sized batches.

use ftr_algos::rules_src;
use ftr_bench::harness;
use ftr_rules::{compile, fire_reference, parse, CompileOptions, InputMap, RegFile, Value};
use ftr_topo::{Mesh2D, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `f` over `batches` batches of `iters`
/// calls each: one batch is shorter than a scheduler hiccup, the median
/// of many is not.
fn median_ns(batches: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn main() {
    let args = harness::Args::parse();
    let (batches, iters) = if args.smoke() { (5, 2_000) } else { (31, 20_000) };

    let prog = parse(rules_src::XY).unwrap();
    let compiled = compile(&prog, &CompileOptions::default()).unwrap();
    let vm = ftr_rules::VmProgram::lower(&compiled).unwrap();
    let base = &compiled.bases[0];
    let mut regs = RegFile::new(&prog);
    // node (2, 3)
    regs.write(&prog, 0, &[], Value::Int(2)).unwrap();
    regs.write(&prog, 1, &[], Value::Int(3)).unwrap();
    // a spread of destinations / link states
    let mut inputs = Vec::new();
    for i in 0..16u8 {
        let mut im = InputMap::new();
        im.set(&prog, "xdes", &[], Value::Int((i % 8) as i64)).unwrap();
        im.set(&prog, "ydes", &[], Value::Int((i / 2 % 8) as i64)).unwrap();
        for d in 0..4 {
            im.set(&prog, "free", &[Value::Int(d)], Value::Bool((i >> d) & 1 == 0)).unwrap();
            im.set(&prog, "linkok", &[Value::Int(d)], Value::Bool(true)).unwrap();
        }
        inputs.push(im);
    }
    let input = |i: u64| &inputs[(i % 16) as usize];

    let mut r = regs.clone();
    let table = median_ns(batches, iters, |i| {
        black_box(base.fire(&prog, &[], &mut r, input(i)).unwrap());
    });
    let mut r = regs.clone();
    let mut scratch = ftr_rules::vm::Scratch::new();
    let bytecode = median_ns(batches, iters, |i| {
        black_box(vm.bases[0].fire(&prog, &[], &mut r, input(i), &mut scratch).unwrap());
    });
    let mut r = regs;
    let scan = median_ns(batches, iters, |i| {
        black_box(fire_reference(&prog, 0, &[], &mut r, input(i)).unwrap());
    });
    // the hardware bound: index precomputed, one memory access
    let idx = 42 % base.table.len();
    let lookup = median_ns(batches, iters, |_| {
        black_box(base.table[black_box(idx)]);
    });
    let mesh = Mesh2D::new(8, 8);
    let native = median_ns(batches, iters, |i| {
        let dst = NodeId((i % 64) as u32);
        black_box(ftr_algos::XyRouting::next_port(&mesh, NodeId(19), dst));
    });

    println!("E9: one XY routing decision, median of {batches} batches x {iters}\n");
    println!("{:<36} {:>12}", "path", "ns/decision");
    for (path, ns) in [
        ("compiled table interpreter", table),
        ("direct-threaded bytecode", bytecode),
        ("sequential rule scan (reference)", scan),
        ("raw table lookup", lookup),
        ("native Rust XY", native),
    ] {
        println!("{path:<36} {ns:>12.1}");
    }
}

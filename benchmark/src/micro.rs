//! Micro measurements that predict in-run costs: one rule-base fire on each
//! execution path of `ftr-rules`, and the two `ftr-topo` queries the
//! simulator makes per message and per hop. They run only in the traced
//! pass, outside every timed region.

use crate::shims::StageProbe;
use crate::stats::median;
use crate::workloads::Layers;
use ftr_core::configure;
use ftr_rules::{fire_reference, InputMap, Machine, RegFile, Value, VmProgram};
use ftr_topo::{Hypercube, Mesh2D, Topology};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fires the XY entry base `fires` times per path over E20's input spread
/// (16 destination/link-state combinations at node (2, 3)): the compiled
/// table, the bytecode VM and the reference evaluator; then once more
/// through a [`Machine`] carrying the ledger's own stage probe.
pub fn rules_fire(fires: u64) -> Result<Layers, String> {
    let err = |e: ftr_rules::RuleError| format!("rules micro: {e}");
    let cfg = configure("xy", ftr_algos::rules_src::XY).map_err(err)?;
    let prog = &cfg.compiled.prog;
    let vm = VmProgram::lower(&cfg.compiled).map_err(err)?;
    let mut regs = RegFile::new(prog);
    regs.write(prog, 0, &[], Value::Int(2)).map_err(err)?;
    regs.write(prog, 1, &[], Value::Int(3)).map_err(err)?;
    let mut inputs = Vec::new();
    for i in 0..16u8 {
        let mut im = InputMap::new();
        im.set(prog, "xdes", &[], Value::Int((i % 8) as i64)).map_err(err)?;
        im.set(prog, "ydes", &[], Value::Int((i / 2 % 8) as i64)).map_err(err)?;
        for d in 0..4 {
            let free = Value::Bool((i >> d) & 1 == 0);
            im.set(prog, "free", &[Value::Int(d)], free).map_err(err)?;
            im.set(prog, "linkok", &[Value::Int(d)], Value::Bool(true)).map_err(err)?;
        }
        inputs.push(im);
    }
    let input = |i: u64| &inputs[(i % 16) as usize];
    let per_fire = |t0: Instant| t0.elapsed().as_nanos() as f64 / fires as f64;

    let mut l = Layers::new();
    let base = &cfg.compiled.bases[0];
    let mut r = regs.clone();
    let t0 = Instant::now();
    for i in 0..fires {
        black_box(base.fire(prog, &[], &mut r, input(i)).map_err(err)?);
    }
    l.insert("rules.fire_ns_table", per_fire(t0));

    let mut scratch = ftr_rules::vm::Scratch::new();
    let mut r = regs.clone();
    let t0 = Instant::now();
    for i in 0..fires {
        black_box(vm.bases[0].fire(prog, &[], &mut r, input(i), &mut scratch).map_err(err)?);
    }
    l.insert("rules.fire_ns_bytecode", per_fire(t0));

    let mut r = regs.clone();
    let t0 = Instant::now();
    for i in 0..fires {
        black_box(fire_reference(prog, 0, &[], &mut r, input(i)).map_err(err)?);
    }
    l.insert("rules.fire_ns_reference", per_fire(t0));

    let probe = Arc::new(StageProbe::default());
    let mut machine = Machine::from_compiled(cfg.compiled.clone());
    *machine.regs_mut() = regs;
    machine.set_probe(probe.clone());
    for i in 0..fires {
        black_box(machine.fire("route_msg", &[], input(i)).map_err(err)?);
    }
    let [premise, kernel, conclusion] = probe.shares();
    l.insert("rules.premise_share", premise);
    l.insert("rules.kernel_share", kernel);
    l.insert("rules.conclusion_share", conclusion);
    Ok(l)
}

/// Nanoseconds per `neighbor` (every node x port) and per `min_distance`
/// (all pairs) on the two small fabrics the workloads use: the median over
/// batches, since a single sweep is shorter than a scheduler hiccup.
pub fn topo_queries() -> Layers {
    let fabrics: [Box<dyn Topology>; 2] =
        [Box::new(Mesh2D::new(6, 6)), Box::new(Hypercube::new(4))];
    let (mut neighbor, mut distance) = (Vec::new(), Vec::new());
    for _ in 0..31 {
        let (mut calls, t0) = (0u64, Instant::now());
        for _ in 0..50 {
            for t in &fabrics {
                for n in t.nodes() {
                    for p in t.ports() {
                        black_box(t.neighbor(black_box(n), p));
                        calls += 1;
                    }
                }
            }
        }
        neighbor.push(t0.elapsed().as_nanos() as f64 / calls as f64);
        let (mut calls, t0) = (0u64, Instant::now());
        for _ in 0..5 {
            for t in &fabrics {
                for a in t.nodes() {
                    for b in t.nodes() {
                        black_box(t.min_distance(black_box(a), b));
                        calls += 1;
                    }
                }
            }
        }
        distance.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    let mut l = Layers::new();
    l.insert("topo.neighbor_ns", median(&neighbor));
    l.insert("topo.distance_ns", median(&distance));
    l
}

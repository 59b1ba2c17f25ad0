//! Every typed port of every shipped host binding, driven through every
//! value of its declared domain and a few just outside it: what a host
//! writes as a word reads back through `InputMap::read_input` as the value
//! `InputMap::set_at` stores, and an out-of-domain write spills that value.

use ftr_algos::rule_io::{CubeIo, MeshIo};
use ftr_algos::rules_src::{self, route_c_source};
use ftr_rules::ast::Program;
use ftr_rules::{parse, Domain, Elem, InputMap, Port, Subset, Type, Value};

fn shipped(name: &str) -> Program {
    parse(rules_src::all().into_iter().find(|p| p.0 == name).expect("shipped").1).unwrap()
}

/// Every element of a port's declared domain and a few just outside
/// it, each with the value the hosts stored through `set_at` before they had ports.
trait Cases: Elem {
    fn cases(prog: &Program, elem: Type) -> Vec<(Self, Value)>;
}

impl Cases for i64 {
    fn cases(_: &Program, elem: Type) -> Vec<(i64, Value)> {
        let Domain::Int { lo, hi } = elem.domain() else { unreachable!() };
        (lo - 1..=hi + 1).map(|x| (x, Value::Int(x))).collect()
    }
}

impl Cases for bool {
    fn cases(_: &Program, _: Type) -> Vec<(bool, Value)> {
        vec![(false, Value::Bool(false)), (true, Value::Bool(true))]
    }
}

impl Cases for u32 {
    fn cases(prog: &Program, elem: Type) -> Vec<(u32, Value)> {
        let Domain::Sym(ty) = elem.domain() else { unreachable!() };
        (0..=prog.sym_size(ty) as u32).map(|idx| (idx, Value::Sym { ty, idx })).collect()
    }
}

impl Cases for Subset {
    fn cases(prog: &Program, elem: Type) -> Vec<(Subset, Value)> {
        let Domain::Int { lo, hi } = elem.domain() else { unreachable!() };
        let n = elem.domain().size(prog.sym_sizes());
        // every subset, one with a bit past the elements, one over a
        // narrower domain (a smaller cube than the program's)
        let narrow = Domain::Int { lo, hi: hi - 1 };
        let odd = [(elem.domain(), 1 << n), (narrow, 1)];
        let masks = (0..1u64 << n).map(|mask| (elem.domain(), mask)).chain(odd);
        masks.map(|(dom, mask)| (Subset { dom, mask }, Value::Set { dom, mask })).collect()
    }
}

/// Writes every case through `port` at every index: each must read
/// back as the value `set_at` stores. Returns 1 for a bound port.
fn drive<T: Cases>(prog: &Program, port: Option<Port<T>>) -> usize {
    let Some(port) = port else { return 0 };
    let (i, mut im, mut old) = (port.input(), InputMap::for_program(prog), InputMap::new());
    let scalar = prog.inputs[i].index_domains.is_empty();
    for k in 0..prog.input_layout(i).cells {
        let idx = if scalar { vec![] } else { vec![Value::Int(k as i64)] };
        for (v, want) in T::cases(prog, prog.inputs[i].elem) {
            port.write(&mut im, k, v);
            old.set_at(prog, i, &idx, want).unwrap();
            let name = &prog.inputs[i].name;
            assert_eq!(im.read_input(prog, i, &idx).unwrap(), want, "{name}{idx:?}");
            assert_eq!(old.read_input(prog, i, &idx).unwrap(), want, "{name}{idx:?}");
        }
    }
    1
}

/// The bound inputs of `slots` (the table lists the inputs first).
fn bound_inputs(prog: &Program, slots: Vec<(&str, Option<usize>)>) -> usize {
    let input = |(name, slot): &(&str, Option<usize>)| {
        slot.is_some_and(|i| prog.inputs.get(i).is_some_and(|d| d.name == *name))
    };
    slots.iter().filter(|s| input(s)).count()
}

#[test]
fn every_port_writes_what_set_at_stored() {
    for name in ["xy", "west_first", "nafta"] {
        let prog = shipped(name);
        let io = MeshIo::bind(&prog).unwrap();
        let driven = drive(&prog, io.xdes)
            + drive(&prog, io.ydes)
            + drive(&prog, io.invc)
            + drive(&prog, io.free)
            + drive(&prog, io.linkok)
            + drive(&prog, io.out_queue);
        assert_eq!(driven, bound_inputs(&prog, io.slots()), "{name}");
    }
    for d in [4, 6] {
        let prog = parse(&route_c_source(d)).unwrap();
        let io = CubeIo::bind(&prog).unwrap();
        let driven = drive(&prog, io.diffup)
            + drive(&prog, io.diffdown)
            + drive(&prog, io.okdirs)
            + drive(&prog, io.out_queue)
            + drive(&prog, io.new_state)
            + drive(&prog, io.phase)
            + drive(&prog, io.misr)
            + drive(&prog, io.freevc)
            + drive(&prog, io.freedirs);
        assert_eq!(driven, 9, "route_c d={d}");
        assert_eq!(driven, bound_inputs(&prog, io.slots()), "route_c d={d}");
    }
}

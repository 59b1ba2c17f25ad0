//! The CDG deadlock verifier over compiled rule programs: the shipped
//! deterministic/turn-model/NAFTA programs must verify on the data path
//! their declarations select, and the naive fully-adaptive baseline must
//! produce a concrete cycle witness.

use ftr_algos::rule_io::{self, MeshIo, PortInfo, Ret, RuleIo};
use ftr_algos::vnet::Lane;
use ftr_analyze::{verify_cube, CubeProgramLift, DeadlockReport, MeshProgramLift, MeshVcMode};
use ftr_rules::{compile, parse, CompileOptions, CompiledProgram, InputMap, Machine, Program};
use ftr_rules::{RegFile, Type, Value};
use ftr_topo::cdg::RoutingRelation;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, WEST};
use std::collections::HashMap;

fn compiled(src: &str) -> CompiledProgram {
    let prog = parse(src).expect("parse");
    compile(&prog, &CompileOptions::default()).expect("compile")
}

/// [`MeshProgramLift::verify`] of `c` on a `w`×`h` mesh.
fn verify_on(name: &str, c: &CompiledProgram, (w, h): (u32, u32), faults: usize) -> DeadlockReport {
    let lift = MeshProgramLift::new(c.clone(), Mesh2D::new(w, h)).expect("binds");
    lift.verify(name, faults, 1 << 20)
}

fn shipped(name: &str) -> CompiledProgram {
    let src = ftr_algos::rules_src::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no shipped program {name}"))
        .1;
    compiled(src)
}

#[test]
fn xy_program_is_deadlock_free_fault_free() {
    let report = verify_on("xy", &shipped("xy"), (4, 4), 0);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 1);
}

#[test]
fn west_first_program_is_deadlock_free_fault_free() {
    let report = verify_on("west_first", &shipped("west_first"), (4, 4), 0);
    assert!(report.verified(), "{}", report.summary());
}

#[test]
fn naive_adaptive_baseline_has_a_cycle_witness() {
    let c = compiled(ftr_algos::rules_src::NAIVE_ADAPTIVE);
    for (w, h) in [(3, 3), (8, 8)] {
        let mesh = Mesh2D::new(w, h);
        let report = verify_on("adaptive", &c, (w, h), 0);
        assert!(!report.verified(), "the naive adaptive baseline must deadlock on {w}x{h}");
        let witness = &report.failures[0];
        assert_eq!(witness.faults, "fault-free");
        // a dependency cycle on a mesh needs at least four turning channels
        let ring = &witness.cycle;
        assert!(ring.len() >= 4, "degenerate witness on {w}x{h}: {}", report.summary());
        // and it closes: each channel leads into the node the next leaves
        for (i, c) in ring.iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            assert_eq!(mesh.neighbor(c.node, c.port), Some(next.node), "{}", report.summary());
        }
    }
}

#[test]
fn nafta_is_deadlock_free_with_up_to_two_link_faults_exhaustively() {
    // 3x3 mesh has 12 links: 1 + 12 + C(12,2) = 79 fault scenarios, all
    // checked exhaustively under the two-virtual-network discipline the
    // program's `invc` declaration selects.
    let report = verify_on("nafta", &shipped("nafta"), (3, 3), 2);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 79);
}

#[test]
fn nafta_is_deadlock_free_on_4x4_with_single_link_faults() {
    let report = verify_on("nafta", &shipped("nafta"), (4, 4), 1);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 25); // 24 links + fault-free
}

#[test]
#[allow(deprecated)] // the wrapper the ledger calls until item 2(b)/(c)
#[should_panic(expected = "nafta: its declarations select the NaraPair data path")]
fn a_mode_other_than_the_derived_one_is_refused() {
    // the data path is derived, not chosen: asking for a proof about a
    // router nobody builds is an error, not a verdict
    ftr_analyze::verify_mesh("nafta", &shipped("nafta"), 3, 3, MeshVcMode::SingleVc, 0, 16);
}

#[test]
fn a_program_that_does_not_drive_the_topology_is_skipped_not_proved() {
    let cube_on_mesh = ["route_c", "route_c_nft"].map(|name| {
        MeshProgramLift::new(shipped(name), Mesh2D::new(3, 3)).expect("binds").verify(name, 1, 64)
    });
    let mesh_on_cube = ["xy", "west_first", "nafta", "naive_adaptive", "route_c_nft"]
        .map(|name| verify_cube(name, &shipped(name), 4, 0, 16));
    for report in cube_on_mesh.iter().chain(&mesh_on_cube) {
        assert_eq!(report.channels_used, 0, "{}", report.summary());
        assert!(report.summary().contains("skipped"), "{}", report.summary());
        assert!(!report.summary().contains("deadlock-free"), "{}", report.summary());
    }
    let proved = verify_cube("route_c", &shipped("route_c"), 4, 0, 16);
    assert!(proved.channels_used > 0 && proved.summary().contains("deadlock-free"));
}

#[test]
fn route_c_is_deadlock_free_on_a_4_cube() {
    let src = ftr_algos::rules_src::route_c_source(4);
    let c = compiled(&src);
    let report = verify_cube("route_c", &c, 4, 0, 16);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.num_vcs, 5);
}

/// FNV-1a over `relation(cur, inc, dst)` for every node pair and every
/// arrival channel (injection included), in enumeration order.
fn relation_hash(topo: &dyn Topology, vcs: usize, relation: &RoutingRelation<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: usize| {
        for b in (w as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut arrivals = vec![None];
    for p in topo.ports() {
        arrivals.extend((0..vcs).map(|v| Some((p, VcId(v as u8)))));
    }
    for cur in topo.nodes() {
        for dst in topo.nodes() {
            for &inc in &arrivals {
                let out = relation(cur, inc, dst);
                word(out.len());
                for (p, v) in out {
                    word(p.idx() << 8 | v.idx());
                }
            }
        }
    }
    h
}

#[test]
fn lifted_relations_are_pinned() {
    // `verify_*` only reports whether a cycle exists; the relation itself
    // is pinned here, so a change in what the lift feeds a program cannot
    // hide behind an unchanged verdict. Recorded at PR 16; the NAFTA row
    // re-pinned at PR 21, when its lift moved onto the shared allocator
    // and presentation (`usable` = live ∩ permitted, the committed climb
    // decided by the program).
    let mesh = Mesh2D::new(3, 3);
    let mut one_link = FaultSet::new();
    one_link.fail_link(&mesh, mesh.node_at(1, 1), EAST);
    let mut got = Vec::new();
    for name in ["xy", "west_first", "naive_adaptive", "nafta"] {
        let lift = MeshProgramLift::new(shipped(name), mesh.clone()).expect("binds");
        for faults in [&FaultSet::new(), &one_link] {
            got.push(relation_hash(&mesh, lift.num_vcs(), &lift.relation(faults)));
        }
    }
    let cube = Hypercube::new(3);
    let mut one_link = FaultSet::new();
    one_link.fail_link(&cube, NodeId(1), PortId(1));
    for program in [compiled(&ftr_algos::rules_src::route_c_source(3)), shipped("route_c_nft")] {
        let lift = CubeProgramLift::new(program, cube.clone()).expect("binds");
        for faults in [&FaultSet::new(), &one_link] {
            got.push(relation_hash(&cube, 5, &lift.relation(faults)));
        }
    }
    // per program: [fault-free, one dead link]
    let pinned: [[u64; 2]; 6] = [
        [0x9711_6817_39d2_f54d, 0xa1d3_9ac1_69fe_fb1c], // xy
        [0x07c1_0f2b_05a1_0b32, 0xf695_0374_c5a8_4513], // west_first
        [0xd187_282b_5c2f_4dad, 0xbb2e_15ed_559a_7fc4], // naive_adaptive
        [0x2f18_3f0e_f11c_a6ec, 0x93b3_2ab3_6760_0c01], // nafta (the NARA pair)
        [0x687f_8dd3_f2db_7a25, 0xe5c0_e387_7e24_9545], // route_c(3)
        [0xb9d1_03fd_6854_a325, 0xb9d1_03fd_6854_a325], // route_c_nft: the empty relation
    ];
    assert_eq!(got, pinned.concat());
}

#[test]
fn nafta_lift_fires_a_pinned_number_of_cascades() {
    // the read-class prune's saving, pinned: the exhaustive enumeration
    // fired every free pattern x 4 queue positions x 4 flag combinations
    let report = verify_on("nafta", &shipped("nafta"), (4, 4), 1);
    assert_eq!(report.fault_sets_checked, 25);
    assert_eq!(report.interpretations, 6_772);
}

#[test]
fn route_c_on_the_4_cube_is_cyclic_under_every_single_dead_link() {
    // The current verdict, pinned — not a claim that it is right: whether
    // live ROUTE_C can deadlock on one dead link, or the lift
    // over-approximates (fresh `neighb_state`, any free misroute class),
    // is open (ROADMAP item 1).
    let report = verify_cube("route_c", &shipped("route_c"), 4, 1, 64);
    assert_eq!(report.fault_sets_checked, 33); // 32 links + fault-free
    assert_eq!(report.failures.len(), 32, "{}", report.summary());
    assert!(report.failures.iter().all(|w| w.faults.starts_with("link ")), "{}", report.summary());
    assert!(report.summary().contains("32/33 scenarios cyclic; e.g."), "{}", report.summary());
}

#[test]
fn a_sampled_verdict_says_how_many_sets_it_sampled() {
    // `ftr-lint --deadlock cube:4 --max-faults 2` at the default 512 sets:
    // 529 sets exist (fault-free, 32 single and 496 double dead links)
    let report = verify_cube("route_c", &shipped("route_c"), 4, 2, 512);
    assert_eq!((report.fault_sets_checked, report.fault_sets_total), (512, 529));
    let summary = report.summary();
    assert!(
        summary.contains("511/512 scenarios cyclic, sampled 512 of 529 sets; e.g."),
        "{summary}"
    );
}

/// The lift's enumeration without its prune, built from public pieces
/// only: every free pattern (everything open free, nothing free, each
/// open direction alone) x every direction as the unique queue minimum x
/// every dead-end flag combination, each fired on fresh registers.
struct BruteForce {
    mesh: Mesh2D,
    prog: Program,
    io: MeshIo,
    mode: MeshVcMode,
    machine: Machine,
    inputs: InputMap,
    memo: HashMap<(NodeId, NodeId, u8, u8, u8), u8>,
}

impl BruteForce {
    fn new(c: &CompiledProgram, mesh: Mesh2D) -> Self {
        let prog = c.prog.clone();
        let io = MeshIo::bind(&prog).expect("binds");
        let mut inputs = InputMap::new();
        for decl in &prog.inputs {
            let lowest = match decl.elem {
                Type::Scalar(d) => d.value_at(0),
                Type::Set(d) => Value::empty_set(d),
            };
            inputs.set_default(&prog, &decl.name, lowest).expect("declared");
        }
        let mode = io.mode;
        let machine = Machine::from_compiled(c.clone());
        BruteForce { mesh, prog, io, mode, machine, inputs, memo: HashMap::new() }
    }

    fn dirs(&mut self, cur: NodeId, dst: NodeId, lane: Lane, live: u8) -> u8 {
        let key = (cur, dst, lane.vnet, lane.permitted, live);
        if let Some(&dirs) = self.memo.get(&key) {
            return dirs;
        }
        let open = live & lane.permitted;
        let mut frees = vec![open, 0];
        frees.extend((0..4).map(|d| 1 << d).filter(|bit| open & bit != 0));
        let dead_ends: &[(bool, bool)] = if self.io.de_east.is_some() {
            &[(false, false), (true, false), (false, true), (true, true)]
        } else {
            &[(false, false)]
        };
        let (prog, io) = (&self.prog, self.io);
        let mut dirs = 0;
        for free in frees {
            for qmin in 0..4 {
                for &de in dead_ends {
                    *self.machine.regs_mut() = RegFile::new(prog);
                    io.init(&self.mesh, cur, &mut self.machine);
                    let regs = self.machine.regs_mut();
                    let dst = self.mesh.coords(dst);
                    let legal =
                        io.present(prog, regs, &mut self.inputs, dst, lane, de, |d| PortInfo {
                            free: free >> d & 1 != 0,
                            linkok: live >> d & 1 != 0,
                            out_queue: if d == qmin { 0 } else { 9 },
                        });
                    let Ok(fired) = self.machine.fire_base(rule_io::ENTRY, &[], &self.inputs)
                    else {
                        continue;
                    };
                    if let Some(Ret::Dir(d @ 0..=3)) = fired.last_return.map(rule_io::decode) {
                        dirs |= legal & 1 << d;
                    }
                }
            }
        }
        self.memo.insert(key, dirs);
        dirs
    }

    fn relation(
        &mut self,
        faults: &FaultSet,
        cur: NodeId,
        inc: Option<(PortId, VcId)>,
        dst: NodeId,
    ) -> Vec<(PortId, VcId)> {
        let mut live = 0;
        for p in self.mesh.ports() {
            if let Some(nb) = self.mesh.neighbor(cur, p) {
                if faults.link_usable(&self.mesh, cur, p) && !faults.node_faulty(nb) {
                    live |= 1 << p.idx();
                }
            }
        }
        let mut out = Vec::new();
        for lane in self.mode.lanes(inc, self.mesh.offset(cur, dst)) {
            let dirs = self.dirs(cur, dst, lane, live);
            out.extend((0..4).filter(|d| dirs >> d & 1 != 0).map(|d| (PortId(d), VcId(lane.vnet))));
        }
        out
    }
}

/// The fault-free mesh and every single dead link.
fn single_link_faults(mesh: &Mesh2D) -> Vec<FaultSet> {
    let mut sets = vec![FaultSet::new()];
    for n in mesh.nodes() {
        for p in mesh.ports() {
            if mesh.neighbor(n, p).is_some_and(|nb| n < nb) {
                let mut faults = FaultSet::new();
                faults.fail_link(mesh, n, p);
                sets.push(faults);
            }
        }
    }
    sets
}

/// Asserts that the lift's relation equals the brute force's for every
/// query under the fault-free mesh and every single dead link.
fn assert_lift_equals_brute_force(name: &str, c: &CompiledProgram, mesh: &Mesh2D) {
    let lift = MeshProgramLift::new(c.clone(), mesh.clone()).expect("binds");
    let mut brute = BruteForce::new(c, mesh.clone());
    let mut arrivals = vec![None];
    for p in mesh.ports() {
        arrivals.extend((0..lift.num_vcs()).map(|v| Some((p, VcId(v as u8)))));
    }
    for faults in single_link_faults(mesh) {
        let relation = lift.relation(&faults);
        for cur in mesh.nodes() {
            for dst in mesh.nodes() {
                for &inc in &arrivals {
                    assert_eq!(
                        relation(cur, inc, dst),
                        brute.relation(&faults, cur, inc, dst),
                        "{name} on {}x{}: {cur:?} -> {dst:?} arriving on {inc:?} under {faults:?}",
                        mesh.width(),
                        mesh.height()
                    );
                }
            }
        }
    }
}

#[test]
fn the_pruned_lift_equals_the_brute_force_enumeration() {
    for name in ["xy", "west_first", "nafta", "naive_adaptive"] {
        for (w, h) in [(3, 3), (4, 4)] {
            assert_lift_equals_brute_force(name, &shipped(name), &Mesh2D::new(w, h));
        }
    }
}

/// The part every fixture below shares: the interface it binds and an
/// entry base that delivers at the destination, else escalates to `next`.
fn fixture(next: &str, rest: &str) -> CompiledProgram {
    compiled(&format!(
        "CONSTANT dirs = 0 TO 3\n\
         VARIABLE xpos IN 0 TO 31\n\
         VARIABLE ypos IN 0 TO 31\n\
         VARIABLE de_east IN bool INIT FALSE\n\
         VARIABLE de_west IN bool INIT FALSE\n\
         INPUT xdes IN 0 TO 31\n\
         INPUT ydes IN 0 TO 31\n\
         INPUT free[dirs] IN bool\n\
         INPUT out_queue[dirs] IN 0 TO 255\n\
         ON route() RETURNS 0 TO 15\n\
           IF xpos = xdes AND ypos = ydes THEN RETURN(15);\n\
           IF TRUE THEN !{next}();\n\
         END route;\n\
         {rest}"
    ))
}

#[test]
fn a_prune_that_ignored_a_read_class_would_drop_a_direction() {
    // each fixture answers east or west depending on exactly one class;
    // a lift that missed the read would never try the other value
    let fixtures = [
        // (a) a dead-end flag, read only in the third cascaded base
        (
            "de_east in a third base",
            fixture(
                "second",
                "ON second() RETURNS 0 TO 15\n IF TRUE THEN !third();\nEND second;\n\
                 ON third() RETURNS 0 TO 15\n\
                   IF de_east THEN RETURN(1);\n\
                   IF TRUE THEN RETURN(0);\n\
                 END third;",
            ),
        ),
        // (b) the queue, read only through `argmin` in one conclusion
        (
            "out_queue through argmin",
            fixture(
                "pick",
                "ON pick() RETURNS 0 TO 15\n\
                   IF TRUE THEN RETURN(argmin(out_queue, {0, 1}));\n\
                 END pick;",
            ),
        ),
        // (c) the free pattern, read only in the escalated base
        (
            "free in an escalated base",
            fixture(
                "escalate",
                "ON escalate() RETURNS 0 TO 15\n\
                   IF free(1) THEN RETURN(1);\n\
                   IF TRUE THEN RETURN(0);\n\
                 END escalate;",
            ),
        ),
    ];
    let mesh = Mesh2D::new(3, 3);
    for (name, c) in &fixtures {
        let lift = MeshProgramLift::new(c.clone(), mesh.clone()).expect("binds");
        let (centre, corner) = (mesh.node_at(1, 1), mesh.node_at(0, 0));
        let both = vec![(EAST, VcId(0)), (WEST, VcId(0))];
        assert_eq!(lift.relation(&FaultSet::new())(centre, None, corner), both, "{name}");
        assert_lift_equals_brute_force(name, c, &mesh);
    }
}

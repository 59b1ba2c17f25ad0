//! The CDG deadlock verifier over compiled rule programs: the shipped
//! deterministic/turn-model/NAFTA programs must verify on the data path
//! their declarations select, and the naive fully-adaptive baseline must
//! produce a concrete cycle witness.

use ftr_analyze::{verify_cube, CubeProgramLift, DeadlockReport, MeshProgramLift, MeshVcMode};
use ftr_rules::{compile, parse, CompileOptions, CompiledProgram};
use ftr_topo::cdg::RoutingRelation;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST};

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
    let report = verify_on("adaptive", &c, (3, 3), 0);
    assert!(!report.verified(), "the naive adaptive baseline must deadlock");
    let witness = &report.failures[0];
    assert_eq!(witness.faults, "fault-free");
    // a dependency cycle on a mesh needs at least four turning channels
    assert!(witness.cycle.len() >= 4, "degenerate witness: {:?}", witness.cycle);
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
#[allow(deprecated)] // the wrapper the ledger calls until ROADMAP 1(b)/(c)
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

//! The shipped ARON tables, pinned.
//!
//! One FNV-1a per rule base over everything the table fill produces —
//! `table`, `rule_applicable` and `warnings` — against constants recorded
//! before the fill was rewritten to work by words (PR 22). A change to the
//! fill kernel that moves any shipped table fails here, by base name; a
//! deliberate change to a `.rules` file re-pins the rows this test prints.

use ftr_algos::rules_src::{self, route_c_source};
use ftr_rules::compile::{CompileWarning, ConflictKind};
use ftr_rules::{compile, parse, CompileOptions, CompiledRuleBase};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fill_hash(b: &CompiledRuleBase) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(b.table.len() as u64);
    for e in &b.table {
        h.word(e.map_or(0, |n| n.get() as u64));
    }
    for &n in &b.rule_applicable {
        h.word(n);
    }
    for w in &b.warnings {
        match *w {
            CompileWarning::Conflict { winner, loser, kind, entries } => {
                let kind = match kind {
                    ConflictKind::Return => 0,
                    ConflictKind::Register => 1,
                    ConflictKind::Emit => 2,
                };
                for x in [1, winner as u64, loser as u64, kind, entries] {
                    h.word(x);
                }
            }
            CompileWarning::Gaps { entries, total } => {
                for x in [2, entries, total] {
                    h.word(x);
                }
            }
        }
    }
    h.0
}

/// `(program, rule base, hash)` in compile order, recorded at commit 0eb93e4.
const PINNED: &[(&str, &str, u64)] = &[
    ("xy", "route_msg", 0xdbcd_4dae_8fd9_8ba5),
    ("west_first", "route_msg", 0xee9a_fd0a_2079_10e4),
    ("nafta", "incoming_message", 0xb72a_33b0_0e96_656b),
    ("nafta", "in_message_ft", 0x4fde_5afb_a473_cb3f),
    ("nafta", "test_exception", 0xa2e3_1deb_a6c2_e2a4),
    ("nafta", "update_dir_table", 0xc836_7f2c_c050_e866),
    ("nafta", "message_finished", 0xf561_f4dd_0700_6ca4),
    ("nafta", "calculate_new_node_state", 0x91fe_6c6d_1c68_5145),
    ("nafta", "tell_my_neighbors", 0xa47d_2dee_3be4_72a7),
    ("nafta", "flit_finished", 0xa47d_2dee_3be4_72a7),
    ("nafta", "fault_occured", 0xcff6_5f34_bf09_2045),
    ("nafta", "message_from_info_channel", 0xa47d_2dee_3be4_72a7),
    ("nafta", "consider_neighbor_state", 0x4b04_530c_25ab_8e84),
    ("route_c", "decide_dir", 0x21b5_7619_b63f_9807),
    ("route_c", "decide_vc", 0x64a3_4d98_ba45_9d00),
    ("route_c", "update_state", 0xc160_5444_c497_abdc),
    ("route_c", "adaptivity", 0xc836_7f2c_c050_e866),
    ("route_c_nft", "decide_dir", 0x6b8d_b48c_dcb8_6e4c),
    ("route_c_nft", "adaptivity", 0xc836_7f2c_c050_e866),
    ("naive_adaptive", "route_msg", 0xe51b_8982_572a_4d1f),
    ("route_c_d3", "decide_dir", 0x21b5_7619_b63f_9807),
    ("route_c_d3", "decide_vc", 0x64a3_4d98_ba45_9d00),
    ("route_c_d3", "update_state", 0x8e18_c2c7_546a_c083),
    ("route_c_d3", "adaptivity", 0xc836_7f2c_c050_e866),
    ("route_c_d4", "decide_dir", 0x21b5_7619_b63f_9807),
    ("route_c_d4", "decide_vc", 0x64a3_4d98_ba45_9d00),
    ("route_c_d4", "update_state", 0xc160_5444_c497_abdc),
    ("route_c_d4", "adaptivity", 0xc836_7f2c_c050_e866),
    ("route_c_d5", "decide_dir", 0x21b5_7619_b63f_9807),
    ("route_c_d5", "decide_vc", 0x64a3_4d98_ba45_9d00),
    ("route_c_d5", "update_state", 0xc160_5444_c497_abdc),
    ("route_c_d5", "adaptivity", 0xc836_7f2c_c050_e866),
];

#[test]
fn shipped_tables_are_pinned() {
    let mut sources: Vec<(String, String)> =
        rules_src::all().into_iter().map(|(n, s)| (n.to_string(), s.to_string())).collect();
    for d in 3..=5 {
        sources.push((format!("route_c_d{d}"), route_c_source(d)));
    }
    let mut got = Vec::new();
    for (name, src) in &sources {
        let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled =
            compile(&prog, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        for b in &compiled.bases {
            got.push((name.clone(), prog.rulebases[b.rb].name.clone(), fill_hash(b)));
        }
    }
    let rows: String =
        got.iter().map(|(p, b, h)| format!("    (\"{p}\", \"{b}\", {h:#x}),\n")).collect();
    let same = got.len() == PINNED.len()
        && got.iter().zip(PINNED).all(|((p, b, h), (pp, pb, ph))| p == pp && b == pb && h == ph);
    assert!(same, "a shipped table moved; the fill now produces:\n{rows}");
}

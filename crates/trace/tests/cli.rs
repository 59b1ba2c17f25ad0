//! The `ftr-trace` binary, driven as a process: exit codes, the
//! `--to-jsonl` view, stdin, and what a crash-cut capture still yields.

use ftr_obs::{json, BinSink, EventKind, FtbHeader, TraceEvent, TraceSink};
use ftr_topo::NodeId;
use std::io::Write;
use std::process::{Command, Output, Stdio};

/// One delivered message as a finalized capture; returns the bytes and
/// `written()`.
fn capture() -> (Vec<u8>, u64) {
    let kinds = [
        EventKind::Inject { msg: 1, src: NodeId(0), dst: NodeId(3), len_flits: 4 },
        EventKind::Deliver { node: NodeId(3), msg: 1 },
    ];
    let mut bytes = Vec::new();
    let sink = BinSink::new(&mut bytes, FtbHeader::new().with("label", "cli")).unwrap();
    for (cycle, kind) in kinds.into_iter().enumerate() {
        sink.record(&TraceEvent { cycle: cycle as u64, kind });
    }
    sink.finalize().unwrap();
    let written = sink.written();
    drop(sink);
    (bytes, written)
}

/// Runs `ftr-trace <args>` with `stdin` piped in.
fn ftr_trace(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftr-trace"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftr-trace");
    // a child that fails before reading closes the pipe; its exit code is the verdict
    let _ = child.stdin.take().unwrap().write_all(stdin);
    child.wait_with_output().unwrap()
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ftr-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn to_jsonl_prints_one_valid_line_per_event() {
    let (bytes, written) = capture();
    let path = tmp("whole.ftb");
    std::fs::write(&path, &bytes).unwrap();

    let out = ftr_trace(&[path.to_str().unwrap(), "--to-jsonl"], b"");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let lines: Vec<&str> = text(&out.stdout).lines().collect();
    assert_eq!(lines.len() as u64, written);
    for l in &lines {
        json::validate(l).unwrap_or_else(|e| panic!("{l}: {e}"));
    }
    assert!(lines[0].contains("\"event\":\"inject\""), "{}", lines[0]);
    assert!(text(&out.stderr).contains("label=cli"), "the header is echoed");
}

#[test]
fn stdin_replays_and_reports() {
    let (bytes, _) = capture();
    let out = ftr_trace(&["-"], &bytes);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("1 injected, 1 delivered"), "{}", text(&out.stdout));
}

#[test]
fn a_cut_capture_gets_its_summary_and_exit_2() {
    let (bytes, written) = capture();
    let cut = &bytes[..bytes.len() - 1];
    let report = tmp("cut.json");

    let out = ftr_trace(&["-", "--report", report.to_str().unwrap()], cut);
    assert_eq!(out.status.code(), Some(2));
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(stdout.contains("1 injected, 1 delivered"), "the prefix is summarized: {stdout}");
    assert!(stdout.contains("capture incomplete"), "{stdout}");
    assert!(stderr.contains("truncated"), "{stderr}");
    let v = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(v.get("events").and_then(|x| x.as_u64()), Some(written));
    assert!(v.get("truncated").and_then(|x| x.as_str()).is_some_and(|w| w.contains("truncated")));

    // the view keeps every complete event too
    let out = ftr_trace(&["-", "--to-jsonl"], cut);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(text(&out.stdout).lines().count() as u64, written);
}

#[test]
fn input_that_is_not_ftb_exits_2() {
    for bad in [&b""[..], b"{\"cycle\":1,\"event\":\"kill\",\"msg\":1}\n"] {
        let out = ftr_trace(&["-"], bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "nothing decoded, nothing summarized");
    }
    let out = ftr_trace(&["/nonexistent/capture.ftb"], b"");
    assert_eq!(out.status.code(), Some(1), "an unreadable file is I/O, not content");
}

//! `ftr-trace` — analyse an FTB trace capture.
//!
//! ```text
//! ftr-trace <capture.ftb | -> [--report <out.json>] [--top <n>]
//!           [--no-diagnose] [--scan-period <n>] [--stale-window <n>]
//!           [--min-blocked <n>] [--starvation-window <n>]
//! ftr-trace <capture.ftb | -> --to-jsonl
//! ```
//!
//! Reads the capture — FTB as written by `BinSink`, `-` for stdin —
//! folds it into journeys, replays it through the online diagnoser,
//! prints a human summary to stdout and, with `--report`, writes the
//! machine-readable JSON report (validated before writing). With
//! `--to-jsonl` it instead streams one JSON object per decoded event to
//! stdout (no fold, no diagnoser) — the `grep`/`jq` view of a capture.
//!
//! Exits 1 on usage or I/O errors, 2 on a malformed or truncated
//! capture. A capture cut mid-write (a crashed or wedged run) still
//! gets everything before the cut: the summary and a report branded
//! `"truncated"`, or every complete event under `--to-jsonl` — then the
//! truncation message on stderr and exit 2.

use ftr_obs::json;
use ftr_trace::{DiagnoserConfig, DiagnoserSink, EventReader, JourneyBook, ReadError, TraceReport};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    input: String,
    to_jsonl: bool,
    report: Option<String>,
    top: usize,
    diagnose: bool,
    cfg: DiagnoserConfig,
}

fn usage() -> String {
    "usage: ftr-trace <capture.ftb | -> [--report <out.json>] [--top <n>] \
     [--no-diagnose] [--scan-period <n>] [--stale-window <n>] \
     [--min-blocked <n>] [--starvation-window <n>]\n       \
     ftr-trace <capture.ftb | -> --to-jsonl"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut input = None;
    let mut args = Args {
        input: String::new(),
        to_jsonl: false,
        report: None,
        top: 10,
        diagnose: true,
        cfg: DiagnoserConfig::default(),
    };
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("bad {name}: {e}"))
    }
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--to-jsonl" => args.to_jsonl = true,
            "--report" => args.report = Some(it.next().ok_or("--report needs a path")?.clone()),
            "--top" => args.top = num(&mut it, "--top")? as usize,
            "--no-diagnose" => args.diagnose = false,
            "--scan-period" => args.cfg.scan_period = num(&mut it, "--scan-period")?.max(1),
            "--stale-window" => args.cfg.stale_window = num(&mut it, "--stale-window")?,
            "--min-blocked" => args.cfg.min_blocked = num(&mut it, "--min-blocked")?,
            "--starvation-window" => {
                args.cfg.starvation_window = num(&mut it, "--starvation-window")?;
            }
            "-h" | "--help" => return Err(usage()),
            other if input.is_none() && (!other.starts_with('-') || other == "-") => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    args.input = input.ok_or_else(usage)?;
    if args.to_jsonl && args.report.is_some() {
        return Err(format!("--to-jsonl folds nothing, so there is no --report\n{}", usage()));
    }
    Ok(args)
}

/// Opens the capture and echoes its header to stderr.
fn open(input: &str) -> Result<EventReader, ReadError> {
    let reader = if input == "-" {
        EventReader::from_reader(std::io::stdin())
    } else {
        EventReader::open(input)
    }?;
    let h = reader.header();
    let meta: String = h.meta.iter().map(|(k, v)| format!(", {k}={v}")).collect();
    eprintln!("ftr-trace: ftb stream (schema {}){meta}", h.schema);
    Ok(reader)
}

/// `--to-jsonl`: one `to_json()` line per decoded event. Every event
/// before a read error has been printed by the time it is returned.
fn to_jsonl(reader: EventReader) -> Result<(), ReadError> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut end = Ok(());
    let copy = || -> std::io::Result<()> {
        for ev in reader {
            match ev {
                Ok(ev) => writeln!(out, "{}", ev.to_json())?,
                Err(e) => {
                    end = Err(e);
                    break;
                }
            }
        }
        out.flush()
    };
    match copy() {
        // `| head` closing the pipe is the reader's choice, not a failure
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(ReadError::Io(format!("cannot write to stdout: {e}"))),
        Ok(()) => end,
    }
}

/// Everything that can fail is a [`ReadError`]: `Io` exits 1 (the
/// report file and stdout included), `Malformed` exits 2.
fn run(args: &Args) -> Result<(), ReadError> {
    let reader = open(&args.input)?;
    if args.to_jsonl {
        return to_jsonl(reader);
    }
    let mut book = JourneyBook::new();
    let diag = args.diagnose.then(|| DiagnoserSink::new(args.cfg));
    let truncated = match ftr_trace::replay(reader, &mut book, diag.as_ref()) {
        // a crash-cut capture still gets its report, over the events
        // before the cut and branded with the reader's reason
        Err(ReadError::Malformed(why)) if book.events_total() > 0 => Some(why),
        Err(e) => return Err(e),
        Ok(_) => None,
    };
    let report = TraceReport { truncated, ..TraceReport::build(&book, diag.as_ref(), args.top) };
    print!("{}", report.human_summary());
    if let Some(path) = &args.report {
        let payload = report.to_json();
        json::validate(&payload)
            .map_err(|e| ReadError::Io(format!("internal error: report JSON invalid: {e}")))?;
        std::fs::write(path, payload + "\n")
            .map_err(|e| ReadError::Io(format!("cannot write {path}: {e}")))?;
        eprintln!("ftr-trace: report written to {path} ({} events)", report.events_total);
    }
    report.truncated.map_or(Ok(()), |why| Err(ReadError::Malformed(why)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftr-trace: {e}");
            ExitCode::from(if matches!(e, ReadError::Io(_)) { 1 } else { 2 })
        }
    }
}

//! Resumable batched campaign fleets.
//!
//! A statistical fault-tolerance campaign is 10⁴+ independent
//! simulations, each deterministic for its seed. At that scale two
//! failure modes dominate: a wall-clock interruption (CI timeout,
//! preempted box) that throws away hours of finished work, and a single
//! diverging run whose panic is anonymous among thousands of siblings.
//! [`run_fleet`] addresses both on top of the [`crate::sweep`]
//! machinery:
//!
//! - **Resumability.** Every completed run appends one
//!   `<key> <payload>` line to a *manifest* journal and flushes it.
//!   A rerun with the same manifest decodes finished runs from the
//!   journal instead of executing them, so an interrupted fleet
//!   continues where it stopped. A torn final line (the write that was
//!   interrupted) fails to decode and is simply re-executed — the
//!   journal needs no checksums to be crash-safe, because re-running a
//!   deterministic job is always sound.
//! - **Attribution.** Runs execute under `catch_unwind`; survivors keep
//!   going (and still journal), and the collected failures re-raise as
//!   one panic naming each failing run's *key* — not an index into a
//!   shuffled work list.
//!
//! The job is described by a [`FleetJob`]: keying, execution and the
//! journal codec in one place, so the codec cannot drift from the type
//! it encodes.

use crate::sweep::{par_map, unwrap_or_report};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One campaign job: how to key, execute and journal a run.
///
/// Implementations must be deterministic per input — resuming re-uses
/// journaled outputs, so a nondeterministic job would make "resumed"
/// and "executed" fleets diverge.
pub trait FleetJob: Sync {
    /// Per-run parameters (e.g. a seed plus a fault count).
    type Input: Send + Sync;
    /// Per-run result, reconstructible from its journal payload.
    type Output: Send;

    /// Stable journal key for an input. Must be unique across the
    /// fleet and contain no whitespace (it delimits the journal line).
    fn key(&self, input: &Self::Input) -> String;

    /// Executes one run. May panic; the fleet attributes the panic to
    /// [`FleetJob::key`].
    fn run(&self, input: &Self::Input) -> Self::Output;

    /// Encodes an output as a single-line journal payload (no `\n`).
    fn encode(&self, out: &Self::Output) -> String;

    /// Decodes a journal payload. `Err` marks the run incomplete (torn
    /// line, older codec) and the fleet re-executes it.
    fn decode(&self, payload: &str) -> Result<Self::Output, String>;
}

/// What a fleet invocation did, with outputs in input order.
#[derive(Debug)]
pub struct FleetOutcome<O> {
    /// Per-input outputs, index-aligned with the `inputs` vector.
    pub outs: Vec<O>,
    /// Runs reconstructed from the manifest without executing.
    pub resumed: usize,
    /// Runs executed (and journaled) by this invocation.
    pub executed: usize,
}

/// Runs `inputs` through `job` in parallel (bounded by `max_threads`),
/// journaling each completion to `manifest` and resuming any runs the
/// manifest already records. Returns outputs in input order.
///
/// Errors are I/O on the manifest itself; panics inside runs are
/// collected and re-raised naming each failing run's key.
pub fn run_fleet<J: FleetJob>(
    job: &J,
    inputs: &[J::Input],
    manifest: &Path,
    max_threads: usize,
) -> std::io::Result<FleetOutcome<J::Output>> {
    let n = inputs.len();

    // load the journal: last write per key wins, undecodable lines are
    // treated as never-completed
    let mut journal: HashMap<String, String> = HashMap::new();
    match std::fs::read_to_string(manifest) {
        Ok(text) => {
            for line in text.lines() {
                if let Some((k, payload)) = line.split_once(' ') {
                    journal.insert(k.to_string(), payload.to_string());
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    let keys: Vec<String> = inputs
        .iter()
        .map(|i| {
            let k = job.key(i);
            assert!(
                !k.is_empty() && !k.contains(char::is_whitespace),
                "fleet key {k:?} must be non-empty and whitespace-free"
            );
            k
        })
        .collect();
    {
        let mut seen = std::collections::HashSet::new();
        for k in &keys {
            assert!(seen.insert(k), "fleet key {k:?} is not unique across the fleet");
        }
    }

    let mut results: Vec<Option<std::thread::Result<J::Output>>> =
        keys.iter().map(|key| journal.get(key).and_then(|p| job.decode(p).ok()).map(Ok)).collect();
    let pending: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
    let executed = pending.len();
    let resumed = n - executed;

    if !pending.is_empty() {
        if let Some(dir) = manifest.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let writer = parking_lot::Mutex::new(
            std::fs::OpenOptions::new().create(true).append(true).open(manifest)?,
        );
        let ran = par_map(executed, max_threads, |p| {
            let i = pending[p];
            let out = job.run(&inputs[i]);
            // journal before publishing: a run only counts as complete
            // once its line is durably appended
            let line = format!("{} {}\n", keys[i], job.encode(&out));
            debug_assert_eq!(line.matches('\n').count(), 1, "payload must be one line");
            let mut w = writer.lock();
            // a failed append is not fatal: the run itself succeeded, so keep
            // its output and let a future resume re-execute it instead
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
            out
        });
        for (&i, r) in pending.iter().zip(ran) {
            results[i] = Some(r);
        }
    }

    let results = results.into_iter().map(|r| r.expect("resumed or executed")).collect();
    let outs = unwrap_or_report(results, "fleet", "runs", |i| format!("run {}", keys[i]));
    Ok(FleetOutcome { outs, resumed, executed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::panic_message;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Doubles its input; counts executions so tests can tell a resumed
    /// run from an executed one.
    struct Doubler {
        ran: AtomicUsize,
        panic_on: Option<u64>,
    }

    impl Doubler {
        fn new() -> Self {
            Doubler { ran: AtomicUsize::new(0), panic_on: None }
        }
    }

    impl FleetJob for Doubler {
        type Input = u64;
        type Output = u64;
        fn key(&self, input: &u64) -> String {
            format!("seed{input}")
        }
        fn run(&self, input: &u64) -> u64 {
            self.ran.fetch_add(1, Ordering::Relaxed);
            if self.panic_on == Some(*input) {
                panic!("diverged at {input}");
            }
            input * 2
        }
        fn encode(&self, out: &u64) -> String {
            out.to_string()
        }
        fn decode(&self, payload: &str) -> Result<u64, String> {
            payload.parse().map_err(|e| format!("bad payload: {e}"))
        }
    }

    fn tmp_manifest(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ftr-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn runs_everything_then_resumes_everything() {
        let m = tmp_manifest("full.txt");
        let inputs: Vec<u64> = (0..20).collect();
        let job = Doubler::new();
        let first = run_fleet(&job, &inputs, &m, 4).unwrap();
        assert_eq!(first.outs, (0..20).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!((first.resumed, first.executed), (0, 20));
        assert_eq!(job.ran.load(Ordering::Relaxed), 20);

        let job2 = Doubler::new();
        let second = run_fleet(&job2, &inputs, &m, 4).unwrap();
        assert_eq!(second.outs, first.outs);
        assert_eq!((second.resumed, second.executed), (20, 0));
        assert_eq!(job2.ran.load(Ordering::Relaxed), 0, "resume must not re-run");
    }

    #[test]
    fn partial_journal_runs_only_the_remainder() {
        let m = tmp_manifest("partial.txt");
        std::fs::write(&m, "seed0 0\nseed3 6\n").unwrap();
        let inputs: Vec<u64> = (0..6).collect();
        let job = Doubler::new();
        let out = run_fleet(&job, &inputs, &m, 2).unwrap();
        assert_eq!(out.outs, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!((out.resumed, out.executed), (2, 4));
        assert_eq!(job.ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn torn_final_line_is_reexecuted_not_fatal() {
        let m = tmp_manifest("torn.txt");
        // a crash mid-append leaves a key with a truncated payload — and
        // possibly no payload separator at all
        std::fs::write(&m, "seed0 0\nseed1 2x\nseed2\n").unwrap();
        let inputs: Vec<u64> = (0..3).collect();
        let job = Doubler::new();
        let out = run_fleet(&job, &inputs, &m, 2).unwrap();
        assert_eq!(out.outs, vec![0, 2, 4]);
        assert_eq!((out.resumed, out.executed), (1, 2));
        // the journal now has good lines for the re-run keys; a second
        // resume executes nothing
        let job2 = Doubler::new();
        let again = run_fleet(&job2, &inputs, &m, 2).unwrap();
        assert_eq!((again.resumed, again.executed), (3, 0));
    }

    #[test]
    fn panics_are_attributed_to_keys_and_survivors_journal() {
        let m = tmp_manifest("panic.txt");
        let inputs: Vec<u64> = (0..8).collect();
        let mut job = Doubler::new();
        job.panic_on = Some(5);
        let res = catch_unwind(AssertUnwindSafe(|| run_fleet(&job, &inputs, &m, 2)));
        let msg = panic_message(res.expect_err("must propagate").as_ref());
        assert!(msg.contains("1 of 8 runs panicked"), "got: {msg}");
        assert!(msg.contains("run seed5: diverged at 5"), "got: {msg}");
        // the 7 survivors journaled; a resume runs only the failed seed
        let job2 = Doubler::new();
        let out = run_fleet(&job2, &inputs, &m, 2).unwrap();
        assert_eq!((out.resumed, out.executed), (7, 1));
        assert_eq!(out.outs, (0..8).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "not unique")]
    fn duplicate_keys_are_rejected() {
        let m = tmp_manifest("dup.txt");
        struct Const;
        impl FleetJob for Const {
            type Input = u64;
            type Output = u64;
            fn key(&self, _: &u64) -> String {
                "same".into()
            }
            fn run(&self, i: &u64) -> u64 {
                *i
            }
            fn encode(&self, o: &u64) -> String {
                o.to_string()
            }
            fn decode(&self, p: &str) -> Result<u64, String> {
                p.parse().map_err(|_| "bad".into())
            }
        }
        let _ = run_fleet(&Const, &[1, 2], &m, 1);
    }

    #[test]
    fn empty_fleet_is_a_noop() {
        let m = tmp_manifest("empty.txt");
        let out = run_fleet(&Doubler::new(), &[], &m, 4).unwrap();
        assert!(out.outs.is_empty());
        assert_eq!((out.resumed, out.executed), (0, 0));
        assert!(!m.exists(), "no journal is created for an empty fleet");
    }
}

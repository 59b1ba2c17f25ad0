//! Parallel parameter sweeps.
//!
//! Latency-throughput curves need one independent simulation per offered
//! load; sweeps fan the runs out over scoped OS threads (each simulation
//! is single-threaded and deterministic for its seed, so results are
//! reproducible regardless of scheduling).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Parallel map over `0..n`: runs `job(i)` for every index on up to
/// `max_threads` scoped workers and returns each job's
/// [`std::thread::Result`] in index order. Every job runs under
/// `catch_unwind`, so one panicking index never cancels the others.
pub(crate) fn par_map<O, F>(n: usize, max_threads: usize, job: F) -> Vec<std::thread::Result<O>>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    // one lock per output slot: writers never contend with each other (each
    // index is claimed by exactly one worker), unlike a single global mutex
    // around the whole result vector which serialises every store
    let slots: Vec<Mutex<Option<std::thread::Result<O>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // indices are handed out through a shared atomic cursor (Relaxed is
    // enough: fetch_add is an atomic RMW, so every index is claimed exactly
    // once, and the scope join publishes the slot writes)
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..max_threads.max(1).min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| job(i)));
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            let slot = s.into_inner().unwrap_or_else(PoisonError::into_inner);
            slot.expect("every index ran before the join")
        })
        .collect()
}

/// Unwraps index-aligned job results, or re-raises every failure as one
/// panic of the form `"{what}: k of n {noun} panicked — {name(i)}: payload; …"`.
pub(crate) fn unwrap_or_report<O>(
    results: Vec<std::thread::Result<O>>,
    what: &str,
    noun: &str,
    name: impl Fn(usize) -> String,
) -> Vec<O> {
    let n = results.len();
    let mut outs = Vec::with_capacity(n);
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(o) => outs.push(o),
            Err(payload) => {
                failures.push(format!("{}: {}", name(i), panic_message(payload.as_ref())))
            }
        }
    }
    if !failures.is_empty() {
        panic!("{what}: {} of {n} {noun} panicked — {}", failures.len(), failures.join("; "));
    }
    outs
}

/// Runs `job` for every element of `inputs` in parallel (bounded by
/// `max_threads`) and returns the results in input order.
///
/// Each job runs under `catch_unwind`, so one panicking input no longer
/// aborts the whole scope with an anonymous "sweep worker panicked": every
/// remaining job still runs, and the collected failures are re-raised as a
/// single panic naming each failing input index and its payload — campaign
/// failures are attributable to the exact (parameter, seed) cell.
pub fn run_sweep<I, O, F>(inputs: Vec<I>, max_threads: usize, job: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let results = par_map(inputs.len(), max_threads, |i| job(&inputs[i]));
    unwrap_or_report(results, "sweep", "jobs", |i| format!("input index {i}"))
}

/// Default sweep parallelism: the machine's logical CPU count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Worker-thread count for the sweep, campaign and fleet pools: the
/// `FTR_THREADS` environment variable when set to a positive integer, else
/// [`default_threads`]. Lets CI and shared machines pin parallelism without
/// touching every call site.
pub fn worker_count() -> usize {
    std::env::var("FTR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = run_sweep((0..100).collect(), 8, |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let out = run_sweep(vec![1, 2, 3], 1, |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_sweep(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_sweep(vec![7], 64, |&x: &i32| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    #[should_panic(expected = "input index 7")]
    fn panicking_job_is_attributed_to_its_input_index() {
        run_sweep((0..16).collect(), 4, |&x: &i32| {
            if x == 7 {
                panic!("bad cell");
            }
            x
        });
    }

    #[test]
    fn panic_message_names_every_failure_and_payload() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_sweep((0..8).collect(), 2, |&x: &i32| {
                if x % 4 == 1 {
                    panic!("seed {x} diverged");
                }
                x
            })
        }));
        let msg = panic_message(res.expect_err("must propagate").as_ref());
        assert!(msg.contains("2 of 8 jobs panicked"), "got: {msg}");
        assert!(msg.contains("input index 1: seed 1 diverged"), "got: {msg}");
        assert!(msg.contains("input index 5: seed 5 diverged"), "got: {msg}");
    }

    #[test]
    fn worker_count_respects_env_override() {
        // mutating the process environment is global: serialize through
        // the workspace-wide env lock, which also restores the pre-test
        // value of FTR_THREADS on drop (even on panic)
        let mut env = crate::envlock::EnvGuard::new();
        env.set("FTR_THREADS", "3");
        assert_eq!(worker_count(), 3);
        env.set("FTR_THREADS", " 5 ");
        assert_eq!(worker_count(), 5, "whitespace-tolerant");
        env.set("FTR_THREADS", "0");
        assert_eq!(worker_count(), default_threads(), "zero falls back");
        env.set("FTR_THREADS", "lots");
        assert_eq!(worker_count(), default_threads(), "garbage falls back");
        env.remove("FTR_THREADS");
        assert_eq!(worker_count(), default_threads());
    }

    #[test]
    fn surviving_jobs_still_run_when_one_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_sweep((0..32).collect(), 4, |&x: &i32| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("early failure");
                }
                x
            })
        }));
        assert!(res.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 32, "a panic must not cancel the sweep");
    }
}

//! # ftr-ledger — the cost ledger
//!
//! One benchmark for end-to-end speed and the per-layer cost of a simulated
//! cycle. It stands outside the repository's workspace and measures every
//! layer from outside: it times calls into public functions and wraps the
//! public traits (`RoutingAlgorithm`/`NodeController`, `TraceSink`,
//! `InterpProbe`) in timing shims ([`shims`]). `README.md` beside this
//! crate defines the workloads and metrics; `BENCHMARK.json` at the
//! repository root names them for the PR driver.

pub mod compare;
pub mod micro;
pub mod report;
pub mod run;
pub mod schedule;
pub mod shims;
pub mod spans;
pub mod stats;
pub mod workloads;

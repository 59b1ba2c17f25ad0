//! Shared harness for the bench binaries.
//!
//! Every `crates/bench/src/bin/*.rs` used to open with the same dozen
//! lines: hand-rolled `std::env::args` parsing, an ad-hoc `--smoke`
//! check, an `available_parallelism` lookup and a `write_json` +
//! `"wrote …"` tail. This module owns those pieces once, so an
//! E-experiment definition stays a one-screen description of *what* is
//! measured: parse [`Args`], size the run with [`Args::smoke`] /
//! [`threads`], offer load with [`drive`], and finish with [`export`].

use ftr_sim::{Network, TrafficSource};
use std::path::PathBuf;
use std::str::FromStr;

/// Parsed command line: the `--smoke` flag plus typed positional
/// arguments, in the order they appeared.
pub struct Args {
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments. `--smoke` may appear anywhere;
    /// everything else is positional.
    pub fn parse() -> Self {
        let mut smoke = false;
        let mut positional = Vec::new();
        for a in std::env::args().skip(1) {
            if a == "--smoke" {
                smoke = true;
            } else {
                positional.push(a);
            }
        }
        Args { smoke, positional }
    }

    /// True when `--smoke` was passed: CI-sized runs.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The `idx`-th positional argument parsed as `T`, or `default` when
    /// absent. A present-but-malformed argument aborts with a message
    /// naming the argument instead of silently running the default
    /// configuration (`what` names the parameter in that message).
    pub fn pos<T: FromStr>(&self, idx: usize, what: &str, default: T) -> T {
        match self.positional.get(idx) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| panic!("argument {} ({what}): cannot parse {raw:?}", idx + 1)),
        }
    }
}

/// Worker parallelism for sweeps and the sharded engine: the
/// `FTR_THREADS` override when set, else the machine's logical CPU
/// count (see [`ftr_sim::worker_count`]).
pub fn threads() -> usize {
    ftr_sim::worker_count()
}

/// Offers load for `cycles` cycles: ticks `tf` against the engine's own
/// topology and fault view, injects every generated message, and steps.
///
/// Rejected sends are dropped, not fatal: sources race scripted faults,
/// and an injection the network refuses is simply load not offered (the
/// engine counts it in `rejected_sends`). Drivers that need a drain run
/// it themselves — budgets differ per experiment.
pub fn drive(net: &mut Network, tf: &mut TrafficSource, cycles: u64) {
    for _ in 0..cycles {
        for (src, dst, len) in tf.tick(net.topo(), net.faults()) {
            let _ = net.send(src, dst, len);
        }
        net.step();
    }
}

/// Validates and writes `payload` to `<results-dir>/<name>.json` (see
/// [`crate::results::write_json`]) and prints the canonical
/// `wrote <path>` line every bin used to hand-format.
pub fn export(name: &str, payload: &str) -> PathBuf {
    let path = crate::results::write_json(name, payload).expect("write results");
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_algos::XyRouting;
    use ftr_sim::Pattern;
    use ftr_topo::Mesh2D;
    use std::sync::Arc;

    #[test]
    fn pos_defaults_and_parses() {
        let args = Args { smoke: true, positional: vec!["42".into(), "0.25".into()] };
        assert!(args.smoke());
        assert_eq!(args.pos::<u64>(0, "seed", 7), 42);
        assert_eq!(args.pos::<f64>(1, "load", 0.1), 0.25);
        assert_eq!(args.pos::<usize>(2, "missing", 9), 9);
    }

    #[test]
    #[should_panic(expected = "argument 1 (seed)")]
    fn pos_rejects_malformed() {
        let args = Args { smoke: false, positional: vec!["not-a-number".into()] };
        args.pos::<u64>(0, "seed", 7);
    }

    #[test]
    fn drive_offers_load_through_the_engine() {
        let mesh = Mesh2D::new(4, 4);
        let mut net = Network::builder(Arc::new(mesh.clone()))
            .build(&XyRouting::new(mesh))
            .expect("valid config");
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.3, 4, 5);
        drive(&mut net, &mut tf, 200);
        assert!(net.drain(10_000));
        assert!(net.stats.injected_msgs > 0, "traffic flowed");
        assert!(net.stats.accounting_balanced());
    }
}

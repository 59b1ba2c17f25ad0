//! The traced campaign cell the optimizer differential (`opt_sim.rs`)
//! compares: one [`DIFFERENTIAL`] run with a digest of its event stream.

use ftr_bench::campaign::{self, Spec, DIFFERENTIAL};
use ftr_obs::{TraceEvent, TraceSink};
use ftr_sim::{RoutingAlgorithm, SimStats};
use std::sync::{Arc, Mutex};

/// Order-sensitive digest of the trace stream: every event folds its
/// debug rendering into an FNV-1a accumulator, so two runs compare whole
/// streams without buffering them (a campaign run emits far too many
/// events to retain).
struct DigestSink(Mutex<(u64, u64)>); // (fnv-1a hash, event count)

impl TraceSink for DigestSink {
    fn record(&self, ev: &TraceEvent) {
        let line = format!("{ev:?}");
        let mut g = self.0.lock().unwrap();
        for b in line.as_bytes() {
            g.0 = (g.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        g.1 += 1;
    }
}

/// One campaign cell at load 0.15, traced: the final stats and the trace
/// digest.
pub fn campaign_run(
    algo: &dyn RoutingAlgorithm,
    faults: usize,
    seed: u64,
) -> (SimStats, (u64, u64)) {
    let sink = Arc::new(DigestSink(Mutex::new((0xcbf2_9ce4_8422_2325, 0))));
    let spec = Spec { seed, faults, load: 0.15 };
    let label = format!("{}_f{faults}_s{seed}", algo.name());
    let run = campaign::run(&DIFFERENTIAL, &spec, &label, algo, vec![sink.clone()]);
    let digest = *sink.0.lock().unwrap();
    (run.stats, digest)
}

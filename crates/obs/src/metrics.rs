//! Named metrics: counters and histograms behind a shared registry.
//!
//! The registry replaces the per-binary private accounting the bench
//! harness used to hand-roll: a simulation (or several, in a sweep)
//! records into named instruments, and the exporter renders one
//! machine-readable JSON snapshot for `results/`.
//!
//! Handles are cheap clones (`Arc` inside); a hot loop should resolve its
//! instruments once and record through the handles.

use crate::json::{self, Obj};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone counter handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram state: count/sum/min/max plus power-of-two buckets.
#[derive(Clone, Debug, Default)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Minimum (0 when empty).
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// `buckets[i]` counts observations `v` with `⌊log2(v+1)⌋ == i`
    /// (bucket 0 holds v = 0, bucket 1 holds 1–2, bucket 2 holds 3–6, …).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q` quantile (0 ≤ q ≤ 1),
    /// estimated from the log₂ buckets and clamped to the observed maximum
    /// (a single observation of 5 must not report a p99 bound of 6).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                // inclusive upper edge of bucket i, clamped to the true max
                let edge = 1u64.checked_shl(i as u32 + 1).map_or(u64::MAX, |e| e - 2);
                return edge.min(self.max);
            }
        }
        self.max
    }
}

const BUCKETS: usize = 64;

/// Histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<HistSnapshot>>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(Mutex::new(HistSnapshot {
            buckets: vec![0; BUCKETS],
            ..Default::default()
        })))
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let mut h = self.0.lock();
        if h.count == 0 {
            h.min = v;
            h.max = v;
        } else {
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h.count += 1;
        h.sum = h.sum.saturating_add(v);
        // saturating: v == u64::MAX must land in the top bucket, not overflow
        let b = (64 - v.saturating_add(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        h.buckets[b] += 1;
    }

    /// Copy of the current state.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.lock().clone()
    }
}

/// Registry of named instruments.
///
/// Names are free-form; the convention in this workspace is
/// `subsystem.quantity` (`sim.latency`, `interp.steps`). Registering the
/// same name twice returns a handle to the same instrument.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.hists.lock().entry(name.to_string()).or_default().clone()
    }

    /// Counter value, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.lock().get(name).map(Counter::get)
    }

    /// Histogram snapshot, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistSnapshot> {
        self.hists.lock().get(name).map(Histogram::snapshot)
    }

    /// Renders the whole registry as one JSON object:
    /// `{"counters":{...},"histograms":{name:{count,sum,min,max,mean,buckets}}}`.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for (name, c) in self.counters.lock().iter() {
            counters.num(name, c.get());
        }
        let mut hists = Obj::new();
        for (name, h) in self.hists.lock().iter() {
            let s = h.snapshot();
            let mut o = Obj::new();
            o.num("count", s.count)
                .num("sum", s.sum)
                .num("min", s.min)
                .num("max", s.max)
                .float("mean", s.mean());
            // drop the empty tail so exports stay small
            let last = s.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            o.field("buckets", json::array(s.buckets[..last].iter().map(|b| b.to_string())));
            hists.field(name, o.finish());
        }
        let mut root = Obj::new();
        root.field("counters", counters.finish());
        root.field("histograms", hists.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn counters_share_state_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x"), Some(3));
        assert_eq!(r.counter_value("y"), None);
    }

    #[test]
    fn histogram_stats_and_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [0u64, 1, 2, 3, 10, 100] {
            h.observe(v);
        }
        let s = r.histogram_snapshot("lat").unwrap();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 116);
        assert_eq!(s.buckets[0], 1, "v=0 in bucket 0");
        assert_eq!(s.buckets[1], 2, "v=1,2 in bucket 1");
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        assert!(s.quantile_bound(0.5) >= 2);
        assert!(s.quantile_bound(1.0) >= 100 || s.quantile_bound(1.0) == s.max);
    }

    #[test]
    fn observe_u64_max_does_not_overflow() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[BUCKETS - 1], 2, "extreme values land in the top bucket");
        assert_eq!(s.quantile_bound(0.99), u64::MAX);
    }

    #[test]
    fn quantile_bound_clamps_to_observed_max() {
        let h = Histogram::default();
        h.observe(5);
        let s = h.snapshot();
        // bucket edge for 5 is 6; the true maximum is 5
        assert_eq!(s.quantile_bound(0.99), 5);
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(0.25), 0, "low quantile hits bucket 0");
    }

    #[test]
    fn exports_parse() {
        let r = MetricsRegistry::new();
        r.counter("sim.delivered").add(7);
        r.histogram("sim.latency").observe(12);
        let j = r.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"sim.delivered\":7"));
        assert!(j.contains("\"sim.latency\":{\"count\":1,\"sum\":12,\"min\":12,\"max\":12"), "{j}");
    }
}

//! The one online count/sum/min/max accumulator: the engine's `SimStats`
//! keeps its latencies, hops and decision steps in it, and the trace
//! analysis folds the same quantities back out of a capture into it, so
//! the two compare field for field.

/// Online count/sum/min/max accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accum {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Minimum (0 if empty).
    pub min: u64,
    /// Maximum (0 if empty).
    pub max: u64,
}

impl Accum {
    /// Adds a sample.
    #[inline]
    pub fn add(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Arithmetic mean (0 if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

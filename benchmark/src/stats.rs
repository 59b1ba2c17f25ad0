//! Sample statistics used by the report and by `compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the PR driver computes over
//! the benchmark's outputs: the spread this crate prints is the spread the
//! driver will see.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method; a single sample is
/// its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    // Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - 4j,
    // result = (v[j-1]*(4-delta) + v[j]*delta)/4 (extrapolates at the ends)
    let at = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - 4 * j) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile (`p` in 0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Count + total + log2 histogram of a hot boundary's call durations.
#[derive(Clone, Debug)]
pub struct Hot {
    /// Calls observed.
    pub calls: u64,
    /// Sum of measured durations, clock cost included.
    pub ns: u64,
    /// `hist[b]` counts durations with `floor(log2(ns)) == b` (0 ns in
    /// bucket 0).
    pub hist: [u64; 40],
}

impl Default for Hot {
    fn default() -> Self {
        Hot { calls: 0, ns: 0, hist: [0; 40] }
    }
}

impl Hot {
    /// Records one call.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        let b = (63 - ns.max(1).leading_zeros()) as usize;
        self.hist[b.min(39)] += 1;
    }

    /// Percentile from the histogram, as the geometric middle of the
    /// bucket holding the nearest-rank sample (0 when empty).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.calls as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << b) as f64 * std::f64::consts::SQRT_2;
            }
        }
        unreachable!("histogram counts sum to calls")
    }
}

/// 64-bit FNV-1a over a stream of words; the digest printed per workload.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

//! Lock-free metric primitives for the service layer.
//!
//! Three shapes, mirroring the Prometheus data model the `/metrics`
//! endpoint of `cp-serve` renders:
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a signed value that can go up and down (queue depths);
//! * [`Histogram`] — a fixed-bucket latency histogram with a running sum
//!   and count, rendered as Prometheus cumulative `_bucket` lines.
//!
//! All three are internally atomic so hot paths never take a lock; a
//! `&Counter` can be bumped from any number of worker threads. Snapshots
//! are taken with relaxed loads — metrics are statistics, not
//! synchronization.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move in both directions (e.g. a queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n`, which may be negative.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger — a running maximum
    /// (e.g. the worst stall observed since start).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of microsecond observations.
///
/// Buckets store per-bucket (non-cumulative) counts; [`Histogram::snapshot`]
/// converts to the cumulative form Prometheus expects. The final implicit
/// `+Inf` bucket catches observations beyond the last bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    bounds: &'static [u64],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with static bucket upper bounds (must be
    /// ascending).
    pub fn with_bounds(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        // One extra slot for +Inf.
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { buckets, bounds, sum: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    /// Records one observation of `micros`.
    pub fn observe(&self, micros: u64) {
        let idx = self.bounds.partition_point(|&b| b < micros);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper_bound_micros, count ≤ bound)` pairs; the final
    /// entry is `(u64::MAX, total)`, standing in for `+Inf`.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, cumulative));
        }
        out
    }

    /// An approximate quantile (0.0 ≤ q ≤ 1.0) in microseconds, by linear
    /// interpolation inside the owning bucket. Exact sample-based
    /// percentiles belong to the client (the load generator keeps raw
    /// samples); this is the server-side estimate.
    pub fn quantile_micros(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        let mut lower = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if cumulative + n >= rank {
                let upper = self.bounds.get(i).copied().unwrap_or(lower.saturating_mul(2).max(1));
                let into = (rank - cumulative) as f64 / n.max(1) as f64;
                return lower as f64 + into * (upper.saturating_sub(lower)) as f64;
            }
            cumulative += n;
            lower = self.bounds.get(i).copied().unwrap_or(lower);
        }
        lower as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [5, 7, 50, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_micros(), 5562);
        let snap = h.snapshot();
        assert_eq!(snap, vec![(10, 2), (100, 3), (1000, 4), (u64::MAX, 5)]);
    }

    #[test]
    fn boundary_value_lands_in_its_bucket() {
        // Prometheus buckets are `le` (≤): an observation equal to the
        // bound belongs to that bucket.
        let h = Histogram::with_bounds(&[10, 100]);
        h.observe(10);
        assert_eq!(h.snapshot()[0], (10, 1));
    }

    /// Log-spaced from 100 µs to 10 s.
    const WIDE_BOUNDS: [u64; 14] = [
        100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
        2_500_000, 10_000_000,
    ];

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::with_bounds(&WIDE_BOUNDS);
        for v in 1..=1000u64 {
            h.observe(v * 10);
        }
        let p50 = h.quantile_micros(0.50);
        let p95 = h.quantile_micros(0.95);
        let p99 = h.quantile_micros(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 > 1000.0 && p99 <= 10_000_000.0);
        assert_eq!(Histogram::with_bounds(&WIDE_BOUNDS).quantile_micros(0.5), 0.0);
    }

    #[test]
    fn concurrent_observations_all_counted() {
        let h = std::sync::Arc::new(Histogram::with_bounds(&WIDE_BOUNDS));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}

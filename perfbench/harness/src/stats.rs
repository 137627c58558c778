//! Order statistics with the sample-count rule the benchmark reports by:
//! a percentile is only quoted when at least ten samples lie beyond it.

/// Percentiles the benchmark may quote, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is trusted.
pub const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `pct`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * pct / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile on [`LADDER`] that has at least [`MIN_BEYOND`]
/// samples above it, given `n` samples. `None` when even the median has
/// fewer than ten beyond it (fewer than 20 samples).
pub fn max_reliable_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|pct| n as f64 * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `pct` percentile within each window of `(window, value)` samples,
/// then the median over windows — a stall confined to a few windows moves
/// it little. Windows with fewer than 20 samples are skipped; when no
/// window has 20 (a short run of a rare route), the samples are pooled.
pub fn windowed(samples: &[(u32, u64)], pct: f64) -> f64 {
    let mut by_window: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for &(window, value) in samples {
        by_window.entry(window).or_default().push(value);
    }
    let per_window: Vec<f64> = by_window
        .into_values()
        .filter(|values| values.len() >= 20)
        .filter_map(|mut values| {
            values.sort_unstable();
            percentile(&values, pct).map(|v| v as f64)
        })
        .collect();
    if per_window.is_empty() {
        let mut pooled: Vec<u64> = samples.iter().map(|&(_, value)| value).collect();
        pooled.sort_unstable();
        return percentile(&pooled, pct).map_or(0.0, |v| v as f64);
    }
    median(&per_window)
}

/// Which of `n` segments form the quieter half (`ceil(n/2)` of them): the
/// least host steal during the segment first, then the fastest speed
/// sample taken just before it. `steal[i]` and `speed[i]` describe
/// segment `i`.
pub fn quieter_half(steal: &[u64], speed: &[u64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], speed.get(i).copied().unwrap_or(0), i));
    let mut keep = vec![false; steal.len()];
    for &i in order.iter().take(steal.len().div_ceil(2)) {
        keep[i] = true;
    }
    keep
}

/// Summary of one timing series, as printed in the run's detail line.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Samples taken.
    pub samples: usize,
    /// Median.
    pub p50: u64,
    /// 99th percentile (quoted even when unreliable; see `reliable_pct`).
    pub p99: u64,
    /// Highest percentile with at least ten samples beyond it.
    pub reliable_pct: Option<f64>,
    /// The value at `reliable_pct`.
    pub reliable_value: Option<u64>,
}

impl Timing {
    /// Summarizes `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> Timing {
        samples.sort_unstable();
        let reliable_pct = max_reliable_percentile(samples.len());
        Timing {
            samples: samples.len(),
            p50: percentile(samples, 50.0).unwrap_or(0),
            p99: percentile(samples, 99.0).unwrap_or(0),
            reliable_pct,
            reliable_value: reliable_pct.and_then(|pct| percentile(samples, pct)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 99.0), Some(99));
        assert_eq!(percentile(&samples, 100.0), Some(100));
        assert_eq!(percentile(&samples, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn reliable_percentile_needs_ten_samples_beyond() {
        assert_eq!(max_reliable_percentile(0), None);
        assert_eq!(max_reliable_percentile(19), None);
        assert_eq!(max_reliable_percentile(20), Some(50.0));
        assert_eq!(max_reliable_percentile(99), Some(50.0));
        assert_eq!(max_reliable_percentile(100), Some(90.0));
        assert_eq!(max_reliable_percentile(999), Some(90.0));
        assert_eq!(max_reliable_percentile(1_000), Some(99.0));
        assert_eq!(max_reliable_percentile(10_000), Some(99.9));
        assert_eq!(max_reliable_percentile(100_000), Some(99.99));
        assert_eq!(max_reliable_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn timing_reports_count_and_reliable_tail() {
        let mut samples: Vec<u64> = (1..=1_000).rev().collect();
        let t = Timing::of(&mut samples);
        assert_eq!(t.samples, 1_000);
        assert_eq!((t.p50, t.p99), (500, 990));
        assert_eq!((t.reliable_pct, t.reliable_value), (Some(99.0), Some(990)));
        let t = Timing::of(&mut [5, 1, 3]);
        assert_eq!((t.samples, t.p50, t.reliable_pct, t.reliable_value), (3, 3, None, None));
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        // Three windows of 100 samples; the middle one stalled.
        let mut samples = Vec::new();
        for window in 0..3u32 {
            let shift = if window == 1 { 10_000 } else { 0 };
            samples.extend((1..=100).map(|v| (window, v + shift + window as u64)));
        }
        assert_eq!(windowed(&samples, 50.0), 52.0, "window 2's p50; the stall is outvoted");
        assert_eq!(windowed(&samples, 99.0), 101.0);
        // Sparse windows are skipped rather than trusted…
        samples.push((9, 1_000_000));
        assert_eq!(windowed(&samples, 50.0), 52.0);
        assert_eq!(windowed(&[], 50.0), 0.0);
        // …unless every window is sparse.
        assert_eq!(windowed(&[(0, 5), (1, 7), (2, 6)], 50.0), 6.0);
    }

    #[test]
    fn quieter_half_ranks_by_steal_then_speed() {
        // Segment 1 lost the most to the host; 0 and 3 none, 2 a little.
        let steal = [0, 40, 3, 0];
        let speed = [30_000, 20_000, 20_000, 25_000];
        assert_eq!(quieter_half(&steal, &speed), vec![true, false, false, true]);
        assert_eq!(
            quieter_half(&[5, 1, 9], &[0, 0, 0]),
            vec![true, true, false],
            "odd counts keep the larger half"
        );
        assert!(quieter_half(&[], &[]).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

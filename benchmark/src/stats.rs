//! The arithmetic the reported numbers rest on.

/// Samples beyond a reported percentile below which it is not reported.
pub const TAIL_SAMPLES: usize = 10;

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sorted sample (mean of the two middle values when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of a sorted sample, lowered to the
/// highest percentile that still has [`TAIL_SAMPLES`] samples beyond it.
/// Returns the value and the percentile actually reported.
pub fn tail_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(TAIL_SAMPLES).max(1);
    let rank = wanted.min(supported);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// The `p`-th percentile of a time-ordered sample as the median over
/// consecutive blocks of at least `block` samples, each block reported by
/// [`tail_percentile`]: a burst of outside interference then spoils one
/// block, not the number. Fewer than two blocks' worth is one block.
/// Returns the value and the lowest percentile any block reported.
pub fn blockwise_tail_percentile(samples: &[f64], p: f64, block: usize) -> (f64, f64) {
    let blocks = (samples.len() / block).max(1);
    let per_block = samples.len().div_ceil(blocks);
    let tails: Vec<(f64, f64)> =
        samples.chunks(per_block).map(|chunk| tail_percentile(&sorted(chunk.to_vec()), p)).collect();
    let reported = tails.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
    (median(&sorted(tails.iter().map(|t| t.0).collect())), reported)
}

/// First and third quartile of a sorted sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's spread).
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Pool the samples of several runs, leaving out the first `discard` of
/// each run (cold caches, pipeline filling).
pub fn pool_after_warmup(runs: &[Vec<f64>], discard: usize) -> Vec<f64> {
    runs.iter().flat_map(|run| run.iter().skip(discard).copied()).collect()
}

/// A reported number with the sample it came from.
#[derive(Clone, Debug)]
pub struct Summary {
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A count or a single measurement: no spread.
    pub fn single(value: f64) -> Summary {
        Summary { value, samples: 1, q1: value, q3: value }
    }

    /// The median of `values` with its quartiles.
    pub fn median_of(values: Vec<f64>) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles(&s);
        Summary { value: median(&s), samples: s.len(), q1, q3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
        assert_eq!(median(&sorted(vec![9.0, 1.0, 5.0])), 5.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // 1,000 samples: rank 990 has exactly ten beyond it.
        let (v, p) = tail_percentile(&ramp(1000), 0.99);
        assert_eq!((v, p), (990.0, 0.99));
        // 999 samples: p99 would be rank 990 with nine beyond; lowered.
        let (v, p) = tail_percentile(&ramp(999), 0.99);
        assert_eq!(v, 989.0);
        assert!(p < 0.99);
        // 5,000 samples: p99 is rank 4,950, plenty beyond.
        assert_eq!(tail_percentile(&ramp(5000), 0.99).0, 4950.0);
        // The median is untouched by the rule once 20 samples exist.
        assert_eq!(tail_percentile(&ramp(20), 0.5), (10.0, 0.5));
        // Tiny samples fall back to the smallest value, never panic.
        assert_eq!(tail_percentile(&ramp(5), 0.99).0, 1.0);
    }

    #[test]
    fn blockwise_tail_shrugs_off_one_bad_stretch() {
        // Three blocks of 200; the middle one was disturbed.
        let mut samples = ramp(200);
        samples.extend(ramp(200).iter().map(|v| v * 50.0));
        samples.extend(ramp(200));
        assert_eq!(blockwise_tail_percentile(&samples, 0.95, 200), (190.0, 0.95));
        // Pooled, the disturbed stretch would own the tail.
        assert!(tail_percentile(&sorted(samples.clone()), 0.95).0 > 8_000.0);
        // Under two blocks' worth: one block, the plain rule.
        assert_eq!(blockwise_tail_percentile(&ramp(399), 0.95, 200).0, 380.0);
        // Too few for ten beyond p95: a lower percentile, and it says so.
        let (v, p) = blockwise_tail_percentile(&ramp(100), 0.95, 200);
        assert_eq!(v, 90.0);
        assert!(p < 0.95);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn pooling_discards_the_head_of_every_run() {
        let runs = vec![ramp(12), vec![100.0, 200.0], ramp(11)];
        let pooled = pool_after_warmup(&runs, 10);
        assert_eq!(pooled, vec![11.0, 12.0, 11.0]);
        assert_eq!(pool_after_warmup(&runs, 0).len(), 25);
    }

    #[test]
    fn summary_carries_count_and_quartiles() {
        let s = Summary::median_of(ramp(10));
        assert_eq!((s.value, s.samples, s.q1, s.q3), (5.5, 10, 2.75, 8.25));
        let c = Summary::single(4.0);
        assert_eq!((c.value, c.samples, c.q1, c.q3), (4.0, 1, 4.0, 4.0));
    }
}

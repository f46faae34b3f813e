//! Exact order statistics over raw samples: nearest-rank percentiles
//! for latencies, and the quartile rule the repeatability report uses.

/// A percentile is reported only when at least this many samples lie
/// beyond its rank; with fewer, the tail is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, with the
/// percentile given in per-mille (500 = p50, 990 = p99): the smallest
/// sample with at least that share of samples at or below it. Integer
/// rank arithmetic, so p99 of 1000 samples is exactly rank 990.
///
/// Returns the value and the number of samples beyond its rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn nearest_rank(sorted: &[f64], per_mille: usize) -> Option<(f64, usize)> {
    assert!((1..=1000).contains(&per_mille), "per_mille={per_mille}");
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).max(1);
    let beyond = n.checked_sub(rank)?;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// The nearest-rank percentile (per mille) of each of the
/// `samples.len() / block` consecutive, near-equal blocks `samples`
/// splits into (every block at least `block` long), and the median of
/// those per-block values. Returns it with the number of blocks, or
/// `None` when a block has fewer than [`MIN_BEYOND`] samples beyond its
/// percentile or there is no full block.
///
/// A host stall in a shared VM lands in one or two blocks and leaves
/// the median block alone, where it would shift a percentile taken
/// over the whole window.
pub fn block_percentile(samples: &[f64], block: usize, per_mille: usize) -> Option<(f64, usize)> {
    let n = samples.len();
    let blocks = n / block.max(1);
    let per_block: Option<Vec<f64>> = (0..blocks)
        .map(|i| {
            let part = &samples[i * n / blocks..(i + 1) * n / blocks];
            nearest_rank(&sorted(part.to_vec()), per_mille).map(|(v, _)| v)
        })
        .collect();
    let per_block = per_block.filter(|v| !v.is_empty())?;
    Some((median(&per_block), blocks))
}

/// Sorts samples ascending (total order; the benchmark never records
/// NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of any number of values (mean of the middle pair for an
/// even count), for summarising repeated runs.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here are
/// the ones an external check computes from the same values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let v = ramp(1000);
        assert_eq!(nearest_rank(&v, 500), Some((500.0, 500)));
        assert_eq!(nearest_rank(&v, 990), Some((990.0, 10)));
        // An odd count rounds the rank up, never interpolates.
        let v = ramp(101);
        assert_eq!(nearest_rank(&v, 500), Some((51.0, 50)));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(nearest_rank(&ramp(1000), 990), Some((990.0, 10)));
        assert_eq!(nearest_rank(&ramp(999), 990), None);
        assert_eq!(nearest_rank(&ramp(19), 500), None);
        assert_eq!(nearest_rank(&ramp(20), 500), Some((10.0, 10)));
        assert_eq!(nearest_rank(&[], 500), None);
    }

    #[test]
    fn block_percentiles_take_the_median_block() {
        // Three blocks of 1000; the middle one holds a stall.
        let mut v: Vec<f64> = (0..3).flat_map(|_| ramp(1000)).collect();
        v[1000..2000].iter_mut().for_each(|x| *x *= 50.0);
        assert_eq!(block_percentile(&v, 1000, 990), Some((990.0, 3)));
        assert_eq!(block_percentile(&v, 1000, 500), Some((500.0, 3)));
        // Whole-window p99 would read the stall.
        assert_eq!(
            nearest_rank(&sorted(v.clone()), 990).map(|(x, _)| x),
            Some(48_500.0)
        );
        // A remainder is spread over the blocks, never dropped: 2999
        // samples make two blocks of 1499 and 1500.
        v.pop();
        assert_eq!(block_percentile(&v, 1000, 500).map(|(_, k)| k), Some(2));
    }

    #[test]
    fn a_block_percentile_needs_a_full_block_and_ten_beyond() {
        assert_eq!(block_percentile(&ramp(999), 1000, 500), None);
        assert_eq!(block_percentile(&[], 1000, 990), None);
        // Blocks too short for a p99 with ten samples beyond it.
        assert_eq!(block_percentile(&ramp(1000), 500, 990), None);
        assert_eq!(block_percentile(&ramp(1000), 1000, 990), Some((990.0, 1)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

//! The benchmark's statistics: nearest-rank percentiles, the rule that
//! picks the highest percentile a sample supports, and the quartile spread
//! the steadiness check reports.

/// The `q`-th percentile (`0 < q <= 100`) of `sorted` by the nearest-rank
/// method: the smallest sample with at least `q`% of the samples at or
/// below it. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    // ceil(q% of n) in integer parts per million, so that 99.9% of 20000
    // is rank 19980 and not the 19981 that floating point rounds to.
    let ppm = (q * 1e4).round() as u128;
    let rank = (ppm * sorted.len() as u128).div_ceil(1_000_000) as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly greater than `value`.
pub fn samples_beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// The fewest samples that must lie beyond a percentile before it is
/// reported: below that, the percentile is just one of the largest samples.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th nearest-rank percentile of `sorted`, only while at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).filter(|&value| samples_beyond(sorted, value) >= MIN_BEYOND)
}

/// The highest of `candidates` (percentiles, any order) that `sorted`
/// supports, with its value.
pub fn highest_supported(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    let mut ordered = candidates.to_vec();
    ordered.sort_by(|a, b| b.total_cmp(a));
    ordered
        .into_iter()
        .find_map(|q| supported_percentile(sorted, q).map(|value| (q, value)))
}

/// Sorts a sample for the percentile functions.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a sample (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values.to_vec());
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`), which the steadiness
/// check must reproduce exactly. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and the quartile spread as a share of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(q3 - q1) / median`; infinite when the median is zero.
    pub relative: f64,
}

/// The [`Spread`] of a sample of at least two values.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let median = median(values)?;
    let (q1, q3) = quartiles(values)?;
    let relative = if median == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / median.abs()
    };
    Some(Spread {
        median,
        q1,
        q3,
        relative,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let data = one_to(100);
        assert_eq!(nearest_rank(&data, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&data, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&data, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&data, 0.5), Some(1.0));
        // 5 samples: p50 is rank ceil(2.5) = 3; p99 is rank 5.
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 50.0), Some(30.0));
        assert_eq!(nearest_rank(&five, 99.0), Some(50.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&five, 0.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 = 990, with 10 samples (991..=1000) beyond.
        let data = one_to(1000);
        assert_eq!(samples_beyond(&data, 990.0), 10);
        assert_eq!(supported_percentile(&data, 99.0), Some(990.0));
        // 999 samples: p99 = rank 990, only 9 beyond -> unsupported.
        let data = one_to(999);
        assert_eq!(supported_percentile(&data, 99.0), None);
        // Ties at the percentile do not count as beyond it.
        let mut tied = vec![1.0; 995];
        tied.extend(std::iter::repeat_n(2.0, 5));
        assert_eq!(supported_percentile(&tied, 50.0), None);
    }

    #[test]
    fn highest_supported_walks_down_the_candidates() {
        let candidates = [50.0, 99.9, 99.0, 90.0];
        let data = one_to(20_000);
        assert_eq!(
            highest_supported(&data, &candidates),
            Some((99.9, 19_980.0))
        );
        let data = one_to(1_500);
        assert_eq!(highest_supported(&data, &candidates), Some((99.0, 1_485.0)));
        let data = one_to(50);
        assert_eq!(highest_supported(&data, &candidates), Some((50.0, 25.0)));
        assert_eq!(highest_supported(&one_to(15), &candidates), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = spread(&one_to(10)).unwrap();
        assert_eq!(s.median, 5.5);
        assert!((s.relative - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}

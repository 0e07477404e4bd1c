//! The seeded request mix of the `serve-hot` workload: a Zipf distribution
//! over the request kinds. No trace of real `/simulate` traffic exists, so
//! the shape is an assumption: the classic Zipf law with exponent 1, which
//! gives a few popular kinds and a long tail. The popularity order is a
//! fixed shuffle of the kinds, unrelated to their cost and to the seed, so
//! that every seed asks for the same amount of work and only the order of
//! the requests changes with it.

/// SplitMix64: a small, well-mixed generator that needs no dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf exponent of the mix: the `r`-th most popular kind is drawn with
/// weight `1 / r`.
pub const EXPONENT: f64 = 1.0;

/// A sequence of `len` kind indices in `0..kinds`, Zipf-distributed with
/// kind `r` the `r + 1`-th most popular. The same `(kinds, len, seed)`
/// always yields the same sequence.
pub fn zipf_mix(kinds: usize, len: usize, seed: u64) -> Vec<usize> {
    assert!(kinds > 0, "a mix needs at least one kind");
    let mut rng = SplitMix64::new(seed);
    let mut cdf = Vec::with_capacity(kinds);
    let mut total = 0.0;
    for rank in 1..=kinds {
        total += 1.0 / (rank as f64).powf(EXPONENT);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            cdf.partition_point(|&c| c <= u).min(kinds - 1)
        })
        .collect()
}

/// Seed of the fixed popularity shuffle; not the run's `--seed`.
const POPULARITY_SEED: u64 = 0x5eed_f00d;

/// The kind at each popularity rank: a Fisher-Yates shuffle of
/// `0..kinds` under a constant seed, so the ranking follows no property of
/// the kinds (such as their order of enumeration, and with it their cost).
pub fn popularity_order(kinds: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..kinds).collect();
    let mut rng = SplitMix64::new(POPULARITY_SEED);
    for i in (1..kinds).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// The request mix: `len` kinds drawn by [`zipf_mix`] rank and mapped
/// through [`popularity_order`].
pub fn request_mix(kinds: usize, len: usize, seed: u64) -> Vec<usize> {
    let order = popularity_order(kinds);
    zipf_mix(kinds, len, seed)
        .into_iter()
        .map(|rank| order[rank])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix() {
        assert_eq!(zipf_mix(36, 5000, 7), zipf_mix(36, 5000, 7));
        assert_ne!(zipf_mix(36, 5000, 7), zipf_mix(36, 5000, 8));
    }

    #[test]
    fn mix_is_zipf_shaped_and_covers_the_head() {
        let kinds = 36;
        let mix = zipf_mix(kinds, 200_000, 42);
        let mut counts = vec![0usize; kinds];
        for &kind in &mix {
            counts[kind] += 1;
        }
        // Harmonic number H_36 ~ 4.16: kind 0 takes ~24% of draws, kind 1
        // ~12%, and the shares fall with the rank.
        let share = |n: usize| n as f64 / mix.len() as f64;
        assert!(
            (share(counts[0]) - 0.240).abs() < 0.01,
            "{}",
            share(counts[0])
        );
        assert!(
            (share(counts[1]) - 0.120).abs() < 0.01,
            "{}",
            share(counts[1])
        );
        assert!(counts[0] > counts[5] && counts[5] > counts[35]);
        assert!(counts.iter().all(|&c| c > 0), "every kind is drawn");
    }

    #[test]
    fn popularity_is_a_fixed_shuffle() {
        let order = popularity_order(36);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..36).collect::<Vec<_>>(), "a permutation");
        assert_ne!(order, sorted, "not the enumeration order");
        assert_eq!(order, popularity_order(36), "the same on every call");
        let mix = request_mix(36, 5000, 7);
        assert_eq!(mix, request_mix(36, 5000, 7));
        let ranks = zipf_mix(36, 5000, 7);
        assert!(mix
            .iter()
            .zip(&ranks)
            .all(|(&kind, &rank)| kind == order[rank]));
    }
}

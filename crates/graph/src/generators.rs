//! Seeded synthetic graph generators.
//!
//! The paper's evaluation uses real citation graphs fetched through DGL. A
//! hermetic reproduction cannot download them, so the [`datasets`](crate::datasets)
//! module synthesises graphs with matching statistics using the generators in
//! this module. All generators are deterministic given a seed.
//!
//! [`rmat`] runs on every core and still produces the bits of its serial
//! loop. The seeded generator is SplitMix64, whose draw `k` is a pure
//! function of the seed and `k`, and every R-MAT
//! attempt consumes exactly `levels` draws. So the attempts split into
//! fixed-size blocks — the same blocks whatever the thread count — and each
//! block jumps straight to its first draw. Blocks are sampled in parallel,
//! one bounded wave at a time, and streamed into the chunked
//! [`EdgeListBuilder`] in block order, so a [`MemoryBudget`](crate::MemoryBudget)
//! seals and spills exactly as the serial stream would. Each level picks its
//! quadrant by comparing the draw's 53 raw bits with integer thresholds that
//! agree exactly with the historical `f64` comparisons, without branches.
//! The builder finishes with a radix sort, and the trim that follows
//! resumes the stream where the last attempt left it and re-sorts the kept
//! edges with the same radix sort.

use crate::edge_builder::sort_dedup;
use crate::{Edge, EdgeList, EdgeListBuilder, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use std::ops::Range;

/// Generates an Erdős–Rényi `G(n, p)` directed graph (no self-loops).
///
/// Uses geometric skip sampling (Batagelj–Brandes): instead of flipping a
/// coin for each of the `n(n-1)` ordered pairs, the generator draws the gap
/// to the next present edge directly, so a sparse graph costs `O(edges)`
/// rather than `O(n²)`. Edges are emitted in ascending `(src, dst)` order,
/// so the result is born sorted.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::generators;
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let g = generators::erdos_renyi(50, 0.05, 42)?;
/// assert_eq!(g.num_nodes(), 50);
/// assert!(g.is_sorted());
/// # Ok(())
/// # }
/// ```
pub fn erdos_renyi(num_nodes: usize, p: f64, seed: u64) -> Result<EdgeList, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::invalid("p", format!("{p} is not in [0, 1]")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if num_nodes < 2 || p == 0.0 {
        return Ok(EdgeList::new(num_nodes));
    }
    // Linear index space over the n(n-1) ordered pairs with the diagonal
    // removed: index `i` maps to src = i / (n-1) and the i % (n-1)-th
    // non-diagonal destination. Ascending indexes are ascending (src, dst).
    let stride = (num_nodes - 1) as u64;
    let total = num_nodes as u64 * stride;
    let mut edges: Vec<Edge> = Vec::with_capacity((total as f64 * p).ceil() as usize);
    // ln(1 - p) is the geometric distribution's log-survival slope. For
    // p == 1 it is -inf and every gap below computes to 1, emitting all pairs.
    let log_survival = (1.0 - p).ln();
    let mut position = 0u64;
    while position < total {
        let u: f64 = rng.gen();
        // Gap to the next present pair, >= 1: 1 + floor(ln(1-u) / ln(1-p)).
        let skipped = ((1.0 - u).ln() / log_survival).floor();
        position = position.saturating_add(skipped as u64);
        if position >= total {
            break;
        }
        let src = (position / stride) as NodeId;
        let offset = (position % stride) as NodeId;
        let dst = offset + u32::from(offset >= src);
        edges.push(Edge::new(src, dst));
        position += 1;
    }
    Ok(EdgeList::from_sorted_edges_unchecked(num_nodes, edges))
}

/// Generates a power-law graph with approximately `target_edges` directed
/// edges using the R-MAT recursive-quadrant method.
///
/// R-MAT (with the classic `a=0.57, b=0.19, c=0.19, d=0.05` partition) yields
/// the skewed degree distributions characteristic of real-world graphs such
/// as the paper's citation networks: a few hub nodes with large
/// neighbourhoods and many low-degree nodes. `2 × target_edges` attempts
/// are sampled in parallel draw blocks (see the module docs); each accepted
/// edge and its reverse stream through the chunked builder, and a seeded
/// random trim keeps `target_edges` of the distinct edges. The result is
/// the same bit for bit on any number of cores.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `num_nodes` is zero or
/// `target_edges` is zero.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::generators;
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let g = generators::rmat(1000, 5000, 1)?;
/// assert_eq!(g.num_nodes(), 1000);
/// assert!(g.num_edges() > 4000);
/// # Ok(())
/// # }
/// ```
pub fn rmat(num_nodes: usize, target_edges: usize, seed: u64) -> Result<EdgeList, GraphError> {
    rmat_with(
        EdgeListBuilder::new(num_nodes),
        target_edges,
        seed,
        BlockLayout::for_this_machine(),
    )
}

/// [`rmat`] into a given builder with a given block layout.
fn rmat_with(
    mut builder: EdgeListBuilder,
    target_edges: usize,
    seed: u64,
    layout: BlockLayout,
) -> Result<EdgeList, GraphError> {
    let num_nodes = builder.num_nodes();
    if num_nodes == 0 {
        return Err(GraphError::invalid("num_nodes", "must be positive"));
    }
    if target_edges == 0 {
        return Err(GraphError::invalid("target_edges", "must be positive"));
    }
    let sampler = RmatSampler::new(num_nodes, seed);
    // Symmetrisation halves the unique directed edge count on average, and
    // deduplication removes collisions, so oversample before trimming.
    let attempts = target_edges * 2;
    sampler.stream_into(&mut builder, attempts, layout)?;
    let mut edges = builder.try_finish()?;
    trim_to(
        &mut edges,
        target_edges,
        &mut sampler.stream_after(attempts),
    );
    Ok(edges)
}

/// Generates a power-law graph with *exactly* `target_edges` directed edges
/// (after symmetrisation and deduplication) by topping up an R-MAT sample
/// with random edges when the sample falls short.
///
/// The Table II datasets report exact edge counts, so the dataset synthesiser
/// needs an exact-count generator. Top-up candidates are membership-tested
/// with a binary search over the sorted list (the R-MAT output maintains the
/// sorted invariant), not a linear scan.
///
/// # Errors
///
/// Propagates errors from [`rmat`] and rejects impossible edge counts
/// (`target_edges > num_nodes * (num_nodes - 1)`).
pub fn rmat_exact(
    num_nodes: usize,
    target_edges: usize,
    seed: u64,
) -> Result<EdgeList, GraphError> {
    rmat_exact_with(
        EdgeListBuilder::new(num_nodes),
        target_edges,
        seed,
        BlockLayout::for_this_machine(),
    )
}

/// [`rmat_exact`] into a given builder with a given block layout.
fn rmat_exact_with(
    builder: EdgeListBuilder,
    target_edges: usize,
    seed: u64,
    layout: BlockLayout,
) -> Result<EdgeList, GraphError> {
    let num_nodes = builder.num_nodes();
    let max_edges = num_nodes.saturating_mul(num_nodes.saturating_sub(1));
    if target_edges > max_edges {
        return Err(GraphError::invalid(
            "target_edges",
            format!("{target_edges} exceeds the maximum simple-graph edge count {max_edges}"),
        ));
    }
    let mut edges = rmat_with(builder, target_edges, seed, layout)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    if edges.num_edges() < target_edges {
        // Top up with uniform random edges until the exact count is reached.
        // Membership is a binary search over the (immutable, sorted) R-MAT
        // base plus a BTreeSet of top-up edges, merged once at the end —
        // inserting into the sorted vector directly would memmove O(n) bytes
        // per accepted edge, which is catastrophic at ogbn-products scale.
        let base = edges.into_edges();
        let mut added = std::collections::BTreeSet::new();
        let mut guard = 0usize;
        while base.len() + added.len() < target_edges {
            let src = rng.gen_range(0..num_nodes as NodeId);
            let dst = rng.gen_range(0..num_nodes as NodeId);
            if src != dst {
                let candidate = Edge::new(src, dst);
                if base.binary_search(&candidate).is_err() {
                    added.insert(candidate);
                }
            }
            guard += 1;
            if guard > target_edges * 100 {
                break;
            }
        }
        // Linear merge of two sorted, disjoint sequences.
        let mut all: Vec<Edge> = Vec::with_capacity(base.len() + added.len());
        let mut added = added.into_iter().peekable();
        for edge in base {
            while let Some(a) = added.next_if(|a| *a < edge) {
                all.push(a);
            }
            all.push(edge);
        }
        all.extend(added);
        edges = EdgeList::from_sorted_edges_unchecked(num_nodes, all);
    }
    trim_to(&mut edges, target_edges, &mut rng);
    Ok(edges)
}

/// Removes random edges until the list holds at most `target` edges: a
/// partial Fisher–Yates shuffle of the list's own vector picks the kept
/// prefix, which the builder's radix sort puts back in order.
fn trim_to(edges: &mut EdgeList, target: usize, rng: &mut impl Rng) {
    if edges.num_edges() <= target {
        return;
    }
    let num_nodes = edges.num_nodes();
    let mut all = std::mem::replace(edges, EdgeList::new(num_nodes)).into_edges();
    for i in 0..target {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(target);
    *edges = EdgeList::from_sorted_edges_unchecked(num_nodes, sort_dedup(num_nodes, vec![all]));
}

/// The SplitMix64 increment ("golden gamma") added to the state per draw.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The `StdRng` stream as a counter-based generator: draw `k` (0-based) of
/// the stream seeded with `seed` is `mix(s₀ + (k + 1)·γ)` with
/// `s₀ = seed ^ γ`, so any draw is reachable in O(1) by [`DrawStream::skip`].
/// Its draws, and so every `Rng` method called on it, equal those of
/// `StdRng::seed_from_u64(seed)` (the tests pin this).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrawStream {
    state: u64,
}

impl DrawStream {
    /// The stream `StdRng::seed_from_u64(seed)` draws.
    pub(crate) fn seeded(seed: u64) -> Self {
        Self {
            state: seed ^ GAMMA,
        }
    }

    /// The same stream, `draws` draws further on.
    pub(crate) fn skip(self, draws: u64) -> Self {
        Self {
            state: self.state.wrapping_add(draws.wrapping_mul(GAMMA)),
        }
    }
}

impl RngCore for DrawStream {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The R-MAT partition `(a, b, c)`; `d = 1 - a - b - c`.
const RMAT_PARTITION: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// R-MAT attempts per draw block. Fixed, so the blocks — and with them
/// the order edges reach the builder — never depend on the thread count.
const BLOCK_ATTEMPTS: usize = 1 << 14;

/// Quadrant choice on a draw's raw 53-bit mantissa `m = u >> 11`.
///
/// The historical loop compared `r = m·2⁻⁵³` with the `f64` values `a`,
/// `a + b` and `a + b + c`. Scaling by `2⁵³` is exact in `f64`, so
/// `r < x ⇔ m < ⌈x·2⁵³⌉`, and the three ceilings are exact integer
/// thresholds for the same decisions.
#[derive(Debug, Clone, Copy)]
struct Quadrants {
    thresholds: [u64; 3],
}

impl Quadrants {
    fn new((a, b, c): (f64, f64, f64)) -> Self {
        let scale = (1u64 << 53) as f64;
        let ceil = |x: f64| (x * scale).ceil() as u64;
        Self {
            thresholds: [ceil(a), ceil(a + b), ceil(a + b + c)],
        }
    }

    /// The quadrant of a draw: 0 top-left, 1 top-right (`dst` offset),
    /// 2 bottom-left (`src` offset), 3 bottom-right (both).
    #[inline]
    fn pick(&self, draw: u64) -> usize {
        let m = draw >> 11;
        let [t1, t2, t3] = self.thresholds;
        usize::from(m >= t1) + usize::from(m >= t2) + usize::from(m >= t3)
    }
}

/// How [`rmat`]'s attempts are cut up: `attempts` per block, and `wave`
/// blocks sampled in parallel before their edges are streamed on. The
/// output is the same for every layout; only speed and the wave's working
/// set change: at most `2 × wave × attempts` edges (an accepted edge and
/// its reverse per attempt), on top of the builder's own.
#[derive(Debug, Clone, Copy)]
struct BlockLayout {
    attempts: usize,
    wave: usize,
}

impl BlockLayout {
    fn for_this_machine() -> Self {
        Self {
            attempts: BLOCK_ATTEMPTS,
            wave: 2 * rayon::current_num_threads(),
        }
    }
}

/// One R-MAT sample over an `n`-node graph: `levels` quadrant choices per
/// attempt, over the `2^levels` square the graph sits in.
#[derive(Debug, Clone, Copy)]
struct RmatSampler {
    num_nodes: usize,
    levels: u32,
    quadrants: Quadrants,
    stream: DrawStream,
}

impl RmatSampler {
    fn new(num_nodes: usize, seed: u64) -> Self {
        Self {
            num_nodes,
            levels: (num_nodes as f64).log2().ceil() as u32,
            quadrants: Quadrants::new(RMAT_PARTITION),
            stream: DrawStream::seeded(seed),
        }
    }

    /// The stream positioned after the first `attempts` attempts.
    fn stream_after(&self, attempts: usize) -> DrawStream {
        self.stream
            .skip((attempts as u64).wrapping_mul(u64::from(self.levels)))
    }

    /// Every accepted edge (in range, not a self-loop) of a block of
    /// attempts followed by its reverse, in attempt order.
    fn sample(&self, attempts: Range<usize>) -> Vec<Edge> {
        let mut rng = self.stream_after(attempts.start);
        let mut edges = Vec::with_capacity(2 * attempts.len());
        for _ in attempts {
            // Level `l` adds `2^(levels - 1 - l)` to an endpoint, so the
            // quadrant bits are its binary digits, most significant first.
            let (mut src, mut dst) = (0usize, 0usize);
            for _ in 0..self.levels {
                let quadrant = self.quadrants.pick(rng.next_u64());
                src = (src << 1) | (quadrant >> 1);
                dst = (dst << 1) | (quadrant & 1);
            }
            if src < self.num_nodes && dst < self.num_nodes && src != dst {
                let edge = Edge::new(src as NodeId, dst as NodeId);
                edges.extend([edge, edge.reversed()]);
            }
        }
        edges
    }

    /// Streams each accepted edge of the first `attempts` attempts and its
    /// reverse into `builder`, block by block in attempt order.
    fn stream_into(
        &self,
        builder: &mut EdgeListBuilder,
        attempts: usize,
        layout: BlockLayout,
    ) -> Result<(), GraphError> {
        let blocks: Vec<Range<usize>> = (0..attempts)
            .step_by(layout.attempts)
            .map(|start| start..(start + layout.attempts).min(attempts))
            .collect();
        for wave in blocks.chunks(layout.wave) {
            let sampled: Vec<Vec<Edge>> = wave
                .par_iter()
                .map(|block| self.sample(block.clone()))
                .collect();
            for block in &sampled {
                builder.extend_from_slice(block)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_rejects_bad_probability() {
        assert!(erdos_renyi(10, -0.1, 0).is_err());
        assert!(erdos_renyi(10, 1.5, 0).is_err());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        let a = erdos_renyi(30, 0.1, 7).unwrap();
        let b = erdos_renyi(30, 0.1, 7).unwrap();
        assert_eq!(a, b);
        let c = erdos_renyi(30, 0.1, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let n = 100;
        let p = 0.05;
        let g = erdos_renyi(n, p, 3).unwrap();
        let expected = (n * (n - 1)) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.5,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        // p = 0: no edges. p = 1: every ordered non-diagonal pair.
        assert!(erdos_renyi(20, 0.0, 5).unwrap().is_empty());
        let complete = erdos_renyi(20, 1.0, 5).unwrap();
        assert_eq!(complete.num_edges(), 20 * 19);
        // Degenerate node counts.
        assert!(erdos_renyi(0, 0.5, 5).unwrap().is_empty());
        assert!(erdos_renyi(1, 0.5, 5).unwrap().is_empty());
    }

    #[test]
    fn erdos_renyi_is_simple_and_sorted() {
        let g = erdos_renyi(80, 0.07, 11).unwrap();
        assert!(g.is_sorted());
        let slice = g.as_slice();
        assert!(slice.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(slice.iter().all(|e| e.src != e.dst), "no self-loops");
        assert!(slice.iter().all(|e| e.src < 80 && e.dst < 80));
    }

    #[test]
    fn rmat_rejects_degenerate_parameters() {
        assert!(rmat(0, 10, 0).is_err());
        assert!(rmat(10, 0, 0).is_err());
    }

    #[test]
    fn rmat_is_deterministic_and_simple() {
        let a = rmat(256, 1000, 11).unwrap();
        let b = rmat(256, 1000, 11).unwrap();
        assert_eq!(a, b);
        // simple graph: no self loops, no duplicates
        let mut seen = std::collections::HashSet::new();
        for e in a.iter() {
            assert_ne!(e.src, e.dst);
            assert!(seen.insert(*e));
        }
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = rmat(512, 4000, 5).unwrap();
        let degs = g.in_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > 3.0 * avg,
            "power-law graph should have hubs: max {max}, avg {avg:.1}"
        );
    }

    /// The original serial generator: one `StdRng`, `f64` quadrant
    /// comparisons, every sample in one list, a post-hoc symmetrize, then
    /// a copy-shuffle-sort trim. Returns the list and its pre-trim size.
    fn historical_rmat(n: usize, target: usize, seed: u64) -> (EdgeList, usize, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = (n as f64).log2().ceil() as u32;
        let side = 1usize << levels;
        let (a, b, c) = (0.57, 0.19, 0.19);
        let mut edges = EdgeList::new(n);
        for _ in 0..target * 2 {
            let (mut src, mut dst) = (0usize, 0usize);
            let mut span = side;
            while span > 1 {
                span /= 2;
                let r: f64 = rng.gen();
                if r < a {
                } else if r < a + b {
                    dst += span;
                } else if r < a + b + c {
                    src += span;
                } else {
                    src += span;
                    dst += span;
                }
            }
            if src < n && dst < n && src != dst {
                edges.push(Edge::new(src as NodeId, dst as NodeId)).unwrap();
            }
        }
        edges.symmetrize();
        let unique = edges.num_edges();
        historical_trim(&mut edges, target, &mut rng);
        (edges, unique, rng)
    }

    fn historical_trim(edges: &mut EdgeList, target: usize, rng: &mut StdRng) {
        if edges.num_edges() <= target {
            return;
        }
        let mut all: Vec<Edge> = edges.iter().copied().collect();
        for i in 0..target {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(target);
        all.sort_unstable();
        *edges = EdgeList::from_edges(edges.num_nodes(), all).unwrap();
    }

    /// The historical [`rmat_exact`]: [`historical_rmat`], then a top-up
    /// that inserts into the sorted vector, then the trim.
    fn historical_rmat_exact(n: usize, target: usize, seed: u64) -> (EdgeList, bool) {
        let (mut edges, _, _) = historical_rmat(n, target, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let topped_up = edges.num_edges() < target;
        if topped_up {
            let mut all: Vec<Edge> = edges.iter().copied().collect();
            let mut guard = 0usize;
            while all.len() < target {
                let src = rng.gen_range(0..n as NodeId);
                let dst = rng.gen_range(0..n as NodeId);
                if src != dst {
                    let candidate = Edge::new(src, dst);
                    if let Err(slot) = all.binary_search(&candidate) {
                        all.insert(slot, candidate);
                    }
                }
                guard += 1;
                if guard > target * 100 {
                    break;
                }
            }
            edges = EdgeList::from_edges(n, all).unwrap();
        }
        historical_trim(&mut edges, target, &mut rng);
        (edges, topped_up)
    }

    /// Layouts cutting `2 × target` attempts into 1, 2, 3, 8 and 64 blocks,
    /// each sampled 1, 2, 3 and 8 blocks per wave.
    fn layouts(target: usize) -> Vec<BlockLayout> {
        let mut layouts = Vec::new();
        for blocks in [1usize, 2, 3, 8, 64] {
            for wave in [1, 2, 3, 8] {
                layouts.push(BlockLayout {
                    attempts: (2 * target).div_ceil(blocks),
                    wave,
                });
            }
        }
        layouts
    }

    #[test]
    fn rmat_matches_the_historical_symmetrize_flow() {
        // Every block layout must reproduce the serial flow bit for bit:
        // same draws, same accepted edges in the same order, same trim.
        // The cases cover powers of two and not, one node, and targets
        // where the trim fires and where it does not.
        let mut trims = [false, false];
        for (n, target, seed) in [
            (200usize, 900usize, 17u64),
            (256, 1000, 11),
            (777, 3000, 5),
            (10, 80, 3),
            (2, 1, 3),
            (1, 3, 0),
        ] {
            let (reference, unique, _) = historical_rmat(n, target, seed);
            trims[usize::from(unique > target)] = true;
            assert_eq!(rmat(n, target, seed).unwrap(), reference, "n {n}");
            for layout in layouts(target) {
                let parallel = rmat_with(EdgeListBuilder::new(n), target, seed, layout).unwrap();
                assert_eq!(parallel, reference, "n {n}, {layout:?}");
            }
        }
        assert_eq!(trims, [true, true], "cover trimmed and untrimmed samples");
    }

    #[test]
    fn rmat_exact_matches_the_historical_flow_in_every_layout() {
        let mut topped_up_any = false;
        for (n, target, seed) in [(10usize, 80usize, 3u64), (3, 5, 1), (300, 2000, 9)] {
            let (reference, topped_up) = historical_rmat_exact(n, target, seed);
            topped_up_any |= topped_up;
            assert_eq!(rmat_exact(n, target, seed).unwrap(), reference, "n {n}");
            for layout in layouts(target) {
                let parallel =
                    rmat_exact_with(EdgeListBuilder::new(n), target, seed, layout).unwrap();
                assert_eq!(parallel, reference, "n {n}, {layout:?}");
            }
        }
        assert!(topped_up_any, "cover a sample the top-up completes");
    }

    #[test]
    fn draw_stream_matches_std_rng_draw_for_draw() {
        // Offsets 0 and 1, and around the first block boundary of a
        // 17-level sample (ogbn-products at scale 0.03).
        let boundary = (BLOCK_ATTEMPTS * 17) as u64;
        for seed in [0u64, 46, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = DrawStream::seeded(seed);
            for k in 0..=boundary + 1 {
                let draw = rng.next_u64();
                if k <= 1 || k + 1 >= boundary {
                    assert_eq!(stream.skip(k).next_u64(), draw, "seed {seed}, draw {k}");
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "steps 2^32 draws; runs in optimised builds (--release)"
    )]
    fn draw_stream_matches_std_rng_past_32_bit_offsets() {
        let offset = (1u64 << 32) + 5;
        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..offset {
            rng.next_u64();
        }
        let mut stream = DrawStream::seeded(46).skip(offset);
        for _ in 0..3 {
            assert_eq!(stream.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn integer_thresholds_agree_with_the_f64_comparisons() {
        let (a, b, c) = RMAT_PARTITION;
        let historical = |m: u64| {
            let r = m as f64 * (1.0 / (1u64 << 53) as f64);
            if r < a {
                0
            } else if r < a + b {
                1
            } else if r < a + b + c {
                2
            } else {
                3
            }
        };
        let quadrants = Quadrants::new(RMAT_PARTITION);
        for t in quadrants.thresholds {
            for m in t - 4096..t + 4096 {
                // The 11 bits below the mantissa never matter.
                for low in [0, 0x7ff] {
                    assert_eq!(quadrants.pick((m << 11) | low), historical(m), "m {m}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x7e57);
        for _ in 0..1_000_000 {
            let draw = rng.next_u64();
            assert_eq!(quadrants.pick(draw), historical(draw >> 11), "draw {draw}");
        }
    }

    /// FNV-1a over every edge's little-endian `src` then `dst`.
    fn edge_digest(edges: &EdgeList) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for edge in edges.iter() {
            for byte in edge
                .src
                .to_le_bytes()
                .into_iter()
                .chain(edge.dst.to_le_bytes())
            {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn rmat_exact_matches_the_pinned_digests() {
        // Digests of the serial generator's output, captured before it was
        // parallelised: ogbn-products at scale 0.03 (seed 42 + its offset)
        // and full-size Cora.
        let products = crate::datasets::DatasetKind::OgbnProductsScale
            .spec()
            .scaled(0.03);
        assert_eq!((products.vertices, products.edges), (72_000, 1_800_000));
        let products = rmat_exact(products.vertices, products.edges, 46).unwrap();
        assert_eq!(edge_digest(&products), 0x7556_da41_68b6_1d12);
        let cora = crate::datasets::DatasetKind::Cora.spec();
        let cora = rmat_exact(cora.vertices, cora.edges, 42).unwrap();
        assert_eq!(edge_digest(&cora), 0x0fcf_16dc_c121_5449);
    }

    #[test]
    fn budgeted_generation_stays_bounded_and_identical() {
        // A cap of four 512-edge chunks against ~30k streamed edges forces
        // spills. Sampling holds the builder at most one chunk over the
        // cap, plus the wave's block buffers (2 edges per attempt, never
        // grown); the finished, trimmed list is the unbudgeted one.
        use crate::MemoryBudget;
        use gnnerator_observe::Recorder;
        let (n, target, seed) = (3000usize, 20_000usize, 8u64);
        let chunk = 512usize;
        let chunk_bytes = (chunk * std::mem::size_of::<Edge>()) as u64;
        let cap = 4 * chunk_bytes;
        let dir =
            std::env::temp_dir().join(format!("gnnerator-rmat-budget-{}", std::process::id()));
        let layout = BlockLayout {
            attempts: 1000,
            wave: 3,
        };
        let budgeted = || {
            EdgeListBuilder::with_chunk_capacity(n, chunk)
                .with_memory_budget(MemoryBudget::bytes(cap))
                .with_spill_dir(&dir)
                .with_recorder(Recorder::detached())
        };

        let mut builder = budgeted();
        RmatSampler::new(n, seed)
            .stream_into(&mut builder, 2 * target, layout)
            .unwrap();
        assert!(builder.spilled_chunks() > 0, "the cap must force spills");
        assert!(
            builder.peak_resident_bytes() <= cap + chunk_bytes,
            "peak {} over cap {cap} + one chunk",
            builder.peak_resident_bytes()
        );
        drop(builder);

        let unbudgeted = rmat_with(
            EdgeListBuilder::new(n).with_memory_budget(MemoryBudget::unbounded()),
            target,
            seed,
            layout,
        )
        .unwrap();
        assert_eq!(
            rmat_with(budgeted(), target, seed, layout).unwrap(),
            unbudgeted
        );
        assert_eq!(unbudgeted, rmat(n, target, seed).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rmat_exact_hits_requested_edge_count() {
        let g = rmat_exact(300, 2000, 9).unwrap();
        assert_eq!(g.num_edges(), 2000);
        assert_eq!(g.num_nodes(), 300);
    }

    #[test]
    fn rmat_exact_rejects_impossible_counts() {
        assert!(rmat_exact(3, 100, 0).is_err());
    }

    #[test]
    fn rmat_exact_small_graph() {
        let g = rmat_exact(10, 20, 123).unwrap();
        assert_eq!(g.num_edges(), 20);
        for e in g.iter() {
            assert!(e.src < 10 && e.dst < 10);
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn rmat_exact_matches_the_historical_insert_top_up() {
        // The BTreeSet + merge top-up must reproduce the original
        // insert-into-sorted-vec flow bit for bit: same RNG consumption,
        // same accept/reject decisions, same final ordering.
        let (n, target, seed) = (150usize, 1100usize, 21u64);
        let fast = rmat_exact(n, target, seed).unwrap();

        let mut edges = rmat(n, target, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        if edges.num_edges() < target {
            let mut all: Vec<Edge> = edges.iter().copied().collect();
            let mut guard = 0usize;
            while all.len() < target {
                let src = rng.gen_range(0..n as NodeId);
                let dst = rng.gen_range(0..n as NodeId);
                if src != dst {
                    let candidate = Edge::new(src, dst);
                    if let Err(slot) = all.binary_search(&candidate) {
                        all.insert(slot, candidate);
                    }
                }
                guard += 1;
                if guard > target * 100 {
                    break;
                }
            }
            edges = EdgeList::from_sorted_edges_unchecked(n, all);
        }
        trim_to(&mut edges, target, &mut rng);
        assert!(
            fast.num_edges() == target,
            "the sample must actually fall short so the top-up runs"
        );
        assert_eq!(fast, edges);
    }

    #[test]
    fn rmat_exact_output_is_sorted() {
        let g = rmat_exact(120, 800, 3).unwrap();
        assert!(g.is_sorted());
        assert!(g.as_slice().windows(2).all(|w| w[0] < w[1]));
    }
}

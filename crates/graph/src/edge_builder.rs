//! Streaming, chunked edge-list construction with optional disk spilling.
//!
//! Generators stream edges into an [`EdgeListBuilder`], which turns them
//! into one sorted, duplicate-free [`EdgeList`]:
//!
//! 1. pushed edges are sealed into fixed-capacity chunks;
//! 2. sealed chunks stay in memory while they fit the builder's
//!    [`MemoryBudget`]; beyond the cap a chunk is sorted immediately and
//!    spilled to a `spill-<pid>-<nonce>.run` file (raw little-endian
//!    `(src, dst)` pairs) in the cache directory;
//! 3. [`EdgeListBuilder::try_finish`] then takes one of two paths. When
//!    nothing spilled, one radix sort over the packed `(src << 32) | dst`
//!    keys orders every chunk at once: a first pass buckets edges by their
//!    source's top bits, freeing each chunk as it goes, and the buckets are
//!    sorted — a counting pass on the rest of the source, then each
//!    source's destinations — and deduplicated in parallel (rayon).
//!    When chunks spilled, the in-memory chunks are sorted in parallel and
//!    k-way merged with buffered readers over the run-files in one pass.
//!
//! Either way the output is bit-identical to `collect → sort_unstable →
//! dedup` on the same edge multiset, however many chunks spilled (the
//! property tests pin this), so the generators' seeded determinism is
//! preserved. Spill run-files are deleted as soon as the merge consumes
//! them; files orphaned by a crash are reaped by the
//! [`ArtifactCache`](crate::ArtifactCache) startup sweep.

use crate::cache;
use crate::memory::MemoryBudget;
use crate::{Edge, EdgeList, GraphError, NodeId};
use gnnerator_observe::Recorder;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::Mutex;

/// Default number of edges per sealed chunk (~512 KiB of edge records), the
/// unit a memory budget keeps or spills: big enough that a spilled run's
/// sort and write amortise, small enough to track a budget closely.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// Bytes per edge record in a spill run-file: two little-endian `u32`s.
const SPILL_RECORD_BYTES: usize = 8;

/// A sorted run of edges spilled to disk; the file is removed on drop.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    edges: usize,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A streaming builder that accumulates edges in sorted chunks — in memory
/// or spilled to disk under a [`MemoryBudget`] — and merges them into a
/// canonical (sorted, deduplicated) [`EdgeList`].
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{Edge, EdgeListBuilder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let mut builder = EdgeListBuilder::new(4);
/// builder.push(Edge::new(2, 1))?;
/// builder.push(Edge::new(0, 3))?;
/// builder.push(Edge::new(2, 1))?; // duplicate, removed on finish
/// let edges = builder.finish();
/// assert_eq!(edges.as_slice(), &[Edge::new(0, 3), Edge::new(2, 1)]);
/// assert!(edges.is_sorted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EdgeListBuilder {
    num_nodes: usize,
    chunk_capacity: usize,
    budget: MemoryBudget,
    /// Directory spill run-files land in; resolved lazily on first spill.
    spill_dir: Option<PathBuf>,
    /// Sealed, still-unsorted chunks held in memory.
    mem_chunks: Vec<Vec<Edge>>,
    /// Sealed, sorted chunks spilled to disk run-files.
    spilled: Vec<SpillFile>,
    /// The chunk currently being filled.
    current: Vec<Edge>,
    /// Edges held across `mem_chunks` (excludes `current` and spills).
    resident_edges: usize,
    /// Edges sealed so far, in memory or on disk.
    sealed_edges: usize,
    /// Builder-local resident-bytes high-water mark.
    peak_resident_bytes: u64,
    /// Telemetry sink for spill counts and the resident-bytes peak.
    /// Defaults to the process global; a scoped recorder attributes this
    /// build's counts to its scope.
    recorder: Recorder,
}

impl EdgeListBuilder {
    /// Creates a builder for a graph over `num_nodes` nodes with the default
    /// chunk capacity and the process-wide [`MemoryBudget::from_env`] budget.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_chunk_capacity(num_nodes, DEFAULT_CHUNK_CAPACITY)
    }

    /// Creates a builder with an explicit chunk capacity (clamped to at
    /// least 1). Small capacities are useful in tests to force many-chunk
    /// merges.
    pub fn with_chunk_capacity(num_nodes: usize, chunk_capacity: usize) -> Self {
        let chunk_capacity = chunk_capacity.max(1);
        Self {
            num_nodes,
            chunk_capacity,
            budget: MemoryBudget::from_env(),
            spill_dir: None,
            mem_chunks: Vec::new(),
            spilled: Vec::new(),
            current: Vec::with_capacity(chunk_capacity.min(1 << 20)),
            resident_edges: 0,
            sealed_edges: 0,
            peak_resident_bytes: 0,
            recorder: Recorder::default(),
        }
    }

    /// Overrides the telemetry sink spill counts and the resident-bytes
    /// peak are recorded into (the default is the process-global recorder).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Overrides the builder's memory budget. Sealed chunks that would push
    /// resident sealed bytes past the cap are sorted and spilled to disk;
    /// the one chunk currently being filled is the fixed working set and is
    /// not counted against the cap.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the directory spill run-files are written to. The default
    /// is the artifact-cache directory (or the system temp directory when
    /// the cache is disabled).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Number of nodes the builder validates endpoints against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The memory budget governing this builder's spill decisions.
    pub fn memory_budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Number of sealed chunks spilled to disk so far.
    pub fn spilled_chunks(&self) -> usize {
        self.spilled.len()
    }

    /// This builder's resident-bytes high-water mark (sealed in-memory
    /// chunks plus the chunk being sealed, at each seal point).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// Total number of raw (pre-dedup) edges streamed in so far.
    pub fn len(&self) -> usize {
        self.sealed_edges + self.current.len()
    }

    /// Returns `true` if no edges have been streamed in.
    pub fn is_empty(&self) -> bool {
        self.sealed_edges == 0 && self.current.is_empty()
    }

    /// Streams one edge into the builder.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is
    /// `>= num_nodes`.
    pub fn push(&mut self, edge: Edge) -> Result<(), GraphError> {
        self.check(edge)?;
        self.current.push(edge);
        self.seal_if_full();
        Ok(())
    }

    /// Streams a run of edges in order: the same as pushing each one, but
    /// copied a chunk's worth at a time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for the first edge with an
    /// endpoint `>= num_nodes`; no edge of the run is pushed then.
    pub(crate) fn extend_from_slice(&mut self, mut edges: &[Edge]) -> Result<(), GraphError> {
        edges.iter().try_for_each(|&edge| self.check(edge))?;
        while !edges.is_empty() {
            let room = self.chunk_capacity - self.current.len();
            let (head, rest) = edges.split_at(room.min(edges.len()));
            self.current.extend_from_slice(head);
            self.seal_if_full();
            edges = rest;
        }
        Ok(())
    }

    fn check(&self, edge: Edge) -> Result<(), GraphError> {
        for node in [edge.src, edge.dst] {
            if node as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        Ok(())
    }

    fn seal_if_full(&mut self) {
        if self.current.len() >= self.chunk_capacity {
            let full = std::mem::replace(
                &mut self.current,
                Vec::with_capacity(self.chunk_capacity.min(1 << 20)),
            );
            self.seal(full);
        }
    }

    /// Streams an edge and its reverse — the building block of symmetric
    /// (undirected-semantics) graphs, replacing a post-hoc
    /// [`EdgeList::symmetrize`] pass over the full list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push_symmetric(&mut self, edge: Edge) -> Result<(), GraphError> {
        self.push(edge)?;
        self.push(edge.reversed())
    }

    /// Seals one chunk: kept in memory while the budget allows, otherwise
    /// sorted and spilled to a run-file. A failed spill write degrades
    /// gracefully by keeping the chunk in memory.
    fn seal(&mut self, mut chunk: Vec<Edge>) {
        let chunk_bytes = (chunk.len() * SPILL_RECORD_BYTES) as u64;
        let resident_bytes = (self.resident_edges * SPILL_RECORD_BYTES) as u64;
        // The freshly sealed chunk is momentarily resident either way.
        self.note_resident(resident_bytes + chunk_bytes);
        self.sealed_edges += chunk.len();
        if self.budget.would_exceed(resident_bytes, chunk_bytes) && !chunk.is_empty() {
            chunk.sort_unstable();
            match self.spill(&chunk) {
                Ok(file) => {
                    self.spilled.push(file);
                    self.recorder.note_spilled_chunks(1);
                    return;
                }
                Err(_) => {
                    // Disk trouble must not lose edges: fall back to memory.
                    // (The chunk arrives sorted at finish, which is fine —
                    // the merge only assumes per-chunk sortedness.)
                }
            }
        }
        self.resident_edges += chunk.len();
        self.mem_chunks.push(chunk);
    }

    /// Writes one sorted chunk to a fresh spill run-file.
    fn spill(&mut self, chunk: &[Edge]) -> std::io::Result<SpillFile> {
        let dir = match &self.spill_dir {
            Some(dir) => dir.clone(),
            None => {
                let dir = cache::default_spill_dir();
                self.spill_dir = Some(dir.clone());
                dir
            }
        };
        std::fs::create_dir_all(&dir)?;
        let path = cache::new_spill_run_path(&dir);
        let file = SpillFile {
            path: path.clone(),
            edges: chunk.len(),
        };
        let mut writer =
            BufWriter::with_capacity(self.budget.io_buffer_bytes(1), File::create(&path)?);
        for edge in chunk {
            writer.write_all(&edge.src.to_le_bytes())?;
            writer.write_all(&edge.dst.to_le_bytes())?;
        }
        writer.flush()?;
        Ok(file)
    }

    fn note_resident(&mut self, bytes: u64) {
        if bytes > self.peak_resident_bytes {
            self.peak_resident_bytes = bytes;
        }
        self.recorder.note_resident_bytes(bytes);
    }

    /// Sorts every chunk — in memory and spilled — into the canonical edge
    /// list: sorted by `(src, dst)`, duplicates removed. Builders that never
    /// spilled take the in-memory radix sort; the others sort their
    /// in-memory chunks in parallel and k-way merge them with the run-files.
    ///
    /// Self-loops are *kept* (the builder is policy-free); generators that
    /// need simple graphs simply never stream self-loops in.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] if a spill run-file written
    /// earlier cannot be read back. Builders that never spilled cannot fail.
    pub fn try_finish(mut self) -> Result<EdgeList, GraphError> {
        if !self.current.is_empty() {
            let rest = std::mem::take(&mut self.current);
            self.seal(rest);
        }
        let mut chunks = std::mem::take(&mut self.mem_chunks);
        let resident_bytes = (self.resident_edges * SPILL_RECORD_BYTES) as u64;
        let merged = if self.spilled.is_empty() {
            // The radix buckets and then the output fill as the chunks and
            // then the buckets drain; on top come the buckets being sorted,
            // at most a share of the edges each with 4-byte destinations.
            self.note_resident(resident_bytes + resident_bytes / 2);
            sort_dedup(self.num_nodes, chunks)
        } else {
            chunks
                .par_iter_mut()
                .for_each(|chunk| chunk.sort_unstable());
            let merged = merge_spilled(&chunks, &self.spilled, self.budget)?;
            self.note_resident((merged.len() * SPILL_RECORD_BYTES) as u64 + resident_bytes);
            merged
        };
        Ok(EdgeList::from_sorted_edges_unchecked(
            self.num_nodes,
            merged,
        ))
    }

    /// [`EdgeListBuilder::try_finish`], for builders that cannot have
    /// spilled (or callers content to treat spill-file loss as fatal).
    ///
    /// # Panics
    ///
    /// Panics if a spill run-file cannot be read back; prefer `try_finish`
    /// on paths where the builder may run under a bounded budget.
    pub fn finish(self) -> EdgeList {
        self.try_finish()
            .expect("spill run-file readable until finish")
    }
}

/// Source bits [`sort_dedup`]'s first pass buckets edges by: `2^10`
/// buckets, few enough write streams for the caches.
const TOP_SOURCE_BITS: u32 = 10;

/// Inputs below this many edges are one bucket, sorted on the calling
/// thread: handing them to the pool costs more than sorting them.
const PARALLEL_SORT_EDGES: usize = 1 << 12;

/// Sorts the edges of `chunks` by `(src, dst)` and removes duplicates: a
/// most-significant-digit-first radix sort of the packed
/// `(src << 32) | dst` keys.
///
/// The first pass moves every edge into the bucket of its source's top
/// [`TOP_SOURCE_BITS`] bits, freeing each chunk as soon as it is moved, so
/// the buckets grow as the chunks drain. The buckets are then sorted in
/// parallel (rayon), each by a counting pass on the rest of the source and
/// a sort of each source's destinations, and concatenated in order.
pub(crate) fn sort_dedup(num_nodes: usize, chunks: Vec<Vec<Edge>>) -> Vec<Edge> {
    let total: usize = chunks.iter().map(Vec::len).sum();
    let top_bits = if total < PARALLEL_SORT_EDGES {
        0
    } else {
        TOP_SOURCE_BITS
    };
    let source_bits = (usize::BITS - num_nodes.saturating_sub(1).leading_zeros()).min(32);
    let shift = source_bits.saturating_sub(top_bits);
    let mut counts = vec![0usize; 1 << (source_bits - shift)];
    let bucket_of = |edge: &Edge| (u64::from(edge.src) >> shift) as usize;
    for edge in chunks.iter().flatten() {
        counts[bucket_of(edge)] += 1;
    }
    let mut buckets: Vec<Vec<Edge>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for chunk in chunks {
        for &edge in &chunk {
            buckets[bucket_of(&edge)].push(edge);
        }
    }
    // Mutexes hand each bucket to the one worker that sorts it; the pool
    // takes buckets in order as workers free up, which balances the skew.
    let buckets: Vec<(usize, Mutex<Vec<Edge>>)> = buckets
        .into_iter()
        .enumerate()
        .map(|(i, bucket)| (i << shift, Mutex::new(bucket)))
        .collect();
    let sorted: Vec<Vec<Edge>> = buckets
        .par_iter()
        .map(|(first, bucket)| {
            let mut bucket = std::mem::take(&mut *bucket.lock().expect("no bucket sort panicked"));
            sort_bucket(&mut bucket, *first, 1 << shift);
            bucket
        })
        .collect();
    let mut out = Vec::with_capacity(sorted.iter().map(Vec::len).sum());
    for bucket in sorted {
        out.extend_from_slice(&bucket);
    }
    out
}

/// Sorts and deduplicates one first-pass bucket, holding the sources
/// `first..first + width`, in place. A bucket with fewer edges than
/// sources takes a comparison sort instead of the `O(width)` counting pass.
fn sort_bucket(bucket: &mut Vec<Edge>, first: usize, width: usize) {
    if bucket.len() < width {
        bucket.sort_unstable();
        bucket.dedup();
        return;
    }
    // `ends[s + 1]` counts source `first + s`; the prefix sum makes it the
    // row's start, and scattering through `ends[s]` leaves the row's end.
    let mut ends = vec![0usize; width + 1];
    for edge in bucket.iter() {
        ends[edge.src as usize - first + 1] += 1;
    }
    for s in 0..width {
        ends[s + 1] += ends[s];
    }
    let mut dsts = vec![0 as NodeId; bucket.len()];
    for edge in bucket.iter() {
        let cursor = &mut ends[edge.src as usize - first];
        dsts[*cursor] = edge.dst;
        *cursor += 1;
    }
    bucket.clear();
    let mut start = 0;
    for (s, &end) in ends[..width].iter().enumerate() {
        let row = &mut dsts[start..end];
        row.sort_unstable();
        let kept = dedup_sorted(row);
        let src = (first + s) as NodeId;
        bucket.extend(row[..kept].iter().map(|&dst| Edge::new(src, dst)));
        start = end;
    }
}

/// Moves the distinct values of a sorted slice to its front and returns
/// their count.
fn dedup_sorted(values: &mut [NodeId]) -> usize {
    let mut kept = 0;
    for i in 0..values.len() {
        if kept == 0 || values[i] != values[kept - 1] {
            values[kept] = values[i];
            kept += 1;
        }
    }
    kept
}

/// One input to the heterogeneous k-way merge: an in-memory sorted slice or
/// a buffered reader over a sorted spill run-file.
enum MergeCursor<'a> {
    Mem {
        chunk: &'a [Edge],
        pos: usize,
    },
    Run {
        reader: BufReader<File>,
        remaining: usize,
        path: &'a PathBuf,
    },
}

impl MergeCursor<'_> {
    fn next(&mut self) -> Result<Option<Edge>, GraphError> {
        match self {
            MergeCursor::Mem { chunk, pos } => {
                let edge = chunk.get(*pos).copied();
                *pos += 1;
                Ok(edge)
            }
            MergeCursor::Run {
                reader,
                remaining,
                path,
            } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                let mut record = [0u8; SPILL_RECORD_BYTES];
                reader.read_exact(&mut record).map_err(|e| {
                    GraphError::cache(
                        path.display().to_string(),
                        format!("spill run-file read failed: {e}"),
                    )
                })?;
                *remaining -= 1;
                Ok(Some(Edge::new(
                    u32::from_le_bytes(record[0..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(record[4..8].try_into().expect("4 bytes")),
                )))
            }
        }
    }
}

/// K-way merge across in-memory sorted chunks and spilled run-files, via a
/// min-heap of `(head edge, cursor index)` pairs, with duplicate
/// elimination; read buffers divide the budget across the open run-files.
fn merge_spilled(
    mem_chunks: &[Vec<Edge>],
    spilled: &[SpillFile],
    budget: MemoryBudget,
) -> Result<Vec<Edge>, GraphError> {
    let total: usize = mem_chunks.iter().map(Vec::len).sum::<usize>()
        + spilled.iter().map(|s| s.edges).sum::<usize>();
    let buffer_bytes = budget.io_buffer_bytes(spilled.len());
    let mut cursors: Vec<MergeCursor<'_>> = Vec::with_capacity(mem_chunks.len() + spilled.len());
    for chunk in mem_chunks {
        cursors.push(MergeCursor::Mem { chunk, pos: 0 });
    }
    for run in spilled {
        let file = File::open(&run.path).map_err(|e| {
            GraphError::cache(
                run.path.display().to_string(),
                format!("spill run-file vanished: {e}"),
            )
        })?;
        cursors.push(MergeCursor::Run {
            reader: BufReader::with_capacity(buffer_bytes, file),
            remaining: run.edges,
            path: &run.path,
        });
    }

    let mut out: Vec<Edge> = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(Edge, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        if let Some(edge) = cursor.next()? {
            heap.push(Reverse((edge, i)));
        }
    }
    while let Some(Reverse((edge, i))) = heap.pop() {
        if out.last() != Some(&edge) {
            out.push(edge);
        }
        if let Some(next) = cursors[i].next()? {
            heap.push(Reverse((next, i)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(num_nodes: usize, edges: &[Edge]) -> EdgeList {
        let mut all: Vec<Edge> = edges.to_vec();
        all.sort_unstable();
        all.dedup();
        EdgeList::from_edges(num_nodes, all).unwrap()
    }

    fn pseudo_random_edges(n: usize, count: usize) -> Vec<Edge> {
        let mut state = 0x1234_5678_u64;
        let mut edges = Vec::new();
        for _ in 0..count {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let src = ((state >> 33) % n as u64) as u32;
            let dst = ((state >> 17) % n as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        edges
    }

    fn spill_dir(label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gnnerator-spill-test-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn builder_matches_collect_sort_dedup() {
        // A deterministic pseudo-random edge stream spanning many chunks.
        let n = 50usize;
        let edges = pseudo_random_edges(n, 5000);
        for capacity in [1, 7, 64, 4096, usize::MAX] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, capacity)
                .with_memory_budget(MemoryBudget::unbounded());
            for &e in &edges {
                builder.push(e).unwrap();
            }
            let built = builder.finish();
            assert_eq!(built, reference(n, &edges), "capacity {capacity}");
            assert!(built.is_sorted());
        }
    }

    #[test]
    fn spilled_builder_is_bit_identical_to_in_memory() {
        let n = 64usize;
        let edges = pseudo_random_edges(n, 4000);
        let expected = reference(n, &edges);
        let dir = spill_dir("bit-identical");
        // Budgets straddling the chunk size: spill-everything, exactly one
        // resident chunk, and a mid-stream cap.
        let chunk_bytes = (128 * SPILL_RECORD_BYTES) as u64;
        for budget in [0, chunk_bytes, 3 * chunk_bytes + 1] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, 128)
                .with_memory_budget(MemoryBudget::bytes(budget))
                .with_spill_dir(&dir);
            for &e in &edges {
                builder.push(e).unwrap();
            }
            assert!(
                builder.spilled_chunks() > 0,
                "budget {budget} never spilled"
            );
            let built = builder.try_finish().unwrap();
            assert_eq!(built, expected, "budget {budget}");
        }
        // Run-files are deleted once the merge consumed them.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_spills_every_sealed_chunk() {
        let dir = spill_dir("zero-budget");
        let mut builder = EdgeListBuilder::with_chunk_capacity(16, 4)
            .with_memory_budget(MemoryBudget::bytes(0))
            .with_spill_dir(&dir);
        for e in pseudo_random_edges(16, 41) {
            builder.push(e).unwrap();
        }
        // 10 full chunks sealed during push; the remainder seals in finish.
        assert_eq!(builder.spilled_chunks(), 10);
        assert_eq!(builder.len(), 41);
        assert!(builder.peak_resident_bytes() <= (4 * SPILL_RECORD_BYTES) as u64);
        let built = builder.try_finish().unwrap();
        assert!(built.is_sorted());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_fit_budget_never_spills() {
        let dir = spill_dir("exact-fit");
        let edges = pseudo_random_edges(32, 256);
        let mut builder = EdgeListBuilder::with_chunk_capacity(32, 64)
            .with_memory_budget(MemoryBudget::bytes((256 * SPILL_RECORD_BYTES) as u64))
            .with_spill_dir(&dir);
        for &e in &edges {
            builder.push(e).unwrap();
        }
        assert_eq!(builder.spilled_chunks(), 0);
        assert_eq!(builder.try_finish().unwrap(), reference(32, &edges));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn symmetric_push_matches_symmetrize() {
        let n = 20usize;
        let pairs: &[(u32, u32)] = &[(0, 1), (5, 2), (19, 0), (5, 2), (3, 4)];
        let mut builder = EdgeListBuilder::with_chunk_capacity(n, 3);
        for &(s, d) in pairs {
            builder.push_symmetric(Edge::new(s, d)).unwrap();
        }
        let built = builder.finish();
        let mut reference = EdgeList::from_pairs(n, pairs).unwrap();
        reference.symmetrize();
        assert_eq!(built, reference);
    }

    #[test]
    fn extend_from_slice_seals_and_spills_like_single_pushes() {
        let n = 40usize;
        let edges = pseudo_random_edges(n, 1000);
        let dir = spill_dir("extend");
        for (capacity, budget) in [
            (7, MemoryBudget::unbounded()),
            (64, MemoryBudget::bytes(200)),
        ] {
            let builder = || {
                EdgeListBuilder::with_chunk_capacity(n, capacity)
                    .with_memory_budget(budget)
                    .with_spill_dir(&dir)
                    .with_recorder(Recorder::detached())
            };
            let mut pushed = builder();
            for &e in &edges {
                pushed.push(e).unwrap();
            }
            let mut extended = builder();
            for run in edges.chunks(93) {
                extended.extend_from_slice(run).unwrap();
            }
            assert_eq!(extended.len(), pushed.len());
            assert_eq!(extended.spilled_chunks(), pushed.spilled_chunks());
            assert_eq!(extended.peak_resident_bytes(), pushed.peak_resident_bytes());
            assert_eq!(extended.try_finish().unwrap(), pushed.try_finish().unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_inputs_sort_to_the_same_list() {
        // Radix buckets with fewer edges than sources take a comparison
        // sort, the others a counting pass. Both are collect → sort → dedup,
        // up to node ids that use all 32 bits.
        for n in [3_000_000_000usize, 100_000, 3000, 50] {
            let edges = pseudo_random_edges(n, 300);
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, 64);
            builder.extend_from_slice(&edges).unwrap();
            assert_eq!(builder.finish(), reference(n, &edges), "n {n}");
        }
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut builder = EdgeListBuilder::new(3);
        assert!(matches!(
            builder.push(Edge::new(0, 3)),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
        assert!(builder.push_symmetric(Edge::new(4, 0)).is_err());
        assert!(matches!(
            builder.extend_from_slice(&[Edge::new(0, 1), Edge::new(5, 0)]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(builder.is_empty());
    }

    #[test]
    fn empty_builder_finishes_to_an_empty_list() {
        let builder = EdgeListBuilder::new(10);
        let edges = builder.finish();
        assert!(edges.is_empty());
        assert_eq!(edges.num_nodes(), 10);
    }

    #[test]
    fn len_counts_raw_edges_across_chunks() {
        let mut builder = EdgeListBuilder::with_chunk_capacity(4, 2);
        for _ in 0..5 {
            builder.push(Edge::new(0, 1)).unwrap();
        }
        assert_eq!(builder.len(), 5);
        assert!(!builder.is_empty());
        // Duplicates collapse on finish.
        assert_eq!(builder.finish().num_edges(), 1);
    }
}

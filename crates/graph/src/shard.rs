use crate::edge_list::{merge_sorted_unique, self_loops};
use crate::{Edge, EdgeList, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Range};

/// Bytes per edge record streamed by the Shard Edge Fetch unit (32-bit source
/// id + 32-bit destination id).
pub const BYTES_PER_EDGE: u64 = 8;
/// Bytes per feature element (fp32) moved by the Shard Feature Fetch unit.
pub const BYTES_PER_FEATURE_ELEMENT: u64 = 4;

/// Traversal order over the 2-D shard grid (Section IV-A, Table I).
///
/// * **Source-stationary** walks across a *row* of the grid: one block of
///   source vertices stays on-chip for the whole row while destination
///   blocks are written back and reloaded.
/// * **Destination-stationary** walks down a *column*: one block of
///   destination vertices (the accumulators) stays on-chip until it has
///   finished aggregating, while source blocks are reloaded.
///
/// The paper assumes an S-pattern (serpentine) walk so that one operand block
/// carries over between consecutive shards; the iterators here follow that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TraversalOrder {
    /// Keep a source block on-chip and sweep destinations.
    SourceStationary,
    /// Keep a destination block on-chip and sweep sources (Algorithm 1's
    /// destination-major loop nest). This is the default because it lets
    /// aggregation finish a destination block before feature extraction.
    #[default]
    DestinationStationary,
}

impl fmt::Display for TraversalOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraversalOrder::SourceStationary => f.write_str("src-stationary"),
            TraversalOrder::DestinationStationary => f.write_str("dst-stationary"),
        }
    }
}

/// Position of a shard in the grid: `(src_block, dst_block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ShardCoord {
    /// Index of the source-node block (grid row).
    pub src_block: usize,
    /// Index of the destination-node block (grid column).
    pub dst_block: usize,
}

impl ShardCoord {
    /// Creates a new coordinate.
    pub fn new(src_block: usize, dst_block: usize) -> Self {
        Self {
            src_block,
            dst_block,
        }
    }
}

impl fmt::Display for ShardCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.src_block, self.dst_block)
    }
}

/// Precomputed metadata of one *occupied* shard: everything the timing
/// simulator and the traffic models need, without touching the shard's edges.
///
/// A [`ShardSummary`] stores one `ShardMeta` per non-empty grid cell. The edge
/// count and the distinct-endpoint counts are fixed at build time, so the
/// cycle/byte cost of processing a shard under any feature-block width is a
/// couple of multiplies away — the simulator's hot loop never walks edge
/// lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMeta {
    coord: ShardCoord,
    /// Edges of the row-major shards before this one: the start of this
    /// shard's edges in a [`ShardGrid`]'s arena.
    edge_start: u32,
    num_edges: u32,
    unique_sources: u32,
    unique_destinations: u32,
}

impl ShardMeta {
    /// The shard's grid coordinate.
    pub fn coord(&self) -> ShardCoord {
        self.coord
    }

    /// Number of edges in the shard (always positive: only occupied shards
    /// have metadata).
    pub fn num_edges(&self) -> usize {
        self.num_edges as usize
    }

    /// Number of distinct source nodes referenced by the shard's edges.
    ///
    /// The Shard Feature Fetch unit must bring these nodes' features (or the
    /// active block of their dimensions) on-chip before compute starts.
    pub fn unique_source_count(&self) -> usize {
        self.unique_sources as usize
    }

    /// Number of distinct destination nodes referenced by the shard's edges.
    pub fn unique_destination_count(&self) -> usize {
        self.unique_destinations as usize
    }

    /// Bytes of edge records the Shard Edge Fetch unit streams for this shard.
    pub fn edge_fetch_bytes(&self) -> u64 {
        self.num_edges as u64 * BYTES_PER_EDGE
    }

    /// Bytes of source-node features fetched when `block_dim` feature
    /// dimensions are resident.
    pub fn source_feature_bytes(&self, block_dim: usize) -> u64 {
        self.unique_sources as u64 * block_dim as u64 * BYTES_PER_FEATURE_ELEMENT
    }

    /// Bytes of destination accumulators touched when `block_dim` feature
    /// dimensions are resident (one spill *or* one reload; Table I's
    /// write-cost term pays it twice).
    pub fn destination_feature_bytes(&self, block_dim: usize) -> u64 {
        self.unique_destinations as u64 * block_dim as u64 * BYTES_PER_FEATURE_ELEMENT
    }

    fn edge_range(&self) -> Range<usize> {
        let start = self.edge_start as usize;
        start..start + self.num_edges as usize
    }

    /// Raw constructor used by the artifact cache's deserialiser.
    pub(crate) fn from_raw(
        coord: ShardCoord,
        edge_start: u32,
        num_edges: u32,
        unique_sources: u32,
        unique_destinations: u32,
    ) -> Self {
        Self {
            coord,
            edge_start,
            num_edges,
            unique_sources,
            unique_destinations,
        }
    }
}

/// The occupancy summary of a 2-D shard grid: everything a [`ShardGrid`]
/// holds except its edges.
///
/// GNNerator's timing model prices every shard from three numbers — its
/// edge count, distinct sources and distinct destinations (Table I,
/// Algorithm 1) — so the simulator, the compiler and the traffic models
/// read a summary, never an edge. A summary keeps:
///
/// * one [`ShardMeta`] per *occupied* shard, row-major (`src_block` outer);
/// * CSR-style offset indexes over both grid axes (`row_offsets` for
///   source-stationary walks, `col_offsets`/`col_entries` for
///   destination-stationary walks), so traversals touch only occupied
///   cells.
///
/// Memory is `O(occupied + S)`, independent of the edge count.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{EdgeList, ShardGrid, ShardSummary, TraversalOrder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(6, &[(0, 5), (2, 4), (3, 1), (5, 0)])?;
/// let summary = ShardSummary::build(&edges, 3, false)?;
/// assert_eq!(summary.grid_dim(), 2);
/// assert_eq!(summary.total_edges(), 4);
/// // The four edges land in two of the four grid cells; the occupancy-aware
/// // walk visits only those.
/// assert_eq!(summary.occupied_shards(), 2);
/// assert_eq!(summary.occupied_traversal(TraversalOrder::default()).count(), 2);
/// // The same metadata the arena-sorting reference build derives.
/// assert_eq!(&summary, ShardGrid::build(&edges, 3)?.summary());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSummary {
    num_nodes: usize,
    nodes_per_shard: usize,
    grid_dim: usize,
    /// Metadata of occupied shards, row-major (`src_block` outer).
    metas: Vec<ShardMeta>,
    /// `metas[row_offsets[i]..row_offsets[i + 1]]` are row `i`'s occupied
    /// shards, in ascending `dst_block` order.
    row_offsets: Vec<usize>,
    /// Indices into `metas`, sorted column-major (`dst_block` outer).
    col_entries: Vec<usize>,
    /// `col_entries[col_offsets[j]..col_offsets[j + 1]]` are column `j`'s
    /// occupied shards, in ascending `src_block` order.
    col_offsets: Vec<usize>,
}

impl ShardSummary {
    /// Summarises the sharding of `edges` with at most `nodes_per_shard`
    /// nodes per block, after merging in one self-loop per node when
    /// `include_self_loops` is set (duplicates dropped, exactly as
    /// [`EdgeList::add_self_loops`] does).
    ///
    /// One `O(E)` pass over the `(src, dst)`-sorted edges, with no edge
    /// copy: source blocks arrive as contiguous row groups, so a row needs
    /// only a per-destination-block edge count, the last source seen per
    /// block (distinct sources) and epoch-stamped per-node marks (distinct
    /// destinations). An unsorted list is sorted into a copy first.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is
    /// zero, the edge list has no nodes, or the edge count exceeds the
    /// 32-bit index space.
    pub fn build(
        edges: &EdgeList,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Self, GraphError> {
        Self::scan(edges, nodes_per_shard, include_self_loops).map(|(summary, _)| summary)
    }

    /// [`ShardSummary::build`], also returning the scan's transient
    /// working set in bytes (the node marks, the per-block cells and, for
    /// an unsorted list, the sorted copy).
    pub(crate) fn scan(
        edges: &EdgeList,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<(Self, u64), GraphError> {
        let num_nodes = edges.num_nodes();
        validate_shape(num_nodes, nodes_per_shard)?;
        let loops = if include_self_loops { num_nodes } else { 0 };
        if edges.num_edges() + loops > u32::MAX as usize || num_nodes > u32::MAX as usize {
            return Err(GraphError::invalid(
                "edges",
                "graph exceeds the 32-bit index space",
            ));
        }
        let sorted: Cow<'_, [Edge]> = if edges.is_sorted() {
            Cow::Borrowed(edges.as_slice())
        } else {
            let mut copy = edges.as_slice().to_vec();
            copy.sort_unstable();
            Cow::Owned(copy)
        };
        let mut scan = SummaryScan::new(num_nodes, nodes_per_shard);
        let scratch = scan.bytes()
            + match &sorted {
                Cow::Borrowed(_) => 0,
                Cow::Owned(copy) => copy.len() as u64 * BYTES_PER_EDGE,
            };
        if include_self_loops {
            merge_sorted_unique(sorted.iter().copied(), self_loops(num_nodes))
                .for_each(|edge| scan.push(edge));
        } else {
            sorted.iter().for_each(|&edge| scan.push(edge));
        }
        Ok((scan.finish(), scratch))
    }

    /// Assembles a summary from row-major occupied-shard metadata,
    /// deriving the CSR-style row/column indexes (cheap linear passes, so
    /// they are rebuilt rather than stored).
    pub(crate) fn from_metas(
        num_nodes: usize,
        nodes_per_shard: usize,
        metas: Vec<ShardMeta>,
    ) -> Self {
        let grid_dim = num_nodes.div_ceil(nodes_per_shard);

        // Row index: metas are already row-major, so offsets come from one
        // counting pass.
        let mut row_offsets = vec![0usize; grid_dim + 1];
        for meta in &metas {
            row_offsets[meta.coord.src_block + 1] += 1;
        }
        for i in 0..grid_dim {
            row_offsets[i + 1] += row_offsets[i];
        }

        // Column index: a permutation of the meta indices grouped by
        // destination block, ascending source block within each group.
        let mut col_offsets = vec![0usize; grid_dim + 1];
        for meta in &metas {
            col_offsets[meta.coord.dst_block + 1] += 1;
        }
        for j in 0..grid_dim {
            col_offsets[j + 1] += col_offsets[j];
        }
        let mut col_entries = vec![0usize; metas.len()];
        let mut cursor = col_offsets.clone();
        for (index, meta) in metas.iter().enumerate() {
            let slot = cursor[meta.coord.dst_block];
            col_entries[slot] = index;
            cursor[meta.coord.dst_block] += 1;
        }

        Self {
            num_nodes,
            nodes_per_shard,
            grid_dim,
            metas,
            row_offsets,
            col_entries,
            col_offsets,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Maximum number of nodes per block (the paper's tunable `n`).
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// Width/height of the square shard grid (the paper's `S`).
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Total number of edges across all shards.
    pub fn total_edges(&self) -> usize {
        self.metas.last().map_or(0, |meta| meta.edge_range().end)
    }

    /// Number of shards that contain at least one edge.
    pub fn occupied_shards(&self) -> usize {
        self.metas.len()
    }

    /// Metadata of every occupied shard, row-major.
    pub fn metas(&self) -> &[ShardMeta] {
        &self.metas
    }

    /// Metadata of the shard at `coord`, or `None` if it holds no edges.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn meta(&self, coord: ShardCoord) -> Option<&ShardMeta> {
        assert!(
            coord.src_block < self.grid_dim && coord.dst_block < self.grid_dim,
            "shard {coord} out of range for {0}x{0} grid",
            self.grid_dim
        );
        let row = self.row_metas(coord.src_block);
        row.binary_search_by_key(&coord.dst_block, |m| m.coord.dst_block)
            .ok()
            .map(|offset| &row[offset])
    }

    /// Metadata of row `src_block`'s occupied shards, ascending `dst_block`.
    ///
    /// # Panics
    ///
    /// Panics if `src_block >= grid_dim`.
    pub fn row_metas(&self, src_block: usize) -> &[ShardMeta] {
        assert!(src_block < self.grid_dim, "row {src_block} out of range");
        &self.metas[self.row_offsets[src_block]..self.row_offsets[src_block + 1]]
    }

    /// Metadata of column `dst_block`'s occupied shards, ascending
    /// `src_block`.
    ///
    /// # Panics
    ///
    /// Panics if `dst_block >= grid_dim`.
    pub fn column_metas(&self, dst_block: usize) -> impl Iterator<Item = &ShardMeta> + '_ {
        assert!(dst_block < self.grid_dim, "column {dst_block} out of range");
        self.col_entries[self.col_offsets[dst_block]..self.col_offsets[dst_block + 1]]
            .iter()
            .map(move |&index| &self.metas[index])
    }

    /// The contiguous range of node ids belonging to block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= grid_dim`.
    pub fn block_nodes(&self, block: usize) -> Range<NodeId> {
        assert!(block < self.grid_dim, "block {block} out of range");
        let start = (block * self.nodes_per_shard) as NodeId;
        let end = ((block + 1) * self.nodes_per_shard).min(self.num_nodes) as NodeId;
        start..end
    }

    /// Number of nodes in block `block`.
    pub fn block_len(&self, block: usize) -> usize {
        let r = self.block_nodes(block);
        (r.end - r.start) as usize
    }

    /// Fraction of shards that contain at least one edge.
    ///
    /// Real-world graphs sharded this way are sparse at the shard level too;
    /// this statistic feeds the report's locality section and quantifies how
    /// much work the occupancy-aware traversals skip.
    pub fn occupancy(&self) -> f64 {
        let cells = self.grid_dim * self.grid_dim;
        if cells == 0 {
            return 0.0;
        }
        self.metas.len() as f64 / cells as f64
    }

    /// Maximum number of edges in any single shard.
    pub fn max_shard_edges(&self) -> usize {
        self.metas
            .iter()
            .map(ShardMeta::num_edges)
            .max()
            .unwrap_or(0)
    }

    /// Returns every grid coordinate — occupied or not — in the S-pattern
    /// (serpentine) order for the given traversal.
    ///
    /// For [`TraversalOrder::DestinationStationary`] the walk proceeds column
    /// by column (destination block outer loop), alternating the direction of
    /// each column so consecutive shards share a source block boundary. For
    /// [`TraversalOrder::SourceStationary`] the walk proceeds row by row.
    ///
    /// The iterator is allocation-free: coordinates are computed from a
    /// linear index. For walks that should skip empty cells, use
    /// [`ShardSummary::occupied_traversal`].
    pub fn traversal(&self, order: TraversalOrder) -> SerpentineCoords {
        SerpentineCoords {
            grid_dim: self.grid_dim,
            order,
            next: 0,
            total: self.grid_dim * self.grid_dim,
        }
    }

    /// Returns the *occupied* shards' metadata in the same S-pattern order
    /// as [`ShardSummary::traversal`], skipping empty cells via the sparse
    /// index.
    ///
    /// This is the subsequence of the full serpentine walk restricted to
    /// shards that actually contain edges, so any consumer for whom empty
    /// shards are no-ops (the timing simulator, the functional executor)
    /// observes an identical processing order at `O(occupied + S)` cost
    /// instead of `O(S²)`.
    pub fn occupied_traversal(&self, order: TraversalOrder) -> OccupiedTraversal<'_> {
        OccupiedTraversal {
            summary: self,
            order,
            outer: 0,
            group: 0..0,
            reverse: false,
        }
    }
}

/// Rejects the sharding parameters no grid can be built from.
fn validate_shape(num_nodes: usize, nodes_per_shard: usize) -> Result<(), GraphError> {
    if nodes_per_shard == 0 {
        return Err(GraphError::invalid("nodes_per_shard", "must be positive"));
    }
    if num_nodes == 0 {
        return Err(GraphError::invalid("edges", "graph has no nodes"));
    }
    Ok(())
}

/// Per-destination-block state of the source-block row being scanned.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    edges: u32,
    last_src: NodeId,
    sources: u32,
    destinations: u32,
}

/// The streaming pass behind [`ShardSummary::build`]: consumes a
/// `(src, dst)`-sorted edge sequence one source-block row at a time.
struct SummaryScan {
    num_nodes: usize,
    nodes_per_shard: usize,
    /// `marks[v] == row + 1` once node `v` has been counted as a destination
    /// in row `row` (a node lies in one destination block, so per-row marks
    /// count per-shard distinct destinations).
    marks: Vec<u32>,
    cells: Vec<Cell>,
    /// Destination blocks of the open row that hold edges, first-seen order.
    touched: Vec<usize>,
    row: usize,
    next_start: u32,
    metas: Vec<ShardMeta>,
}

impl SummaryScan {
    fn new(num_nodes: usize, nodes_per_shard: usize) -> Self {
        SummaryScan {
            num_nodes,
            nodes_per_shard,
            marks: vec![0; num_nodes],
            cells: vec![Cell::default(); num_nodes.div_ceil(nodes_per_shard)],
            touched: Vec::new(),
            row: 0,
            next_start: 0,
            metas: Vec::new(),
        }
    }

    fn bytes(&self) -> u64 {
        (self.marks.len() * std::mem::size_of::<u32>()
            + self.cells.len() * std::mem::size_of::<Cell>()) as u64
    }

    fn push(&mut self, edge: Edge) {
        let row = edge.src as usize / self.nodes_per_shard;
        if row != self.row {
            self.close_row();
            self.row = row;
        }
        let col = edge.dst as usize / self.nodes_per_shard;
        let cell = &mut self.cells[col];
        if cell.edges == 0 {
            self.touched.push(col);
            cell.sources = 1;
            cell.last_src = edge.src;
        } else if cell.last_src != edge.src {
            cell.sources += 1;
            cell.last_src = edge.src;
        }
        cell.edges += 1;
        let epoch = row as u32 + 1;
        let mark = &mut self.marks[edge.dst as usize];
        if *mark != epoch {
            *mark = epoch;
            cell.destinations += 1;
        }
    }

    /// Emits the open row's occupied shards in ascending destination block.
    fn close_row(&mut self) {
        self.touched.sort_unstable();
        for &col in &self.touched {
            let cell = std::mem::take(&mut self.cells[col]);
            self.metas.push(ShardMeta {
                coord: ShardCoord::new(self.row, col),
                edge_start: self.next_start,
                num_edges: cell.edges,
                unique_sources: cell.sources,
                unique_destinations: cell.destinations,
            });
            self.next_start += cell.edges;
        }
        self.touched.clear();
    }

    fn finish(mut self) -> ShardSummary {
        self.close_row();
        ShardSummary::from_metas(self.num_nodes, self.nodes_per_shard, self.metas)
    }
}

/// A view of one shard: its metadata plus its run of edges.
///
/// Produced by [`ShardGrid::shard`] and [`ShardGrid::iter`]; the edges
/// borrow the grid's arena.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    coord: ShardCoord,
    meta: Option<&'a ShardMeta>,
    edges: &'a [Edge],
}

impl<'a> ShardView<'a> {
    /// The shard's grid coordinate.
    pub fn coord(&self) -> ShardCoord {
        self.coord
    }

    /// The shard's metadata, or `None` if the shard is empty.
    pub fn meta(&self) -> Option<&'a ShardMeta> {
        self.meta
    }

    /// Edges contained in the shard, sorted by `(src, dst)`.
    pub fn edges(&self) -> &'a [Edge] {
        self.edges
    }

    /// Number of edges in the shard.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the shard contains no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of distinct source nodes referenced by the shard's edges.
    pub fn unique_source_count(&self) -> usize {
        self.meta.map_or(0, ShardMeta::unique_source_count)
    }

    /// Number of distinct destination nodes referenced by the shard's edges.
    pub fn unique_destination_count(&self) -> usize {
        self.meta.map_or(0, ShardMeta::unique_destination_count)
    }
}

/// A GridGraph-style two-dimensional shard grid (Figure 1) with its edges:
/// a [`ShardSummary`] plus one resident edge arena.
///
/// The node id space is cut into `grid_dim` contiguous blocks of at most
/// `nodes_per_shard` nodes; shard `(i, j)` holds every edge whose source lies
/// in block `i` and whose destination lies in block `j`. Each shard therefore
/// contains at most `nodes_per_shard²` edges, matching the paper's "maximum
/// of n² edges" definition.
///
/// The arena holds every edge sorted by `(src_block, dst_block, src, dst)`,
/// so each shard's edges are one contiguous slice; the summary's metadata
/// carries each shard's arena offset. Only the functional (value-level)
/// executor and the tests read edges; simulation runs on the summary alone.
/// The summary's accessors are available on the grid through `Deref`.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{EdgeList, ShardGrid, TraversalOrder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(6, &[(0, 5), (3, 1), (5, 0), (2, 4)])?;
/// let grid = ShardGrid::build(&edges, 3)?;
/// assert_eq!(grid.grid_dim(), 2);
/// assert_eq!(grid.total_edges(), 4);
/// let walked: usize = grid
///     .occupied_traversal(TraversalOrder::DestinationStationary)
///     .map(|meta| grid.edges_of(meta).len())
///     .sum();
/// assert_eq!(walked, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardGrid {
    summary: ShardSummary,
    /// Every edge, sorted by `(src_block, dst_block, src, dst)`.
    arena: Vec<Edge>,
}

impl ShardGrid {
    /// Builds a shard grid from an edge list, with at most `nodes_per_shard`
    /// source (and destination) nodes per shard.
    ///
    /// This is the reference the streaming [`ShardSummary::build`] is
    /// tested against, so it derives the metadata independently: a sort of
    /// the edge arena by shard coordinate followed by one linear scan per
    /// shard run — `O(E log E + S)` regardless of how empty the grid is.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is zero
    /// or the edge list has no nodes.
    pub fn build(edges: &EdgeList, nodes_per_shard: usize) -> Result<Self, GraphError> {
        let num_nodes = edges.num_nodes();
        validate_shape(num_nodes, nodes_per_shard)?;
        if edges.num_edges() > u32::MAX as usize {
            return Err(GraphError::invalid(
                "edges",
                "edge count exceeds the 32-bit arena index space",
            ));
        }
        let mut arena: Vec<Edge> = edges.iter().copied().collect();
        arena.sort_unstable_by_key(|e| {
            (
                e.src as usize / nodes_per_shard,
                e.dst as usize / nodes_per_shard,
                e.src,
                e.dst,
            )
        });

        // One scan over the sorted arena: each run of equal (src_block,
        // dst_block) is an occupied shard. Within a run edges are sorted by
        // (src, dst), so distinct sources fall out of adjacent comparisons;
        // distinct destinations need one small sort of the run's endpoints.
        let mut metas: Vec<ShardMeta> = Vec::new();
        let mut dst_scratch: Vec<NodeId> = Vec::new();
        let mut start = 0usize;
        while start < arena.len() {
            let coord = ShardCoord::new(
                arena[start].src as usize / nodes_per_shard,
                arena[start].dst as usize / nodes_per_shard,
            );
            let mut end = start + 1;
            while end < arena.len()
                && arena[end].src as usize / nodes_per_shard == coord.src_block
                && arena[end].dst as usize / nodes_per_shard == coord.dst_block
            {
                end += 1;
            }
            let run = &arena[start..end];
            let unique_sources = 1 + run.windows(2).filter(|w| w[0].src != w[1].src).count();
            dst_scratch.clear();
            dst_scratch.extend(run.iter().map(|e| e.dst));
            dst_scratch.sort_unstable();
            dst_scratch.dedup();
            metas.push(ShardMeta {
                coord,
                edge_start: start as u32,
                num_edges: (end - start) as u32,
                unique_sources: unique_sources as u32,
                unique_destinations: dst_scratch.len() as u32,
            });
            start = end;
        }

        Ok(Self {
            summary: ShardSummary::from_metas(num_nodes, nodes_per_shard, metas),
            arena,
        })
    }

    /// The grid's occupancy summary (everything but the edges).
    pub fn summary(&self) -> &ShardSummary {
        &self.summary
    }

    /// The edge arena, sorted by `(src_block, dst_block, src, dst)`.
    pub fn edges(&self) -> &[Edge] {
        &self.arena
    }

    /// The edges of the shard described by `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `meta` did not come from this grid and indexes out of the
    /// arena.
    pub fn edges_of(&self, meta: &ShardMeta) -> &[Edge] {
        &self.arena[meta.edge_range()]
    }

    /// The shard at `coord` (empty cells return an edge-less view rather
    /// than failing).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn shard(&self, coord: ShardCoord) -> ShardView<'_> {
        let meta = self.summary.meta(coord);
        ShardView {
            coord,
            meta,
            edges: meta.map_or(&[], |meta| self.edges_of(meta)),
        }
    }

    /// Iterates over the occupied shards in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ShardView<'_>> + '_ {
        self.summary.metas.iter().map(move |meta| ShardView {
            coord: meta.coord,
            meta: Some(meta),
            edges: self.edges_of(meta),
        })
    }
}

impl Deref for ShardGrid {
    type Target = ShardSummary;

    fn deref(&self) -> &ShardSummary {
        &self.summary
    }
}

/// Allocation-free serpentine coordinate iterator returned by
/// [`ShardSummary::traversal`].
#[derive(Debug, Clone)]
pub struct SerpentineCoords {
    grid_dim: usize,
    order: TraversalOrder,
    next: usize,
    total: usize,
}

impl Iterator for SerpentineCoords {
    type Item = ShardCoord;

    fn next(&mut self) -> Option<ShardCoord> {
        if self.next >= self.total {
            return None;
        }
        let s = self.grid_dim;
        let outer = self.next / s;
        let raw = self.next % s;
        let inner = if outer % 2 == 0 { raw } else { s - 1 - raw };
        self.next += 1;
        Some(match self.order {
            TraversalOrder::DestinationStationary => ShardCoord::new(inner, outer),
            TraversalOrder::SourceStationary => ShardCoord::new(outer, inner),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SerpentineCoords {}

/// Occupied-only serpentine shard iterator returned by
/// [`ShardSummary::occupied_traversal`].
///
/// Walks the sparse row/column index group by group, reversing every other
/// group to follow the S-pattern, and yields the [`ShardMeta`] of each
/// occupied shard.
#[derive(Debug, Clone)]
pub struct OccupiedTraversal<'a> {
    summary: &'a ShardSummary,
    order: TraversalOrder,
    /// Next outer row/column group to open.
    outer: usize,
    /// Remaining entry range of the currently open group.
    group: Range<usize>,
    /// Whether the open group is consumed back to front.
    reverse: bool,
}

impl<'a> Iterator for OccupiedTraversal<'a> {
    type Item = &'a ShardMeta;

    fn next(&mut self) -> Option<&'a ShardMeta> {
        let summary = self.summary;
        loop {
            if !self.group.is_empty() {
                let entry = if self.reverse {
                    self.group.end -= 1;
                    self.group.end
                } else {
                    self.group.start += 1;
                    self.group.start - 1
                };
                return Some(match self.order {
                    TraversalOrder::SourceStationary => &summary.metas[entry],
                    TraversalOrder::DestinationStationary => {
                        &summary.metas[summary.col_entries[entry]]
                    }
                });
            }
            if self.outer >= summary.grid_dim {
                return None;
            }
            let offsets = match self.order {
                TraversalOrder::SourceStationary => &summary.row_offsets,
                TraversalOrder::DestinationStationary => &summary.col_offsets,
            };
            self.group = offsets[self.outer]..offsets[self.outer + 1];
            self.reverse = self.outer % 2 == 1;
            self.outer += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> EdgeList {
        EdgeList::from_pairs(
            8,
            &[
                (0, 1),
                (0, 7),
                (1, 4),
                (2, 3),
                (3, 6),
                (4, 0),
                (5, 2),
                (6, 5),
                (7, 7),
                (7, 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_rejects_bad_parameters() {
        let edges = sample_edges();
        assert!(ShardGrid::build(&edges, 0).is_err());
        let empty = EdgeList::new(0);
        assert!(ShardGrid::build(&empty, 4).is_err());
    }

    /// The summary a streaming build must reproduce: the reference grid's,
    /// built from the list the plan cache would shard.
    fn reference_summary(edges: &EdgeList, nps: usize, loops: bool) -> ShardSummary {
        let mut edges = edges.clone();
        if loops {
            edges.add_self_loops();
        }
        ShardGrid::build(&edges, nps).unwrap().summary().clone()
    }

    #[test]
    fn summary_build_matches_the_reference_grid() {
        let unsorted = sample_edges();
        assert!(!unsorted.is_sorted());
        let mut sorted: Vec<Edge> = unsorted.iter().copied().collect();
        sorted.sort_unstable();
        let sorted = EdgeList::from_edges(8, sorted).unwrap();
        // Duplicates and an existing self-loop, which the loop merge drops.
        let duplicated =
            EdgeList::from_pairs(5, &[(0, 0), (0, 3), (0, 3), (2, 4), (4, 1)]).unwrap();
        for edges in [&unsorted, &sorted, &duplicated, &EdgeList::new(5)] {
            for nps in [1, 2, 3, 4, 8, 16] {
                for loops in [false, true] {
                    assert_eq!(
                        ShardSummary::build(edges, nps, loops).unwrap(),
                        reference_summary(edges, nps, loops),
                        "nps={nps} loops={loops} {edges:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_build_rejects_bad_parameters() {
        let edges = sample_edges();
        assert!(ShardSummary::build(&edges, 0, false).is_err());
        assert!(ShardSummary::build(&EdgeList::new(0), 4, true).is_err());
    }

    #[test]
    fn grid_dimensions() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        assert_eq!(grid.grid_dim(), 2);
        assert_eq!(grid.num_nodes(), 8);
        assert_eq!(grid.nodes_per_shard(), 4);
        let grid3 = ShardGrid::build(&edges, 3).unwrap();
        assert_eq!(grid3.grid_dim(), 3);
    }

    #[test]
    fn every_edge_lands_in_exactly_one_shard() {
        let edges = sample_edges();
        for nps in [1, 2, 3, 4, 8, 16] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            assert_eq!(
                grid.total_edges(),
                edges.num_edges(),
                "nodes_per_shard={nps}"
            );
            let from_shards: usize = grid.iter().map(|s| s.num_edges()).sum();
            assert_eq!(from_shards, edges.num_edges(), "nodes_per_shard={nps}");
        }
    }

    #[test]
    fn edges_are_placed_in_the_correct_shard() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        for shard in grid.iter() {
            assert!(!shard.is_empty(), "iter() yields only occupied shards");
            for e in shard.edges() {
                assert_eq!(e.src as usize / 4, shard.coord().src_block);
                assert_eq!(e.dst as usize / 4, shard.coord().dst_block);
            }
        }
    }

    #[test]
    fn arena_is_sorted_and_shards_are_contiguous_slices() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        let mut offset = 0;
        for meta in grid.metas() {
            let slice = grid.edges_of(meta);
            assert_eq!(slice.as_ptr(), grid.edges()[offset..].as_ptr());
            offset += slice.len();
            // Within a shard, edges are sorted by (src, dst).
            assert!(slice.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(offset, grid.total_edges());
    }

    #[test]
    fn shard_edge_count_is_bounded_by_n_squared() {
        let edges = sample_edges();
        for nps in [1, 2, 4] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            assert!(grid.max_shard_edges() <= nps * nps);
        }
    }

    #[test]
    fn unique_endpoint_counts() {
        let edges = EdgeList::from_pairs(4, &[(0, 2), (0, 3), (1, 2)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        let shard = grid.shard(ShardCoord::new(0, 1));
        assert_eq!(shard.unique_source_count(), 2);
        assert_eq!(shard.unique_destination_count(), 2);
        assert_eq!(shard.num_edges(), 3);
        // The other three cells of the 2x2 grid are empty views.
        let empty = grid.shard(ShardCoord::new(1, 0));
        assert!(empty.is_empty());
        assert!(empty.meta().is_none());
        assert_eq!(empty.unique_source_count(), 0);
        assert_eq!(empty.unique_destination_count(), 0);
        assert_eq!(grid.occupied_shards(), 1);
    }

    #[test]
    fn meta_fetch_byte_costs() {
        let edges = EdgeList::from_pairs(4, &[(0, 2), (0, 3), (1, 2)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        let meta = *grid.shard(ShardCoord::new(0, 1)).meta().unwrap();
        assert_eq!(meta.edge_fetch_bytes(), 3 * BYTES_PER_EDGE);
        assert_eq!(
            meta.source_feature_bytes(64),
            2 * 64 * BYTES_PER_FEATURE_ELEMENT
        );
        assert_eq!(
            meta.destination_feature_bytes(16),
            2 * 16 * BYTES_PER_FEATURE_ELEMENT
        );
    }

    #[test]
    fn block_nodes_last_block_may_be_short() {
        let edges = EdgeList::from_pairs(7, &[(0, 6)]).unwrap();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        assert_eq!(grid.grid_dim(), 3);
        assert_eq!(grid.block_nodes(0), 0..3);
        assert_eq!(grid.block_nodes(2), 6..7);
        assert_eq!(grid.block_len(2), 1);
    }

    #[test]
    fn traversal_visits_every_shard_once() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        for order in [
            TraversalOrder::SourceStationary,
            TraversalOrder::DestinationStationary,
        ] {
            let coords: Vec<ShardCoord> = grid.traversal(order).collect();
            assert_eq!(coords.len(), 9);
            assert_eq!(grid.traversal(order).len(), 9);
            let mut sorted = coords.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 9, "every coordinate visited exactly once");
        }
    }

    #[test]
    fn dst_stationary_traversal_is_column_major_serpentine() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let coords: Vec<ShardCoord> = grid
            .traversal(TraversalOrder::DestinationStationary)
            .collect();
        assert_eq!(
            coords,
            vec![
                ShardCoord::new(0, 0),
                ShardCoord::new(1, 0),
                ShardCoord::new(1, 1),
                ShardCoord::new(0, 1),
            ]
        );
    }

    #[test]
    fn src_stationary_traversal_is_row_major_serpentine() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let coords: Vec<ShardCoord> = grid.traversal(TraversalOrder::SourceStationary).collect();
        assert_eq!(
            coords,
            vec![
                ShardCoord::new(0, 0),
                ShardCoord::new(0, 1),
                ShardCoord::new(1, 1),
                ShardCoord::new(1, 0),
            ]
        );
    }

    #[test]
    fn occupied_traversal_is_the_serpentine_subsequence() {
        let edges = sample_edges();
        for nps in [1, 2, 3, 4] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            for order in [
                TraversalOrder::SourceStationary,
                TraversalOrder::DestinationStationary,
            ] {
                let expected: Vec<ShardCoord> = grid
                    .traversal(order)
                    .filter(|&c| !grid.shard(c).is_empty())
                    .collect();
                let occupied: Vec<ShardCoord> =
                    grid.occupied_traversal(order).map(|s| s.coord()).collect();
                assert_eq!(occupied, expected, "nps={nps} {order}");
            }
        }
    }

    #[test]
    fn rows_and_columns_index_occupied_shards() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        let mut row_total = 0;
        for src in 0..grid.grid_dim() {
            let mut prev = None;
            for meta in grid.row_metas(src) {
                assert_eq!(meta.coord().src_block, src);
                if let Some(p) = prev {
                    assert!(p < meta.coord().dst_block);
                }
                prev = Some(meta.coord().dst_block);
                row_total += meta.num_edges();
            }
        }
        assert_eq!(row_total, grid.total_edges());
        let mut col_total = 0;
        for dst in 0..grid.grid_dim() {
            let mut prev = None;
            for meta in grid.column_metas(dst) {
                assert_eq!(meta.coord().dst_block, dst);
                if let Some(p) = prev {
                    assert!(p < meta.coord().src_block);
                }
                prev = Some(meta.coord().src_block);
                col_total += meta.num_edges();
            }
        }
        assert_eq!(col_total, grid.total_edges());
    }

    #[test]
    fn occupancy_counts_non_empty_shards() {
        let edges = EdgeList::from_pairs(4, &[(0, 0), (0, 1)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        // Only shard (0, 0) has edges out of 4 shards.
        assert!((grid.occupancy() - 0.25).abs() < 1e-9);
        assert_eq!(grid.occupied_shards(), 1);
    }

    #[test]
    fn edgeless_graph_builds_an_empty_grid() {
        let edges = EdgeList::new(5);
        let grid = ShardGrid::build(&edges, 2).unwrap();
        assert_eq!(grid.grid_dim(), 3);
        assert_eq!(grid.occupied_shards(), 0);
        assert_eq!(grid.occupancy(), 0.0);
        assert_eq!(grid.max_shard_edges(), 0);
        assert_eq!(
            grid.occupied_traversal(TraversalOrder::default()).count(),
            0
        );
        assert_eq!(grid.traversal(TraversalOrder::default()).count(), 9);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ShardCoord::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(
            TraversalOrder::SourceStationary.to_string(),
            "src-stationary"
        );
        assert_eq!(
            TraversalOrder::DestinationStationary.to_string(),
            "dst-stationary"
        );
    }

    #[test]
    fn default_order_is_destination_stationary() {
        assert_eq!(
            TraversalOrder::default(),
            TraversalOrder::DestinationStationary
        );
    }
}

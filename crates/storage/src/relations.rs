//! The paper's two relations: the hash-clustered edge relation `S` and the
//! ISAM-indexed node relation `R` (Section 4).
//!
//! `S = (Begin-node, End-node, Edge-cost)` is read-only and clustered by
//! its "primary index (random hash) on the field S.Begin-node": all edges
//! with the same begin node live in the same bucket, so fetching
//! `u.adjacencyList` touches exactly the blocks that hold it (usually one,
//! since `|A| ≈ 4` and `Bf_s = 128`).
//!
//! `R = (node-id, x, y, status, path, path-cost)` holds the algorithms'
//! working state. Its `status` attribute implements frontier and explored
//! sets: "Nodes with status = open represent the frontierSet. Nodes with
//! status = closed represent the exploredSet. Node(s) with status = current
//! represent the current node(s) being explored."

use crate::error::StorageError;
use crate::heapfile::HeapFile;
use crate::io::IoStats;
use crate::isam::IsamIndex;
use crate::tuple::{EdgeTuple, NodeTuple, MAX_NODE_ID};
use atis_graph::grouped::Sharing;
use atis_graph::{Graph, NodeId, RoadClass};
use std::sync::Arc;

/// Rejects graphs whose node ids exceed the 24-bit tuple encoding.
fn check_node_capacity(n: usize) -> Result<(), StorageError> {
    if n > MAX_NODE_ID as usize + 1 {
        return Err(StorageError::CapacityExceeded {
            what: "node id",
            value: n,
            max: MAX_NODE_ID as usize + 1,
        });
    }
    Ok(())
}

/// The four-valued `status` attribute of `R` (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum NodeStatus {
    /// "not open, closed or current" — untouched.
    #[default]
    Null = 0,
    /// Member of the frontierSet.
    Open = 1,
    /// Member of the exploredSet.
    Closed = 2,
    /// Being explored in the current iteration.
    Current = 3,
}

impl NodeStatus {
    /// Decodes a status byte (unknown values collapse to `Null`, which can
    /// only arise from corrupted pages).
    pub fn from_u8(v: u8) -> NodeStatus {
        match v {
            1 => NodeStatus::Open,
            2 => NodeStatus::Closed,
            3 => NodeStatus::Current,
            _ => NodeStatus::Null,
        }
    }
}

fn road_class_code(class: RoadClass) -> u8 {
    match class {
        RoadClass::Street => 0,
        RoadClass::Highway => 1,
        RoadClass::Freeway => 2,
    }
}

/// The read-only edge relation `S`, hash-clustered on `Begin-node`.
///
/// Cloning is cheap — the bucket directory is shared outright and the
/// pages until written — which is what lets every epoch snapshot carry
/// its own `S`: a cost update copies the page it rewrites.
#[derive(Debug, Clone)]
pub struct EdgeRelation {
    heap: HeapFile<EdgeTuple>,
    /// Bucket directory: for node `u`, its adjacency occupies slots
    /// `bucket[u].0 .. bucket[u].0 + bucket[u].1`. Fixed at load.
    buckets: Arc<[(u32, u32)]>,
    avg_degree: f64,
}

impl EdgeRelation {
    /// Loads a graph's edges, clustered by begin node (the CSR order of
    /// [`Graph`] already groups them). Charges relation creation plus the
    /// `B_s` block writes of the bulk load.
    ///
    /// # Errors
    /// Fails if a node id exceeds the 24-bit tuple encoding.
    pub fn load(graph: &Graph, io: &mut IoStats) -> Result<Self, StorageError> {
        Self::load_inner(graph, None, io)
    }

    /// Loads a graph's edges into a **segmented** heap file of
    /// `segment_blocks` blocks per segment (see [`crate::heapfile`]),
    /// flushing incrementally whenever a segment fills — the streaming
    /// load path for metro-scale graphs, where staging the whole relation
    /// dirty before one big flush would defeat the layout. Charging is
    /// identical to [`EdgeRelation::load`]: every block write is metered
    /// exactly once.
    ///
    /// # Errors
    /// Fails if a node id exceeds the 24-bit tuple encoding or
    /// `segment_blocks` is zero.
    pub fn load_segmented(
        graph: &Graph,
        segment_blocks: usize,
        io: &mut IoStats,
    ) -> Result<Self, StorageError> {
        Self::load_inner(graph, Some(segment_blocks), io)
    }

    fn load_inner(
        graph: &Graph,
        segment_blocks: Option<usize>,
        io: &mut IoStats,
    ) -> Result<Self, StorageError> {
        let n = graph.node_count();
        check_node_capacity(n)?;
        let mut heap = match segment_blocks {
            Some(sb) => HeapFile::create_segmented(sb, io)?,
            None => HeapFile::create(io),
        };
        let flush_every = segment_blocks
            .map(|sb| sb * HeapFile::<EdgeTuple>::TUPLES_PER_BLOCK)
            .unwrap_or(usize::MAX);
        let mut staged = 0usize;
        for u in graph.node_ids() {
            for e in graph.neighbors(u) {
                let end_point = graph.point(e.to);
                heap.append(&EdgeTuple {
                    begin: e.from.0,
                    end: e.to.0,
                    cost: e.cost,
                    class: road_class_code(e.class),
                    occupancy: e.occupancy as f32,
                    end_x: end_point.x as f32,
                    end_y: end_point.y as f32,
                });
                staged += 1;
                if staged >= flush_every {
                    heap.flush(io)?;
                    staged = 0;
                }
            }
        }
        heap.flush(io)?;
        // Edges were appended in node order, so a bucket starts where
        // the degrees before it end.
        let mut start = 0u32;
        let buckets = graph
            .node_ids()
            .map(|u| {
                let bucket = (start, graph.degree(u) as u32);
                start += bucket.1;
                bucket
            })
            .collect();
        Ok(EdgeRelation {
            heap,
            buckets,
            avg_degree: graph.average_degree(),
        })
    }

    /// The heap file holding `S`, for its physical layout (segments,
    /// blocks).
    pub fn heap(&self) -> &HeapFile<EdgeTuple> {
        &self.heap
    }

    /// Attaches a buffer pool to `S` (an extension; see [`crate::buffer`]).
    pub fn attach_buffer(&mut self, pool: &crate::buffer::SharedBuffer) {
        self.heap.attach_buffer(pool);
    }

    /// Attaches fault-injection state to `S` (see [`crate::fault`]).
    pub fn attach_faults(&mut self, faults: &crate::fault::SharedFaults) {
        self.heap.attach_faults(faults);
    }

    /// `|S|`, the tuple count.
    pub fn tuple_count(&self) -> usize {
        self.heap.len()
    }

    /// `B_s`, the block count.
    pub fn block_count(&self) -> usize {
        self.heap.block_count()
    }

    /// `|A|`, the average adjacency-list length.
    pub fn average_degree(&self) -> f64 {
        self.avg_degree
    }

    /// How much of `S` is the very memory `other` holds: the bucket
    /// directory and each page count one part.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &EdgeRelation) -> Sharing {
        let mut sharing = self.heap.shared_with(&other.heap);
        let bytes = std::mem::size_of_val(&self.buckets[..]);
        sharing.part(&self.buckets, &other.buckets, bytes);
        sharing
    }

    /// Fetches `u.adjacencyList` through the hash index, charging the reads
    /// for the bucket's blocks (at least one — the bucket page is read even
    /// when the adjacency is empty).
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn fetch_adjacency(
        &self,
        u: u32,
        io: &mut IoStats,
    ) -> Result<Vec<EdgeTuple>, StorageError> {
        let Some(&(start, len)) = self.buckets.get(u as usize) else {
            io.read_blocks(1);
            return Ok(Vec::new());
        };
        if len == 0 {
            io.read_blocks(1);
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(len as usize);
        self.heap
            .scan_range(start as usize, (start + len) as usize, io, |_, t| {
                out.push(t)
            })?;
        Ok(out)
    }

    /// Visits the adjacency of `u` without charging I/O. Join strategies
    /// use this when their charging formula already covers the access
    /// (e.g. a nested-loop join has paid to scan all of `S`), so it is
    /// crate-private: no caller outside storage reads behind the meter.
    ///
    /// # Errors
    /// Surfaces checksum mismatches on corrupted blocks.
    pub(crate) fn peek_adjacency(
        &self,
        u: u32,
        mut visit: impl FnMut(&EdgeTuple),
    ) -> Result<(), StorageError> {
        if let Some(&(start, len)) = self.buckets.get(u as usize) {
            for slot in start..start + len {
                visit(&self.heap.peek_slot(slot as usize)?);
            }
        }
        Ok(())
    }

    /// Full scan of `S` in physical (begin-node clustered) order, charging
    /// `B_s` reads.
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn scan(
        &self,
        io: &mut IoStats,
        mut visit: impl FnMut(&EdgeTuple),
    ) -> Result<(), StorageError> {
        self.heap.scan(io, |_, t| visit(&t))
    }

    /// Updates the cost of every `(u, v)` tuple in place — the real-time
    /// re-costing an ATIS performs when travel times change. Charges the
    /// hash-bucket probe plus one tuple update per changed tuple. Returns
    /// how many tuples changed.
    ///
    /// # Errors
    /// Rejects negative or non-finite costs.
    pub fn update_cost(
        &mut self,
        u: u32,
        v: u32,
        cost: f64,
        io: &mut IoStats,
    ) -> Result<usize, StorageError> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(StorageError::InvalidValue(
                "edge cost must be finite and non-negative",
            ));
        }
        let Some(&(start, len)) = self.buckets.get(u as usize) else {
            io.read_blocks(1);
            return Ok(0);
        };
        io.read_blocks(1); // bucket probe
        let mut updated = 0;
        for slot in start..start + len {
            let t = self.heap.peek_slot(slot as usize)?;
            if t.end == v {
                self.heap
                    .update_slot(slot as usize, io, |t| t.cost = cost)?;
                updated += 1;
            }
        }
        Ok(updated)
    }

    /// Charges one full pass over `S` (buffer-aware) without decoding —
    /// the inner-relation rescan of a nested-loop join.
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn charge_scan(&self, io: &mut IoStats) -> Result<(), StorageError> {
        self.heap.charge_scan(io)
    }

    /// Charges the blocks a hash-bucket probe of `u` touches
    /// (buffer-aware, at least one block).
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn charge_probe(&self, u: u32, io: &mut IoStats) -> Result<(), StorageError> {
        let per_block = HeapFile::<EdgeTuple>::TUPLES_PER_BLOCK;
        match self.buckets.get(u as usize) {
            Some(&(start, len)) if len > 0 => {
                let first = start as usize / per_block;
                let last = (start + len - 1) as usize / per_block;
                for b in first..=last {
                    self.heap.charge_read(b, io)?;
                }
            }
            _ => {
                // Empty bucket: the bucket page is still read.
                if self.heap.block_count() == 0 {
                    io.read_blocks(1);
                } else {
                    self.heap.charge_read(0, io)?;
                }
            }
        }
        Ok(())
    }
}

/// The working node relation `R` with its ISAM primary index on node-id.
#[derive(Debug, Clone)]
pub struct NodeRelation {
    heap: HeapFile<NodeTuple>,
    isam: IsamIndex,
}

impl NodeRelation {
    /// Creates and bulk-loads `R` with one unreached tuple per graph node,
    /// then builds the ISAM index. Charges the paper's initialisation
    /// steps:
    ///
    /// * `C1` — relation creation (`I`);
    /// * `C2` — "Initializing R with all nodes in S": `B_s` reads (the
    ///   scan of `S` that discovers the nodes, taken from
    ///   `source_blocks`) + `B_r` writes;
    /// * `C3` — "Indexing and Sorting the node-relation by node-name":
    ///   `2 (B_r log B_r + B_r) t_update`, charged by the index build.
    ///
    /// `isam_levels` pins `I_l` (Table 4A uses 3).
    pub fn load(
        graph: &Graph,
        source_blocks: usize,
        isam_levels: u64,
        io: &mut IoStats,
    ) -> Result<Self, StorageError> {
        Self::load_inner(graph, source_blocks, isam_levels, None, io)
    }

    /// [`NodeRelation::load`] into a segmented heap file, flushing
    /// incrementally per segment (the streaming metro-scale load path;
    /// see [`crate::heapfile`]). Charging is identical to the unsegmented
    /// load.
    ///
    /// # Errors
    /// Fails if a node id exceeds the 24-bit tuple encoding or
    /// `segment_blocks` is zero.
    pub fn load_segmented(
        graph: &Graph,
        source_blocks: usize,
        isam_levels: u64,
        segment_blocks: usize,
        io: &mut IoStats,
    ) -> Result<Self, StorageError> {
        Self::load_inner(graph, source_blocks, isam_levels, Some(segment_blocks), io)
    }

    fn load_inner(
        graph: &Graph,
        source_blocks: usize,
        isam_levels: u64,
        segment_blocks: Option<usize>,
        io: &mut IoStats,
    ) -> Result<Self, StorageError> {
        let n = graph.node_count();
        check_node_capacity(n)?;
        let mut heap = match segment_blocks {
            Some(sb) => HeapFile::create_segmented(sb, io)?,
            None => HeapFile::create(io),
        };
        let flush_every = segment_blocks
            .map(|sb| sb * HeapFile::<NodeTuple>::TUPLES_PER_BLOCK)
            .unwrap_or(usize::MAX);
        io.read_blocks(source_blocks as u64); // C2 read side
        let mut staged = 0usize;
        for u in graph.node_ids() {
            let p = graph.point(u);
            heap.append(&NodeTuple::unreached(p.x as f32, p.y as f32));
            staged += 1;
            if staged >= flush_every {
                heap.flush(io)?;
                staged = 0;
            }
        }
        heap.flush(io)?; // C2 write side: B_r writes in total
        let isam = IsamIndex::build(n, heap.block_count(), Some(isam_levels), io); // C3
        Ok(NodeRelation { heap, isam })
    }

    /// Attaches a buffer pool to `R` (an extension; see [`crate::buffer`]).
    pub fn attach_buffer(&mut self, pool: &crate::buffer::SharedBuffer) {
        self.heap.attach_buffer(pool);
    }

    /// Attaches fault-injection state to `R`'s heap and ISAM index
    /// (see [`crate::fault`]).
    pub fn attach_faults(&mut self, faults: &crate::fault::SharedFaults) {
        self.heap.attach_faults(faults);
        self.isam.attach_faults(faults);
    }

    /// `|R|`, the tuple count.
    pub fn tuple_count(&self) -> usize {
        self.heap.len()
    }

    /// `B_r`, the block count.
    pub fn block_count(&self) -> usize {
        self.heap.block_count()
    }

    /// The charged ISAM probe depth `I_l`.
    pub fn isam_levels(&self) -> u64 {
        self.isam.levels()
    }

    /// Keyed read through the ISAM index: `I_l` index reads plus one data
    /// block read.
    ///
    /// # Errors
    /// Fails for unknown node ids.
    pub fn get(&self, id: u32, io: &mut IoStats) -> Result<NodeTuple, StorageError> {
        let slot = self.isam.probe(id, io)?;
        self.heap.read_slot(slot, io)
    }

    /// Uncharged read, for assertions and post-run inspection.
    ///
    /// # Errors
    /// Fails for unknown node ids.
    pub fn peek(&self, id: u32) -> Result<NodeTuple, StorageError> {
        self.heap.peek_slot(id as usize)
    }

    /// QUEL `REPLACE`: keyed in-place update through the index. Charges
    /// `I_l` index reads plus one tuple update. This is the operation the
    /// status-attribute frontier is built from (Section 5.3.1: "the QUEL
    /// command REPLACE instead of APPEND and DELETE").
    ///
    /// # Errors
    /// Fails for unknown node ids.
    pub fn replace(
        &mut self,
        id: u32,
        io: &mut IoStats,
        f: impl FnOnce(&mut NodeTuple),
    ) -> Result<(), StorageError> {
        let slot = self.isam.probe(id, io)?;
        self.heap.update_slot(slot, io, f)
    }

    /// Full scan in node-id order, charging `B_r` reads.
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn scan(
        &self,
        io: &mut IoStats,
        mut visit: impl FnMut(u32, &NodeTuple),
    ) -> Result<(), StorageError> {
        self.heap.scan(io, |slot, t| visit(slot as u32, &t))
    }

    /// Set-oriented rewrite pass (`REPLACE ... WHERE` over the whole
    /// relation); see [`HeapFile::rewrite`] for the charging rule.
    ///
    /// # Errors
    /// Surfaces injected read/write failures and checksum mismatches.
    pub fn rewrite(
        &mut self,
        io: &mut IoStats,
        mut visit: impl FnMut(u32, &mut NodeTuple) -> bool,
    ) -> Result<(), StorageError> {
        self.heap.rewrite(io, |slot, t| visit(slot as u32, t))
    }

    /// "Select u from frontierSet with minimum score" — a full scan of `R`
    /// keeping the best `Open` tuple. `score` sees the node id and tuple
    /// (A\* adds the estimator here; Dijkstra scores by `path_cost`).
    ///
    /// Ties are broken by a deterministic hash of the node id, modelling
    /// the effectively arbitrary tie order of a QUEL min-retrieve over a
    /// hash-organised temporary; see `DESIGN.md` ("tie-breaking").
    pub fn select_min_open(
        &self,
        io: &mut IoStats,
        mut score: impl FnMut(u32, &NodeTuple) -> f64,
    ) -> Result<Option<(u32, NodeTuple)>, StorageError> {
        let mut best: Option<(f64, u64, u32, NodeTuple)> = None;
        self.scan(io, |id, t| {
            if t.status == NodeStatus::Open {
                let s = score(id, t);
                let tie = tie_hash(id);
                let better = match &best {
                    None => true,
                    Some((bs, bt, _, _)) => s < *bs || (s == *bs && tie < *bt),
                };
                if better {
                    best = Some((s, tie, id, *t));
                }
            }
        })?;
        Ok(best.map(|(_, _, id, t)| (id, t)))
    }

    /// Counts tuples with the given status (a scan: `B_r` reads) — the
    /// iterative algorithm's step 8, "Scan R to count the number of
    /// current-nodes".
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn count_status(
        &self,
        status: NodeStatus,
        io: &mut IoStats,
    ) -> Result<usize, StorageError> {
        let mut n = 0;
        self.scan(io, |_, t| {
            if t.status == status {
                n += 1;
            }
        })?;
        Ok(n)
    }

    /// Collects `(id, tuple)` for every node with the given status
    /// (a scan) — the iterative algorithm's step 5, "Fetch all
    /// current-nodes from R".
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn fetch_status(
        &self,
        status: NodeStatus,
        io: &mut IoStats,
    ) -> Result<Vec<(u32, NodeTuple)>, StorageError> {
        let mut out = Vec::new();
        self.scan(io, |id, t| {
            if t.status == status {
                out.push((id, *t));
            }
        })?;
        Ok(out)
    }

    /// Reconstructs the predecessor array from the `path` pointers, for
    /// [`atis_graph::Path::from_predecessors`]. Uncharged (post-run
    /// extraction, not part of the algorithm's metered work).
    ///
    /// # Errors
    /// Surfaces checksum mismatches on corrupted blocks.
    pub fn predecessors(&self) -> Result<Vec<Option<NodeId>>, StorageError> {
        (0..self.heap.len())
            .map(|slot| {
                let t = self.heap.peek_slot(slot)?;
                Ok(if t.path == crate::tuple::NO_PRED {
                    None
                } else {
                    Some(NodeId(t.path))
                })
            })
            .collect()
    }
}

/// Deterministic tie-break hash (splitmix64 finaliser).
#[inline]
pub(crate) fn tie_hash(id: u32) -> u64 {
    atis_graph::rng::splitmix64(id as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;

    fn small_graph() -> Graph {
        graph_from_arcs(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 1.5),
                (2, 3, 0.5),
                (3, 0, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_relation_counts() {
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&small_graph(), &mut io).unwrap();
        assert_eq!(s.tuple_count(), 5);
        assert_eq!(s.block_count(), 1);
        assert!((s.average_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn adjacency_fetch_returns_clustered_edges() {
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&small_graph(), &mut io).unwrap();
        let before = io;
        let adj = s.fetch_adjacency(0, &mut io).unwrap();
        assert_eq!(adj.len(), 2);
        assert_eq!(adj[0].end, 1);
        assert_eq!(adj[1].end, 2);
        assert_eq!(io.since(&before).block_reads, 1);
    }

    #[test]
    fn empty_adjacency_still_reads_bucket() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let before = io;
        assert!(s.fetch_adjacency(2, &mut io).unwrap().is_empty());
        assert_eq!(io.since(&before).block_reads, 1);
    }

    #[test]
    fn node_relation_load_charges_c1_c2_c3() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let before = io;
        let r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        let d = io.since(&before);
        assert_eq!(d.relations_created, 1); // C1
        assert_eq!(d.block_reads, 1); // C2 reads: B_s = 1
        assert_eq!(d.block_writes, 1); // C2 writes: B_r = 1
        assert!(d.tuple_updates > 0); // C3 index build
        assert_eq!(r.tuple_count(), 4);
        assert_eq!(r.isam_levels(), 3);
    }

    #[test]
    fn all_nodes_start_unreached() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        for id in 0..4 {
            let t = r.peek(id).unwrap();
            assert_eq!(t.status, NodeStatus::Null);
            assert!(t.path_cost.is_infinite());
        }
    }

    #[test]
    fn replace_goes_through_index() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let mut r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        let before = io;
        r.replace(2, &mut io, |t| {
            t.status = NodeStatus::Open;
            t.path_cost = 1.5;
        })
        .unwrap();
        let d = io.since(&before);
        assert_eq!(d.block_reads, 3); // I_l probe
        assert_eq!(d.tuple_updates, 1);
        assert_eq!(r.peek(2).unwrap().status, NodeStatus::Open);
    }

    #[test]
    fn get_charges_probe_plus_data_read() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        let before = io;
        let _ = r.get(1, &mut io).unwrap();
        assert_eq!(io.since(&before).block_reads, 4); // 3 index + 1 data
    }

    #[test]
    fn select_min_open_prefers_lowest_score() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let mut r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        r.replace(1, &mut io, |t| {
            t.status = NodeStatus::Open;
            t.path_cost = 5.0;
        })
        .unwrap();
        r.replace(3, &mut io, |t| {
            t.status = NodeStatus::Open;
            t.path_cost = 2.0;
        })
        .unwrap();
        let (id, t) = r
            .select_min_open(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(t.path_cost, 2.0);
    }

    #[test]
    fn select_min_open_is_none_when_frontier_empty() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        assert!(r
            .select_min_open(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .is_none());
    }

    #[test]
    fn select_min_open_charges_a_scan() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        let before = io;
        let _ = r.select_min_open(&mut io, |_, t| t.path_cost as f64);
        assert_eq!(io.since(&before).block_reads, r.block_count() as u64);
    }

    #[test]
    fn count_and_fetch_status() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let mut r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        r.replace(0, &mut io, |t| t.status = NodeStatus::Current)
            .unwrap();
        r.replace(2, &mut io, |t| t.status = NodeStatus::Current)
            .unwrap();
        assert_eq!(r.count_status(NodeStatus::Current, &mut io).unwrap(), 2);
        let fetched = r.fetch_status(NodeStatus::Current, &mut io).unwrap();
        assert_eq!(
            fetched.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn predecessors_decode_path_pointers() {
        let g = small_graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let mut r = NodeRelation::load(&g, s.block_count(), 3, &mut io).unwrap();
        r.replace(3, &mut io, |t| t.path = 1).unwrap();
        let preds = r.predecessors().unwrap();
        assert_eq!(preds[3], Some(NodeId(1)));
        assert_eq!(preds[0], None);
    }

    #[test]
    fn status_byte_roundtrip() {
        for s in [
            NodeStatus::Null,
            NodeStatus::Open,
            NodeStatus::Closed,
            NodeStatus::Current,
        ] {
            assert_eq!(NodeStatus::from_u8(s as u8), s);
        }
        assert_eq!(NodeStatus::from_u8(200), NodeStatus::Null);
    }
}

//! Paged heap files of fixed-width tuples with block-level I/O charging.
//!
//! A [`HeapFile`] is the physical body of a relation: a vector of 4096-byte
//! blocks, each holding `BLOCK_SIZE / T::SIZE` tuple slots. Cloning one
//! is a pointer bump per page (see [`crate::block`]): the clone shares
//! every page with its source until it writes one. Operations charge the
//! borrowed [`IoStats`]:
//!
//! * `scan`-style visits charge one **block read** per block entered;
//! * `read_slot` charges one block read;
//! * `update_slot` charges one **tuple update** (the in-place
//!   read-modify-write the paper prices at `t_update = t_read + t_write`);
//! * `append` stages tuples into the tail block and [`HeapFile::flush`]
//!   charges one **block write** per dirty block — so a bulk load of `|R|`
//!   tuples costs exactly `B_r` writes, matching cost step `C2` of
//!   Tables 2–3.
//!
//! With a [`SharedFaults`] attached (see [`crate::fault`]) every physical
//! block operation consults the fault plan and may fail with
//! [`StorageError::IoFailed`], and the file maintains a per-block checksum
//! of the intended content so torn writes surface as
//! [`StorageError::CorruptBlock`] on the next read. Without faults the
//! checksum machinery is entirely inert and the charged [`IoStats`] are
//! bit-identical to the fault-free build.
//!
//! # Segmentation
//!
//! A heap file created with [`HeapFile::create_segmented`] is split into
//! fixed-size **segments** of `segment_blocks` blocks each, every segment
//! carrying its own buffer-pool file id. Logically nothing changes — slot
//! addressing, scans and charging are identical to the single-file layout
//! — but the buffer pool now sees one *file* per segment, which is what
//! the region-aware eviction policy (see [`crate::buffer`]) keys on, and
//! the [`crate::segment::SegmentDirectory`] describes the resulting
//! on-disk layout. The default [`HeapFile::create`] is the degenerate
//! single-segment configuration and behaves bit-identically to the
//! pre-segmentation engine.

use crate::block::{Block, BLOCK_SIZE};
use crate::buffer::{next_file_id, SharedBuffer};
use crate::error::StorageError;
use crate::fault::{self, SharedFaults, WriteMode};
use crate::io::IoStats;
use crate::segment::{SegmentDirectory, SegmentInfo};
use crate::tuple::FixedTuple;
use atis_graph::grouped::Sharing;
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// A paged heap file of fixed-width tuples.
#[derive(Debug, Clone)]
pub struct HeapFile<T: FixedTuple> {
    blocks: Vec<Block>,
    len: usize,
    dirty: BTreeSet<usize>,
    /// Optional buffer pool (an extension; `None` is the paper-faithful
    /// cold-cache configuration). See [`crate::buffer`].
    buffer: Option<SharedBuffer>,
    /// Blocks per segment (`usize::MAX` = unsegmented: one segment holds
    /// every block).
    segment_blocks: usize,
    /// One buffer-pool file id per segment (at least one entry).
    file_ids: Vec<u64>,
    /// Optional fault injection; `None` disables all checks. See
    /// [`crate::fault`].
    faults: Option<SharedFaults>,
    /// Per-block checksums of the durably written content, maintained only
    /// while a fault plan that can tear writes is attached (so plans that
    /// merely fail or stall reads pay no checksum overhead, and the
    /// fault-free path is untouched).
    sums: Vec<u32>,
    /// Whether the attached plan can corrupt bytes (`FaultPlan::can_tear`),
    /// i.e. whether `sums` is maintained and verified.
    checksums: bool,
    _tuple: PhantomData<T>,
}

impl<T: FixedTuple> HeapFile<T> {
    /// Tuples per block for this tuple type.
    pub const TUPLES_PER_BLOCK: usize = BLOCK_SIZE / T::SIZE;

    /// Creates an empty heap file. Charges the relation-creation cost `I`.
    pub fn create(io: &mut IoStats) -> Self {
        io.create_relation();
        HeapFile {
            blocks: Vec::new(),
            len: 0,
            dirty: BTreeSet::new(),
            buffer: None,
            segment_blocks: usize::MAX,
            file_ids: vec![next_file_id()],
            faults: None,
            sums: Vec::new(),
            checksums: false,
            _tuple: PhantomData,
        }
    }

    /// Creates an empty heap file split into segments of `segment_blocks`
    /// blocks, each with its own buffer-pool file id (see the
    /// [module docs](self)). Charges the relation-creation cost `I` once —
    /// the segment directory is metadata of one relation, not extra
    /// relations.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidValue`] when `segment_blocks` is
    /// zero.
    pub fn create_segmented(segment_blocks: usize, io: &mut IoStats) -> Result<Self, StorageError> {
        if segment_blocks == 0 {
            return Err(StorageError::InvalidValue(
                "heap segments must hold at least one block",
            ));
        }
        let mut f = Self::create(io);
        f.segment_blocks = segment_blocks;
        Ok(f)
    }

    /// Maps a global block number to its `(buffer file id, local block)`
    /// address. Unsegmented files map every block to segment 0 unchanged.
    #[inline]
    fn block_address(&self, block: usize) -> (u64, usize) {
        let seg = block / self.segment_blocks;
        (self.file_ids[seg], block % self.segment_blocks)
    }

    /// Number of segments backing the current block count (at least one).
    pub fn segment_count(&self) -> usize {
        self.blocks.len().div_ceil(self.segment_blocks).max(1)
    }

    /// Blocks per segment (`usize::MAX` for the unsegmented layout).
    pub fn segment_blocks(&self) -> usize {
        self.segment_blocks
    }

    /// Describes the on-disk layout: one [`SegmentInfo`] per segment.
    pub fn segment_directory(&self) -> SegmentDirectory {
        let per_block = Self::TUPLES_PER_BLOCK;
        let segments = (0..self.segment_count())
            .map(|i| {
                let first_block = (i * self.segment_blocks).min(self.blocks.len());
                let blocks = self
                    .blocks
                    .len()
                    .saturating_sub(first_block)
                    .min(self.segment_blocks);
                let first_slot = first_block * per_block;
                let tuples = self.len.saturating_sub(first_slot).min(blocks * per_block);
                SegmentInfo {
                    index: i,
                    file_id: self.file_ids[i],
                    first_block,
                    blocks,
                    tuples,
                }
            })
            .collect();
        SegmentDirectory {
            segment_blocks: self.segment_blocks,
            block_bytes: BLOCK_SIZE,
            segments,
        }
    }

    /// Attaches a shared buffer pool: subsequent block *reads* that hit
    /// the pool are not charged. Writes stay write-through. Every segment
    /// receives a fresh file id, so re-attaching never aliases stale
    /// residency.
    pub fn attach_buffer(&mut self, pool: &SharedBuffer) {
        self.buffer = Some(pool.clone());
        for id in &mut self.file_ids {
            *id = next_file_id();
        }
    }

    /// Attaches shared fault-injection state. From now on every physical
    /// block op consults the plan; when the plan can tear writes,
    /// checksums of the current content are also recorded so later
    /// corruption is detectable.
    pub fn attach_faults(&mut self, faults: &SharedFaults) {
        self.checksums = faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .plan()
            .can_tear();
        self.faults = Some(faults.clone());
        self.sums = if self.checksums {
            self.blocks
                .iter()
                .map(|b| fault::checksum(b.bytes(0, BLOCK_SIZE)))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Consults the fault plan for a physical read of `block`. Any
    /// planned device latency is slept *after* the lock is released, so
    /// concurrent readers overlap their stalls.
    #[inline]
    fn consult_read(&self, block: usize) -> Result<(), StorageError> {
        if let Some(f) = &self.faults {
            let stall = {
                // analyze::allow(panic-reachability): a poisoned fault-state lock means a panicked holder; aborting is the documented policy
                let mut state = f.lock().expect("fault state lock");
                state.on_read(block)?;
                state.take_stall()
            };
            fault::stall(stall);
        }
        Ok(())
    }

    /// Consults the fault plan for a physical write of `block`.
    #[inline]
    fn consult_write(&self, block: usize) -> Result<WriteMode, StorageError> {
        match &self.faults {
            // analyze::allow(panic-reachability): a poisoned fault-state lock means a panicked holder; aborting is the documented policy
            Some(f) => f.lock().expect("fault state lock").on_write(block),
            None => Ok(WriteMode::Clean),
        }
    }

    /// Verifies `block` against its recorded checksum. Dirty (staged, not
    /// yet flushed) blocks and files whose fault plan cannot tear are
    /// exempt.
    #[inline]
    fn verify(&self, block: usize) -> Result<(), StorageError> {
        if self.checksums
            && block < self.sums.len()
            && !self.dirty.contains(&block)
            && fault::checksum(self.blocks[block].bytes(0, BLOCK_SIZE)) != self.sums[block]
        {
            return Err(StorageError::CorruptBlock { block });
        }
        Ok(())
    }

    /// Records `block`'s current content as its durable checksum, then
    /// applies a torn write's byte flip (so the checksum reflects the
    /// *intended* content and the next [`verify`](Self::verify) fails).
    fn commit_block(&mut self, block: usize, mode: WriteMode) {
        if self.checksums {
            if self.sums.len() <= block {
                self.sums.resize(block + 1, 0);
            }
            self.sums[block] = fault::checksum(self.blocks[block].bytes(0, BLOCK_SIZE));
            if let WriteMode::Torn(offset) = mode {
                self.blocks[block].bytes_mut(offset, 1)[0] ^= 0x5a;
            }
        }
    }

    /// Charges a read of `block` unless the buffer pool absorbs it, then
    /// verifies the block content.
    ///
    /// # Errors
    /// Fails when the fault plan injects a read failure or the block is
    /// corrupt. Pool hits skip the fault consult (no physical read
    /// happens) but still verify — corruption lives in the stored bytes.
    #[inline]
    pub(crate) fn charge_read(&self, block: usize, io: &mut IoStats) -> Result<(), StorageError> {
        let physical = match &self.buffer {
            Some(pool) => {
                let (file, local) = self.block_address(block);
                // analyze::allow(panic-reachability): a poisoned buffer-pool lock means a panicked holder; aborting is the documented policy
                !pool.lock().expect("buffer pool lock").access(file, local)
            }
            None => true,
        };
        if physical {
            io.read_blocks(1);
            self.consult_read(block)?;
        }
        self.verify(block)
    }

    /// Charges a full-scan's worth of block reads (buffer-aware) without
    /// decoding any tuples — used by join strategies whose formulas price
    /// repeated passes over this file.
    ///
    /// # Errors
    /// Fails on an injected read failure or a corrupt block.
    pub(crate) fn charge_scan(&self, io: &mut IoStats) -> Result<(), StorageError> {
        for b in 0..self.blocks.len() {
            self.charge_read(b, io)?;
        }
        Ok(())
    }

    /// Marks `block` resident after a write (write-allocate) without
    /// touching the hit/miss statistics.
    #[inline]
    fn install_block(&self, block: usize) {
        if let Some(pool) = &self.buffer {
            let (file, local) = self.block_address(block);
            // analyze::allow(panic-reachability): a poisoned buffer-pool lock means a panicked holder; aborting is the documented policy
            pool.lock().expect("buffer pool lock").install(file, local);
        }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks — the `B_x` of the cost model.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// How many of this file's pages are the very memory `other` holds,
    /// page by page.
    pub(crate) fn shared_with(&self, other: &HeapFile<T>) -> Sharing {
        let mut sharing = Sharing::default();
        for (a, b) in self.blocks.iter().zip(&other.blocks) {
            a.count_shared(b, &mut sharing);
        }
        sharing
    }

    #[inline]
    fn locate(slot: usize) -> (usize, usize) {
        (
            slot / Self::TUPLES_PER_BLOCK,
            (slot % Self::TUPLES_PER_BLOCK) * T::SIZE,
        )
    }

    /// Appends a tuple, staging the tail block as dirty. The block write is
    /// charged by [`HeapFile::flush`]; call it after a batch (a single
    /// QUEL `APPEND` is a one-tuple batch).
    pub fn append(&mut self, tuple: &T) -> usize {
        let slot = self.len;
        let (b, off) = Self::locate(slot);
        if b == self.blocks.len() {
            self.blocks.push(Block::new());
            // A new block may open a new segment; give it a file id.
            if b / self.segment_blocks >= self.file_ids.len() {
                self.file_ids.push(next_file_id());
            }
        }
        tuple.encode(self.blocks[b].bytes_mut(off, T::SIZE));
        self.dirty.insert(b);
        self.len += 1;
        slot
    }

    /// Writes out all dirty blocks, charging one block write each.
    ///
    /// # Errors
    /// Fails when the fault plan injects a write failure; the failed block
    /// (and any not yet reached) stays dirty, so a retried flush finishes
    /// the job.
    pub fn flush(&mut self, io: &mut IoStats) -> Result<(), StorageError> {
        while let Some(&b) = self.dirty.iter().next() {
            io.write_blocks(1);
            let mode = self.consult_write(b)?;
            self.dirty.remove(&b);
            self.install_block(b);
            self.commit_block(b, mode);
        }
        Ok(())
    }

    /// Reads one tuple, charging one block read.
    ///
    /// # Errors
    /// Fails if `slot` is out of range, on an injected read failure, or on
    /// a corrupt block.
    pub fn read_slot(&self, slot: usize, io: &mut IoStats) -> Result<T, StorageError> {
        if slot >= self.len {
            return Err(StorageError::SlotOutOfRange {
                slot,
                len: self.len,
            });
        }
        let (b, off) = Self::locate(slot);
        self.charge_read(b, io)?;
        Ok(T::decode(self.blocks[b].bytes(off, T::SIZE)))
    }

    /// Reads one tuple *without* charging I/O — for callers that already
    /// paid for the containing block (e.g. a scan that re-visits a slot it
    /// just passed) or for assertions in tests.
    ///
    /// # Errors
    /// Fails if `slot` is out of range or the block is corrupt.
    pub fn peek_slot(&self, slot: usize) -> Result<T, StorageError> {
        if slot >= self.len {
            return Err(StorageError::SlotOutOfRange {
                slot,
                len: self.len,
            });
        }
        let (b, off) = Self::locate(slot);
        self.verify(b)?;
        Ok(T::decode(self.blocks[b].bytes(off, T::SIZE)))
    }

    /// Updates one tuple in place, charging one tuple update.
    ///
    /// # Errors
    /// Fails if `slot` is out of range, on injected read/write failures
    /// (the paper prices an update as a read plus a write), or on a
    /// corrupt block. A failed write leaves the old content intact.
    pub fn update_slot(
        &mut self,
        slot: usize,
        io: &mut IoStats,
        f: impl FnOnce(&mut T),
    ) -> Result<(), StorageError> {
        if slot >= self.len {
            return Err(StorageError::SlotOutOfRange {
                slot,
                len: self.len,
            });
        }
        let (b, off) = Self::locate(slot);
        self.verify(b)?;
        io.update_tuples(1);
        self.consult_read(b)?;
        let mut t = T::decode(self.blocks[b].bytes(off, T::SIZE));
        f(&mut t);
        let mode = self.consult_write(b)?;
        self.install_block(b);
        t.encode(self.blocks[b].bytes_mut(off, T::SIZE));
        self.commit_block(b, mode);
        Ok(())
    }

    /// Full scan: visits every tuple in slot order, charging one block read
    /// per block. The visitor receives `(slot, tuple)`.
    ///
    /// # Errors
    /// Fails on an injected read failure or a corrupt block (before any
    /// tuple is visited).
    pub fn scan(
        &self,
        io: &mut IoStats,
        mut visit: impl FnMut(usize, T),
    ) -> Result<(), StorageError> {
        for b in 0..self.blocks.len() {
            self.charge_read(b, io)?;
        }
        for slot in 0..self.len {
            let (b, off) = Self::locate(slot);
            visit(slot, T::decode(self.blocks[b].bytes(off, T::SIZE)));
        }
        Ok(())
    }

    /// Scans a contiguous slot range `[start, end)`, charging reads only
    /// for the blocks the range touches. Used for clustered lookups
    /// (adjacency lists in the hash-clustered edge relation).
    ///
    /// # Errors
    /// Fails on an injected read failure or a corrupt block.
    pub fn scan_range(
        &self,
        start: usize,
        end: usize,
        io: &mut IoStats,
        mut visit: impl FnMut(usize, T),
    ) -> Result<(), StorageError> {
        let end = end.min(self.len);
        if start >= end {
            return Ok(());
        }
        let first_block = start / Self::TUPLES_PER_BLOCK;
        let last_block = (end - 1) / Self::TUPLES_PER_BLOCK;
        for b in first_block..=last_block {
            self.charge_read(b, io)?;
        }
        for slot in start..end {
            let (b, off) = Self::locate(slot);
            visit(slot, T::decode(self.blocks[b].bytes(off, T::SIZE)));
        }
        Ok(())
    }

    /// Set-oriented rewrite pass — the QUEL `REPLACE ... WHERE` used by the
    /// iterative algorithm's step 7. Visits every tuple and lets the
    /// visitor modify it (returning `true` if it did). Charging follows the
    /// paper's pricing of such a pass at `B_r * t_update`: each block the
    /// pass dirties costs one tuple update (its read + write), and each
    /// clean block costs one block read.
    ///
    /// # Errors
    /// Fails on injected read/write failures or corrupt blocks; blocks
    /// already visited keep their new content (the caller is expected to
    /// restart the query, not resume the pass).
    pub fn rewrite(
        &mut self,
        io: &mut IoStats,
        mut visit: impl FnMut(usize, &mut T) -> bool,
    ) -> Result<(), StorageError> {
        for b in 0..self.blocks.len() {
            self.verify(b)?;
            self.consult_read(b)?;
            let lo = b * Self::TUPLES_PER_BLOCK;
            let hi = ((b + 1) * Self::TUPLES_PER_BLOCK).min(self.len);
            let mut block_dirty = false;
            for slot in lo..hi {
                let off = (slot % Self::TUPLES_PER_BLOCK) * T::SIZE;
                let mut t = T::decode(self.blocks[b].bytes(off, T::SIZE));
                if visit(slot, &mut t) {
                    t.encode(self.blocks[b].bytes_mut(off, T::SIZE));
                    block_dirty = true;
                }
            }
            if block_dirty {
                io.update_tuples(1);
                let mode = self.consult_write(b)?;
                self.commit_block(b, mode);
            } else {
                io.read_blocks(1);
            }
        }
        Ok(())
    }

    // Rewrite is intentionally not buffer-aware: a set-oriented REPLACE
    // streams every block through the engine, and the paper prices it as
    // such; the pool only absorbs point reads and scans.

    /// Clears all tuples, charging the relation-deletion cost `D_t`.
    pub fn clear(&mut self, io: &mut IoStats) {
        io.delete_relation();
        if let Some(pool) = &self.buffer {
            let mut pool = pool.lock().expect("buffer pool lock");
            for file in &self.file_ids {
                pool.invalidate_file(*file);
            }
        }
        self.blocks.clear();
        self.dirty.clear();
        self.sums.clear();
        self.len = 0;
        self.file_ids.truncate(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::tuple::EdgeTuple;

    fn edge(b: u32, e: u32, c: f64) -> EdgeTuple {
        EdgeTuple {
            begin: b,
            end: e,
            cost: c,
            class: 0,
            occupancy: 0.0,
            end_x: 0.0,
            end_y: 0.0,
        }
    }

    #[test]
    fn create_charges_relation_creation() {
        let mut io = IoStats::new();
        let _f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        assert_eq!(io.relations_created, 1);
    }

    #[test]
    fn append_flush_charges_block_writes() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        // 300 edge tuples at 128/block -> 3 blocks.
        for i in 0..300 {
            f.append(&edge(i, i + 1, 1.0));
        }
        let before = io;
        f.flush(&mut io).unwrap();
        assert_eq!(io.since(&before).block_writes, 3);
        assert_eq!(f.block_count(), 3);
        assert_eq!(f.len(), 300);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(0, 1, 1.0));
        f.flush(&mut io).unwrap();
        let before = io;
        f.flush(&mut io).unwrap();
        assert_eq!(io.since(&before).block_writes, 0);
    }

    #[test]
    fn read_slot_roundtrips_and_charges() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(7, 8, 2.5));
        f.flush(&mut io).unwrap();
        let before = io;
        let t = f.read_slot(0, &mut io).unwrap();
        assert_eq!(t, edge(7, 8, 2.5));
        assert_eq!(io.since(&before).block_reads, 1);
    }

    #[test]
    fn read_out_of_range_fails() {
        let mut io = IoStats::new();
        let f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        assert!(matches!(
            f.read_slot(0, &mut io),
            Err(StorageError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn update_slot_charges_tuple_update() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(1, 2, 1.0));
        f.flush(&mut io).unwrap();
        let before = io;
        f.update_slot(0, &mut io, |t| t.cost = 9.0).unwrap();
        assert_eq!(io.since(&before).tuple_updates, 1);
        assert_eq!(f.peek_slot(0).unwrap().cost, 9.0);
    }

    #[test]
    fn scan_charges_one_read_per_block() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        for i in 0..200 {
            f.append(&edge(i, i, 0.0));
        }
        f.flush(&mut io).unwrap();
        let before = io;
        let mut seen = 0;
        f.scan(&mut io, |_, _| seen += 1).unwrap();
        assert_eq!(seen, 200);
        assert_eq!(io.since(&before).block_reads, 2); // 200/128 -> 2 blocks
    }

    #[test]
    fn scan_range_charges_touched_blocks_only() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        for i in 0..512 {
            f.append(&edge(i, i, 0.0));
        }
        f.flush(&mut io).unwrap();
        let before = io;
        let mut seen = vec![];
        f.scan_range(100, 104, &mut io, |s, _| seen.push(s))
            .unwrap();
        assert_eq!(seen, vec![100, 101, 102, 103]);
        assert_eq!(io.since(&before).block_reads, 1);
        // A range spanning a block boundary charges 2 reads.
        let before = io;
        f.scan_range(126, 130, &mut io, |_, _| {}).unwrap();
        assert_eq!(io.since(&before).block_reads, 2);
    }

    #[test]
    fn scan_range_is_clamped() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(0, 0, 0.0));
        f.flush(&mut io).unwrap();
        let mut seen = 0;
        f.scan_range(0, 100, &mut io, |_, _| seen += 1).unwrap();
        assert_eq!(seen, 1);
        // Empty range charges nothing.
        let before = io;
        f.scan_range(5, 5, &mut io, |_, _| unreachable!()).unwrap();
        assert_eq!(io.since(&before).block_reads, 0);
    }

    #[test]
    fn rewrite_charges_updates_for_dirty_blocks() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        for i in 0..256 {
            f.append(&edge(i, i, 1.0));
        }
        f.flush(&mut io).unwrap(); // 2 blocks
        let before = io;
        // Touch only tuples in the first block.
        f.rewrite(&mut io, |s, t| {
            if s < 10 {
                t.cost = 2.0;
                true
            } else {
                false
            }
        })
        .unwrap();
        let d = io.since(&before);
        // One dirty block (one t_update = its read+write), one clean block
        // (one read).
        assert_eq!(d.block_reads, 1);
        assert_eq!(d.tuple_updates, 1);
        assert_eq!(f.peek_slot(5).unwrap().cost, 2.0);
        assert_eq!(f.peek_slot(200).unwrap().cost, 1.0);
    }

    #[test]
    fn clear_charges_deletion() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(0, 1, 1.0));
        f.clear(&mut io);
        assert_eq!(io.relations_deleted, 1);
        assert!(f.is_empty());
        assert_eq!(f.block_count(), 0);
    }

    #[test]
    fn inert_faults_leave_io_stats_identical() {
        let run = |attach: bool| {
            let mut io = IoStats::new();
            let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
            if attach {
                f.attach_faults(&FaultPlan::inert(0).into_shared());
            }
            for i in 0..300 {
                f.append(&edge(i, i, 1.0));
            }
            f.flush(&mut io).unwrap();
            f.scan(&mut io, |_, _| {}).unwrap();
            f.update_slot(10, &mut io, |t| t.cost = 2.0).unwrap();
            f.read_slot(200, &mut io).unwrap();
            f.rewrite(&mut io, |s, t| {
                t.cost += s as f64;
                true
            })
            .unwrap();
            io
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn nth_read_failure_surfaces_as_io_failed() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        for i in 0..10 {
            f.append(&edge(i, i, 1.0));
        }
        f.attach_faults(&FaultPlan::inert(1).with_fail_nth_read(2).into_shared());
        f.flush(&mut io).unwrap();
        f.read_slot(0, &mut io).unwrap();
        assert!(matches!(
            f.read_slot(1, &mut io),
            Err(StorageError::IoFailed { op: "read", .. })
        ));
        // The planned failure is consumed; the next read succeeds.
        f.read_slot(1, &mut io).unwrap();
    }

    #[test]
    fn failed_flush_keeps_the_block_dirty_for_retry() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.attach_faults(&FaultPlan::inert(1).with_fail_nth_write(1).into_shared());
        f.append(&edge(3, 4, 1.0));
        assert!(matches!(
            f.flush(&mut io),
            Err(StorageError::IoFailed { op: "write", .. })
        ));
        // Retry succeeds and the content is durable and verifiable.
        f.flush(&mut io).unwrap();
        assert_eq!(f.read_slot(0, &mut io).unwrap(), edge(3, 4, 1.0));
    }

    #[test]
    fn torn_write_is_detected_on_next_read() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.attach_faults(&FaultPlan::inert(2).with_torn_write_rate(1.0).into_shared());
        f.append(&edge(0, 1, 1.0));
        f.flush(&mut io).unwrap();
        assert_eq!(
            f.read_slot(0, &mut io),
            Err(StorageError::CorruptBlock { block: 0 })
        );
        assert_eq!(f.peek_slot(0), Err(StorageError::CorruptBlock { block: 0 }));
    }

    #[test]
    fn corruption_clears_when_the_block_is_rewritten() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        let faults = FaultPlan::inert(2).with_torn_write_rate(1.0).into_shared();
        f.attach_faults(&faults);
        f.append(&edge(0, 1, 1.0));
        f.flush(&mut io).unwrap();
        assert!(f.read_slot(0, &mut io).is_err());
        drop(faults);
        // Stop tearing, rewrite the block: readable again.
        let clean = FaultPlan::inert(2).into_shared();
        f.attach_faults(&clean);
        f.update_slot(0, &mut io, |t| t.cost = 5.0).unwrap();
        assert_eq!(f.read_slot(0, &mut io).unwrap().cost, 5.0);
    }

    #[test]
    fn segmented_file_charges_identically_to_single_file() {
        // Segmentation is a physical-layout concern: the charged IoStats
        // of every operation must be bit-identical to the single-file
        // layout.
        let run = |segment_blocks: Option<usize>| {
            let mut io = IoStats::new();
            let mut f: HeapFile<EdgeTuple> = match segment_blocks {
                Some(sb) => HeapFile::create_segmented(sb, &mut io).unwrap(),
                None => HeapFile::create(&mut io),
            };
            for i in 0..600 {
                f.append(&edge(i, i, 1.0));
            }
            f.flush(&mut io).unwrap();
            f.scan(&mut io, |_, _| {}).unwrap();
            f.read_slot(513, &mut io).unwrap();
            f.update_slot(200, &mut io, |t| t.cost = 2.0).unwrap();
            f.scan_range(120, 140, &mut io, |_, _| {}).unwrap();
            io
        };
        let single = run(None);
        assert_eq!(single, run(Some(2)));
        assert_eq!(single, run(Some(3)));
    }

    #[test]
    fn segment_directory_accounts_for_every_block_and_tuple() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create_segmented(2, &mut io).unwrap();
        for i in 0..600 {
            // 600 tuples at 128/block -> 5 blocks -> 3 segments (2+2+1).
            f.append(&edge(i, i, 1.0));
        }
        f.flush(&mut io).unwrap();
        let dir = f.segment_directory();
        assert_eq!(dir.segments.len(), 3);
        assert_eq!(f.segment_count(), 3);
        assert_eq!(dir.total_blocks(), 5);
        assert_eq!(dir.total_tuples(), 600);
        assert_eq!(dir.segments[2].blocks, 1);
        assert_eq!(dir.segments[1].first_block, 2);
        // Distinct buffer file ids per segment.
        assert_ne!(dir.segments[0].file_id, dir.segments[1].file_id);
    }

    #[test]
    fn zero_block_segments_are_rejected() {
        let mut io = IoStats::new();
        assert!(matches!(
            HeapFile::<EdgeTuple>::create_segmented(0, &mut io),
            Err(StorageError::InvalidValue(_))
        ));
    }

    #[test]
    fn segments_occupy_disjoint_pool_files() {
        use crate::buffer::BufferPool;
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create_segmented(1, &mut io).unwrap();
        for i in 0..256 {
            f.append(&edge(i, i, 1.0)); // 2 blocks -> 2 segments
        }
        let pool = BufferPool::shared(8).unwrap();
        f.attach_buffer(&pool);
        f.flush(&mut io).unwrap();
        // Both blocks are local block 0 of their segment's file; if the
        // address mapping collapsed them the second access would hit.
        let before = io;
        f.read_slot(0, &mut io).unwrap();
        f.read_slot(128, &mut io).unwrap();
        let locked = pool.lock().unwrap();
        assert_eq!(locked.resident_blocks(), 2);
        drop(locked);
        // Re-reads are absorbed (residency survives across segments).
        f.read_slot(0, &mut io).unwrap();
        f.read_slot(128, &mut io).unwrap();
        assert_eq!(io.since(&before).block_reads, 0, "write-allocate");
    }

    #[test]
    fn attach_faults_checksums_existing_blocks() {
        let mut io = IoStats::new();
        let mut f: HeapFile<EdgeTuple> = HeapFile::create(&mut io);
        f.append(&edge(1, 2, 3.0));
        f.flush(&mut io).unwrap();
        // Attaching after a fault-free load must leave everything readable.
        f.attach_faults(&FaultPlan::inert(0).into_shared());
        assert_eq!(f.read_slot(0, &mut io).unwrap(), edge(1, 2, 3.0));
    }
}

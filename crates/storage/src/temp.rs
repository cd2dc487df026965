//! Keyed temporary relations with APPEND/DELETE and index maintenance.
//!
//! A\* version 1 manages its frontierSet "as an independent relation.
//! Addition of new reachable nodes can be implemented by insert operations,
//! with deletion of an unexplored node implemented by a delete operation.
//! Selection of the best node can be implemented by a scan of the
//! frontierSet. This implementation requires adjustment of the index"
//! (Section 5.3). That index adjustment — charged on every APPEND and
//! DELETE — is precisely what makes version 1 lose to the REPLACE-based
//! status frontier as the explored region grows (Figure 10).
//!
//! Deletions tombstone their slot; the heap never shrinks mid-run (INGRES
//! heaps did not reclaim space without restructuring), so a long run's
//! frontier scans get progressively more expensive. This is faithful and
//! load-bearing for reproducing version 1's scaling behaviour.

use crate::error::StorageError;
use crate::fault::{consult_index_probe, SharedFaults};
use crate::heapfile::HeapFile;
use crate::io::IoStats;
use crate::tuple::FixedTuple;
use std::collections::HashMap;

/// A keyed temporary relation of fixed-width tuples.
///
/// Keys live in a directory alongside the heap (the paper's temporaries
/// carry the node-id inside the tuple; we keep the 16-byte payload codec
/// and track keys in the directory, charging identical I/O).
#[derive(Debug, Clone)]
pub struct TempRelation<T: FixedTuple> {
    heap: HeapFile<T>,
    /// Slot → key, `None` for tombstones.
    keys: Vec<Option<u32>>,
    /// Key → slot.
    directory: HashMap<u32, usize>,
    /// Index levels charged for maintenance on APPEND/DELETE and probes.
    index_levels: u64,
    live: usize,
    /// Optional fault injection (index probes consult pseudo-blocks).
    faults: Option<SharedFaults>,
}

impl<T: FixedTuple> TempRelation<T> {
    /// Creates an empty temporary relation (charges `I`).
    pub fn create(index_levels: u64, io: &mut IoStats) -> Self {
        TempRelation {
            heap: HeapFile::create(io),
            keys: Vec::new(),
            directory: HashMap::new(),
            index_levels,
            live: 0,
            faults: None,
        }
    }

    /// Attaches a buffer pool (an extension; see [`crate::buffer`]).
    pub fn attach_buffer(&mut self, pool: &crate::buffer::SharedBuffer) {
        self.heap.attach_buffer(pool);
    }

    /// Attaches fault-injection state (see [`crate::fault`]).
    pub fn attach_faults(&mut self, faults: &SharedFaults) {
        self.heap.attach_faults(faults);
        self.faults = Some(faults.clone());
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Blocks occupied, tombstones included — what a scan pays for.
    pub fn block_count(&self) -> usize {
        self.heap.block_count()
    }

    /// QUEL `APPEND`: inserts `(key, tuple)`. Charges one block write (the
    /// tuple's page) plus `I_l` index-adjustment updates.
    ///
    /// # Panics
    /// Panics if the key is already present (the paper's duplicate
    /// *avoidance* policy checks membership before appending; the engine
    /// enforces it).
    ///
    /// # Errors
    /// Surfaces injected write failures; the tuple stays staged (dirty)
    /// and registered under its key, so the relation remains consistent.
    pub fn append(&mut self, key: u32, tuple: &T, io: &mut IoStats) -> Result<(), StorageError> {
        assert!(
            !self.directory.contains_key(&key),
            "append of duplicate key {key}; check membership first (duplicate avoidance)"
        );
        let slot = self.heap.append(tuple);
        debug_assert_eq!(slot, self.keys.len());
        self.keys.push(Some(key));
        self.directory.insert(key, slot);
        self.live += 1;
        self.heap.flush(io)?;
        io.adjust_index(self.index_levels);
        Ok(())
    }

    /// QUEL `DELETE`: removes `key`'s tuple (tombstoning its slot).
    /// Charges the index probe (`I_l` reads), one tuple update (the
    /// tombstone write) and `I_l` index-adjustment updates.
    ///
    /// # Errors
    /// Fails if the key is absent, or on an injected fault (the key stays
    /// live in that case — the delete can be retried).
    pub fn delete(&mut self, key: u32, io: &mut IoStats) -> Result<(), StorageError> {
        io.read_blocks(self.index_levels);
        consult_index_probe(&self.faults, self.index_levels)?;
        let slot = *self
            .directory
            .get(&key)
            .ok_or(StorageError::KeyNotFound(key))?;
        self.heap.update_slot(slot, io, |_| {})?; // tombstone write
        self.directory.remove(&key);
        self.keys[slot] = None;
        io.adjust_index(self.index_levels);
        self.live -= 1;
        Ok(())
    }

    /// QUEL `REPLACE` on a keyed tuple: index probe (`I_l` reads) plus one
    /// tuple update.
    ///
    /// # Errors
    /// Fails if the key is absent.
    pub fn replace(
        &mut self,
        key: u32,
        io: &mut IoStats,
        f: impl FnOnce(&mut T),
    ) -> Result<(), StorageError> {
        io.read_blocks(self.index_levels);
        consult_index_probe(&self.faults, self.index_levels)?;
        let slot = *self
            .directory
            .get(&key)
            .ok_or(StorageError::KeyNotFound(key))?;
        self.heap.update_slot(slot, io, f)
    }

    /// Keyed read: index probe (`I_l` reads) plus one data block read.
    ///
    /// # Errors
    /// Fails if the key is absent.
    pub fn get(&self, key: u32, io: &mut IoStats) -> Result<T, StorageError> {
        io.read_blocks(self.index_levels);
        consult_index_probe(&self.faults, self.index_levels)?;
        let slot = *self
            .directory
            .get(&key)
            .ok_or(StorageError::KeyNotFound(key))?;
        self.heap.read_slot(slot, io)
    }

    /// Membership probe through the index (`I_l` reads).
    ///
    /// # Errors
    /// Surfaces injected index-probe failures.
    pub fn contains(&self, key: u32, io: &mut IoStats) -> Result<bool, StorageError> {
        io.read_blocks(self.index_levels);
        consult_index_probe(&self.faults, self.index_levels)?;
        Ok(self.directory.contains_key(&key))
    }

    /// Uncharged keyed read, for assertions and post-run inspection.
    ///
    /// # Errors
    /// Surfaces checksum mismatches on corrupted blocks.
    pub fn peek(&self, key: u32) -> Result<Option<T>, StorageError> {
        match self.directory.get(&key) {
            Some(&slot) => Ok(Some(self.heap.peek_slot(slot)?)),
            None => Ok(None),
        }
    }

    /// Full scan over live tuples, charging one read per occupied block
    /// (tombstoned blocks included — dead space still costs).
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn scan(
        &self,
        io: &mut IoStats,
        mut visit: impl FnMut(u32, T),
    ) -> Result<(), StorageError> {
        self.heap.scan(io, |slot, t| {
            if let Some(key) = self.keys[slot] {
                visit(key, t);
            }
        })
    }

    /// "Select the best node by a scan of the frontierSet": minimum by
    /// `score`, ties broken by the deterministic id hash (same rule as
    /// [`crate::relations::NodeRelation::select_min_open`]).
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn select_min(
        &self,
        io: &mut IoStats,
        mut score: impl FnMut(u32, &T) -> f64,
    ) -> Result<Option<(u32, T)>, StorageError> {
        let mut best: Option<(f64, u64, u32, T)> = None;
        self.scan(io, |key, t| {
            let s = score(key, &t);
            let tie = crate::relations::tie_hash(key);
            let better = match &best {
                None => true,
                Some((bs, bt, _, _)) => s < *bs || (s == *bs && tie < *bt),
            };
            if better {
                best = Some((s, tie, key, t));
            }
        })?;
        Ok(best.map(|(_, _, k, t)| (k, t)))
    }

    /// Drops the relation's contents (charges `D_t`).
    pub fn clear(&mut self, io: &mut IoStats) {
        self.heap.clear(io);
        self.keys.clear();
        self.directory.clear();
        self.live = 0;
    }
}

/// A temporary relation that **allows duplicate keys** — the third of the
/// paper's duplicate-management options (Section 4: "Allowing duplicates
/// leads to redundant iterations of the algorithm"). Without a uniqueness
/// check there is no membership probe to pay on APPEND, but the frontier
/// accumulates stale entries that must either be skipped when selected
/// (redundant iterations) or swept by a duplicate-elimination pass.
#[derive(Debug, Clone)]
pub struct MultiRelation<T: FixedTuple> {
    heap: HeapFile<T>,
    /// Slot → key, `None` for tombstones.
    keys: Vec<Option<u32>>,
    index_levels: u64,
    live: usize,
}

impl<T: FixedTuple> MultiRelation<T> {
    /// Creates an empty relation (charges `I`).
    pub fn create(index_levels: u64, io: &mut IoStats) -> Self {
        MultiRelation {
            heap: HeapFile::create(io),
            keys: Vec::new(),
            index_levels,
            live: 0,
        }
    }

    /// Attaches fault-injection state (see [`crate::fault`]).
    pub fn attach_faults(&mut self, faults: &SharedFaults) {
        self.heap.attach_faults(faults);
    }

    /// Live tuple count (duplicates included).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Blocks a scan pays for (tombstones included).
    pub fn block_count(&self) -> usize {
        self.heap.block_count()
    }

    /// Blind `APPEND`: one block write plus index adjustment, and *no*
    /// membership probe — the saving that motivates allowing duplicates.
    ///
    /// # Errors
    /// Surfaces injected write failures; the tuple stays staged (dirty)
    /// and registered, so the relation remains consistent.
    pub fn append(&mut self, key: u32, tuple: &T, io: &mut IoStats) -> Result<(), StorageError> {
        let slot = self.heap.append(tuple);
        debug_assert_eq!(slot, self.keys.len());
        self.keys.push(Some(key));
        self.live += 1;
        self.heap.flush(io)?;
        io.adjust_index(self.index_levels);
        Ok(())
    }

    /// Tombstones one slot (one tuple update + index adjustment).
    ///
    /// # Errors
    /// Surfaces injected faults; the slot stays live in that case.
    pub fn delete_slot(&mut self, slot: usize, io: &mut IoStats) -> Result<(), StorageError> {
        if self.keys[slot].is_some() {
            self.heap.update_slot(slot, io, |_| {})?; // tombstone write
            self.keys[slot] = None;
            io.adjust_index(self.index_levels);
            self.live -= 1;
        }
        Ok(())
    }

    /// Full scan over live entries.
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn scan(
        &self,
        io: &mut IoStats,
        mut visit: impl FnMut(usize, u32, T),
    ) -> Result<(), StorageError> {
        self.heap.scan(io, |slot, t| {
            if let Some(key) = self.keys[slot] {
                visit(slot, key, t);
            }
        })
    }

    /// Selects the minimum-score live entry, returning its slot too (the
    /// caller deletes by slot since keys are not unique).
    ///
    /// # Errors
    /// Surfaces injected read failures and checksum mismatches.
    pub fn select_min(
        &self,
        io: &mut IoStats,
        mut score: impl FnMut(u32, &T) -> f64,
    ) -> Result<Option<(usize, u32, T)>, StorageError> {
        let mut best: Option<(f64, u64, usize, u32, T)> = None;
        self.scan(io, |slot, key, t| {
            let s = score(key, &t);
            let tie = crate::relations::tie_hash(key);
            let better = match &best {
                None => true,
                Some((bs, bt, _, _, _)) => s < *bs || (s == *bs && tie < *bt),
            };
            if better {
                best = Some((s, tie, slot, key, t));
            }
        })?;
        Ok(best.map(|(_, _, slot, key, t)| (slot, key, t)))
    }

    /// Duplicate-elimination pass (the paper's "removing duplicates"
    /// option): keeps the best-scoring entry per key and tombstones the
    /// rest. Charges a scan plus one tuple update per eliminated entry
    /// plus index adjustments. Returns how many duplicates were removed.
    pub fn eliminate_duplicates(
        &mut self,
        io: &mut IoStats,
        mut score: impl FnMut(u32, &T) -> f64,
    ) -> Result<usize, StorageError> {
        use std::collections::HashMap;
        let mut best: HashMap<u32, (usize, f64)> = HashMap::new();
        let mut victims = Vec::new();
        self.scan(io, |slot, key, t| {
            let s = score(key, &t);
            match best.get(&key) {
                None => {
                    best.insert(key, (slot, s));
                }
                Some(&(old_slot, old_s)) => {
                    if s < old_s {
                        victims.push(old_slot);
                        best.insert(key, (slot, s));
                    } else {
                        victims.push(slot);
                    }
                }
            }
        })?;
        for slot in &victims {
            self.delete_slot(*slot, io)?;
        }
        Ok(victims.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::NodeStatus;
    use crate::tuple::{NodeTuple, NO_PRED};

    fn tup(cost: f32) -> NodeTuple {
        NodeTuple {
            x: 0.0,
            y: 0.0,
            status: NodeStatus::Open,
            path: NO_PRED,
            path_cost: cost,
        }
    }

    #[test]
    fn append_charges_write_and_index_adjustment() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        let before = io;
        f.append(5, &tup(1.0), &mut io).unwrap();
        let d = io.since(&before);
        assert_eq!(d.block_writes, 1);
        assert_eq!(d.index_adjustments, 3);
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_append_panics() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(5, &tup(1.0), &mut io).unwrap();
        let _ = f.append(5, &tup(2.0), &mut io);
    }

    #[test]
    fn delete_tombstones_and_charges() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(1.0), &mut io).unwrap();
        f.append(2, &tup(2.0), &mut io).unwrap();
        let before = io;
        f.delete(1, &mut io).unwrap();
        let d = io.since(&before);
        assert_eq!(d.block_reads, 3); // probe
        assert_eq!(d.tuple_updates, 1 + 3); // tombstone + index adjust
        assert_eq!(f.len(), 1);
        assert_eq!(f.peek(1), Ok(None));
        assert!(f.peek(2).unwrap().is_some());
        // Block space is not reclaimed.
        assert_eq!(f.block_count(), 1);
    }

    #[test]
    fn delete_missing_key_fails() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        assert_eq!(f.delete(9, &mut io), Err(StorageError::KeyNotFound(9)));
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        for k in 0..5 {
            f.append(k, &tup(k as f32), &mut io).unwrap();
        }
        f.delete(2, &mut io).unwrap();
        let mut keys = vec![];
        f.scan(&mut io, |k, _| keys.push(k)).unwrap();
        assert_eq!(keys, vec![0, 1, 3, 4]);
    }

    #[test]
    fn select_min_finds_cheapest_live_tuple() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(10, &tup(5.0), &mut io).unwrap();
        f.append(11, &tup(1.0), &mut io).unwrap();
        f.append(12, &tup(3.0), &mut io).unwrap();
        f.delete(11, &mut io).unwrap();
        let (k, t) = f
            .select_min(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .unwrap();
        assert_eq!(k, 12);
        assert_eq!(t.path_cost, 3.0);
    }

    #[test]
    fn select_min_on_empty_is_none() {
        let mut io = IoStats::new();
        let f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        assert!(f
            .select_min(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .is_none());
    }

    #[test]
    fn replace_updates_in_place() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        f.replace(1, &mut io, |t| t.path_cost = 2.0).unwrap();
        assert_eq!(f.peek(1).unwrap().unwrap().path_cost, 2.0);
    }

    #[test]
    fn get_roundtrips() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        assert_eq!(f.get(1, &mut io).unwrap().path_cost, 5.0);
        assert!(f.get(2, &mut io).is_err());
    }

    #[test]
    fn contains_charges_probe() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        let before = io;
        assert!(f.contains(1, &mut io).unwrap());
        assert!(!f.contains(2, &mut io).unwrap());
        assert_eq!(io.since(&before).block_reads, 6);
    }

    #[test]
    fn clear_resets_and_charges_deletion() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        f.clear(&mut io);
        assert!(f.is_empty());
        assert_eq!(io.relations_deleted, 1);
    }

    #[test]
    fn multi_relation_allows_duplicates_without_probes() {
        let mut io = IoStats::new();
        let mut f: MultiRelation<NodeTuple> = MultiRelation::create(3, &mut io);
        let before = io;
        f.append(5, &tup(2.0), &mut io).unwrap();
        f.append(5, &tup(1.0), &mut io).unwrap();
        let d = io.since(&before);
        assert_eq!(f.len(), 2);
        // Two appends: no probe reads at all.
        assert_eq!(d.block_reads, 0);
        assert_eq!(d.block_writes, 2);
    }

    #[test]
    fn multi_relation_select_min_sees_best_duplicate() {
        let mut io = IoStats::new();
        let mut f: MultiRelation<NodeTuple> = MultiRelation::create(3, &mut io);
        f.append(5, &tup(2.0), &mut io).unwrap();
        f.append(5, &tup(1.0), &mut io).unwrap();
        f.append(6, &tup(3.0), &mut io).unwrap();
        let (slot, key, t) = f
            .select_min(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .unwrap();
        assert_eq!((key, t.path_cost), (5, 1.0));
        f.delete_slot(slot, &mut io).unwrap();
        // The stale duplicate is still there.
        let (_, key, t) = f
            .select_min(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .unwrap();
        assert_eq!((key, t.path_cost), (5, 2.0));
    }

    #[test]
    fn multi_relation_duplicate_elimination() {
        let mut io = IoStats::new();
        let mut f: MultiRelation<NodeTuple> = MultiRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        f.append(1, &tup(3.0), &mut io).unwrap();
        f.append(1, &tup(4.0), &mut io).unwrap();
        f.append(2, &tup(9.0), &mut io).unwrap();
        let removed = f
            .eliminate_duplicates(&mut io, |_, t| t.path_cost as f64)
            .unwrap();
        assert_eq!(removed, 2);
        assert_eq!(f.len(), 2);
        let (_, key, t) = f
            .select_min(&mut io, |_, t| t.path_cost as f64)
            .unwrap()
            .unwrap();
        assert_eq!((key, t.path_cost), (1, 3.0));
    }

    #[test]
    fn multi_relation_delete_slot_is_idempotent() {
        let mut io = IoStats::new();
        let mut f: MultiRelation<NodeTuple> = MultiRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        f.delete_slot(0, &mut io).unwrap();
        f.delete_slot(0, &mut io).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn reinsert_after_delete_is_allowed() {
        let mut io = IoStats::new();
        let mut f: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        f.append(1, &tup(5.0), &mut io).unwrap();
        f.delete(1, &mut io).unwrap();
        f.append(1, &tup(7.0), &mut io).unwrap();
        assert_eq!(f.peek(1).unwrap().unwrap().path_cost, 7.0);
        assert_eq!(f.len(), 1);
    }
}

//! A static multi-level ISAM index, as INGRES builds on `R.node-id`.
//!
//! The node relation `R` has "a primary index (ISAM) on node-id"
//! (Section 4). ISAM is a *static* balanced tree built once over the sorted
//! key space; probes descend `I_l` levels (Table 4A: `I_l = 3`), each level
//! costing one block read. Because the index is static, APPENDs into an
//! ISAM-organised relation must adjust overflow chains — the
//! index-maintenance overhead that makes the separate-relation frontier of
//! A\* version 1 expensive (Section 5.3.1).
//!
//! Keys here are dense node ids, so the leaf level maps key → heap slot
//! directly; the in-memory fan-out tree exists to model (and charge) the
//! traversal, exactly like the paper's cost model does.

use crate::error::StorageError;
use crate::fault::{consult_index_probe, SharedFaults};
use crate::io::IoStats;

/// Fan-out of each index level. 4096-byte index blocks with 8-byte
/// (key, pointer) entries give a fan-out of 512; we keep it as a constant
/// so tests can reason about level counts.
pub const FANOUT: usize = 512;

/// A static ISAM index from `u32` keys (dense, `0..n`) to heap slots.
#[derive(Debug, Clone)]
pub struct IsamIndex {
    /// `levels[0]` is the leaf level: slot for key `k` at position `k`.
    /// Upper levels are fan-out directories; we store only their sizes
    /// because the tree is computable for dense keys — what matters for
    /// the reproduction is the *charged traversal*, which is faithful.
    leaf: Vec<u32>,
    /// Number of levels `I_l` charged per probe.
    levels: u64,
    /// Optional fault injection: each probed level is one physical read
    /// of a pseudo-block `INDEX_BLOCK_BASE + level`.
    faults: Option<SharedFaults>,
}

impl IsamIndex {
    /// Builds the index over `n` dense keys mapping key `k` to slot `k`,
    /// charging the paper's build cost `C3 = 2 (B_r log B_r + B_r)
    /// t_update` ("Indexing and Sorting the node-relation by node-name",
    /// Table 2) where `B_r = blocks` is the data block count.
    ///
    /// `forced_levels` pins the charged probe depth (Table 4A uses
    /// `I_l = 3`); pass `None` to derive it from the fan-out.
    pub fn build(n: usize, blocks: usize, forced_levels: Option<u64>, io: &mut IoStats) -> Self {
        let b = blocks.max(1) as f64;
        let build_updates = (2.0 * (b * b.log2().max(0.0) + b)).ceil() as u64;
        io.adjust_index(build_updates);
        let natural_levels = {
            let mut l = 1u64;
            let mut cover = FANOUT;
            while cover < n.max(1) {
                cover *= FANOUT;
                l += 1;
            }
            l
        };
        IsamIndex {
            leaf: (0..n as u32).collect(),
            levels: forced_levels.unwrap_or(natural_levels),
            faults: None,
        }
    }

    /// Attaches shared fault-injection state; every probed index level is
    /// consulted as a physical read from then on.
    pub fn attach_faults(&mut self, faults: &SharedFaults) {
        self.faults = Some(faults.clone());
    }

    /// Number of keys indexed.
    pub fn len(&self) -> usize {
        self.leaf.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.leaf.is_empty()
    }

    /// The charged probe depth `I_l`.
    pub fn levels(&self) -> u64 {
        self.levels
    }

    /// Probes the index for `key`, charging `I_l` block reads, and returns
    /// the heap slot.
    ///
    /// # Errors
    /// Fails if the key is not indexed, or when the fault plan injects a
    /// read failure on one of the probed index levels.
    pub fn probe(&self, key: u32, io: &mut IoStats) -> Result<usize, StorageError> {
        io.read_blocks(self.levels);
        consult_index_probe(&self.faults, self.levels)?;
        self.leaf
            .get(key as usize)
            .map(|&s| s as usize)
            .ok_or(StorageError::KeyNotFound(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_charges_sort_and_index_cost() {
        let mut io = IoStats::new();
        // 900 nodes -> 4 blocks: 2*(4*log2(4) + 4) = 24 updates.
        let _ = IsamIndex::build(900, 4, Some(3), &mut io);
        assert_eq!(io.tuple_updates, 24);
        assert_eq!(io.index_adjustments, 24);
    }

    #[test]
    fn probe_returns_slot_and_charges_levels() {
        let mut io = IoStats::new();
        let idx = IsamIndex::build(100, 1, Some(3), &mut io);
        let before = io;
        assert_eq!(idx.probe(42, &mut io).unwrap(), 42);
        assert_eq!(io.since(&before).block_reads, 3);
    }

    #[test]
    fn probe_missing_key_fails() {
        let mut io = IoStats::new();
        let idx = IsamIndex::build(10, 1, Some(3), &mut io);
        assert_eq!(idx.probe(10, &mut io), Err(StorageError::KeyNotFound(10)));
    }

    #[test]
    fn natural_levels_follow_fanout() {
        let mut io = IoStats::new();
        assert_eq!(IsamIndex::build(100, 1, None, &mut io).levels(), 1);
        assert_eq!(IsamIndex::build(FANOUT + 1, 3, None, &mut io).levels(), 2);
    }

    #[test]
    fn len_and_empty() {
        let mut io = IoStats::new();
        let idx = IsamIndex::build(5, 1, Some(3), &mut io);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        let empty = IsamIndex::build(0, 0, Some(3), &mut io);
        assert!(empty.is_empty());
    }
}

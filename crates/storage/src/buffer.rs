//! An optional LRU buffer pool — an *extension* of the paper's model.
//!
//! The paper's cost formulas (Tables 2–3) price every scan at full block
//! cost: INGRES in single-user mode with a cold cache, re-reading `R` on
//! every frontier selection. A modern engine keeps hot blocks resident.
//! [`BufferPool`] lets the experiments quantify how much of the paper's
//! cost landscape is an artifact of that assumption: with a pool that
//! holds `R`'s four blocks, the per-iteration scans of Dijkstra/A\*
//! become nearly free and the algorithm ranking compresses (see the
//! `buffer_pool` ablation).
//!
//! The pool is deliberately simple: block-granular, strict LRU,
//! write-through (writes and tuple updates are always charged; only
//! repeated *reads* are absorbed). It is disabled by default everywhere —
//! the paper-faithful configuration.
//!
//! Pools are sized per network scale by
//! [`StorageProfile::for_nodes`](crate::profile::StorageProfile::for_nodes)
//! (16 to 4096 blocks), every one deliberately **smaller than the graph
//! it serves**, so the pool models a cache, not an in-memory copy; see
//! `SCALING.md`.
//!
//! # Region-aware eviction
//!
//! With segmented heap files (see [`crate::heapfile`]) each segment owns
//! its own file id, and with region-blocked node ordering (see
//! `atis-graph`'s partition map) a segment holds spatially adjacent
//! nodes. A region-aware pool switches the victim choice from pure block
//! LRU to *coldest-file-first*: the victim is taken from the file whose
//! most recent access is oldest, i.e. the region the search frontier has
//! moved away from. The two policies coincide while only one file uses
//! the pool. A `Database` opened with a segmented
//! [`crate::StorageProfile`] evicts region-aware, and with an unsegmented
//! one plain LRU.

use crate::error::StorageError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique file id for a heap file that joins a pool.
pub fn next_file_id() -> u64 {
    NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A block-granular LRU buffer pool with hit/miss accounting.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// (file, block) → last-use tick.
    resident: HashMap<(u64, usize), u64>,
    /// file → last-use tick over any of its blocks (only consulted when
    /// `region_aware` is set).
    file_last: HashMap<u64, u64>,
    region_aware: bool,
    tick: u64,
    /// Reads absorbed by the pool.
    pub hits: u64,
    /// Reads that went to disk.
    pub misses: u64,
}

/// A pool shared by several heap files (one `Database`'s relations).
/// `Arc<Mutex<…>>` so a `Database` stays `Send + Sync` (e.g. behind a
/// route server); contention is nil in the single-threaded engine.
pub type SharedBuffer = Arc<Mutex<BufferPool>>;

impl BufferPool {
    /// A pool holding up to `capacity` blocks, evicting coldest file
    /// first when `region_aware` and by plain LRU otherwise (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidValue`] when `capacity` is zero —
    /// the no-pool configuration is expressed by *not attaching* a pool,
    /// not by an empty one.
    pub fn new(capacity: usize, region_aware: bool) -> Result<BufferPool, StorageError> {
        if capacity == 0 {
            return Err(StorageError::InvalidValue(
                "buffer pool capacity must be at least one block (omit the pool instead)",
            ));
        }
        Ok(BufferPool {
            capacity,
            resident: HashMap::new(),
            file_last: HashMap::new(),
            region_aware,
            tick: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Shared handle constructor.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidValue`] when `capacity` is zero.
    pub fn shared(capacity: usize, region_aware: bool) -> Result<SharedBuffer, StorageError> {
        let pool = BufferPool::new(capacity, region_aware)?;
        Ok(Arc::new(Mutex::new(pool)))
    }

    /// The pool capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an access to `(file, block)`. Returns `true` when the block
    /// was already resident (the read is free), `false` on a miss (charge
    /// it). Either way the block is resident afterwards, evicting the
    /// least-recently-used block if the pool is full.
    pub fn access(&mut self, file: u64, block: usize) -> bool {
        self.tick += 1;
        let key = (file, block);
        let hit = self.resident.contains_key(&key);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if self.resident.len() >= self.capacity {
                self.evict_coldest();
            }
        }
        self.resident.insert(key, self.tick);
        self.file_last.insert(file, self.tick);
        hit
    }

    /// Installs a block after a write (write-allocate) without counting a
    /// hit or miss, evicting if necessary.
    pub fn install(&mut self, file: u64, block: usize) {
        self.tick += 1;
        let key = (file, block);
        if !self.resident.contains_key(&key) && self.resident.len() >= self.capacity {
            self.evict_coldest();
        }
        self.resident.insert(key, self.tick);
        self.file_last.insert(file, self.tick);
    }

    /// Removes one block to make room.
    ///
    /// Plain LRU: the victim is the block with the oldest use tick. Ties
    /// on the tick (blocks installed in one batch) break on the
    /// `(file, block)` key, so eviction — and therefore every downstream
    /// hit/miss count — is deterministic regardless of hash-map iteration
    /// order.
    ///
    /// Region-aware: the victim key is prefixed by its *file's* last-use
    /// tick, so all blocks of the coldest file (the region the frontier
    /// left) are evicted before any block of a warmer file. The `R`
    /// relation's file is touched by every frontier selection scan, which
    /// keeps it warm and concentrates eviction on cold `S` segments.
    #[expect(
        clippy::disallowed_methods,
        reason = "min_by_key over a key unique per block: the victim does not depend on hash order"
    )]
    fn evict_coldest(&mut self) {
        let region = self.region_aware;
        let file_last = &self.file_last;
        if let Some((&victim, _)) = self.resident.iter().min_by_key(|(&(f, b), &t)| {
            let file_tick = if region {
                file_last.get(&f).copied().unwrap_or(0)
            } else {
                0
            };
            (file_tick, t, (f, b))
        }) {
            self.resident.remove(&victim);
        }
    }

    /// Drops every block of a file (relation cleared or dropped).
    #[expect(
        clippy::disallowed_methods,
        reason = "retain keeps the same blocks whatever order it visits them in"
    )]
    pub fn invalidate_file(&mut self, file: u64) {
        self.resident.retain(|&(f, _), _| f != file);
        self.file_last.remove(&file);
    }

    /// Blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.resident.len()
    }

    /// Hit rate over all accesses so far (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut p = BufferPool::new(4, false).unwrap();
        assert!(!p.access(1, 0));
        assert!(p.access(1, 0));
        assert_eq!((p.hits, p.misses), (1, 1));
        assert!((p.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_block() {
        let mut p = BufferPool::new(2, false).unwrap();
        p.access(1, 0);
        p.access(1, 1);
        p.access(1, 0); // refresh block 0
        p.access(1, 2); // evicts block 1 (coldest)
        assert!(p.access(1, 0), "block 0 stayed resident");
        assert!(!p.access(1, 1), "block 1 was evicted");
    }

    #[test]
    fn files_are_disjoint() {
        let mut p = BufferPool::new(4, false).unwrap();
        p.access(1, 0);
        assert!(!p.access(2, 0), "same block number, different file");
        assert!(p.access(1, 0));
    }

    #[test]
    fn invalidation_clears_a_file_only() {
        let mut p = BufferPool::new(8, false).unwrap();
        p.access(1, 0);
        p.access(2, 0);
        p.invalidate_file(1);
        assert!(!p.access(1, 0));
        assert!(p.access(2, 0));
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut p = BufferPool::new(3, false).unwrap();
        for b in 0..10 {
            p.access(1, b);
        }
        assert_eq!(p.resident_blocks(), 3);
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        assert!(matches!(
            BufferPool::new(0, false),
            Err(StorageError::InvalidValue(_))
        ));
        assert!(BufferPool::shared(0, false).is_err());
    }

    #[test]
    fn region_aware_evicts_the_coldest_file_first() {
        // File 2's block 0 has the oldest *block* tick, but file 2 itself
        // is warm (block 1 was just touched); file 1's most recent access
        // is older, so the region-aware policy sacrifices file 1's block.
        let mut p = BufferPool::new(3, true).unwrap();
        p.access(2, 0);
        p.access(1, 0);
        p.access(2, 1);
        p.access(3, 0); // full: evict from the coldest file
        assert!(p.access(2, 0), "warm file kept its oldest block");
        assert!(!p.access(1, 0), "cold file was evicted first");
    }

    #[test]
    fn plain_lru_evicts_the_oldest_block_regardless_of_file() {
        // Control for the region-aware test: same access pattern, default
        // policy — the oldest *block* goes even though its file is warm.
        let mut p = BufferPool::new(3, false).unwrap();
        p.access(2, 0);
        p.access(1, 0);
        p.access(2, 1);
        p.access(3, 0); // evicts (2,0): oldest tick
        assert!(!p.access(2, 0));
    }

    #[test]
    fn file_ids_are_unique() {
        let a = next_file_id();
        let b = next_file_id();
        assert_ne!(a, b);
    }
}

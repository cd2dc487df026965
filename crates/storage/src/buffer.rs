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
//! # Capacity presets
//!
//! [`CapacityPreset`] names the pool sizes the experiments and the
//! scaling study use, so benches and the serving layer agree on what
//! "a pool sized for a 100k-node metro" means:
//!
//! | preset | blocks | bytes | intended scale |
//! |---|---|---|---|
//! | [`CapacityPreset::Paper`] | 16 | 64 KiB | the paper's 1k-node networks |
//! | [`CapacityPreset::City`] | 128 | 512 KiB | ~10k nodes |
//! | [`CapacityPreset::Metro`] | 1024 | 4 MiB | ~100k nodes |
//! | [`CapacityPreset::Continental`] | 4096 | 16 MiB | ~1M nodes |
//!
//! Every preset is deliberately **smaller than the graph it serves** (a
//! 100k-node metro occupies ≈ 3.5k blocks across `S` and `R`), so the
//! pool models a cache, not an in-memory copy; see `SCALING.md`.
//!
//! # Region-aware eviction
//!
//! With segmented heap files (see [`crate::heapfile`]) each segment owns
//! its own file id, and with region-blocked node ordering (see
//! `atis-graph`'s partition map) a segment holds spatially adjacent
//! nodes. [`BufferPool::with_region_aware`] switches the victim choice
//! from pure block LRU to *coldest-file-first*: the victim is taken from
//! the file whose most recent access is oldest, i.e. the region the
//! search frontier has moved away from. Plain LRU remains the default —
//! and the two policies coincide while only one file uses the pool.

use crate::error::StorageError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique file id for a heap file that joins a pool.
pub fn next_file_id() -> u64 {
    NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Named buffer-pool sizes for the network scales the repository studies.
/// See the [module docs](self) for the sizing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPreset {
    /// 16 blocks (64 KiB) — the paper's ~1k-node networks.
    Paper,
    /// 128 blocks (512 KiB) — ~10k-node city networks.
    City,
    /// 1024 blocks (4 MiB) — ~100k-node metro networks.
    Metro,
    /// 4096 blocks (16 MiB) — ~1M-node continental networks.
    Continental,
}

impl CapacityPreset {
    /// The preset's capacity in blocks.
    pub const fn blocks(self) -> usize {
        match self {
            CapacityPreset::Paper => 16,
            CapacityPreset::City => 128,
            CapacityPreset::Metro => 1024,
            CapacityPreset::Continental => 4096,
        }
    }

    /// The smallest preset intended for a network of `nodes` nodes.
    pub const fn for_nodes(nodes: usize) -> CapacityPreset {
        if nodes <= 2_000 {
            CapacityPreset::Paper
        } else if nodes <= 20_000 {
            CapacityPreset::City
        } else if nodes <= 200_000 {
            CapacityPreset::Metro
        } else {
            CapacityPreset::Continental
        }
    }
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
    /// A pool holding up to `capacity` blocks.
    ///
    /// Use a [`CapacityPreset`] to pick a capacity matched to the network
    /// scale (`BufferPool::new(CapacityPreset::Metro.blocks())`).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidValue`] when `capacity` is zero —
    /// the no-pool configuration is expressed by *not attaching* a pool,
    /// not by an empty one.
    pub fn new(capacity: usize) -> Result<BufferPool, StorageError> {
        if capacity == 0 {
            return Err(StorageError::InvalidValue(
                "buffer pool capacity must be at least one block (omit the pool instead)",
            ));
        }
        Ok(BufferPool {
            capacity,
            resident: HashMap::new(),
            file_last: HashMap::new(),
            region_aware: false,
            tick: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Shared handle constructor.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidValue`] when `capacity` is zero.
    pub fn shared(capacity: usize) -> Result<SharedBuffer, StorageError> {
        Ok(Arc::new(Mutex::new(BufferPool::new(capacity)?)))
    }

    /// Switches eviction to the region-aware coldest-file-first policy
    /// (see the [module docs](self)).
    pub fn with_region_aware(mut self) -> BufferPool {
        self.region_aware = true;
        self
    }

    /// Whether region-aware eviction is enabled.
    pub fn is_region_aware(&self) -> bool {
        self.region_aware
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
        let mut p = BufferPool::new(4).unwrap();
        assert!(!p.access(1, 0));
        assert!(p.access(1, 0));
        assert_eq!((p.hits, p.misses), (1, 1));
        assert!((p.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_block() {
        let mut p = BufferPool::new(2).unwrap();
        p.access(1, 0);
        p.access(1, 1);
        p.access(1, 0); // refresh block 0
        p.access(1, 2); // evicts block 1 (coldest)
        assert!(p.access(1, 0), "block 0 stayed resident");
        assert!(!p.access(1, 1), "block 1 was evicted");
    }

    #[test]
    fn files_are_disjoint() {
        let mut p = BufferPool::new(4).unwrap();
        p.access(1, 0);
        assert!(!p.access(2, 0), "same block number, different file");
        assert!(p.access(1, 0));
    }

    #[test]
    fn invalidation_clears_a_file_only() {
        let mut p = BufferPool::new(8).unwrap();
        p.access(1, 0);
        p.access(2, 0);
        p.invalidate_file(1);
        assert!(!p.access(1, 0));
        assert!(p.access(2, 0));
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut p = BufferPool::new(3).unwrap();
        for b in 0..10 {
            p.access(1, b);
        }
        assert_eq!(p.resident_blocks(), 3);
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        assert!(matches!(
            BufferPool::new(0),
            Err(StorageError::InvalidValue(_))
        ));
        assert!(BufferPool::shared(0).is_err());
    }

    #[test]
    fn region_aware_evicts_the_coldest_file_first() {
        // File 2's block 0 has the oldest *block* tick, but file 2 itself
        // is warm (block 1 was just touched); file 1's most recent access
        // is older, so the region-aware policy sacrifices file 1's block.
        let mut p = BufferPool::new(3).unwrap().with_region_aware();
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
        let mut p = BufferPool::new(3).unwrap();
        p.access(2, 0);
        p.access(1, 0);
        p.access(2, 1);
        p.access(3, 0); // evicts (2,0): oldest tick
        assert!(!p.access(2, 0));
    }

    #[test]
    fn presets_scale_with_network_size() {
        assert_eq!(CapacityPreset::for_nodes(1_089), CapacityPreset::Paper);
        assert_eq!(CapacityPreset::for_nodes(10_000), CapacityPreset::City);
        assert_eq!(CapacityPreset::for_nodes(100_000), CapacityPreset::Metro);
        assert_eq!(
            CapacityPreset::for_nodes(1_000_000),
            CapacityPreset::Continental
        );
        assert!(CapacityPreset::Paper.blocks() < CapacityPreset::Continental.blocks());
    }

    #[test]
    fn file_ids_are_unique() {
        let a = next_file_id();
        let b = next_file_id();
        assert_ne!(a, b);
    }
}

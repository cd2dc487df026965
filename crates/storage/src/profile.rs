//! Storage configuration profiles: one knob bundle per network scale.
//!
//! The scaling study (`SCALING.md`) varies three storage decisions at
//! once — heap segmentation, buffer capacity, and the eviction policy —
//! and the serving layer must open its stores the same way the benches
//! measured them. [`StorageProfile`] names those bundles so a caller
//! writes `StorageProfile::for_nodes(n)` instead of re-deriving the knob
//! settings at every call site. Two of the three are one choice:
//! region-aware eviction only has regions to tell apart when the heap
//! files are segmented, so a segmented profile evicts region-aware and
//! an unsegmented one plain LRU. The segment sizes follow from the block
//! geometry ([`SEGMENT_BLOCKS_S`], [`SEGMENT_BLOCKS_R`]).
//!
//! [`StorageProfile::paper`] is the identity configuration: unsegmented
//! heap files, no buffer pool — bit-identical to the engine before
//! profiles existed, and what `Database::open` uses. A pool-only profile
//! (`StorageProfile { buffer_blocks: Some(n), ..StorageProfile::paper() }`)
//! keeps the single-file layout and caches it in a plain LRU pool.

use crate::tuple::{EdgeTuple, FixedTuple, NodeTuple};

/// Node-relation tuples per block (`Bf_r`): one 256-node region.
const NODE_TUPLES_PER_BLOCK: usize = crate::block::BLOCK_SIZE / NodeTuple::SIZE;

/// Blocks per segment of the edge relation `S` in a segmented profile:
/// one 256-node region of ~4 out-edges each ≈ 1024 edge tuples = 8
/// blocks.
pub const SEGMENT_BLOCKS_S: usize =
    NODE_TUPLES_PER_BLOCK * 4 / (crate::block::BLOCK_SIZE / EdgeTuple::SIZE);

/// Blocks per segment of the node relation `R` in a segmented profile:
/// one segment = one 256-node block.
pub const SEGMENT_BLOCKS_R: usize = 1;

/// How a `Database` (and the serving layer's epoch stores) configure the
/// storage engine.
///
/// | field | paper() | for_nodes(n) |
/// |---|---|---|
/// | `segmented` | `false` (single heap files, LRU eviction) | `true` — region-aligned segments, evict the coldest region's blocks first |
/// | `buffer_blocks` | `None` (no pool, cold cache) | 16 / 128 / 1024 / 4096 blocks by scale |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageProfile {
    /// Split `S` into [`SEGMENT_BLOCKS_S`]-block and `R` into
    /// [`SEGMENT_BLOCKS_R`]-block segments, and evict a pool's blocks
    /// coldest-region-first; `false` keeps the single-file layout and
    /// plain LRU eviction.
    pub segmented: bool,
    /// Buffer pool capacity in blocks; `None` runs the paper's cold-cache
    /// model (no pool).
    pub buffer_blocks: Option<usize>,
}

impl StorageProfile {
    /// The paper-faithful identity configuration: unsegmented heap files
    /// and no buffer pool. `Database::open` uses this.
    pub const fn paper() -> StorageProfile {
        StorageProfile {
            segmented: false,
            buffer_blocks: None,
        }
    }

    /// The scaled configuration for a network of `nodes` nodes: 256-node
    /// region-aligned segments plus a pool sized for the scale, with
    /// region-aware eviction.
    ///
    /// | nodes | pool blocks | bytes |
    /// |---|---|---|
    /// | ≤ 2 000 (the paper's networks) | 16 | 64 KiB |
    /// | ≤ 20 000 (city) | 128 | 512 KiB |
    /// | ≤ 200 000 (metro) | 1024 | 4 MiB |
    /// | larger (continental) | 4096 | 16 MiB |
    ///
    /// Every pool is smaller than the graph it serves (a 100k-node metro
    /// occupies ≈ 3.5k blocks across `S` and `R`), so the engine is
    /// exercised as a cache, not a RAM copy; see `SCALING.md`.
    pub const fn for_nodes(nodes: usize) -> StorageProfile {
        let blocks = if nodes <= 2_000 {
            16
        } else if nodes <= 20_000 {
            128
        } else if nodes <= 200_000 {
            1024
        } else {
            4096
        };
        StorageProfile {
            segmented: true,
            buffer_blocks: Some(blocks),
        }
    }
}

impl Default for StorageProfile {
    fn default() -> Self {
        StorageProfile::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_is_the_identity() {
        let p = StorageProfile::paper();
        assert!(!p.segmented);
        assert_eq!(p.buffer_blocks, None);
        assert_eq!(StorageProfile::default(), p);
    }

    #[test]
    fn scaled_profiles_align_segments_with_regions() {
        let p = StorageProfile::for_nodes(100_000);
        assert_eq!(SEGMENT_BLOCKS_R, 1);
        assert_eq!(SEGMENT_BLOCKS_S, 8);
        assert_eq!(p.buffer_blocks, Some(1024));
        // Segmented profiles are the region-aware ones.
        assert!(p.segmented);
    }

    #[test]
    fn pool_grows_with_scale_but_stays_bounded() {
        let caps: Vec<usize> = [1_000, 1_089, 10_000, 100_000, 1_000_000]
            .iter()
            .map(|&n| StorageProfile::for_nodes(n).buffer_blocks.unwrap())
            .collect();
        assert_eq!(caps, [16, 16, 128, 1024, 4096]);
    }
}

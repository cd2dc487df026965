//! Fixed-size disk blocks.
//!
//! A page's bytes sit behind an `Arc`: cloning a [`Block`] shares the
//! bytes, and the first write through [`Block::bytes_mut`] to a page
//! somebody else still holds copies that one page. A heap file keeps its
//! blocks in a persistent chunk table (see [`crate::heapfile`]), so
//! cloning the stored relation `S` of a database snapshot bumps one
//! pointer, and a traffic update copies the page it rewrites plus one
//! leaf and the root of that table's page pointers.

use atis_graph::grouped::Sharing;
use std::sync::Arc;

/// Disk block size in bytes — `B = 4096` in Table 4A.
pub const BLOCK_SIZE: usize = 4096;

/// A 4096-byte page. Tuples are stored at fixed-width slots; the slot
/// layout is owned by [`crate::heapfile::HeapFile`]. Clones share the
/// page until one of them writes it.
#[derive(Clone)]
pub struct Block {
    data: Arc<[u8; BLOCK_SIZE]>,
}

impl Block {
    /// A zeroed block.
    pub fn new() -> Self {
        Block {
            data: Arc::new([0u8; BLOCK_SIZE]),
        }
    }

    /// Counts this page into `sharing`: shared iff `other` is the same
    /// page in memory.
    pub(crate) fn count_shared(&self, other: &Block, sharing: &mut Sharing) {
        sharing.part(&self.data, &other.data, BLOCK_SIZE);
    }

    /// Immutable view of a byte range.
    ///
    /// # Panics
    /// Panics if the range exceeds the block.
    #[inline]
    pub fn bytes(&self, offset: usize, len: usize) -> &[u8] {
        &self.data[offset..offset + len]
    }

    /// Mutable view of a byte range; copies the page first if a clone
    /// still shares it.
    ///
    /// # Panics
    /// Panics if the range exceeds the block.
    #[inline]
    pub fn bytes_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.data)[offset..offset + len]
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Block[{BLOCK_SIZE}B]")
    }
}

/// Number of blocks needed for `tuples` tuples at `per_block` tuples per
/// block — the `B_x = |X| / Bf_x` (rounded up) of the cost model.
#[inline]
pub fn blocks_for(tuples: usize, per_block: usize) -> usize {
    tuples.div_ceil(per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_zeroed() {
        let b = Block::new();
        assert!(b.bytes(0, BLOCK_SIZE).iter().all(|&x| x == 0));
    }

    #[test]
    fn write_then_read() {
        let mut b = Block::new();
        b.bytes_mut(100, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.bytes(100, 4), &[1, 2, 3, 4]);
        assert_eq!(b.bytes(99, 1), &[0]);
    }

    #[test]
    fn a_clone_shares_the_page_until_it_is_written() {
        let mut a = Block::new();
        a.bytes_mut(0, 1)[0] = 7;
        let mut b = a.clone();
        let mut sharing = Sharing::default();
        a.count_shared(&b, &mut sharing);
        b.bytes_mut(1, 1)[0] = 8;
        a.count_shared(&b, &mut sharing);
        assert_eq!((sharing.shared, sharing.copied_bytes), (1, BLOCK_SIZE));
        assert_eq!((a.bytes(0, 2), b.bytes(0, 2)), (&[7, 0][..], &[7, 8][..]));
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0, 256), 0);
        assert_eq!(blocks_for(1, 256), 1);
        assert_eq!(blocks_for(256, 256), 1);
        assert_eq!(blocks_for(257, 256), 2);
        // Table 4A: |R| = 900 nodes at 256/block -> 4 blocks.
        assert_eq!(blocks_for(900, 256), 4);
        // |S| = 3480 edges at 128/block -> 28 blocks.
        assert_eq!(blocks_for(3480, 128), 28);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let b = Block::new();
        let _ = b.bytes(BLOCK_SIZE - 1, 2);
    }
}

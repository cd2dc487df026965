//! Persistent chunk tables, and the CSR column cut into one.
//!
//! The serving state is a persistent structure: a snapshot is cloned for
//! every traffic update, and the clone must share everything the update
//! does not write. Two types here do that for every chunked layer:
//!
//! * [`ChunkTable`] is the table of chunk handles: a root of leaves of
//!   handles, both levels behind an `Arc` and about `√len` long. A
//!   clone bumps one pointer, whatever the table holds; a write
//!   path-copies the root and the one leaf on the chunk's path (unless
//!   nobody else holds them) and hands back the chunk's handle, which
//!   the caller copies on write in turn. The storage layer's heap files
//!   keep their 4 KB pages in one.
//! * [`GroupedColumn`] is a CSR column whose rows of [`GROUP_NODES`]
//!   consecutive nodes form one chunk of a [`ChunkTable`]: the graph's
//!   edge column and the overlay's four price columns. A node's rows
//!   never straddle a group, so they are still one plain slice.
//!
//! So cloning a snapshot costs a handful of pointer bumps, and an update
//! costs what it writes: the chunks, plus a root and a leaf of pointers
//! per table it writes into.
//!
//! The column does not own the CSR offsets — the graph and the overlay
//! each have theirs already — so the row accessors take them as an
//! argument: `offsets[u]..offsets[u + 1]` are node `u`'s rows, `n + 1`
//! entries for `n` nodes, exactly the array the column was built from.

use std::sync::Arc;

/// Consecutive nodes whose rows share one group. 256 is the region size
/// the storage layout, the hierarchy order and the shard map all
/// partition at, so under the region-major relabel one group is one
/// region: an update's writes land where its blocks do.
pub const GROUP_NODES: usize = 256;

/// Handles per leaf of an empty [`ChunkTable`], as a power of two: 4.
const FIRST_LEAF_SHIFT: u32 = 2;

/// A persistent table of chunk handles, two levels deep.
///
/// `H` is a handle that shares its chunk when cloned (an `Arc`, or a
/// type around one). The table shares its own two levels the same way:
/// a clone is one pointer bump, and [`ChunkTable::get_mut`] copies the
/// root and the leaf on the chunk's path only while another table still
/// holds them — so the first write into a leaf after a clone copies a
/// root of one handle per leaf and a leaf of handles, and the next write
/// into the same leaf copies none. Copying the chunk behind the handle
/// is the caller's business.
///
/// Each handle a path-copy clones is a reference-count increment on
/// memory nobody has touched lately, so the table keeps its two levels
/// about equally long: leaves hold 4, 8, 16 … handles, and
/// [`ChunkTable::push`] doubles that whenever the root would grow past
/// twice a leaf. A write then copies about `2√len` handles: 14 for the
/// 42 edge groups of metro-10k, 36 for its 317 pages of `S`, 112 for
/// the 3 022 pages of metro-100k's.
#[derive(Debug, Clone)]
pub struct ChunkTable<H> {
    root: Arc<Vec<Arc<Vec<H>>>>,
    /// Handles per leaf, as a power of two.
    shift: u32,
    len: usize,
}

impl<H> Default for ChunkTable<H> {
    fn default() -> Self {
        ChunkTable {
            root: Arc::new(Vec::new()),
            shift: FIRST_LEAF_SHIFT,
            len: 0,
        }
    }
}

/// Tables are equal when they hold equal chunks in the same order,
/// however their leaves cut them.
impl<H: PartialEq> PartialEq for ChunkTable<H> {
    fn eq(&self, other: &ChunkTable<H>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<H> ChunkTable<H> {
    /// Number of chunks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no chunk.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every chunk handle, in order.
    pub fn iter(&self) -> Chunks<'_, H> {
        Chunks {
            leaves: self.root.iter(),
            chunks: [].iter(),
            remaining: self.len,
        }
    }

    /// Whether `self` and `other` are one table in memory: the same root,
    /// so every leaf and chunk under it is shared too.
    pub fn shares_root_with(&self, other: &ChunkTable<H>) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// The leaf chunk `i` sits in, and its place there.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        (i >> self.shift, i & ((1 << self.shift) - 1))
    }
}

impl<H: Clone> ChunkTable<H> {
    /// Appends a chunk: into the last leaf while it has room, into a new
    /// leaf after — and when that leaf would make the root longer than
    /// twice a leaf, the table is cut again into leaves twice as long.
    pub fn push(&mut self, chunk: H) {
        let leaf_len = 1 << self.shift;
        if self.len == self.root.len() * leaf_len && self.root.len() >= 2 * leaf_len {
            let chunks: Vec<H> = self.iter().cloned().collect();
            self.shift += 1;
            let leaves = chunks
                .chunks(leaf_len * 2)
                .map(|leaf| Arc::new(leaf.to_vec()));
            self.root = Arc::new(leaves.collect());
        }
        let leaf_len = 1 << self.shift;
        let leaves = Arc::make_mut(&mut self.root);
        match leaves.last_mut() {
            Some(leaf) if leaf.len() < leaf_len => Arc::make_mut(leaf).push(chunk),
            _ => {
                let mut leaf = Vec::with_capacity(leaf_len);
                leaf.push(chunk);
                leaves.push(Arc::new(leaf));
            }
        }
        self.len += 1;
    }

    /// Chunk `i`'s handle, writable: the root and the chunk's leaf are
    /// copied first if another table holds them.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut H {
        let (leaf, at) = self.locate(i);
        let leaf = &mut Arc::make_mut(&mut self.root)[leaf];
        &mut Arc::make_mut(leaf)[at]
    }

    /// Every chunk handle, writable and in order: a pass that rewrites
    /// the whole table copies whichever levels are shared, once.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut H> + '_ {
        let leaves = Arc::make_mut(&mut self.root).iter_mut();
        leaves.flat_map(|leaf| Arc::make_mut(leaf).iter_mut())
    }
}

impl<H: Clone> FromIterator<H> for ChunkTable<H> {
    fn from_iter<I: IntoIterator<Item = H>>(chunks: I) -> Self {
        let mut table = ChunkTable::default();
        for chunk in chunks {
            table.push(chunk);
        }
        table
    }
}

impl<H> std::ops::Index<usize> for ChunkTable<H> {
    type Output = H;

    #[inline]
    fn index(&self, i: usize) -> &H {
        let (leaf, at) = self.locate(i);
        &self.root[leaf][at]
    }
}

/// Iterator over a [`ChunkTable`]'s handles, in order.
#[derive(Debug, Clone)]
pub struct Chunks<'a, H> {
    leaves: std::slice::Iter<'a, Arc<Vec<H>>>,
    chunks: std::slice::Iter<'a, H>,
    remaining: usize,
}

impl<'a, H> Iterator for Chunks<'a, H> {
    type Item = &'a H;

    #[inline]
    fn next(&mut self) -> Option<&'a H> {
        loop {
            if let Some(chunk) = self.chunks.next() {
                self.remaining -= 1;
                return Some(chunk);
            }
            self.chunks = self.leaves.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<H> ExactSizeIterator for Chunks<'_, H> {}

/// A column of per-node rows, grouped by [`GROUP_NODES`] consecutive
/// nodes, each group one chunk of a [`ChunkTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedColumn<T> {
    groups: ChunkTable<Arc<[T]>>,
    len: usize,
}

impl<T> Default for GroupedColumn<T> {
    fn default() -> Self {
        GroupedColumn {
            groups: ChunkTable::default(),
            len: 0,
        }
    }
}

impl<T: Clone> GroupedColumn<T> {
    /// A column with every row of every node set to `value`, each group
    /// allocated once at its final size.
    pub fn filled(offsets: &[u32], value: T) -> Self {
        let nodes = offsets.len().saturating_sub(1);
        let groups = (0..nodes.div_ceil(GROUP_NODES))
            .map(|g| {
                let lo = offsets[g * GROUP_NODES];
                let hi = offsets[((g + 1) * GROUP_NODES).min(nodes)];
                (lo..hi).map(|_| value.clone()).collect()
            })
            .collect();
        GroupedColumn {
            groups,
            len: offsets.last().map_or(0, |&end| end as usize),
        }
    }

    /// Appends the next group: the rows of the next [`GROUP_NODES`]
    /// nodes (fewer for the last group), already in row order.
    pub fn push_group(&mut self, rows: &[T]) {
        self.len += rows.len();
        self.groups.push(Arc::from(rows));
    }

    /// Node `u`'s rows, writable; copies `u`'s group if it is shared.
    #[inline]
    pub fn row_mut(&mut self, offsets: &[u32], u: usize) -> &mut [T] {
        let (g, rows) = locate(offsets, u);
        &mut unique(self.groups.get_mut(g))[rows]
    }

    /// Every group, writable and indexed by group number — for a pass
    /// that writes the whole column and wants plain slices in its loop.
    /// Copies whichever groups are shared.
    pub fn groups_mut(&mut self) -> Vec<&mut [T]> {
        self.groups.iter_mut().map(unique).collect()
    }
}

/// `group`, writable: copied first if another column shares it.
#[expect(clippy::expect_used, reason = "the group was made unique just above")]
fn unique<T: Clone>(group: &mut Arc<[T]>) -> &mut [T] {
    // `Arc::make_mut` on a slice is newer than the MSRV.
    if Arc::get_mut(group).is_none() {
        *group = Arc::from(&group[..]);
    }
    Arc::get_mut(group).expect("the group was just made unique")
}

impl<T> GroupedColumn<T> {
    /// Number of rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node `u`'s rows.
    #[inline]
    pub fn row(&self, offsets: &[u32], u: usize) -> &[T] {
        let (g, rows) = locate(offsets, u);
        &self.groups[g][rows]
    }

    /// The groups in node order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.groups.iter().map(|group| &group[..])
    }

    /// Every row in node order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            groups: self.groups.iter(),
            rows: [].iter(),
            remaining: self.len,
        }
    }

    /// How much of `self` is the very memory `other` holds: the table
    /// once, and one part per group. Both columns must have the same
    /// grouping.
    pub fn shared_with(&self, other: &GroupedColumn<T>) -> Sharing {
        debug_assert_eq!(self.groups.len(), other.groups.len());
        let mut sharing = Sharing::default();
        sharing.table(self.groups.shares_root_with(&other.groups));
        for (a, b) in self.groups.iter().zip(other.groups.iter()) {
            sharing.part(a, b, std::mem::size_of_val(&a[..]));
        }
        sharing
    }
}

/// Group of node `u` and the range of `u`'s rows within it.
#[inline]
fn locate(offsets: &[u32], u: usize) -> (usize, std::ops::Range<usize>) {
    let g = u / GROUP_NODES;
    let base = offsets[g * GROUP_NODES];
    (
        g,
        (offsets[u] - base) as usize..(offsets[u + 1] - base) as usize,
    )
}

/// Position of a row in a column: its node's group and the index within
/// the group — `(u / GROUP_NODES, idx - offsets[group start])` for the
/// row with CSR index `idx` of node `u`.
impl<T> std::ops::Index<(usize, usize)> for GroupedColumn<T> {
    type Output = T;

    #[inline]
    fn index(&self, (g, i): (usize, usize)) -> &T {
        &self.groups[g][i]
    }
}

/// Writing through a position copies the group first if it is shared.
impl<T: Clone> std::ops::IndexMut<(usize, usize)> for GroupedColumn<T> {
    #[inline]
    fn index_mut(&mut self, (g, i): (usize, usize)) -> &mut T {
        &mut unique(self.groups.get_mut(g))[i]
    }
}

/// Iterator over every row of a [`GroupedColumn`], in node order.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    groups: Chunks<'a, Arc<[T]>>,
    rows: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(row) = self.rows.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.rows = self.groups.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// What two snapshots of one structure share, counted in *parts* — each
/// separately reference-counted piece: a column group, a storage page, a
/// whole shared array — and in the [`ChunkTable`]s the chunked parts sit
/// in. The tests' measure of what an install copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Parts that are the same allocation on both sides.
    pub shared: usize,
    /// Parts compared.
    pub total: usize,
    /// Bytes held by the parts that are not shared (one side's worth).
    pub copied_bytes: usize,
    /// Chunk tables compared.
    pub tables: usize,
    /// Chunk tables whose root is the same allocation on both sides:
    /// nobody has written through either since one was cloned from the
    /// other.
    pub tables_shared: usize,
}

impl Sharing {
    /// Counts one part of `bytes` bytes: shared iff `a` and `b` point at
    /// the same allocation.
    pub fn part<P: ?Sized>(&mut self, a: &Arc<P>, b: &Arc<P>, bytes: usize) {
        self.total += 1;
        if Arc::ptr_eq(a, b) {
            self.shared += 1;
        } else {
            self.copied_bytes += bytes;
        }
    }

    /// Counts one chunk table, `shared` iff both sides have one root.
    pub fn table(&mut self, shared: bool) {
        self.tables += 1;
        self.tables_shared += usize::from(shared);
    }

    /// Parts not shared.
    pub fn copied(&self) -> usize {
        self.total - self.shared
    }
}

impl std::ops::AddAssign for Sharing {
    fn add_assign(&mut self, rhs: Sharing) {
        self.shared += rhs.shared;
        self.total += rhs.total;
        self.copied_bytes += rhs.copied_bytes;
        self.tables += rhs.tables;
        self.tables_shared += rhs.tables_shared;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of `n` one-element chunks, chunk `i` holding `i`.
    fn table(n: usize) -> ChunkTable<Arc<[usize]>> {
        (0..n).map(|i| Arc::from([i])).collect()
    }

    /// Which of `a`'s leaves are the very allocation `b` holds there.
    fn leaves_shared<H>(a: &ChunkTable<H>, b: &ChunkTable<H>) -> Vec<bool> {
        let pairs = a.root.iter().zip(b.root.iter());
        pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
    }

    /// `(handles per leaf, leaves)` of a table.
    fn shape<H>(t: &ChunkTable<H>) -> (usize, usize) {
        (1 << t.shift, t.root.len())
    }

    #[test]
    fn a_table_indexes_and_iterates_across_leaves() {
        for n in [0, 1, 4, 33, 42, 317, 3022] {
            let t = table(n);
            assert_eq!((t.len(), t.iter().len(), t.is_empty()), (n, n, n == 0));
            assert!(t.iter().enumerate().all(|(i, c)| c[0] == i));
            assert!((0..n).all(|i| t[i][0] == i));
            // Leaves are full but the last, and the root is at most twice
            // as long as a leaf.
            let (leaf, leaves) = shape(&t);
            assert_eq!(leaves, n.div_ceil(leaf), "{n} chunks");
            assert!(leaves <= 2 * leaf, "{n} chunks: {leaves} leaves of {leaf}");
            assert_eq!(t, t.clone());
        }
        // The shapes the docs quote: metro-10k's edge groups and pages of
        // `S`, and metro-100k's pages.
        assert_eq!(shape(&table(42)), (8, 6));
        assert_eq!(shape(&table(317)), (16, 20));
        assert_eq!(shape(&table(3022)), (64, 48));
    }

    #[test]
    fn a_full_root_cuts_the_table_into_longer_leaves() {
        let mut t = table(32);
        assert_eq!(shape(&t), (4, 8));
        let before = t.clone();
        t.push(Arc::from([32]));
        assert_eq!(shape(&t), (8, 5));
        assert!(t.iter().enumerate().all(|(i, c)| c[0] == i));
        // The chunks are the same allocations, and the clone kept its cut.
        assert!(t.iter().zip(before.iter()).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!((shape(&before), before.len()), ((4, 8), 32));
    }

    #[test]
    fn a_write_path_copies_the_root_and_one_leaf() {
        let t = table(42);
        let mut next = t.clone();
        assert!(next.shares_root_with(&t));
        *next.get_mut(11) = Arc::from([99]);
        assert!(!next.shares_root_with(&t));
        assert_eq!(
            leaves_shared(&next, &t),
            [true, false, true, true, true, true]
        );
        // The chunks the write did not replace are still shared.
        let chunks = next.iter().zip(t.iter());
        let shared = chunks.filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        assert_eq!(shared, 41);
        assert_eq!((t[11][0], next[11][0]), (11, 99));
        // The copied levels are private now: another write into the same
        // leaf copies nothing, and a push fills the last leaf.
        let (root, leaf) = (Arc::as_ptr(&next.root), Arc::as_ptr(&next.root[1]));
        *next.get_mut(8) = Arc::from([98]);
        next.push(Arc::from([7]));
        let after = (Arc::as_ptr(&next.root), Arc::as_ptr(&next.root[1]));
        assert_eq!(after, (root, leaf));
        assert_eq!((next.len(), next.root.len(), t.len()), (43, 6, 42));
        // A whole-table pass copies every leaf still shared, once.
        let mut all = t.clone();
        all.iter_mut().for_each(|c| *c = Arc::from([c[0] + 1]));
        assert_eq!(leaves_shared(&all, &t), [false; 6]);
        assert!(all.iter().zip(t.iter()).all(|(a, b)| a[0] == b[0] + 1));
    }

    /// 600 nodes (three groups, the last partial), node `u` with `u % 3`
    /// rows holding `u`.
    fn column() -> (Vec<u32>, GroupedColumn<u32>) {
        let mut offsets = vec![0u32];
        let mut column = GroupedColumn::default();
        let mut open = Vec::new();
        for u in 0..600u32 {
            open.extend((0..u % 3).map(|_| u));
            offsets.push(offsets[u as usize] + u % 3);
            if [GROUP_NODES, 2 * GROUP_NODES, 600].contains(&(u as usize + 1)) {
                column.push_group(&open);
                open.clear();
            }
        }
        (offsets, column)
    }

    #[test]
    fn rows_and_iteration_follow_the_offsets() {
        let (offsets, column) = column();
        assert_eq!(column.len(), *offsets.last().unwrap() as usize);
        assert_eq!(column.groups().len(), 3);
        for u in 0..600usize {
            assert_eq!(column.row(&offsets, u), vec![u as u32; u % 3]);
        }
        let flat: Vec<u32> = column.iter().copied().collect();
        assert_eq!(flat.len(), column.iter().len());
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        let filled = GroupedColumn::filled(&offsets, 7u32);
        assert_eq!(filled.len(), column.len());
        assert_eq!(filled.row(&offsets, 599), &[7, 7]);
        assert!(GroupedColumn::<u32>::filled(&[0], 0).is_empty());
    }

    #[test]
    fn a_write_copies_one_group_and_leaves_the_source_alone() {
        let (offsets, column) = column();
        let mut next = column.clone();
        let sharing = next.shared_with(&column);
        assert_eq!((sharing.copied(), sharing.tables_shared), (0, 1));
        next.row_mut(&offsets, 301)[0] = 9;
        next[(1, 1)] = 9;
        let sharing = next.shared_with(&column);
        assert_eq!((sharing.shared, sharing.total), (2, 3));
        assert_eq!((sharing.tables, sharing.tables_shared), (1, 0));
        assert_eq!(
            sharing.copied_bytes,
            4 * column.groups().nth(1).unwrap().len()
        );
        assert_eq!(column.row(&offsets, 301), &[301]);
        assert_eq!(next.row(&offsets, 301), &[9]);
        assert_eq!(next[(1, 1)], 9);
        assert_ne!(next, column);
        // The copy is private now: writing it again copies nothing.
        let before = next.groups().nth(1).unwrap().as_ptr();
        next.row_mut(&offsets, 302)[0] = 1;
        assert_eq!(next.groups().nth(1).unwrap().as_ptr(), before);
        assert_eq!(next.clone().groups_mut().len(), 3);
    }
}

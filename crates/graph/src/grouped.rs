//! A CSR column cut at node-group boundaries, each group behind an `Arc`.
//!
//! The serving state is a persistent structure: a snapshot is cloned for
//! every traffic update, and the clone must share everything the update
//! does not write. [`GroupedColumn`] is the one mechanism the graph's
//! edge column and the overlay's four price columns use for that: the
//! rows of [`GROUP_NODES`] consecutive nodes form one group, a clone
//! copies the table of group pointers, and a write copies the one group
//! it lands in (unless nobody else holds it). A node's rows never
//! straddle a group, so they are still one plain slice.
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

/// A column of per-node rows, grouped by [`GROUP_NODES`] consecutive
/// nodes, shared group by group between clones.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedColumn<T> {
    groups: Vec<Arc<[T]>>,
    len: usize,
}

impl<T> Default for GroupedColumn<T> {
    fn default() -> Self {
        GroupedColumn {
            groups: Vec::new(),
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
        &mut unique(&mut self.groups[g])[rows]
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

    /// How much of `self` is the very memory `other` holds: one part
    /// per group. Both columns must have the same grouping.
    pub fn shared_with(&self, other: &GroupedColumn<T>) -> Sharing {
        debug_assert_eq!(self.groups.len(), other.groups.len());
        let mut sharing = Sharing::default();
        for (a, b) in self.groups.iter().zip(&other.groups) {
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
        &mut unique(&mut self.groups[g])[i]
    }
}

/// Iterator over every row of a [`GroupedColumn`], in node order.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    groups: std::slice::Iter<'a, Arc<[T]>>,
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
/// whole shared array. The tests' measure of what an install copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Parts that are the same allocation on both sides.
    pub shared: usize,
    /// Parts compared.
    pub total: usize,
    /// Bytes held by the parts that are not shared (one side's worth).
    pub copied_bytes: usize,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(next.shared_with(&column).copied(), 0);
        next.row_mut(&offsets, 301)[0] = 9;
        next[(1, 1)] = 9;
        let sharing = next.shared_with(&column);
        assert_eq!((sharing.shared, sharing.total), (2, 3));
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

//! Node identifiers and planar coordinates.

use std::fmt;

/// A node identifier.
///
/// Node ids are dense `0..n` indices. The storage layer encodes them as
/// 24-bit integers inside the fixed-width tuples (see `atis-storage`),
/// which caps graphs at ~16.7M nodes — far above the paper's largest
/// instance (1089 nodes) and above the metro generator's 1M-node
/// continental preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

/// A planar position, used by the A\* estimator functions.
///
/// The paper stores an `x-coordinate` and `y-coordinate` per tuple of the
/// node relation `R` (Section 4, Table 1) precisely so that estimators can be
/// evaluated inside the database.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`: `sqrt((x1-x2)^2 + (y1-y2)^2)`.
    ///
    /// Section 5.3: "It always underestimates the cost of the shortest path
    /// between nodes" (when edge costs dominate straight-line distance).
    #[inline]
    pub fn euclidean(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Manhattan distance to `other`: `|x1-x2| + |y1-y2|`.
    ///
    /// Section 5.3: "a perfect estimate of the length of the shortest path
    /// between nodes in grid graphs with a uniform cost model".
    #[inline]
    pub fn manhattan(&self, other: &Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// A straight-line length between two points, the one a geometric
/// estimator scales: Euclidean for A\* versions 1, 2 and 4 (and
/// version 4's floor), Manhattan for version 3 and its weighted variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// [`Point::euclidean`].
    Euclidean,
    /// [`Point::manhattan`].
    Manhattan,
}

impl Norm {
    /// Both norms, in the order [`crate::Graph::cost_floors`] reports them.
    pub const ALL: [Norm; 2] = [Norm::Euclidean, Norm::Manhattan];

    /// The length from `a` to `b` under this norm.
    #[inline]
    pub fn length(self, a: &Point, b: &Point) -> f64 {
        match self {
            Norm::Euclidean => a.euclidean(b),
            Norm::Manhattan => a.manhattan(b),
        }
    }

    /// This norm's entry of a pair ordered as [`Norm::ALL`].
    #[inline]
    pub fn select<T>(self, [euclidean, manhattan]: [T; 2]) -> T {
        match self {
            Norm::Euclidean => euclidean,
            Norm::Manhattan => manhattan,
        }
    }

    /// Lower-case name (`euclidean`, `manhattan`).
    pub fn label(self) -> &'static str {
        match self {
            Norm::Euclidean => "euclidean",
            Norm::Manhattan => "manhattan",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from(42usize);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
        assert_eq!(format!("{n}"), "n42");
    }

    #[test]
    fn euclidean_distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.euclidean(&b) - 5.0).abs() < 1e-12);
        assert!((b.euclidean(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_distance_is_l1() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, -2.0);
        assert!((a.manhattan(&b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_never_exceeds_manhattan() {
        let a = Point::new(-3.5, 2.25);
        let b = Point::new(10.0, 7.5);
        assert!(a.euclidean(&b) <= a.manhattan(&b) + 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(5.0, -1.0);
        assert_eq!(a.euclidean(&a), 0.0);
        assert_eq!(a.manhattan(&a), 0.0);
    }
}
